"""Information rates: Monte-Carlo estimators of the optimal-front GMI, the
mutual information and the posterior/tilted KL gap, and the exact channel
linearization GMI by quadrature."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import check_channel, transmit
from .constellation import Constellation, per_user
from .fronts import ARTANH_CLIP, cl_front, qpsk_estimates, tilted_pmf
from .posterior import ENUM_CAP, EnumerationCapError, SplitEnumeration, budget_columns

LN2 = float(np.log(2.0))
SAMPLE_CHUNK = 16384     # most channel uses per enumeration batch
THETA_ITERS = 100        # Newton steps of the metric-temperature fit
RATE_METHODS = ("gnnd", "cl", "mi", "kl")
# the exact CL GMI's grid, the smallest whose rates stay within 1e-14 bits of
# a finer one's: points per noise deviation and per half-width of the strip
# where its integrand is analytic, and deviations read past the interference
# values; and the bytes of each float64 array of a slice
CL_GRID_STEPS = 5
CL_TAIL = 9
CL_SLICE_BYTES = 2**20


@dataclass(frozen=True)
class RateEstimate:
    """A rate in bits per channel use with its Monte-Carlo standard error,
    0 for a rate computed exactly."""

    value: float
    std_error: float
    samples: int

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if self.std_error < 0:
            raise ValueError("std_error must be nonnegative")


def combine_rates(estimates) -> RateEstimate:
    """Sum of independent rate estimates with errors added in quadrature."""
    estimates = list(estimates)
    value = sum(e.value for e in estimates)
    se = float(np.sqrt(sum(e.std_error**2 for e in estimates)))
    return RateEstimate(value, se, min(e.samples for e in estimates))


def is_equiprobable_qpsk(c: Constellation) -> bool:
    amp = np.sqrt(c.power / 2.0)
    want = amp * np.array([-1 - 1j, -1 + 1j, 1 - 1j, 1 + 1j])  # sorted
    return c.size == 4 and bool(np.allclose(c.probabilities, 0.25, atol=1e-12) and np.allclose(
        np.sort_complex(c.points), want, atol=1e-9 * max(amp, 1.0)))


def gnnd_gmi_samples(means, power: float) -> np.ndarray:
    """Per-observation integrand (nats) of the optimal-front GMI for QPSK.

    Each dimension contributes u artanh(u) + log sqrt(1 - u^2) with
    u = sqrt(2/P) Re/Im of the conditional mean, clamped like the front.
    """
    means = np.asarray(means)
    s = np.sqrt(2.0 / power)
    out = 0.0
    for u in (np.clip(s * means.real, -ARTANH_CLIP, ARTANH_CLIP),
              np.clip(s * means.imag, -ARTANH_CLIP, ARTANH_CLIP)):
        out = out + u * np.arctanh(u) + 0.5 * np.log1p(-u * u)
    return out


def maximize_theta(moments, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Maximizers over theta < 0 of n concave GMI objectives (Ganti, Lapidoth
    & Telatar 2000) and the maxima, (n,) each, given ``moments(theta, live)``:
    the objectives indexed by ``live`` at ``theta``, their slopes and their
    curvatures negated. Each runs its own Newton from theta = -1; a step at
    most doubles or halves theta and is halved until the objective does not
    fall, and a fit stops after THETA_ITERS steps or at rounding level."""
    eps = np.finfo(np.float64).eps
    theta, live = np.full(n, -1.0), np.arange(n)
    reads = value, slope, curvature = np.array(moments(theta, live), dtype=np.float64)
    for _ in range(THETA_ITERS):
        live = live[curvature[live] > 0.0]
        t = theta[live]  # stays negative, and |theta| at most doubles or halves
        step = np.minimum(np.maximum(slope[live] / curvature[live], t), -t / 2.0)
        gain = np.abs(slope[live] * step) > eps * np.abs(value[live])  # else at rounding level
        todo, step, moved = live[gain], step[gain], []
        # each stops once no step above rounding level raises its objective
        while (big := np.abs(step) > eps * np.abs(theta[todo])).any():
            todo, step = todo[big], step[big]
            trial = np.asarray(moments(theta[todo] + step, todo))
            up = trial[0] >= value[todo]
            theta[todo[up]] += step[up]
            reads[:, todo[up]] = trial[:, up]
            moved.append(todo[up])
            todo, step = todo[~up], step[~up] / 2.0
        if not moved:
            break
        live = np.sort(np.concatenate(moved))
    return theta, value


def product_factors(c: Constellation):
    """The real and the imaginary factor, each (levels, probabilities), of a
    product alphabet: one whose points are every pair of a real and an
    imaginary level, with the product of their probabilities, as QPSK and
    square QAM grids are. Raises NotImplementedError for any other."""
    (re, at_re), (im, at_im) = (np.unique(part, return_inverse=True)
                                for part in (c.points.real, c.points.imag))
    p_re, p_im = np.bincount(at_re, c.probabilities), np.bincount(at_im, c.probabilities)
    want = p_re[at_re] * p_im[at_im]
    if re.size * im.size != c.size or np.any(np.abs(c.probabilities - want) > 1e-12 * want):
        raise NotImplementedError("the CL rate is implemented for product (PAM x PAM) alphabets")
    return (re, p_re), (im, p_im)


def _mixture_weights(values, probs, s: float, step: float):
    """Trapezoid weights step f(lo + k step), k = 0, 1, ..., of the density f
    of sum_l probs_l N(centres_l, s^2), centred on the real and on the
    imaginary parts of ``values``, and each one's lo: (2,) and (2, nodes). A
    term is read CL_TAIL deviations out: at offset j from the node nearest
    its centre, f steps away, exp(-((j + f) h)^2 / 2) with h = step / s is
    exp(-(j h)^2 / 2) exp(-j f h^2 - (f h)^2 / 2). Slices of CL_SLICE_BYTES."""
    half = math.ceil(CL_TAIL * s / step)
    h = step / s
    parts = (values.real, values.imag)
    lo = np.array([part.min() for part in parts]) - (half + 1) * step
    size = int(max(np.ptp(part) for part in parts) / step) + 2 * half + 4
    offsets = np.arange(-half, half + 1)
    kernel = np.exp(-0.5 * (h * offsets) ** 2)
    weights = np.zeros(2 * size)
    per = max(1, CL_SLICE_BYTES // (16 * offsets.size))
    for at in range(0, values.size, per):
        c = values[at:at + per]
        pos = (np.stack([c.real, c.imag]) - lo[:, None]) / step
        k = np.rint(pos)
        f = k - pos
        g = np.exp(np.multiply.outer(-h * h * f, offsets))
        g *= kernel
        g *= (probs[at:at + per] * np.exp(-0.5 * (h * f) ** 2))[..., None]
        k = k.astype(np.int64) + np.array([[0], [size]])
        weights += np.bincount((k[..., None] + offsets).ravel(), g.ravel(), weights.size)
    return lo, weights.reshape(2, size) * (h / math.sqrt(2.0 * math.pi))


def cl_gmi_from_scalar(fronts, gains, noise_var: float, constellations, users, firsts):
    """Exact GMI, in bits, of the linearized-channel metric |y_s - g a|^2 of
    each user of ``users`` on the scalar channel y_s = combiner^H y of its
    front in ``fronts``, g the front's scalar gain, with the users before
    its entry of ``firsts`` cancelled from y. (users,).

    Given every active user's symbol, y_s is complex Gaussian: mean g x +
    sum_j (combiner^H h_j) x_j over the other active users, variance
    noise_var |combiner|^2. For a product alphabet (``product_factors``) the
    GMI objective at theta < 0,
        E[-log sum_a p(a) exp(theta (|y_s - g a|^2 - |y_s - g x|^2))],
    is a real plus an imaginary term, each a mean over the sent level of an
    integral over z = y_s - g x, whose density is a Gaussian mixture over
    the interference values, read by the trapezoid rule on a uniform grid:
    CL_GRID_STEPS points per noise deviation and per half-width of the strip
    where the integrand is analytic, pi / (2 |theta| g (largest level
    spread)), and CL_TAIL deviations out. A user's grid is halved as its
    theta grows, each built once from its interferers, enumerated afresh
    under ENUM_CAP. One ``maximize_theta`` fits every user's theta.
    """
    n_users = gains.shape[1]
    consts = per_user(constellations, n_users)
    setup = []  # per user: coefficients, interferers, gain, noise deviation, strip, factors
    for front, user, first in zip(fronts, users, firsts):
        dims = product_factors(consts[user])
        others = [j for j in range(first, n_users) if j != user]
        total = int(np.prod([consts[j].size for j in others], dtype=np.int64))
        if total > ENUM_CAP:
            raise EnumerationCapError(f"{total} CL interferer symbols exceed cap {ENUM_CAP}")
        gain = float(front.scalar_gain)
        s = math.sqrt(noise_var * np.vdot(front.combiner, front.combiner).real / 2.0)
        strip = 2.0 * gain * max(np.ptp(levels) for levels, _ in dims) * s / math.pi
        setup.append((front.combiner.conj() @ gains, others, gain, s, strip, dims))
    # every dimension's candidates are padded to one count
    width = max(levels.size for *_, dims in setup for levels, _ in dims)
    rows = CL_SLICE_BYTES // (8 * width)
    grids = {}

    def grid(i, theta):
        """User i's rows at theta: metric differences (candidate, (dimension,
        sent level, node)), candidate log probabilities, trapezoid weights; a
        padded candidate repeats the last level at probability 0."""
        coef, others, gain, s, strip, dims = setup[i]
        ratio = abs(theta) * strip  # noise deviation / strip half-width
        level = math.ceil(math.log2(ratio)) if ratio > 1.0 else 0
        if (i, level) not in grids:
            values, probs = np.zeros(1, dtype=np.complex128), np.ones(1)
            for j in others:
                values = (values[:, None] + coef[j] * consts[j].points).ravel()
                probs = (probs[:, None] * consts[j].probabilities).ravel()
            step = s / (CL_GRID_STEPS << level)
            parts = []
            for lo, w, (levels, p) in zip(*_mixture_weights(values, probs, s, step), dims):
                keep = np.flatnonzero(w)
                pad = width - levels.size
                delta = gain * (levels - np.append(levels, [levels[-1]] * pad)[:, None])[..., None]
                e = (delta * (2.0 * (lo + keep * step) + delta)).reshape(width, -1)
                log_p = np.append(np.log(p), [-np.inf] * pad)[:, None]
                parts.append((e, np.broadcast_to(log_p, e.shape), (p[:, None] * w[keep]).ravel()))
            grids[i, level] = [np.concatenate(x, axis=-1) for x in zip(*parts)]
        return grids[i, level]

    def moments(theta, live):
        # each live user's rows in pieces of at most `rows`: all read at
        # once if they fit in `rows`, else one by one
        pieces = [(k, t, e[:, at:at + rows], log_p[:, at:at + rows], wt[at:at + rows])
                  for k, (i, t) in enumerate(zip(live, theta)) for e, log_p, wt in [grid(i, t)]
                  for at in range(0, wt.size, rows)]
        sums = np.zeros((3, live.size))
        for run in [pieces] if sum(p[4].size for p in pieces) <= rows else [[p] for p in pieces]:
            k, t, e, log_p, wt = zip(*run)
            sizes = [w.size for w in wt]
            e, log_p, wt = (np.concatenate(x, axis=-1) for x in (e, log_p, wt))
            a = np.repeat(t, sizes) * e + log_p
            top = a.max(axis=0)
            q = np.exp(a - top)
            norm = q.sum(axis=0)
            q /= norm
            mean_e = np.sum(q * e, axis=0)
            var_e = np.sum(q * (e - mean_e) ** 2, axis=0)
            np.add.at(sums, (slice(None), list(k)), np.add.reduceat(
                [wt * (-top - np.log(norm)), -wt * mean_e, wt * var_e],
                np.cumsum([0] + sizes[:-1]), axis=1))
        return sums

    # no GMI exceeds the input entropy, which the summed weights could pass by rounding
    entropy = [-sum(np.sum(p[p > 0] * np.log(p[p > 0])) for _, p in dims) for *_, dims in setup]
    return np.minimum(maximize_theta(moments, len(setup))[1], entropy) / LN2


def mi_samples(batch, user: int, tx_idx) -> np.ndarray:
    """Per-observation mutual-information integrand (nats) of one user, log
    P(x_user = tx | y) - log p(tx) (``PosteriorBatch.log_pmf_at``), at most -log p(tx)."""
    return (batch.log_pmf_at(user, tx_idx[None])[0]
            - np.log(batch.enum.constellations[user].probabilities)[tx_idx])


def _kl_samples(pmf, tilted) -> np.ndarray:
    """Per-observation KL between the exact posterior pmf over one user's
    symbols and the tilted pmf of its front, both (|A|, n)."""
    log_ratio = np.log(np.maximum(pmf, 1e-300)) - np.log(np.maximum(tilted, 1e-300))
    return np.sum(pmf * np.where(pmf > 0.0, log_ratio, 0.0), axis=0)


def evaluate_user_rates(gains, noise_var: float, constellations, users, methods,
                        receiver: str, n_samples: int, rng) -> dict:
    """Shared engine for all per-user rate quantities.

    Returns {method: {user: RateEstimate}} for ``users``, or for every user
    when it is None; method "kl" estimates the mutual-information/GMI gap
    of the optimal front. With receiver="sic", user k is conditioned on the
    true symbols of users 0..k-1 (the information-theoretic
    successive-cancellation rate). The "cl" rows are exact
    (``cl_gmi_from_scalar``): they draw nothing, and carry a standard error
    of 0 and ``n_samples`` samples. The others share the channel uses,
    drawn in chunks of at most the ``budget_columns`` of the largest
    enumeration the call builds and read from ``SplitEnumeration`` in its
    ``slices``; each chunk's integrands are merged into a running count,
    mean and sum of squared deviations per method and user.
    """
    if rng is None:
        raise ValueError("an explicit rng is required for reproducibility")
    if receiver not in ("no-sic", "sic"):
        raise ValueError(f"unknown receiver mode {receiver!r}")
    gains = check_channel(gains, noise_var)
    n_users = gains.shape[1]
    consts = per_user(constellations, n_users)
    users = list(range(n_users)) if users is None else list(users)
    methods = list(methods)
    if unknown := [m for m in methods if m not in RATE_METHODS]:
        raise ValueError(f"unknown method {unknown[0]!r}")
    if {"gnnd", "kl"} & set(methods) and not all(is_equiprobable_qpsk(consts[u]) for u in users):
        raise NotImplementedError(
            "optimal-front rate estimation is implemented for equiprobable QPSK")

    sic = receiver == "sic"
    first = {u: u if sic else 0 for u in users}
    out = {m: {} for m in methods}
    if "cl" in methods:
        fronts = [cl_front(gains, noise_var, consts, u, range(first[u])) for u in users]
        bits = cl_gmi_from_scalar(fronts, gains, noise_var, consts, users, list(first.values()))
        out["cl"] = {u: RateEstimate(float(b), 0.0, n_samples) for u, b in zip(users, bits)}
    sampled = [m for m in methods if m != "cl"]
    if not sampled:
        return out

    enums = {f: SplitEnumeration(gains, noise_var, consts, f) for f in sorted(set(first.values()))}
    chunk = min(SAMPLE_CHUNK, budget_columns(enums[min(enums)].n_combos))
    # per method and user: one chunk's integrands (nats), and the count,
    # mean and sum of squared deviations of those of the chunks before
    nats = {m: {u: np.empty(chunk) for u in users} for m in sampled}
    stats = {m: dict.fromkeys(users, (0, 0.0, 0.0)) for m in sampled}

    def read(batch, group, tx, at):
        """The integrands of ``group``'s users, sent ``tx``, into the chunk's columns ``at``."""
        for u in group:
            if "gnnd" in methods or "kl" in methods:
                means = batch.mean(u)
            if "gnnd" in methods:
                nats["gnnd"][u][at] = gnnd_gmi_samples(means, consts[u].power)
            if "kl" in methods:
                g = qpsk_estimates(means, consts[u].power)
                tilted = tilted_pmf(g, 1.0, consts[u]).T
                nats["kl"][u][at] = _kl_samples(batch.pmf(u), tilted)
            if "mi" in methods:
                nats["mi"][u][at] = mi_samples(batch, u, tx[u])

    # one posterior pass per first user: every user's without SIC, each user's alone with it
    groups = [(u, [u]) for u in users] if sic else [(0, users)]

    def draw_chunk(c):
        """Draw c channel uses and read their integrands into ``nats``."""
        idx = np.stack([rng.choice(consts[u].size, size=c, p=consts[u].probabilities)
                        for u in range(n_users)])

        def symbols(k):  # the points sent by users 0..k-1, (k, c)
            return np.stack([consts[u].points[idx[u]] for u in range(k)])

        y = transmit(gains, noise_var, symbols(n_users), rng)
        for f, group in groups:
            # removing no users leaves y as it is, bit for bit
            y_f = y - gains[:, :f] @ symbols(f) if sic and f else y
            for cols in enums[f].slices(c):
                read(enums[f].evaluate(y_f[:, cols]), group, idx[:, cols], cols)

    for done in range(0, n_samples, chunk):
        draw_chunk(c := min(chunk, n_samples - done))
        for m in sampled:  # Chan, Golub & LeVeque's pairwise update, z's squares in place
            for u in users:
                (n, mean, m2), z = stats[m][u], nats[m][u][:c]
                delta, total = (mu := z.mean()) - mean, n + c
                z -= mu
                stats[m][u] = (total, mean + delta * (c / total),
                               m2 + np.square(z, out=z).sum() + delta * delta * n * c / total)
    for m in sampled:
        out[m] = {u: RateEstimate(float(mean / LN2), math.sqrt(m2 / (n - 1)) / math.sqrt(n) / LN2
                                  if n > 1 else 0.0, n) for u, (n, mean, m2) in stats[m].items()}
    return out
