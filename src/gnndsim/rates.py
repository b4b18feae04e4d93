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
# the exact CL GMI's grid: points per noise deviation and per half-width of
# the strip where its integrand is analytic, the deviations it reaches past
# the interference values, and the bytes of each float64 array of a slice
CL_GRID_STEPS = 8
CL_TAIL = 10
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


def _estimate_from_nats(samples_nats: np.ndarray) -> RateEstimate:
    samples_nats = np.asarray(samples_nats, dtype=np.float64)
    n = samples_nats.size
    se = samples_nats.std(ddof=1) / np.sqrt(n) if n > 1 else 0.0
    return RateEstimate(float(samples_nats.mean() / LN2), float(se / LN2), n)


def combine_rates(estimates) -> RateEstimate:
    """Sum of independent rate estimates with errors added in quadrature."""
    estimates = list(estimates)
    value = sum(e.value for e in estimates)
    se = float(np.sqrt(sum(e.std_error**2 for e in estimates)))
    return RateEstimate(value, se, min(e.samples for e in estimates))


def is_equiprobable_qpsk(c: Constellation) -> bool:
    if c.size != 4 or not np.allclose(c.probabilities, 0.25, atol=1e-12):
        return False
    amp = np.sqrt(c.power / 2.0)
    want = amp * np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j])
    return bool(np.allclose(np.sort_complex(c.points), np.sort_complex(want),
                            atol=1e-9 * max(amp, 1.0)))


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


def maximize_theta(moments) -> tuple[float, float]:
    """Maximum over the metric temperature theta < 0 of a concave GMI
    objective (Ganti, Lapidoth & Telatar 2000), and its maximizer.

    ``moments(theta)`` returns the objective, its slope and its curvature
    negated. Newton runs from theta = -1, the matched temperature of a
    nearest-neighbor metric whose noise has unit variance. A step at most
    doubles or halves theta, and it is halved until the objective does not
    fall, so the fit cannot fail: after THETA_ITERS steps, or once a step
    or its predicted gain is at rounding level, the last iterate is used.
    Returns (theta, objective).
    """
    theta = -1.0
    value, slope, curvature = moments(theta)
    eps = np.finfo(np.float64).eps
    for _ in range(THETA_ITERS):
        if curvature <= 0.0:
            break
        # theta stays negative, and |theta| at most doubles or halves
        step = min(max(slope / curvature, theta), -theta / 2.0)
        if abs(slope * step) <= eps * abs(value):  # the gain is at rounding level
            break
        while abs(step) > eps * abs(theta):
            trial = moments(theta + step)
            if trial[0] >= value:
                break
            step /= 2.0
        else:  # no step above rounding level raises the objective
            break
        theta += step
        value, slope, curvature = trial
    return theta, value


def product_factors(c: Constellation):
    """The real and the imaginary factor, each (levels, probabilities), of a
    product alphabet: one whose points are every pair of a real and an
    imaginary level, with the product of their probabilities, as QPSK and
    square QAM grids are. Raises NotImplementedError for any other."""
    factors = []
    for part in (c.points.real, c.points.imag):
        levels, at = np.unique(part, return_inverse=True)
        factors.append((levels, at, np.bincount(at, c.probabilities, levels.size)))
    (re, at_re, p_re), (im, at_im, p_im) = factors
    if re.size * im.size != c.size or not np.allclose(c.probabilities, p_re[at_re] * p_im[at_im],
                                                      rtol=1e-12, atol=0.0):
        raise NotImplementedError("the CL rate is implemented for product (PAM x PAM) alphabets")
    return (re, p_re), (im, p_im)


def _mixture_weights(centres, probs, s: float, step: float):
    """Trapezoid weights step f(lo + k step), k = 0, 1, ..., of the density f
    of sum_l probs_l N(centres_l, s^2), and lo. Each term is read within
    CL_TAIL deviations of its centre, and the centres are walked in slices
    of CL_SLICE_BYTES."""
    half = math.ceil(CL_TAIL * s / step)
    lo = centres.min() - (half + 1) * step
    weights = np.zeros(int((centres.max() - centres.min()) / step) + 2 * half + 4)
    offsets = np.arange(-half, half + 1)
    per = max(1, CL_SLICE_BYTES // (8 * offsets.size))
    for at in range(0, centres.size, per):
        c = centres[at:at + per]
        k = np.rint((c - lo) / step).astype(np.int64)[:, None] + offsets
        u = (lo + k * step - c[:, None]) / s
        weights += np.bincount(k.ravel(), (probs[at:at + per, None] * np.exp(-0.5 * u * u)).ravel(),
                               weights.size)
    return lo, weights * (step / (s * math.sqrt(2.0 * math.pi)))


def cl_gmi_from_scalar(front, gains, noise_var: float, constellations, user: int,
                       first: int) -> float:
    """Exact GMI, in bits, of ``user``'s linearized-channel metric
    |y_s - g a|^2 on the front's scalar channel y_s = combiner^H y, with the
    users before ``first`` cancelled from y and g the front's scalar gain.

    Given every active user's symbol, y_s is complex Gaussian: its mean is
    g x + sum_j (combiner^H h_j) x_j over the interferers, the active users
    other than ``user``, and its variance noise_var |combiner|^2, half in
    each real dimension. For a product alphabet (``product_factors``) the
    metric, and so the GMI objective at each temperature theta < 0,
        E[-log sum_a p(a) exp(theta (|y_s - g a|^2 - |y_s - g x|^2))],
    is a sum of a real and an imaginary term. Each is the mean over the sent
    level of an integral over z = y_s - g x, whose density is a Gaussian
    mixture over the interference values, and is read by the trapezoid rule
    on a uniform grid in z. The rule's error falls exponentially with the
    grid's points per noise deviation and per half-width of the strip where
    the integrand is analytic, pi / (2 |theta| g (largest level spread)).
    With CL_GRID_STEPS of each it is at rounding level: a grid four times
    finer moves the rate by about 1e-15 bits. The grid is refined by
    halving as theta grows, and each grid is built once. ``maximize_theta``
    fits theta, and no sample is drawn. The interferers are enumerated
    once, at most ENUM_CAP joint symbols like every enumeration.
    """
    n_users = gains.shape[1]
    consts = per_user(constellations, n_users)
    dims = product_factors(consts[user])
    others = [j for j in range(first, n_users) if j != user]
    coef = front.combiner.conj() @ gains
    total = int(np.prod([consts[j].size for j in others], dtype=np.int64))
    if total > ENUM_CAP:
        raise EnumerationCapError(f"the CL rate's {total} interferer symbols exceed "
                                  f"cap {ENUM_CAP}")
    # the interference values and their probabilities
    values, probs = np.zeros(1, dtype=np.complex128), np.ones(1)
    for j in others:
        values = (values[:, None] + coef[j] * consts[j].points).ravel()
        probs = (probs[:, None] * consts[j].probabilities).ravel()
    gain = float(front.scalar_gain)
    s = math.sqrt(noise_var * np.vdot(front.combiner, front.combiner).real / 2.0)
    spread = max(np.ptp(levels) for levels, _ in dims)
    # per dimension: the level probabilities, the gain times each level
    # difference (sent i, candidate b) and the candidates' log probabilities
    parts = [(p, gain * (levels[:, None] - levels[None, :])[..., None], np.log(p)[:, None])
             for levels, p in dims]
    grids = {}

    def density(part, step):
        """Nodes and trapezoid weights of the density of ``part`` (np.real
        or np.imag) of z on a grid of ``step``, where it is not 0."""
        lo, w = _mixture_weights(part(values), probs, s, step)
        keep = np.flatnonzero(w)
        return lo + keep * step, w[keep]

    def grid(theta):
        """Each dimension's nodes and weights at theta."""
        ratio = 2.0 * abs(theta) * gain * spread * s / math.pi  # noise deviation / strip
        level = math.ceil(math.log2(ratio)) if ratio > 1.0 else 0
        if level not in grids:
            grids[level] = [density(part, s / (CL_GRID_STEPS << level))
                            for part in (np.real, np.imag)]
        return grids[level]

    def moments(theta):
        total = np.zeros(3)
        for (p, delta, log_p), (z, w) in zip(parts, grid(theta)):
            per = max(1, CL_SLICE_BYTES // (8 * p.size**2))
            for at in range(0, z.size, per):
                # e[i, b]: the metric of level b less that of the sent level i
                e = delta * (2.0 * z[at:at + per] + delta)
                a = theta * e + log_p
                top = a.max(axis=1)
                q = np.exp(a - top[:, None])
                norm = q.sum(axis=1)
                q /= norm[:, None]
                mean_e = np.sum(q * e, axis=1)
                var_e = np.sum(q * (e - mean_e[:, None]) ** 2, axis=1)
                wt = p[:, None] * w[at:at + per]
                total += (np.sum(wt * (-top - np.log(norm))), -np.sum(wt * mean_e),
                          np.sum(wt * var_e))
        return total

    # no GMI exceeds the input entropy, which the summed weights could pass by rounding
    entropy = -sum(np.sum(p[p > 0] * np.log(p[p > 0])) for _, p in dims)
    return float(min(maximize_theta(moments)[1], entropy) / LN2)


def mi_samples(batch, user: int, tx_idx) -> np.ndarray:
    """Per-observation mutual-information integrand (nats) of one user,
    log P(x_user = tx | y) - log p(tx), from ``PosteriorBatch.log_pmf_at``;
    no sample exceeds -log p(tx)."""
    return (batch.log_pmf_at(user, tx_idx[None])[0]
            - np.log(batch.enum.constellations[user].probabilities)[tx_idx])


def _kl_samples(pmf, tilted) -> np.ndarray:
    """Per-observation KL between the exact posterior pmf over one user's
    symbols and the tilted pmf of its front, both (|A|, n)."""
    log_ratio = np.where(pmf > 0.0,
                         np.log(np.maximum(pmf, 1e-300)) - np.log(np.maximum(tilted, 1e-300)),
                         0.0)
    return np.sum(pmf * log_ratio, axis=0)


def evaluate_user_rates(gains, noise_var: float, constellations, users, methods,
                        receiver: str, n_samples: int, rng) -> dict:
    """Shared engine for all per-user rate quantities.

    Returns {method: {user: RateEstimate}} for ``users``, or for every user
    when it is None; method "kl" estimates the mutual-information/GMI gap
    of the optimal front. With receiver="sic", user k is conditioned on the
    true symbols of users 0..k-1 (the information-theoretic
    successive-cancellation rate). The "cl" rows are exact
    (``cl_gmi_from_scalar``): they draw nothing and carry a standard error
    of 0 and ``n_samples`` as their sample count. The other methods are
    evaluated on the same sampled transmissions; without SIC one evaluation
    per chunk serves every user. The samples are drawn in chunks of at most
    the ``budget_columns`` of the largest enumeration the call builds.
    Posteriors come from ``SplitEnumeration``, read in its cache-sized
    ``slices`` of each chunk, and only the per-observation integrands
    outlive a slice. User powers are read from the constellations, for the
    CL fronts as for the sampled symbols.
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
    for m in methods:
        if m not in RATE_METHODS:
            raise ValueError(f"unknown method {m!r}")
    if {"gnnd", "kl"} & set(methods) and not all(is_equiprobable_qpsk(consts[u])
                                                 for u in users):
        raise NotImplementedError(
            "optimal-front rate estimation is implemented for equiprobable QPSK")

    sic = receiver == "sic"
    first = {u: u if sic else 0 for u in users}
    out = {m: {} for m in methods}
    if "cl" in methods:
        for u in users:
            front = cl_front(gains, noise_var, consts, u, range(first[u]))
            out["cl"][u] = RateEstimate(
                cl_gmi_from_scalar(front, gains, noise_var, consts, u, first[u]), 0.0, n_samples)
    sampled = [m for m in methods if m != "cl"]
    if not sampled:
        return out

    enums = {f: SplitEnumeration(gains, noise_var, consts, f) for f in sorted(set(first.values()))}
    chunk = min(SAMPLE_CHUNK, budget_columns(enums[min(enums)].n_combos))
    # per-observation samples (nats) of gnnd, kl and mi
    nats = {m: {u: np.empty(n_samples) for u in users} for m in sampled}

    def read(batch, group, tx, at):
        """The integrands of one slice's ``batch`` for the users of ``group``,
        sent ``tx`` (K, columns), into the samples' columns ``at``."""
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

    def draw_chunk(done, c):
        """Draw c channel uses and read them into the samples' columns from ``done`` on."""
        idx = np.stack([rng.choice(consts[u].size, size=c, p=consts[u].probabilities)
                        for u in range(n_users)])

        def symbols(k):  # the points sent by users 0..k-1, (k, c)
            return np.stack([consts[u].points[idx[u]] for u in range(k)])

        y = transmit(gains, noise_var, symbols(n_users), rng)
        for f, group in groups:
            # removing no users leaves y as it is, bit for bit
            y_f = y - gains[:, :f] @ symbols(f) if sic and f else y
            for cols in enums[f].slices(c):
                read(enums[f].evaluate(y_f[:, cols]), group, idx[:, cols],
                     slice(done + cols.start, done + cols.stop))

    for done in range(0, n_samples, chunk):
        draw_chunk(done, min(chunk, n_samples - done))
    for m in sampled:
        for u in users:
            out[m][u] = _estimate_from_nats(nats[m][u])
    return out
