"""Monte-Carlo information-rate estimators: optimal-front GMI, channel
linearization GMI, mutual information, and the posterior/tilted KL gap."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import check_channel, transmit
from .constellation import Constellation, per_user
from .fronts import ARTANH_CLIP, cl_front, nn_tables, qpsk_estimates, tilted_pmf
from .posterior import ENUM_CAP, SplitEnumeration, budget_columns

LN2 = float(np.log(2.0))
SAMPLE_CHUNK = 16384     # most channel uses per enumeration batch
THETA_ITERS = 100        # Newton steps of the metric-temperature fit
RATE_METHODS = ("gnnd", "cl", "mi", "kl")


@dataclass(frozen=True)
class RateEstimate:
    """A rate in bits per channel use with its Monte-Carlo standard error."""

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


def gmi_from_tables(tables, tx_idx, probabilities) -> tuple[RateEstimate, float]:
    """Generalized mutual information of an arbitrary metric.

    ``tables[t, i]`` is the metric of candidate i at observation t and
    ``tx_idx[t]`` the transmitted index. With d[t, a] = tables[t, a] -
    tables[t, tx_idx[t]], the GMI is the maximum over the metric
    temperature theta < 0 of the mean of the per-observation samples
        -log sum_a p(a) exp(theta d[t, a]),
    a concave function of theta (Ganti, Lapidoth & Telatar 2000). Taking
    the metric relative to the transmitted candidate's cancels a term common
    to every candidate, such as the |y|^2 of a nearest-neighbor metric,
    before theta multiplies it, and keeps the transmitted term at exactly
    log p(tx), so no sample exceeds -log p(tx) at any theta. With q the
    tilted pmf at theta, the slope is -mean E_q[d] and the curvature
    -mean Var_q[d]. Newton runs from theta = -1, each step halved until the
    objective does not fall, so the fit cannot fail: after THETA_ITERS
    steps, or once a step or its predicted gain is at rounding level, the
    last iterate is used.
    Returns the estimate and the maximizing theta.
    """
    tables = np.asarray(tables, dtype=np.float64)
    n, n_alpha = tables.shape
    # (|A|, n): reductions over the short candidate axis run along rows
    d = np.subtract(tables.T, tables[np.arange(n), tx_idx], out=np.empty((n_alpha, n)))
    logp = np.log(np.asarray(probabilities, dtype=np.float64))[:, None]
    # every (|A|, n) array of the fit: the iterate's and a trial's tilted
    # pmfs and one scratch for the moments, each written in place with the
    # same ufuncs, in the same order, as fresh arrays would be
    q, q_new, work = np.empty((3, n_alpha, n))

    def tilt(theta, q):
        """Tilted pmfs at theta, written into q, and the per-observation samples."""
        np.multiply(theta, d, out=q)
        q += logp
        top = q.max(axis=0)
        q -= top
        np.exp(q, out=q)
        total = q.sum(axis=0)
        q /= total
        return -top - np.log(total)

    theta = -1.0
    samples = tilt(theta, q)
    eps = np.finfo(np.float64).eps
    for _ in range(THETA_ITERS):
        mean_d = np.sum(np.multiply(q, d, out=work), axis=0)
        slope = -mean_d.mean()
        np.subtract(d, mean_d, out=work)
        work **= 2
        work *= q
        var_d = np.mean(np.sum(work, axis=0))  # -f''
        if var_d <= 0.0:
            break
        step = min(slope / var_d, -theta / 2.0)  # theta stays negative
        value = samples.mean()
        if abs(slope * step) <= eps * abs(value):  # the gain is at rounding level
            break
        while abs(step) > eps * abs(theta):
            samples_new = tilt(theta + step, q_new)
            if samples_new.mean() >= value:
                break
            step /= 2.0
        else:  # no step above rounding level raises the objective
            break
        theta, samples = theta + step, samples_new
        q, q_new = q_new, q
    return _estimate_from_nats(samples), theta


def cl_gmi_from_scalar(y_scalar, tx_idx, gain: float,
                       c: Constellation) -> tuple[RateEstimate, float]:
    """GMI of the linearized-channel metric |y_s - gain a|^2 on any alphabet.

    ``y_scalar`` is the whitened/combined scalar observation, ``tx_idx`` the
    index of the transmitted point of ``c``, ``gain`` the scalar channel
    coefficient.
    """
    tables = nn_tables(np.asarray(y_scalar, dtype=np.complex128), c.points, gain)
    return gmi_from_tables(tables, tx_idx, c.probabilities)


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
    """Shared Monte-Carlo engine for all per-user rate quantities.

    Returns {method: {user: RateEstimate}} for ``users``, or for every user
    when it is None; method "kl" estimates the mutual-information/GMI gap
    of the optimal front. All requested quantities are evaluated on the
    same sampled transmissions. With receiver="sic", user k is conditioned
    on the true symbols of users 0..k-1 (the information-theoretic
    successive-cancellation rate); without it one evaluation per chunk
    serves every user. The samples are drawn in chunks of at most the
    ``budget_columns`` of the largest enumeration the call could build (none
    above ``ENUM_CAP``), built or not, so the CL rows do not depend on the
    other methods. Posteriors come from ``SplitEnumeration``, read in its
    cache-sized ``slices`` of each chunk, and only the per-observation
    integrands outlive a slice. User powers are read from the
    constellations, for the CL fronts as for the sampled symbols.
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
    # the CL metric reads no posterior: a CL-only call enumerates nothing
    need_enum = bool({"gnnd", "kl", "mi"} & set(methods))
    enums = {f: SplitEnumeration(gains, noise_var, consts, f)
             for f in sorted(set(first.values()))} if need_enum else {}
    fronts = {u: cl_front(gains, noise_var, consts, u, range(first[u])) for u in users}
    combos = int(np.prod([c.size for c in consts[min(first.values(), default=0):]]))
    chunk = SAMPLE_CHUNK if combos > ENUM_CAP else min(SAMPLE_CHUNK, budget_columns(combos))
    # per-observation samples (nats) of gnnd, kl and mi; CL's scalar outputs and indices
    nats = {m: {u: np.empty(n_samples) for u in users} for m in methods if m != "cl"}
    if "cl" in methods:
        cl_y = {u: np.empty(n_samples, dtype=np.complex128) for u in users}
        cl_tx = {u: np.empty(n_samples, dtype=np.int64) for u in users}

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
        """Draw c channel uses and read them into the samples' columns from
        ``done`` on; the draws go with the call, before the CL fits."""
        idx = np.stack([rng.choice(consts[u].size, size=c, p=consts[u].probabilities)
                        for u in range(n_users)])

        def symbols(k):  # the points sent by users 0..k-1, (k, c)
            return np.stack([consts[u].points[idx[u]] for u in range(k)])

        y = transmit(gains, noise_var, symbols(n_users), rng)
        for f, group in groups:
            # removing no users leaves y as it is, bit for bit
            y_f = y - gains[:, :f] @ symbols(f) if sic and f else y
            if need_enum:
                for cols in enums[f].slices(c):
                    read(enums[f].evaluate(y_f[:, cols]), group, idx[:, cols],
                         slice(done + cols.start, done + cols.stop))
            if "cl" in methods:
                for u in group:
                    cl_y[u][done:done + c] = fronts[u].apply(y_f)
                    cl_tx[u][done:done + c] = idx[u]

    for done in range(0, n_samples, chunk):
        draw_chunk(done, min(chunk, n_samples - done))

    out = {m: {} for m in methods}
    for m in methods:
        for u in users:
            if m == "cl":
                out[m][u], _ = cl_gmi_from_scalar(cl_y[u], cl_tx[u], fronts[u].scalar_gain,
                                                  consts[u])
            else:
                out[m][u] = _estimate_from_nats(nats[m][u])
    return out
