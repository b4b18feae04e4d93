"""Monte-Carlo information-rate estimators: optimal-front GMI, channel
linearization GMI, mutual information, and the posterior/tilted KL gap."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelInstance, crandn
from .constellation import Constellation, per_user
from .fronts import ARTANH_CLIP, cl_front, qpsk_estimates, tilted_pmf
from .posterior import JointEnumeration

LN2 = float(np.log(2.0))
SAMPLE_CHUNK = 16384     # channel uses per enumeration batch
GOLDEN_ITERS = 60        # golden-section steps of the metric-temperature fit
BRACKET_DOUBLINGS = 40
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


def _logcosh(z):
    z = np.abs(z)
    return z + np.log1p(np.exp(-2.0 * z)) - LN2


def maximize_concave(fn, lo: float, hi: float) -> tuple[float, float]:
    """Golden-section maximum of a concave fn on [lo, hi], expanding lo
    by doubling while the objective still improves at the left edge."""
    f_lo = fn(lo)
    for _ in range(BRACKET_DOUBLINGS):
        f_2 = fn(2.0 * lo)
        if f_2 <= f_lo:
            break
        lo, f_lo = 2.0 * lo, f_2
    else:
        raise RuntimeError("bracket expansion failed: objective keeps improving")
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(GOLDEN_ITERS):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = fn(d)
    x = (a + b) / 2.0
    return x, fn(x)


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


def gnnd_gmi_from_means(means, power: float) -> RateEstimate:
    """Optimal-front QPSK GMI from sampled conditional means."""
    return _estimate_from_nats(gnnd_gmi_samples(means, power))


def gmi_from_tables(tables, tx_idx, probabilities,
                    scale: float = 1.0) -> tuple[RateEstimate, float]:
    """Generalized mutual information of an arbitrary metric.

    ``tables[t, i]`` is the metric of candidate i at observation t and
    ``tx_idx[t]`` the transmitted index. Maximizes over the metric
    temperature theta < 0 by golden section on a concave objective;
    ``scale`` sets the initial bracket [-2/scale, -1e-6/scale].
    Returns the estimate and the maximizing theta.
    """
    tables = np.asarray(tables, dtype=np.float64)
    tx_idx = np.asarray(tx_idx)
    logp = np.log(np.asarray(probabilities, dtype=np.float64))
    n = tables.shape[0]
    own = tables[np.arange(n), tx_idx]

    def samples_at(theta):
        z = theta * tables + logp[None, :]
        top = z.max(axis=1)
        lse = top + np.log(np.exp(z - top[:, None]).sum(axis=1))
        return theta * own - lse

    theta, _ = maximize_concave(lambda th: samples_at(th).mean(),
                                -2.0 / scale, -1e-6 / scale)
    return _estimate_from_nats(samples_at(theta)), theta


def cl_gmi_from_scalar(y_scalar, x, gain: float,
                       power: float) -> tuple[RateEstimate, float]:
    """GMI of the linearized-channel metric for QPSK, cosh form.

    ``y_scalar`` is the whitened/combined scalar observation, ``x`` the
    transmitted symbol, ``gain`` the scalar channel coefficient.
    """
    y_scalar = np.asarray(y_scalar, dtype=np.complex128)
    x = np.asarray(x, dtype=np.complex128)
    root = np.sqrt(2.0 * power)
    cross = y_scalar.real * x.real + y_scalar.imag * x.imag

    def samples_at(theta):
        v = gain * theta
        return (-2.0 * v * cross - _logcosh(root * v * y_scalar.real)
                - _logcosh(root * v * y_scalar.imag))

    theta, _ = maximize_concave(lambda th: samples_at(th).mean(), -2.0, -1e-6)
    return _estimate_from_nats(samples_at(theta)), theta


def _kl_samples(pmf, tilted) -> np.ndarray:
    """Per-observation KL between the exact posterior pmf over one user's
    symbols and the tilted pmf of its front, both (|A|, n)."""
    log_ratio = np.where(pmf > 0.0,
                         np.log(np.maximum(pmf, 1e-300)) - np.log(np.maximum(tilted, 1e-300)),
                         0.0)
    return np.sum(pmf * log_ratio, axis=0)


def evaluate_user_rates(ch: ChannelInstance, constellations, users=None,
                        methods=("gnnd", "cl", "mi"), receiver: str = "no-sic",
                        n_samples: int = 200_000, rng=None) -> dict:
    """Shared Monte-Carlo engine for all per-user rate quantities.

    Returns {method: {user: RateEstimate}}; method "kl" estimates the
    mutual-information/GMI gap of the optimal front. All requested
    quantities are evaluated on the same sampled transmissions. With
    receiver="sic", user k is conditioned on the true symbols of users
    0..k-1 (the information-theoretic successive-cancellation rate);
    without it one enumeration per chunk serves every user.
    """
    if rng is None:
        raise ValueError("an explicit rng is required for reproducibility")
    if receiver not in ("no-sic", "sic"):
        raise ValueError(f"unknown receiver mode {receiver!r}")
    consts = per_user(constellations, ch.n_users)
    users = list(range(ch.n_users)) if users is None else list(users)
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
    enums = {f: JointEnumeration(ch.gains, ch.noise_var, consts, f)
             for f in sorted(set(first.values()))} if need_enum else {}
    fronts = {u: cl_front(ch.gains, ch.noise_var, u, ch.powers,
                          cancelled=range(first[u])) for u in users}
    acc = {m: {u: [] for u in users} for m in methods}  # cl: (y_scalar, x) pairs

    remaining = n_samples
    while remaining > 0:
        c = min(SAMPLE_CHUNK, remaining)
        remaining -= c
        idx = np.stack([rng.choice(consts[u].size, size=c, p=consts[u].probabilities)
                        for u in range(ch.n_users)])
        x = np.stack([consts[u].points[idx[u]] for u in range(ch.n_users)])
        y = ch.gains @ x + np.sqrt(ch.noise_var) * crandn((ch.n_antennas, c), rng)

        batch = None
        for u in users:
            y_u = y - ch.gains[:, :u] @ x[:u] if sic else y
            if need_enum and (sic or batch is None):
                batch = enums[first[u]].evaluate(y_u)
            if "gnnd" in methods or "kl" in methods:
                means = batch.mean(u)
            if "gnnd" in methods:
                acc["gnnd"][u].append(gnnd_gmi_samples(means, consts[u].power))
            if "kl" in methods:
                g = qpsk_estimates(means, consts[u].power)
                tilted = tilted_pmf(g, 1.0, consts[u]).T
                acc["kl"][u].append(_kl_samples(batch.pmf(u), tilted))
            if "mi" in methods:
                ull = batch.user_log_likelihood(u)
                acc["mi"][u].append(ull[idx[u], np.arange(c)]
                                    + batch.enum.gauss_log_const - batch.log_evidence)
            if "cl" in methods:
                acc["cl"][u].append((fronts[u].apply(y_u), x[u]))

    out = {m: {} for m in methods}
    for m in methods:
        for u in users:
            if m == "cl":
                ys, xs = (np.concatenate(part) for part in zip(*acc[m][u]))
                out[m][u], _ = cl_gmi_from_scalar(
                    ys, xs, fronts[u].scalar_gain, consts[u].power)
            else:
                out[m][u] = _estimate_from_nats(np.concatenate(acc[m][u]))
    return out
