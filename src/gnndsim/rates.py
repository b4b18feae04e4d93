"""Monte-Carlo information-rate estimators: optimal-front GMI, channel
linearization GMI, mutual information, and the posterior/tilted KL gap."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelInstance, crandn
from .constellation import Constellation, per_user
from .fronts import artanh_clamped, cl_front
from .posterior import JointEnumeration

LN2 = float(np.log(2.0))
SAMPLE_CHUNK = 16384     # channel uses per enumeration batch
GOLDEN_ITERS = 60        # golden-section steps of the metric-temperature fit
BRACKET_DOUBLINGS = 40
RATE_METHODS = ("gnnd", "cl", "mi")


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
    for u in (np.clip(s * means.real, -1 + 1e-12, 1 - 1e-12),
              np.clip(s * means.imag, -1 + 1e-12, 1 - 1e-12)):
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


def _kl_samples_qpsk(pmf, means, c: Constellation) -> np.ndarray:
    """Per-observation KL between the exact posterior over one user's QPSK
    symbols and the tilted distribution of the closed-form front.

    For QPSK the tilt log-weight of point (r, q) reduces to
    t_r * sign(r) + t_i * sign(q) with t = artanh of the scaled mean.
    """
    power = float(c.power)
    amp = np.sqrt(power / 2.0)
    s = np.sqrt(2.0 / power)
    t_r = artanh_clamped(s * means.real)
    t_i = artanh_clamped(s * means.imag)
    signs_r = np.sign(c.points.real) * (np.abs(c.points.real) / amp)
    signs_q = np.sign(c.points.imag) * (np.abs(c.points.imag) / amp)
    log_tilt = signs_r[:, None] * t_r[None, :] + signs_q[:, None] * t_i[None, :]
    log_tilt -= log_tilt.max(axis=0, keepdims=True)
    tilted = np.exp(log_tilt)
    tilted /= tilted.sum(axis=0, keepdims=True)
    log_ratio = np.where(pmf > 0.0,
                         np.log(np.maximum(pmf, 1e-300)) - np.log(np.maximum(tilted, 1e-300)),
                         0.0)
    return np.sum(pmf * log_ratio, axis=0)


def evaluate_user_rates(ch: ChannelInstance, constellations, users=None,
                        methods=RATE_METHODS, receiver: str = "no-sic",
                        n_samples: int = 200_000, rng=None, *,
                        want_kl: bool = False) -> dict:
    """Shared Monte-Carlo engine for all per-user rate quantities.

    Returns {method: {user: RateEstimate}}; the "kl" entry (if requested)
    estimates the mutual-information/GMI gap of the optimal front. All
    requested quantities are evaluated on the same sampled transmissions.
    With receiver="sic", user k is conditioned on the true symbols of users
    0..k-1 (the information-theoretic successive-cancellation rate).
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
    needs_front = ("gnnd" in methods) or want_kl
    if needs_front and not all(is_equiprobable_qpsk(consts[u]) for u in users):
        raise NotImplementedError(
            "optimal-front rate estimation is implemented for equiprobable QPSK")

    n_enum = [None] * ch.n_users
    cl_fronts = {}
    if receiver == "no-sic":
        shared = JointEnumeration(ch.gains, ch.noise_var, consts, 0)
        for u in users:
            n_enum[u] = shared
        for u in users:
            cl_fronts[u] = cl_front(ch.gains, ch.noise_var, u, ch.powers)
    else:
        for u in users:
            n_enum[u] = JointEnumeration(ch.gains, ch.noise_var, consts, u)
            cl_fronts[u] = cl_front(ch.gains, ch.noise_var, u, ch.powers,
                                    cancelled=range(u))

    acc = {m: {u: [] for u in users} for m in methods}
    if want_kl:
        acc["kl"] = {u: [] for u in users}
    cl_data = {u: ([], []) for u in users}  # (y_scalar chunks, x chunks)

    remaining = n_samples
    while remaining > 0:
        c = min(SAMPLE_CHUNK, remaining)
        remaining -= c
        idx = np.stack([rng.choice(consts[u].size, size=c, p=consts[u].probabilities)
                        for u in range(ch.n_users)])
        x = np.stack([consts[u].points[idx[u]] for u in range(ch.n_users)])
        y = ch.gains @ x + np.sqrt(ch.noise_var) * crandn((ch.n_antennas, c), rng)

        evaluated = {}
        for u in users:
            enum = n_enum[u]
            key = id(enum)
            y_eff = y if enum.first_user == 0 else (
                y - ch.gains[:, :enum.first_user] @ x[:enum.first_user])
            if key not in evaluated:
                evaluated[key] = (enum.evaluate(y_eff), y_eff)
            batch, y_eff = evaluated[key]

            if "gnnd" in methods or want_kl:
                means = batch.mean(u)
            if "gnnd" in methods:
                acc["gnnd"][u].append(
                    gnnd_gmi_samples(means, consts[u].power))
            if want_kl:
                acc["kl"][u].append(
                    _kl_samples_qpsk(batch.pmf(u), means, consts[u]))
            if "mi" in methods:
                ull = batch.user_log_likelihood(u)
                cond = ull[idx[u], np.arange(c)] + enum.gauss_log_const
                acc["mi"][u].append(cond - batch.log_evidence)
            if "cl" in methods:
                ys = cl_fronts[u].apply(y_eff)
                cl_data[u][0].append(ys)
                cl_data[u][1].append(x[u])

    out = {m: {} for m in acc}
    for m in acc:
        for u in users:
            if m == "cl":
                ys = np.concatenate(cl_data[u][0])
                xs = np.concatenate(cl_data[u][1])
                out[m][u], _ = cl_gmi_from_scalar(
                    ys, xs, cl_fronts[u].scalar_gain, consts[u].power)
            else:
                out[m][u] = _estimate_from_nats(np.concatenate(acc[m][u]))
    return out


def gmi_gnnd_qpsk(ch: ChannelInstance, constellations, user: int,
                  n_samples: int, rng, receiver: str = "no-sic") -> RateEstimate:
    res = evaluate_user_rates(ch, constellations, [user], ["gnnd"],
                              receiver, n_samples, rng)
    return res["gnnd"][user]


def gmi_cl_qpsk(ch: ChannelInstance, constellations, user: int,
                n_samples: int, rng, receiver: str = "no-sic") -> RateEstimate:
    res = evaluate_user_rates(ch, constellations, [user], ["cl"],
                              receiver, n_samples, rng)
    return res["cl"][user]


def mutual_information(ch: ChannelInstance, constellations, user=None,
                       receiver: str = "no-sic", n_samples: int = 200_000,
                       rng=None) -> RateEstimate:
    """Per-user mutual information, or the joint rate when user is None.

    The joint rate is the chain-rule sum of successive conditional terms.
    """
    if user is None:
        res = evaluate_user_rates(ch, constellations, None, ["mi"], "sic",
                                  n_samples, rng)
        return combine_rates(res["mi"].values())
    res = evaluate_user_rates(ch, constellations, [user], ["mi"], receiver,
                              n_samples, rng)
    return res["mi"][user]


def kl_gap(ch: ChannelInstance, constellations, user: int,
           n_samples: int, rng, receiver: str = "no-sic") -> RateEstimate:
    res = evaluate_user_rates(ch, constellations, [user], [], receiver,
                              n_samples, rng, want_kl=True)
    return res["kl"][user]


def sum_rate(ch: ChannelInstance, constellations, receiver: str, method: str,
             n_samples: int, rng) -> tuple[dict, RateEstimate]:
    """Per-user rates for one method plus their sum."""
    res = evaluate_user_rates(ch, constellations, None, [method], receiver,
                              n_samples, rng)
    per_user = res[method]
    return per_user, combine_rates(per_user.values())
