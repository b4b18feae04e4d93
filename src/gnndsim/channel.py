"""Multiuser uplink channel: quasi-static Rayleigh gains, transmission,
and pilot-based linear MMSE channel estimation."""

from __future__ import annotations

import numpy as np


def sample_gains(n_users: int, n_antennas: int, rng: np.random.Generator) -> np.ndarray:
    """i.i.d. CN(0, 1) gain matrix, held fixed for a codeword."""
    if n_users < 1 or n_antennas < 1:
        raise ValueError("need at least one user and one antenna")
    return crandn((n_antennas, n_users), rng)


def crandn(shape, rng: np.random.Generator) -> np.ndarray:
    """Circularly symmetric complex Gaussian, unit variance per entry; the
    real parts are drawn first, and each part is scaled into the output."""
    out = np.empty(shape, dtype=np.complex128)
    for part in (out.real, out.imag):
        np.multiply(rng.standard_normal(shape), 1.0 / np.sqrt(2.0), out=part)
    return out


def check_channel(gains, noise_var: float) -> np.ndarray:
    """The gains of a channel as a complex (L, K) array, L, K >= 1, with its
    noise variance checked to be nonnegative."""
    gains = np.asarray(gains, dtype=np.complex128)
    if gains.ndim != 2 or min(gains.shape) < 1:
        raise ValueError("gains must be an L x K matrix with L, K >= 1")
    if noise_var < 0:
        raise ValueError("noise variance must be nonnegative")
    return gains


def transmit(gains, noise_var: float, x, rng: np.random.Generator) -> np.ndarray:
    """y = H x + z with z ~ CN(0, noise_var I), for gains H of shape (L, K)
    and x of shape (K, n). ``noise_var`` is the total variance per complex
    dimension; each real dimension carries noise_var / 2. The (L, n) noise
    is drawn whatever its variance, so rng advances the same way at every SNR.
    """
    gains = check_channel(gains, noise_var)
    x = np.asarray(x, dtype=np.complex128)
    if x.ndim != 2 or x.shape[0] != gains.shape[1]:
        raise ValueError(f"x has shape {x.shape}, expected ({gains.shape[1]}, n)")
    y = crandn((gains.shape[0], x.shape[1]), rng)
    return np.add(np.multiply(y, np.sqrt(noise_var), out=y), gains @ x, out=y)


def estimate_channel(gains, pilot_power, noise_var: float,
                     rng: np.random.Generator) -> np.ndarray:
    """Per-entry scalar LMMSE estimate from one orthogonal pilot per user.

    Each user sends a lone pilot of energy `pilot_power` in its own slot;
    under the CN(0, 1) gain prior the per-entry estimator is a shrinkage of
    the matched-filter observation. Returns the estimated gain matrix.
    `pilot_power` may be the string "perfect", returning the true gains; the
    pilot noise is drawn either way, so rng ends in the same state.
    """
    gains = np.asarray(gains, dtype=np.complex128)
    noise = crandn(gains.shape, rng)
    if isinstance(pilot_power, str):
        if pilot_power != "perfect":
            raise ValueError(f"unknown pilot power spec {pilot_power!r}")
        return gains.copy()
    pp = float(pilot_power)
    if pp <= 0:
        raise ValueError("pilot power must be positive")
    if noise_var == 0:
        return gains.copy()
    x_p = np.sqrt(pp)
    obs = gains * x_p + np.sqrt(noise_var) * noise
    return (pp / (pp + noise_var)) * obs / x_p
