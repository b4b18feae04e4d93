"""Multiuser uplink channel: quasi-static Rayleigh gains, transmission,
and pilot-based linear MMSE channel estimation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PERFECT = "perfect"


@dataclass(frozen=True)
class ChannelInstance:
    """Fixed gain matrix (L x K, column k = user k), noise level, user powers.

    `noise_var` is the total variance per complex dimension; each real
    dimension carries noise_var / 2.
    """

    gains: np.ndarray
    noise_var: float
    powers: np.ndarray

    def __post_init__(self):
        gains = np.atleast_2d(np.asarray(self.gains, dtype=np.complex128))
        powers = np.atleast_1d(np.asarray(self.powers, dtype=np.float64))
        object.__setattr__(self, "gains", gains)
        object.__setattr__(self, "powers", powers)
        if gains.ndim != 2 or gains.shape[0] < 1 or gains.shape[1] < 1:
            raise ValueError("gains must be an L x K matrix with L, K >= 1")
        if powers.shape != (gains.shape[1],):
            raise ValueError("powers must have one entry per user")
        if np.any(powers <= 0):
            raise ValueError("user powers must be positive")
        if self.noise_var < 0:
            raise ValueError("noise variance must be nonnegative")

    @property
    def n_antennas(self) -> int:
        return self.gains.shape[0]

    @property
    def n_users(self) -> int:
        return self.gains.shape[1]


@dataclass(frozen=True)
class ChannelEstimate:
    gains_hat: np.ndarray
    pilot_power: float | str

    def __post_init__(self):
        object.__setattr__(self, "gains_hat", np.asarray(self.gains_hat, dtype=np.complex128))


def sample_gains(n_users: int, n_antennas: int, rng: np.random.Generator) -> np.ndarray:
    """i.i.d. CN(0, 1) gain matrix, held fixed for a codeword."""
    if n_users < 1 or n_antennas < 1:
        raise ValueError("need at least one user and one antenna")
    return crandn((n_antennas, n_users), rng)


def crandn(shape, rng: np.random.Generator) -> np.ndarray:
    """Circularly symmetric complex Gaussian, unit variance per entry."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def transmit(ch: ChannelInstance, x, rng: np.random.Generator) -> np.ndarray:
    """y = H x + z with z ~ CN(0, noise_var I). Accepts x of shape (K,) or (K, n)."""
    x = np.asarray(x, dtype=np.complex128)
    single = x.ndim == 1
    cols = x[:, None] if single else x
    if cols.shape[0] != ch.n_users:
        raise ValueError(f"x has {cols.shape[0]} rows, expected {ch.n_users}")
    y = ch.gains @ cols
    if ch.noise_var > 0:
        y = y + np.sqrt(ch.noise_var) * crandn(y.shape, rng)
    return y[:, 0] if single else y


def estimate_channel(gains, pilot_power, noise_var: float,
                     rng: np.random.Generator) -> ChannelEstimate:
    """Per-entry scalar LMMSE estimate from one orthogonal pilot per user.

    Each user sends a lone pilot of energy `pilot_power` in its own slot;
    under the CN(0, 1) gain prior the per-entry estimator is a shrinkage of
    the matched-filter observation. `pilot_power` may be the string
    "perfect", returning the true gains.
    """
    gains = np.asarray(gains, dtype=np.complex128)
    if isinstance(pilot_power, str):
        if pilot_power != PERFECT:
            raise ValueError(f"unknown pilot power spec {pilot_power!r}")
        return ChannelEstimate(gains.copy(), PERFECT)
    pp = float(pilot_power)
    if pp <= 0:
        raise ValueError("pilot power must be positive")
    if noise_var == 0:
        return ChannelEstimate(gains.copy(), pp)
    x_p = np.sqrt(pp)
    obs = gains * x_p + np.sqrt(noise_var) * crandn(gains.shape, rng)
    gains_hat = (pp / (pp + noise_var)) * obs / x_p
    return ChannelEstimate(gains_hat, pp)
