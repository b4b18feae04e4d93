"""Finite complex input alphabets with probabilities and bit labelings."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

PROB_SUM_TOL = 1e-12
POWER_TOL = 1e-9
# exponent floor of normalised weights and of log-sum-exp terms: e**floor
# and its products with the points stay far above the smallest normal number
EXP_FLOOR = -700.0


@dataclass(frozen=True)
class BitLabeling:
    """Bijection between m-bit labels and the 2**m constellation point indices.

    ``point_to_label[i]`` is the integer whose m-bit binary expansion
    (MSB first) is the label of point ``i``.
    """

    point_to_label: np.ndarray

    def __post_init__(self):
        labels = np.asarray(self.point_to_label, dtype=np.int64)
        object.__setattr__(self, "point_to_label", labels)
        n = labels.size
        if n == 0 or n & (n - 1):
            raise ValueError(f"labeling covers {n} points, not a power of two")
        if sorted(labels.tolist()) != list(range(n)):
            raise ValueError("labeling is not a bijection")

    @property
    def bits_per_symbol(self) -> int:
        return self.point_to_label.size.bit_length() - 1

    @property
    def label_to_point(self) -> np.ndarray:
        inv = np.empty_like(self.point_to_label)
        inv[self.point_to_label] = np.arange(self.point_to_label.size)
        return inv

    def bit(self, position: int) -> np.ndarray:
        """Bit value at 1-based ``position`` (MSB first) for every point."""
        m = self.bits_per_symbol
        if not 1 <= position <= m:
            raise ValueError(f"bit position {position} out of range 1..{m}")
        shift = m - position
        return (self.point_to_label >> shift) & 1


@dataclass(frozen=True)
class Constellation:
    """Finite complex alphabet with point probabilities and average power."""

    points: np.ndarray
    probabilities: np.ndarray
    power: float
    labeling: BitLabeling | None = field(default=None)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.complex128)
        probs = np.asarray(self.probabilities, dtype=np.float64)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "probabilities", probs)
        if pts.ndim != 1 or probs.shape != pts.shape:
            raise ValueError("points and probabilities must be equal-length 1-D")
        if np.any(probs < 0):
            raise ValueError("probabilities must be nonnegative")
        if abs(probs.sum() - 1.0) > PROB_SUM_TOL:
            raise ValueError(f"probabilities sum to {probs.sum()!r}, not 1")
        got = float(probs @ np.abs(pts) ** 2)
        if abs(got - self.power) > POWER_TOL:
            raise ValueError(f"average energy {got!r} does not match power {self.power!r}")
        if len({complex(p) for p in pts}) != pts.size:
            raise ValueError("constellation points must be pairwise distinct")
        if self.labeling is not None and self.labeling.point_to_label.size != pts.size:
            raise ValueError("labeling size does not match point count")

    @property
    def size(self) -> int:
        return self.points.size

    def require_labeling(self) -> BitLabeling:
        if self.labeling is None:
            raise ValueError("constellation has no bit labeling attached")
        return self.labeling


def make_qpsk(power: float) -> Constellation:
    """Equiprobable QPSK of average power ``power`` with a Gray labeling.

    Bit 1 (MSB) selects the sign of the real part, bit 2 the sign of the
    imaginary part; 0 maps to +.
    """
    if power <= 0:
        raise ValueError(f"power must be positive, got {power}")
    c = np.sqrt(power / 2.0)
    points = c * np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j])
    labeling = BitLabeling(np.array([0b00, 0b01, 0b10, 0b11]))
    return Constellation(points, np.full(4, 0.25), float(power), labeling)


def label_set_indices(c: Constellation, position: int, bit_value: int) -> np.ndarray:
    """Indices of the points whose label has ``bit_value`` at 1-based ``position``."""
    bits = c.require_labeling().bit(position)
    return np.flatnonzero(bits == bit_value)


def lse(z, axis) -> np.ndarray:
    """log sum exp of z over ``axis`` (an int or a tuple of ints), shifted by
    the maximum so no term overflows. Each shifted exponent is raised to
    EXP_FLOOR, so no term is subnormal; every sum keeps its top term of 1,
    so the floored terms, -inf entries among them, leave it as it was."""
    top = z.max(axis=axis, keepdims=True)
    terms = np.subtract(z, top)
    np.exp(np.maximum(terms, EXP_FLOOR, out=terms), out=terms)
    return np.squeeze(top, axis=axis) + np.log(terms.sum(axis=axis))


def modulate(bits, c: Constellation) -> np.ndarray:
    """Map a bit sequence to symbols through the attached labeling."""
    labeling = c.require_labeling()
    bits = np.asarray(bits, dtype=np.int64).ravel()
    m = labeling.bits_per_symbol
    if bits.size % m:
        raise ValueError(f"bit count {bits.size} not divisible by {m}")
    if bits.size and (bits.min() < 0 or bits.max() > 1):
        raise ValueError("bits must be 0/1")
    blocks = bits.reshape(-1, m)
    weights = 1 << np.arange(m - 1, -1, -1)
    labels = blocks @ weights
    return c.points[labeling.label_to_point[labels]]


def sample_symbols(c: Constellation, n: int, rng: np.random.Generator) -> np.ndarray:
    idx = rng.choice(c.size, size=n, p=c.probabilities)
    return c.points[idx]


def per_user(constellations, n_users: int) -> list[Constellation]:
    """One constellation per user: a single alphabet is shared by all."""
    if isinstance(constellations, Constellation):
        return [constellations] * n_users
    constellations = list(constellations)
    if len(constellations) != n_users:
        raise ValueError(f"need {n_users} constellations, got {len(constellations)}")
    return constellations
