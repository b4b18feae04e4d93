"""Rate-1/2 convolutional coding and soft Viterbi decoding driven by
per-symbol metric tables, so any front can supply the branch metric."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ..constellation import Constellation


@dataclass(frozen=True)
class ConvCode:
    """Feedforward rate-1/2 code; generator bit i is the coefficient of D^i."""

    generators: tuple[int, int]
    constraint_length: int
    rate: Fraction = Fraction(1, 2)

    def __post_init__(self):
        if any(g <= 0 for g in self.generators):
            raise ValueError("generator polynomials must be nonzero")
        if self.constraint_length < 1:
            raise ValueError("constraint length must be >= 1")
        for g in self.generators:
            if g >> self.constraint_length:
                raise ValueError("generator degree exceeds constraint length")

    @property
    def n_states(self) -> int:
        return 1 << (self.constraint_length - 1)

    @property
    def n_flush(self) -> int:
        return self.constraint_length - 1


def make_conv_code_57() -> ConvCode:
    """The 4-state code with generators 1 + D^2 and 1 + D + D^2 (octal 5, 7)."""
    return ConvCode((0b101, 0b111), 3)


def _parity(x: int) -> int:
    return bin(x).count("1") & 1


def _transition_tables(code: ConvCode):
    """(next_state, out_label)[state, input]; label = first bit MSB."""
    s_count = code.n_states
    mask = s_count - 1
    nxt = np.zeros((s_count, 2), dtype=np.int64)
    lab = np.zeros((s_count, 2), dtype=np.int64)
    for s in range(s_count):
        for b in (0, 1):
            reg = (s << 1) | b
            o1 = _parity(reg & code.generators[0])
            o2 = _parity(reg & code.generators[1])
            nxt[s, b] = reg & mask
            lab[s, b] = (o1 << 1) | o2
    return nxt, lab


def conv_encode(bits, code: ConvCode) -> np.ndarray:
    """Encode with zero termination; two coded bits per trellis step."""
    bits = np.asarray(bits, dtype=np.int64).ravel()
    if bits.size and (bits.min() < 0 or bits.max() > 1):
        raise ValueError("bits must be 0/1")
    full = np.concatenate([bits, np.zeros(code.n_flush, dtype=np.int64)])
    out = np.empty(2 * full.size, dtype=np.int64)
    state = 0
    for t, b in enumerate(full):
        reg = (state << 1) | int(b)
        out[2 * t] = _parity(reg & code.generators[0])
        out[2 * t + 1] = _parity(reg & code.generators[1])
        state = reg & (code.n_states - 1)
    return out


def _symbol_index_tables(code: ConvCode, c: Constellation):
    """Constellation point index of each branch's coded bit pair."""
    labeling = c.require_labeling()
    if labeling.bits_per_symbol != 2:
        raise ValueError("viterbi over metric tables expects 2 coded bits per symbol")
    nxt, lab = _transition_tables(code)
    return nxt, labeling.label_to_point[lab]


def viterbi(tables, code: ConvCode, c: Constellation) -> np.ndarray:
    """Exact minimum-metric path; returns the information bits.

    ``tables[t, i]`` is the branch metric of constellation point i at step t,
    one trellis step per transmitted symbol, flush steps included. Ties are
    broken toward the lexicographically smaller (previous state, input).
    """
    tables = np.atleast_2d(np.asarray(tables, dtype=np.float64))
    n_steps = tables.shape[0]
    if n_steps <= code.n_flush:
        raise ValueError("table count does not cover flush steps")
    n_info = n_steps - code.n_flush
    nxt, sym = _symbol_index_tables(code, c)
    s_count = code.n_states

    # incoming branch lists per destination state, ordered by (prev, input)
    inc_prev = np.empty((s_count, 2), dtype=np.int64)
    inc_input = np.empty((s_count, 2), dtype=np.int64)
    inc_sym = np.empty((s_count, 2), dtype=np.int64)
    fill = np.zeros(s_count, dtype=np.int64)
    for s in range(s_count):
        for b in (0, 1):
            d = nxt[s, b]
            inc_prev[d, fill[d]] = s
            inc_input[d, fill[d]] = b
            inc_sym[d, fill[d]] = sym[s, b]
            fill[d] += 1

    big = np.inf
    pm = np.full(s_count, big)
    pm[0] = 0.0
    prev_choice = np.zeros((n_steps, s_count), dtype=np.int8)
    for t in range(n_steps):
        cand = pm[inc_prev] + tables[t][inc_sym]
        if t >= n_info:  # flush: only input 0 branches are valid
            cand = np.where(inc_input == 0, cand, big)
        choice = np.argmin(cand, axis=1)  # first occurrence wins ties
        prev_choice[t] = choice
        pm = cand[np.arange(s_count), choice]

    state = 0  # zero termination
    bits = np.empty(n_steps, dtype=np.int64)
    for t in range(n_steps - 1, -1, -1):
        c_idx = prev_choice[t, state]
        bits[t] = inc_input[state, c_idx]
        state = inc_prev[state, c_idx]
    return bits[:n_info]


def exhaustive_decode(tables, code: ConvCode, c: Constellation,
                      max_info_bits: int = 20) -> np.ndarray:
    """Brute-force minimum summed metric over all codewords (oracle-grade).

    Enumerates every information word through the code's generator matrix,
    so cost is 2^k; refuse blocks beyond ``max_info_bits``.
    """
    tables = np.atleast_2d(np.asarray(tables, dtype=np.float64))
    n_info = tables.shape[0] - code.n_flush
    if n_info > max_info_bits:
        raise ValueError(f"{n_info} info bits is too large for exhaustion")
    labeling = c.require_labeling()
    gen = np.stack([conv_encode(np.eye(n_info, dtype=np.int64)[i], code)
                    for i in range(n_info)])  # (n_info, 2 n_steps)
    shifts = np.arange(n_info - 1, -1, -1)
    words = (np.arange(1 << n_info)[:, None] >> shifts[None, :]) & 1
    coded = words @ gen & 1
    idx = labeling.label_to_point[2 * coded[:, 0::2] + coded[:, 1::2]]
    metrics = tables[np.arange(tables.shape[0])[None, :], idx].sum(axis=1)
    return words[int(np.argmin(metrics))]
