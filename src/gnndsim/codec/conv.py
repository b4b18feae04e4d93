"""Rate-1/2 convolutional coding and soft Viterbi decoding driven by
per-symbol metric tables, so any front can supply the branch metric."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..constellation import Constellation


@dataclass(frozen=True)
class ConvCode:
    """Feedforward rate-1/2 code; generator bit i is the coefficient of D^i."""

    generators: tuple[int, int]
    constraint_length: int

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


def conv_encode(bits, code: ConvCode) -> np.ndarray:
    """Encode a batch of words ``(B, n)`` with zero termination; each output
    row is ``2 (n + n_flush)`` coded bits, two per trellis step. Every
    generator tap XORs in a shifted copy of the zero-padded input.
    """
    bits = np.asarray(bits, dtype=np.int64)
    if bits.ndim != 2:
        raise ValueError("bits must be (B, n)")
    if bits.size and (bits.min() < 0 or bits.max() > 1):
        raise ValueError("bits must be 0/1")
    full = np.pad(bits, ((0, 0), (0, code.n_flush)))
    n_steps = full.shape[1]
    out = np.zeros((bits.shape[0], n_steps, 2), dtype=np.int64)
    for j, g in enumerate(code.generators):
        for i in range(code.constraint_length):
            if g >> i & 1:
                out[:, i:, j] ^= full[:, :n_steps - i]
    return out.reshape(bits.shape[0], 2 * n_steps)


def _incoming_branches(code: ConvCode, c: Constellation):
    """The two branches into each state, as (S, 2) tables of previous state,
    input bit and constellation point index, ordered by (previous state,
    input). Branch (s, b) shifts in register r = 2 s + b, enters state
    r mod S and emits one parity bit of r per generator, the first as MSB.
    """
    labeling = c.require_labeling()
    if labeling.bits_per_symbol != 2:
        raise ValueError("viterbi over metric tables expects 2 coded bits per symbol")
    s_count = code.n_states
    # registers r = 2 s + b stably sorted by destination, so (s, b) ascend in each row
    reg = np.argsort(np.arange(2 * s_count) % s_count, kind="stable").reshape(s_count, 2)
    first, second = (np.bitwise_count(reg & g) & 1 for g in code.generators)
    return reg >> 1, reg & 1, labeling.label_to_point[first << 1 | second]


def viterbi(tables, code: ConvCode, c: Constellation) -> np.ndarray:
    """Exact minimum-metric path; returns the information bits.

    ``tables[b, t, i]`` is the branch metric of constellation point i at
    step t of word b, one trellis step per transmitted symbol, flush steps
    included. All B words of ``(B, T, |A|)`` are decoded at once, giving
    ``(B, T - n_flush)`` bits. Ties are broken toward the lexicographically
    smaller (previous state, input).
    """
    tables = np.asarray(tables, dtype=np.float64)
    if tables.ndim != 3:
        raise ValueError("tables must be (B, T, |A|)")
    n_words, n_steps = tables.shape[:2]
    if n_steps <= code.n_flush:
        raise ValueError("table count does not cover flush steps")
    n_info = n_steps - code.n_flush
    inc_prev, inc_input, inc_sym = _incoming_branches(code, c)
    s_count = code.n_states

    big = np.inf
    pm = np.full((n_words, s_count), big)
    pm[:, 0] = 0.0
    took_second = np.empty((n_steps, n_words, s_count), dtype=bool)
    for t in range(n_steps):
        cand = pm[:, inc_prev] + tables[:, t][:, inc_sym]  # (B, S, 2)
        if t >= n_info:  # flush: only input 0 branches are valid
            cand = np.where(inc_input == 0, cand, big)
        second = cand[..., 1] < cand[..., 0]  # the first branch wins ties
        took_second[t] = second
        pm = np.where(second, cand[..., 1], cand[..., 0])

    rows = np.arange(n_words)
    state = np.zeros(n_words, dtype=np.int64)  # zero termination
    bits = np.empty((n_words, n_steps), dtype=np.int64)
    for t in range(n_steps - 1, -1, -1):
        c_idx = took_second[t, rows, state].astype(np.int64)
        bits[:, t] = inc_input[state, c_idx]
        state = inc_prev[state, c_idx]
    return bits[:, :n_info]
