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


def _butterfly(code: ConvCode, c: Constellation) -> np.ndarray:
    """Constellation point index of every branch, as a (2, S/W, W) table
    with W = min(S, 2). Branch (j, q, w) shifts in register
    r = j S + W q + w: it leaves state r >> 1 (q + j S/2 when S >= 2), enters
    state W q + w = r mod S with input bit r & 1, and emits one parity bit of
    r per generator, the first as MSB. Of the two branches into a state,
    j = 0 has the smaller (previous state, input).
    """
    labeling = c.require_labeling()
    if labeling.bits_per_symbol != 2:
        raise ValueError("viterbi over metric tables expects 2 coded bits per symbol")
    reg = np.arange(2 * code.n_states).reshape(2, -1, min(code.n_states, 2))
    first, second = (np.bitwise_count(reg & g) & 1 for g in code.generators)
    return labeling.label_to_point[first << 1 | second]


def viterbi(tables, code: ConvCode, c: Constellation) -> np.ndarray:
    """Exact minimum-metric path; returns the information bits.

    ``tables[b, t, i]`` is the branch metric of constellation point i at
    step t of word b, one trellis step per transmitted symbol, flush steps
    included. All B words of ``(B, T, |A|)`` are decoded at once, giving
    ``(B, T - n_flush)`` bits. Ties are broken toward the lexicographically
    smaller (previous state, input). Every entry must be finite.

    Every array keeps the words last, so each trellis step is two ufunc
    calls over the ``_butterfly`` layout; the survivor decisions of all
    steps are then read from the same sums at once, and the traceback is one
    ``take`` per step over flat ``register * B + word`` pointers.
    """
    tables = np.asarray(tables, dtype=np.float64)
    if tables.ndim != 3:
        raise ValueError("tables must be (B, T, |A|)")
    n_words, n_steps = tables.shape[:2]
    if n_steps <= code.n_flush:
        raise ValueError("table count does not cover flush steps")
    if not np.isfinite(tables).all():
        raise ValueError("metric tables must be finite")
    n_info = n_steps - code.n_flush
    sym = _butterfly(code, c)
    s_count, (_, half, width) = code.n_states, sym.shape

    bm = np.take(tables.transpose(1, 2, 0), sym, axis=1)  # (T, 2, S/W, W, B)
    pm = np.full((n_steps + 1, s_count, n_words), np.inf)
    pm[0, 0] = 0.0
    src = pm.reshape(n_steps + 1, width, half, 1, n_words)  # state j S/2 + q
    dst = pm.reshape(n_steps + 1, half, width, n_words)  # state W q + w
    cand = np.empty(bm.shape[1:])
    from_first, from_second = cand
    # No flush branch is masked: a path that ends in state 0 has input 0 in
    # its last n_flush steps, and the traceback starts from state 0.
    for before, metric, after in zip(src, bm, dst[1:]):
        np.add(before, metric, out=cand)
        np.minimum(from_first, from_second, out=after)
    bm += src[:-1]  # the forward pass's sums, so the first branch still wins ties
    second = bm[:, 1] < bm[:, 0]

    # back[t, r * B + b] = r' * B + b: the branch register r' that word b took
    # at step t, given that it took register r, from state r >> 1, at step
    # t + 1; written over the branch metrics, which are done with
    back = bm.view(np.int64).reshape(n_steps, s_count, 2, n_words)
    np.multiply(second.reshape(n_steps, s_count, 1, n_words), s_count * n_words, out=back)
    back += np.arange(s_count)[:, None, None] * n_words + np.arange(n_words)
    ptr = np.empty((n_steps + 1, n_words), dtype=np.int64)
    ptr[-1] = np.arange(n_words)  # zero termination: register 0 leaves state 0
    # r' < 2 S, so every pointer is below 2 S B by construction: "clip" never
    # clips here, it only keeps numpy from buffering out
    for step, taken, out in zip(back.reshape(n_steps, -1)[::-1], ptr[:0:-1], ptr[-2::-1]):
        step.take(taken, out=out, mode="clip")
    bits = ptr[:n_info] // n_words
    bits &= 1  # the input bit of each step is the low bit of its register
    return bits.T
