"""Quasi-cyclic LDPC code with staircase parity structure and sum-product
belief-propagation decoding."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources

import numpy as np

BASE_RESOURCE = "qc_base_rate56.txt"  # the pinned construction and its shape
INFO_LENGTH, CODE_RATE = 440, Fraction(5, 6)
_ATANH_CAP = 0.9999999999999998  # keep arctanh finite


def parse_base_matrix(text: str) -> tuple[np.ndarray, int]:
    """Parse the plain-text base matrix format.

    First data line: block_rows block_cols lifting_size; then block_rows
    rows of integers, -1 for an all-zero block, s >= 0 for the circulant
    with ones at (z, (z + s) mod Z).
    """
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    mb, nb, z = map(int, lines[0].split())
    rows = [list(map(int, ln.split())) for ln in lines[1:1 + mb]]
    base = np.asarray(rows, dtype=np.int64)
    if base.shape != (mb, nb):
        raise ValueError(f"base matrix shape {base.shape} != ({mb}, {nb})")
    if np.any(base >= z):
        raise ValueError("circulant shift exceeds lifting size")
    return base, z


@dataclass(frozen=True)
class ParityGraph:
    """Edge-list view of a parity-check matrix for message passing."""

    n: int
    n_checks: int
    check_of_edge: np.ndarray
    var_of_edge: np.ndarray
    check_starts: np.ndarray = field(repr=False, default=None)
    var_perm: np.ndarray = field(repr=False, default=None)
    var_starts: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        ce = np.asarray(self.check_of_edge, dtype=np.int64)
        ve = np.asarray(self.var_of_edge, dtype=np.int64)
        order = np.lexsort((ve, ce))
        ce, ve = ce[order], ve[order]
        counts_c = np.bincount(ce, minlength=self.n_checks)
        counts_v = np.bincount(ve, minlength=self.n)
        if counts_c.min() < 1 or counts_v.min() < 1:
            raise ValueError("every check and variable must touch an edge")
        var_perm = np.lexsort((ce, ve))
        object.__setattr__(self, "check_of_edge", ce)
        object.__setattr__(self, "var_of_edge", ve)
        object.__setattr__(self, "check_starts",
                           np.searchsorted(ce, np.arange(self.n_checks)))
        object.__setattr__(self, "var_perm", var_perm)
        object.__setattr__(self, "var_starts",
                           np.searchsorted(ve[var_perm], np.arange(self.n)))


@dataclass(frozen=True)
class LdpcCode:
    base_matrix: np.ndarray
    lifting: int
    info_length: int
    graph: ParityGraph = field(repr=False, default=None)

    def __post_init__(self):
        base, z = self.base_matrix, self.lifting
        mb, nb = base.shape
        checks, vars_ = [], []
        zz = np.arange(z)
        for rb in range(mb):
            for cb in range(nb):
                s = base[rb, cb]
                if s < 0:
                    continue
                checks.append(rb * z + zz)
                vars_.append(cb * z + (zz + s) % z)
        graph = ParityGraph(nb * z, mb * z,
                            np.concatenate(checks), np.concatenate(vars_))
        object.__setattr__(self, "graph", graph)


def ldpc_build() -> LdpcCode:
    """Load the pinned base matrix and check it has the pinned shape."""
    base, z = parse_base_matrix(
        resources.files("gnndsim.codec").joinpath("data", BASE_RESOURCE).read_text())
    mb, nb = base.shape
    k = (nb - mb) * z
    if (k, Fraction(k, nb * z)) != (INFO_LENGTH, CODE_RATE):
        raise ValueError(f"pinned construction gives info length {k} at rate "
                         f"{Fraction(k, nb * z)}, expected {INFO_LENGTH} at {CODE_RATE}")
    return LdpcCode(base, z, k)


def encode(code: LdpcCode, bits) -> np.ndarray:
    """Systematic encoding of a batch of information words (B, k) into
    codewords (B, n) via the staircase parity section, whose parity blocks
    are the running XOR of the information part's block syndromes."""
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.ndim != 2 or bits.shape[1] != code.info_length:
        raise ValueError(f"expected (B, {code.info_length}) information bits")
    base, z = code.base_matrix, code.lifting
    mb, nb = base.shape
    info_blocks = nb - mb
    u = bits.reshape(len(bits), info_blocks, z)
    syn = np.zeros((len(bits), mb, z), dtype=np.uint8)
    for rb in range(mb):
        for cb in range(info_blocks):
            s = base[rb, cb]
            if s >= 0:
                syn[:, rb] ^= np.roll(u[:, cb], -s, axis=1)
    parity = np.bitwise_xor.accumulate(syn, axis=1)
    return np.concatenate([bits, parity.reshape(len(bits), -1)], axis=1)


def bp_decode_batch(graph: ParityGraph, llrs, max_iters: int, early_exit: bool = True):
    """Flooding sum-product decoding of a batch of LLR vectors.

    ``llrs`` has shape (batch, n) with the convention log p(bit=0)/p(bit=1).
    Returns (hard bits (batch, n), converged (batch,), posterior LLRs
    (batch, n)). Convergence means all checks are satisfied with no
    undecidable (exactly zero) posterior LLR; decoding stops early once
    every batch item has converged unless ``early_exit`` is disabled
    (useful when exact posteriors are wanted).

    Messages are ``(batch, E)`` arrays in check-sorted edge order, written
    in place. Each check and variable sum is one ``add.reduceat`` over its
    edges in that order, since a different summation order would move the
    last bits of the messages.
    """
    llrs = np.asarray(llrs, dtype=np.float64)
    if llrs.ndim != 2 or llrs.shape[1] != graph.n:
        raise ValueError(f"LLRs of shape {llrs.shape} are not (batch, {graph.n})")
    b = llrs.shape[0]
    ve, starts = graph.var_of_edge, graph.check_starts
    degree = np.diff(starts, append=len(ve))
    v2c = np.take(llrs, ve, axis=1)
    lt = np.empty_like(v2c)
    sign = np.empty_like(v2c)
    c2v = np.empty_like(v2c)
    by_var = np.empty_like(v2c)
    neg = np.empty(v2c.shape, dtype=np.uint8)
    hard_e = np.empty(v2c.shape, dtype=np.uint8)
    total = llrs
    converged = np.zeros(b, dtype=bool)
    for _ in range(max_iters):
        np.clip(v2c, -60.0, 60.0, out=lt)
        lt *= 0.5
        np.tanh(lt, out=lt)
        np.less(lt, 0.0, out=neg)  # not signbit: a -0.0 message counts as positive
        np.abs(lt, out=lt)
        np.clip(lt, 1e-300, _ATANH_CAP, out=lt)
        np.log(lt, out=lt)
        # extrinsic log-magnitude and sign: the check's total less the edge's own
        ext = np.repeat(np.add.reduceat(lt, starts, axis=1), degree, axis=1)
        ext -= lt
        np.exp(ext, out=ext)
        np.minimum(ext, _ATANH_CAP, out=ext)
        np.arctanh(ext, out=ext)
        ext *= 2.0
        flip = np.repeat(np.bitwise_xor.reduceat(neg, starts, axis=1), degree, axis=1)
        flip ^= neg
        # a product with +-1.0, not a negation, leaves a NaN's sign bit as it was
        np.multiply(flip, -2.0, out=sign)
        sign += 1.0
        np.multiply(ext, sign, out=c2v)
        np.take(c2v, graph.var_perm, axis=1, out=by_var)
        total = llrs + np.add.reduceat(by_var, graph.var_starts, axis=1)
        np.take(total, ve, axis=1, out=v2c)
        np.less(v2c, 0.0, out=hard_e)  # the hard decisions, gathered per edge
        v2c -= c2v
        unsat = np.bitwise_xor.reduceat(hard_e, starts, axis=1)
        converged = ~unsat.any(axis=1) & ~(total == 0.0).any(axis=1)
        if early_exit and converged.all():
            break
    hard = (total < 0).astype(np.uint8)
    return hard, converged, total
