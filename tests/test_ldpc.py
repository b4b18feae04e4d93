import itertools

import numpy as np
import pytest

from gnndsim.codec import bp_decode_batch, encode, ldpc_build
from gnndsim.codec.ldpc import parse_base_matrix
from oracles import (
    dense_parity_check,
    gf2_rank,
    parity_graph_from_dense,
    reference_bp_decode_batch,
)


@pytest.fixture(scope="module")
def code():
    return ldpc_build()


def test_shape_and_rate(code):
    assert code.info_length == 440
    assert code.graph.n == 528
    assert code.info_length / code.graph.n == pytest.approx(5 / 6)


def test_every_codeword_satisfies_checks(code, rng):
    words = encode(code, rng.integers(0, 2, size=(5, 440)))
    assert words.shape == (5, 528)
    assert not (words.astype(np.int64) @ dense_parity_check(code).T % 2).any()


def test_parity_check_rank(code):
    h = dense_parity_check(code)
    assert gf2_rank(h) == code.graph.n_checks == 88


def test_encoding_is_linear(code, rng):
    a = rng.integers(0, 2, size=(4, 440))
    b = rng.integers(0, 2, size=(4, 440))
    np.testing.assert_array_equal(encode(code, a ^ b),
                                  encode(code, a) ^ encode(code, b))


def test_zero_noise_roundtrip(code, rng):
    words = encode(code, rng.integers(0, 2, size=(3, 440)))
    llr = 40.0 * (1.0 - 2.0 * words)
    decoded, converged, _ = bp_decode_batch(code.graph, np.clip(llr, -30, 30), 50)
    assert converged.all()
    np.testing.assert_array_equal(decoded, words)


def test_huge_correct_llrs_decode_in_one_iteration(code, rng):
    words = encode(code, rng.integers(0, 2, size=(3, 440)))
    llr = 30.0 * (1.0 - 2.0 * words)
    decoded, converged, _ = bp_decode_batch(code.graph, llr, 1)
    assert converged.all()
    np.testing.assert_array_equal(decoded, words)


def test_all_zero_llrs_do_not_converge(code):
    _, converged, _ = bp_decode_batch(code.graph, np.zeros((2, 528)), 50)
    assert not converged.any()


def test_converged_output_satisfies_checks(code, rng):
    # noisy LLRs around a codeword; whenever the flag is set, Hc = 0
    word = encode(code, rng.integers(0, 2, size=(1, 440)))
    llr = 4.0 * (1.0 - 2.0 * word) + rng.normal(0, 2.0, size=(10, 528))
    decoded, converged, _ = bp_decode_batch(code.graph, np.clip(llr, -30, 30), 50)
    assert converged.any()
    assert not (decoded[converged].astype(np.int64) @ dense_parity_check(code).T % 2).any()


def test_bp_corrects_moderate_noise(code, rng):
    word = encode(code, rng.integers(0, 2, size=(1, 440)))
    llr = np.clip(6.0 * (1.0 - 2.0 * word) + rng.normal(0, 3.0, size=(10, 528)), -30, 30)
    decoded, converged, _ = bp_decode_batch(code.graph, llr, 50)
    ok = converged & np.all(decoded == word, axis=1)
    assert np.count_nonzero(ok) >= 8


def test_llr_length_mismatch(code):
    with pytest.raises(ValueError):
        bp_decode_batch(code.graph, np.zeros((2, 100)), 50)
    with pytest.raises(ValueError):  # one word is a batch of one
        bp_decode_batch(code.graph, np.zeros(528), 50)


def _assert_same_bits(got, want):
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        np.testing.assert_array_equal(g, w)
    np.testing.assert_array_equal(np.signbit(got[2]), np.signbit(want[2]))


@pytest.mark.parametrize("n_words", [1, 4, 8])
@pytest.mark.parametrize("max_iters", [1, 50])
@pytest.mark.parametrize("early_exit", [True, False])
def test_bp_matches_reference_kernel(code, n_words, max_iters, early_exit):
    rng = np.random.default_rng(100 + n_words)
    words = encode(code, rng.integers(0, 2, size=(n_words, 440)))
    # noise from easy to hopeless across the batch: some words converge, some not
    sigma = np.linspace(1.0, 4.0, n_words)[:, None]
    llr = np.clip(4.0 * (1.0 - 2.0 * words) + sigma * rng.standard_normal(words.shape),
                  -30.0, 30.0)
    _assert_same_bits(bp_decode_batch(code.graph, llr, max_iters, early_exit),
                      reference_bp_decode_batch(code.graph, llr, max_iters, early_exit))


@pytest.mark.parametrize("kind", ["signed zeros", "saturated"])
@pytest.mark.parametrize("max_iters", [1, 50])
@pytest.mark.parametrize("early_exit", [True, False])
def test_bp_matches_reference_kernel_at_extremes(code, kind, max_iters, early_exit):
    rng = np.random.default_rng(7)
    signs = rng.choice([-1.0, 1.0], size=(4, 528))
    # all-zero LLRs of both signs, or every LLR at the clip of +-llr_max
    llr = 0.0 * signs if kind == "signed zeros" else 30.0 * signs
    _assert_same_bits(bp_decode_batch(code.graph, llr, max_iters, early_exit),
                      reference_bp_decode_batch(code.graph, llr, max_iters, early_exit))


def test_parse_rejects_bad_shift():
    with pytest.raises(ValueError):
        parse_base_matrix("1 1 4\n5\n")


# --- exactness on a cycle-free toy code ------------------------------------

TREE_H = np.array([
    [1, 1, 1, 0, 0, 0, 0],
    [0, 0, 1, 1, 1, 0, 0],
    [0, 0, 0, 0, 1, 1, 1],
], dtype=np.uint8)


def _tree_codewords():
    words = []
    for bits in itertools.product((0, 1), repeat=7):
        w = np.array(bits, dtype=np.uint8)
        if not ((TREE_H @ w) % 2).any():
            words.append(w)
    return np.stack(words)


def _exact_bit_marginals(llr, codewords):
    # posterior over codewords for channel LLRs: log p(w) = -sum_j llr_j w_j
    logp = -(codewords * llr).sum(axis=1)
    logp -= logp.max()
    p = np.exp(logp)
    p /= p.sum()
    p1 = codewords.T @ p
    return np.log((1 - p1) / p1)  # exact posterior LLR per bit


def test_bp_exact_on_tree():
    graph = parity_graph_from_dense(TREE_H)
    codewords = _tree_codewords()
    assert len(codewords) == 16  # (7, 4) code
    base = np.array([2.0, 2.1, 2.2, 2.3, 2.4, 2.5, 2.6])
    start = codewords[5]
    for flip in range(-1, 7):
        word = start.copy()
        if flip >= 0:
            word[flip] ^= 1
        llr = base * (1.0 - 2.0 * word)
        hard, _, post = bp_decode_batch(graph, llr[None, :], 10, early_exit=False)
        exact = _exact_bit_marginals(llr, codewords)
        # flooding BP is exact on a tree: posterior LLRs and decisions agree
        np.testing.assert_allclose(post[0], exact, atol=1e-9)
        np.testing.assert_array_equal(hard[0], (exact < 0).astype(np.uint8))
