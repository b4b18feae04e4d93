import itertools

import numpy as np
import pytest

from gnndsim.codec import bp_decode_batch, encode, ldpc_build, syndrome
from gnndsim.codec.ldpc import parse_base_matrix
from oracles import dense_parity_check, gf2_rank, parity_graph_from_dense


@pytest.fixture(scope="module")
def code():
    return ldpc_build()


def test_shape_and_rate(code):
    assert code.info_length == 440
    assert code.n == 528
    assert code.info_length / code.n == pytest.approx(5 / 6)


def test_every_codeword_satisfies_checks(code, rng):
    for _ in range(5):
        word = encode(code, rng.integers(0, 2, size=440))
        assert not syndrome(code, word).any()


def test_parity_check_rank(code):
    h = dense_parity_check(code)
    assert gf2_rank(h) == code.n_checks == 88


def test_encoding_is_linear(code, rng):
    a = rng.integers(0, 2, size=440)
    b = rng.integers(0, 2, size=440)
    np.testing.assert_array_equal(encode(code, a ^ b),
                                  encode(code, a) ^ encode(code, b))


def test_zero_noise_roundtrip(code, rng):
    bits = rng.integers(0, 2, size=440)
    word = encode(code, bits)
    llr = 40.0 * (1.0 - 2.0 * word)
    (decoded,), (converged,) = bp_decode_batch(code, np.clip(llr, -30, 30))
    assert converged
    np.testing.assert_array_equal(decoded, word)


def test_huge_correct_llrs_decode_in_one_iteration(code, rng):
    word = encode(code, rng.integers(0, 2, size=440))
    llr = 30.0 * (1.0 - 2.0 * word)
    (decoded,), (converged,) = bp_decode_batch(code, llr, max_iters=1)
    assert converged
    np.testing.assert_array_equal(decoded, word)


def test_all_zero_llrs_do_not_converge(code):
    _, (converged,) = bp_decode_batch(code, np.zeros(528))
    assert not converged


def test_converged_output_satisfies_checks(code, rng):
    # noisy LLRs around a codeword; whenever the flag is set, Hc = 0
    word = encode(code, rng.integers(0, 2, size=440))
    hits = 0
    for _ in range(10):
        llr = 4.0 * (1.0 - 2.0 * word) + rng.normal(0, 2.0, size=528)
        (decoded,), (converged,) = bp_decode_batch(code, np.clip(llr, -30, 30))
        if converged:
            hits += 1
            assert not syndrome(code, decoded).any()
    assert hits > 0


def test_bp_corrects_moderate_noise(code, rng):
    word = encode(code, rng.integers(0, 2, size=440))
    ok = 0
    for _ in range(10):
        llr = np.clip(6.0 * (1.0 - 2.0 * word) + rng.normal(0, 3.0, size=528), -30, 30)
        (decoded,), (converged,) = bp_decode_batch(code, llr)
        ok += converged and np.array_equal(decoded, word)
    assert ok >= 8


def test_llr_length_mismatch(code):
    with pytest.raises(ValueError):
        bp_decode_batch(code, np.zeros(100))


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
        hard, _, post = bp_decode_batch(graph, llr[None, :], max_iters=10,
                                        return_posteriors=True, early_exit=False)
        exact = _exact_bit_marginals(llr, codewords)
        # flooding BP is exact on a tree: posterior LLRs and decisions agree
        np.testing.assert_allclose(post[0], exact, atol=1e-9)
        np.testing.assert_array_equal(hard[0], (exact < 0).astype(np.uint8))
