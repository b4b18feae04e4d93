import numpy as np
import pytest

from gnndsim.channel import transmit
from gnndsim.codec import conv_encode, make_conv_code_57, viterbi
from gnndsim.codec.conv import ConvCode
from gnndsim.constellation import make_qpsk, modulate
from oracles import exhaustive_decode, reference_viterbi

# constraint lengths 1-6, two generator pairs each; length 1 has only (1, 1)
CODES = [ConvCode((1, 1), 1),
         ConvCode((0b11, 0b01), 2), ConvCode((0b10, 0b11), 2),
         ConvCode((0b101, 0b111), 3), ConvCode((0b110, 0b011), 3),
         ConvCode((0o15, 0o17), 4), ConvCode((0o13, 0o06), 4),
         ConvCode((0o23, 0o35), 5), ConvCode((0o31, 0o27), 5),
         ConvCode((0o53, 0o75), 6), ConvCode((0o61, 0o47), 6)]


def test_all_zero_input_gives_all_zero_output():
    code = make_conv_code_57()
    np.testing.assert_array_equal(conv_encode(np.zeros((3, 10), dtype=int), code),
                                  np.zeros((3, 24), dtype=int))


def test_hand_traced_shift_register():
    # state = last two inputs; outputs are (1 + D^2, 1 + D + D^2) taps; the
    # second word is the first delayed by one step
    code = make_conv_code_57()
    coded = conv_encode([[1, 0, 0], [0, 1, 0]], code)
    np.testing.assert_array_equal(coded, [[1, 1, 0, 1, 1, 1, 0, 0, 0, 0],
                                          [0, 0, 1, 1, 0, 1, 1, 1, 0, 0]])


def test_impulse_response_matches_generators():
    code = make_conv_code_57()
    coded = conv_encode([[1]], code)[0]  # one info bit + 2 flush bits
    # columns are (coefficient of D^t in G1, in G2)
    np.testing.assert_array_equal(coded.reshape(-1, 2).T, [[1, 0, 1], [1, 1, 1]])


def test_encode_rejects_bad_bits():
    with pytest.raises(ValueError):
        conv_encode([[0, 1], [0, 2]], make_conv_code_57())


def test_generator_validation():
    with pytest.raises(ValueError):
        ConvCode((0, 5), 3)
    with pytest.raises(ValueError):
        ConvCode((0b1111, 0b101), 3)


def _euclidean_tables(received, c):
    """Squared distances of every received symbol to every point, (..., |A|)."""
    return np.abs(received[..., None] - c.points) ** 2


def test_noiseless_roundtrip():
    code = make_conv_code_57()
    q = make_qpsk(2.0)
    rng = np.random.default_rng(0)
    bits = rng.integers(0, 2, size=(4, 40))
    sym = modulate(conv_encode(bits, code), q).reshape(4, -1)
    np.testing.assert_array_equal(viterbi(_euclidean_tables(sym, q), code, q), bits)


def test_soft_viterbi_on_noisy_awgn(rng):
    code = make_conv_code_57()
    q = make_qpsk(2.0)
    bits = rng.integers(0, 2, size=(5, 12))
    sym = modulate(conv_encode(bits, code), q)
    y = transmit(np.array([[1.0 + 0j]]), 0.4, sym[None, :], rng).reshape(5, -1)
    tables = _euclidean_tables(y, q)
    decoded = viterbi(tables, code, q)
    # soft decoding must equal the exhaustive minimum-metric codeword
    for row, tab in zip(decoded, tables):
        np.testing.assert_array_equal(row, exhaustive_decode(tab, code, q))


def test_viterbi_equals_exhaustive_on_random_metrics(rng):
    q = make_qpsk(2.0)
    for code in [c for c in CODES if c.constraint_length <= 4]:
        for _ in range(60):
            n_info = int(rng.integers(2, 13))
            tables = rng.normal(0, 1, size=(3, n_info + code.n_flush, 4)) ** 2
            for row, tab in zip(viterbi(tables, code, q), tables):
                np.testing.assert_array_equal(row, exhaustive_decode(tab, code, q))


@pytest.mark.parametrize("kind", ["float", "ties", "huge"])
@pytest.mark.parametrize("code", CODES,
                         ids=lambda c: "K{}-{:o}-{:o}".format(c.constraint_length, *c.generators))
def test_viterbi_matches_reference_kernel(rng, code, kind):
    # small integers tie path metrics; at 1e300 the path metrics of 140 steps
    # stay finite, at 1e307 they overflow to +-inf; the reference masks the
    # flush steps' input-1 branches, the kernel does not need to
    q = make_qpsk(2.0)
    for n_words in (1, 7, 48, 144):
        for n_steps in (code.n_flush + 1, code.n_flush + 2, 37, 140):
            shape = (n_words, n_steps, 4)
            tables = (rng.normal(0, 1, size=shape) ** 2 if kind == "float"
                      else rng.integers(0, 3, size=shape).astype(float) if kind == "ties"
                      else rng.normal(0, 1, size=shape) * rng.choice([1e300, 1e307]))
            with np.errstate(over="ignore"):
                got, want = viterbi(tables, code, q), reference_viterbi(tables, code, q)
            np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_viterbi_rejects_non_finite_tables(bad):
    code = make_conv_code_57()
    q = make_qpsk(2.0)
    tables = np.ones((3, 6, 4))
    tables[1, 4, 2] = bad
    with pytest.raises(ValueError, match="finite"):
        viterbi(tables, code, q)


def test_viterbi_table_length_check():
    code = make_conv_code_57()
    q = make_qpsk(2.0)
    with pytest.raises(ValueError):
        viterbi(np.zeros((3, 2, 4)), code, q)


def test_viterbi_deterministic_tie_breaking():
    code = make_conv_code_57()
    q = make_qpsk(2.0)
    tables = np.zeros((3, 6, 4))  # fully degenerate metrics
    a = viterbi(tables, code, q)
    b = viterbi(tables, code, q)
    np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(a, np.zeros((3, 4), dtype=int))


@pytest.mark.parametrize("kind", ["float", "ties"])
def test_batched_viterbi_matches_per_word(rng, kind):
    code = make_conv_code_57()
    q = make_qpsk(2.0)
    for n_info in (1, 5, 12):
        shape = (40, n_info + code.n_flush, 4)
        # small integers make equal path metrics, so the tie rule decides
        tables = (rng.normal(0, 1, size=shape) ** 2 if kind == "float"
                  else rng.integers(0, 3, size=shape).astype(float))
        batched = viterbi(tables, code, q)
        assert batched.shape == (40, n_info)
        for row, tab in zip(batched, tables):
            np.testing.assert_array_equal(row, viterbi(tab[None], code, q)[0])
            if kind == "float":
                np.testing.assert_array_equal(row, exhaustive_decode(tab, code, q))


def test_batched_encode_matches_per_word(rng):
    code = make_conv_code_57()
    bits = rng.integers(0, 2, size=(9, 17))
    coded = conv_encode(bits, code)
    assert coded.shape == (9, 2 * (17 + code.n_flush))
    for row, word in zip(coded, bits):
        np.testing.assert_array_equal(row, conv_encode(word[None], code)[0])


def test_single_and_batched_shapes_round_trip(rng):
    code = make_conv_code_57()
    q = make_qpsk(2.0)
    bits = rng.integers(0, 2, size=(3, 10))
    for words in (bits[:1], bits):
        coded = conv_encode(words, code)
        assert coded.ndim == words.ndim
        sym = modulate(coded, q).reshape(coded.shape[:-1] + (-1,))
        tables = np.abs(sym[..., None] - q.points) ** 2
        np.testing.assert_array_equal(viterbi(tables, code, q), words)


def test_batch_shapes_are_checked():
    code = make_conv_code_57()
    q = make_qpsk(2.0)
    with pytest.raises(ValueError):
        conv_encode(np.zeros((2, 2, 3), dtype=int), code)
    with pytest.raises(ValueError):
        viterbi(np.zeros((2, 2, 6, 4)), code, q)
    with pytest.raises(ValueError):
        viterbi(np.zeros(4), code, q)
    with pytest.raises(ValueError):  # one word is a batch of one
        conv_encode(np.zeros(3, dtype=int), code)
    with pytest.raises(ValueError):
        viterbi(np.zeros((6, 4)), code, q)
