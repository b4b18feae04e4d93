import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gnndsim.constellation import (
    BitLabeling,
    Constellation,
    label_set_indices,
    make_qpsk,
    modulate,
    sample_symbols,
)
from oracles import demodulate_hard


def test_qpsk_points_and_probs():
    q = make_qpsk(2.0)
    assert sorted(map(complex, q.points), key=lambda z: (z.real, z.imag)) == [
        -1 - 1j, -1 + 1j, 1 - 1j, 1 + 1j]
    np.testing.assert_allclose(q.probabilities, 0.25)


def test_qpsk_power_constraint():
    q = make_qpsk(2.0)
    assert q.probabilities @ np.abs(q.points) ** 2 == pytest.approx(2.0, abs=1e-12)
    q2 = make_qpsk(0.5)
    np.testing.assert_allclose(np.abs(q2.points) ** 2, 0.5, atol=1e-12)


def test_qpsk_rejects_nonpositive_power():
    with pytest.raises(ValueError):
        make_qpsk(0.0)
    with pytest.raises(ValueError):
        make_qpsk(-1.0)


def test_label_sets_follow_gray_map():
    q = make_qpsk(2.0)
    assert all(p.real > 0 for p in q.points[label_set_indices(q, 1, 0)])
    assert all(p.real < 0 for p in q.points[label_set_indices(q, 1, 1)])
    assert all(p.imag < 0 for p in q.points[label_set_indices(q, 2, 1)])
    assert all(p.imag > 0 for p in q.points[label_set_indices(q, 2, 0)])


def test_label_sets_partition():
    q = make_qpsk(1.0)
    for j in (1, 2):
        s0, s1 = q.points[label_set_indices(q, j, 0)], q.points[label_set_indices(q, j, 1)]
        assert len(s0) + len(s1) == 4
        assert not set(map(complex, s0)) & set(map(complex, s1))


def test_label_position_out_of_range():
    q = make_qpsk(1.0)
    with pytest.raises(ValueError):
        label_set_indices(q, 3, 0)
    with pytest.raises(ValueError):
        label_set_indices(q, 0, 0)


def test_modulate_gray_anchor():
    q = make_qpsk(2.0)
    np.testing.assert_allclose(modulate([0, 0], q), [1 + 1j])
    np.testing.assert_allclose(modulate([1, 1], q), [-1 - 1j])
    assert modulate([0, 0, 1, 0, 1, 1], q).shape == (3,)


def test_modulate_rejects_ragged_input():
    q = make_qpsk(2.0)
    with pytest.raises(ValueError):
        modulate([0, 1, 0], q)


@given(st.lists(st.integers(0, 1), min_size=2, max_size=64).filter(lambda b: len(b) % 2 == 0))
def test_modulate_demodulate_roundtrip(bits):
    q = make_qpsk(2.0)
    np.testing.assert_array_equal(demodulate_hard(modulate(bits, q), q), bits)


@given(st.floats(0.05, 50.0))
def test_qpsk_power_scales(power):
    q = make_qpsk(power)
    assert q.probabilities @ np.abs(q.points) ** 2 == pytest.approx(power, rel=1e-12)


def test_empirical_power_matches(rng):
    q = make_qpsk(2.0)
    n = 1_000_000
    sym = sample_symbols(q, n, rng)
    e = np.abs(sym) ** 2
    se = e.std(ddof=1) / np.sqrt(n)
    assert abs(e.mean() - 2.0) < 3 * max(se, 1e-12)


def test_constellation_invariants_enforced():
    with pytest.raises(ValueError):
        Constellation([1 + 0j, -1 + 0j], [0.6, 0.6], 1.0)
    with pytest.raises(ValueError):
        Constellation([1 + 0j, 1 + 0j], [0.5, 0.5], 1.0)
    with pytest.raises(ValueError):
        Constellation([1 + 0j, -1 + 0j], [0.5, 0.5], 3.0)


def test_labeling_must_be_bijection():
    with pytest.raises(ValueError):
        BitLabeling(np.array([0, 1, 1, 3]))
