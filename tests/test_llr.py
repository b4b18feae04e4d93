import numpy as np
import pytest

from gnndsim.codec import bit_llrs
from gnndsim.constellation import BitLabeling, Constellation, make_qpsk
from gnndsim.fronts import qpsk_estimates
from gnndsim.harness import _batched_sigma_u, nn_tables
from gnndsim.posterior import JointEnumeration


def _gnnd_llrs(g, q, noise_scale, **kw):
    return bit_llrs(nn_tables(np.asarray(g, dtype=complex), q.points), q, noise_scale, **kw)


def test_zero_estimate_gives_zero_llrs():
    q = make_qpsk(2.0)
    out = _gnnd_llrs(np.zeros(5), q, 1.0)
    np.testing.assert_array_equal(out, np.zeros(10))


def test_gnnd_matches_exact_awgn_llrs_at_unit_noise(rng):
    # single user, h = 1, unit noise: the processed observation equals y and
    # the equivalent-channel residual power is exactly the channel noise
    q = make_qpsk(2.0)
    gains = np.array([[1.0 + 0j]])
    noise_var = 1.0
    enum = JointEnumeration(gains, noise_var, q)
    y = 0.9 * (rng.standard_normal(200) + 1j * rng.standard_normal(200))
    means = enum.evaluate(y[None, :]).mean(0)
    g = qpsk_estimates(means, q.power)
    np.testing.assert_allclose(g, y, atol=1e-9)
    gnnd = _gnnd_llrs(g, q, 1.0)
    awgn = bit_llrs(nn_tables(y, q.points), q, noise_var)
    np.testing.assert_allclose(gnnd, awgn, atol=1e-9)


def test_llr_sign_follows_estimate_sign(rng):
    q = make_qpsk(2.0)
    g = rng.standard_normal(50) + 1j * rng.standard_normal(50)
    out = _gnnd_llrs(g, q, 0.7).reshape(-1, 2)
    np.testing.assert_array_equal(np.sign(out[:, 0]), np.sign(g.real))
    np.testing.assert_array_equal(np.sign(out[:, 1]), np.sign(g.imag))


def test_label_complement_flips_llr_sign(rng):
    q = make_qpsk(2.0)
    flipped_msb = Constellation(q.points, q.probabilities, q.power,
                                BitLabeling(2, q.labeling.point_to_label ^ 0b10))
    tables = rng.uniform(0, 4, size=(20, 4))
    a = bit_llrs(tables, q, 0.5).reshape(-1, 2)
    b = bit_llrs(tables, flipped_msb, 0.5).reshape(-1, 2)
    np.testing.assert_allclose(b[:, 0], -a[:, 0], atol=0)
    np.testing.assert_allclose(b[:, 1], a[:, 1], atol=0)


def test_llrs_are_clamped(rng):
    q = make_qpsk(2.0)
    out = _gnnd_llrs([100 + 100j], q, 1e-3)
    assert np.max(np.abs(out)) <= 30.0
    wide = _gnnd_llrs([100 + 100j], q, 1e-3, llr_max=50.0)
    assert np.max(np.abs(wide)) == 50.0


def test_cl_llr_reduces_to_scaled_matched_filter():
    q = make_qpsk(2.0)
    y = np.array([0.5 - 0.3j])
    out = bit_llrs(nn_tables(y, q.points, 2.0), q, 1.0)
    amp = np.sqrt(q.power / 2)
    expect0 = 4 * amp * 2.0 * y[0].real  # per-dimension factorization
    assert out[0] == pytest.approx(expect0, abs=1e-12)


def test_scale_validation():
    q = make_qpsk(2.0)
    tables = nn_tables(np.zeros(1, dtype=complex), q.points)
    for scale in (0.0, -1.0):
        with pytest.raises(ValueError):
            bit_llrs(tables, q, scale)


def _sigma_u(gains, noise_var, q, n_samples, seed):
    """Residual scale of the one user of ``gains`` through the LDPC path."""
    gains = np.asarray(gains, dtype=complex)
    enum = JointEnumeration(gains, noise_var, q)
    return _batched_sigma_u(gains, noise_var, q, lambda y: enum.evaluate(y).means_all(),
                            1, n_samples, np.random.default_rng(seed))[0]


def test_residual_var_single_user_closed_form():
    # h=1: g(y) = y / noise_var, so E|g - x|^2 = P (1 - v)^2 / v^2 + 1 / v
    power, noise_var = 2.0, 0.8
    est = _sigma_u([[1.0]], noise_var, make_qpsk(power), 200_000, 3)
    expect = power * (1 - noise_var) ** 2 / noise_var**2 + 1 / noise_var
    assert est == pytest.approx(expect, rel=0.02)


def test_residual_var_unit_at_matched_noise():
    est = _sigma_u([[1.0]], 1.0, make_qpsk(2.0), 100_000, 4)
    assert est == pytest.approx(1.0, rel=0.02)


def test_residual_var_huge_noise_tends_to_power():
    est = _sigma_u([[1.0]], 1e6, make_qpsk(2.0), 20_000, 5)
    assert est == pytest.approx(2.0, rel=0.05)


def test_residual_var_deterministic():
    gains, q = [[1.0], [0.5j]], make_qpsk(1.0)
    assert _sigma_u(gains, 0.5, q, 5000, 6) == _sigma_u(gains, 0.5, q, 5000, 6)
