import numpy as np
import pytest

from gnndsim.channel import (
    ChannelInstance,
    estimate_channel,
    sample_gains,
    transmit,
)
from gnndsim.constellation import make_qpsk, sample_symbols


def test_sample_gains_deterministic():
    a = sample_gains(3, 4, np.random.default_rng(5))
    b = sample_gains(3, 4, np.random.default_rng(5))
    np.testing.assert_array_equal(a, b)


def test_sample_gains_statistics():
    g = sample_gains(100, 1000, np.random.default_rng(1)).ravel()
    assert abs((np.abs(g) ** 2).mean() - 1.0) < 0.02
    assert abs(g.mean()) < 0.01


def test_transmit_noiseless_identity():
    ch = ChannelInstance(np.array([[1.0 + 0j]]), 0.0, [2.0])
    y = transmit(ch, [1 + 1j], np.random.default_rng(0))
    np.testing.assert_allclose(y, [1 + 1j])


def test_transmit_shape_mismatch():
    ch = ChannelInstance(np.ones((2, 3), dtype=complex), 0.1, [1, 1, 1])
    with pytest.raises(ValueError):
        transmit(ch, [1 + 0j, 1 + 0j], np.random.default_rng(0))


def test_transmit_second_moment(rng):
    # E||y||^2 = sum_k P_k ||h_k||^2 + L sigma^2 for independent zero-mean users
    k_users, l_ant, noise_var = 3, 4, 0.7
    gains = sample_gains(k_users, l_ant, rng)
    powers = np.array([0.5, 1.0, 1.5])
    ch = ChannelInstance(gains, noise_var, powers)
    consts = [make_qpsk(p) for p in powers]
    n = 100_000
    x = np.stack([sample_symbols(c, n, rng) for c in consts])
    y = transmit(ch, x, rng)
    e = np.sum(np.abs(y) ** 2, axis=0)
    expect = sum(powers[k] * np.sum(np.abs(gains[:, k]) ** 2) for k in range(k_users))
    expect += l_ant * noise_var
    se = e.std(ddof=1) / np.sqrt(n)
    assert abs(e.mean() - expect) < 3 * se


def test_noise_only_covariance(rng):
    noise_var = 0.3
    ch = ChannelInstance(np.ones((2, 1), dtype=complex), noise_var, [1.0])
    n = 100_000
    y = transmit(ch, np.zeros((1, n), dtype=complex), rng)
    cov = (y @ y.conj().T) / n
    np.testing.assert_allclose(cov, noise_var * np.eye(2), atol=0.01)


def test_transmit_linear_at_fixed_noise():
    ch = ChannelInstance(sample_gains(2, 3, np.random.default_rng(1)), 0.5, [1, 1])
    x1 = np.array([1 + 1j, -1 + 0j])
    x2 = np.array([0 - 1j, 2 + 2j])
    y1 = transmit(ch, x1, np.random.default_rng(42))
    y2 = transmit(ch, x2, np.random.default_rng(42))
    # identical noise draw cancels in the difference
    np.testing.assert_allclose(y1 - y2, ch.gains @ (x1 - x2), atol=1e-12)


def test_estimate_channel_perfect_and_noiseless(rng):
    gains = sample_gains(2, 2, rng)
    est = estimate_channel(gains, "perfect", 0.5, rng)
    np.testing.assert_array_equal(est.gains_hat, gains)
    est0 = estimate_channel(gains, 16.0, 0.0, rng)
    np.testing.assert_array_equal(est0.gains_hat, gains)


def _conditional_mean_oracle(obs, pilot, noise_var):
    """Posterior mean of h ~ CN(0,1) given obs = h*pilot + CN(0, noise_var),
    by 2-D Gauss-Hermite quadrature centered on the likelihood."""
    nodes, wts = np.polynomial.hermite.hermgauss(80)
    u, v = np.meshgrid(nodes, nodes, indexing="ij")
    h = obs / pilot + (np.sqrt(noise_var) / pilot) * (u + 1j * v)
    w2 = np.outer(wts, wts)
    prior = np.exp(-np.abs(h) ** 2)
    return np.sum(w2 * prior * h) / np.sum(w2 * prior)


def test_estimate_channel_shrinkage_matches_posterior_mean(rng):
    # scalar LMMSE is the exact posterior mean for a Gaussian prior
    pilot_power, noise_var = 16.0, 0.1
    gains = np.array([[0.4 - 0.2j]])
    est = estimate_channel(gains, pilot_power, noise_var, np.random.default_rng(3))
    # reconstruct the pilot observation the estimator saw
    obs = est.gains_hat[0, 0] * (pilot_power + noise_var) / np.sqrt(pilot_power)
    oracle = _conditional_mean_oracle(obs, np.sqrt(pilot_power), noise_var)
    assert abs(est.gains_hat[0, 0] - oracle) < 1e-6
    # shrinkage factor 16/16.1 applied to the matched-filter observation
    np.testing.assert_allclose(est.gains_hat[0, 0],
                               (16.0 / 16.1) * obs / np.sqrt(pilot_power), atol=1e-12)


def test_estimate_error_variance(rng):
    pilot_power, noise_var = 4.0, 0.5
    n = 100_000
    gains = sample_gains(1, n, rng)
    est = estimate_channel(gains, pilot_power, noise_var, rng)
    err = (est.gains_hat - gains).ravel()
    mmse = noise_var / (pilot_power + noise_var)
    v = np.abs(err) ** 2
    se = v.std(ddof=1) / np.sqrt(n)
    assert abs(v.mean() - mmse) < 3 * se


def test_instance_validation():
    with pytest.raises(ValueError):
        ChannelInstance(np.ones((2, 2), dtype=complex), 0.1, [1.0])
    with pytest.raises(ValueError):
        ChannelInstance(np.ones((2, 2), dtype=complex), 0.1, [1.0, -1.0])
