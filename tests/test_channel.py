import numpy as np
import pytest

from gnndsim.channel import crandn, estimate_channel, sample_gains, transmit
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
    y = transmit(np.array([[1.0 + 0j]]), 0.0, [[1 + 1j]], np.random.default_rng(0))
    np.testing.assert_allclose(y, [[1 + 1j]])


def test_transmit_shape_mismatch():
    with pytest.raises(ValueError):
        transmit(np.ones((2, 3), dtype=complex), 0.1, [[1 + 0j], [1 + 0j]],
                 np.random.default_rng(0))


@pytest.mark.parametrize("gains, noise_var", [
    (np.ones(2, dtype=complex), 0.1),          # not a matrix
    (np.ones((1, 2, 2), dtype=complex), 0.1),  # a stack of channels
    (np.ones((2, 0), dtype=complex), 0.1),     # no user
    (np.ones((2, 2), dtype=complex), -0.1),    # negative noise variance
])
def test_transmit_rejects_bad_channel(gains, noise_var):
    with pytest.raises(ValueError):
        transmit(gains, noise_var, np.ones((2, 3), dtype=complex), np.random.default_rng(0))


@pytest.mark.parametrize("n_users, n_antennas", [(3, 3), (2, 4)])
def test_transmit_draws_noise_as_crandn(n_users, n_antennas):
    # the runners' channel uses and their RNG streams rest on this contract
    gains = sample_gains(n_users, n_antennas, np.random.default_rng(3))
    x = make_qpsk(1.0).points[np.random.default_rng(4).integers(0, 4, size=(n_users, 50))]
    rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
    y = transmit(gains, 0.3, x, rng)
    np.testing.assert_array_equal(
        y, gains @ x + np.sqrt(0.3) * crandn((n_antennas, 50), ref_rng))
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_transmit_second_moment(rng):
    # E||y||^2 = sum_k P_k ||h_k||^2 + L sigma^2 for independent zero-mean users
    k_users, l_ant, noise_var = 3, 4, 0.7
    gains = sample_gains(k_users, l_ant, rng)
    powers = np.array([0.5, 1.0, 1.5])
    consts = [make_qpsk(p) for p in powers]
    n = 100_000
    x = np.stack([sample_symbols(c, n, rng) for c in consts])
    y = transmit(gains, noise_var, x, rng)
    e = np.sum(np.abs(y) ** 2, axis=0)
    expect = sum(powers[k] * np.sum(np.abs(gains[:, k]) ** 2) for k in range(k_users))
    expect += l_ant * noise_var
    se = e.std(ddof=1) / np.sqrt(n)
    assert abs(e.mean() - expect) < 3 * se


def test_noise_only_covariance(rng):
    noise_var = 0.3
    n = 100_000
    y = transmit(np.ones((2, 1), dtype=complex), noise_var, np.zeros((1, n), dtype=complex), rng)
    cov = (y @ y.conj().T) / n
    np.testing.assert_allclose(cov, noise_var * np.eye(2), atol=0.01)


def test_transmit_linear_at_fixed_noise():
    gains = sample_gains(2, 3, np.random.default_rng(1))
    x1 = np.array([[1 + 1j], [-1 + 0j]])
    x2 = np.array([[0 - 1j], [2 + 2j]])
    y1 = transmit(gains, 0.5, x1, np.random.default_rng(42))
    y2 = transmit(gains, 0.5, x2, np.random.default_rng(42))
    # identical noise draw cancels in the difference
    np.testing.assert_allclose(y1 - y2, gains @ (x1 - x2), atol=1e-12)


def test_estimate_channel_perfect_and_noiseless(rng):
    gains = sample_gains(2, 2, rng)
    est = estimate_channel(gains, "perfect", 0.5, rng)
    np.testing.assert_array_equal(est, gains)
    est0 = estimate_channel(gains, 16.0, 0.0, rng)
    np.testing.assert_array_equal(est0, gains)


def test_estimate_channel_draws_pilot_noise_for_every_setting():
    # the rng ends in the same state whatever the pilot power
    gains = sample_gains(3, 2, np.random.default_rng(5))
    after = []
    for pilot in ("perfect", 16.0, 1.0):
        rng = np.random.default_rng(9)
        estimate_channel(gains, pilot, 0.3, rng)
        after.append(rng.standard_normal(4))
    np.testing.assert_array_equal(after[0], after[1])
    np.testing.assert_array_equal(after[0], after[2])


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
    obs = est[0, 0] * (pilot_power + noise_var) / np.sqrt(pilot_power)
    oracle = _conditional_mean_oracle(obs, np.sqrt(pilot_power), noise_var)
    assert abs(est[0, 0] - oracle) < 1e-6
    # shrinkage factor 16/16.1 applied to the matched-filter observation
    np.testing.assert_allclose(est[0, 0],
                               (16.0 / 16.1) * obs / np.sqrt(pilot_power), atol=1e-12)


def test_estimate_error_variance(rng):
    pilot_power, noise_var = 4.0, 0.5
    n = 100_000
    gains = sample_gains(1, n, rng)
    est = estimate_channel(gains, pilot_power, noise_var, rng)
    err = (est - gains).ravel()
    mmse = noise_var / (pilot_power + noise_var)
    v = np.abs(err) ** 2
    se = v.std(ddof=1) / np.sqrt(n)
    assert abs(v.mean() - mmse) < 3 * se

