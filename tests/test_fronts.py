import numpy as np
import pytest

from gnndsim.channel import ChannelInstance, sample_gains, transmit
from gnndsim.constellation import make_qpsk, sample_symbols
from gnndsim.fronts import (
    FrontSolverError,
    GnndFront,
    cl_front,
    qpsk_front,
    solve_front,
    tilted_pmf,
)
from gnndsim.harness import nn_tables
from gnndsim.posterior import JointEnumeration

from conftest import make_square16


def grid_search_front(mean, second, prior, span=3.0, n=81, refinements=2,
                      gamma_center=None):
    """Independent oracle: dense grid minimization of the front objective,
    refined around the incumbent. Returns (alpha, beta, gamma)."""
    pts = prior.points
    logp = np.log(prior.probabilities)
    r, q, u = pts.real, pts.imag, np.abs(pts) ** 2

    def objective(alpha, beta, gamma):
        t = (2.0 * alpha[..., None] * r - 2.0 * beta[..., None] * q
             - gamma[..., None] * u)
        z = logp + t
        top = z.max(axis=-1)
        lse = top + np.log(np.exp(z - top[..., None]).sum(axis=-1))
        return (gamma * second - 2.0 * alpha * mean.real
                + 2.0 * beta * mean.imag + lse)

    if gamma_center is None:
        gamma_center = 1.0 / prior.power
    center = np.array([0.0, 0.0, gamma_center])
    half = np.array([span, span, span])
    for _ in range(refinements + 1):
        axes = [np.linspace(c - h, c + h, n) for c, h in zip(center, half)]
        a, b, g = np.meshgrid(*axes, indexing="ij")
        vals = objective(a, b, g)
        i = np.unravel_index(np.argmin(vals), vals.shape)
        center = np.array([a[i], b[i], g[i]])
        half = half * (2.0 / (n - 1))
    return center


def test_qpsk_front_zero_mean():
    f = qpsk_front(0j, 2.0)
    assert f.alpha == 0 and f.beta == 0 and f.g == 0


def test_qpsk_front_reproduces_observation():
    # artanh of tanh recovers the matched-filter observation y / noise_var
    mean = np.tanh(0.6) + 1j * np.tanh(0.2)
    f = qpsk_front(mean, 2.0)
    assert f.g == pytest.approx(0.3 + 0.1j, abs=1e-12)
    assert f.f == 1.0


def test_qpsk_front_clamps_boundary():
    amp = np.sqrt(2.0 / 2.0)
    f = qpsk_front(amp * (1 - 1e-12) + 0j, 2.0)
    assert np.isfinite(f.g)


def test_solve_front_matches_qpsk_closed_form(rng):
    q = make_qpsk(2.0)
    amp = np.sqrt(q.power / 2.0)
    for _ in range(200):
        mean = complex(rng.uniform(-0.98, 0.98) * amp,
                       rng.uniform(-0.98, 0.98) * amp)
        closed = qpsk_front(mean, q.power)
        solved = solve_front(mean, q.power, q)
        assert solved.alpha == pytest.approx(closed.alpha, abs=1e-6)
        assert solved.beta == pytest.approx(closed.beta, abs=1e-6)
        assert solved.gamma == 1.0
        pmf = tilted_pmf(solved, q)
        assert abs(pmf @ q.points - mean) <= 1e-8 * np.sqrt(q.power)


def test_solve_front_symmetric_fixed_point():
    q = make_qpsk(2.0)
    f = solve_front(0j, 2.0, q)
    assert f.alpha == pytest.approx(0.0, abs=1e-12)
    assert f.beta == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(tilted_pmf(f, q), q.probabilities, atol=1e-12)


def _moments(y, gains, noise_var, c):
    """Exact (mean, second moment) of user 0 for one observation."""
    b = JointEnumeration(gains, noise_var, c).evaluate(np.asarray(y)[:, None])
    return complex(b.mean(0)[0]), float(b.second_moment(0)[0])


def _gnnd_table(front, c):
    return nn_tables(np.array([front.g]), c.points, front.f)[0]


def _cl_table(front, y, c):
    return nn_tables(front.apply(np.asarray(y, dtype=complex)[:, None]), c.points,
                     front.scalar_gain)[0]


def _ml_table(y, gains, noise_var, c, user):
    """-log p(y | x_user = a_i), interferers marginalized exactly."""
    b = JointEnumeration(gains, noise_var, c).evaluate(np.asarray(y)[:, None])
    return -b.user_log_likelihood(user)[:, 0]


def test_solve_front_16point_moment_matching(rng):
    c16 = make_square16(1.0)
    gains = np.array([[1.0 + 0j]])
    for _ in range(5):
        x = sample_symbols(c16, 1, rng)
        y = transmit(ChannelInstance(gains, 1.0, [1.0]), x, rng)
        mean, second = _moments(y, gains, 1.0, c16)
        front = solve_front(mean, second, c16)
        pmf = tilted_pmf(front, c16)
        assert abs(pmf @ c16.points - mean) <= 1e-8
        assert abs(pmf @ np.abs(c16.points) ** 2 - second) <= 1e-8
        assert front.gamma > 0


def test_solve_front_16point_matches_grid_oracle(rng):
    c16 = make_square16(1.0)
    gains = np.array([[1.0 + 0j]])
    for _ in range(3):
        x = sample_symbols(c16, 1, rng)
        y = transmit(ChannelInstance(gains, 1.0, [1.0]), x, rng)
        mean, second = _moments(y, gains, 1.0, c16)
        front = solve_front(mean, second, c16)
        oracle = grid_search_front(mean, second, c16)
        assert front.alpha == pytest.approx(oracle[0], abs=1e-4)
        assert front.beta == pytest.approx(oracle[1], abs=1e-4)
        assert front.gamma == pytest.approx(oracle[2], abs=1e-4)


def test_solve_front_objective_monotone(rng):
    c16 = make_square16(1.0)
    gains = np.array([[1.0 + 0j]])
    y = transmit(ChannelInstance(gains, 0.5, [1.0]), sample_symbols(c16, 1, rng), rng)
    trace = []
    solve_front(*_moments(y, gains, 0.5, c16), c16, trace=trace)
    diffs = np.diff(np.asarray(trace))
    assert np.all(diffs <= 1e-12)


def test_solve_front_reports_residuals_on_budget_exhaustion():
    q = make_qpsk(2.0)
    with pytest.raises(FrontSolverError) as err:
        solve_front(0.9 + 0.9j, 2.0, q, max_iter=1)
    assert err.value.residuals is not None


def test_solve_front_rejects_inconsistent_moments():
    q = make_qpsk(2.0)
    with pytest.raises(ValueError):
        solve_front(1.4 + 1.4j, 0.5, q)


def test_tilted_pmf_prior_at_zero_front():
    q = make_qpsk(2.0)
    np.testing.assert_allclose(tilted_pmf(GnndFront(0.0, 0.0, 1.0), q),
                               q.probabilities, atol=1e-15)


def test_gnnd_metric_table_symmetry_and_anchor():
    q = make_qpsk(2.0)
    np.testing.assert_allclose(_gnnd_table(GnndFront(0.0, 0.0, 1.0), q), 2.0)
    a1 = q.points[0]
    at_corner = GnndFront(a1.real, -a1.imag, 1.0)  # g = a1, f = 1
    vals = _gnnd_table(at_corner, q)
    assert vals[0] == pytest.approx(0.0, abs=1e-12)
    assert np.all(vals[1:] > 0)


def test_gnnd_metric_argmin_is_sign_decision(rng):
    q = make_qpsk(2.0)
    amp = np.sqrt(q.power / 2.0)
    for _ in range(50):
        mean = complex(rng.uniform(-0.99, 0.99) * amp,
                       rng.uniform(-0.99, 0.99) * amp)
        table = _gnnd_table(qpsk_front(mean, q.power), q)
        best = q.points[np.argmin(table)]
        assert np.sign(best.real) == np.sign(mean.real) or mean.real == 0
        assert np.sign(best.imag) == np.sign(mean.imag) or mean.imag == 0


def test_cl_front_single_user_is_matched_filter(rng):
    q = make_qpsk(2.0)
    front = cl_front(np.array([[1.0 + 0j]]), 1.0, 0, [2.0])
    np.testing.assert_allclose(front.residual_cov, np.eye(1), atol=1e-12)
    y = 0.4 - 0.7j
    table = _cl_table(front, [y], q)
    euclid = np.abs(y - q.points) ** 2
    # equal up to a symbol-independent affine map with positive slope
    d = table - euclid
    np.testing.assert_allclose(d, d[0], atol=1e-10)
    assert np.argmin(table) == np.argmin(euclid)


def test_cl_effective_gain_monte_carlo(rng):
    # E[conj(x_k) y] = P_k h_k for independent zero-mean users
    k_users, l_ant = 3, 2
    gains = sample_gains(k_users, l_ant, rng)
    powers = np.array([0.5, 1.0, 2.0])
    consts = [make_qpsk(p) for p in powers]
    n = 1_000_000
    x = np.stack([sample_symbols(c, n, rng) for c in consts])
    ch = ChannelInstance(gains, 0.8, powers)
    y = transmit(ch, x, rng)
    k = 1
    prods = y * np.conj(x[k])[None, :]
    est = prods.mean(axis=1)
    se = prods.std(axis=1).max() / np.sqrt(n)
    assert np.max(np.abs(est - powers[k] * gains[:, k])) < 3 * se
    front = cl_front(gains, 0.8, k, powers)
    np.testing.assert_allclose(front.effective_gain, gains[:, k])


def test_cl_full_cancellation_equals_single_user(rng):
    gains = sample_gains(3, 2, rng)
    powers = np.array([1.0, 1.0, 1.0])
    full = cl_front(gains, 0.5, 1, powers, cancelled=[0, 2])
    solo = cl_front(gains[:, 1:2], 0.5, 0, powers[1:2])
    np.testing.assert_allclose(full.residual_cov, solo.residual_cov, atol=1e-12)
    np.testing.assert_allclose(full.combiner, solo.combiner, atol=1e-12)


def test_cl_metric_matches_direct_formula(rng):
    # second implementation straight from the weighted nearest-neighbor form
    q = make_qpsk(1.0)
    gains = sample_gains(2, 2, rng)
    powers = np.array([1.0, 1.0])
    noise_var = 0.6
    front = cl_front(gains, noise_var, 0, powers)
    y = transmit(ChannelInstance(gains, noise_var, powers),
                 sample_symbols(q, 2, rng), rng)
    table = _cl_table(front, y, q)
    qvec = powers[0] * gains[:, 0]
    delta = (powers[1] * np.outer(gains[:, 1], gains[:, 1].conj())
             + noise_var * np.eye(2))
    rho = (qvec.conj() @ np.linalg.solve(delta, qvec)).real
    direct = np.array([
        np.abs(qvec.conj() @ np.linalg.solve(delta, y - qvec * a / powers[0])) ** 2 / rho
        for a in q.points])
    np.testing.assert_allclose(table, direct, atol=1e-10)


def test_cl_argmin_invariant_to_common_scaling(rng):
    q = make_qpsk(1.0)
    gains = sample_gains(2, 2, rng)
    powers = np.array([1.0, 1.0])
    y = transmit(ChannelInstance(gains, 0.6, powers), sample_symbols(q, 2, rng), rng)
    t1 = _cl_table(cl_front(gains, 0.6, 0, powers), y, q)
    t2 = _cl_table(cl_front(gains, 3.0, 0, 5.0 * powers), y, make_qpsk(5.0))
    assert np.argmin(t1) == np.argmin(t2)


def test_ml_metric_single_user(rng):
    q = make_qpsk(2.0)
    h = 0.8 - 0.3j
    y = np.array([0.5 + 0.2j])
    noise_var = 0.7
    table = _ml_table(y, [[h]], noise_var, q, 0)
    direct = np.abs(y[0] - h * q.points) ** 2 / noise_var
    d = table - direct
    np.testing.assert_allclose(d, d[0], atol=1e-10)


def test_ml_metric_consistent_with_posterior(rng):
    q = make_qpsk(1.0)
    gains = sample_gains(3, 2, rng)
    y = transmit(ChannelInstance(gains, 0.5, np.full(3, 1.0)),
                 sample_symbols(q, 3, rng), rng)
    table = _ml_table(y, gains, 0.5, q, 1)
    lik = np.exp(-(table - table.min()))
    pmf = JointEnumeration(gains, 0.5, q).evaluate(y[:, None]).pmf(1)[:, 0]
    np.testing.assert_allclose(lik / lik.sum(), pmf, atol=1e-12)


def test_ml_metric_flat_at_huge_noise(rng):
    q = make_qpsk(1.0)
    gains = sample_gains(2, 2, rng)
    table = _ml_table(np.array([0.1 + 0j, -0.2j]), gains, 1e9, q, 0)
    assert np.ptp(table) < 1e-6
