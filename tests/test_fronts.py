import numpy as np
import pytest

from gnndsim import fronts
from gnndsim.channel import sample_gains, transmit
from gnndsim.constellation import make_qpsk, sample_symbols
from gnndsim.fronts import (
    FrontSolverError,
    cl_front,
    nn_tables,
    qpsk_estimates,
    solve_front,
    tilted_pmf,
)
from gnndsim.posterior import JointEnumeration, SplitEnumeration

from conftest import make_square16


def front_objective(alpha, beta, gamma, mean, second, prior):
    """The moment-matching objective of one observation, written out
    independently of the solver; broadcasts over the parameters."""
    pts = prior.points
    r, q, u = pts.real, pts.imag, np.abs(pts) ** 2
    alpha, beta, gamma = (np.asarray(v, dtype=float) for v in (alpha, beta, gamma))
    t = (2.0 * alpha[..., None] * r - 2.0 * beta[..., None] * q
         - gamma[..., None] * u)
    z = np.log(prior.probabilities) + t
    top = z.max(axis=-1)
    lse = top + np.log(np.exp(z - top[..., None]).sum(axis=-1))
    return (gamma * second - 2.0 * alpha * mean.real
            + 2.0 * beta * mean.imag + lse)


def grid_search_front(mean, second, prior, span=3.0, n=81, refinements=2,
                      gamma_center=None):
    """Independent oracle: dense grid minimization of the front objective,
    refined around the incumbent. Returns (alpha, beta, gamma)."""
    if gamma_center is None:
        gamma_center = 1.0 / prior.power
    center = np.array([0.0, 0.0, gamma_center])
    half = np.array([span, span, span])
    for _ in range(refinements + 1):
        axes = [np.linspace(c - h, c + h, n) for c, h in zip(center, half)]
        a, b, g = np.meshgrid(*axes, indexing="ij")
        vals = front_objective(a, b, g, mean, second, prior)
        i = np.unravel_index(np.argmin(vals), vals.shape)
        center = np.array([a[i], b[i], g[i]])
        half = half * (2.0 / (n - 1))
    return center


def _uniform_means(rng, n, amp, width):
    """n means whose real and imaginary parts are drawn in turn from
    U(-width, width) amp."""
    u = rng.uniform(-width, width, size=(n, 2)) * amp
    return u[:, 0] + 1j * u[:, 1]


def test_qpsk_front_zero_mean():
    g = qpsk_estimates(np.array([0j]), 2.0)
    assert g[0] == 0  # alpha = Re g and beta = -Im g at f = 1


def test_qpsk_front_reproduces_observation():
    # artanh of tanh recovers the matched-filter observation y / noise_var
    mean = np.array([np.tanh(0.6) + 1j * np.tanh(0.2)])
    g = qpsk_estimates(mean, 2.0)
    assert g[0] == pytest.approx(0.3 + 0.1j, abs=1e-12)
    # the closed form is the f = 1 front that the solver returns for QPSK
    _, f = solve_front(mean, 2.0, make_qpsk(2.0))
    assert f[0] == 1.0


def test_qpsk_front_clamps_boundary():
    amp = np.sqrt(2.0 / 2.0)
    g = qpsk_estimates(np.array([amp * (1 - 1e-12) + 0j]), 2.0)
    assert np.isfinite(g[0])


def test_solve_front_matches_qpsk_closed_form(rng):
    q = make_qpsk(2.0)
    means = _uniform_means(rng, 200, np.sqrt(q.power / 2.0), 0.98)
    closed = qpsk_estimates(means, q.power)  # f = 1
    g, f = solve_front(means, q.power, q)
    np.testing.assert_allclose(f * g.real, closed.real, rtol=0, atol=1e-6)
    np.testing.assert_allclose(-f * g.imag, -closed.imag, rtol=0, atol=1e-6)
    assert np.all(f == 1.0)
    pmf = tilted_pmf(g, f, q)
    assert np.all(np.abs(pmf @ q.points - means) <= 1e-8 * np.sqrt(q.power))


def test_solve_front_converges_below_the_objective_rounding():
    # in four of these rows the last Newton step gains about 1e-16 on an
    # objective built from terms of order one, which the Armijo test cannot
    # resolve; the rows must still reach the moment tolerance
    q = make_qpsk(1.0)
    rng = np.random.default_rng(0)
    means = rng.uniform(-0.7, 0.7, 20000) + 1j * rng.uniform(-0.7, 0.7, 20000)
    g, f = solve_front(means, q.power, q)
    closed = qpsk_estimates(means, q.power)
    np.testing.assert_allclose(f * g.real, closed.real, rtol=0, atol=1e-6)
    np.testing.assert_allclose(-f * g.imag, -closed.imag, rtol=0, atol=1e-6)
    pmf = tilted_pmf(g, f, q)
    assert np.all(np.abs(pmf @ q.points - means) <= 1e-8 * np.sqrt(q.power))


def test_solve_front_symmetric_fixed_point():
    q = make_qpsk(2.0)
    g, f = solve_front(np.zeros(1, dtype=complex), 2.0, q)
    assert f[0] * g[0].real == pytest.approx(0.0, abs=1e-12)
    assert -f[0] * g[0].imag == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(tilted_pmf(g, f, q)[0], q.probabilities, atol=1e-12)


def _moments(y, gains, noise_var, c):
    """Exact (means, second moments) of user 0 for observations y, (L, n)."""
    b = JointEnumeration(gains, noise_var, c, 0).evaluate(y)
    return b.mean(0), b.second_moment(0)


def _observations(c, gains, noise_var, n, rng):
    """n single-user observations (L, n), one symbol and noise draw at a time."""
    return np.stack([transmit(gains, noise_var, sample_symbols(c, 1, rng)[:, None], rng)[:, 0]
                     for _ in range(n)], axis=1)


def _gnnd_table(g, f, c):
    return nn_tables(np.array([g]), c.points, f)[0]


def _cl_table(front, y, c):
    return nn_tables(front.apply(np.asarray(y, dtype=complex)[:, None]), c.points,
                     front.scalar_gain)[0]


def _ml_table(y, gains, noise_var, c, user):
    """-log p(y | x_user = a_i), interferers marginalized exactly."""
    enum = JointEnumeration(gains, noise_var, c, 0)
    return -enum.user_log_likelihood(np.asarray(y)[:, None], [user])[0][:, 0]


def test_solve_front_16point_moment_matching(rng):
    c16 = make_square16(1.0)
    gains = np.array([[1.0 + 0j]])
    means, seconds = _moments(_observations(c16, gains, 1.0, 5, rng), gains, 1.0, c16)
    g, f = solve_front(means, seconds, c16)
    pmf = tilted_pmf(g, f, c16)
    assert np.all(np.abs(pmf @ c16.points - means) <= 1e-8)
    assert np.all(np.abs(pmf @ np.abs(c16.points) ** 2 - seconds) <= 1e-8)
    assert np.all(f ** 2 > 0)


@pytest.mark.parametrize("noise_var", [
    0.03,
    pytest.param(0.01, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="gamma is not positive, and the constant metric g = f = 0 keeps the prior's mean")),
])
def test_solve_front_tilt_reproduces_corner_posterior_mean(noise_var):
    # one user observed at a corner point of the 16-point square, whose
    # posterior sits on that corner; at 0.01 the solver gives f = 0
    c16 = make_square16(0.25)
    batch = SplitEnumeration(np.array([[1.0 + 0j]]), noise_var, c16, 0).evaluate(
        c16.points[:1, None])
    mean = batch.mean(0)
    g, f = solve_front(mean, batch.second_moment(0), c16)
    assert np.abs(tilted_pmf(g, f, c16) @ c16.points - mean)[0] <= 1e-6


def test_solve_front_16point_matches_grid_oracle(rng):
    c16 = make_square16(1.0)
    gains = np.array([[1.0 + 0j]])
    means, seconds = _moments(_observations(c16, gains, 1.0, 3, rng), gains, 1.0, c16)
    g, f = solve_front(means, seconds, c16)
    for i in range(3):
        oracle = grid_search_front(means[i], seconds[i], c16)
        assert f[i] * g[i].real == pytest.approx(oracle[0], abs=1e-4)
        assert -f[i] * g[i].imag == pytest.approx(oracle[1], abs=1e-4)
        assert f[i] ** 2 == pytest.approx(oracle[2], abs=1e-4)


def test_solve_front_objective_monotone(rng, monkeypatch):
    # the iterate after k Newton steps, from the start point (0, 0, 1/P)
    c16 = make_square16(1.0)
    gains = np.array([[1.0 + 0j]])
    means, seconds = _moments(_observations(c16, gains, 0.5, 1, rng), gains, 0.5, c16)
    values = [front_objective(0.0, 0.0, 1.0 / c16.power, means[0], seconds[0], c16)]
    for budget in range(1, 50):
        monkeypatch.setattr(fronts, "NEWTON_ITERS", budget)
        try:
            g, f = solve_front(means, seconds, c16)
            done = True
        except FrontSolverError as err:
            g, f = err.front
            done = False
        values.append(front_objective(f[0] * g[0].real, -f[0] * g[0].imag, f[0] ** 2,
                                      means[0], seconds[0], c16))
        if done:
            break
    assert done and budget > 2
    diffs = np.diff(np.asarray(values))
    assert np.all(diffs <= 1e-12)


def test_batched_solve_rows_are_independent(rng):
    # each row takes its own Armijo step and freezes on its own, so a row
    # solved in a batch gets the front it gets alone. A user's posteriors
    # under 16-point interference at low noise include rows whose full
    # Newton step is rejected while the other rows take theirs.
    c16 = make_square16(1.0)
    gains = sample_gains(2, 1, rng)
    means, seconds = [np.zeros(1, dtype=complex)], [np.array([c16.power])]
    for noise_var in (0.01, 0.05, 0.3):
        y = transmit(gains, noise_var, np.stack([sample_symbols(c16, 64, rng) for _ in range(2)]),
                     rng)
        batch = JointEnumeration(gains, noise_var, c16, 0).evaluate(y)
        means.append(batch.mean(0))
        seconds.append(batch.second_moment(0))
    means, seconds = np.concatenate(means), np.concatenate(seconds)
    g, f = solve_front(means, seconds, c16)
    for i in range(means.size):
        g1, f1 = solve_front(means[i:i + 1], seconds[i:i + 1], c16)
        assert abs(g1[0] - g[i]) <= 1e-12 and abs(f1[0] - f[i]) <= 1e-12
    # at the symmetric point (0, P) the tilt is the prior: a constant metric
    assert g[0] == 0 and f[0] == 0
    np.testing.assert_allclose(tilted_pmf(g, f, c16)[0], c16.probabilities, atol=1e-15)


def test_solve_front_reports_residuals_on_budget_exhaustion(monkeypatch):
    q = make_qpsk(2.0)
    monkeypatch.setattr(fronts, "NEWTON_ITERS", 1)
    with pytest.raises(FrontSolverError) as err:
        solve_front(np.array([0.9 + 0.9j]), 2.0, q)
    assert err.value.residuals is not None


def test_solve_front_rejects_inconsistent_moments():
    q = make_qpsk(2.0)
    with pytest.raises(ValueError):
        solve_front(np.array([1.4 + 1.4j]), 0.5, q)


def test_tilted_pmf_prior_at_zero_front():
    q = make_qpsk(2.0)
    np.testing.assert_allclose(tilted_pmf(np.zeros(1, dtype=complex), 1.0, q)[0],
                               q.probabilities, atol=1e-15)


def test_gnnd_metric_table_symmetry_and_anchor():
    q = make_qpsk(2.0)
    np.testing.assert_allclose(_gnnd_table(0j, 1.0, q), 2.0)
    vals = _gnnd_table(q.points[0], 1.0, q)  # g = a1, f = 1
    assert vals[0] == pytest.approx(0.0, abs=1e-12)
    assert np.all(vals[1:] > 0)


def test_gnnd_metric_argmin_is_sign_decision(rng):
    q = make_qpsk(2.0)
    means = _uniform_means(rng, 50, np.sqrt(q.power / 2.0), 0.99)
    for mean, g in zip(means, qpsk_estimates(means, q.power)):
        table = _gnnd_table(g, 1.0, q)
        best = q.points[np.argmin(table)]
        assert np.sign(best.real) == np.sign(mean.real) or mean.real == 0
        assert np.sign(best.imag) == np.sign(mean.imag) or mean.imag == 0


def test_cl_front_single_user_is_matched_filter(rng):
    q = make_qpsk(2.0)
    front = cl_front(np.array([[1.0 + 0j]]), 1.0, q, 0, ())
    # no interferer: the residual matrix is the unit noise, Delta^-1 h = h
    np.testing.assert_allclose(front.combiner * front.scalar_gain[..., None], [1.0],
                               atol=1e-12)
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
    y = transmit(gains, 0.8, x, rng)
    k = 1
    prods = y * np.conj(x[k])[None, :]
    est = prods.mean(axis=1)
    se = prods.std(axis=1).max() / np.sqrt(n)
    assert np.max(np.abs(est - powers[k] * gains[:, k])) < 3 * se
    # the front combines with Delta^-1 h_k, the other users' powers in Delta
    front = cl_front(gains, 0.8, consts, k, ())
    delta = 0.8 * np.eye(l_ant) + sum(powers[j] * np.outer(gains[:, j], gains[:, j].conj())
                                      for j in range(k_users) if j != k)
    np.testing.assert_allclose(front.combiner * front.scalar_gain[..., None],
                               np.linalg.solve(delta, gains[:, k]), rtol=1e-12)


def test_cl_full_cancellation_equals_single_user(rng):
    gains = sample_gains(3, 2, rng)
    q = make_qpsk(1.0)
    full = cl_front(gains, 0.5, q, 1, [0, 2])
    solo = cl_front(gains[:, 1:2], 0.5, q, 0, ())
    np.testing.assert_allclose(full.scalar_gain, solo.scalar_gain, rtol=1e-12)
    np.testing.assert_allclose(full.combiner, solo.combiner, atol=1e-12)


def test_cl_metric_matches_direct_formula(rng):
    # second implementation straight from the weighted nearest-neighbor form
    q = make_qpsk(1.0)
    gains = sample_gains(2, 2, rng)
    powers = np.array([1.0, 1.0])
    noise_var = 0.6
    front = cl_front(gains, noise_var, q, 0, ())
    y = transmit(gains, noise_var, sample_symbols(q, 2, rng)[:, None], rng)[:, 0]
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
    y = transmit(gains, 0.6, sample_symbols(q, 2, rng)[:, None], rng)[:, 0]
    t1 = _cl_table(cl_front(gains, 0.6, q, 0, ()), y, q)
    q5 = make_qpsk(5.0)
    t2 = _cl_table(cl_front(gains, 3.0, q5, 0, ()), y, q5)
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
    y = transmit(gains, 0.5, sample_symbols(q, 3, rng)[:, None], rng)[:, 0]
    table = _ml_table(y, gains, 0.5, q, 1)
    lik = np.exp(-(table - table.min()))
    pmf = JointEnumeration(gains, 0.5, q, 0).evaluate(y[:, None]).pmf(1)[:, 0]
    np.testing.assert_allclose(lik / lik.sum(), pmf, atol=1e-12)


def test_ml_metric_flat_at_huge_noise(rng):
    q = make_qpsk(1.0)
    gains = sample_gains(2, 2, rng)
    table = _ml_table(np.array([0.1 + 0j, -0.2j]), gains, 1e9, q, 0)
    assert np.ptp(table) < 1e-6
