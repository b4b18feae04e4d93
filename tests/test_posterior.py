import numpy as np
import pytest

from gnndsim.channel import sample_gains, transmit
from gnndsim.constellation import make_qpsk, sample_symbols
from gnndsim.posterior import EnumerationCapError, JointEnumeration, SplitEnumeration

# each test checks the runners' engine and the complex128 reference on the
# same draws; only the reference's batches keep log_evidence
ENGINES = (SplitEnumeration, JointEnumeration)


def _brute_posterior(y, gains, noise_var, consts, user, prefix=()):
    """Independent reference: loop over all joint combinations in Python."""
    import itertools

    gains = np.asarray(gains)
    prefix = np.asarray(prefix, dtype=complex)
    y = np.asarray(y, dtype=complex)
    if prefix.size:
        y = y - gains[:, :prefix.size] @ prefix
    active = list(range(prefix.size, gains.shape[1]))
    weights = {}
    for combo in itertools.product(*[range(consts[u].size) for u in active]):
        x = np.array([consts[u].points[i] for u, i in zip(active, combo)])
        p = np.prod([consts[u].probabilities[i] for u, i in zip(active, combo)])
        lik = np.exp(-np.sum(np.abs(y - gains[:, active] @ x) ** 2) / noise_var)
        weights[combo] = p * lik
    total = sum(weights.values())
    k = active.index(user)
    mean = sum(w * consts[user].points[c[k]] for c, w in weights.items()) / total
    second = sum(w * abs(consts[user].points[c[k]]) ** 2 for c, w in weights.items()) / total
    pmf = np.zeros(consts[user].size)
    for c, w in weights.items():
        pmf[c[k]] += w
    return mean, second, pmf / total


def _single(engine, y, gains, noise_var, consts, prefix=()):
    """Posterior batch of one observation; the known prefix users 0..p-1 are
    removed from y and the rest are enumerated from ``first_user`` p."""
    gains = np.asarray(gains, dtype=complex)
    prefix = np.asarray(prefix, dtype=complex)
    y = np.asarray(y, dtype=complex) - gains[:, :prefix.size] @ prefix
    return engine(gains, noise_var, consts, prefix.size).evaluate(y[:, None])


def test_single_user_tanh_mean():
    q = make_qpsk(2.0)
    for engine in ENGINES:
        b = _single(engine, [0.3 + 0.1j], [[1.0]], 1.0, q)
        assert b.mean(0)[0] == pytest.approx(np.tanh(0.6) + 1j * np.tanh(0.2), abs=1e-12)


def test_qpsk_second_moment_is_power(rng):
    q = make_qpsk(0.7)
    gains = sample_gains(2, 3, rng)
    y = transmit(gains, 0.4, sample_symbols(q, 2, rng)[:, None], rng)[:, 0]
    for engine in ENGINES:
        assert (_single(engine, y, gains, 0.4, q).second_moment(1)[0]
                == pytest.approx(0.7, rel=1e-9))


def test_uninformative_limit(rng):
    q = make_qpsk(1.0)
    gains = sample_gains(2, 2, rng)
    for engine in ENGINES:
        b = _single(engine, [0.2 + 0.1j, -0.3j], gains, 1e9, q)
        assert abs(b.mean(0)[0]) < 1e-6
        assert b.second_moment(0)[0] == pytest.approx(1.0, rel=1e-9)
        np.testing.assert_allclose(b.pmf(0)[:, 0], 0.25, atol=1e-6)


def test_near_noiseless_indicator():
    q = make_qpsk(2.0)
    for engine in ENGINES:
        pmf = _single(engine, [q.points[2]], [[1.0]], 1e-4, q).pmf(0)[:, 0]
        assert pmf[2] == pytest.approx(1.0, abs=1e-12)


def test_pmf_normalization_and_consistency(rng):
    q = make_qpsk(1.0)
    gains = sample_gains(3, 2, rng)
    y = transmit(gains, 0.5, sample_symbols(q, 3, rng)[:, None], rng)[:, 0]
    for engine in ENGINES:
        b = _single(engine, y, gains, 0.5, q)
        for user in range(3):
            pmf = b.pmf(user)[:, 0]
            assert pmf.sum() == pytest.approx(1.0, abs=1e-12)
            assert pmf @ q.points == pytest.approx(b.mean(user)[0], abs=1e-12)
            assert pmf @ np.abs(q.points) ** 2 == pytest.approx(b.second_moment(user)[0],
                                                                abs=1e-12)


def test_matches_brute_force_reference(rng):
    q = make_qpsk(1.0)
    consts = [q, q, q]
    gains = sample_gains(3, 2, rng)
    x = sample_symbols(q, 3, rng)
    y = transmit(gains, 0.3, x[:, None], rng)[:, 0]
    for user, prefix in [(0, ()), (1, x[:1]), (2, x[:2])]:
        mean, second, pmf = _brute_posterior(y, gains, 0.3, consts, user, prefix)
        for engine in ENGINES:
            b = _single(engine, y, gains, 0.3, consts, prefix)
            assert b.mean(user)[0] == pytest.approx(mean, abs=1e-10)
            assert b.second_moment(user)[0] == pytest.approx(second, abs=1e-10)
            np.testing.assert_allclose(b.pmf(user)[:, 0], pmf, atol=1e-10)


def test_prefix_equals_reduced_problem(rng):
    q = make_qpsk(1.0)
    gains = sample_gains(3, 4, rng)
    x = sample_symbols(q, 3, rng)
    y = transmit(gains, 0.2, x[:, None], rng)[:, 0]
    y_red = (y - gains[:, :2] @ x[:2])[:, None]
    for engine in ENGINES:
        with_prefix = engine(gains, 0.2, q, 2).evaluate(y_red)
        reduced = engine(gains[:, 2:], 0.2, q, 0).evaluate(y_red)
        assert with_prefix.mean(2)[0] == reduced.mean(0)[0]
        assert with_prefix.second_moment(2)[0] == reduced.second_moment(0)[0]


def test_enumeration_cap():
    q = make_qpsk(1.0)
    gains = np.ones((1, 11), dtype=complex)
    for engine in ENGINES:
        with pytest.raises(EnumerationCapError, match="approximator"):
            engine(gains, 1.0, q, 0)


def test_no_overflow_at_tiny_noise(rng):
    q = make_qpsk(1.0)
    gains = sample_gains(2, 2, rng)
    x = sample_symbols(q, 2, rng)
    for engine in ENGINES:
        b = _single(engine, gains @ x, gains, 1e-6, q)  # exact, zero noise draw
        mean, second = b.mean(0)[0], b.second_moment(0)[0]
        assert np.isfinite(mean) and np.isfinite(second)
        if engine is JointEnumeration:
            assert np.isfinite(b.log_evidence[0])
        assert np.all(np.isfinite(b.pmf(0)))
        assert abs(mean) <= np.max(np.abs(q.points)) + 1e-12


def test_mean_within_alphabet_hull(rng):
    q = make_qpsk(2.0)
    gains = sample_gains(2, 2, rng)
    for _ in range(20):
        y = transmit(gains, 0.5, sample_symbols(q, 2, rng)[:, None], rng)[:, 0]
        for engine in ENGINES:
            b = _single(engine, y, gains, 0.5, q)
            mean = b.mean(0)[0]
            assert abs(mean) <= np.max(np.abs(q.points)) + 1e-12
            assert b.second_moment(0)[0] >= abs(mean) ** 2 - 1e-12


def test_batch_matches_scalar_path(rng):
    # a batch scores each observation as if it were evaluated alone
    q = make_qpsk(1.0)
    gains = sample_gains(2, 3, rng)
    n = 16
    x = np.stack([sample_symbols(q, n, rng) for _ in range(2)])
    y = transmit(gains, 0.4, x, rng)
    for engine in ENGINES:
        batch = engine(gains, 0.4, q, 0).evaluate(y)
        means = batch.mean(0)
        for t in range(n):
            single = _single(engine, y[:, t], gains, 0.4, q)
            assert means[t] == pytest.approx(single.mean(0)[0], abs=1e-12)
            if engine is JointEnumeration:
                assert batch.log_evidence[t] == pytest.approx(single.log_evidence[0], abs=1e-9)


def test_single_observation_is_rejected(rng):
    # every entry point takes a batch (L, n); a 1-D y is not read as one column
    q = make_qpsk(1.0)
    gains = sample_gains(2, 3, rng)
    y = np.ones(3, dtype=complex)
    enum = JointEnumeration(gains, 0.4, q, 0)
    for call in (enum.log_weights, enum.evaluate, SplitEnumeration(gains, 0.4, q, 0).evaluate,
                 lambda y: enum.user_log_likelihood(y, [0])):
        with pytest.raises(ValueError, match=r"\(L, n\)"):
            call(y)
        call(y[:, None])
