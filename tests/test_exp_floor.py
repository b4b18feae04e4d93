"""The exponent floors of ``JointEnumeration.evaluate`` and of
``constellation.lse`` at extreme SNR."""

import numpy as np
import pytest

from gnndsim import constellation, posterior
from gnndsim.channel import sample_gains, transmit
from gnndsim.constellation import lse, make_qpsk
from gnndsim.posterior import JointEnumeration

TOL = 1e-12  # the existing posterior tolerance


@pytest.mark.parametrize("dtype", [np.complex128])  # the precision of every enumeration
@pytest.mark.parametrize("snr_db", [20.0, 25.0])
def test_no_subnormal_weight_at_extreme_snr(monkeypatch, dtype, snr_db):
    gains = sample_gains(4, 4, np.random.default_rng(41))
    q = make_qpsk(0.25)
    noise_var = 10 ** (-snr_db / 10)
    rng = np.random.default_rng(42)
    y = transmit(gains, noise_var, q.points[rng.integers(0, 4, size=(4, 512))], rng)
    enum = JointEnumeration(gains, noise_var, q, 0)
    floored = enum.evaluate(y)
    ull_floored = enum.user_log_likelihood(y, range(4))
    monkeypatch.setattr(posterior, "EXP_FLOOR", -np.inf)
    unfloored = enum.evaluate(y)
    ull_unfloored = enum.user_log_likelihood(y, range(4))

    tiny = np.finfo(dtype).tiny
    w, w_ref = floored._w, unfloored._w
    assert np.any((w_ref > 0) & (w_ref < tiny))  # the floor has work to do here
    # no weight, and no product of a weight with a point, is subnormal
    assert w.min() * np.abs(q.points.real).min() >= tiny
    for u in range(4):
        np.testing.assert_allclose(floored.mean(u), unfloored.mean(u), rtol=0, atol=TOL)
        np.testing.assert_allclose(floored.pmf(u), unfloored.pmf(u), rtol=0, atol=TOL)
        np.testing.assert_array_equal(ull_floored[u], ull_unfloored[u])


def test_lse_floor_leaves_every_sum_as_it_was(monkeypatch):
    # per column, a top term and others 705-745 nats below it, where exp
    # without the floor reaches the subnormal range; -inf entries are masked
    rng = np.random.default_rng(43)
    top = rng.normal(scale=100.0, size=64)
    z = top + np.concatenate([np.zeros((1, 64)), -rng.uniform(705.0, 745.0, size=(40, 64))])
    z[rng.random(z.shape) < 0.3] = -np.inf
    z[0] = top
    tiny = np.finfo(np.float64).tiny
    assert np.any((np.exp(z - top) > 0) & (np.exp(z - top) < tiny))
    # over one axis, and over a tuple of axes that mixes columns
    floored = lse(z, 0), lse(z.reshape(41, 8, 8), (0, 2))
    monkeypatch.setattr(constellation, "EXP_FLOOR", -np.inf)
    unfloored = lse(z, 0), lse(z.reshape(41, 8, 8), (0, 2))
    for got, want in zip(floored, unfloored):
        np.testing.assert_array_equal(got, want)
    # every other term is at least 705 nats down: the sum is its top term
    np.testing.assert_array_equal(floored[0], top)
