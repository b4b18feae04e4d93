"""The exponent floor of ``JointEnumeration.evaluate`` at extreme SNR."""

import numpy as np
import pytest

from gnndsim import posterior
from gnndsim.channel import ChannelInstance, sample_gains, transmit
from gnndsim.constellation import make_qpsk
from gnndsim.posterior import JointEnumeration

# the existing posterior tolerances, per enumeration dtype
TOL = {np.complex64: 1e-5, np.complex128: 1e-12}


@pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
@pytest.mark.parametrize("snr_db", [20.0, 25.0])
def test_no_subnormal_weight_at_extreme_snr(monkeypatch, dtype, snr_db):
    gains = sample_gains(4, 4, np.random.default_rng(41))
    q = make_qpsk(0.25)
    ch = ChannelInstance(gains, 10 ** (-snr_db / 10), np.full(4, 0.25))
    rng = np.random.default_rng(42)
    y = transmit(ch, q.points[rng.integers(0, 4, size=(4, 512))], rng)
    enum = JointEnumeration(gains, ch.noise_var, q, dtype=dtype)
    floored = enum.evaluate(y)
    ull_floored = enum.user_log_likelihood(y, range(4))
    monkeypatch.setattr(posterior, "EXP_FLOOR", {enum.rdtype: -np.inf})
    unfloored = enum.evaluate(y)
    ull_unfloored = enum.user_log_likelihood(y, range(4))

    tiny = np.finfo(enum.rdtype).tiny
    w, w_ref = floored._w, unfloored._w
    assert np.any((w_ref > 0) & (w_ref < tiny))  # the floor has work to do here
    # no weight, and no product of a weight with a point, is subnormal
    assert w.min() * np.abs(q.points.real).min() >= tiny
    for u in range(4):
        np.testing.assert_allclose(floored.mean(u), unfloored.mean(u), rtol=0, atol=TOL[dtype])
        np.testing.assert_allclose(floored.pmf(u), unfloored.pmf(u), rtol=0, atol=TOL[dtype])
        np.testing.assert_array_equal(ull_floored[u], ull_unfloored[u])
