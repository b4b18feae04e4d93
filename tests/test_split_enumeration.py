"""The two-group split engine against the complex128 full enumeration."""

import numpy as np
import pytest

from conftest import make_square16
from gnndsim import posterior
from gnndsim.channel import crandn, sample_gains, transmit
from gnndsim.constellation import Constellation, make_qpsk
from gnndsim.posterior import JointEnumeration, SplitEnumeration

TOL = 1e-12  # absolute, on probabilities, moments and log marginals (nats)


def _skewed_qpsk(power: float) -> Constellation:
    """QPSK with a non-uniform prior; every point has energy ``power``."""
    q = make_qpsk(power)
    return Constellation(q.points, np.array([0.4, 0.3, 0.2, 0.1]), power, q.labeling)


ALPHABETS = {"qpsk": make_qpsk, "square16": make_square16, "skewed": _skewed_qpsk}
CASES = [("qpsk", k) for k in (1, 2, 3, 4, 8)] + [
    (name, k) for name in ("square16", "skewed") for k in (1, 2, 3, 4)]
SNR_DB = (-5.0, 0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 40.0)


def _assert_same_posteriors(batch, ref, users, tx):
    """Every read of ``batch`` agrees with the full enumeration's ``ref``."""
    np.testing.assert_allclose(batch.marginals(), ref.marginals(), rtol=0, atol=TOL)
    np.testing.assert_allclose(batch.means_all(), ref.means_all(), rtol=0, atol=TOL)
    for u in users:
        np.testing.assert_allclose(batch.mean(u), ref.mean(u), rtol=0, atol=TOL)
        np.testing.assert_allclose(batch.second_moment(u), ref.second_moment(u),
                                   rtol=0, atol=TOL)
        np.testing.assert_allclose(batch.pmf(u), ref.pmf(u), rtol=0, atol=TOL)
        at = tx[u:u + 1]  # one symbol per column, (1, n)
        np.testing.assert_allclose(batch.log_pmf_at(u, at), ref.log_pmf_at(u, at),
                                   rtol=0, atol=TOL)


def _record_fallbacks(monkeypatch) -> list:
    """Record the width of every exact evaluation of fallback columns."""
    widths, exact = [], SplitEnumeration._exact
    monkeypatch.setattr(SplitEnumeration, "_exact",
                        lambda self, u_a, u_b: widths.append(u_a.shape[1]) or exact(self, u_a, u_b))
    return widths


@pytest.mark.parametrize("snr_db", SNR_DB)
@pytest.mark.parametrize("alphabet, n_users", CASES)
def test_split_matches_full_enumeration(monkeypatch, alphabet, n_users, snr_db):
    # every first_user, with the known prefix cancelled as the SIC rates do
    widths = _record_fallbacks(monkeypatch)
    c = ALPHABETS[alphabet](1.0 / n_users)
    n_ant, n = max(4, n_users), 16 if n_users == 8 else 128
    gains = sample_gains(n_users, n_ant, np.random.default_rng(51 + n_users))
    noise_var = 10 ** (-snr_db / 10)
    rng = np.random.default_rng(52)
    idx = np.stack([rng.choice(c.size, size=n, p=c.probabilities) for _ in range(n_users)])
    x = c.points[idx]
    y = transmit(gains, noise_var, x, rng)
    fallbacks = []
    for first in range(n_users):
        y_u = y - gains[:, :first] @ x[:first]
        batch = SplitEnumeration(gains, noise_var, c, first).evaluate(y_u)
        fallbacks.append(sum(widths))
        widths.clear()
        ref = JointEnumeration(gains, noise_var, c, first).evaluate(y_u)
        _assert_same_posteriors(batch, ref, range(first, n_users), idx)
    if snr_db <= 10.0:
        assert fallbacks == [0] * n_users
    if snr_db >= 40.0 and n_users > 1:
        # the guard sends columns of every split with two non-empty groups
        assert all(f > 0 for f in fallbacks[:-1])
    assert fallbacks[-1] == 0  # one active user: nothing to factor, Z >= 1


@pytest.mark.parametrize("noise_var", [1e-3, 1e-4])
def test_split_on_the_mi_fallback_geometry(noise_var):
    # the geometry of test_mi_samples_fallback_matches_lse_oracle: y on a
    # neighbour of the sent point, 2180 nats likelier, so P(tx | y) is about
    # e**-2180 and only the log-domain fallback of log_pmf_at reads it
    q = make_qpsk(1090 * noise_var)
    dist2 = np.abs(q.points[:, None] - q.points[None, :]) ** 2
    tx, on = np.nonzero(dist2 < 3 * q.power)  # each point and its two neighbours
    y = q.points[on][None, :]
    wrong = tx != on
    alone = SplitEnumeration([[1.0]], noise_var, q, 0).evaluate(y)
    assert np.all(alone.pmf(0)[tx, np.arange(tx.size)][wrong] < posterior.MI_FALLBACK_MASS)
    _assert_same_posteriors(alone, JointEnumeration([[1.0]], noise_var, q, 0).evaluate(y),
                            range(1), tx[None, :])
    np.testing.assert_allclose(alone.log_pmf_at(0, tx[None])[0][wrong], -2180.0,
                               rtol=1e-13)
    # a second, weak user makes both groups non-empty
    gains = [[1.0, 1e-3]]
    idx = np.stack([tx, np.zeros_like(tx)])
    _assert_same_posteriors(SplitEnumeration(gains, noise_var, q, 0).evaluate(y),
                            JointEnumeration(gains, noise_var, q, 0).evaluate(y), range(2), idx)


def test_log_pmf_of_every_symbol():
    # K = 3 at 30 dB: log P of the symbols not sent reaches thousands of
    # nats, and where Z is small the split weights resolve only masses far
    # above MI_FALLBACK_MASS, so log_pmf_at recomputes below MI_FALLBACK_MASS / Z
    gains = sample_gains(3, 4, np.random.default_rng(9))
    q = make_qpsk(1 / 3)
    rng = np.random.default_rng(1009)
    y = transmit(gains, 1e-3, q.points[rng.integers(0, 4, size=(3, 256))], rng)
    batch = SplitEnumeration(gains, 1e-3, q, 0).evaluate(y)
    ref = JointEnumeration(gains, 1e-3, q, 0).evaluate(y)
    for u in range(3):
        for a in range(4):
            at_a = np.full((1, 256), a)
            np.testing.assert_allclose(batch.log_pmf_at(u, at_a), ref.log_pmf_at(u, at_a),
                                       rtol=TOL, atol=TOL)


def test_fallback_stays_within_the_byte_budget(monkeypatch):
    # K = 3 at 40 dB: most columns fall back; each slice of budget_columns
    # observations takes its fallback columns in one exact evaluation
    gains = sample_gains(3, 4, np.random.default_rng(53))
    q = make_qpsk(1 / 3)
    rng = np.random.default_rng(54)
    y = transmit(gains, 1e-4, q.points[rng.integers(0, 4, size=(3, 200))], rng)
    whole = SplitEnumeration(gains, 1e-4, q, 0).evaluate(y)
    widths = _record_fallbacks(monkeypatch)
    monkeypatch.setattr(posterior, "ENUM_SLICE_BYTES", 24 * 64 * 16)
    split = SplitEnumeration(gains, 1e-4, q, 0)
    assert posterior.budget_columns(split.n_combos) == 24
    means = split.evaluate_sliced(y, lambda b: b.means_all())
    assert sum(widths) > 100 and max(widths) <= 24
    np.testing.assert_allclose(means, whole.means_all(), rtol=0, atol=TOL)


def test_slices_are_cache_sized_multiples_of_8(monkeypatch):
    rng = np.random.default_rng(55)
    # 16 + 16 group weights at K = 4: 4,096 columns fill WEIGHT_SLICE_BYTES
    four = SplitEnumeration(sample_gains(4, 4, rng), 1.0, make_qpsk(0.25), 0)
    assert four.slices(16384) == [slice(i, i + 4096) for i in range(0, 16384, 4096)]
    assert four.slices(8200) == [slice(0, 4096), slice(4096, 8192), slice(8192, 8200)]
    assert four.slices(8195) == [slice(0, 4096), slice(4096, 8195)]  # a ragged tail joins
    assert four.slices(300) == [slice(0, 300)]
    # 256 + 256 at K = 8: the cache width equals budget_columns, as before
    eight = SplitEnumeration(sample_gains(8, 8, rng), 1.0, make_qpsk(1 / 8), 0)
    assert posterior.budget_columns(eight.n_combos) == 256
    assert eight.slices(600) == [slice(0, 256), slice(256, 512), slice(512, 600)]
    # the byte budget caps every slice: a ragged tail joins only within it
    assert eight.slices(601) == [slice(0, 256), slice(256, 512), slice(512, 601)]
    monkeypatch.setattr(posterior, "ENUM_SLICE_BYTES", 24 * 256 * 16)
    assert four.slices(50) == [slice(0, 24), slice(24, 48), slice(48, 50)]


@pytest.mark.parametrize("snr_db", [20.0, 25.0])
def test_no_subnormal_factor_kernel_product_or_weight(monkeypatch, snr_db):
    gains = sample_gains(4, 4, np.random.default_rng(41))
    q = make_qpsk(0.25)
    noise_var = 10 ** (-snr_db / 10)
    rng = np.random.default_rng(42)
    idx = rng.integers(0, 4, size=(4, 512))
    y = transmit(gains, noise_var, q.points[idx], rng)
    split = SplitEnumeration(gains, noise_var, q, 0)
    floored = split.evaluate(y)
    logs, (e_a, e_b) = split._factors(y)
    kernel = split._kernel
    tiny, huge = np.finfo(np.float64).tiny, np.finfo(np.float64).max
    # the stored factors and kernel, every term of the two kernel products,
    # the products, the factors times them, and the weights; and no product
    # of a weight with a point
    terms = (kernel.min() * e.min() for e in (e_a, e_b))
    outputs = (kernel @ e_b, kernel.T @ e_a, e_a * (kernel @ e_b), e_b * (kernel.T @ e_a))
    for stored in (e_a, e_b, kernel, *terms, *outputs, floored._w):
        assert tiny <= np.min(stored) and np.max(stored) < huge
    assert floored._w.min() * np.abs(q.points.real).min() >= tiny
    # without the floors, factors or kernel entries, or their products, are subnormal
    raw_a, raw_b = (np.exp(u) for u in logs)
    raw_kernel = np.exp(split._coupling)
    raw_terms = (raw_kernel[:, :, None] * raw_b[None], raw_kernel.T[:, :, None] * raw_a[None])
    assert any(np.any((a > 0) & (a < tiny)) for a in (raw_a, raw_b, raw_kernel, *raw_terms))

    monkeypatch.setattr(posterior, "EXP_FLOOR", -np.inf)
    unfloored = JointEnumeration(gains, noise_var, q, 0).evaluate(y)
    _assert_same_posteriors(floored, unfloored, range(4), idx)


STACK_SEEDS = (0, 2, 3)  # gains seeds; at 25 dB first users 1 and 2 fall back in some only


def _reads(batch, users, tx):
    """Every read of a batch: marginals, means and each user's moments and
    log marginals, at every candidate and at one symbol per column."""
    every = np.arange(4)[:, None]
    return [batch.marginals(), batch.means_all()] + [
        read for u in users for read in (batch.mean(u), batch.second_moment(u),
                                         batch.log_pmf_at(u, every),
                                         batch.log_pmf_at(u, tx[u:u + 1]))]


@pytest.mark.parametrize("snr_db", [5.0, 25.0])
def test_stack_reads_what_each_channel_reads_alone(monkeypatch, snr_db):
    widths = _record_fallbacks(monkeypatch)
    q = make_qpsk(0.25)
    noise_var = 10 ** (-snr_db / 10)
    gains = np.stack([sample_gains(4, 4, np.random.default_rng(s)) for s in STACK_SEEDS])
    rng = np.random.default_rng(56)
    idx = rng.integers(0, 4, size=(len(STACK_SEEDS), 4, 64))
    x = q.points[idx]
    y = gains @ x + np.sqrt(noise_var) * crandn(x.shape, rng)
    mixed = []
    for first in range(4):
        y_u = y - gains[..., :first] @ x[:, :first]
        users = range(first, 4)
        stacked = _reads(SplitEnumeration(gains, noise_var, q, first).evaluate(y_u),
                         users, idx[0])
        fell_back = []
        for b, (g, y_b) in enumerate(zip(gains, y_u)):
            widths.clear()
            alone = _reads(SplitEnumeration(g, noise_var, q, first).evaluate(y_b), users, idx[0])
            fell_back.append(sum(widths) > 0)
            for got, want in zip(stacked, alone):
                np.testing.assert_array_equal(got[b], want)
        # a stack of one reads what the single channel reads
        one = _reads(SplitEnumeration(gains[:1], noise_var, q, first).evaluate(y_u[:1]),
                     users, idx[0])
        alone = _reads(SplitEnumeration(gains[0], noise_var, q, first).evaluate(y_u[0]),
                       users, idx[0])
        for got, want in zip(one, alone):
            np.testing.assert_array_equal(got[0], want)
        mixed.append(any(fell_back) and not all(fell_back))
    assert any(mixed) == (snr_db == 25.0)
