import numpy as np
import pytest

from gnndsim.channel import ChannelInstance, sample_gains, transmit
from gnndsim.constellation import make_qpsk, sample_symbols
from gnndsim.fronts import cl_front, qpsk_estimates
from gnndsim.harness import nn_tables
from gnndsim.posterior import JointEnumeration
from gnndsim.rates import (
    RateEstimate,
    cl_gmi_from_scalar,
    combine_rates,
    evaluate_user_rates,
    gmi_cl_qpsk,
    gmi_from_tables,
    gmi_gnnd_qpsk,
    gnnd_gmi_from_means,
    kl_gap,
    mutual_information,
    sum_rate,
)


def _single_user_channel(snr_db, power=1.0, h=1.0 + 0j):
    noise_var = power / 10 ** (snr_db / 10)
    return ChannelInstance(np.array([[h]]), noise_var, [power])


def _bpsk_mi_bits(amp, real_noise_var):
    """1-D mutual information of a +-amp input in N(0, real_noise_var)."""
    nodes, wts = np.polynomial.hermite.hermgauss(81)
    total = 0.0
    for x in (amp, -amp):
        y = x + np.sqrt(2 * real_noise_var) * nodes
        lp = np.exp(-((y - amp) ** 2) / (2 * real_noise_var))
        lm = np.exp(-((y + amp) ** 2) / (2 * real_noise_var))
        own = lp if x > 0 else lm
        total += 0.5 * np.sum(wts / np.sqrt(np.pi) * np.log2(own / (0.5 * lp + 0.5 * lm)))
    return total


def test_single_user_estimators_agree():
    ch = _single_user_channel(10.0)
    q = make_qpsk(1.0)
    vals = {}
    for name, fn in (("gnnd", gmi_gnnd_qpsk), ("cl", gmi_cl_qpsk)):
        vals[name] = fn(ch, q, 0, 40_000, np.random.default_rng(1))
    vals["mi"] = mutual_information(ch, q, 0, "no-sic", 40_000, np.random.default_rng(1))
    for a in vals:
        for b in vals:
            tol = 2 * np.hypot(vals[a].std_error, vals[b].std_error) + 1e-3
            assert abs(vals[a].value - vals[b].value) < tol


def test_mutual_information_gauss_hermite_oracle():
    ch = _single_user_channel(10.0)
    q = make_qpsk(1.0)
    oracle = 2 * _bpsk_mi_bits(np.sqrt(0.5), ch.noise_var / 2)
    est = mutual_information(ch, q, 0, "no-sic", 200_000, np.random.default_rng(2))
    assert abs(est.value - oracle) < 0.01
    assert 1.9 < oracle < 2.0  # about 1.99 bits at 10 dB


def test_rates_vanish_at_huge_noise():
    ch = ChannelInstance(np.array([[1.0 + 0j]]), 1e7, [1.0])
    q = make_qpsk(1.0)
    for est in (gmi_gnnd_qpsk(ch, q, 0, 20_000, np.random.default_rng(0)),
                gmi_cl_qpsk(ch, q, 0, 20_000, np.random.default_rng(0)),
                mutual_information(ch, q, 0, "no-sic", 20_000, np.random.default_rng(0))):
        assert abs(est.value) < 0.01


def test_gnnd_gmi_saturates_at_two_bits():
    q = make_qpsk(2.0)
    means = sample_symbols(q, 1000, np.random.default_rng(0))  # noiseless posterior means
    est = gnnd_gmi_from_means(means, 2.0)
    assert est.value == pytest.approx(2.0, abs=1e-6)
    zero = gnnd_gmi_from_means(np.zeros(10, dtype=complex), 2.0)
    assert zero.value == 0.0


def _sampled_tables(ch, consts, user, n, rng, kind):
    x_idx = np.stack([rng.choice(4, size=n, p=consts.probabilities)
                      for _ in range(ch.n_users)])
    x = consts.points[x_idx]
    y = transmit(ch, x, rng)
    if kind == "cl":
        front = cl_front(ch.gains, ch.noise_var, user, ch.powers)
        ys = front.apply(y)
        return nn_tables(ys, consts.points, front.scalar_gain), x_idx[user], ys, x[user], front
    batch = JointEnumeration(ch.gains, ch.noise_var, consts).evaluate(y)
    if kind == "ml":
        tables = -batch.user_log_likelihood(user).T
    else:
        tables = nn_tables(qpsk_estimates(batch.mean(user), consts.power), consts.points)
    return tables, x_idx[user]


def test_gmi_from_tables_matched_metric_achieves_mi():
    q = make_qpsk(1.0)
    gains = sample_gains(2, 2, np.random.default_rng(3))
    ch = ChannelInstance(gains, 0.5, [0.5, 0.5])
    consts = make_qpsk(0.5)
    n = 4000
    tables, tx = _sampled_tables(ch, consts, 0, n, np.random.default_rng(4), "ml")
    est, theta = gmi_from_tables(tables, tx, consts.probabilities)
    mi = mutual_information(ch, consts, 0, "no-sic", 40_000, np.random.default_rng(5))
    assert abs(est.value - mi.value) < 2 * np.hypot(est.std_error, mi.std_error) + 5e-3
    assert theta < 0


def test_gmi_from_tables_matches_closed_form_on_gnnd_metric():
    q = make_qpsk(0.5)
    gains = sample_gains(2, 2, np.random.default_rng(6))
    ch = ChannelInstance(gains, 0.25, [0.5, 0.5])
    n = 20_000
    tables, tx = _sampled_tables(ch, q, 0, n, np.random.default_rng(7), "gnnd")
    est, _ = gmi_from_tables(tables, tx, q.probabilities)
    closed = gmi_gnnd_qpsk(ch, q, 0, 20_000, np.random.default_rng(8))
    assert abs(est.value - closed.value) < 2 * np.hypot(est.std_error, closed.std_error) + 5e-3


def test_any_metric_bounded_by_mi():
    q = make_qpsk(1.0)
    gains = sample_gains(2, 2, np.random.default_rng(9))
    ch = ChannelInstance(gains, 0.4, [1.0, 1.0])
    n = 8000
    rng = np.random.default_rng(10)
    tables, tx = _sampled_tables(ch, q, 0, n, rng, "ml")
    tables = tables + rng.normal(0, 0.3, size=tables.shape)  # corrupt the metric
    est, _ = gmi_from_tables(tables, tx, q.probabilities)
    mi = mutual_information(ch, q, 0, "no-sic", 40_000, np.random.default_rng(11))
    assert est.value <= mi.value + 2 * np.hypot(est.std_error, mi.std_error) + 5e-3


def test_cl_cosh_form_agrees_with_table_form():
    consts = make_qpsk(0.5)
    gains = sample_gains(2, 2, np.random.default_rng(12))
    ch = ChannelInstance(gains, 0.3, [0.5, 0.5])
    n = 20_000
    tables, tx, ys, xs, front = _sampled_tables(ch, consts, 0, n,
                                                np.random.default_rng(13), "cl")
    table_est, _ = gmi_from_tables(tables, tx, consts.probabilities)
    cosh_est, _ = cl_gmi_from_scalar(ys, xs, front.scalar_gain, consts.power)
    assert cosh_est.value == pytest.approx(table_est.value, abs=1e-6)


def test_kl_gap_nonnegative_and_zero_single_user():
    ch = _single_user_channel(5.0)
    q = make_qpsk(1.0)
    est = kl_gap(ch, q, 0, 20_000, np.random.default_rng(14))
    assert est.value >= -2 * est.std_error
    assert est.value < 1e-6  # matched metric: tilted pmf equals the posterior


def test_kl_gap_positive_multiuser():
    gains = sample_gains(2, 1, np.random.default_rng(15))
    ch = ChannelInstance(gains, 0.2, [0.5, 0.5])
    q = make_qpsk(0.5)
    est = kl_gap(ch, q, 0, 20_000, np.random.default_rng(16))
    assert est.value >= -2 * est.std_error


def test_corollary_identity_small():
    gains = sample_gains(2, 2, np.random.default_rng(17))
    ch = ChannelInstance(gains, 0.1, [0.5, 0.5])
    q = make_qpsk(0.5)
    res = evaluate_user_rates(ch, q, [0], ("gnnd", "mi"), "no-sic", 60_000,
                              np.random.default_rng(18), want_kl=True)
    mi, gn, kl = res["mi"][0], res["gnnd"][0], res["kl"][0]
    comb = np.sqrt(mi.std_error**2 + gn.std_error**2 + kl.std_error**2)
    assert abs((mi.value - gn.value) - kl.value) <= 3 * comb


def test_sum_rate_sic_matches_joint_mi():
    gains = sample_gains(2, 2, np.random.default_rng(19))
    ch = ChannelInstance(gains, 0.3, [0.5, 0.5])
    q = make_qpsk(0.5)
    per_user, total = sum_rate(ch, q, "sic", "mi", 30_000, np.random.default_rng(20))
    joint = mutual_information(ch, q, None, "sic", 30_000, np.random.default_rng(20))
    assert total.value == pytest.approx(joint.value, abs=1e-12)
    assert len(per_user) == 2


def test_sic_at_least_no_sic():
    gains = sample_gains(3, 3, np.random.default_rng(21))
    ch = ChannelInstance(gains, 0.2, np.full(3, 1 / 3))
    q = make_qpsk(1 / 3)
    for method in ("gnnd", "cl", "mi"):
        _, no_sic = sum_rate(ch, q, "no-sic", method, 20_000, np.random.default_rng(22))
        _, sic = sum_rate(ch, q, "sic", method, 20_000, np.random.default_rng(22))
        slack = 2 * np.hypot(no_sic.std_error, sic.std_error)
        assert sic.value >= no_sic.value - slack


def test_ordering_chain():
    gains = sample_gains(3, 2, np.random.default_rng(23))
    ch = ChannelInstance(gains, 0.15, np.full(3, 1 / 3))
    q = make_qpsk(1 / 3)
    res = evaluate_user_rates(ch, q, None, ("gnnd", "cl", "mi"), "no-sic",
                              30_000, np.random.default_rng(24))
    for u in range(3):
        cl, gn, mi = res["cl"][u], res["gnnd"][u], res["mi"][u]
        assert cl.value <= gn.value + 2 * np.hypot(cl.std_error, gn.std_error)
        assert gn.value <= mi.value + 2 * np.hypot(gn.std_error, mi.std_error)


def test_monotone_in_snr():
    gains = sample_gains(2, 2, np.random.default_rng(25))
    q = make_qpsk(0.5)
    prev = {m: -1.0 for m in ("gnnd", "cl", "mi")}
    for snr in (0.0, 5.0, 10.0):
        ch = ChannelInstance(gains, 1.0 / 10 ** (snr / 10), [0.5, 0.5])
        res = evaluate_user_rates(ch, q, [0], ("gnnd", "cl", "mi"), "no-sic",
                                  20_000, np.random.default_rng(26))
        for m in prev:
            est = res[m][0]
            assert est.value >= prev[m] - 2 * est.std_error
            prev[m] = est.value


def test_deterministic_given_seed():
    gains = sample_gains(2, 2, np.random.default_rng(27))
    ch = ChannelInstance(gains, 0.2, [0.5, 0.5])
    q = make_qpsk(0.5)
    a = evaluate_user_rates(ch, q, None, ("gnnd", "cl", "mi"), "no-sic", 10_000,
                            np.random.default_rng(42), want_kl=True)
    b = evaluate_user_rates(ch, q, None, ("gnnd", "cl", "mi"), "no-sic", 10_000,
                            np.random.default_rng(42), want_kl=True)
    for m in a:
        for u in a[m]:
            assert a[m][u] == b[m][u]


def test_combine_rates():
    total = combine_rates([RateEstimate(1.0, 0.3, 100), RateEstimate(2.0, 0.4, 100)])
    assert total.value == 3.0
    assert total.std_error == pytest.approx(0.5)


def test_estimator_requires_rng():
    ch = _single_user_channel(0.0)
    with pytest.raises(ValueError):
        evaluate_user_rates(ch, make_qpsk(1.0), None, ("mi",), "no-sic", 100, None)
