import tracemalloc

import numpy as np
import pytest

from conftest import make_square16
from gnndsim import posterior, rates
from gnndsim.channel import sample_gains, transmit
from gnndsim.config import ExperimentConfig
from gnndsim.constellation import Constellation, make_qpsk, per_user, sample_symbols
from gnndsim.fronts import cl_front, qpsk_estimates
from gnndsim.harness import nn_tables, run_gmi_sweep
from gnndsim.posterior import EnumerationCapError, JointEnumeration, SplitEnumeration
from gnndsim.rates import (
    LN2,
    RateEstimate,
    combine_rates,
    evaluate_user_rates,
)
import oracles
from oracles import (
    cl_gmi_cosh_form,
    gmi_from_tables,
    gnnd_gmi_from_means,
    maximize_concave,
    mi_samples_lse,
)


def _single_user_channel(snr_db, power=1.0, h=1.0 + 0j):
    """Gains and noise variance of one user at ``snr_db``."""
    return np.array([[h]]), power / 10 ** (snr_db / 10)


def _user0(gains, noise_var, consts, methods, n, seed):
    """Rates of user 0 without cancellation, {method: RateEstimate}."""
    res = evaluate_user_rates(gains, noise_var, consts, [0], methods, "no-sic", n,
                              np.random.default_rng(seed))
    return {m: res[m][0] for m in methods}


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
    gains, noise_var = _single_user_channel(10.0)
    q = make_qpsk(1.0)
    vals = _user0(gains, noise_var, q, ("gnnd", "cl", "mi"), 40_000, 1)
    for a in vals:
        for b in vals:
            tol = 2 * np.hypot(vals[a].std_error, vals[b].std_error) + 1e-3
            assert abs(vals[a].value - vals[b].value) < tol


def test_mutual_information_gauss_hermite_oracle():
    gains, noise_var = _single_user_channel(10.0)
    q = make_qpsk(1.0)
    oracle = 2 * _bpsk_mi_bits(np.sqrt(0.5), noise_var / 2)
    est = _user0(gains, noise_var, q, ("mi",), 200_000, 2)["mi"]
    assert abs(est.value - oracle) < 0.01
    assert 1.9 < oracle < 2.0  # about 1.99 bits at 10 dB


def test_rates_vanish_at_huge_noise():
    q = make_qpsk(1.0)
    for est in _user0(np.array([[1.0 + 0j]]), 1e7, q, ("gnnd", "cl", "mi"), 20_000, 0).values():
        assert abs(est.value) < 0.01


def test_gnnd_gmi_saturates_at_two_bits():
    q = make_qpsk(2.0)
    means = sample_symbols(q, 1000, np.random.default_rng(0))  # noiseless posterior means
    est = gnnd_gmi_from_means(means, 2.0)
    assert est.value == pytest.approx(2.0, abs=1e-6)
    zero = gnnd_gmi_from_means(np.zeros(10, dtype=complex), 2.0)
    assert zero.value == 0.0


def _sampled_tables(gains, noise_var, consts, user, n, rng, kind):
    x_idx = np.stack([rng.choice(4, size=n, p=consts.probabilities)
                      for _ in range(gains.shape[1])])
    x = consts.points[x_idx]
    y = transmit(gains, noise_var, x, rng)
    enum = JointEnumeration(gains, noise_var, consts, 0)
    if kind == "ml":
        tables = -enum.user_log_likelihood(y, [user])[0].T
    else:
        tables = nn_tables(qpsk_estimates(enum.evaluate(y).mean(user), consts.power),
                           consts.points, 1.0)
    return tables, x_idx[user]


def test_gmi_from_tables_matched_metric_achieves_mi():
    q = make_qpsk(1.0)
    gains = sample_gains(2, 2, np.random.default_rng(3))
    noise_var = 0.5
    consts = make_qpsk(0.5)
    n = 4000
    tables, tx = _sampled_tables(gains, noise_var, consts, 0, n, np.random.default_rng(4), "ml")
    est, theta = gmi_from_tables(tables, tx, consts.probabilities)
    mi = _user0(gains, noise_var, consts, ("mi",), 40_000, 5)["mi"]
    assert abs(est.value - mi.value) < 2 * np.hypot(est.std_error, mi.std_error) + 5e-3
    assert theta < 0


def test_gmi_from_tables_matches_closed_form_on_gnnd_metric():
    q = make_qpsk(0.5)
    gains = sample_gains(2, 2, np.random.default_rng(6))
    noise_var = 0.25
    n = 20_000
    tables, tx = _sampled_tables(gains, noise_var, q, 0, n, np.random.default_rng(7), "gnnd")
    est, _ = gmi_from_tables(tables, tx, q.probabilities)
    closed = _user0(gains, noise_var, q, ("gnnd",), 20_000, 8)["gnnd"]
    assert abs(est.value - closed.value) < 2 * np.hypot(est.std_error, closed.std_error) + 5e-3


def test_any_metric_bounded_by_mi():
    q = make_qpsk(1.0)
    gains = sample_gains(2, 2, np.random.default_rng(9))
    noise_var = 0.4
    n = 8000
    rng = np.random.default_rng(10)
    tables, tx = _sampled_tables(gains, noise_var, q, 0, n, rng, "ml")
    tables = tables + rng.normal(0, 0.3, size=tables.shape)  # corrupt the metric
    est, _ = gmi_from_tables(tables, tx, q.probabilities)
    mi = _user0(gains, noise_var, q, ("mi",), 40_000, 11)["mi"]
    assert est.value <= mi.value + 2 * np.hypot(est.std_error, mi.std_error) + 5e-3


def _cl_samples(gains, noise_var, consts, user, first, n, rng):
    """n sampled CL observations of ``user`` with users 0..first-1 cancelled:
    the front's scalar outputs, the sent indices and the front."""
    gains = np.asarray(gains, dtype=np.complex128)
    consts = per_user(consts, gains.shape[1])
    idx = np.stack([rng.choice(c.size, size=n, p=c.probabilities) for c in consts])
    x = np.stack([c.points[i] for c, i in zip(consts, idx)])
    y = transmit(gains, noise_var, x, rng) - gains[:, :first] @ x[:first]
    front = cl_front(gains, noise_var, consts, user, range(first))
    return front.apply(y), idx[user], front


def _exact_cl(gains, noise_var, consts, user, first):
    gains = np.asarray(gains, dtype=np.complex128)
    front = cl_front(gains, noise_var, consts, user, range(first))
    return rates.cl_gmi_from_scalar(front, gains, noise_var, consts, user, first)


def test_cl_cosh_form_agrees_with_table_form():
    # the two sampled references of the CL rate read the same samples alike
    cases = [  # (gains, noise_var, power, user, first, samples, seed)
        # two users without cancellation at moderate noise
        (sample_gains(2, 2, np.random.default_rng(12)), 0.3, 0.5, 0, 0, 20_000, 13),
        # the second user of two with the first cancelled
        (sample_gains(2, 2, np.random.default_rng(12)), 0.3, 0.5, 1, 1, 20_000, 14),
        # saturated: no sample is in error
        ([[1.0]], 1e-3, 1.0, 0, 0, 4096, 15),
        # a rate of nearly zero
        ([[1.0]], 1e7, 1.0, 0, 0, 20_000, 0),
    ]
    for i, (gains, noise_var, power, user, first, n, seed) in enumerate(cases):
        q = make_qpsk(power)
        ys, tx, front = _cl_samples(gains, noise_var, q, user, first, n,
                                    np.random.default_rng(seed))
        table_est, theta = gmi_from_tables(nn_tables(ys, q.points, front.scalar_gain), tx,
                                           q.probabilities)
        cosh_est, _ = cl_gmi_cosh_form(ys, q.points[tx], front.scalar_gain, q.power)
        assert abs(table_est.value - cosh_est.value) <= 1e-11
        assert abs(table_est.std_error - cosh_est.std_error) <= 1e-8
        assert theta < 0
        # every sample is at most -log p(tx): no rate above log2 |A|, even by rounding
        assert table_est.value <= np.log2(q.size)
        if i == 2:
            assert table_est.value > 2.0 - 1e-9


def _reference_cases():
    """(gains, noise_var, constellation, receiver) of the exact CL rate's
    checks: one or more users, with and without SIC, -5 to 20 dB."""
    def channel(k):
        return sample_gains(k, k, np.random.default_rng(80 + k))

    def nv(snr_db):
        return 10 ** (-snr_db / 10)

    return {
        "K1-qpsk--5dB": ([[1.0]], nv(-5.0), make_qpsk(1.0), "no-sic"),
        "K1-qpsk-10dB": ([[1.0]], nv(10.0), make_qpsk(1.0), "no-sic"),
        "K1-qpsk-20dB": ([[0.6 - 0.3j]], nv(20.0), make_qpsk(1.0), "no-sic"),
        "K1-square16-0dB": ([[1.0]], nv(0.0), make_square16(1.0), "no-sic"),
        "K1-square16-10dB": ([[1.0]], nv(10.0), make_square16(1.0), "no-sic"),
        "K1-square16-20dB": ([[1.0]], nv(20.0), make_square16(1.0), "no-sic"),
        "K2-no-sic--5dB": (channel(2), nv(-5.0), make_qpsk(0.5), "no-sic"),
        "K2-sic-0dB": (channel(2), nv(0.0), make_qpsk(0.5), "sic"),
        "K3-no-sic-5dB": (channel(3), nv(5.0), make_qpsk(1 / 3), "no-sic"),
        "K3-sic-10dB": (channel(3), nv(10.0), make_qpsk(1 / 3), "sic"),
        "K4-no-sic-15dB": (channel(4), nv(15.0), make_qpsk(0.25), "no-sic"),
        "K4-sic-20dB": (channel(4), nv(20.0), make_qpsk(0.25), "sic"),
        # 4^5 interference values
        "K6-no-sic-0dB": (channel(6), nv(0.0), make_qpsk(1 / 6), "no-sic"),
    }


@pytest.mark.parametrize("case", list(_reference_cases()))
def test_exact_cl_within_3_se_of_the_sampled_fit(case):
    # 200,000 sampled CL observations per user, fitted by the cosh form for
    # QPSK and by the table form for the 16-point grid; at saturation no
    # sample is in error, the sampled fit's standard error is about 1e-16
    # and its upward bias about 1e-11 bits, so 1e-9 bits is the floor
    gains, noise_var, c, receiver = _reference_cases()[case]
    n_users = np.shape(gains)[1]
    exact = evaluate_user_rates(gains, noise_var, c, None, ("cl",), receiver, 200_000,
                                np.random.default_rng(0))["cl"]
    for u in range(n_users):
        first = u if receiver == "sic" else 0
        ys, tx, front = _cl_samples(gains, noise_var, c, u, first, 200_000,
                                    np.random.default_rng(90 + u))
        if c.size == 4:
            sampled, _ = cl_gmi_cosh_form(ys, c.points[tx], front.scalar_gain, c.power)
        else:
            sampled, _ = gmi_from_tables(nn_tables(ys, c.points, front.scalar_gain), tx,
                                         c.probabilities)
        assert exact[u] == RateEstimate(_exact_cl(gains, noise_var, c, u, first), 0.0, 200_000)
        assert abs(exact[u].value - sampled.value) <= 3 * sampled.std_error + 1e-9


@pytest.mark.parametrize("case", ["K1-qpsk-10dB", "K1-qpsk-20dB", "K1-square16-20dB",
                                  "K2-no-sic--5dB", "K3-sic-10dB", "K4-no-sic-15dB"])
def test_exact_cl_agrees_with_a_four_times_finer_grid(monkeypatch, case):
    gains, noise_var, c, receiver = _reference_cases()[case]
    n_users = np.shape(gains)[1]
    firsts = [u if receiver == "sic" else 0 for u in range(n_users)]
    want = [_exact_cl(gains, noise_var, c, u, f) for u, f in enumerate(firsts)]
    monkeypatch.setattr(rates, "CL_GRID_STEPS", 4 * rates.CL_GRID_STEPS)
    for u, f in enumerate(firsts):
        assert abs(_exact_cl(gains, noise_var, c, u, f) - want[u]) <= 1e-9


def test_exact_cl_at_extreme_snr(monkeypatch):
    # a saturated user reads log2 |A| bits and no more, on a grid refined
    # below CL_GRID_STEPS points per noise deviation since its metric's
    # strip is narrow; a user drowned in noise reads nearly 0
    q = make_qpsk(1.0)
    steps = []  # grid step per noise deviation of every mixture
    mixture = rates._mixture_weights
    monkeypatch.setattr(rates, "_mixture_weights",
                        lambda c, p, dev, step: steps.append(step / dev) or mixture(c, p, dev, step))
    assert 2.0 - 1e-12 < _exact_cl([[1.0]], 1e-4, q, 0, 0) <= 2.0
    assert max(steps) <= 0.5 / rates.CL_GRID_STEPS
    assert 4.0 - 1e-12 < _exact_cl([[1.0]], 1e-4, make_square16(1.0), 0, 0) <= 4.0
    assert 0.0 <= _exact_cl([[1.0]], 1e7, q, 0, 0) < 1e-6


def test_cl_stays_below_mi_where_the_sampled_fit_saturated():
    # draw 0 of the gmi-4x4 config at seed 129 with 4 draws x 4096 samples:
    # no sample of user 2 at 10 dB was in error, and the sampled CL fit read
    # 1.99999999999956 bits, above the 1.99974 of mi
    cfg = ExperimentConfig(kind="gmi-sweep", seed=129, users=4, antennas=4, receiver="no-sic",
                           snr_db=(-5.0, 0.0, 5.0, 10.0, 15.0, 20.0), methods=("cl", "mi"),
                           draws=1, samples=4096)
    rate = {r["method"]: r["rate_bits"] for r in run_gmi_sweep(cfg).rows
            if r["snr_db"] == 10.0 and r["user"] == 2}
    assert rate["cl"] <= rate["mi"]
    assert rate["cl"] < 2.0


def test_cl_rejects_a_non_product_alphabet():
    q = make_qpsk(1.0)
    rotated = Constellation(q.points * np.exp(0.3j), q.probabilities, 1.0)
    skewed = Constellation(q.points, [0.4, 0.1, 0.1, 0.4], 1.0)
    for c in (rotated, skewed):
        with pytest.raises(NotImplementedError):
            evaluate_user_rates([[1.0]], 0.1, c, None, ("cl",), "no-sic", 100,
                                np.random.default_rng(0))
    assert rates.product_factors(q)[0][1].tolist() == [0.5, 0.5]


def test_cl_enumerates_the_interferers_within_the_cap():
    # 11 interferers: 4^11 joint symbols; with SIC the last user has none
    gains = sample_gains(12, 12, np.random.default_rng(0))
    with pytest.raises(EnumerationCapError):
        evaluate_user_rates(gains, 0.1, make_qpsk(1 / 12), [0], ("cl",), "no-sic", 100,
                            np.random.default_rng(0))
    res = evaluate_user_rates(gains, 0.1, make_qpsk(1 / 12), [11], ("cl",), "sic", 100,
                              np.random.default_rng(0))["cl"][11]
    assert 0.0 < res.value <= 2.0


@pytest.mark.parametrize("noise_var", [0.3, 0.01])
def test_cl_gmi_on_sixteen_points(noise_var):
    res = _user0([[1.0]], noise_var, make_square16(1.0), ("cl", "mi"), 20_000, 30)
    cl, mi = res["cl"], res["mi"]
    assert 0.0 <= cl.value <= mi.value + 3 * np.hypot(cl.std_error, mi.std_error)
    assert cl.value <= 4.0 + 1e-9


def test_kl_gap_nonnegative_and_zero_single_user():
    gains, noise_var = _single_user_channel(5.0)
    q = make_qpsk(1.0)
    est = _user0(gains, noise_var, q, ("kl",), 20_000, 14)["kl"]
    assert est.value >= -2 * est.std_error
    assert est.value < 1e-6  # matched metric: tilted pmf equals the posterior


def test_kl_gap_positive_multiuser():
    gains = sample_gains(2, 1, np.random.default_rng(15))
    noise_var = 0.2
    q = make_qpsk(0.5)
    est = _user0(gains, noise_var, q, ("kl",), 20_000, 16)["kl"]
    assert est.value >= -2 * est.std_error


def test_corollary_identity_small():
    gains = sample_gains(2, 2, np.random.default_rng(17))
    noise_var = 0.1
    q = make_qpsk(0.5)
    res = _user0(gains, noise_var, q, ("gnnd", "mi", "kl"), 60_000, 18)
    mi, gn, kl = res["mi"], res["gnnd"], res["kl"]
    comb = np.sqrt(mi.std_error**2 + gn.std_error**2 + kl.std_error**2)
    assert abs((mi.value - gn.value) - kl.value) <= 3 * comb


def test_sic_mi_chain_rule_matches_joint_mi():
    # sum_k I(x_k; y | x_0..x_{k-1}) = I(x; y), the joint MI estimated
    # independently as E[log p(y|x) - log p(y)] on fresh samples
    gains = sample_gains(2, 2, np.random.default_rng(19))
    noise_var = 0.3
    q = make_qpsk(0.5)
    res = evaluate_user_rates(gains, noise_var, q, None, ("mi",), "sic", 30_000,
                              np.random.default_rng(20))
    chain = combine_rates(res["mi"].values())
    rng = np.random.default_rng(21)
    n = 30_000
    x = q.points[rng.integers(0, 4, size=(2, n))]
    y = transmit(gains, noise_var, x, rng)
    enum = JointEnumeration(gains, noise_var, q, 0)
    log_cond = enum.gauss_log_const - np.sum(np.abs(y - gains @ x) ** 2, axis=0) / noise_var
    nats = log_cond - enum.evaluate(y).log_evidence
    joint, joint_se = nats.mean() / LN2, nats.std(ddof=1) / np.sqrt(n) / LN2
    assert len(res["mi"]) == 2
    assert abs(chain.value - joint) <= 3 * np.hypot(chain.std_error, joint_se)
    assert 1.0 < joint < 4.0


def test_sic_at_least_no_sic():
    gains = sample_gains(3, 3, np.random.default_rng(21))
    noise_var = 0.2
    q = make_qpsk(1 / 3)
    no_sic_res, sic_res = (evaluate_user_rates(gains, noise_var, q, None, ("gnnd", "cl", "mi"),
                                               receiver, 20_000, np.random.default_rng(22))
                           for receiver in ("no-sic", "sic"))
    for method in ("gnnd", "cl", "mi"):
        no_sic = combine_rates(no_sic_res[method].values())
        sic = combine_rates(sic_res[method].values())
        slack = 2 * np.hypot(no_sic.std_error, sic.std_error)
        assert sic.value >= no_sic.value - slack


def test_ordering_chain():
    gains = sample_gains(3, 2, np.random.default_rng(23))
    noise_var = 0.15
    q = make_qpsk(1 / 3)
    res = evaluate_user_rates(gains, noise_var, q, None, ("gnnd", "cl", "mi"), "no-sic",
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
        noise_var = 1.0 / 10 ** (snr / 10)
        res = evaluate_user_rates(gains, noise_var, q, [0], ("gnnd", "cl", "mi"), "no-sic",
                                  20_000, np.random.default_rng(26))
        for m in prev:
            est = res[m][0]
            assert est.value >= prev[m] - 2 * est.std_error
            prev[m] = est.value


def test_deterministic_given_seed():
    gains = sample_gains(2, 2, np.random.default_rng(27))
    noise_var = 0.2
    q = make_qpsk(0.5)
    a = evaluate_user_rates(gains, noise_var, q, None, ("gnnd", "cl", "mi", "kl"), "no-sic",
                            10_000, np.random.default_rng(42))
    b = evaluate_user_rates(gains, noise_var, q, None, ("gnnd", "cl", "mi", "kl"), "no-sic",
                            10_000, np.random.default_rng(42))
    for m in a:
        for u in a[m]:
            assert a[m][u] == b[m][u]


@pytest.mark.parametrize("receiver, n_users", [
    ("no-sic", 3), ("sic", 3),
    # 4^6 combinations cap an evaluation at 4,096 columns, a chunk rule the
    # exact CL rows do not depend on
    ("no-sic", 6), ("sic", 6),
], ids=["no-sic", "sic", "no-sic-K6", "sic-K6"])
def test_cl_only_call_skips_enumeration(monkeypatch, receiver, n_users):
    gains = sample_gains(n_users, n_users, np.random.default_rng(28))
    noise_var = 0.2
    q = make_qpsk(1 / n_users)
    both = evaluate_user_rates(gains, noise_var, q, None, ("gnnd", "cl"), receiver, 5_000,
                               np.random.default_rng(43))

    def refuse(*args, **kwargs):
        raise AssertionError("a CL-only call built or evaluated the enumeration")

    for engine in (SplitEnumeration, JointEnumeration):
        monkeypatch.setattr(engine, "__init__", refuse)
        monkeypatch.setattr(engine, "evaluate", refuse)
    cl = evaluate_user_rates(gains, noise_var, q, None, ("cl",), receiver, 5_000,
                             np.random.default_rng(43))
    assert cl["cl"] == both["cl"]


@pytest.mark.parametrize("receiver", ["no-sic", "sic"])
def test_cl_only_call_leaves_the_rng_untouched(receiver):
    rng = np.random.default_rng(45)
    state = rng.bit_generator.state
    res = evaluate_user_rates(sample_gains(3, 3, np.random.default_rng(28)), 0.2, make_qpsk(1 / 3),
                              None, ("cl",), receiver, 5_000, rng)
    assert rng.bit_generator.state == state
    assert all(e.std_error == 0.0 and e.samples == 5_000 for e in res["cl"].values())


@pytest.mark.parametrize("receiver", ["no-sic", "sic"])
def test_cl_reads_user_power_from_the_constellations(monkeypatch, receiver):
    # each user's power is its constellation's, in the CL interference of
    # the other users as in the sampled symbols
    gains = sample_gains(3, 3, np.random.default_rng(28))
    powers = [1.0, 2.0, 0.1]
    fronts, build = [], rates.cl_front
    monkeypatch.setattr(rates, "cl_front", lambda *args: fronts.append(build(*args)) or fronts[-1])
    evaluate_user_rates(gains, 0.2, [make_qpsk(p) for p in powers], None, ("cl",), receiver,
                        5_000, np.random.default_rng(44))
    assert len(fronts) == 3
    for u, front in enumerate(fronts):
        others = [j for j in range(u + 1 if receiver == "sic" else 0, 3) if j != u]
        delta = 0.2 * np.eye(3) + sum(powers[j] * np.outer(gains[:, j], gains[:, j].conj())
                                      for j in others)
        np.testing.assert_allclose(front.combiner * front.scalar_gain[..., None],
                                   np.linalg.solve(delta, gains[:, u]), rtol=1e-12)


def test_combine_rates():
    total = combine_rates([RateEstimate(1.0, 0.3, 100), RateEstimate(2.0, 0.4, 100)])
    assert total.value == 3.0
    assert total.std_error == pytest.approx(0.5)


def test_estimator_requires_rng():
    gains, noise_var = _single_user_channel(0.0)
    with pytest.raises(ValueError):
        evaluate_user_rates(gains, noise_var, make_qpsk(1.0), None, ("mi",), "no-sic", 100, None)


@pytest.mark.parametrize("methods", [("cl",), ("mi",)])
@pytest.mark.parametrize("gains, noise_var", [
    (np.ones(2, dtype=complex), 0.1),          # not a matrix
    (np.ones((1, 2, 2), dtype=complex), 0.1),  # a stack of channels
    (np.ones((2, 0), dtype=complex), 0.1),     # no user
    (np.ones((2, 2), dtype=complex), -0.1),    # negative noise variance
])
def test_estimator_rejects_bad_channel(methods, gains, noise_var):
    with pytest.raises(ValueError):
        evaluate_user_rates(gains, noise_var, make_qpsk(0.5), None, methods, "no-sic", 100,
                            np.random.default_rng(0))


def _assert_mi_matches_oracle(batch, y, user, tx):
    got = rates.mi_samples(batch, user, tx)
    np.testing.assert_allclose(got, mi_samples_lse(batch, y, user, tx), rtol=0, atol=1e-12)
    return got


@pytest.mark.parametrize("receiver", ["no-sic", "sic"])
@pytest.mark.parametrize("snr_db", [-5.0, 0.0, 5.0, 10.0, 15.0, 20.0])
def test_mi_samples_match_lse_oracle(receiver, snr_db):
    # K = L = 4: the MI read from the marginals against log p(y | x_u) - log p(y)
    gains = sample_gains(4, 4, np.random.default_rng(31))
    q = make_qpsk(0.25)
    noise_var = 10 ** (-snr_db / 10)
    rng = np.random.default_rng(32)
    idx = rng.integers(0, 4, size=(4, 2048))
    x = q.points[idx]
    y = transmit(gains, noise_var, x, rng)
    for u in range(4):
        first = u if receiver == "sic" else 0
        y_u = y - gains[:, :first] @ x[:first]
        batch = JointEnumeration(gains, noise_var, q, first).evaluate(y_u)
        _assert_mi_matches_oracle(batch, y_u, u, idx[u])


@pytest.mark.parametrize("noise_var", [1e-3, 1e-4])
def test_mi_samples_fallback_matches_lse_oracle(noise_var):
    # y on a neighbour of the sent point, 2180 nats likelier: P(tx | y) is
    # about e**-2180, far below the floored weights, so only the log-domain
    # fallback reads it
    q = make_qpsk(1090 * noise_var)
    dist2 = np.abs(q.points[:, None] - q.points[None, :]) ** 2
    tx, on = np.nonzero(dist2 < 3 * q.power)  # each point and its two neighbours
    y = q.points[on][None, :]
    batch = JointEnumeration([[1.0]], noise_var, q, 0).evaluate(y)
    wrong = tx != on
    p_tx = batch.pmf(0)[tx, np.arange(tx.size)]
    assert np.all(p_tx[wrong] < posterior.MI_FALLBACK_MASS)
    assert np.all(p_tx[~wrong] > 0.5)
    got = _assert_mi_matches_oracle(batch, y, 0, tx)
    np.testing.assert_allclose(got[wrong], -2180.0 + np.log(4.0), rtol=1e-13)


@pytest.mark.parametrize("seed", [23, 129, 1])
def test_mi_rows_at_most_log2_alphabet(seed):
    # the gmi-4x4 benchmark config: at these seeds saturated users read
    # 2.0000000000000004 bits at 15 or 20 dB before P(tx | y) was clamped at 1
    cfg = ExperimentConfig(kind="gmi-sweep", seed=seed, users=4, antennas=4,
                           snr_db=(-5.0, 0.0, 5.0, 10.0, 15.0, 20.0), methods=("mi",),
                           draws=1, samples=16384)
    rows = run_gmi_sweep(cfg).rows
    assert max(r["rate_bits"] for r in rows if r["user"] != "sum") <= 2.0
    assert max(r["rate_bits"] for r in rows if r["user"] == "sum") <= 8.0


@pytest.mark.parametrize("receiver, per_chunk", [("no-sic", 1), ("sic", 3)])
def test_rate_chunk_follows_enumeration_budget(monkeypatch, receiver, per_chunk):
    # one evaluate per chunk without SIC, one per user with it
    widths = []
    evaluate = SplitEnumeration.evaluate
    monkeypatch.setattr(SplitEnumeration, "evaluate",
                        lambda self, y, **kw: widths.append(y.shape[1]) or evaluate(self, y, **kw))
    gains = sample_gains(3, 3, np.random.default_rng(33))
    noise_var = 0.2
    q = make_qpsk(1 / 3)

    def chunks(n_samples):
        widths.clear()
        evaluate_user_rates(gains, noise_var, q, None, ("gnnd", "mi"), receiver, n_samples,
                            np.random.default_rng(34))
        return widths[::per_chunk]

    # the K <= 5 QPSK streams keep their SAMPLE_CHUNK columns
    assert posterior.ENUM_SLICE_BYTES // (16 * 4**5) >= rates.SAMPLE_CHUNK
    # a budget of 40 columns of 4^3 combinations at 16 bytes each
    monkeypatch.setattr(posterior, "ENUM_SLICE_BYTES", 40 * 64 * 16 + 15)
    assert chunks(100) == [40, 40, 20]
    assert len(widths) == 3 * per_chunk
    monkeypatch.setattr(posterior, "ENUM_SLICE_BYTES", 1)  # below one column
    assert chunks(3) == [1, 1, 1]
    monkeypatch.setattr(posterior, "ENUM_SLICE_BYTES", 2**40)
    monkeypatch.setattr(rates, "SAMPLE_CHUNK", 30)
    assert chunks(100) == [30, 30, 30, 10]


def _gmi_cases():
    """(tables, tx, probabilities) of the fit cases."""
    rng = np.random.default_rng(61)
    gains = sample_gains(3, 3, rng)
    q = make_qpsk(1 / 3)
    cl, tx = _sampled_tables(gains, 0.3, q, 0, 3000, rng, "ml")
    rng = np.random.default_rng(10)  # unrelated metrics: the first Newton step overshoots
    noise = rng.standard_normal((500, 4)) ** 2
    noise_tx = rng.integers(0, 4, 500)
    rng = np.random.default_rng(62)
    c16 = make_square16(1.0)
    skewed = rng.random(16) + 0.2
    tx16 = rng.integers(0, 16, 700)
    near = np.abs(rng.standard_normal(700)[:, None] + c16.points[tx16][:, None]
                  - c16.points[None, :]) ** 2
    return [
        (cl, tx, q.probabilities),
        (noise, noise_tx, np.full(4, 0.25)),
        (near, tx16, skewed / skewed.sum()),
        (np.ones((200, 4)), np.zeros(200, dtype=np.int64), np.full(4, 0.25)),
    ]


@pytest.mark.parametrize("case", range(4), ids=["ml", "step-halving", "16-point", "flat"])
def test_gmi_from_tables_matches_reference_fit(monkeypatch, case):
    # the safeguarded Newton of rates.maximize_theta, which fits the exact CL
    # rate, reaches the golden-section maximum of each sampled objective
    tables, tx, probabilities = _gmi_cases()[case]
    calls = []
    monkeypatch.setattr(oracles, "maximize_theta", lambda moments: rates.maximize_theta(
        lambda th: calls.append(th) or moments(th)))
    est, theta = gmi_from_tables(tables, tx, probabilities)
    if case == 3:
        assert calls == [-1.0]  # zero curvature: no step
    d = (tables - tables[np.arange(len(tx)), tx][:, None]).T
    log_p = np.log(probabilities)[:, None]

    def objective(th):
        z = th * d + log_p
        top = z.max(axis=0)
        return np.mean(-top - np.log(np.exp(z - top).sum(axis=0))) / LN2

    _, golden = maximize_concave(objective, -2.0, -1e-6)
    assert theta < 0
    assert est.value >= golden - 1e-12
    assert est.value <= golden + 1e-9


@pytest.mark.parametrize("peak", [-0.3, -5.0])
def test_maximize_theta_halves_overshooting_steps(peak):
    # -sqrt(c^2 + (theta - peak)^2): far from its peak a Newton step lands
    # beyond it, where the objective is lower, so steps must be halved
    values = []

    def moments(theta):
        u, c = theta - peak, 0.01
        r = np.hypot(c, u)
        values.append(-r)
        return -r, -u / r, c * c / r**3

    theta, value = rates.maximize_theta(moments)
    assert abs(theta - peak) < 1e-9
    assert value == max(values)
    assert any(v < max(values[:i]) for i, v in enumerate(values) if i)


def _rates_at(monkeypatch, weight_bytes, receiver, snr_db):
    """Every rate of a K = L = 4 call, with WEIGHT_SLICE_BYTES set, and the
    widths of its evaluations."""
    widths = []
    evaluate = SplitEnumeration.evaluate
    monkeypatch.setattr(SplitEnumeration, "evaluate",
                        lambda self, y: widths.append(y.shape[-1]) or evaluate(self, y))
    monkeypatch.setattr(posterior, "WEIGHT_SLICE_BYTES", weight_bytes)
    gains = sample_gains(4, 4, np.random.default_rng(71))
    res = evaluate_user_rates(gains, 10 ** (-snr_db / 10), make_qpsk(0.25), None,
                              rates.RATE_METHODS, receiver, 1200, np.random.default_rng(72))
    return {m: {u: (e.value, e.std_error, e.samples) for u, e in r.items()}
            for m, r in res.items()}, widths


@pytest.mark.parametrize("receiver", ["no-sic", "sic"])
@pytest.mark.parametrize("snr_db", [5.0, 25.0])  # 25 dB takes the split fallback
def test_rates_equal_at_every_slice_width(monkeypatch, receiver, snr_db):
    whole, widths = _rates_at(monkeypatch, 2**40, receiver, snr_db)
    assert max(widths) == 1200  # one evaluation per chunk and first user
    default, widths = _rates_at(monkeypatch, posterior.WEIGHT_SLICE_BYTES, receiver, snr_db)
    assert default == whole
    narrow, widths = _rates_at(monkeypatch, 1, receiver, snr_db)
    assert set(widths) == {8}
    assert narrow == whole


def test_ragged_chunk_tail_reads_as_in_one_batch(monkeypatch):
    # the second chunk, 5,003 columns, is wider than a 4,096-column slice;
    # its last 3 columns keep their one-batch bits only in a slice as wide
    # as the chunk, so the ragged remainder joins the slice before it
    gains = sample_gains(4, 4, np.random.default_rng(5))
    enum = SplitEnumeration(gains, 1.0, make_qpsk(0.25), 0)
    assert enum.slices(5003) == [slice(0, 5003)]

    def rows(weight_bytes):
        monkeypatch.setattr(posterior, "WEIGHT_SLICE_BYTES", weight_bytes)
        res = evaluate_user_rates(gains, 10 ** 0.5, make_qpsk(0.25), None, ("kl", "mi"),
                                  "no-sic", rates.SAMPLE_CHUNK + 5003, np.random.default_rng(6))
        return {m: {u: (e.value, e.std_error) for u, e in r.items()} for m, r in res.items()}

    assert rows(posterior.WEIGHT_SLICE_BYTES) == rows(2**40)


def test_rate_engine_memory_stays_within_a_slice():
    # the gmi-4x4 benchmark's call: one 16,384-column chunk read through
    # 4,096-column slices peaks at about 5.7 MiB of traced allocations, where
    # whole-chunk posteriors peaked at about 16 MiB
    gains = sample_gains(4, 4, np.random.default_rng(7))
    args = (gains, 10 ** -0.5, make_qpsk(0.25), None, ("gnnd", "cl", "mi"), "no-sic", 16384)
    evaluate_user_rates(*args, np.random.default_rng(8))  # first-call set-up
    tracemalloc.start()
    try:
        evaluate_user_rates(*args, np.random.default_rng(8))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 9 * 2**20


def test_rate_engine_memory_does_not_grow_with_cl():
    # at 200,000 samples the call keeps the gnnd and mi integrands, 16 bytes
    # per user and sample, beside one chunk; the exact CL rows store no
    # sample, where the sampled CL fit peaked at 70 MiB
    gains = sample_gains(4, 4, np.random.default_rng(7))
    args = (gains, 10 ** -0.5, make_qpsk(0.25), None, ("gnnd", "cl", "mi"), "no-sic")
    evaluate_user_rates(*args, 1000, np.random.default_rng(8))  # first-call set-up
    tracemalloc.start()
    try:
        evaluate_user_rates(*args, 200_000, np.random.default_rng(8))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 24 * 2**20
