import tracemalloc

import numpy as np
import pytest

from conftest import make_square16
from gnndsim import posterior, rates
from gnndsim.channel import sample_gains, transmit
from gnndsim.config import ExperimentConfig
from gnndsim.constellation import make_qpsk, sample_symbols
from gnndsim.fronts import qpsk_estimates
from gnndsim.harness import nn_tables, run_gmi_sweep
from gnndsim.posterior import JointEnumeration, SplitEnumeration
from gnndsim.rates import (
    LN2,
    RateEstimate,
    combine_rates,
    evaluate_user_rates,
    gmi_from_tables,
)
from oracles import (
    cl_gmi_cosh_form,
    gnnd_gmi_from_means,
    mi_samples_lse,
    reference_gmi_from_tables,
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


def _cl_fits(monkeypatch, run):
    """Inputs and results of every CL GMI fit that ``run()`` makes."""
    fits = []
    real = rates.cl_gmi_from_scalar

    def recording(*args):
        out = real(*args)
        fits.append((args, out))
        return out

    with monkeypatch.context() as m:
        m.setattr(rates, "cl_gmi_from_scalar", recording)
        run()
    return fits


def _gmi_sweep_cl(**fields):
    return lambda: run_gmi_sweep(ExperimentConfig(kind="gmi-sweep", methods=("cl",),
                                                  draws=1, **fields))


def _single_call_cl(gains, noise_var, power, n, seed):
    return lambda: evaluate_user_rates(gains, noise_var, make_qpsk(power), None, ("cl",),
                                       "no-sic", n, np.random.default_rng(seed))


def test_cl_cosh_form_agrees_with_table_form(monkeypatch):
    cases = [  # (run, number of CL fits, index of a saturated fit)
        # two users without cancellation at moderate noise
        (_single_call_cl(sample_gains(2, 2, np.random.default_rng(12)), 0.3, 0.5, 20_000, 13),
         2, None),
        # the four fits of tests/golden/gmi_sweep_sic_small.csv
        (_gmi_sweep_cl(seed=7, users=2, antennas=2, receiver="sic", snr_db=(0.0, 10.0),
                       samples=2000), 4, None),
        # draw 0 of a saturated run: no sample of user 2 at 10 dB is in error
        (_gmi_sweep_cl(seed=129, users=4, antennas=4, receiver="no-sic",
                       snr_db=(-5.0, 0.0, 5.0, 10.0, 15.0, 20.0), samples=4096), 24, 13),
        # a rate of nearly zero
        (_single_call_cl([[1.0]], 1e7, 1.0, 20_000, 0), 1, None),
    ]
    for run, n_fits, saturated in cases:
        fits = _cl_fits(monkeypatch, run)
        assert len(fits) == n_fits
        for (ys, tx, gain, c), (table_est, theta) in fits:
            cosh_est, _ = cl_gmi_cosh_form(ys, c.points[tx], gain, c.power)
            assert abs(table_est.value - cosh_est.value) <= 1e-11
            assert abs(table_est.std_error - cosh_est.std_error) <= 1e-8
            assert theta < 0
            # every sample is at most -log p(tx): no rate above log2 |A|, even by rounding
            assert table_est.value <= np.log2(c.size)
        if saturated is not None:
            assert fits[saturated][1][0].value > 2.0 - 1e-9


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
    # 4^6 combinations cap an evaluation at 4,096 columns: the CL-only call
    # must sample in the same chunks
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
    """(tables, tx, probabilities, event) of the fit cases: the event that
    the reference fit must show, or None."""
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
        (cl, tx, q.probabilities, None),
        (noise, noise_tx, np.full(4, 0.25), "halved"),
        (near, tx16, skewed / skewed.sum(), None),
        (np.ones((200, 4)), np.zeros(200, dtype=np.int64), np.full(4, 0.25), "flat"),
    ]


@pytest.mark.parametrize("case", range(4), ids=["ml", "step-halving", "16-point", "flat"])
def test_gmi_from_tables_matches_reference_fit(case):
    # the fit in reused arrays runs every tilt and moment as the fresh-array
    # fit did, so every iterate, and so the rate and theta, is the same
    tables, tx, probabilities, event = _gmi_cases()[case]
    events = []
    want = reference_gmi_from_tables(tables, tx, probabilities, events)
    assert gmi_from_tables(tables, tx, probabilities) == want
    if event:
        assert event in events


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
    # 4,096-column slices peaks at about 7.2 MiB of traced allocations, where
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
