"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line with the measured quantities. The
expensive link studies (coded BER at full load) run once in module-scoped
fixtures shared by their criteria.
"""

import itertools

import numpy as np
import pytest

from gnndsim.channel import ChannelInstance, sample_gains, transmit
from gnndsim.codec import (
    bp_decode_batch,
    conv_encode,
    exhaustive_decode,
    make_conv_code_57,
    viterbi,
)
from gnndsim.codec.ldpc import ParityGraph
from gnndsim.config import ExperimentConfig
from gnndsim.constellation import make_qpsk, modulate, sample_symbols
from gnndsim.fronts import cl_front, qpsk_estimates, qpsk_front, solve_front, tilted_pmf
from gnndsim.harness import (
    average_sum_rows,
    nn_tables,
    run_gmi_sweep,
    run_ldpc_ber,
    run_viterbi_ber,
    snr_at_ber,
)
from gnndsim.mmse_net import TrainConfig, default_sizes, make_dataset, predict, train
from gnndsim.posterior import JointEnumeration
from gnndsim.rates import (
    combine_rates,
    evaluate_user_rates,
    gnnd_gmi_from_means,
)

from conftest import make_square16
from test_fronts import grid_search_front

SEED = 314159


def _report(criterion, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


# -- 1. single-user consistency ---------------------------------------------


def test_criterion_1_single_user_consistency():
    q = make_qpsk(1.0)
    worst = 0.0
    lines = []
    for i, snr in enumerate((0.0, 5.0, 10.0)):
        gains = sample_gains(1, 1, np.random.default_rng((SEED, 10, i)))
        ch = ChannelInstance(gains, 1.0 / 10 ** (snr / 10), [1.0])
        res = evaluate_user_rates(ch, q, [0], ("gnnd", "cl", "mi"), "no-sic",
                                  200_000, np.random.default_rng((SEED, 11, i)))
        vals = {m: res[m][0].value for m in ("gnnd", "cl", "mi")}
        for a, b in itertools.combinations(vals, 2):
            worst = max(worst, abs(vals[a] - vals[b]))
        lines.append(f"snr {snr:g}: " + " ".join(f"{m}={v:.4f}" for m, v in vals.items()))
    _report("criterion 1 (single-user consistency)", worst <= 0.02,
            f"max pairwise gap {worst:.4f} bits <= 0.02; " + "; ".join(lines))


# -- 2. near-MI optimal front at full load ----------------------------------


def test_criterion_2_near_mi_full_load():
    cfg = ExperimentConfig(kind="gmi-sweep", seed=SEED, users=4, antennas=4,
                           snr_db=(10.0,), receiver="no-sic",
                           methods=("gnnd", "cl", "mi"), draws=20, samples=100_000)
    res = run_gmi_sweep(cfg)
    mi, mi_se = average_sum_rows(res, "mi", 10.0)
    gn, gn_se = average_sum_rows(res, "gnnd", 10.0)
    cl, cl_se = average_sum_rows(res, "cl", 10.0)
    gap_mi = mi - gn
    gap_cl = gn - cl
    ok = (gap_mi <= 0.1) and (gap_cl >= 0.1)
    _report("criterion 2 (near-MI at (4,4), 10 dB)", ok,
            f"sum MI {mi:.3f}, sum GNND {gn:.3f}, sum CL {cl:.3f}; "
            f"MI-GNND {gap_mi:.4f} <= 0.1; GNND-CL {gap_cl:.4f} >= 0.1")


# -- 3. rate-gap identity ----------------------------------------------------


def test_criterion_3_gap_identity():
    q = make_qpsk(0.5)
    worst = 0.0
    for inst in range(20):
        gains = sample_gains(2, 2, np.random.default_rng((SEED, 20, inst)))
        for snr in (0.0, 10.0):
            ch = ChannelInstance(gains, 1.0 / 10 ** (snr / 10), [0.5, 0.5])
            res = evaluate_user_rates(ch, q, [0], ("gnnd", "mi"), "no-sic",
                                      200_000,
                                      np.random.default_rng((SEED, 21, inst)),
                                      want_kl=True)
            mi, gn, kl = res["mi"][0], res["gnnd"][0], res["kl"][0]
            comb = np.sqrt(mi.std_error**2 + gn.std_error**2 + kl.std_error**2)
            ratio = abs((mi.value - gn.value) - kl.value) / (3 * comb)
            worst = max(worst, ratio)
    _report("criterion 3 (MI-GMI gap equals divergence)", worst <= 1.0,
            f"worst |(MI-GMI)-KL| over 40 points is {worst:.2f} of the "
            "3-standard-error budget")


# -- 4. front solver correctness ---------------------------------------------


def test_criterion_4_solver_correctness():
    q = make_qpsk(2.0)
    amp = np.sqrt(q.power / 2.0)
    rng = np.random.default_rng((SEED, 30))
    worst_param, worst_res = 0.0, 0.0
    for _ in range(1000):
        mean = complex(rng.uniform(-0.98, 0.98) * amp,
                       rng.uniform(-0.98, 0.98) * amp)
        closed = qpsk_front(mean, q.power)
        solved = solve_front(mean, q.power, q)
        worst_param = max(worst_param, abs(solved.alpha - closed.alpha),
                          abs(solved.beta - closed.beta))
        pmf = tilted_pmf(solved, q)
        worst_res = max(worst_res, abs(pmf @ q.points - mean) / np.sqrt(q.power))
    ok_qpsk = worst_param <= 1e-6 and worst_res <= 1e-8

    c16 = make_square16(1.0)
    gains = np.array([[1.0 + 0j]])
    rng16 = np.random.default_rng((SEED, 31))
    worst16_res, worst16_grid = 0.0, 0.0
    for i in range(10):
        x = sample_symbols(c16, 1, rng16)
        y = transmit(ChannelInstance(gains, 1.0, [1.0]), x, rng16)
        enum = JointEnumeration(gains, 1.0, c16)
        batch = enum.evaluate(y[:, None] if y.ndim == 1 else y)
        mean = complex(batch.mean(0)[0])
        second = float(batch.second_moment(0)[0])
        front = solve_front(mean, second, c16)
        pmf = tilted_pmf(front, c16)
        worst16_res = max(worst16_res,
                          abs(pmf @ c16.points - mean),
                          abs(pmf @ np.abs(c16.points) ** 2 - second))
        if i < 4:
            oracle = grid_search_front(mean, second, c16)
            worst16_grid = max(worst16_grid,
                               abs(front.alpha - oracle[0]),
                               abs(front.beta - oracle[1]),
                               abs(front.gamma - oracle[2]))
    ok_16 = worst16_res <= 1e-8 and worst16_grid <= 1e-4
    _report("criterion 4 (solver correctness)", ok_qpsk and ok_16,
            f"1000 closed-form posteriors: max parameter gap {worst_param:.2e}"
            f" <= 1e-6, max moment residual {worst_res:.2e} <= 1e-8; "
            f"16-point alphabet: residual {worst16_res:.2e} <= 1e-8, "
            f"grid-oracle gap {worst16_grid:.2e} <= 1e-4")


# -- 5. decoder oracle equivalence -------------------------------------------


def test_criterion_5_decoder_oracles():
    code = make_conv_code_57()
    q = make_qpsk(1.0)
    rng = np.random.default_rng((SEED, 40))
    checked = 0
    for _ in range(500):
        n_info = int(rng.integers(2, 13))
        gains = sample_gains(2, 2, rng)
        noise_var = 1.0 / 10 ** (rng.uniform(0, 14) / 10)
        ch = ChannelInstance(gains, noise_var, [0.5, 0.5])
        consts = make_qpsk(0.5)
        bits = rng.integers(0, 2, size=n_info)
        sym = modulate(conv_encode(bits, code), consts)
        interferer = sample_symbols(consts, sym.size, rng)
        y = transmit(ch, np.stack([sym, interferer]), rng)
        enum = JointEnumeration(gains, noise_var, consts)
        batch = enum.evaluate(y)
        front = cl_front(gains, noise_var, 0, [0.5, 0.5])
        tables = {
            "gnnd": nn_tables(qpsk_estimates(batch.mean(0), consts.power), consts.points),
            "ml": -batch.user_log_likelihood(0).T,
            "cl": nn_tables(front.apply(y), consts.points, front.scalar_gain),
        }
        for name, tab in tables.items():
            got = viterbi(tab, code, consts)
            want = exhaustive_decode(tab, code, consts)
            assert np.array_equal(got, want), f"{name} mismatch on {n_info} bits"
            checked += 1

    # belief propagation equals exact bitwise decisions on a cycle-free code
    tree_h = np.array([[1, 1, 1, 0, 0, 0, 0],
                       [0, 0, 1, 1, 1, 0, 0],
                       [0, 0, 0, 0, 1, 1, 1]], dtype=np.uint8)
    graph = ParityGraph.from_dense(tree_h)
    words = np.array([w for w in itertools.product((0, 1), repeat=7)
                      if not ((tree_h @ w) % 2).any()], dtype=np.uint8)
    base = np.array([2.0, 2.1, 2.2, 2.3, 2.4, 2.5, 2.6])
    bp_checked = 0
    for start in (words[0], words[9]):
        for flip in range(-1, 7):
            word = start.copy()
            if flip >= 0:
                word[flip] ^= 1
            llr = base * (1.0 - 2.0 * word)
            hard, _, post = bp_decode_batch(graph, llr[None, :], max_iters=10,
                                            return_posteriors=True,
                                            early_exit=False)
            logp = -(words * llr).sum(axis=1)
            p = np.exp(logp - logp.max())
            p /= p.sum()
            p1 = words.T @ p
            exact = np.log((1 - p1) / p1)
            assert np.allclose(post[0], exact, atol=1e-9)
            assert np.array_equal(hard[0], (exact < 0).astype(np.uint8))
            bp_checked += 1
    _report("criterion 5 (decoder oracle equivalence)", True,
            f"{checked} Viterbi blocks equal exhaustive search; "
            f"{bp_checked} tree-code patterns equal exact bitwise decisions")


# -- 6. convolutional BER gaps ------------------------------------------------


@pytest.fixture(scope="module")
def viterbi_study():
    cfg = ExperimentConfig(kind="viterbi-ber", seed=SEED, users=4, antennas=4,
                           receiver="sic", methods=("gnnd", "cl", "ml"),
                           snr_db=(7.0, 8.0, 8.5, 9.0, 9.5, 10.5, 12.0, 14.0,
                                   17.0, 20.0),
                           blocks=800, min_errors=100, info_bits=128)
    return run_viterbi_ber(cfg)


def _curve(result, method):
    rows = [r for r in result.rows if r["user"] == "all" and r["method"] == method]
    rows.sort(key=lambda r: r["snr_db"])
    return ([r["snr_db"] for r in rows], [r["ber"] for r in rows],
            [r["errors"] for r in rows])


def _crossing_with_confidence(snrs, bers, errors, target=1e-3):
    """Threshold SNR plus a check that its bracketing points carry >= 100
    errors each, per the measurement rule."""
    s = snr_at_ber(snrs, bers, target)
    if s is None:
        return None, False
    i = max(j for j, v in enumerate(snrs) if v <= s)
    solid = errors[i] >= 100 and errors[min(i + 1, len(errors) - 1)] >= 100
    return s, solid


def test_criterion_6_viterbi_gaps(viterbi_study):
    s = {}
    solid = {}
    for method in ("gnnd", "ml", "cl"):
        snrs, bers, errs = _curve(viterbi_study, method)
        s[method], solid[method] = _crossing_with_confidence(snrs, bers, errs)
    assert s["gnnd"] is not None and s["ml"] is not None
    assert solid["gnnd"] and solid["ml"], "thresholds need 100-error brackets"
    gap_ml = abs(s["gnnd"] - s["ml"])
    if s["cl"] is None:
        # the linearized receiver never reaches the target inside the grid
        snrs, bers, errs = _curve(viterbi_study, "cl")
        assert errs[-1] >= 100 and bers[-1] >= 1e-3
        gap_cl = snrs[-1] - s["gnnd"]
    else:
        assert solid["cl"]
        gap_cl = s["cl"] - s["gnnd"]
    ok = gap_ml <= 0.25 and gap_cl >= 2.0
    _report("criterion 6 (convolutional BER gaps)", ok,
            f"thresholds at 1e-3: gnnd {s['gnnd']:.2f} dB, ml {s['ml']:.2f} dB, "
            f"cl {s['cl'] if s['cl'] is not None else '>' + str(max(_curve(viterbi_study, 'cl')[0]))} dB; "
            f"|gnnd-ml| {gap_ml:.3f} <= 0.25; cl margin {gap_cl:.2f} >= 2.0")


# -- 7 & 9. LDPC studies -------------------------------------------------------


LDPC_STUDY_SPECS = {
    "perfect": (("gnnd", "cl"), (10.5, 11.0, 11.5, 12.0, 12.75)),
    "16P": (("gnnd",), (11.0, 11.75, 12.5, 13.25)),
    "4P": (("gnnd",), (11.5, 12.25, 13.0, 13.75)),
    "1P": (("gnnd",), (13.5, 14.25, 15.0, 15.75)),
}


@pytest.fixture(scope="module")
def ldpc_study():
    out = {}
    for pilot, (methods, snrs) in LDPC_STUDY_SPECS.items():
        cfg = ExperimentConfig(kind="ldpc-ber", seed=SEED, users=8, antennas=8,
                               methods=methods, snr_db=snrs, blocks=160,
                               min_errors=100, draws=8, pilot_power=pilot)
        out[pilot] = run_ldpc_ber(cfg)
    # the linearized receiver's tail, far beyond the front crossing
    cfg = ExperimentConfig(kind="ldpc-ber", seed=SEED, users=8, antennas=8,
                           methods=("cl",), snr_db=(14.0, 16.0), blocks=24,
                           min_errors=100, draws=8, pilot_power="perfect")
    out["perfect-cl-tail"] = run_ldpc_ber(cfg)
    return out


def test_criterion_7_ldpc_llr_quality(ldpc_study):
    snrs, bers, errs = _curve(ldpc_study["perfect"], "gnnd")
    s_gnnd, solid = _crossing_with_confidence(snrs, bers, errs)
    assert s_gnnd is not None and solid
    # the linearized curve must still be above target 1.5 dB later; verify on
    # every measured point beyond that, including the far tail
    cl_pts = []
    for result in (ldpc_study["perfect"], ldpc_study["perfect-cl-tail"]):
        sn, be, er = _curve(result, "cl")
        cl_pts += list(zip(sn, be, er))
    beyond = [(sn, be, er) for sn, be, er in cl_pts if sn >= s_gnnd + 1.5]
    ok = bool(beyond) and all(be >= 1e-3 and er >= 100 for _, be, er in beyond)
    top = max(sn for sn, _, _ in cl_pts)
    _report("criterion 7 (LDPC LLR quality)", ok,
            f"gnnd threshold {s_gnnd:.2f} dB; cl stays above 1e-3 through "
            f"{top:.1f} dB (every point past {s_gnnd + 1.5:.2f} dB), "
            f"gap >= {top - s_gnnd:.2f} dB >= 1.5")


def test_criterion_9_pilot_power_monotonicity(ldpc_study):
    crossings = {}
    for pilot in ("perfect", "16P", "4P", "1P"):
        snrs, bers, errs = _curve(ldpc_study[pilot], "gnnd")
        s, solid = _crossing_with_confidence(snrs, bers, errs)
        assert s is not None, f"no crossing measured for pilot {pilot}"
        assert solid, f"crossing brackets for pilot {pilot} lack 100 errors"
        crossings[pilot] = s
    ordered = [crossings[p] for p in ("1P", "4P", "16P", "perfect")]
    ok = all(a >= b for a, b in zip(ordered, ordered[1:]))
    _report("criterion 9 (pilot-power monotonicity)", ok,
            "required SNR at 1e-3: " +
            ", ".join(f"{p}={crossings[p]:.2f} dB"
                      for p in ("1P", "4P", "16P", "perfect")) +
            " (non-increasing in pilot power)")


# -- 8. conditional-mean approximator -----------------------------------------


def test_criterion_8_approximator_fidelity():
    k_users, l_ant, snr = 4, 8, 9.0
    power = 1.0
    noise_var = power / 10 ** (snr / 10)
    consts = make_qpsk(power / k_users)
    gains = sample_gains(k_users, l_ant, np.random.default_rng((SEED, 50)))

    dataset = make_dataset(gains, consts, noise_var, 0, 100_000,
                           np.random.default_rng((SEED, 51)))
    tc = TrainConfig(samples=100_000, epochs=20, batch_size=500,
                     learning_rate=1e-3, seed=SEED)
    model, trace = train(dataset, default_sizes(l_ant), tc)
    assert trace[-1] <= trace[0]

    ho_rng = np.random.default_rng((SEED, 52))
    n_ho = 20_000
    idx = np.stack([ho_rng.choice(4, size=n_ho, p=consts.probabilities)
                    for _ in range(k_users)])
    x = consts.points[idx]
    ch = ChannelInstance(gains, noise_var, np.full(k_users, power / k_users))
    y = transmit(ch, x, ho_rng)
    enum = JointEnumeration(gains, noise_var, consts)
    exact_means = enum.evaluate(y, keep_log_weights=False).mean(0)
    net_means = predict(model, y)

    err_exact = np.abs(exact_means - x[0]) ** 2
    err_net = np.abs(net_means - x[0]) ** 2
    mse_exact, mse_net = err_exact.mean(), err_net.mean()
    se = np.hypot(err_exact.std(ddof=1), err_net.std(ddof=1)) / np.sqrt(n_ho)
    ok_mse = (mse_net <= 1.2 * mse_exact) and (mse_net >= mse_exact - 2 * se)

    rate_exact = gnnd_gmi_from_means(exact_means, consts.power)
    rate_net = gnnd_gmi_from_means(net_means, consts.power)
    rate_gap = abs(rate_exact.value - rate_net.value)
    ok_rate = rate_gap <= 0.1
    _report("criterion 8 (approximator fidelity)", ok_mse and ok_rate,
            f"held-out MSE net {mse_net:.5f} vs exact {mse_exact:.5f} "
            f"(ratio {mse_net / mse_exact:.3f} <= 1.2, floor within 2 se); "
            f"rate via net {rate_net.value:.4f} vs exact {rate_exact.value:.4f} "
            f"bits (gap {rate_gap:.4f} <= 0.1)")
