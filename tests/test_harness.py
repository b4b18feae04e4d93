import concurrent.futures
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gnndsim import harness, posterior
from gnndsim.channel import sample_gains, transmit
from gnndsim.config import ExperimentConfig
from gnndsim.constellation import make_qpsk
from gnndsim.harness import (
    SCATTER_CSV_COLUMNS,
    SweepResult,
    lmmse_estimates,
    run_gmi_sweep,
    run_ldpc_ber,
    run_scatter,
    run_viterbi_ber,
)
from gnndsim.posterior import JointEnumeration, SplitEnumeration
from oracles import average_sum_rows, cluster_separation, snr_at_ber


def _small_gmi_cfg(**kw):
    base = dict(kind="gmi-sweep", seed=11, users=2, antennas=2,
                snr_db=(0.0, 10.0), draws=2, samples=2000)
    base.update(kw)
    return ExperimentConfig(**base)


def test_gmi_sweep_row_count_and_schema():
    cfg = _small_gmi_cfg()
    res = run_gmi_sweep(cfg)
    # one row per user plus a sum row, per (draw, snr, method)
    assert len(res.rows) == 2 * 2 * 3 * (2 + 1)
    users = {r["user"] for r in res.rows}
    assert users == {1, 2, "sum"}
    for row in res.rows:
        assert set(row) >= {"instance_id", "K", "L", "snr_db", "method",
                            "receiver", "user", "rate_bits", "std_err", "samples"}


def test_gmi_sweep_reproducible_and_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    cfg = _small_gmi_cfg(out=str(out))
    a = run_gmi_sweep(cfg)
    text_a = out.read_text()
    b = run_gmi_sweep(cfg)
    text_b = out.read_text()
    assert text_a == text_b
    for ra, rb in zip(a.rows, b.rows):
        assert ra == rb
    lines = text_a.splitlines()
    assert lines[0].startswith("# gnndsim ")
    assert any(line == "# seed = 11" for line in lines)
    header = next(l for l in lines if not l.startswith("#"))
    assert header == "instance_id,K,L,snr_db,method,receiver,user,rate_bits,std_err,samples"


def test_gmi_sweep_average_helper():
    cfg = _small_gmi_cfg()
    res = run_gmi_sweep(cfg)
    mean, se = average_sum_rows(res, "mi", 10.0)
    vals = [r["rate_bits"] for r in res.rows
            if r["method"] == "mi" and r["user"] == "sum" and r["snr_db"] == 10.0]
    assert mean == pytest.approx(np.mean(vals))
    assert se > 0


def test_gmi_sweep_threads_match_serial():
    serial = run_gmi_sweep(_small_gmi_cfg(samples=500))
    parallel = run_gmi_sweep(_small_gmi_cfg(samples=500, threads=2))
    for ra, rb in zip(serial.rows, parallel.rows):
        assert ra == rb


def test_finish_writes_numpy_scalars_as_numbers(tmp_path):
    out = tmp_path / "r.csv"
    cfg = ExperimentConfig(kind="scatter", seed=1, out=str(out))
    row = dict(true_re=np.float64(0.5), true_im=np.int64(-2), gnnd_re=0.25, gnnd_im=3,
               lmmse_re="x", lmmse_im=np.float64(1e-300))
    SweepResult(cfg, SCATTER_CSV_COLUMNS, [row]).finish(0.0)
    assert out.read_text().splitlines()[-1] == "0.5,-2,0.25,3,x,1e-300"


def test_scatter_rows_and_noiseless_collapse(tmp_path):
    out = tmp_path / "scatter.csv"
    cfg = ExperimentConfig(kind="scatter", seed=3, users=1, antennas=1,
                           snr_db=(60.0,), samples=400, out=str(out))
    res = run_scatter(cfg)
    assert len(res.rows) == 400
    g = np.array([r["gnnd_re"] + 1j * r["gnnd_im"] for r in res.rows])
    # essentially noiseless: estimates collapse onto four points
    assert len(np.unique(np.round(g, 3))) == 4
    assert out.read_text().count("\n") > 400


def test_scatter_separation_favors_front_estimates():
    cfg = ExperimentConfig(kind="scatter", seed=4, users=8, antennas=4,
                           snr_db=(25.0,), samples=3000)
    res = run_scatter(cfg)
    true = np.array([r["true_re"] + 1j * r["true_im"] for r in res.rows])
    g = np.array([r["gnnd_re"] + 1j * r["gnnd_im"] for r in res.rows])
    l = np.array([r["lmmse_re"] + 1j * r["lmmse_im"] for r in res.rows])
    assert cluster_separation(true, g) > cluster_separation(true, l)


def test_cluster_separation_metric():
    true = np.array([1 + 0j] * 50 + [-1 + 0j] * 50)
    tight = np.concatenate([np.full(50, 1 + 0j), np.full(50, -1 + 0j)])
    tight = tight + 0.01 * np.exp(2j * np.pi * np.linspace(0, 1, 100))
    loose = tight + 0.8 * np.sin(np.linspace(0, 9, 100))
    assert cluster_separation(true, tight) > cluster_separation(true, loose)


def test_viterbi_ber_zero_noise_and_stopping():
    cfg = ExperimentConfig(kind="viterbi-ber", seed=6, users=2, antennas=2,
                           receiver="sic", methods=("gnnd", "cl", "ml"),
                           snr_db=(60.0,), blocks=5, min_errors=10, info_bits=32)
    res = run_viterbi_ber(cfg)
    for row in res.rows:
        assert row["errors"] == 0
        assert row["ber"] == 0.0
        assert row["blocks"] == 5  # cap reached without errors


def test_viterbi_ber_stop_rule_on_errors():
    cfg = ExperimentConfig(kind="viterbi-ber", seed=6, users=2, antennas=2,
                           receiver="sic", methods=("cl",), snr_db=(0.0,),
                           blocks=200, min_errors=30, info_bits=32)
    res = run_viterbi_ber(cfg)
    all_row = next(r for r in res.rows if r["user"] == "all")
    assert all_row["errors"] >= 30
    assert all_row["blocks"] < 200
    assert all_row["bits"] == all_row["blocks"] * 2 * 32


_VITERBI_BLOCK = harness._viterbi_block


def _block_recording_gains(args):
    """Viterbi blocks whose results also carry the fading gains each block
    drew; module level so that worker processes can run it."""
    drawn = []
    real = harness.sample_gains

    def recording(*a, **kw):
        drawn.append(real(*a, **kw))
        return drawn[-1]

    harness.sample_gains = recording
    try:
        results = _VITERBI_BLOCK(args)
    finally:
        harness.sample_gains = real
    return [dict(res, gains=g) for res, g in zip(results, drawn)]


@pytest.mark.parametrize("threads", [1, 2])
def test_viterbi_ber_pairs_blocks_across_snr(monkeypatch, threads):
    # block b must see the same fading at every SNR point, as in run_ldpc_ber
    drawn = {}
    real_map = harness.parallel_map

    def recording_map(fn, tasks, pool):
        results = real_map(fn, tasks, pool)
        for (_, snr, _, _), chunk in zip(tasks, results):
            drawn.setdefault(snr, []).extend(res["gains"] for res in chunk)
        return results

    monkeypatch.setattr(harness, "_viterbi_block", _block_recording_gains)
    monkeypatch.setattr(harness, "parallel_map", recording_map)
    cfg = ExperimentConfig(kind="viterbi-ber", seed=6, users=2, antennas=2,
                           receiver="sic", methods=("cl",), snr_db=(3.0, 9.0),
                           blocks=6, min_errors=10**6, info_bits=16,
                           threads=threads)
    run_viterbi_ber(cfg)
    low, high = drawn[3.0], drawn[9.0]
    assert len(low) == len(high) == cfg.blocks
    for g_low, g_high in zip(low, high):
        np.testing.assert_array_equal(g_low, g_high)
    assert not np.array_equal(low[0], low[1])  # blocks are distinct draws


@pytest.mark.parametrize("threads, pools", [(1, 0), (2, 1)])
def test_viterbi_ber_starts_one_pool_per_call(monkeypatch, threads, pools):
    started = []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            started.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    cfg = ExperimentConfig(kind="viterbi-ber", seed=6, users=2, antennas=2,
                           receiver="sic", methods=("cl",), snr_db=(3.0, 9.0),
                           blocks=2 * harness.VITERBI_WAVE + 1, min_errors=10**6,
                           info_bits=16, threads=threads)
    rows = run_viterbi_ber(cfg).rows
    assert {r["blocks"] for r in rows} == {cfg.blocks}  # three waves per SNR point
    assert len(started) == pools


def test_harness_import_leaves_the_process_pool_out():
    # worker_pool imports it when a pool starts, so serial runs never pay for it
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import gnndsim.harness; "
            "print('concurrent.futures.process' in sys.modules)")
    src = str(Path(harness.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True,
                          check=True)
    assert done.stdout.strip() == "False"


@pytest.mark.parametrize("receiver", ["sic", "no-sic"])
def test_viterbi_ber_threads_match_serial(receiver):
    def run(threads):
        return run_viterbi_ber(ExperimentConfig(
            kind="viterbi-ber", seed=6, users=2, antennas=2, receiver=receiver,
            methods=("gnnd", "cl", "ml"), snr_db=(4.0, 8.0), blocks=40,
            min_errors=40, info_bits=16, threads=threads)).rows

    serial = run(1)
    # the stop rule must fire inside a wave for the check to mean anything
    assert any(r["blocks"] < 40 and r["blocks"] % harness.VITERBI_WAVE
               for r in serial)
    assert run(2) == serial


@pytest.mark.parametrize("receiver", ["sic", "no-sic"])
def test_viterbi_ber_rows_do_not_depend_on_the_wave_size(monkeypatch, receiver):
    cfg = ExperimentConfig(kind="viterbi-ber", seed=6, users=2, antennas=2, receiver=receiver,
                           methods=("gnnd", "cl", "ml"), snr_db=(4.0, 8.0), blocks=40,
                           min_errors=40, info_bits=16)
    rows = {}
    for wave in (1, 5, 16):
        monkeypatch.setattr(harness, "VITERBI_WAVE", wave)
        rows[wave] = run_viterbi_ber(cfg).rows
    # the stop rule must fire inside a wave of each size for the check to mean anything
    for wave in (5, 16):
        assert any(r["blocks"] < cfg.blocks and r["blocks"] % wave for r in rows[1])
    assert rows[5] == rows[1] and rows[16] == rows[1]


def test_viterbi_ber_no_sic_runs():
    cfg = ExperimentConfig(kind="viterbi-ber", seed=6, users=2, antennas=3,
                           receiver="no-sic", methods=("gnnd", "ml"),
                           snr_db=(12.0,), blocks=8, min_errors=10, info_bits=24)
    res = run_viterbi_ber(cfg)
    assert {r["method"] for r in res.rows} == {"gnnd", "ml"}


@pytest.mark.parametrize("snr_db", [5.0, 25.0])
def test_ml_tables_match_full_likelihood(monkeypatch, snr_db):
    # the split-read ml tables, log p(a) - log P(x_u = a | y), are
    # -log p(y | x_u = a) up to a constant per observation; at 25 dB some
    # columns take the exact log-sum-exp pass
    exact_cols, exact = [], SplitEnumeration.exact_log_pmf
    monkeypatch.setattr(SplitEnumeration, "exact_log_pmf",
                        lambda self, y, user: exact_cols.append(y.shape[1]) or exact(self, y, user))
    gains = sample_gains(4, 4, np.random.default_rng(61))
    q = make_qpsk(0.25)
    noise_var = 10 ** (-snr_db / 10)
    rng = np.random.default_rng(62)
    x = q.points[rng.integers(0, 4, size=(4, 130))]
    y = transmit(gains, noise_var, x, rng)
    for first in range(4):  # each user under SIC, with the users after it
        y_u = y - gains[:, :first] @ x[:first]
        users = range(first, 4)
        batch = SplitEnumeration(gains, noise_var, q, first).evaluate(y_u)
        ref = JointEnumeration(gains, noise_var, q, first).user_log_likelihood(y_u, users)
        for got, want in zip(harness._enum_tables("ml", batch, q, users), ref):
            shift = got + want.T  # (n, |A|), one value per row
            np.testing.assert_allclose(shift - shift[:, :1], 0.0, rtol=0, atol=1e-9)
    if snr_db == 25.0:
        assert sum(exact_cols) > 0


@pytest.mark.parametrize("receiver, methods, per_wave",
                         [("sic", ("gnnd", "cl", "ml"), 3), ("no-sic", ("gnnd", "ml"), 1),
                          ("sic", ("cl",), 0)])
def test_viterbi_wave_builds_one_engine_per_block_and_user(monkeypatch, receiver, methods,
                                                           per_wave):
    # one engine per (wave, first user), whose stack holds the channel of
    # every block of the wave; the gnnd and ml words share it, and at first
    # user 0, where nothing is cancelled, they share one evaluation too
    built, real_init = [], SplitEnumeration.__init__
    evaluated, real_evaluate = [], SplitEnumeration.evaluate

    def recording(self, gains, noise_var, consts, first_user):
        built.append((gains.shape, gains.tobytes(), first_user))
        real_init(self, gains, noise_var, consts, first_user)

    def counting(self, y):
        evaluated.append(y.shape[0])
        return real_evaluate(self, y)

    monkeypatch.setattr(SplitEnumeration, "__init__", recording)
    monkeypatch.setattr(SplitEnumeration, "evaluate", counting)
    cfg = ExperimentConfig(kind="viterbi-ber", seed=6, users=3, antennas=3,
                           receiver=receiver, methods=methods, snr_db=(4.0,),
                           blocks=harness.VITERBI_WAVE + 5, min_errors=10**6, info_bits=16)
    run_viterbi_ber(cfg)
    assert len(built) == len(set(built)) == 2 * per_wave  # two waves
    waves = [(harness.VITERBI_WAVE, 3, 3), (5, 3, 3)]
    assert [shape for shape, _, _ in built] == [w for w in waves for _ in range(per_wave)]
    assert [k for _, _, k in built] == list(range(per_wave)) * 2
    # under SIC: one shared at user 0, then one each for gnnd and ml at users 1 and 2
    per_wave_evaluations = {3: 1 + 2 * 2, 1: 1, 0: 0}[per_wave]
    assert evaluated == [w for w, _, _ in waves for _ in range(per_wave_evaluations)]


def test_viterbi_wave_decodes_each_user_in_one_call(monkeypatch):
    # one call per (wave, user) holds that user's words of every method and block
    words, real_viterbi = [], harness.viterbi

    def counting(tables, code, consts):
        words.append(tables.shape[0])
        return real_viterbi(tables, code, consts)

    monkeypatch.setattr(harness, "viterbi", counting)
    cfg = ExperimentConfig(kind="viterbi-ber", seed=6, users=3, antennas=3,
                           receiver="sic", methods=("gnnd", "cl"), snr_db=(4.0,),
                           blocks=harness.VITERBI_WAVE + 5, min_errors=10**6, info_bits=16)
    run_viterbi_ber(cfg)
    assert words == [2 * w for w in (harness.VITERBI_WAVE, 5) for _ in range(3)]


def test_ldpc_ber_small_system(tmp_path):
    out = tmp_path / "ldpc.csv"
    cfg = ExperimentConfig(kind="ldpc-ber", seed=8, users=2, antennas=2,
                           methods=("gnnd", "cl"), snr_db=(9.0,), blocks=4,
                           min_errors=10_000, draws=2, out=str(out))
    res = run_ldpc_ber(cfg)
    rows = [r for r in res.rows if r["user"] == "all"]
    assert len(rows) == 2
    for row in rows:
        assert row["blocks"] == 4
        assert row["bits"] == 4 * 2 * 440
    assert out.exists()


def test_ldpc_ber_rejects_sic():
    with pytest.raises(ValueError):
        ExperimentConfig(kind="ldpc-ber", seed=8, users=2, antennas=2,
                         methods=("gnnd",), receiver="sic")


def test_ldpc_ber_zero_noise():
    cfg = ExperimentConfig(kind="ldpc-ber", seed=8, users=2, antennas=2,
                           methods=("gnnd", "cl"), snr_db=(60.0,), blocks=2,
                           min_errors=10, draws=1)
    res = run_ldpc_ber(cfg)
    for row in res.rows:
        assert row["errors"] == 0


def _ldpc_stop_cfg(**kw):
    base = dict(kind="ldpc-ber", seed=7, users=3, antennas=4, methods=("gnnd", "cl"),
                snr_db=(4.0, 10.0), draws=4, blocks=12, min_errors=40)
    base.update(kw)
    return ExperimentConfig(**base)


def test_ldpc_ber_cl_only_skips_enumeration(monkeypatch):
    both = run_ldpc_ber(_ldpc_stop_cfg())

    def refuse(*args, **kwargs):
        raise AssertionError("a CL-only run evaluated the enumeration")

    for engine in (SplitEnumeration, JointEnumeration):
        monkeypatch.setattr(engine, "evaluate", refuse)
    cl = run_ldpc_ber(_ldpc_stop_cfg(methods=("cl",)))
    assert cl.rows == [r for r in both.rows if r["method"] == "cl"]


def test_ldpc_ber_prepares_only_decoded_realizations(monkeypatch):
    built = []
    real_init = SplitEnumeration.__init__

    def recording(self, *args, **kwargs):
        built.append(args[0])
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(SplitEnumeration, "__init__", recording)
    # every method meets the stop rule in the first block of each point
    res = run_ldpc_ber(_ldpc_stop_cfg(snr_db=(2.0, 4.0), min_errors=1))
    assert {r["blocks"] for r in res.rows} == {1}
    assert len(built) == 2  # realization 0 at each point, not all 4 draws
    # both points prepare the same realization from the same estimate
    np.testing.assert_array_equal(built[0], built[1])
    built.clear()
    run_ldpc_ber(_ldpc_stop_cfg(snr_db=(4.0,), blocks=6, min_errors=10**6))
    assert len(built) == 4  # six blocks reuse the four realizations


def test_ldpc_ber_decodes_only_active_methods(monkeypatch):
    calls = []
    real_bp = harness.bp_decode_batch

    def counting(*args, **kwargs):
        calls.append(1)
        return real_bp(*args, **kwargs)

    monkeypatch.setattr(harness, "bp_decode_batch", counting)
    res = run_ldpc_ber(_ldpc_stop_cfg())
    blocks = {(r["snr_db"], r["method"]): r["blocks"] for r in res.rows}
    assert blocks[(10.0, "gnnd")] != blocks[(10.0, "cl")]  # frozen apart
    assert len(calls) == sum(blocks.values())


def test_snr_at_ber_interpolation():
    snrs = [0, 2, 4, 6]
    bers = [1e-1, 1e-2, 1e-3, 1e-4]
    assert snr_at_ber(snrs, bers, 1e-3) == pytest.approx(4.0)
    assert snr_at_ber(snrs, bers, 3e-3) == pytest.approx(2 + 2 * np.log10(1e-2 / 3e-3))
    assert snr_at_ber(snrs, bers, 1e-5) is None
    assert snr_at_ber(snrs, [1, 1, 1, 1], 1e-3) is None
    # non-monotone wobble: use the final descent
    assert snr_at_ber([0, 2, 4, 6], [1e-2, 1e-4, 2e-3, 1e-4], 1e-3) == pytest.approx(
        4 + 2 * (np.log10(2e-3) - np.log10(1e-3)) / (np.log10(2e-3) - np.log10(1e-4)))


def _record_scatter_means(monkeypatch) -> list:
    """Record the conditional means ``run_scatter`` hands to ``qpsk_estimates``."""
    means, estimates = [], harness.qpsk_estimates
    monkeypatch.setattr(harness, "qpsk_estimates",
                        lambda m, power: means.append(m) or estimates(m, power))
    return means


def test_scatter_column_slices_match_one_block(monkeypatch):
    # the sliced quantity itself, the conditional mean, is compared
    cfg = ExperimentConfig(kind="scatter", seed=5, users=4, antennas=4,
                           snr_db=(10.0,), samples=300)
    means, widths = _record_scatter_means(monkeypatch), []
    evaluate = SplitEnumeration.evaluate
    monkeypatch.setattr(SplitEnumeration, "evaluate",
                        lambda self, y, **kw: widths.append(y.shape[1]) or evaluate(self, y, **kw))
    whole = run_scatter(cfg).rows
    assert widths == [300]
    # a budget of 7 columns of the 4^4 complex128 combinations that set the slice
    monkeypatch.setattr(posterior, "ENUM_SLICE_BYTES", 7 * 256 * 16)
    sliced = run_scatter(cfg).rows
    assert widths[1:] == [7] * 42 + [6]
    np.testing.assert_allclose(means[1], means[0], rtol=1e-5, atol=1e-5)
    for key in ("true_re", "true_im", "lmmse_re", "lmmse_im"):
        assert [r[key] for r in sliced] == [r[key] for r in whole]


@pytest.mark.parametrize("seed, users, snr_db", [(5, 4, 10.0), (1, 4, 25.0), (7, 2, 12.0)])
def test_scatter_means_match_full_enumeration(monkeypatch, seed, users, snr_db):
    # the means behind the gnnd columns are the complex128 enumeration's;
    # 25 dB takes the split's fallback
    cfg = ExperimentConfig(kind="scatter", seed=seed, users=users, antennas=4,
                           snr_db=(snr_db,), samples=300)
    means = _record_scatter_means(monkeypatch)
    run_scatter(cfg)
    # run_scatter's channel and observations, drawn as it draws them
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0)))
    gains, noise_var = sample_gains(users, 4, rng), harness.noise_var_for(cfg, snr_db)
    consts = harness.user_constellation(cfg)
    x = consts.points[np.stack([rng.choice(4, size=300, p=consts.probabilities)
                                for _ in range(users)])]
    y = transmit(gains, noise_var, x, rng)
    ref = JointEnumeration(gains, noise_var, consts, 0).evaluate(y).mean(0)
    np.testing.assert_allclose(means[0], ref, rtol=0, atol=1e-12)



def test_ldpc_means_follow_enumeration_budget(monkeypatch):
    # the ldpc_small.csv golden config: every conditional mean, the 2,048
    # residual samples of each realization and the blocks alike, comes from
    # split-engine evaluations within the byte budget of its full
    # enumeration, so no fallback outgrows it, and slicing leaves the means
    # as they were
    cfg = ExperimentConfig(kind="ldpc-ber", seed=7, users=2, antennas=4,
                           methods=("gnnd", "cl"), snr_db=(3.0, 6.0),
                           draws=2, blocks=4, min_errors=10**6)
    means, widths = [], []
    estimates, evaluate = harness.qpsk_estimates, SplitEnumeration.evaluate
    monkeypatch.setattr(harness, "qpsk_estimates",
                        lambda m, power: means.append(m) or estimates(m, power))
    monkeypatch.setattr(SplitEnumeration, "evaluate",
                        lambda self, y, **kw: widths.append(y.shape[1]) or evaluate(self, y, **kw))
    whole = run_ldpc_ber(cfg).rows
    n_whole = len(means)
    assert max(widths) == harness.SIGMA_U_SAMPLES
    widths.clear()
    # a budget of 32,768 bytes: 128 columns of the 4^2 complex128
    # combinations of the full enumeration, a power-of-two width like the
    # default budget's slices, which keeps the means byte-equal
    monkeypatch.setattr(posterior, "ENUM_SLICE_BYTES", 128 * 16 * 16)
    sliced = run_ldpc_ber(cfg).rows
    assert widths and max(widths) <= 128
    assert len(means) == 2 * n_whole
    for got, want in zip(means[n_whole:], means[:n_whole]):
        assert np.array_equal(got, want)
    assert sliced == whole

def test_lmmse_estimates_shrink_toward_mean(rng):
    gains = sample_gains(2, 4, rng)
    consts = make_qpsk(0.5)
    n = 20_000
    idx = rng.integers(0, 4, size=(2, n))
    x = consts.points[idx]
    y = gains @ x + np.sqrt(0.25) * (rng.standard_normal((4, n))
                                     + 1j * rng.standard_normal((4, n)))
    est = lmmse_estimates(gains, 0.5, consts, y, 0)
    err = np.mean(np.abs(est - x[0]) ** 2)
    assert err < 0.5  # beats the zero estimator whose error is the power
