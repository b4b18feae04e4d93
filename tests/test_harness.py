import numpy as np
import pytest

from gnndsim import harness
from gnndsim.channel import ChannelInstance, sample_gains
from gnndsim.config import ExperimentConfig
from gnndsim.constellation import make_qpsk, modulate
from gnndsim.codec import conv_encode, make_conv_code_57, viterbi
from gnndsim.fronts import qpsk_estimates
from gnndsim.harness import (
    cluster_separation,
    lmmse_estimates,
    nn_tables,
    run_gmi_sweep,
    run_ldpc_ber,
    run_scatter,
    run_viterbi_ber,
    sic_receiver,
    snr_at_ber,
    average_sum_rows,
)
from gnndsim.posterior import JointEnumeration


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
    """One Viterbi block that also returns the fading gains it drew; module
    level so that worker processes can run it."""
    drawn = []
    real = harness.sample_gains

    def recording(*a, **kw):
        drawn.append(real(*a, **kw))
        return drawn[-1]

    harness.sample_gains = recording
    try:
        res = _VITERBI_BLOCK(args)
    finally:
        harness.sample_gains = real
    return dict(res, gains=drawn[0])


@pytest.mark.parametrize("threads", [1, 2])
def test_viterbi_ber_pairs_blocks_across_snr(monkeypatch, threads):
    # block b must see the same fading at every SNR point, as in run_ldpc_ber
    drawn = {}
    real_map = harness.parallel_map

    def recording_map(fn, tasks, n_threads):
        results = real_map(fn, tasks, n_threads)
        for (_, snr, _, _), res in zip(tasks, results):
            drawn.setdefault(snr, []).append(res["gains"])
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


def test_viterbi_ber_no_sic_runs():
    cfg = ExperimentConfig(kind="viterbi-ber", seed=6, users=2, antennas=3,
                           receiver="no-sic", methods=("gnnd", "ml"),
                           snr_db=(12.0,), blocks=8, min_errors=10, info_bits=24)
    res = run_viterbi_ber(cfg)
    assert {r["method"] for r in res.rows} == {"gnnd", "ml"}


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
    cfg = ExperimentConfig(kind="ldpc-ber", seed=8, users=2, antennas=2,
                           methods=("gnnd",), receiver="sic")
    with pytest.raises(ValueError):
        run_ldpc_ber(cfg)


def test_ldpc_ber_zero_noise():
    cfg = ExperimentConfig(kind="ldpc-ber", seed=8, users=2, antennas=2,
                           methods=("gnnd", "cl"), snr_db=(60.0,), blocks=2,
                           min_errors=10, draws=1)
    res = run_ldpc_ber(cfg)
    for row in res.rows:
        assert row["errors"] == 0


def _genie_decoder(gains, noise_var, consts, code):
    def decode_user(k, y, prefix_users, prefix_syms):
        if prefix_users:
            y = y - gains[:, prefix_users] @ prefix_syms
        # single remaining-user decode only valid when all others cancelled
        batch = JointEnumeration(gains[:, [k]], noise_var, consts, 0).evaluate(y)
        tables = nn_tables(qpsk_estimates(batch.mean(0), consts.power), consts.points)
        bits = viterbi(tables, code, consts)
        return bits, modulate(conv_encode(bits, code), consts)
    return decode_user


def test_sic_receiver_genie_prefix_equals_single_user(rng):
    code = make_conv_code_57()
    consts = make_qpsk(0.5)
    gains = sample_gains(2, 2, rng)
    noise_var = 0.05
    bits = rng.integers(0, 2, size=(2, 24))
    syms = np.stack([modulate(conv_encode(bits[k], code), consts) for k in range(2)])
    y = gains @ syms + np.sqrt(noise_var) * (
        rng.standard_normal((2, syms.shape[1])) + 1j * rng.standard_normal((2, syms.shape[1]))) / np.sqrt(2)
    decode = _genie_decoder(gains, noise_var, consts, code)
    # genie symbols condition user 1 on the true user-0 interference
    got, _ = sic_receiver(y, [0, 1], decode, genie_symbols=syms)
    y_clean = y - gains[:, [0]] @ syms[[0]]
    solo = decode(1, y_clean, [], None)[0]
    np.testing.assert_array_equal(got[1], solo)


def test_sic_receiver_error_propagation(rng):
    # a corrupted prefix must degrade the later user relative to genie
    code = make_conv_code_57()
    consts = make_qpsk(0.5)
    genie_errs, forced_errs = 0, 0
    for trial in range(30):
        gains = sample_gains(2, 2, rng)
        noise_var = 0.1
        bits = rng.integers(0, 2, size=(2, 24))
        syms = np.stack([modulate(conv_encode(bits[k], code), consts)
                         for k in range(2)])
        y = gains @ syms + np.sqrt(noise_var / 2) * (
            rng.standard_normal((2, syms.shape[1]))
            + 1j * rng.standard_normal((2, syms.shape[1])))
        decode = _genie_decoder(gains, noise_var, consts, code)
        got_genie, _ = sic_receiver(y, [0, 1], decode, genie_symbols=syms)
        wrong = syms.copy()
        wrong[0] = -wrong[0]  # force a completely wrong prefix
        got_forced, _ = sic_receiver(y, [0, 1], decode, genie_symbols=wrong)
        genie_errs += int(np.sum(got_genie[1] != bits[1]))
        forced_errs += int(np.sum(got_forced[1] != bits[1]))
    assert forced_errs > genie_errs


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


def test_scatter_column_slices_match_one_block(monkeypatch):
    # the rows pass float32 means through artanh, which near saturation
    # magnifies last-bit differences between BLAS calls of other widths, so
    # the sliced quantity itself, the conditional mean, is compared
    cfg = ExperimentConfig(kind="scatter", seed=5, users=4, antennas=4,
                           snr_db=(10.0,), samples=300)
    means, widths = [], []
    estimates, evaluate = harness.qpsk_estimates, JointEnumeration.evaluate
    monkeypatch.setattr(harness, "qpsk_estimates",
                        lambda m, power: means.append(m) or estimates(m, power))
    monkeypatch.setattr(JointEnumeration, "evaluate",
                        lambda self, y, **kw: widths.append(y.shape[1]) or evaluate(self, y, **kw))
    whole = run_scatter(cfg).rows
    assert widths == [300]
    # a budget of 7 columns of 4^4 complex64 weights
    monkeypatch.setattr(harness, "ENUM_SLICE_BYTES", 7 * 256 * 8)
    sliced = run_scatter(cfg).rows
    assert widths[1:] == [7] * 42 + [6]
    np.testing.assert_allclose(means[1], means[0], rtol=1e-5, atol=1e-5)
    for key in ("true_re", "true_im", "lmmse_re", "lmmse_im"):
        assert [r[key] for r in sliced] == [r[key] for r in whole]


def test_lmmse_estimates_shrink_toward_mean(rng):
    gains = sample_gains(2, 4, rng)
    ch = ChannelInstance(gains, 0.5, [0.5, 0.5])
    consts = make_qpsk(0.5)
    n = 20_000
    idx = rng.integers(0, 4, size=(2, n))
    x = consts.points[idx]
    y = gains @ x + np.sqrt(0.25) * (rng.standard_normal((4, n))
                                     + 1j * rng.standard_normal((4, n)))
    est = lmmse_estimates(ch, y, 0)
    err = np.mean(np.abs(est - x[0]) ** 2)
    assert err < 0.5  # beats the zero estimator whose error is the power
