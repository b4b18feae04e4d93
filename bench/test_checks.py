"""Self-tests of the benchmark's own checks and tracer.

Run with: python3 -m pytest -q bench
Each check must pass real program output and reject a doctored copy.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from gnndsim import harness  # noqa: E402
from gnndsim.config import parse_config  # noqa: E402


@pytest.fixture(scope="module")
def sweep():
    cfg = parse_config(workloads.config_text(
        kind="gmi-sweep", seed=11, users=4, antennas=4, snr_db=(5.0, 15.0),
        methods=("gnnd", "cl", "mi"), draws=1, samples=2048))
    return cfg, harness.run_gmi_sweep(cfg).rows


def _doctor(rows, **match):
    """Copies of rows; returns (copy, the copied rows that match)."""
    out = [dict(r) for r in rows]
    return out, [r for r in out if all(r[k] == v for k, v in match.items())]


def test_gmi_check_passes_program_output(sweep):
    cfg, rows = sweep
    assert checks.check_gmi(rows, cfg.users) == []


def test_gmi_check_rejects_rate_above_two_bits(sweep):
    cfg, rows = sweep
    bad, hit = _doctor(rows, method="mi", user=2, snr_db=5.0)
    hit[0]["rate_bits"] = 2.2
    fails = checks.check_gmi(bad, cfg.users)
    assert fails and all(key == (0, 5.0) for key, _ in fails)


def test_gmi_check_rejects_swapped_gnnd_cl(sweep):
    cfg, rows = sweep
    bad = [dict(r, method={"gnnd": "cl", "cl": "gnnd"}.get(r["method"], r["method"]))
           for r in rows]
    assert any("cl" in msg and "exceeds gnnd" in msg
               for _, msg in checks.check_gmi(bad, cfg.users))


def test_gmi_check_names_cl_saturation(sweep):
    cfg, rows = sweep
    bad, hit = _doctor(rows, method="cl", user=1, snr_db=5.0)
    hit[0].update(rate_bits=2.0, std_err=1e-13)
    fails = checks.check_gmi(bad, cfg.users)
    assert [key for key, _ in fails] == [(0, 5.0)]
    assert "saturated" in fails[0][1]


def test_independent_mi_agrees_with_program_and_rejects_offset(sweep):
    cfg, rows = sweep
    gains = harness.sample_gains(cfg.users, cfg.antennas, np.random.default_rng(
        np.random.SeedSequence((cfg.seed, 0))))
    mine = checks.per_user_mi(gains, 10 ** -0.5, 0.25, 4096, np.random.default_rng(5))
    assert checks.check_mi_independent(rows, 0, 5.0, *mine) == []
    bad, hit = _doctor(rows, method="mi", snr_db=5.0, user="sum")
    hit[0]["rate_bits"] += 0.6
    assert checks.check_mi_independent(bad, 0, 5.0, *mine)


@pytest.mark.parametrize("noise_var, want, tol", [(1e-6, 2.0, 1e-9), (1e4, 0.0, 2e-3)])
def test_independent_mi_closed_forms(noise_var, want, tol):
    mi, se, sum_se = checks.per_user_mi(np.ones((1, 1)), noise_var, 1.0, 4096,
                                        np.random.default_rng(3))
    assert abs(mi[0] - want) < tol
    assert sum_se == pytest.approx(se[0])


def _ber_rows(errors, users=2, blocks=4, info_bits=440):
    """BER rows in the runner's schema; errors[method][snr] = total errors."""
    rows = []
    for m, per_snr in errors.items():
        for snr, e in per_snr.items():
            base = dict(snr_db=snr, method=m, blocks=blocks)
            for u in range(1, users + 1):
                rows.append(dict(base, user=u, errors=e // users, bits=blocks * info_bits,
                                 ber=(e // users) / (blocks * info_bits)))
            rows.append(dict(base, user="all", errors=e, bits=users * blocks * info_bits,
                             ber=e / (users * blocks * info_bits)))
    return rows


GOOD = {"gnnd": {8.0: 40, 10.0: 6}, "cl": {8.0: 300, 10.0: 200}}


def test_ber_checks_pass_good_rows():
    rows = _ber_rows(GOOD)
    assert checks.check_full_cap(rows, 2, 4, 440) == []
    assert checks.check_better(rows, ("gnnd",), "cl") == []
    assert checks.check_not_rising(rows, ("gnnd", "cl")) == []
    assert checks.check_ber_open(rows, ("gnnd", "cl")) == []
    assert checks.check_rows_equal(rows, _ber_rows(GOOD), "cl") == []


def test_ber_check_rejects_swapped_gnnd_cl():
    rows = _ber_rows({"gnnd": GOOD["cl"], "cl": GOOD["gnnd"]})
    assert {key for key, _ in checks.check_better(rows, ("gnnd",), "cl")} == {8.0, 10.0}


def test_ber_check_rejects_short_block_count():
    rows = _ber_rows(GOOD, blocks=3)
    fails = checks.check_full_cap(rows, 2, 4, 440)
    assert len(fails) == len(rows)


def test_ber_check_rejects_rising_curve_and_closed_range():
    rows = _ber_rows({"gnnd": {8.0: 6, 10.0: 40}, "cl": {8.0: 0, 10.0: 200}})
    assert [key for key, _ in checks.check_not_rising(rows, ("gnnd",))] == [10.0]
    assert [key for key, _ in checks.check_ber_open(rows, ("cl",))] == [8.0]


def test_ber_checks_reject_missing_method():
    rows = _ber_rows({"gnnd": GOOD["gnnd"]})
    for fails in (checks.check_better(rows, ("gnnd",), "cl"),
                  checks.check_not_rising(rows, ("cl",)),
                  checks.check_ber_open(rows, ("cl",))):
        assert [key for key, _ in fails] == [None]


def test_rows_equal_rejects_changed_row():
    ref = _ber_rows(GOOD)
    rows, hit = _doctor(ref, method="cl", snr_db=10.0, user=1)
    hit[0]["errors"] += 1
    assert [key for key, _ in checks.check_rows_equal(rows, ref, "cl")] == [10.0]


def test_self_times_subtract_children():
    spans = [["harness", 0.0, 10.0, -1], ["ldpc.bp", 1.0, 4.0, 0],
             ["channel.crandn", 2.0, 3.0, 1], ["channel.crandn", 5.0, 5.5, 0]]
    t = tracing.self_times(spans)
    assert (t["harness"], t["ldpc.bp"], t["channel.crandn"]) == (6.5, 2.0, 1.5)


def test_tracer_restores_wrapped_names():
    before = (harness.viterbi, harness.JointEnumeration.evaluate)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert harness.viterbi is not before[0]
    finally:
        tracer.uninstall()
    assert (harness.viterbi, harness.JointEnumeration.evaluate) == before
    assert tracer.missing == []
