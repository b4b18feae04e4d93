"""Golden-file checks: output schemas and seeded values must not drift."""

from pathlib import Path

from gnndsim.config import ExperimentConfig
from gnndsim.harness import run_gmi_sweep, run_ldpc_ber, run_scatter, run_viterbi_ber

GOLDEN = Path(__file__).parent / "golden"


def _normalized(text: str) -> list[str]:
    # the output path echo necessarily differs between runs
    return [l for l in text.splitlines() if not l.startswith("# out =")]


def _check(runner, golden, tmp_path, **fields):
    out = tmp_path / golden
    runner(ExperimentConfig(out=str(out), **fields))
    assert _normalized(out.read_text()) == _normalized((GOLDEN / golden).read_text())


def test_gmi_sweep_golden(tmp_path):
    _check(run_gmi_sweep, "gmi_sweep_small.csv", tmp_path, kind="gmi-sweep",
           seed=7, users=1, antennas=1, snr_db=(0.0,), methods=("gnnd", "mi"),
           draws=1, samples=2000)


def test_scatter_golden(tmp_path):
    _check(run_scatter, "scatter_small.csv", tmp_path, kind="scatter", seed=7,
           users=2, antennas=2, snr_db=(12.0,), samples=8)


# BER rows are integer error counts, so these pins do not hang on the last
# float bits of a BLAS call; they catch any drift in the decoding chain


def test_viterbi_ber_golden(tmp_path):
    _check(run_viterbi_ber, "viterbi_small.csv", tmp_path, kind="viterbi-ber",
           seed=7, users=4, antennas=4, receiver="sic",
           methods=("gnnd", "cl", "ml"), snr_db=(2.0, 6.0), blocks=3, info_bits=32)


def test_ldpc_ber_golden(tmp_path):
    _check(run_ldpc_ber, "ldpc_small.csv", tmp_path, kind="ldpc-ber", seed=7,
           users=2, antennas=4, methods=("gnnd", "cl"), snr_db=(3.0, 6.0),
           draws=2, blocks=4, min_errors=10**6)


def test_ldpc_ber_net_golden(tmp_path):
    _check(run_ldpc_ber, "ldpc_net_small.csv", tmp_path, kind="ldpc-ber", seed=7,
           users=2, antennas=4, methods=("gnnd", "cl"), snr_db=(6.0,),
           pilot_power="16P", net=True, net_samples=2000, net_epochs=1,
           draws=2, blocks=4, min_errors=10**6)
