"""The benchmark's traced mode (``bench/run.py --trace 1``) wraps classes and
module globals of the package by name, so each must stay where it looks."""

import importlib.util
from pathlib import Path

import pytest

from gnndsim import harness
from gnndsim.config import ExperimentConfig

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
needs_tracing = pytest.mark.skipif(not TRACING.is_file(),
                                   reason="no bench/tracing.py in this tree")


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.Tracer()


@needs_tracing
def test_tracer_installs_and_restores_its_targets():
    viterbi = harness.viterbi
    tracer = _tracer()
    try:
        tracer.install()
        assert harness.viterbi is not viterbi
    finally:
        tracer.uninstall()
    assert harness.viterbi is viterbi


# names the tracer looks up and the package no longer has; each reads 0 in
# its per-layer metric until the benchmark drops it
STALE_TARGETS = ["gnndsim.posterior.PosteriorBatch.user_log_likelihood",
                 "gnndsim.harness.crandn", "gnndsim.rates.crandn", "gnndsim.mmse_net.crandn"]


@needs_tracing
def test_tracer_finds_every_live_target():
    # a refactor that moves a traced name fails here, not as a silent 0
    tracer = _tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert tracer.missing == STALE_TARGETS


@needs_tracing
@pytest.mark.parametrize("run, cfg, draws", [
    # one gain draw, then one noise draw per SNR point (one rate chunk each)
    (harness.run_gmi_sweep,
     ExperimentConfig(kind="gmi-sweep", seed=3, users=2, antennas=2, snr_db=(0.0, 10.0),
                      draws=1, samples=500), 3),
    # a gain draw and a noise draw per block
    (harness.run_viterbi_ber,
     ExperimentConfig(kind="viterbi-ber", seed=3, users=2, antennas=2, snr_db=(4.0,),
                      receiver="sic", methods=("gnnd", "cl"), blocks=3,
                      min_errors=10**6, info_bits=8), 6),
], ids=["gmi-sweep", "viterbi-ber"])
def test_traced_runner_draws_every_gaussian_through_crandn(run, cfg, draws):
    # the traced channel.crandn span times the noise only while every draw
    # goes through it
    tracer = _tracer()
    try:
        tracer.install()
        tracer.call(run, cfg)
    finally:
        tracer.uninstall()
    names = [span[0] for span in tracer.spans]
    assert names.count("channel.crandn") == draws
    assert "fronts.cl_front" in names


SHARED_LDPC = {"ldpc.bp", "ldpc.encode", "llr.bit_llrs", "fronts.cl_front",
               "fronts.qpsk_estimates", "channel.crandn"}


@needs_tracing
@pytest.mark.parametrize("run, cfg, spans", [
    (harness.run_gmi_sweep,
     ExperimentConfig(kind="gmi-sweep", seed=3, users=2, antennas=2, snr_db=(5.0,),
                      draws=1, samples=300),
     {"channel.crandn", "fronts.cl_front", "posterior.means", "rates.cl_gmi",
      "rates.engine", "rates.gnnd_gmi"}),
    (harness.run_viterbi_ber,
     ExperimentConfig(kind="viterbi-ber", seed=3, users=2, antennas=2, snr_db=(4.0,),
                      methods=("gnnd", "cl", "ml"), blocks=2, info_bits=8),
     {"conv.encode", "conv.viterbi", "fronts.cl_front", "fronts.qpsk_estimates",
      "posterior.means", "channel.crandn"}),
    (harness.run_ldpc_ber,
     ExperimentConfig(kind="ldpc-ber", seed=3, users=2, antennas=2, snr_db=(4.0,),
                      methods=("gnnd", "cl"), draws=1, blocks=1),
     SHARED_LDPC | {"posterior.means"}),
    (harness.run_ldpc_ber,
     ExperimentConfig(kind="ldpc-ber", seed=3, users=2, antennas=2, snr_db=(4.0,),
                      methods=("gnnd", "cl"), draws=1, blocks=1, net=True,
                      net_samples=200, net_epochs=1, net_batch=100),
     SHARED_LDPC | {"mmse_net.dataset", "mmse_net.train", "mmse_net.predict"}),
    (harness.run_scatter,
     ExperimentConfig(kind="scatter", seed=3, users=2, antennas=2, snr_db=(10.0,),
                      samples=50),
     {"channel.crandn", "fronts.qpsk_estimates", "posterior.means"}),
], ids=["gmi-sweep", "viterbi-ber", "ldpc-ber", "ldpc-ber-net", "scatter"])
def test_each_runner_records_its_spans(run, cfg, spans):
    # a call site moved out of its traced module loses its span here, where
    # the tracer's missing list, which sees only names that are gone, cannot
    tracer = _tracer()
    try:
        tracer.install()
        tracer.call(run, cfg)
    finally:
        tracer.uninstall()
    assert {span[0] for span in tracer.spans} == spans | {"harness"}
