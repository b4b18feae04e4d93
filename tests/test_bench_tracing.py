"""The benchmark's traced mode (``bench/run.py --trace 1``) wraps classes and
module globals of the package by name, so each must stay where it looks."""

import importlib.util
from pathlib import Path

import pytest

from gnndsim import harness

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


@pytest.mark.skipif(not TRACING.is_file(), reason="no bench/tracing.py in this tree")
def test_tracer_installs_and_restores_its_targets():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    viterbi = harness.viterbi
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert harness.viterbi is not viterbi
    finally:
        tracer.uninstall()
    assert harness.viterbi is viterbi
