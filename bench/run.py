"""Link-simulator benchmark: one workload, one run.

Usage:
    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Repeats whole rounds, one call of a public runner of ``gnndsim.harness``
each, until ``--seconds`` have passed, in this one process with BLAS pinned
to one thread and ``threads = 1``. Every round's outputs are checked. The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. The workloads are
described in ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
SETUP_STARTS = 20   # set-up probes per run, spread over its length

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"   # before numpy is first imported, here or in a child

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def fail(message: str):
    print(f"bench: {message}", file=sys.stderr)
    raise SystemExit(2)


def load_program():
    """Import gnndsim from this checkout's sources and nowhere else."""
    if not (SRC / "gnndsim" / "__init__.py").is_file():
        fail(f"no gnndsim sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import gnndsim
    if Path(gnndsim.__file__).resolve().parent != SRC / "gnndsim":
        fail(f"gnndsim imported from {gnndsim.__file__}, not from {SRC}")
    from gnndsim import harness
    from gnndsim.config import load_config
    return harness, load_config


def measure_setup(structures: str, cfg_path) -> float:
    """Seconds from a fresh interpreter to the first runner call."""
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), str(SRC), structures,
         str(cfg_path)],
        capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout.split()[-1]) - start


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_round(runner, cfg, tracer=None):
    """One runner call: (rows or None if it raised, seconds, error)."""
    start = time.perf_counter()
    try:
        rows, error = (tracer.call(runner, cfg) if tracer else runner(cfg)).rows, None
    except Exception:  # a raising call fails all its operations; the run goes on
        rows, error = None, traceback.format_exc()
    return rows, time.perf_counter() - start, error


def failed_ops(wl, cfg, rows, first_rows, reference):
    """Operations of one round that raised or whose outputs failed a check."""
    ops = wl.ops(cfg)
    if rows is None:
        return sum(ops.values()), []
    if rows != first_rows:
        return sum(ops.values()), ["rows differ from the first round's"]
    fails = wl.check(cfg, rows, reference)
    bad = {key for key, _ in fails}
    if bad - set(ops):   # a failure not tied to one operation fails them all
        bad = set(ops)
    return sum(ops[k] for k in bad), [message for _, message in fails]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    harness, load_config = load_program()
    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}")
    wl = WORKLOADS[args.workload]

    OUT.mkdir(exist_ok=True)
    cfg_path = OUT / f"{wl.name}-seed{args.seed}.cfg"
    cfg_path.write_text(wl.config(args.seed))
    cfg = load_config(cfg_path)
    runner = getattr(harness, wl.runner)

    # (rows, seconds, tracer or None); with --trace 1 every second round is traced.
    # Set-up probes fall due at even times over the run; every probe that is
    # due runs before the next round, so that they see the same machine as
    # the rounds do.
    rounds = []
    messages = []
    setups = []
    start = time.perf_counter()
    while (time.perf_counter() - start < args.seconds
           or (args.trace and len(rounds) < 2)):
        while (not args.trace and len(setups) < SETUP_STARTS
               and time.perf_counter() - start >= len(setups) * args.seconds / SETUP_STARTS):
            setups.append(measure_setup(wl.structures, cfg_path))
        tracer = tracing.Tracer() if args.trace and len(rounds) % 2 else None
        if tracer:
            tracer.install()
        try:
            rows, secs, error = run_round(runner, cfg, tracer)
        finally:
            if tracer:
                tracer.uninstall()
        if error:
            messages.append(error)
        rounds.append((rows, secs, tracer))
    peak = peak_rss_mib()
    while not args.trace and len(setups) < SETUP_STARTS:
        setups.append(measure_setup(wl.structures, cfg_path))

    reference = wl.reference(cfg, harness) if wl.reference else None
    per_round = sum(wl.ops(cfg).values())
    failed = 0
    for rows, _, _ in rounds:
        n_failed, msgs = failed_ops(wl, cfg, rows, rounds[0][0], reference)
        failed += n_failed
        messages += msgs
    for m in dict.fromkeys(messages):
        print(f"check failed: {m}", file=sys.stderr)

    if args.trace:
        metrics = trace_metrics(rounds, wl, args.seed)
    else:
        uses = wl.chan_uses(cfg)
        metrics = {"chan_uses_per_s": (statistics.median(uses / s for _, s, _ in rounds),
                                       "1/s"),
                   "setup_s": (statistics.median(setups), "s"),
                   "peak_rss_mib": (peak, "MiB")}
    print(f"{wl.name} seed {args.seed}: {len(rounds)} rounds "
          f"in {time.perf_counter() - start:.1f} s")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({"correct": not messages, "attempted": per_round * len(rounds),
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


def trace_metrics(rounds, wl, seed) -> dict:
    """Median per-round layer metrics of the traced rounds, the tracing
    overhead, and the spans written to ``bench/out``."""
    traced = [(secs, tracer) for _, secs, tracer in rounds if tracer]
    plain = [secs for _, secs, tracer in rounds if not tracer]
    if len(plain) > 1:
        plain = plain[1:]   # the first round also pays for warming up
    layers = [tracing.layer_metrics(tracer.spans, tracer.counts) for _, tracer in traced]
    metrics = {name: (statistics.median(m[name] for m in layers), "s")
               if name.endswith("_s") else
               (statistics.median_low(m[name] for m in layers), "count")
               for name in layers[0]}
    metrics["trace.overhead_s"] = (statistics.median(s for s, _ in traced)
                                   - statistics.median(plain), "s")
    spans = [{"round": i, "spans": tracer.spans} for i, (_, tracer) in enumerate(traced)]
    (OUT / f"trace-{wl.name}-seed{seed}.json").write_text(json.dumps(spans))
    return metrics


if __name__ == "__main__":
    sys.exit(main())
