#!/usr/bin/env python3
"""Run every example config at desk scale and collect CSVs under results/.

Pass --paper-scale to switch to the full-scale sampling settings (hours of
runtime). Individual runs can be reproduced with the gnndsim CLI directly,
e.g. `gnndsim gmi-sweep --config configs/gmi_sweep_4x4.cfg`. The package
must be importable, as for the CLI: `PYTHONPATH=src python scripts/...`.
`--threads` goes to the runners that read it, gmi-sweep and viterbi-ber.

After each run it prints the run's wall time and the peak resident memory
of its process, then one sha256 line per output: the CSV less its
`# out =` line, and each `train-net` checkpoint over its members' names and
bytes (the zip container stamps the time of writing). Two runs wrote the
same outputs when their logs show the same digests.
"""

import argparse
import hashlib
import os
import subprocess
import sys
import time
import zipfile
from pathlib import Path

from gnndsim.config import THREADED_KINDS, ExperimentConfig, load_config

ROOT = Path(__file__).resolve().parents[1]


def output_digest(path: Path) -> str:
    h = hashlib.sha256()
    if path.suffix == ".npz":
        with zipfile.ZipFile(path) as zf:
            for name in sorted(zf.namelist()):
                h.update(name.encode() + b"\0" + zf.read(name))
    else:
        for line in path.read_bytes().splitlines(keepends=True):
            if not line.startswith(b"# out ="):
                h.update(line)
    return h.hexdigest()


def outputs(cfg: ExperimentConfig) -> list[Path]:
    if not cfg.out:
        return []
    if cfg.kind == "train-net":
        return sorted((ROOT / cfg.out).parent.glob(Path(cfg.out).name + ".user*.npz"))
    return [ROOT / cfg.out]


def run_child(cmd) -> tuple[float, float]:
    """Run ``cmd`` from the repository root; return its wall time (s) and
    its own peak RSS (MiB), from the rusage of its wait: RUSAGE_CHILDREN
    would give the largest over every child so far."""
    start = time.time()
    proc = subprocess.Popen(cmd, cwd=ROOT)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode:
        raise subprocess.CalledProcessError(proc.returncode, cmd)
    return time.time() - start, usage.ru_maxrss / 1024.0


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--paper-scale", action="store_true")
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--only", default=None,
                        help="substring filter on config names")
    args = parser.parse_args()

    (ROOT / "results").mkdir(exist_ok=True)
    configs = sorted((ROOT / "configs").glob("*.cfg"))
    if args.only:
        configs = [c for c in configs if args.only in c.name]
    for cfg_path in configs:
        cfg = load_config(cfg_path)
        cmd = [sys.executable, "-m", "gnndsim.cli", cfg.kind, "--config", str(cfg_path)]
        if cfg.kind in THREADED_KINDS:  # the other runners reject threads > 1
            cmd += ["--threads", str(args.threads)]
        if args.paper_scale:
            cmd.append("--paper-scale")
        print(f"== {cfg_path.name}", flush=True)
        seconds, peak_mib = run_child(cmd)
        print(f"   done in {seconds:.1f}s, peak RSS {peak_mib:.1f} MiB", flush=True)
        for path in outputs(cfg):
            print(f"   sha256 {output_digest(path)}  {path.relative_to(ROOT)}", flush=True)


if __name__ == "__main__":
    main()
