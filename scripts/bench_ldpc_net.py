"""Time the two kernels of the LDPC net workload alone and print one JSON line.

    python scripts/bench_ldpc_net.py

BP: ``bp_decode_batch`` on the pinned rate-5/6 code with seeded LLRs drawn
independently of any codeword, so no word converges and every call runs
all 50 iterations, at B = 4 and 8 words. Each size is decoded once to warm
up, then timed over 30 calls; the line gives the median and best call in
milliseconds.

Training: ``train`` on a seeded dataset of the ``ldpc-4x8-net`` shape
(4 QPSK users, 8 antennas, the 16-200-100-50-2 network, 4,000 samples,
batch 500), 15 calls each of 1 and of 3 epochs, alternated after a warm-up.
A step costs the difference of the two best calls over the 16 extra steps;
what is left of the best 1-epoch call after its 8 steps is the set-up, the
model's initialisation and the 4,000-row divergence probe. Best calls are
used because on a shared host a burst of other work can lift a whole
median, and a difference of two medians then means little.

Minor page faults per call come from ``resource.getrusage`` around the
timed calls. BLAS is pinned to one thread before numpy loads. The package
is imported from this checkout's ``src``.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from gnndsim.channel import sample_gains  # noqa: E402
from gnndsim.codec import bp_decode_batch, ldpc_build  # noqa: E402
from gnndsim.constellation import make_qpsk  # noqa: E402
from gnndsim.mmse_net import TrainConfig, default_sizes, make_dataset, train  # noqa: E402

BP_WORDS = (4, 8)
BP_ITERS = 50
BP_CALLS = 30
USERS, ANTENNAS, SAMPLES, BATCH = 4, 8, 4000, 500
TRAIN_CALLS = 15


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def timed(fn, calls: int) -> tuple[list[float], float]:
    """Seconds of each of ``calls`` calls after one warm-up, and the minor
    page faults per call."""
    fn()
    faults = minor_faults()
    secs = []
    for _ in range(calls):
        start = time.perf_counter()
        fn()
        secs.append(time.perf_counter() - start)
    return secs, (minor_faults() - faults) / calls


def main() -> None:
    rng = np.random.default_rng(2024)
    out = {"numpy": np.__version__, "blas_threads": 1}

    graph = ldpc_build().graph
    for n_words in BP_WORDS:
        llrs = rng.normal(0.0, 2.0, size=(n_words, graph.n))
        secs, faults = timed(lambda: bp_decode_batch(graph, llrs, BP_ITERS), BP_CALLS)
        out[f"bp_B{n_words}"] = {"median_ms": round(float(np.median(secs)) * 1e3, 4),
                                 "best_ms": round(min(secs) * 1e3, 4),
                                 "minor_faults": faults}

    power = 1.0 / USERS
    dataset = make_dataset(sample_gains(USERS, ANTENNAS, rng), make_qpsk(power),
                           power, 0, SAMPLES, rng)
    sizes = default_sizes(ANTENNAS)
    configs = {epochs: TrainConfig(samples=SAMPLES, epochs=epochs, batch_size=BATCH,
                                   learning_rate=1e-3, seed=7) for epochs in (1, 3)}
    secs = {epochs: [] for epochs in configs}
    faults = dict.fromkeys(configs, 0)
    for cfg in configs.values():
        train(dataset, sizes, cfg)
    for _ in range(TRAIN_CALLS):
        for epochs, cfg in configs.items():
            before = minor_faults()
            start = time.perf_counter()
            train(dataset, sizes, cfg)
            secs[epochs].append(time.perf_counter() - start)
            faults[epochs] += minor_faults() - before
    steps = SAMPLES // BATCH
    step = (min(secs[3]) - min(secs[1])) / (2 * steps)
    out["train_step"] = {"batch": BATCH, "best_ms": round(step * 1e3, 4),
                         "minor_faults": (faults[3] - faults[1]) / (2 * steps * TRAIN_CALLS)}
    out["train_setup"] = {"probe_rows": SAMPLES,
                          "best_ms": round((min(secs[1]) - steps * step) * 1e3, 4)}
    out["train_3_epochs"] = {"median_ms": round(float(np.median(secs[3])) * 1e3, 4),
                             "best_ms": round(min(secs[3]) * 1e3, 4),
                             "minor_faults": faults[3] / TRAIN_CALLS}
    print(json.dumps(out))


if __name__ == "__main__":
    main()
