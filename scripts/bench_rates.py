"""Time the rate engine at the ``gmi-4x4`` shape and print one JSON line.

    python scripts/bench_rates.py

Calls ``evaluate_user_rates`` with 4 QPSK users at power 1/4, 4 antennas,
no SIC and 16,384 samples, on the gains of draw 0 of seed 7 as the
``gmi-4x4`` benchmark draws them, at its six SNR points (-5 to 20 dB). Each
method alone, and gnnd, cl and mi together as the workload asks for them,
is timed over ROUNDS rounds of the six points, after one warm-up round;
the methods take turns within each round. The line gives, per method, the
median and best call in milliseconds. BLAS is pinned to one thread before
numpy loads. The package is imported from this checkout's ``src``.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from gnndsim.channel import sample_gains  # noqa: E402
from gnndsim.constellation import make_qpsk  # noqa: E402
from gnndsim.rates import evaluate_user_rates  # noqa: E402

SNR_DB = (-5.0, 0.0, 5.0, 10.0, 15.0, 20.0)
SAMPLES = 16384
ROUNDS = 12
METHODS = {"gnnd": ("gnnd",), "cl": ("cl",), "mi": ("mi",), "gnnd+cl+mi": ("gnnd", "cl", "mi")}


def main() -> None:
    gains = sample_gains(4, 4, np.random.default_rng(np.random.SeedSequence((7, 0))))
    qpsk = make_qpsk(0.25)
    secs = {name: [] for name in METHODS}
    for round_ in range(ROUNDS + 1):
        for name, methods in METHODS.items():
            for i, snr in enumerate(SNR_DB):
                rng = np.random.default_rng(i)
                start = time.perf_counter()
                evaluate_user_rates(gains, 10 ** (-snr / 10), qpsk, None, methods, "no-sic",
                                    SAMPLES, rng)
                if round_:
                    secs[name].append(time.perf_counter() - start)
    out = {"samples": SAMPLES, "calls": ROUNDS * len(SNR_DB), "numpy": np.__version__,
           "blas_threads": 1}
    for name, s in secs.items():
        out[name] = {"median_ms": round(float(np.median(s)) * 1e3, 3),
                     "best_ms": round(min(s) * 1e3, 3)}
    print(json.dumps(out))


if __name__ == "__main__":
    main()
