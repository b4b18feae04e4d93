"""Time the Viterbi kernel alone and print one JSON line.

    python scripts/bench_viterbi.py

Decodes seeded ``(B, 130, 4)`` metric tables of the (5, 7) code over QPSK,
130 trellis steps as in a 128-bit block plus its two flush steps, at
B = 48, 144 and 288 words. Each size is decoded once to warm up, then timed
over 50 calls; the line gives the median and best call in milliseconds.
BLAS is pinned to one thread before numpy loads. The package is imported
from this checkout's ``src``.
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

from gnndsim.codec import make_conv_code_57, viterbi  # noqa: E402
from gnndsim.constellation import make_qpsk  # noqa: E402

WORDS = (48, 144, 288)
STEPS = 130
CALLS = 50


def main() -> None:
    code, qpsk = make_conv_code_57(), make_qpsk(1.0)
    rng = np.random.default_rng(2024)
    out = {"steps": STEPS, "calls": CALLS, "numpy": np.__version__, "blas_threads": 1}
    for n_words in WORDS:
        tables = rng.standard_normal((n_words, STEPS, qpsk.size)) ** 2
        viterbi(tables, code, qpsk)
        secs = []
        for _ in range(CALLS):
            start = time.perf_counter()
            viterbi(tables, code, qpsk)
            secs.append(time.perf_counter() - start)
        out[f"B{n_words}"] = {"median_ms": round(float(np.median(secs)) * 1e3, 4),
                              "best_ms": round(min(secs) * 1e3, 4)}
    print(json.dumps(out))


if __name__ == "__main__":
    main()
