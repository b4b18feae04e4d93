"""Set-up of one benchmark workload in a fresh interpreter.

Usage: python3 bench/setup_probe.py <src dir> <structures> <config file>

Imports numpy and gnndsim, parses the config and builds the fixed code
structure ("ldpc", "conv" or ""), then prints ``time.monotonic()``: the
moment the first runner call would start. CLOCK_MONOTONIC is shared by all
processes of the machine, so the caller subtracts its own reading taken
before the start.
"""

import sys
import time

src, structures, path = sys.argv[1:4]
sys.path.insert(0, src)

import numpy  # noqa: E402,F401

from gnndsim import harness  # noqa: E402
from gnndsim.config import load_config  # noqa: E402

cfg = load_config(path)
harness.user_constellation(cfg)
if structures == "ldpc":
    harness.ldpc_build()
elif structures == "conv":
    harness.make_conv_code_57()
print(repr(time.monotonic()))
