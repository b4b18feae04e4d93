"""Layer spans recorded from outside the program.

The tracer wraps the names the runners call, module globals and class
methods alike, and records one span (name, start, end, parent) per call.
Spans stay in memory while the runner works. A layer's self time is the
duration of its spans minus the time their child spans cover. Nothing
inside the program changes, so BP iterations and the numerical-guard
counters stay out of sight.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

ROOT = "harness"


# counters: (counts, args, kwargs, result) -> None, run after the wrapped call
def _count_enum(counts, args, kwargs, out):
    enum, y = args[0], (args[1] if len(args) > 1 else kwargs["y"])
    n = y.shape[-1] if getattr(y, "ndim", 1) > 1 else 1
    counts["posterior.obs"] += n
    counts["posterior.hyp"] += n * enum.n_combos


def _count_conv(counts, args, kwargs, out):
    counts["conv.steps"] += len(args[0])


def _count_bp(counts, args, kwargs, out):
    counts["ldpc.bp_words"] += len(out[1])
    counts["ldpc.bp_converged"] += int(out[1].sum())


def _count_train(counts, args, kwargs, out):
    cfg = args[2] if len(args) > 2 else kwargs["config"]
    counts["mmse_net.train_samples"] += cfg.samples * cfg.epochs


# (module, owner inside the module or "", attribute, span name, counter);
# a class method is wrapped on its class, a module global on the module
# that calls it
TARGETS = (
    ("gnndsim.posterior", "JointEnumeration", "__init__", "posterior.init", None),
    ("gnndsim.posterior", "JointEnumeration", "evaluate", "posterior.evaluate", _count_enum),
    ("gnndsim.posterior", "PosteriorBatch", "mean", "posterior.means", None),
    ("gnndsim.posterior", "PosteriorBatch", "means_all", "posterior.means", None),
    ("gnndsim.posterior", "PosteriorBatch", "user_log_likelihood", "posterior.ull", None),
    ("gnndsim.harness", "", "evaluate_user_rates", "rates.engine", None),
    ("gnndsim.rates", "", "cl_gmi_from_scalar", "rates.cl_gmi", None),
    ("gnndsim.rates", "", "gnnd_gmi_samples", "rates.gnnd_gmi", None),
    ("gnndsim.rates", "", "cl_front", "fronts.cl_front", None),
    ("gnndsim.harness", "", "cl_front", "fronts.cl_front", None),
    ("gnndsim.harness", "", "qpsk_estimates", "fronts.qpsk_estimates", None),
    ("gnndsim.harness", "", "viterbi", "conv.viterbi", _count_conv),
    ("gnndsim.harness", "", "conv_encode", "conv.encode", None),
    ("gnndsim.harness", "", "bp_decode_batch", "ldpc.bp", _count_bp),
    ("gnndsim.harness", "", "ldpc_encode", "ldpc.encode", None),
    ("gnndsim.harness", "", "bit_llrs", "llr.bit_llrs", None),
    ("gnndsim.harness", "", "make_dataset", "mmse_net.dataset", None),
    ("gnndsim.harness", "", "train", "mmse_net.train", _count_train),
    ("gnndsim.mmse_net", "", "predict", "mmse_net.predict", None),
    ("gnndsim.channel", "", "crandn", "channel.crandn", None),
    ("gnndsim.harness", "", "crandn", "channel.crandn", None),
    ("gnndsim.rates", "", "crandn", "channel.crandn", None),
    ("gnndsim.mmse_net", "", "crandn", "channel.crandn", None),
)

SPANS = sorted({t[3] for t in TARGETS} | {ROOT})
# spans whose own code is not a layer: report their self time under this name
SELF_NAMES = {ROOT: "harness.self_s", "rates.engine": "rates.engine_self_s"}
COUNTS = ("posterior.obs", "posterior.hyp", "conv.steps", "ldpc.bp_words",
          "ldpc.bp_converged", "mmse_net.train_samples")


class Tracer:
    """Spans of the runner calls made between ``install()`` and
    ``uninstall()``; the latter restores every wrapped name."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index]
        self.counts = defaultdict(int)
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self.missing: list[str] = []

    def _wrap(self, name, fn, counter):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if counter is not None:
                counter(counts, args, kwargs, out)
            return out

        return wrapper

    def install(self):
        for mod_name, owner_name, attr, span, counter in TARGETS:
            mod = importlib.import_module(mod_name)
            owner = getattr(mod, owner_name) if owner_name else mod
            fn = getattr(owner, attr, None)
            if fn is None:
                self.missing.append(f"{mod_name}.{owner_name + '.' if owner_name else ''}{attr}")
                continue
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(span, fn, counter))
        if self.missing:
            print("trace: not found, left unwrapped: " + ", ".join(self.missing),
                  file=sys.stderr)

    def uninstall(self):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def call(self, fn, *args):
        """Run ``fn(*args)`` inside a root span."""
        return self._wrap(ROOT, fn, None)(*args)


def self_times(spans) -> dict:
    """Duration of each span name minus the time its child spans cover."""
    out = dict.fromkeys(SPANS, 0.0)
    for name, start, end, _ in spans:
        out[name] = out.get(name, 0.0) + (end - start)
    for _, start, end, parent in spans:
        if parent >= 0:
            out[spans[parent][0]] -= end - start
    return out


def layer_metrics(spans, counts) -> dict:
    """Self seconds per span name plus the counters, as metric values."""
    metrics = {SELF_NAMES.get(name, f"{name}_s"): v
               for name, v in self_times(spans).items()}
    metrics.update({name: counts.get(name, 0) for name in COUNTS})
    return metrics
