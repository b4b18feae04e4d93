"""The three benchmark workloads: configs made from the workload seed, the
work each config stands for, and the checks of its outputs.

A round is one runner call. Its config is generated from the seed alone,
so every round of a run repeats the same work and must return the same
rows.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

import checks

NEVER = 1_000_000_000    # min_errors out of reach: every method decodes the full cap
CONV_FLUSH = 2           # zero-termination steps of the (5, 7) conv code
LDPC_SYMBOLS = 264       # QPSK symbols per rate-5/6 LDPC word of 528 bits
LDPC_INFO_BITS = 440
MI_CHECK_SAMPLES = 16384


def config_text(**fields) -> str:
    def fmt(v):
        return ",".join(str(x) for x in v) if isinstance(v, (tuple, list)) else str(v)
    return "".join(f"{k} = {fmt(v)}\n" for k, v in fields.items())


@dataclass(frozen=True)
class Workload:
    name: str
    runner: str                           # name of the runner in gnndsim.harness
    structures: str                       # fixed code structure built at set-up
    config: Callable[[int], str]          # config text of a round, from the seed
    check: Callable                       # (cfg, rows, reference) -> failures
    reference: Callable | None = None     # (cfg, harness) -> data computed once per run

    def ops(self, cfg) -> dict:
        """Operation key -> operation count of one round."""
        if cfg.kind == "gmi-sweep":
            return {(d, s): 1 for d in range(cfg.draws) for s in cfg.snr_db}
        return {s: cfg.blocks for s in cfg.snr_db}

    def chan_uses(self, cfg) -> int:
        """Received vectors y one round processes."""
        if cfg.kind == "gmi-sweep":
            return cfg.draws * len(cfg.snr_db) * cfg.samples
        per_block = (cfg.info_bits + CONV_FLUSH if cfg.kind == "viterbi-ber"
                     else LDPC_SYMBOLS)
        return len(cfg.snr_db) * cfg.blocks * per_block


# --------------------------------------------------------------------------
# gmi-4x4: the rate engine, one shared 256-hypothesis enumeration per chunk

GMI_SNR = (-5.0, 0.0, 5.0, 10.0, 15.0, 20.0)
GMI_MI_POINT = (0, 5.0)    # (draw, snr) of the independent MI estimate


def _gmi_config(seed):
    return config_text(kind="gmi-sweep", seed=seed, users=4, antennas=4,
                       snr_db=GMI_SNR, receiver="no-sic", methods=("gnnd", "cl", "mi"),
                       draws=1, samples=16384, threads=1)


def _gmi_reference(cfg, harness):
    draw, snr = GMI_MI_POINT
    gains = harness.sample_gains(cfg.users, cfg.antennas, np.random.default_rng(
        np.random.SeedSequence((cfg.seed, draw))))
    noise_var = cfg.power / 10 ** (snr / 10)
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 0x4D49)))
    return checks.per_user_mi(gains, noise_var, cfg.power / cfg.users,
                              MI_CHECK_SAMPLES, rng)


def _gmi_check(cfg, rows, reference):
    return (checks.check_gmi(rows, cfg.users)
            + checks.check_mi_independent(rows, *GMI_MI_POINT, *reference))


# --------------------------------------------------------------------------
# viterbi-4x4-sic: small batches, a new enumeration per user, block and method

VIT_SNR = (5.0, 7.0, 9.0)


def _viterbi_config(seed):
    return config_text(kind="viterbi-ber", seed=seed, users=4, antennas=4,
                       receiver="sic", methods=("gnnd", "cl", "ml"), snr_db=VIT_SNR,
                       blocks=32, min_errors=NEVER, info_bits=128, threads=1)


def _viterbi_check(cfg, rows, reference):
    return (checks.check_full_cap(rows, cfg.users, cfg.blocks, cfg.info_bits)
            + checks.check_better(rows, ("gnnd", "ml"), "cl")
            + checks.check_not_rising(rows, cfg.methods))


# --------------------------------------------------------------------------
# ldpc-4x8-net: the conditional-mean network and the BP decoder, no enumeration


def _net_config(seed):
    return config_text(kind="ldpc-ber", seed=seed, users=4, antennas=8,
                       methods=("gnnd", "cl"), snr_db=(3.0,), pilot_power="16P",
                       net="on", net_samples=4000, net_epochs=3, net_batch=500,
                       draws=1, blocks=10, min_errors=NEVER, threads=1)


def _net_reference(cfg, harness):
    """The same config with the exact conditional mean: CL does not depend
    on the estimator and both runs share the channel and block draws."""
    return harness.run_ldpc_ber(replace(cfg, net=False)).rows


def _net_check(cfg, rows, reference):
    return (checks.check_full_cap(rows, cfg.users, cfg.blocks, LDPC_INFO_BITS)
            + checks.check_ber_open(rows, cfg.methods)
            + checks.check_rows_equal(rows, reference, "cl"))


WORKLOADS = {w.name: w for w in (
    Workload("gmi-4x4", "run_gmi_sweep", "", _gmi_config, _gmi_check, _gmi_reference),
    Workload("viterbi-4x4-sic", "run_viterbi_ber", "conv", _viterbi_config,
             _viterbi_check),
    Workload("ldpc-4x8-net", "run_ldpc_ber", "ldpc", _net_config, _net_check,
             _net_reference),
)}
