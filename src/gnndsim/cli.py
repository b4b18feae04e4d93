"""Command-line entry point for the experiment harness."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .channel import estimate_channel, sample_gains
from .config import apply_paper_scale, load_config, pilot_power_value
from .harness import (
    noise_var_for,
    run_gmi_sweep,
    run_ldpc_ber,
    run_scatter,
    run_viterbi_ber,
    train_user_model,
    user_constellation,
)
from .mmse_net import save_model

RUNNERS = {
    "gmi-sweep": run_gmi_sweep,
    "scatter": run_scatter,
    "viterbi-ber": run_viterbi_ber,
    "ldpc-ber": run_ldpc_ber,
}


def _train_net_command(cfg):
    """Train one conditional-mean model per user and save checkpoints."""
    if not cfg.out:
        raise SystemExit("train-net requires an output path (--out or out =)")
    ss = np.random.SeedSequence((cfg.seed, 3))
    rng = np.random.default_rng(ss)
    noise_var = noise_var_for(cfg, cfg.snr_db[0])
    gains = sample_gains(cfg.users, cfg.antennas, rng)
    gains_hat = estimate_channel(gains, pilot_power_value(cfg), noise_var, rng).gains_hat
    consts = user_constellation(cfg)
    for user, seq in enumerate(ss.spawn(cfg.users)):
        model, trace = train_user_model(cfg, gains_hat, consts, noise_var, user, seq)
        path = f"{cfg.out}.user{user + 1}.npz"
        save_model(path, model)
        print(f"user {user + 1}: final training loss {trace[-1]:.5g} -> {path}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gnndsim",
        description="link-level simulations of nearest-neighbor style decoding "
                    "for multiuser uplink interference suppression")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in (*RUNNERS, "train-net"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="experiment config file")
        p.add_argument("--seed", type=int, default=None, help="override the seed")
        p.add_argument("--out", default=None, help="override the output path")
        p.add_argument("--threads", type=int, default=None, help="worker count")
        p.add_argument("--paper-scale", action="store_true",
                       help="switch desk-scale sampling defaults to full scale")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cfg = load_config(args.config)
    if cfg.kind != args.command:
        raise SystemExit(f"config is for kind {cfg.kind!r}, "
                         f"but subcommand {args.command!r} was invoked")
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.out is not None:
        overrides["out"] = args.out
    if args.threads is not None:
        overrides["threads"] = args.threads
    if overrides:
        cfg = replace(cfg, **overrides)
    if args.paper_scale:
        cfg = apply_paper_scale(cfg)
    if args.command == "train-net":
        _train_net_command(cfg)
        return 0
    result = RUNNERS[args.command](cfg)
    sys.stderr.write(f"{len(result.rows)} rows in {result.runtime:.1f}s\n")
    if cfg.out:
        sys.stderr.write(f"wrote {cfg.out}\n")
    else:
        sys.stdout.write(",".join(result.columns) + "\n")
        for row in result.rows:
            sys.stdout.write(",".join(str(row[c]) for c in result.columns) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
