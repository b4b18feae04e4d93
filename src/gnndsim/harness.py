"""Config-driven experiment runners: rate sweeps, estimate scattergrams,
and coded BER measurements for convolutional and LDPC links."""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .channel import estimate_channel, sample_gains, transmit
from .codec import (
    bit_llrs,
    bp_decode_batch,
    conv_encode,
    encode as ldpc_encode,
    ldpc_build,
    make_conv_code_57,
    viterbi,
)
from .config import ExperimentConfig, config_echo, pilot_power_value
from .constellation import make_qpsk, modulate, per_user, sample_symbols
from .fronts import cl_front, nn_tables, qpsk_estimates
from .mmse_net import TrainConfig, default_sizes, make_dataset, mean_fn, train
from .posterior import SplitEnumeration
from .rates import combine_rates, evaluate_user_rates

RATE_CSV_COLUMNS = ("instance_id", "K", "L", "snr_db", "method", "receiver",
                    "user", "rate_bits", "std_err", "samples")
BER_CSV_COLUMNS = ("kind", "K", "L", "snr_db", "method", "receiver", "pilot_power",
                   "user", "errors", "bits", "blocks", "ber")
SCATTER_CSV_COLUMNS = ("true_re", "true_im", "gnnd_re", "gnnd_im",
                       "lmmse_re", "lmmse_im")
SIGMA_U_SAMPLES = 2048
LLR_MAX = 30.0             # LDPC channel LLRs are clipped to +-LLR_MAX
BP_ITERS = 50              # belief-propagation iterations per LDPC word
NET_LR = 1e-3              # Adam step of the conditional-mean networks
VITERBI_WAVE = 16          # blocks per wave, each first user's engine stack; more cost RSS


@dataclass
class SweepResult:
    config: ExperimentConfig
    columns: tuple[str, ...]
    rows: list[dict] = field(default_factory=list)
    runtime: float = 0.0

    def csv_lines(self) -> list[str]:
        """The header and one line per row, each value written by ``str``."""
        return [",".join(self.columns) + "\n",
                *(",".join(str(row[c]) for c in self.columns) + "\n" for row in self.rows)]

    def finish(self, start: float) -> "SweepResult":
        """Record the runtime since ``start`` and write the CSV to the
        config's ``out``, if it names one."""
        self.runtime = time.time() - start
        if self.config.out:
            with open(self.config.out, "w") as fh:
                fh.write(f"# gnndsim {__version__}\n")
                for line in config_echo(self.config):
                    fh.write(f"# {line}\n")
                fh.writelines(self.csv_lines())
        return self


def worker_pool(threads: int):
    """Context manager giving a process pool of ``threads`` workers, or None
    for threads <= 1. A runner holds one for its whole call, so workers
    start once and none outlives it. The pool's module is imported here,
    only when one starts, which spares every serial run its import."""
    if threads <= 1:
        return nullcontext()
    from concurrent.futures import ProcessPoolExecutor
    return ProcessPoolExecutor(max_workers=threads)


def parallel_map(fn, tasks, pool):
    """Apply fn over tasks, in ``pool`` when there is one; order preserved."""
    if pool is None or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    return list(pool.map(fn, tasks))


def noise_var_for(cfg: ExperimentConfig, snr_db: float) -> float:
    return cfg.power / 10 ** (snr_db / 10)


def user_constellation(cfg: ExperimentConfig):
    return make_qpsk(cfg.power / cfg.users)


# --------------------------------------------------------------------------
# rate sweeps


def _gmi_task(args):
    cfg, draw = args
    ss = np.random.SeedSequence((cfg.seed, draw))
    gain_rng, sample_seed = np.random.default_rng(ss), ss.spawn(len(cfg.snr_db))
    gains = sample_gains(cfg.users, cfg.antennas, gain_rng)
    consts = user_constellation(cfg)
    rows = []
    for i, snr in enumerate(cfg.snr_db):
        res = evaluate_user_rates(gains, noise_var_for(cfg, snr), consts, None, cfg.methods,
                                  cfg.receiver, cfg.samples,
                                  np.random.default_rng(sample_seed[i]))
        for method in cfg.methods:
            ests = [res[method][u] for u in range(cfg.users)]
            base = dict(instance_id=draw, K=cfg.users, L=cfg.antennas, snr_db=snr,
                        method=method, receiver=cfg.receiver)
            for user, est in [*enumerate(ests, start=1), ("sum", combine_rates(ests))]:
                rows.append(dict(base, user=user, rate_bits=est.value,
                                 std_err=est.std_error, samples=est.samples))
    return rows


def run_gmi_sweep(cfg: ExperimentConfig) -> SweepResult:
    """Sum rates per (draw, SNR, method); rows flattened per user plus sum."""
    start = time.time()
    with worker_pool(cfg.threads) as pool:
        chunks = parallel_map(_gmi_task, [(cfg, d) for d in range(cfg.draws)], pool)
    result = SweepResult(cfg, RATE_CSV_COLUMNS, [row for chunk in chunks for row in chunk])
    return result.finish(start)


# --------------------------------------------------------------------------
# scattergrams


def lmmse_estimates(gains, noise_var: float, constellations, y, user: int) -> np.ndarray:
    """Linear MMSE estimate of one user's symbol from the raw observation."""
    consts = per_user(constellations, gains.shape[1])
    cov = noise_var * np.eye(gains.shape[0], dtype=np.complex128)
    for j, c in enumerate(consts):
        cov += c.power * np.outer(gains[:, j], gains[:, j].conj())
    w = consts[user].power * np.linalg.solve(cov, gains[:, user])
    return w.conj() @ np.asarray(y)


def run_scatter(cfg: ExperimentConfig) -> SweepResult:
    """Normalized clouds of front estimates vs linear MMSE for user 1."""
    start = time.time()
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 0)))
    gains = sample_gains(cfg.users, cfg.antennas, rng)
    noise_var = noise_var_for(cfg, cfg.snr_db[0])
    consts = user_constellation(cfg)
    n = cfg.samples
    x = np.stack([sample_symbols(consts, n, rng) for _ in range(cfg.users)])
    y = transmit(gains, noise_var, x, rng)
    enum = SplitEnumeration(gains, noise_var, consts, 0)
    means = enum.evaluate_sliced(y, lambda batch: batch.mean(0))
    gnnd = qpsk_estimates(means, consts.power)
    lmmse = lmmse_estimates(gains, noise_var, consts, y, 0)
    gnnd = gnnd / np.sqrt(np.mean(np.abs(gnnd) ** 2))
    lmmse = lmmse / np.sqrt(np.mean(np.abs(lmmse) ** 2))
    result = SweepResult(cfg, SCATTER_CSV_COLUMNS)
    for t in range(n):
        result.rows.append(dict(true_re=float(x[0, t].real), true_im=float(x[0, t].imag),
                                gnnd_re=float(gnnd[t].real), gnnd_im=float(gnnd[t].imag),
                                lmmse_re=float(lmmse[t].real), lmmse_im=float(lmmse[t].imag)))
    return result.finish(start)


# --------------------------------------------------------------------------
# convolutional-code BER


class _BerCounter:
    """Per-method/per-user error counts of one SNR point with the stop rule:
    a method closes at ``cfg.min_errors`` aggregate errors or at the block
    cap ``cfg.blocks``. ``active`` holds the open methods in ``cfg.methods``
    order; each user sends ``block_bits`` bits per block."""

    def __init__(self, cfg, block_bits):
        self.cfg, self.block_bits = cfg, block_bits
        self.errors = {m: np.zeros(cfg.users, dtype=np.int64) for m in cfg.methods}
        self.blocks = {m: 0 for m in cfg.methods}
        self.active = cfg.methods

    def add(self, block_errors):
        """Count one block, {method: per-user errors}, for every active method."""
        for m in self.active:
            self.errors[m] += block_errors[m]
            self.blocks[m] += 1
        self.active = tuple(m for m in self.active
                            if self.errors[m].sum() < self.cfg.min_errors
                            and self.blocks[m] < self.cfg.blocks)

    def rows(self, kind, snr):
        """The CSV rows of one SNR point: per method, each user's then all users'."""
        cfg, rows = self.cfg, []
        for method in cfg.methods:
            base = dict(kind=kind, K=cfg.users, L=cfg.antennas, snr_db=snr,
                        method=method, receiver=cfg.receiver,
                        pilot_power=cfg.pilot_power, blocks=self.blocks[method])
            errors, bits = self.errors[method], self.blocks[method] * self.block_bits
            for u in range(cfg.users):
                rows.append(dict(base, user=u + 1, errors=int(errors[u]), bits=bits,
                                 ber=float(errors[u] / max(bits, 1))))
            tot_e, tot_b = int(errors.sum()), bits * cfg.users
            rows.append(dict(base, user="all", errors=tot_e, bits=tot_b,
                             ber=float(tot_e / max(tot_b, 1))))
        return rows


def _cl_tables(gains, noise_var, consts, y, users):
    """CL metric tables of each user of the range ``users`` from the y of a
    block or a stack of blocks, with every user before the range cancelled."""
    fronts = [cl_front(gains, noise_var, consts, u, range(users.start)) for u in users]
    return [nn_tables(f.apply(y), consts.points, f.scalar_gain[..., None]) for f in fronts]


def _enum_tables(method, batch, consts, users):
    """gnnd or ml metric tables of each user of ``users`` from an evaluated
    batch, one per channel of its stack. The ml table log p(a) - log P(a | y)
    is -log p(y | a) up to log p(y), a constant per observation."""
    if method == "gnnd":
        return [_gnnd_table(batch.mean(u), consts) for u in users]
    every = np.arange(consts.size)[:, None]
    return [np.log(consts.probabilities) - np.swapaxes(batch.log_pmf_at(u, every), -1, -2)
            for u in users]


def _gnnd_table(means, consts):
    """GNND metric table of one user from its conditional means (net or exact)."""
    return nn_tables(qpsk_estimates(means, consts.power), consts.points, 1.0)


def _viterbi_block(args):
    """Decode a list of blocks under the still-active methods; returns one
    {method: per-user error counts} per block, in seed order.

    Each block draws its channel, data and noise from its own seed before
    any decoding, so the result of one block and method never depends on
    the other blocks or methods decoded with it. Under SIC, user k is
    decoded from y less the re-encoded decisions of users 0..k-1, with those
    users left out of its enumeration and its CL interference; without SIC
    one evaluation serves every user. Each first user k gets one engine for
    the stack of the blocks' channels, read by one ``evaluate`` of the gnnd
    words and one of the ml words, or one for both at user 0, where nothing
    is cancelled yet, and one stacked CL solve; each block reads what it
    would alone. The words of user k, one per (method, block), go through
    one ``viterbi`` call.
    """
    cfg, snr_db, seeds, active = args
    code = make_conv_code_57()
    consts = user_constellation(cfg)
    sic = cfg.receiver == "sic"
    noise_var = noise_var_for(cfg, snr_db)
    n_blocks, n_users, n_steps = len(seeds), cfg.users, cfg.info_bits + code.n_flush
    rngs = [np.random.default_rng(seed) for seed in seeds]
    gains = np.stack([sample_gains(n_users, cfg.antennas, rng) for rng in rngs])
    bits = np.stack([rng.integers(0, 2, size=(n_users, cfg.info_bits)) for rng in rngs])
    symbols = modulate(conv_encode(bits.reshape(-1, cfg.info_bits), code),
                       consts).reshape(n_blocks, n_users, n_steps)
    ys = np.stack([transmit(g, noise_var, x, rng) for g, x, rng in zip(gains, symbols, rngs)])

    # word j * n_blocks + b is block b under method active[j]
    blocks = np.tile(np.arange(n_blocks), len(active))
    decided = np.zeros((len(blocks), n_users, n_steps), dtype=np.complex128)
    errs = np.zeros((len(blocks), n_users), dtype=np.int64)
    for k in range(n_users):
        if sic or k == 0:
            users = range(k, k + 1) if sic else range(n_users)
            enum = (SplitEnumeration(gains, noise_var, consts, k)
                    if {"gnnd", "ml"} & set(active) else None)
            # nothing is cancelled before user 0, so every method reads ys there
            shared = enum.evaluate(ys) if enum is not None and k == 0 else None
            tables = np.empty((len(users), len(blocks), n_steps, consts.size))
            for j, method in enumerate(active):
                at = slice(j * n_blocks, (j + 1) * n_blocks)
                y = ys - gains[..., :k] @ decided[at, :k] if sic else ys
                tables[:, at] = (_cl_tables(gains, noise_var, consts, y, users)
                                 if method == "cl" else
                                 _enum_tables(method, shared if k == 0 else enum.evaluate(y),
                                              consts, users))
        decoded = viterbi(tables[k - users.start], code, consts)
        if sic and k < n_users - 1:  # only later users cancel these decisions
            decided[:, k] = modulate(conv_encode(decoded, code),
                                     consts).reshape(len(blocks), n_steps)
        errs[:, k] = np.sum(decoded != bits[blocks, k], axis=1)
    errs = errs.reshape(len(active), n_blocks, n_users)
    return [{m: errs[j, b] for j, m in enumerate(active)} for b in range(n_blocks)]


def run_viterbi_ber(cfg: ExperimentConfig) -> SweepResult:
    """BER of metric-table Viterbi decoding under block fading.

    Block b draws its fading, data bits and unit-variance noise from the
    same seed at every SNR point; only the noise scale changes. Points
    along a curve are thus paired, like the fading ensemble of
    ``run_ldpc_ber``, and differ by SNR rather than by which channels
    each point happened to draw.

    Blocks are decoded in waves of ``VITERBI_WAVE``, split into ``threads``
    contiguous chunks. Counters take the results in block order and freeze
    per method at the stop rule, so a method's rows do not depend on the
    wave or the thread count; blocks of a wave past its stop are decoded
    and then discarded.
    """
    start = time.time()
    result = SweepResult(cfg, BER_CSV_COLUMNS)
    block_seeds = np.random.SeedSequence((cfg.seed, 1)).spawn(cfg.blocks)
    with worker_pool(cfg.threads) as pool:
        for snr in cfg.snr_db:
            counter = _BerCounter(cfg, cfg.info_bits)
            next_block = 0
            while counter.active:  # the cap closes every method at block cfg.blocks
                wave = block_seeds[next_block:next_block + VITERBI_WAVE]
                parts = min(cfg.threads, len(wave))
                cuts = [len(wave) * i // parts for i in range(parts + 1)]
                tasks = [(cfg, snr, wave[lo:hi], counter.active)
                         for lo, hi in zip(cuts, cuts[1:])]
                for chunk in parallel_map(_viterbi_block, tasks, pool):
                    for res in chunk:
                        counter.add(res)
                next_block += len(wave)
            result.rows += counter.rows("viterbi-ber", snr)
    return result.finish(start)


# --------------------------------------------------------------------------
# LDPC BER


def prepare_receiver(cfg, noise_var, seed_seq, train_nets):
    """One channel draw and the receiver's side of it, all from ``seed_seq``:
    the gains, then their pilot estimate from the same generator, then, if
    ``train_nets``, one conditional-mean network per user trained on that
    estimate from its own child of ``seed_seq``. Returns (gains, gains_hat,
    [(model, epoch losses) of each user]); with no networks, ``seed_seq``
    spawns no child."""
    rng = np.random.default_rng(seed_seq)
    gains = sample_gains(cfg.users, cfg.antennas, rng)
    gains_hat = estimate_channel(gains, pilot_power_value(cfg), noise_var, rng)
    consts, nets = user_constellation(cfg), []
    for user, child in enumerate(seed_seq.spawn(cfg.users) if train_nets else ()):
        seed = int(np.random.default_rng(child).integers(2**31))
        dataset = make_dataset(gains_hat, consts, noise_var, user, cfg.net_samples,
                               np.random.default_rng((seed, 17)))
        tc = TrainConfig(samples=cfg.net_samples, epochs=cfg.net_epochs,
                         batch_size=cfg.net_batch, learning_rate=NET_LR,
                         seed=seed)
        nets.append(train(dataset, default_sizes(cfg.antennas), tc))
    return gains, gains_hat, nets


def _batched_sigma_u(gains_hat, noise_var, consts, means_all_fn, rng):
    """Mean-square equivalent-channel residual per user from one shared pass
    of SIGMA_U_SAMPLES channel uses."""
    x = consts.points[rng.integers(0, consts.size, size=(gains_hat.shape[1], SIGMA_U_SAMPLES))]
    g = qpsk_estimates(means_all_fn(transmit(gains_hat, noise_var, x, rng)), consts.power)
    return np.mean(np.abs(g - x) ** 2, axis=1)


class _LdpcRealization:
    """One quasi-static channel draw with its receiver-side preparation:
    the pilot estimate and, when gnnd is decoded, the conditional-mean path
    and the residual scales its LLRs are read at."""

    def __init__(self, cfg, snr_db, seed_seq):
        self.noise_var = noise_var_for(cfg, snr_db)
        gnnd = "gnnd" in cfg.methods
        self.gains, self.gains_hat, nets = prepare_receiver(cfg, self.noise_var, seed_seq,
                                                            gnnd and cfg.net)
        if not gnnd:
            return
        consts = user_constellation(cfg)
        if cfg.net:
            fns = [mean_fn(model) for model, _ in nets]
            self.means_all = lambda y: np.stack([f(y) for f in fns])
        else:
            enum = SplitEnumeration(self.gains_hat, self.noise_var, consts, 0)
            self.means_all = lambda y: enum.evaluate_sliced(
                y, lambda batch: batch.means_all())
        # the residual scale is estimated against the receiver's own channel
        # knowledge, the best an implementable receiver can simulate
        self.sigma_u = _batched_sigma_u(self.gains_hat, self.noise_var, consts, self.means_all,
                                        np.random.default_rng(seed_seq.spawn(1)[0]))


def _ldpc_block(cfg, real: _LdpcRealization, code, rng, methods):
    """Per-user error counts of one block under each of ``methods``; its bits
    and noise are drawn first, whichever methods are decoded."""
    consts = user_constellation(cfg)
    bits = rng.integers(0, 2, size=(cfg.users, code.info_length))
    symbols = modulate(ldpc_encode(code, bits), consts).reshape(cfg.users, -1)
    y = transmit(real.gains, real.noise_var, symbols, rng)
    out = {}
    for method in methods:
        # gnnd LLRs are read at the residual scale, cl ones at unit scale
        if method == "gnnd":
            tables, scales = [_gnnd_table(m, consts) for m in real.means_all(y)], real.sigma_u
        else:
            tables = _cl_tables(real.gains_hat, real.noise_var, consts, y,
                                range(cfg.users))
            scales = np.ones(cfg.users)
        llrs = np.stack([bit_llrs(t, consts, float(s), LLR_MAX)
                         for t, s in zip(tables, scales)])
        hard, _, _ = bp_decode_batch(code.graph, llrs, BP_ITERS)
        out[method] = np.sum(hard[:, :code.info_length] != bits, axis=1)
    return out


def run_ldpc_ber(cfg: ExperimentConfig) -> SweepResult:
    """Coded BER with conditional-mean or linearized LLR initialization.

    Parallel single-user decoding (no cancellation); fading is quasi-static
    per codeword, sampled from ``draws`` realizations per SNR point in
    round-robin order so per-realization receiver preparation is reused.
    A realization is prepared at its first block, so an SNR point whose
    stop rule is met early prepares only those it decodes, and each block
    decodes only the methods not yet frozen.
    """
    start = time.time()
    code = ldpc_build()
    result = SweepResult(cfg, BER_CSV_COLUMNS)
    for snr in cfg.snr_db:
        # the fading ensemble is keyed by the seed alone: every SNR point and
        # every pilot setting reuses the same channel and pilot-noise draws,
        # so curves and their comparisons are paired across runs
        reals = []
        block_rng = np.random.default_rng(
            np.random.SeedSequence((cfg.seed, 3, int(round(snr * 4096)) & 0xFFFFFFFF)))
        counter = _BerCounter(cfg, code.info_length)
        b = 0
        while counter.active:  # the cap closes every method at block cfg.blocks
            if b < cfg.draws:  # realization b is first used by block b
                reals.append(_LdpcRealization(
                    cfg, snr, np.random.SeedSequence((cfg.seed, 2, b))))
            counter.add(_ldpc_block(cfg, reals[b % cfg.draws], code, block_rng, counter.active))
            b += 1
        result.rows += counter.rows("ldpc-ber", snr)
    return result.finish(start)
