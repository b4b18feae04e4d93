"""Config-driven experiment runners: rate sweeps, estimate scattergrams,
and coded BER measurements for convolutional and LDPC links."""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .channel import ChannelInstance, crandn, estimate_channel, sample_gains
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
from .constellation import make_qpsk, modulate
from .fronts import cl_front, qpsk_estimates
from .mmse_net import TrainConfig, default_sizes, make_dataset, mean_fn, train
from .posterior import JointEnumeration
from .rates import combine_rates, evaluate_user_rates

RATE_CSV_COLUMNS = ("instance_id", "K", "L", "snr_db", "method", "receiver",
                    "user", "rate_bits", "std_err", "samples")
BER_CSV_COLUMNS = ("kind", "K", "L", "snr_db", "method", "receiver", "pilot_power",
                   "user", "errors", "bits", "blocks", "ber")
SCATTER_CSV_COLUMNS = ("true_re", "true_im", "gnnd_re", "gnnd_im",
                       "lmmse_re", "lmmse_im")
SIGMA_U_SAMPLES = 2048
ENUM_SLICE_BYTES = 2**28   # one (M, n) complex64 block of scatter log weights


@dataclass
class SweepResult:
    config: ExperimentConfig
    columns: tuple[str, ...]
    rows: list[dict] = field(default_factory=list)
    runtime: float = 0.0

    def write_csv(self, path) -> None:
        write_csv(path, self.config, self.columns, self.rows)


def write_csv(path, cfg: ExperimentConfig, columns, rows) -> None:
    with open(path, "w") as fh:
        fh.write(f"# gnndsim {__version__}\n")
        for line in config_echo(cfg):
            fh.write(f"# {line}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(row[c]) for c in columns) + "\n")


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, (np.floating,)):
        return repr(float(v))
    if isinstance(v, (np.integer,)):
        return str(int(v))
    return str(v)


def parallel_map(fn, tasks, threads: int):
    """Apply fn over tasks, optionally in a process pool; order preserved."""
    if threads <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, tasks))


def noise_var_for(cfg: ExperimentConfig, snr_db: float) -> float:
    return cfg.power / 10 ** (snr_db / 10)


def user_constellation(cfg: ExperimentConfig):
    return make_qpsk(cfg.power / cfg.users)


def nn_tables(est, points, gain=1.0) -> np.ndarray:
    """Nearest-neighbor metric |est - gain a|^2 of every observation against
    every candidate point a, (n, |A|). The GNND front reads it with gain 1
    on g(y), CL with its scalar gain on the combined observation."""
    return np.abs(est[:, None] - gain * points[None, :]) ** 2


# --------------------------------------------------------------------------
# rate sweeps


def _gmi_task(args):
    cfg, draw = args
    ss = np.random.SeedSequence((cfg.seed, draw))
    gain_rng, sample_seed = np.random.default_rng(ss), ss.spawn(len(cfg.snr_db))
    gains = sample_gains(cfg.users, cfg.antennas, gain_rng)
    consts = user_constellation(cfg)
    methods = [m for m in cfg.methods if m != "ml"]
    rows = []
    for i, snr in enumerate(cfg.snr_db):
        ch = ChannelInstance(gains, noise_var_for(cfg, snr),
                             np.full(cfg.users, cfg.power / cfg.users))
        res = evaluate_user_rates(ch, consts, None, methods, cfg.receiver,
                                  cfg.samples, np.random.default_rng(sample_seed[i]))
        for method in methods:
            per_user = [res[method][u] for u in range(cfg.users)]
            rows.append(dict(draw=draw, snr_db=snr, method=method,
                             per_user=per_user, total=combine_rates(per_user)))
    return rows


def run_gmi_sweep(cfg: ExperimentConfig) -> SweepResult:
    """Sum rates per (draw, SNR, method); rows flattened per user plus sum."""
    start = time.time()
    chunks = parallel_map(_gmi_task, [(cfg, d) for d in range(cfg.draws)],
                          cfg.threads)
    result = SweepResult(cfg, RATE_CSV_COLUMNS)
    for chunk in chunks:
        for entry in chunk:
            base = dict(instance_id=entry["draw"], K=cfg.users, L=cfg.antennas,
                        snr_db=entry["snr_db"], method=entry["method"],
                        receiver=cfg.receiver)
            for u, est in enumerate(entry["per_user"]):
                result.rows.append(dict(base, user=u + 1, rate_bits=est.value,
                                        std_err=est.std_error, samples=est.samples))
            tot = entry["total"]
            result.rows.append(dict(base, user="sum", rate_bits=tot.value,
                                    std_err=tot.std_error, samples=tot.samples))
    result.runtime = time.time() - start
    if cfg.out:
        result.write_csv(cfg.out)
    return result


def average_sum_rows(result: SweepResult, method: str, snr_db: float):
    """Across-draw average of the sum-rate rows for one method and SNR."""
    vals = [r for r in result.rows
            if r["method"] == method and r["user"] == "sum"
            and r["snr_db"] == snr_db]
    mean = float(np.mean([r["rate_bits"] for r in vals]))
    se = float(np.sqrt(np.sum([r["std_err"] ** 2 for r in vals])) / len(vals))
    return mean, se


# --------------------------------------------------------------------------
# scattergrams


def lmmse_estimates(ch: ChannelInstance, y, user: int) -> np.ndarray:
    """Linear MMSE estimate of one user's symbol from the raw observation."""
    cov = ch.noise_var * np.eye(ch.n_antennas, dtype=np.complex128)
    for j in range(ch.n_users):
        hj = ch.gains[:, j]
        cov += ch.powers[j] * np.outer(hj, hj.conj())
    w = ch.powers[user] * np.linalg.solve(cov, ch.gains[:, user])
    return w.conj() @ np.asarray(y)


def run_scatter(cfg: ExperimentConfig) -> SweepResult:
    """Normalized clouds of front estimates vs linear MMSE for user 1."""
    start = time.time()
    ss = np.random.SeedSequence((cfg.seed, 0))
    rng = np.random.default_rng(ss)
    ch = ChannelInstance(sample_gains(cfg.users, cfg.antennas, rng),
                         noise_var_for(cfg, cfg.snr_db[0]),
                         np.full(cfg.users, cfg.power / cfg.users))
    consts = user_constellation(cfg)
    n = cfg.samples
    idx = np.stack([rng.choice(4, size=n, p=consts.probabilities)
                    for _ in range(cfg.users)])
    x = consts.points[idx]
    y = ch.gains @ x + np.sqrt(ch.noise_var) * crandn((cfg.antennas, n), rng)
    if cfg.net:
        model, _ = train_user_model(cfg, ch.gains, consts, ch.noise_var, 0,
                                    ss.spawn(1)[0])
        means = mean_fn(model)(y)
    else:
        # column slices of at most ENUM_SLICE_BYTES of 8-byte complex64 weights
        enum = JointEnumeration(ch.gains, ch.noise_var, consts, 0,
                                dtype=np.complex64)
        step = max(1, ENUM_SLICE_BYTES // (8 * enum.n_combos))
        means = np.concatenate([
            enum.evaluate(y[:, i:i + step], keep_log_weights=False).mean(0)
            for i in range(0, n, step)])
    gnnd = qpsk_estimates(means, consts.power)
    lmmse = lmmse_estimates(ch, y, 0)
    gnnd = gnnd / np.sqrt(np.mean(np.abs(gnnd) ** 2))
    lmmse = lmmse / np.sqrt(np.mean(np.abs(lmmse) ** 2))
    result = SweepResult(cfg, SCATTER_CSV_COLUMNS)
    for t in range(n):
        result.rows.append(dict(true_re=float(x[0, t].real), true_im=float(x[0, t].imag),
                                gnnd_re=float(gnnd[t].real), gnnd_im=float(gnnd[t].imag),
                                lmmse_re=float(lmmse[t].real), lmmse_im=float(lmmse[t].imag)))
    result.runtime = time.time() - start
    if cfg.out:
        result.write_csv(cfg.out)
    return result


def cluster_separation(true_symbols, estimates) -> float:
    """Minimum inter-centroid distance over mean within-cluster RMS spread."""
    true_symbols = np.asarray(true_symbols)
    estimates = np.asarray(estimates)
    points = np.unique(true_symbols)
    centroids, spreads = [], []
    for p in points:
        cloud = estimates[true_symbols == p]
        c = cloud.mean()
        centroids.append(c)
        spreads.append(np.sqrt(np.mean(np.abs(cloud - c) ** 2)))
    centroids = np.asarray(centroids)
    dists = [abs(a - b) for i, a in enumerate(centroids)
             for b in centroids[i + 1:]]
    return float(min(dists) / np.mean(spreads))


# --------------------------------------------------------------------------
# successive interference cancellation


def sic_receiver(y, order, decode_user, genie_symbols=None):
    """Sequential decoding along ``order``; each decoded user's re-modulated
    symbols condition the later ones. ``decode_user(user, y, prefix_users,
    prefix_symbols)`` returns (bits, symbols). With ``genie_symbols`` the
    prefix uses true symbols instead of decisions (rate-style conditioning).
    """
    y = np.asarray(y)
    bits_out, syms_out = {}, {}
    prefix_users: list[int] = []
    prefix_syms: list[np.ndarray] = []
    for k in order:
        stack = np.asarray(prefix_syms) if prefix_syms else np.zeros((0, y.shape[1]),
                                                                     dtype=complex)
        bits, syms = decode_user(k, y, list(prefix_users), stack)
        bits_out[k], syms_out[k] = bits, syms
        prefix_users.append(k)
        prefix_syms.append(genie_symbols[k] if genie_symbols is not None else syms)
    return bits_out, syms_out


# --------------------------------------------------------------------------
# convolutional-code BER


class _BerCounter:
    """Per-method/per-user error counters with the stop rule
    (at least min_errors aggregate errors, or the block cap)."""

    def __init__(self, methods, n_users, min_errors, block_cap):
        self.min_errors = min_errors
        self.block_cap = block_cap
        self.frozen = {m: False for m in methods}
        self.errors = {m: np.zeros(n_users, dtype=np.int64) for m in methods}
        self.bits = {m: np.zeros(n_users, dtype=np.int64) for m in methods}
        self.blocks = {m: 0 for m in methods}

    def update(self, method, block_errors, block_bits):
        if self.frozen[method]:
            return
        self.errors[method] += block_errors
        self.bits[method] += block_bits
        self.blocks[method] += 1
        if (self.errors[method].sum() >= self.min_errors
                or self.blocks[method] >= self.block_cap):
            self.frozen[method] = True

    @property
    def done(self) -> bool:
        return all(self.frozen.values())


def _viterbi_block(args):
    """Decode one block under the still-active methods; returns error counts.

    The channel, data, and noise draws happen before any decoding, so the
    result for one method never depends on which other methods are active.
    """
    cfg, snr_db, seed, active = args
    rng = np.random.default_rng(seed)
    code = make_conv_code_57()
    consts = user_constellation(cfg)
    order = cfg.user_order()
    noise_var = noise_var_for(cfg, snr_db)
    # permute users so cancellation order is the natural index order
    gains = sample_gains(cfg.users, cfg.antennas, rng)[:, order]
    powers = np.full(cfg.users, cfg.power / cfg.users)
    bits = rng.integers(0, 2, size=(cfg.users, cfg.info_bits))
    symbols = np.stack([modulate(conv_encode(bits[k], code), consts)
                        for k in range(cfg.users)])
    n_steps = symbols.shape[1]
    y = gains @ symbols + np.sqrt(noise_var) * crandn((cfg.antennas, n_steps), rng)

    shared_batch = None
    if cfg.receiver == "no-sic" and set(active) - {"cl"}:
        enum = JointEnumeration(gains, noise_var, consts, 0, dtype=np.complex64)
        shared_batch = enum.evaluate(y, keep_log_weights="ml" in active)

    out = {}
    for method in active:
        errs = np.zeros(cfg.users, dtype=np.int64)

        def decode_user(k, y_full, prefix_users, prefix_syms, method=method):
            if prefix_users:
                y_eff = y_full - gains[:, prefix_users] @ prefix_syms
            else:
                y_eff = y_full
            if method == "cl":
                front = cl_front(gains, noise_var, k, powers, cancelled=prefix_users)
                tables = nn_tables(front.apply(y_eff), consts.points, front.scalar_gain)
            else:
                if cfg.receiver == "no-sic":
                    batch = shared_batch
                else:
                    enum_k = JointEnumeration(gains, noise_var, consts, k,
                                              dtype=np.complex64)
                    batch = enum_k.evaluate(y_eff,
                                            keep_log_weights=(method == "ml"))
                if method == "gnnd":
                    tables = nn_tables(qpsk_estimates(batch.mean(k), consts.power),
                                       consts.points)
                elif method == "ml":
                    tables = -batch.user_log_likelihood(k).T
                else:
                    raise ValueError(f"method {method!r} not available for viterbi runs")
            decoded = viterbi(tables, code, consts)
            return decoded, modulate(conv_encode(decoded, code), consts)

        if cfg.receiver == "sic":
            decoded_bits, _ = sic_receiver(y, range(cfg.users), decode_user)
        else:
            decoded_bits = {k: decode_user(k, y, [], None)[0] for k in range(cfg.users)}
        for k in range(cfg.users):
            errs[k] = int(np.sum(decoded_bits[k] != bits[k]))
        # report errors against the original user ids
        out[method] = np.zeros(cfg.users, dtype=np.int64)
        for pos, user in enumerate(order):
            out[method][user] = errs[pos]
    return out


def run_viterbi_ber(cfg: ExperimentConfig) -> SweepResult:
    """BER of metric-table Viterbi decoding under block fading.

    Block b draws its fading, data bits and unit-variance noise from the
    same seed at every SNR point; only the noise scale changes. Points
    along a curve are thus paired, like the fading ensemble of
    ``run_ldpc_ber``, and differ by SNR rather than by which channels
    each point happened to draw.
    """
    start = time.time()
    result = SweepResult(cfg, BER_CSV_COLUMNS)
    block_seeds = np.random.SeedSequence((cfg.seed, 1)).spawn(cfg.blocks)
    wave = max(cfg.threads, 4)
    for snr in cfg.snr_db:
        counter = _BerCounter(cfg.methods, cfg.users, cfg.min_errors, cfg.blocks)
        block_bits = np.full(cfg.users, cfg.info_bits, dtype=np.int64)
        next_block = 0
        while not counter.done and next_block < cfg.blocks:
            hi = min(next_block + wave, cfg.blocks)
            active = tuple(m for m in cfg.methods if not counter.frozen[m])
            tasks = [(cfg, snr, block_seeds[b], active)
                     for b in range(next_block, hi)]
            for res in parallel_map(_viterbi_block, tasks, cfg.threads):
                for method in active:
                    counter.update(method, res[method], block_bits)
            next_block = hi
        _append_ber_rows(result, cfg, "viterbi-ber", snr, counter, cfg.info_bits)
    result.runtime = time.time() - start
    if cfg.out:
        result.write_csv(cfg.out)
    return result


def _append_ber_rows(result, cfg, kind, snr, counter, bits_per_user_block):
    for method in cfg.methods:
        base = dict(kind=kind, K=cfg.users, L=cfg.antennas, snr_db=snr,
                    method=method, receiver=cfg.receiver,
                    pilot_power=cfg.pilot_power)
        errors = counter.errors[method]
        bits = counter.bits[method]
        blocks = counter.blocks[method]
        for u in range(cfg.users):
            result.rows.append(dict(base, user=u + 1, errors=int(errors[u]),
                                    bits=int(bits[u]), blocks=blocks,
                                    ber=float(errors[u] / max(bits[u], 1))))
        tot_e, tot_b = int(errors.sum()), int(bits.sum())
        result.rows.append(dict(base, user="all", errors=tot_e, bits=tot_b,
                                blocks=blocks, ber=float(tot_e / max(tot_b, 1))))


# --------------------------------------------------------------------------
# LDPC BER


def train_user_model(cfg, gains_hat, consts, noise_var, user, seed_seq):
    """Conditional-mean network of one user, trained on the receiver's
    channel knowledge; returns (model, epoch losses)."""
    seed = int(np.random.default_rng(seed_seq).integers(2**31))
    dataset = make_dataset(gains_hat, consts, noise_var, user, cfg.net_samples,
                           np.random.default_rng((seed, 17)))
    tc = TrainConfig(samples=cfg.net_samples, epochs=cfg.net_epochs,
                     batch_size=cfg.net_batch, learning_rate=cfg.net_lr,
                     seed=seed)
    return train(dataset, default_sizes(gains_hat.shape[0]), tc)


def _batched_sigma_u(gains_hat, noise_var, consts, means_all_fn, n_users,
                     n_samples, rng):
    """Mean-square equivalent-channel residual per user, one shared pass."""
    total = np.zeros(n_users)
    remaining = n_samples
    while remaining > 0:
        n = min(8192, remaining)
        remaining -= n
        idx = rng.integers(0, consts.size, size=(n_users, n))
        x = consts.points[idx]
        y = gains_hat @ x + np.sqrt(noise_var) * crandn((gains_hat.shape[0], n), rng)
        means = means_all_fn(y)
        g = qpsk_estimates(means, consts.power)
        total += np.sum(np.abs(g - x) ** 2, axis=1)
    return total / n_samples


class _LdpcRealization:
    """One quasi-static channel draw with its receiver-side preparation:
    pilot estimate, conditional-mean path, residual scales, linear fronts."""

    def __init__(self, cfg, snr_db, seed_seq):
        rng = np.random.default_rng(seed_seq)
        self.noise_var = noise_var_for(cfg, snr_db)
        self.consts = user_constellation(cfg)
        self.gains = sample_gains(cfg.users, cfg.antennas, rng)
        pilot = pilot_power_value(cfg)
        if pilot == "perfect":
            crandn(self.gains.shape, rng)  # keep rng aligned across pilot settings
            self.gains_hat = self.gains.copy()
        else:
            self.gains_hat = estimate_channel(self.gains, pilot,
                                              self.noise_var, rng).gains_hat
        powers = np.full(cfg.users, cfg.power / cfg.users)
        if cfg.net:
            models = [train_user_model(cfg, self.gains_hat, self.consts,
                                       self.noise_var, u, s)[0]
                      for u, s in enumerate(seed_seq.spawn(cfg.users))]
            fns = [mean_fn(m) for m in models]
            self._means_all = lambda y: np.stack([f(y) for f in fns])
        else:
            enum = JointEnumeration(self.gains_hat, self.noise_var, self.consts,
                                    0, dtype=np.complex64)
            self._means_all = lambda y: enum.evaluate(
                y, keep_log_weights=False).means_all()
        # the residual scale is estimated against the receiver's own channel
        # knowledge, the best an implementable receiver can simulate
        self.sigma_u = _batched_sigma_u(
            self.gains_hat, self.noise_var, self.consts, self._means_all,
            cfg.users, SIGMA_U_SAMPLES, np.random.default_rng(seed_seq.spawn(1)[0]))
        self.cl_fronts = [cl_front(self.gains_hat, self.noise_var, u, powers)
                          for u in range(cfg.users)]

    def tables(self, method, y):
        """Per-user metric tables of one method, and the noise scale each
        user's tables are read at: the residual scale for gnnd, 1 for cl."""
        points = self.consts.points
        if method == "gnnd":
            return ([nn_tables(qpsk_estimates(m, self.consts.power), points)
                     for m in self._means_all(y)], self.sigma_u)
        return ([nn_tables(f.apply(y), points, f.scalar_gain) for f in self.cl_fronts],
                np.ones(len(self.cl_fronts)))


def _ldpc_block(cfg, real: _LdpcRealization, code, rng):
    consts = real.consts
    k_users = cfg.users
    bits = rng.integers(0, 2, size=(k_users, code.info_length))
    words = np.stack([ldpc_encode(code, bits[k]) for k in range(k_users)])
    symbols = np.stack([modulate(words[k], consts) for k in range(k_users)])
    n_sym = symbols.shape[1]
    y = (real.gains @ symbols
         + np.sqrt(real.noise_var) * crandn((cfg.antennas, n_sym), rng))
    out = {}
    for method in cfg.methods:
        tables, scales = real.tables(method, y)
        llrs = np.stack([bit_llrs(t, consts, float(s), cfg.llr_max)
                         for t, s in zip(tables, scales)])
        hard, _ = bp_decode_batch(code, llrs, cfg.bp_iters)
        out[method] = np.sum(hard[:, :code.info_length] != bits, axis=1)
    return out


def run_ldpc_ber(cfg: ExperimentConfig) -> SweepResult:
    """Coded BER with conditional-mean or linearized LLR initialization.

    Parallel single-user decoding (no cancellation); fading is quasi-static
    per codeword, sampled from ``draws`` realizations per SNR point in
    round-robin order so per-realization receiver preparation is reused.
    """
    if cfg.receiver != "no-sic":
        raise ValueError("the LDPC experiment runs parallel decoding only")
    for m in cfg.methods:
        if m not in ("gnnd", "cl"):
            raise ValueError(f"method {m!r} not available for LDPC runs")
    start = time.time()
    code = ldpc_build()
    result = SweepResult(cfg, BER_CSV_COLUMNS)
    for snr in cfg.snr_db:
        # the fading ensemble is keyed by the seed alone: every SNR point and
        # every pilot setting reuses the same channel and pilot-noise draws,
        # so curves and their comparisons are paired across runs
        real_seeds = [np.random.SeedSequence((cfg.seed, 2, r))
                      for r in range(cfg.draws)]
        reals = [_LdpcRealization(cfg, snr, s) for s in real_seeds]
        block_rng = np.random.default_rng(
            np.random.SeedSequence((cfg.seed, 3, int(round(snr * 4096)) & 0xFFFFFFFF)))
        counter = _BerCounter(cfg.methods, cfg.users, cfg.min_errors, cfg.blocks)
        block_bits = np.full(cfg.users, code.info_length, dtype=np.int64)
        b = 0
        while not counter.done and b < cfg.blocks:
            res = _ldpc_block(cfg, reals[b % cfg.draws], code, block_rng)
            for method in cfg.methods:
                counter.update(method, res[method], block_bits)
            b += 1
        _append_ber_rows(result, cfg, "ldpc-ber", snr, counter, code.info_length)
    result.runtime = time.time() - start
    if cfg.out:
        result.write_csv(cfg.out)
    return result


# --------------------------------------------------------------------------
# curve utilities


def snr_at_ber(snrs, bers, target: float = 1e-3):
    """SNR where the curve last crosses the target, by log-linear
    interpolation; None when the crossing is outside the measured grid."""
    snrs = np.asarray(snrs, dtype=float)
    bers = np.asarray(bers, dtype=float)
    order = np.argsort(snrs)
    snrs, bers = snrs[order], np.maximum(bers[order], 1e-12)
    above = np.flatnonzero(bers >= target)
    if above.size == 0 or above[-1] == len(bers) - 1:
        return None
    i = above[-1]  # last point at or above target; everything after is below
    l0, l1 = np.log10(bers[i]), np.log10(bers[i + 1])
    t = (np.log10(target) - l0) / (l1 - l0)
    return float(snrs[i] + t * (snrs[i + 1] - snrs[i]))
