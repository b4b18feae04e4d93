"""Brute-force and reference helpers that only the tests use."""

import numpy as np

from gnndsim.codec import conv_encode
from gnndsim.codec.ldpc import _ATANH_CAP, ParityGraph
from gnndsim.harness import SweepResult
from gnndsim.mmse_net import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    TrainingDivergedError,
    init_model,
)
from gnndsim.rates import (
    LN2,
    RateEstimate,
    _estimate_from_nats,
    gnnd_gmi_samples,
    maximize_theta,
)

GOLDEN_ITERS = 60        # golden-section steps of the metric-temperature fit
BRACKET_DOUBLINGS = 40


def exhaustive_decode(tables, code, c, max_info_bits: int = 20) -> np.ndarray:
    """Brute-force minimum summed metric over all codewords (oracle-grade).

    Enumerates every information word through the code's generator matrix,
    so cost is 2^k; refuse blocks beyond ``max_info_bits``.
    """
    tables = np.atleast_2d(np.asarray(tables, dtype=np.float64))
    n_info = tables.shape[0] - code.n_flush
    if n_info > max_info_bits:
        raise ValueError(f"{n_info} info bits is too large for exhaustion")
    labeling = c.require_labeling()
    gen = conv_encode(np.eye(n_info, dtype=np.int64), code)  # (n_info, 2 n_steps)
    shifts = np.arange(n_info - 1, -1, -1)
    words = (np.arange(1 << n_info)[:, None] >> shifts[None, :]) & 1
    coded = words @ gen & 1
    idx = labeling.label_to_point[2 * coded[:, 0::2] + coded[:, 1::2]]
    metrics = tables[np.arange(tables.shape[0])[None, :], idx].sum(axis=1)
    return words[int(np.argmin(metrics))]


def reference_viterbi(tables, code, c) -> np.ndarray:
    """The per-step Viterbi kernel that ``codec.conv.viterbi`` replaced, kept
    as its reference: ``(B, S, 2)`` arrays with the words first, the two
    branches into each state gathered at every step, survivor decisions
    taken in the loop and a per-step fancy-index traceback. Ties go to the
    lexicographically smaller (previous state, input).
    """
    tables = np.asarray(tables, dtype=np.float64)
    n_words, n_steps = tables.shape[:2]
    n_info = n_steps - code.n_flush
    s_count = code.n_states
    # registers r = 2 s + b stably sorted by destination r mod S
    reg = np.argsort(np.arange(2 * s_count) % s_count, kind="stable").reshape(s_count, 2)
    first, second = (np.bitwise_count(reg & g) & 1 for g in code.generators)
    inc_prev, inc_input = reg >> 1, reg & 1
    inc_sym = c.require_labeling().label_to_point[first << 1 | second]

    pm = np.full((n_words, s_count), np.inf)
    pm[:, 0] = 0.0
    took_second = np.empty((n_steps, n_words, s_count), dtype=bool)
    for t in range(n_steps):
        cand = pm[:, inc_prev] + tables[:, t][:, inc_sym]  # (B, S, 2)
        if t >= n_info:  # flush: only input 0 branches are valid
            cand = np.where(inc_input == 0, cand, np.inf)
        took_second[t] = cand[..., 1] < cand[..., 0]
        pm = np.where(took_second[t], cand[..., 1], cand[..., 0])

    rows = np.arange(n_words)
    state = np.zeros(n_words, dtype=np.int64)  # zero termination
    bits = np.empty((n_words, n_steps), dtype=np.int64)
    for t in range(n_steps - 1, -1, -1):
        c_idx = took_second[t, rows, state].astype(np.int64)
        bits[:, t] = inc_input[state, c_idx]
        state = inc_prev[state, c_idx]
    return bits[:, :n_info]


def gf2_rank(matrix) -> int:
    """Rank over GF(2) by elimination on packed rows."""
    rows = [int("".join(map(str, r)), 2) for r in np.asarray(matrix, dtype=np.uint8)]
    rank = 0
    while rows:
        pivot = max(rows)
        rows.remove(pivot)
        if pivot == 0:
            continue
        rank += 1
        top = pivot.bit_length() - 1
        rows = [r ^ pivot if (r >> top) & 1 else r for r in rows]
    return rank


def dense_parity_check(code) -> np.ndarray:
    """The parity-check matrix of an LDPC code as a dense 0/1 array."""
    g = code.graph
    h = np.zeros((g.n_checks, g.n), dtype=np.uint8)
    h[g.check_of_edge, g.var_of_edge] = 1
    return h


def demodulate_hard(symbols, c) -> np.ndarray:
    """Nearest-point hard demapping back to bits."""
    labeling = c.require_labeling()
    symbols = np.asarray(symbols, dtype=np.complex128).ravel()
    idx = np.argmin(np.abs(symbols[:, None] - c.points[None, :]), axis=1)
    m = labeling.bits_per_symbol
    labels = labeling.point_to_label[idx]
    shifts = np.arange(m - 1, -1, -1)
    return ((labels[:, None] >> shifts[None, :]) & 1).ravel()


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


def _logcosh(z):
    z = np.abs(z)
    return z + np.log1p(np.exp(-2.0 * z)) - LN2


def maximize_concave(fn, lo: float, hi: float) -> tuple[float, float]:
    """Golden-section maximum of a concave fn on [lo, hi], expanding lo
    by doubling while the objective still improves at the left edge. Once
    fn(2 lo) <= fn(lo), concavity puts the maximum in [2 lo, hi]."""
    f_lo = fn(lo)
    for _ in range(BRACKET_DOUBLINGS):
        f_2 = fn(2.0 * lo)
        if f_2 <= f_lo:
            break
        lo, f_lo = 2.0 * lo, f_2
    else:
        raise RuntimeError("bracket expansion failed: objective keeps improving")
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = 2.0 * lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(GOLDEN_ITERS):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = fn(d)
    x = (a + b) / 2.0
    return x, fn(x)


def cl_gmi_cosh_form(y_scalar, x, gain: float,
                     power: float) -> tuple[RateEstimate, float]:
    """GMI of the linearized-channel metric for QPSK, cosh form, fitted by
    golden section: the sampled reference for ``rates.cl_gmi_from_scalar``.

    ``y_scalar`` is the whitened/combined scalar observation, ``x`` the
    transmitted symbol, ``gain`` the scalar channel coefficient.
    """
    y_scalar = np.asarray(y_scalar, dtype=np.complex128)
    x = np.asarray(x, dtype=np.complex128)
    root = np.sqrt(2.0 * power)
    cross = y_scalar.real * x.real + y_scalar.imag * x.imag

    def samples_at(theta):
        v = gain * theta
        return (-2.0 * v * cross - _logcosh(root * v * y_scalar.real)
                - _logcosh(root * v * y_scalar.imag))

    theta, _ = maximize_concave(lambda th: samples_at(th).mean(), -2.0, -1e-6)
    return _estimate_from_nats(samples_at(theta)), theta


def mi_samples_lse(batch, y, user: int, tx_idx) -> np.ndarray:
    """Per-observation MI integrand (nats) log p(y | x_user = tx) - log p(y),
    from the user's log-likelihood table and the log evidence: the reference
    for ``rates.mi_samples``. ``y`` is the observation batch evaluated."""
    ull = batch.enum.user_log_likelihood(y, [user])[0]
    return (ull[tx_idx, np.arange(tx_idx.size)]
            + batch.enum.gauss_log_const - batch.log_evidence)


def parity_graph_from_dense(h) -> ParityGraph:
    """The Tanner graph of a dense 0/1 parity-check matrix."""
    h = np.asarray(h, dtype=np.uint8)
    ce, ve = np.nonzero(h)
    return ParityGraph(h.shape[1], h.shape[0], ce, ve)


def reference_bp_decode_batch(graph: ParityGraph, llrs, max_iters: int,
                              early_exit: bool):
    """The flooding sum-product kernel that ``codec.ldpc.bp_decode_batch``
    replaced, kept as its reference: fresh ``(B, E)`` arrays every
    iteration, check sums gathered back with ``sum[:, check_of_edge]``, sign
    parity from int64 sums and the syndrome from ``add.reduceat``.
    """
    llrs = np.asarray(llrs, dtype=np.float64)
    b = llrs.shape[0]
    ce, ve = graph.check_of_edge, graph.var_of_edge
    v2c = llrs[:, ve].copy()
    total = llrs
    hard = (llrs < 0).astype(np.uint8)
    converged = np.zeros(b, dtype=bool)
    for _ in range(max_iters):
        t = np.tanh(0.5 * np.clip(v2c, -60.0, 60.0))
        mag = np.clip(np.abs(t), 1e-300, _ATANH_CAP)
        neg = t < 0
        lt = np.log(mag)
        sum_lt = np.add.reduceat(lt, graph.check_starts, axis=1)
        sum_neg = np.add.reduceat(neg.astype(np.int64), graph.check_starts, axis=1)
        ext_lt = sum_lt[:, ce] - lt
        ext_sign = 1.0 - 2.0 * ((sum_neg[:, ce] - neg) & 1)
        c2v = 2.0 * np.arctanh(np.minimum(np.exp(ext_lt), _ATANH_CAP)) * ext_sign
        contrib = np.add.reduceat(c2v[:, graph.var_perm], graph.var_starts, axis=1)
        total = llrs + contrib
        v2c = total[:, ve] - c2v
        hard = (total < 0).astype(np.uint8)
        unsat = np.add.reduceat(hard[:, ve], graph.check_starts, axis=1) & 1
        converged = ~unsat.any(axis=1) & ~(total == 0.0).any(axis=1)
        if early_exit and converged.all():
            break
    return hard, converged, total


def reference_loss_and_grads(model, inputs, targets):
    """The gradient pass ``mmse_net`` used before its buffers were kept
    across steps: fresh activation, pre-activation and gradient arrays."""
    n = inputs.shape[0]
    acts = [inputs]
    pre = []
    a = inputs
    last = len(model.weights) - 1
    for l, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = a @ w.T + b
        pre.append(z)
        a = z if l == last else np.maximum(z, 0.0)
        acts.append(a)
    diff = acts[-1] - targets
    loss = float(np.sum(diff**2) / n)
    grad = 2.0 * diff / n
    grads_w, grads_b = [], []
    for l in range(last, -1, -1):
        grads_w.append(grad.T @ acts[l])
        grads_b.append(grad.sum(axis=0))
        if l > 0:
            grad = (grad @ model.weights[l]) * (pre[l - 1] > 0)
    return loss, grads_w[::-1], grads_b[::-1]


def reference_train(dataset, sizes, config):
    """The training loop ``mmse_net.train`` replaced, kept as its reference:
    a full gradient pass for the divergence probe, fresh arrays every step
    and an Adam update built from temporaries."""
    inputs, targets = (np.asarray(a, dtype=np.float64) for a in dataset)
    n = min(inputs.shape[0], config.samples)
    rng = np.random.default_rng(config.seed)
    model = init_model(sizes, rng)
    m_w = [np.zeros_like(w) for w in model.weights]
    v_w = [np.zeros_like(w) for w in model.weights]
    m_b = [np.zeros_like(b) for b in model.biases]
    v_b = [np.zeros_like(b) for b in model.biases]
    probe = slice(0, min(n, 4096))
    initial_loss, _, _ = reference_loss_and_grads(model, inputs[probe], targets[probe])
    step = 0
    trace = []
    bad_epochs = 0
    for _ in range(config.epochs):
        perm = rng.permutation(n)
        epoch_loss = 0.0
        n_batches = 0
        for lo in range(0, n - config.batch_size + 1, config.batch_size):
            sel = perm[lo:lo + config.batch_size]
            loss, gw, gb = reference_loss_and_grads(model, inputs[sel], targets[sel])
            epoch_loss += loss
            n_batches += 1
            step += 1
            corr1 = 1.0 - ADAM_BETA1**step
            corr2 = 1.0 - ADAM_BETA2**step
            for params, grads, ms, vs in ((model.weights, gw, m_w, v_w),
                                          (model.biases, gb, m_b, v_b)):
                for p, g, m, v in zip(params, grads, ms, vs):
                    m *= ADAM_BETA1
                    m += (1 - ADAM_BETA1) * g
                    v *= ADAM_BETA2
                    v += (1 - ADAM_BETA2) * g * g
                    p -= (config.learning_rate * (m / corr1)
                          / (np.sqrt(v / corr2) + ADAM_EPS))
        trace.append(epoch_loss / max(n_batches, 1))
        bad_epochs = bad_epochs + 1 if trace[-1] > 10.0 * initial_loss else 0
        if bad_epochs >= 3:
            raise TrainingDivergedError(
                f"loss {trace[-1]:.3g} exceeded 10x initial for 3 epochs", trace)
    return model, trace


def gnnd_gmi_from_means(means, power: float) -> RateEstimate:
    """Optimal-front QPSK GMI from sampled conditional means."""
    return _estimate_from_nats(gnnd_gmi_samples(means, power))


def gmi_from_tables(tables, tx_idx, probabilities) -> tuple[RateEstimate, float]:
    """Monte-Carlo generalized mutual information of an arbitrary metric:
    the sampled reference for the exact CL rate and for the matched metric.

    ``tables[t, i]`` is the metric of candidate i at observation t and
    ``tx_idx[t]`` the transmitted index. With d[t, a] = tables[t, a] -
    tables[t, tx_idx[t]], the GMI is the maximum over theta < 0 of the mean
    of the per-observation samples -log sum_a p(a) exp(theta d[t, a]).
    Taking the metric relative to the transmitted candidate's keeps the
    transmitted term at exactly log p(tx), so no sample exceeds -log p(tx).
    With q the tilted pmf at theta, the slope is -mean E_q[d] and the
    curvature -mean Var_q[d]; ``rates.maximize_theta`` fits theta. Since
    theta is picked on the samples it averages, the estimate is biased
    upward. Returns the estimate and the maximizing theta.
    """
    tables = np.asarray(tables, dtype=np.float64)
    d = (tables - tables[np.arange(tables.shape[0]), tx_idx][:, None]).T
    logp = np.log(np.asarray(probabilities, dtype=np.float64))[:, None]

    def tilt(theta):
        z = theta * d + logp
        top = z.max(axis=0)
        w = np.exp(z - top)
        total = w.sum(axis=0)
        return w / total, -top - np.log(total)

    def moments(theta):
        q, samples = tilt(theta)
        mean_d = np.sum(q * d, axis=0)
        return (samples.mean(), -mean_d.mean(),
                np.mean(np.sum(q * (d - mean_d) ** 2, axis=0)))

    theta, _ = maximize_theta(moments)
    return _estimate_from_nats(tilt(theta)[1]), theta


def average_sum_rows(result: SweepResult, method: str, snr_db: float):
    """Across-draw average of the sum-rate rows for one method and SNR."""
    vals = [r for r in result.rows
            if r["method"] == method and r["user"] == "sum"
            and r["snr_db"] == snr_db]
    mean = float(np.mean([r["rate_bits"] for r in vals]))
    se = float(np.sqrt(np.sum([r["std_err"] ** 2 for r in vals])) / len(vals))
    return mean, se


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
