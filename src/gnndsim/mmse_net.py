"""Small fully-connected network trained with Adam on quadratic loss to
approximate the conditional-mean estimator of one user's symbol."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import transmit
from .constellation import per_user, sample_symbols

HIDDEN_LAYERS = (200, 100, 50)
CHECKPOINT_VERSION = 1
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class TrainingDivergedError(RuntimeError):
    def __init__(self, message, trace):
        super().__init__(message)
        self.trace = trace


@dataclass(frozen=True)
class TrainConfig:
    samples: int
    epochs: int
    batch_size: int
    learning_rate: float
    seed: int

    def __post_init__(self):
        if self.samples < self.batch_size:
            raise ValueError("need at least one full batch of samples")
        if not self.learning_rate >= 0:  # NaN fails too
            raise ValueError("learning rate must be nonnegative")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch size must be positive")


@dataclass
class MlpModel:
    """Rectifier MLP; weights[l] has shape (fan_out, fan_in)."""

    sizes: list[int]
    weights: list[np.ndarray] = field(repr=False)
    biases: list[np.ndarray] = field(repr=False)

    def forward(self, x: np.ndarray, outs) -> np.ndarray:
        """Outputs for float64 inputs ``x`` (n, sizes[0]). Layer l writes its
        activations into ``outs[l]``, or into a fresh array if ``outs`` is None."""
        a = x
        last = len(self.weights) - 1
        for l, (w, b) in enumerate(zip(self.weights, self.biases)):
            a = np.matmul(a, w.T, out=None if outs is None else outs[l])
            a += b
            if l != last:
                np.maximum(a, 0.0, out=a)
        return a


def default_sizes(n_antennas: int) -> list[int]:
    return [2 * n_antennas, *HIDDEN_LAYERS, 2]


def init_model(sizes, rng: np.random.Generator) -> MlpModel:
    """Uniform fan-in initialization, U(-1/sqrt(fan_in), 1/sqrt(fan_in))."""
    sizes = list(sizes)
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(rng.uniform(-bound, bound, size=fan_out))
    return MlpModel(sizes, weights, biases)


def make_dataset(gains, constellations, noise_var: float, user: int,
                 n_samples: int, rng: np.random.Generator):
    """i.i.d. (input, target) pairs through the channel model.

    Inputs concatenate the real then imaginary parts of the received vector;
    targets are the real and imaginary parts of the target user's symbol.
    Pass estimated gains to train against an estimated channel.
    """
    consts = per_user(constellations, np.shape(gains)[1])
    x = np.stack([sample_symbols(c, n_samples, rng) for c in consts])
    y = transmit(gains, noise_var, x, rng)
    inputs = np.concatenate([y.real.T, y.imag.T], axis=1)
    targets = np.stack([x[user].real, x[user].imag], axis=1)
    return inputs, targets


class _Workspace:
    """Activation, mask and gradient buffers of one batch size, reused by
    every step so that training maps no fresh arrays."""

    def __init__(self, sizes, n: int):
        outs = sizes[1:]
        self.inputs = np.empty((n, sizes[0]))
        self.targets = np.empty((n, outs[-1]))
        self.acts = [np.empty((n, s)) for s in outs]
        self.masks = [np.empty((n, s), dtype=bool) for s in outs[:-1]]
        self.grads = [np.empty((n, s)) for s in outs[:-1]]
        self.grads_w = [np.empty((o, i)) for i, o in zip(sizes[:-1], outs)]
        self.grads_b = [np.empty(o) for o in outs]


def _loss(outputs, targets) -> float:
    """Quadratic loss, mean |output - target|^2; leaves the residual in ``outputs``."""
    diff = np.subtract(outputs, targets, out=outputs)
    return float(np.sum(diff**2) / outputs.shape[0])


def _probe_loss(model: MlpModel, inputs, targets, ws: _Workspace) -> float:
    """``_loss`` of the model's outputs on all rows of ``inputs``, whose
    forward pass runs in blocks of the workspace's rows through its
    activations into one (rows, 2) output, so that no activation outgrows
    a training step's."""
    n, block = inputs.shape[0], ws.inputs.shape[0]
    out = np.empty((n, model.sizes[-1]))
    for lo in range(0, n, block):
        rows = slice(lo, min(lo + block, n))
        m = rows.stop - lo
        model.forward(inputs[rows], [a[:m] for a in ws.acts[:-1]] + [out[rows]])
    return _loss(out, targets)


def _loss_and_grads(model: MlpModel, inputs, targets, ws: _Workspace):
    """Quadratic loss and its gradients, written into the workspace."""
    n = inputs.shape[0]
    last = len(model.weights) - 1
    diff = model.forward(inputs, ws.acts)
    loss = _loss(diff, targets)
    diff *= 2.0
    grad = np.divide(diff, n, out=diff)
    for l in range(last, -1, -1):
        a_in = inputs if l == 0 else ws.acts[l - 1]
        np.matmul(grad.T, a_in, out=ws.grads_w[l])
        np.sum(grad, axis=0, out=ws.grads_b[l])
        if l > 0:
            # a unit passed its input iff its rectified output is positive
            np.greater(a_in, 0.0, out=ws.masks[l - 1])
            grad = np.matmul(grad, model.weights[l], out=ws.grads[l - 1])
            grad *= ws.masks[l - 1]
    return loss, ws.grads_w, ws.grads_b


def train(dataset, sizes, config: TrainConfig):
    """Mini-batch Adam on the quadratic loss; returns (model, epoch losses).

    Aborts with TrainingDivergedError when the epoch loss exceeds ten times
    the untrained model's loss on the first min(samples, 4096) samples for
    three epochs in a row.
    """
    inputs, targets = dataset
    inputs = np.asarray(inputs, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    n = inputs.shape[0]
    if config.samples > n:
        raise ValueError("config.samples exceeds dataset size")
    n = min(n, config.samples)
    rng = np.random.default_rng(config.seed)
    model = init_model(sizes, rng)
    params = [*model.weights, *model.biases]
    moments = [(np.zeros_like(p), np.zeros_like(p)) for p in params]
    scratch = [(np.empty_like(p), np.empty_like(p)) for p in params]
    ws = _Workspace(model.sizes, config.batch_size)
    probe = slice(0, min(n, 4096))
    initial_loss = _probe_loss(model, inputs[probe], targets[probe], ws)
    step = 0
    trace = []
    bad_epochs = 0
    for _ in range(config.epochs):
        perm = rng.permutation(n)
        epoch_loss = 0.0
        n_batches = 0
        for lo in range(0, n - config.batch_size + 1, config.batch_size):
            sel = perm[lo:lo + config.batch_size]
            x = np.take(inputs, sel, axis=0, out=ws.inputs)
            t = np.take(targets, sel, axis=0, out=ws.targets)
            loss, gw, gb = _loss_and_grads(model, x, t, ws)
            epoch_loss += loss
            n_batches += 1
            step += 1
            corr1 = 1.0 - ADAM_BETA1**step
            corr2 = 1.0 - ADAM_BETA2**step
            for p, g, (m, v), (s1, s2) in zip(params, [*gw, *gb], moments, scratch):
                # the same products and quotients, in the same order, as
                # p -= lr * (m / corr1) / (sqrt(v / corr2) + eps)
                m *= ADAM_BETA1
                m += np.multiply(g, 1 - ADAM_BETA1, out=s1)
                v *= ADAM_BETA2
                np.multiply(g, 1 - ADAM_BETA2, out=s1)
                s1 *= g
                v += s1
                np.divide(m, corr1, out=s1)
                s1 *= config.learning_rate
                np.divide(v, corr2, out=s2)
                np.sqrt(s2, out=s2)
                s2 += ADAM_EPS
                s1 /= s2
                p -= s1
        trace.append(epoch_loss / max(n_batches, 1))
        bad_epochs = bad_epochs + 1 if trace[-1] > 10.0 * initial_loss else 0
        if bad_epochs >= 3:
            raise TrainingDivergedError(
                f"loss {trace[-1]:.3g} exceeded 10x initial for 3 epochs", trace)
    return model, trace


def predict(model: MlpModel, y) -> np.ndarray:
    """Conditional-mean estimates (n,) from received vectors of shape (L, n)."""
    y = np.asarray(y, dtype=np.complex128)
    if y.ndim != 2 or 2 * y.shape[0] != model.sizes[0]:
        raise ValueError(f"expected ({model.sizes[0] // 2}, n) observations, got {y.shape}")
    feats = np.concatenate([y.real.T, y.imag.T], axis=1)
    out = model.forward(feats, None)
    return out[:, 0] + 1j * out[:, 1]


def mean_fn(model: MlpModel):
    """Batch conditional-mean callable matching the exact-path interface."""
    return lambda y: predict(model, y)


def save_model(path, model: MlpModel) -> None:
    """Checkpoint: layer sizes plus row-major weights, versioned npz."""
    payload = {"version": np.array(CHECKPOINT_VERSION),
               "sizes": np.asarray(model.sizes, dtype=np.int64)}
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        payload[f"w{i}"] = w
        payload[f"b{i}"] = b
    np.savez(path, **payload)


def load_model(path) -> MlpModel:
    with np.load(path) as data:
        if int(data["version"]) != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {int(data['version'])}")
        sizes = data["sizes"].tolist()
        n_layers = len(sizes) - 1
        weights = [data[f"w{i}"] for i in range(n_layers)]
        biases = [data[f"b{i}"] for i in range(n_layers)]
    return MlpModel(sizes, weights, biases)
