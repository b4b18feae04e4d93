"""Small fully-connected network trained with Adam on quadratic loss to
approximate the conditional-mean estimator of one user's symbol."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import crandn
from .constellation import per_user, sample_symbols

HIDDEN_LAYERS = (200, 100, 50)
CHECKPOINT_VERSION = 1


class TrainingDivergedError(RuntimeError):
    def __init__(self, message, trace):
        super().__init__(message)
        self.trace = trace


@dataclass(frozen=True)
class TrainConfig:
    samples: int
    epochs: int
    batch_size: int
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if self.samples < self.batch_size:
            raise ValueError("need at least one full batch of samples")
        if self.learning_rate < 0:
            raise ValueError("learning rate must be nonnegative")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch size must be positive")


@dataclass
class MlpModel:
    """Rectifier MLP; weights[l] has shape (fan_out, fan_in)."""

    sizes: list[int]
    weights: list[np.ndarray] = field(repr=False)
    biases: list[np.ndarray] = field(repr=False)

    def forward(self, x: np.ndarray) -> np.ndarray:
        a = np.asarray(x, dtype=np.float64)
        last = len(self.weights) - 1
        for l, (w, b) in enumerate(zip(self.weights, self.biases)):
            a = a @ w.T + b
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
    gains = np.asarray(gains, dtype=np.complex128)
    n_ant, n_users = gains.shape
    consts = per_user(constellations, n_users)
    x = np.stack([sample_symbols(consts[u], n_samples, rng) for u in range(n_users)])
    y = gains @ x + np.sqrt(noise_var) * crandn((n_ant, n_samples), rng)
    inputs = np.concatenate([y.real.T, y.imag.T], axis=1)
    targets = np.stack([x[user].real, x[user].imag], axis=1)
    return inputs, targets


def loss_and_grads(model: MlpModel, inputs, targets):
    """Quadratic loss (mean |output - target|^2) and its parameter gradients."""
    inputs = np.asarray(inputs, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
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


def train(dataset, sizes, config: TrainConfig):
    """Mini-batch Adam on the quadratic loss; returns (model, epoch losses).

    Aborts with TrainingDivergedError when the epoch loss exceeds ten times
    the first epoch's loss three epochs in a row.
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
    m_w = [np.zeros_like(w) for w in model.weights]
    v_w = [np.zeros_like(w) for w in model.weights]
    m_b = [np.zeros_like(b) for b in model.biases]
    v_b = [np.zeros_like(b) for b in model.biases]
    probe = slice(0, min(n, 4096))
    initial_loss, _, _ = loss_and_grads(model, inputs[probe], targets[probe])
    step = 0
    trace = []
    bad_epochs = 0
    for _ in range(config.epochs):
        perm = rng.permutation(n)
        epoch_loss = 0.0
        n_batches = 0
        for lo in range(0, n - config.batch_size + 1, config.batch_size):
            sel = perm[lo:lo + config.batch_size]
            loss, gw, gb = loss_and_grads(model, inputs[sel], targets[sel])
            epoch_loss += loss
            n_batches += 1
            step += 1
            corr1 = 1.0 - config.beta1**step
            corr2 = 1.0 - config.beta2**step
            for params, grads, ms, vs in ((model.weights, gw, m_w, v_w),
                                          (model.biases, gb, m_b, v_b)):
                for p, g, m, v in zip(params, grads, ms, vs):
                    m *= config.beta1
                    m += (1 - config.beta1) * g
                    v *= config.beta2
                    v += (1 - config.beta2) * g * g
                    p -= (config.learning_rate * (m / corr1)
                          / (np.sqrt(v / corr2) + config.eps))
        trace.append(epoch_loss / max(n_batches, 1))
        bad_epochs = bad_epochs + 1 if trace[-1] > 10.0 * initial_loss else 0
        if bad_epochs >= 3:
            raise TrainingDivergedError(
                f"loss {trace[-1]:.3g} exceeded 10x initial for 3 epochs", trace)
    return model, trace


def predict(model: MlpModel, y) -> np.ndarray | complex:
    """Conditional-mean estimate from received vector(s) of shape (L,) or (L, n)."""
    y = np.asarray(y, dtype=np.complex128)
    single = y.ndim == 1
    cols = y[:, None] if single else y
    if 2 * cols.shape[0] != model.sizes[0]:
        raise ValueError(f"expected {model.sizes[0] // 2} antennas, got {cols.shape[0]}")
    feats = np.concatenate([cols.real.T, cols.imag.T], axis=1)
    out = model.forward(feats)
    est = out[:, 0] + 1j * out[:, 1]
    return complex(est[0]) if single else est


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
