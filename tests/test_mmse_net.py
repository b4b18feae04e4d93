import numpy as np
import pytest

from gnndsim.channel import sample_gains
from gnndsim.constellation import make_qpsk
from gnndsim.mmse_net import (
    MlpModel,
    TrainConfig,
    TrainingDivergedError,
    _loss,
    _probe_loss,
    _Workspace,
    default_sizes,
    init_model,
    load_model,
    make_dataset,
    mean_fn,
    predict,
    save_model,
    train,
)
from oracles import reference_loss_and_grads, reference_train


def test_default_architecture():
    assert default_sizes(8) == [16, 200, 100, 50, 2]


def test_dataset_shapes_and_power(rng):
    gains = sample_gains(3, 4, rng)
    q = make_qpsk(1 / 3)
    x, t = make_dataset(gains, q, 0.2, 1, 5000, rng)
    assert x.shape == (5000, 8)
    assert t.shape == (5000, 2)
    assert np.mean(np.sum(t**2, axis=1)) == pytest.approx(1 / 3, rel=0.05)


def test_dataset_deterministic(rng):
    gains = sample_gains(2, 2, rng)
    q = make_qpsk(0.5)
    a = make_dataset(gains, q, 0.1, 0, 100, np.random.default_rng(9))
    b = make_dataset(gains, q, 0.1, 0, 100, np.random.default_rng(9))
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1], b[1])


def test_zero_weight_model_outputs_zero():
    sizes = [4, 8, 2]
    model = MlpModel(sizes, [np.zeros((8, 4)), np.zeros((2, 8))],
                     [np.zeros(8), np.zeros(2)])
    np.testing.assert_array_equal(predict(model, np.zeros((2, 3), dtype=complex)), 0j)


def test_gradients_match_finite_differences(rng):
    sizes = [4, 6, 5, 2]
    model = init_model(sizes, rng)
    x = rng.standard_normal((10, 4))
    t = rng.standard_normal((10, 2))
    # the kernel's gradients are tied to this reference bit for bit by
    # test_train_matches_reference_loop
    _, gw, gb = reference_loss_and_grads(model, x, t)
    eps = 1e-6
    for l in (0, 1, 2):
        w = model.weights[l]
        for idx in [(0, 0), (w.shape[0] - 1, w.shape[1] - 1), (0, w.shape[1] // 2)]:
            w[idx] += eps
            up, _, _ = reference_loss_and_grads(model, x, t)
            w[idx] -= 2 * eps
            dn, _, _ = reference_loss_and_grads(model, x, t)
            w[idx] += eps
            fd = (up - dn) / (2 * eps)
            assert gw[l][idx] == pytest.approx(fd, rel=1e-4, abs=1e-10)
        b = model.biases[l]
        b[0] += eps
        up, _, _ = reference_loss_and_grads(model, x, t)
        b[0] -= 2 * eps
        dn, _, _ = reference_loss_and_grads(model, x, t)
        b[0] += eps
        assert gb[l][0] == pytest.approx((up - dn) / (2 * eps), rel=1e-4, abs=1e-10)


def test_zero_learning_rate_leaves_model_unchanged(rng):
    gains = sample_gains(2, 2, rng)
    q = make_qpsk(0.5)
    dataset = make_dataset(gains, q, 0.3, 0, 2000, rng)
    cfg = TrainConfig(samples=2000, epochs=2, batch_size=200, learning_rate=0.0,
                      seed=11)
    model, trace = train(dataset, [4, 8, 2], cfg)
    reference = init_model([4, 8, 2], np.random.default_rng(11))
    for w1, w2 in zip(model.weights, reference.weights):
        np.testing.assert_array_equal(w1, w2)
    assert len(trace) == 2 and trace[0] == trace[1]


def test_training_beats_trivial_predictor(rng):
    # the zero predictor's quadratic loss is exactly the symbol power
    gains = sample_gains(4, 8, rng)
    power = 0.25
    q = make_qpsk(power)
    noise_var = 1.0 / 10 ** 0.9  # 9 dB with unit total power
    dataset = make_dataset(gains, q, noise_var, 0, 20_000, rng)
    cfg = TrainConfig(samples=20_000, epochs=1, batch_size=500, learning_rate=1e-3, seed=1)
    _, trace = train(dataset, default_sizes(8), cfg)
    assert trace[0] < power


def test_training_loss_decreases(rng):
    gains = sample_gains(2, 4, rng)
    q = make_qpsk(0.5)
    dataset = make_dataset(gains, q, 0.2, 0, 10_000, rng)
    cfg = TrainConfig(samples=10_000, epochs=5, batch_size=250, learning_rate=1e-3, seed=2)
    model, trace = train(dataset, [8, 32, 16, 2], cfg)
    assert trace[-1] <= trace[0]
    assert len(trace) == 5


def test_divergence_aborts_with_trace(rng):
    gains = sample_gains(2, 2, rng)
    q = make_qpsk(0.5)
    dataset = make_dataset(gains, q, 0.2, 0, 2000, rng)
    cfg = TrainConfig(samples=2000, epochs=50, batch_size=100, learning_rate=50.0,
                      seed=3)
    with pytest.raises(TrainingDivergedError) as err:
        train(dataset, [4, 16, 2], cfg)
    assert len(err.value.trace) >= 3


@pytest.mark.parametrize("rows, samples, batch, epochs", [
    (1100, 1050, 100, 2),  # the batch does not divide the samples; rows go unused
    (5000, 5000, 500, 2),  # more samples than the 4,096-row divergence probe
])
def test_train_matches_reference_loop(rows, samples, batch, epochs):
    rng = np.random.default_rng(31)
    dataset = make_dataset(sample_gains(4, 8, rng), make_qpsk(0.25), 0.1, 0, rows, rng)
    cfg = TrainConfig(samples=samples, epochs=epochs, batch_size=batch,
                      learning_rate=1e-3, seed=3)
    model, trace = train(dataset, default_sizes(8), cfg)
    ref_model, ref_trace = reference_train(dataset, default_sizes(8), cfg)
    assert trace == ref_trace
    for got, want in zip(model.weights + model.biases, ref_model.weights + ref_model.biases):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("rows, batch", [(4000, 512), (1050, 100), (300, 7)])
def test_divergence_probe_runs_in_workspace_blocks(rows, batch):
    # the probe's rows are not a multiple of the batch: the last block is short
    rng = np.random.default_rng(17)
    inputs, targets = make_dataset(sample_gains(4, 8, rng), make_qpsk(0.25), 0.1, 0, rows, rng)
    sizes = default_sizes(8)
    model = init_model(sizes, rng)
    want = _loss(model.forward(inputs, None), targets)
    ws = _Workspace(sizes, batch)
    before = [a.copy() for a in (inputs, targets)]
    # the blocked products can round a row's outputs differently in the
    # last bit, which the sum of squares nearly always absorbs
    assert _probe_loss(model, inputs, targets, ws) == pytest.approx(want, rel=1e-14)
    for got, kept in zip((inputs, targets), before):
        np.testing.assert_array_equal(got, kept)


def test_divergence_matches_reference_loop(rng):
    gains = sample_gains(2, 2, rng)
    dataset = make_dataset(gains, make_qpsk(0.5), 0.2, 0, 2000, rng)
    cfg = TrainConfig(samples=2000, epochs=50, batch_size=100, learning_rate=50.0,
                      seed=3)
    errors = []
    for fn in (train, reference_train):
        with pytest.raises(TrainingDivergedError) as err:
            fn(dataset, [4, 16, 2], cfg)
        errors.append((str(err.value), err.value.trace))
    assert errors[0] == errors[1]


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(samples=10, epochs=1, batch_size=20, learning_rate=1e-3, seed=0)
    for rate in (-1.0, float("nan")):
        with pytest.raises(ValueError):
            TrainConfig(samples=100, epochs=1, batch_size=10, learning_rate=rate, seed=0)


def test_predict_batch_and_determinism(rng):
    model = init_model([4, 8, 2], rng)
    y = rng.standard_normal((2, 7)) + 1j * rng.standard_normal((2, 7))
    batch = predict(model, y)
    assert batch.shape == (7,)
    again = predict(model, y)
    np.testing.assert_array_equal(batch, again)
    fn = mean_fn(model)
    np.testing.assert_array_equal(fn(y), batch)


def test_predict_dimension_check(rng):
    model = init_model([4, 8, 2], rng)
    with pytest.raises(ValueError):
        predict(model, np.zeros((3, 5), dtype=complex))
    with pytest.raises(ValueError):  # one observation is a batch of one
        predict(model, np.zeros(2, dtype=complex))


def test_checkpoint_roundtrip(tmp_path, rng):
    model = init_model([6, 10, 2], rng)
    path = tmp_path / "model.npz"
    save_model(path, model)
    loaded = load_model(path)
    assert loaded.sizes == model.sizes
    for a, b in zip(loaded.weights, model.weights):
        np.testing.assert_array_equal(a, b)
    y = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    np.testing.assert_array_equal(predict(loaded, y), predict(model, y))
