import copy
import pickle
import re
import warnings

import numpy as np
import pytest

from uqeval import (
    EnsembleSpec,
    MlpSpec,
    TrainConfig,
    TrainingDivergedError,
    ValidationError,
    aggregate,
    emcd_predict,
    ensemble_predict,
    mc_dropout_predict,
    train_ensemble,
    train_mlp,
)
from uqeval.aggregate import ENSEMBLE
from uqeval.datasets import generate_dataset
from uqeval.models import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    WIDTH_RANGES,
    Mlp,
    _backprop,
    _draw_masks,
    _ensemble_jobs,
    _forward,
    _layer_views,
    _mask_views,
    _one_hot,
    _train_job,
    _train_stack,
    cross_entropy,
    fit_adam,
    softmax,
)

import scalar_oracles as oracle


def engine_gradients(model, x, y, dropout_rng=None):
    """The loss of one batch and the gradients the engine's backward pass gives for it."""
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.int64)
    rate, hidden = model.spec.dropout_rate, model.spec.layer_widths[1:-1]
    masks = None
    if dropout_rng is not None and rate > 0.0:
        divisors = _draw_masks([dropout_rng], rate, np.empty((1, len(x) * sum(hidden))))
        masks = _mask_views(divisors[0], hidden, len(x))
    cache = _forward(model.weights, model.biases, x, masks)
    loss = cross_entropy(cache[0][-1], y)
    grads_w, grads_b = _layer_views(np.empty_like(model.flat), model.spec.layer_widths)
    _backprop([w.T for w in model.weights], *cache, _one_hot(y, model.spec.layer_widths[-1]),
              grads_w, grads_b)
    return loss, list(grads_w), list(grads_b)


def xor_data(repeats=12):
    x = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]] * repeats)
    y = np.array([0, 0, 1, 1] * repeats)
    return x, y


class TestSpecs:
    def test_needs_hidden_layer(self):
        with pytest.raises(ValidationError):
            MlpSpec((2, 2))

    def test_needs_two_outputs(self):
        with pytest.raises(ValidationError):
            MlpSpec((2, 4, 1))

    def test_dropout_range(self):
        with pytest.raises(ValidationError):
            MlpSpec((2, 4, 2), dropout_rate=1.0)

    @pytest.mark.parametrize("width", [2.5, 3.0, True, np.True_, float("inf"), float("nan"), "3",
                                       None])
    def test_width_must_be_an_integer(self, width):
        with pytest.raises(ValidationError,
                           match=re.escape(f"layer width must be an integer, got {width!r}")):
            MlpSpec((2, width, 2))

    def test_fractional_widths_are_not_truncated(self):
        with pytest.raises(ValidationError, match="layer width must be an integer, got 2.5"):
            MlpSpec((2.5, 3.9, 2))

    def test_numpy_integer_widths_are_python_ints(self):
        spec = MlpSpec((np.int64(2), np.int32(5), 2))
        assert spec.layer_widths == (2, 5, 2)
        assert {type(w) for w in spec.layer_widths} == {int}

    @pytest.mark.parametrize("field", ["epochs", "batch_size"])
    @pytest.mark.parametrize("value", [2.5, 3.0, True, np.True_, "3", None])
    def test_train_config_counts_must_be_integers(self, field, value):
        with pytest.raises(ValidationError, match=f"{field} must be an integer, got {value!r}"):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("value", [2.5, 3.0, True, "3", None])
    def test_member_count_must_be_an_integer(self, value):
        with pytest.raises(ValidationError, match=f"member_count must be an integer, got {value!r}"):
            EnsembleSpec(member_count=value)

    @pytest.mark.parametrize("value", [-1, 1.5, 2.0, True, "3", None])
    @pytest.mark.parametrize("make, name", [
        (lambda seed: MlpSpec((2, 3, 2), seed=seed), "seed"),
        (lambda seed: TrainConfig(seed=seed), "seed"),
        (lambda seed: EnsembleSpec(master_seed=seed), "master_seed"),
    ], ids=["MlpSpec", "TrainConfig", "EnsembleSpec"])
    def test_seeds_must_be_non_negative_integers(self, make, name, value):
        with pytest.raises(ValidationError,
                           match=re.escape(f"{name} must be a non-negative integer, got {value!r}")):
            make(value)

    def test_numpy_integer_counts_are_accepted(self):
        assert TrainConfig(epochs=np.int64(2), batch_size=np.int32(4)).epochs == 2
        assert EnsembleSpec(member_count=np.int64(3)).member_count == 3
        assert MlpSpec((2, 3, 2), seed=np.uint64(2**63)).seed == 2**63

    def test_train_config_defaults(self):
        config = TrainConfig()
        assert config.learning_rate == 0.001
        assert (ADAM_BETA1, ADAM_BETA2, ADAM_EPS) == (0.9, 0.999, 1e-8)
        assert config.epochs == 300


class TestForward:
    def test_softmax_rows_normalized(self):
        model = Mlp(MlpSpec((2, 16, 8, 3), seed=3))
        x = np.random.default_rng(0).normal(size=(50, 2))
        probs = model.forward(x)
        assert np.all(np.abs(probs.sum(axis=1) - 1.0) <= 1e-9)
        assert np.all(probs >= 0)

    @pytest.mark.parametrize("n_classes", [2, 3, 7, 8, 12])
    def test_softmax_matches_numpys_row_reductions(self, n_classes):
        z = np.random.default_rng(n_classes).normal(scale=30.0, size=(64, n_classes))
        z[0] = -0.0
        z[1, :2] = [0.0, -0.0]
        assert softmax(z.copy()).tobytes() == oracle.softmax(z).tobytes()

    def test_dropout_expectation_preserved(self):
        # inverted dropout: the expected output pre-activation over masks
        # equals the no-dropout pre-activation (linear in the mask)
        model = Mlp(MlpSpec((2, 64, 2), dropout_rate=0.4, seed=5))
        x = np.random.default_rng(1).normal(size=(1, 2))
        w1, w2 = model.weights
        b1, b2 = model.biases
        hidden = np.maximum(x @ w1 + b1, 0.0)
        clean_logits = hidden @ w2 + b2
        rng = np.random.default_rng(2)
        rate = model.spec.dropout_rate
        n_masks = 10_000
        draws = np.empty((n_masks, 2))
        for i in range(n_masks):
            keep = rng.random(hidden.shape) >= rate
            draws[i] = ((hidden * keep / (1 - rate)) @ w2 + b2)[0]
        mean = draws.mean(axis=0)
        sem = draws.std(axis=0, ddof=1) / np.sqrt(n_masks)
        assert np.all(np.abs(mean - clean_logits[0]) <= 3.0 * sem)

    def test_hidden_preactivation_expectation_exact(self):
        # the linearity argument holds exactly at the first hidden layer
        model = Mlp(MlpSpec((2, 32, 2), dropout_rate=0.25, seed=7))
        x = np.random.default_rng(3).normal(size=(1, 2))
        h_clean = np.maximum(x @ model.weights[0] + model.biases[0], 0.0)
        rng = np.random.default_rng(4)
        rate = 0.25
        total = np.zeros_like(h_clean)
        n_masks = 10_000
        for _ in range(n_masks):
            keep = rng.random(h_clean.shape) >= rate
            total += h_clean * keep / (1 - rate)
        mean = total / n_masks
        sd = np.sqrt(h_clean**2 * rate / (1 - rate) / n_masks)
        assert np.all(np.abs(mean - h_clean) <= 3.0 * sd + 1e-12)


class TestGradients:
    def test_analytic_matches_central_differences(self):
        rng = np.random.default_rng(11)
        model = Mlp(MlpSpec((2, 4, 2), dropout_rate=0.0, seed=11))
        x = rng.normal(size=(12, 2))
        y = rng.integers(0, 2, 12)
        _, grads_w, grads_b = engine_gradients(model, x, y)
        h = 1e-5
        worst = 0.0
        for params, grads in ((model.weights, grads_w), (model.biases, grads_b)):
            for p, g in zip(params, grads):
                it = np.nditer(p, flags=["multi_index"])
                for _ in it:
                    idx = it.multi_index
                    original = p[idx]
                    p[idx] = original + h
                    up = cross_entropy(model.forward(x), y)
                    p[idx] = original - h
                    down = cross_entropy(model.forward(x), y)
                    p[idx] = original
                    numeric = (up - down) / (2 * h)
                    denom = max(abs(numeric) + abs(g[idx]), 1e-8)
                    worst = max(worst, abs(numeric - g[idx]) / denom)
        assert worst < 1e-4

    def test_identity_update_with_zero_lr(self):
        x, y = xor_data()
        spec = MlpSpec((2, 8, 2), dropout_rate=0.0, seed=21)
        reference = Mlp(spec)
        trained = train_mlp(spec, TrainConfig(learning_rate=0.0, epochs=1, seed=1), (x, y))
        for a, b in zip(reference.weights, trained.weights):
            assert np.array_equal(a, b)
        for a, b in zip(reference.biases, trained.biases):
            assert np.array_equal(a, b)


class TestTraining:
    def test_loss_decreases(self):
        x, y = xor_data()
        model = train_mlp(
            MlpSpec((2, 8, 2), dropout_rate=0.0, seed=31),
            TrainConfig(epochs=60, seed=31),
            (x, y),
        )
        assert np.isfinite(model.loss_history[-1])
        assert model.loss_history[-1] < model.loss_history[0]

    def test_bit_identical_reruns(self):
        x, y = xor_data()
        spec = MlpSpec((2, 8, 2), dropout_rate=0.25, seed=32)
        config = TrainConfig(epochs=10, seed=5)
        a = train_mlp(spec, config, (x, y))
        b = train_mlp(spec, config, (x, y))
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)
        assert a.loss_history == b.loss_history

    def test_divergence_reports_epoch(self):
        x, y = xor_data()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(TrainingDivergedError) as info:
                train_mlp(
                    MlpSpec((2, 8, 2), dropout_rate=0.0, seed=33),
                    TrainConfig(learning_rate=1e200, epochs=3, seed=1),
                    (x, y),
                )
        assert info.value.epoch == 0

    def test_input_width_mismatch(self):
        x, y = xor_data()
        with pytest.raises(ValidationError):
            train_mlp(MlpSpec((3, 8, 2), seed=1), TrainConfig(epochs=1), (x, y))

    @pytest.mark.parametrize("bad", [-1, 2])
    def test_label_outside_class_range(self, bad):
        x, y = xor_data()
        y = y.copy()
        y[0] = bad
        with pytest.raises(ValidationError, match="label outside the model's class range"):
            train_mlp(MlpSpec((2, 4, 2), seed=1), TrainConfig(epochs=1), (x, y))

    def test_noise_free_moons_reach_full_train_accuracy(self):
        # tiny net needs more optimizer steps than the large-scale defaults give
        ds = generate_dataset(80, 0.0, 3)
        model = train_mlp(
            MlpSpec((2, 3, 2), dropout_rate=0.0, seed=0),
            TrainConfig(learning_rate=0.01, epochs=300, batch_size=8, seed=0),
            (ds.train_x, ds.train_y),
        )
        probs = model.forward(ds.train_x)
        assert (probs.argmax(axis=1) == ds.train_y).mean() == 1.0


TRAIN_SPEC = MlpSpec((2, 4, 2), seed=1)
ONE_EPOCH = TrainConfig(epochs=1)

# every way a training job is made, each taking its (x, y)
TRAINING_ENTRIES = {
    "train_mlp": lambda x, y: train_mlp(TRAIN_SPEC, ONE_EPOCH, (x, y)),
    "ensemble": lambda x, y: _ensemble_jobs(EnsembleSpec(member_count=2), ONE_EPOCH, (x, y)),
    "warm start": lambda x, y: _train_job(TRAIN_SPEC, ONE_EPOCH, x, y, Mlp(TRAIN_SPEC).flat),
    "fit_adam": lambda x, y: fit_adam(Mlp(TRAIN_SPEC), ONE_EPOCH, x, y),
}

# inputs, labels and the message each must raise
BAD_TRAINING_DATA = {
    "empty": (np.zeros((0, 2)), np.zeros(0, int), "no training samples"),
    "1-D inputs": (np.zeros(8), np.zeros(8, int),
                   r"training inputs must be a 2-D array, got shape \(8,\)"),
    "3-D inputs": (np.zeros((8, 2, 1)), np.zeros(8, int),
                   r"training inputs must be a 2-D array, got shape \(8, 2, 1\)"),
    "fewer labels": (np.zeros((8, 2)), np.zeros(7, int),
                     r"8 training inputs need 8 labels, got labels of shape \(7,\)"),
    "2-D labels": (np.zeros((8, 2)), np.zeros((8, 1), int),
                   r"8 training inputs need 8 labels, got labels of shape \(8, 1\)"),
    "fractional label": (np.zeros((8, 2)), np.array([0, 1.7, 0, 1, 0, 1, 0, 1]),
                         "labels must be integers"),
    "NaN label": (np.zeros((8, 2)), np.array([0, np.nan, 0, 1, 0, 1, 0, 1]),
                  "labels must be integers"),
}


class TestTrainingInputs:
    """Every training job checks its data with one rule, before numpy sees it."""

    @pytest.mark.parametrize("entry", list(TRAINING_ENTRIES))
    @pytest.mark.parametrize("case", list(BAD_TRAINING_DATA))
    def test_bad_data_rejected(self, entry, case):
        x, y, message = BAD_TRAINING_DATA[case]
        with pytest.raises(ValidationError, match=message):
            TRAINING_ENTRIES[entry](x, y)

    # TestTraining checks the class range and the input width of train_mlp
    @pytest.mark.parametrize("sign", [-1, 2])
    @pytest.mark.parametrize("entry", ["warm start", "fit_adam"])
    def test_label_outside_class_range(self, entry, sign):
        x, y = xor_data()
        with pytest.raises(ValidationError, match="label outside the model's class range"):
            TRAINING_ENTRIES[entry](x, sign * y)

    def test_negative_ensemble_labels_rejected(self):
        x, y = xor_data()
        with pytest.raises(ValidationError, match="label outside the model's class range"):
            TRAINING_ENTRIES["ensemble"](x, -y)

    @pytest.mark.parametrize("entry", ["warm start", "fit_adam"])
    def test_input_width_mismatch(self, entry):
        x, y = xor_data()
        with pytest.raises(ValidationError, match="input width 2 does not match data dim 3"):
            TRAINING_ENTRIES[entry](np.hstack([x, x[:, :1]]), y)

    @pytest.mark.parametrize("init", [0.5, np.zeros(21), np.zeros(23), np.zeros((1, 22)),
                                      np.zeros((22, 1)), 0],
                             ids=["scalar", "short", "long", "row", "column", "job index"])
    def test_init_must_have_the_shape_of_flat(self, init):
        x, y = xor_data()
        assert Mlp(TRAIN_SPEC).flat.shape == (22,) != np.shape(init)
        with pytest.raises(ValidationError, match=r"init of shape .* does not match the "
                                                   r"model's 22 parameters"):
            _train_job(TRAIN_SPEC, ONE_EPOCH, x, y, init)

    def test_warm_start_from_a_list(self):
        x, y = xor_data()
        init = Mlp(MlpSpec((2, 4, 2), seed=9)).flat
        model = _train_job(TRAIN_SPEC, ONE_EPOCH, x.tolist(), y.tolist(), init.tolist())
        reference = Mlp(TRAIN_SPEC)
        reference.flat[...] = init
        fit_adam(reference, ONE_EPOCH, x, y)
        assert_same_parameters(model, reference)


def random_task(seed, n, widths):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, widths[0]))
    y = rng.integers(0, widths[-1], n)
    y[: widths[-1]] = np.arange(widths[-1])  # every class present
    return x, y


def assert_same_parameters(a, b):
    assert len(a.weights) == len(b.weights)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)
    for ba, bb in zip(a.biases, b.biases):
        assert np.array_equal(ba, bb)


class TestGivenBuffer:
    """``Mlp(spec, flat)`` holds a float64 copy of a buffer as long as the model's parameters."""

    @pytest.mark.parametrize("flat", [np.zeros(21), np.zeros(23), np.zeros((1, 22)),
                                      np.zeros((2, 11))], ids=["short", "long", "row", "2-D"])
    def test_wrong_shape_rejected(self, flat):
        with pytest.raises(ValidationError, match=r"init of shape .* does not match the "
                                                   r"model's 22 parameters"):
            Mlp(TRAIN_SPEC, flat)

    def test_list_buffer(self):
        values = np.arange(22) / 22
        model = Mlp(TRAIN_SPEC, values.tolist())
        assert model.flat.dtype == np.float64 and np.array_equal(model.flat, values)
        assert np.array_equal(model.weights[0].ravel(), values[:8])
        assert np.array_equal(model.biases[-1], values[-2:])
        assert model.loss_history == []

    def test_training_the_copy_leaves_the_buffer(self):
        x, y = xor_data()
        backbone = train_mlp(TRAIN_SPEC, ONE_EPOCH, (x, y))
        before = backbone.flat.copy()
        head = Mlp(backbone.spec, backbone.flat)
        assert not np.shares_memory(head.flat, backbone.flat)
        fit_adam(head, TrainConfig(epochs=2, seed=5), x, y)
        assert not np.array_equal(head.flat, before)
        assert np.array_equal(backbone.flat, before)
        assert len(head.loss_history) == 2


ENGINE_CASES = {
    # name: (layer widths, dropout, samples, batch size, learning rate, epochs)
    "1-hidden-dropout0": ((2, 8, 2), 0.0, 45, 16, 0.01, 4),
    "1-hidden-dropout25": ((2, 8, 2), 0.25, 45, 16, 0.01, 4),
    "2-hidden-dropout0": ((2, 8, 4, 2), 0.0, 45, 16, 0.01, 4),
    "2-hidden-dropout25": ((2, 8, 4, 2), 0.25, 45, 16, 0.01, 4),
    "3-hidden-dropout0": ((3, 16, 8, 4, 3), 0.0, 50, 32, 0.01, 3),
    "3-hidden-dropout25": ((3, 16, 8, 4, 3), 0.25, 50, 32, 0.01, 3),
    "batch-size-1": ((2, 6, 4, 2), 0.25, 20, 1, 0.01, 2),
    "batch-exceeds-data": ((2, 6, 2), 0.25, 10, 32, 0.01, 3),
    "zero-learning-rate": ((2, 8, 4, 2), 0.25, 45, 16, 0.0, 2),
    # the demo's MC-dropout network: 14 full batches, then one of 2 rows
    "demo-mcd-shape": ((2, 32, 16, 4, 2), 0.25, 450, 32, 0.001, 2),
    # two full batches, then one of a single row
    "last-batch-one-row": ((2, 8, 4, 2), 0.25, 33, 16, 0.01, 3),
}


class TestFlatEngine:
    """The flat-buffer engine against the list engine kept in ``scalar_oracles``."""

    @pytest.mark.parametrize("case", list(ENGINE_CASES), ids=list(ENGINE_CASES))
    def test_fit_adam_matches_list_engine(self, case):
        widths, rate, n, batch_size, lr, epochs = ENGINE_CASES[case]
        x, y = random_task(len(widths) + n, n, widths)
        spec = MlpSpec(widths, dropout_rate=rate, seed=17)
        config = TrainConfig(learning_rate=lr, epochs=epochs, batch_size=batch_size, seed=4)
        flat, reference = Mlp(spec), Mlp(spec)
        fit_adam(flat, config, x, y)
        oracle.fit_adam(reference, config, x, y)
        assert_same_parameters(flat, reference)
        assert flat.loss_history == reference.loss_history
        assert len(flat.loss_history) == epochs
        if lr == 0.0:
            assert_same_parameters(flat, Mlp(spec))
        else:
            assert not np.array_equal(flat.flat, Mlp(spec).flat)

    def test_warm_start_matches_list_engine(self):
        widths = (2, 16, 8, 2)
        x, y = random_task(5, 60, widths)
        backbone = train_mlp(MlpSpec(widths, dropout_rate=0.0, seed=1),
                             TrainConfig(epochs=5, batch_size=16, seed=1), (x, y))
        head_spec = MlpSpec(widths, dropout_rate=0.0, seed=2)
        config = TrainConfig(epochs=3, batch_size=16, seed=2)
        warm = Mlp(head_spec)
        warm.flat[...] = backbone.flat
        fit_adam(warm, config, x[:50], y[:50])
        reference = Mlp(head_spec)
        for dst, src in zip(reference.weights + reference.biases,
                            backbone.weights + backbone.biases):
            dst[...] = src
        oracle.fit_adam(reference, config, x[:50], y[:50])
        assert_same_parameters(warm, reference)
        assert warm.loss_history == reference.loss_history
        assert not np.array_equal(warm.flat, backbone.flat)

    @pytest.mark.parametrize("rate", [0.0, 0.25])
    def test_gradients_match_list_engine(self, rate):
        widths = (3, 16, 8, 4, 3)
        x, y = random_task(9, 30, widths)
        model = Mlp(MlpSpec(widths, dropout_rate=rate, seed=9))
        loss, grads_w, grads_b = engine_gradients(model, x, y, np.random.default_rng(3))
        ref_loss, ref_w, ref_b = oracle.loss_and_gradients(
            list(model.weights), list(model.biases), rate, x, y, np.random.default_rng(3)
        )
        assert loss == ref_loss
        for got, want in zip(grads_w + grads_b, ref_w + ref_b):
            assert np.array_equal(got, want)

    def test_parameters_are_views_of_flat(self):
        model = Mlp(MlpSpec((3, 5, 4, 2), seed=1))
        assert model.flat.size == 3 * 5 + 5 + 5 * 4 + 4 + 4 * 2 + 2
        for p in model.weights + model.biases:
            assert np.shares_memory(p, model.flat)
        model.weights[1][2, 3] = 7.5
        model.biases[2][...] = -1.0
        assert model.flat[3 * 5 + 5 + 2 * 4 + 3] == 7.5
        assert np.array_equal(model.flat[-2:], [-1.0, -1.0])

    def test_rebinding_parameters_raises(self):
        model = Mlp(MlpSpec((2, 4, 2), seed=1))
        with pytest.raises(AttributeError):
            model.weights = [w.copy() for w in model.weights]
        with pytest.raises(AttributeError):
            model.biases = [b.copy() for b in model.biases]
        with pytest.raises(AttributeError):
            model.flat = np.zeros_like(model.flat)

    def test_item_assignment_raises(self):
        model = Mlp(MlpSpec((2, 4, 2), seed=1))
        before = model.flat.copy()
        with pytest.raises(TypeError):
            model.weights[0] = np.zeros((2, 4))
        with pytest.raises(TypeError):
            model.biases[1] = np.zeros(2)
        assert np.array_equal(model.flat, before)


def stack_jobs(case, size):
    """``size`` jobs of one ENGINE_CASES shape, each with its own data and seeds.

    From a stack of two on, job 1 warm-starts from the buffer job 0 starts from.
    """
    widths, rate, n, batch_size, lr, epochs = ENGINE_CASES[case]
    jobs = []
    for h in range(size):
        x, y = random_task(len(widths) + n + h, n, widths)
        spec = MlpSpec(widths, dropout_rate=rate, seed=17 + h)
        config = TrainConfig(learning_rate=lr, epochs=epochs, batch_size=batch_size, seed=4 + h)
        init = Mlp(jobs[0][0]).flat if h == 1 else None
        jobs.append((spec, config, x, y, init))
    return jobs


class TestStackedEngine:
    """Models trained as one stack against each trained alone by the list engine."""

    @pytest.mark.parametrize("size", [1, 2, 3])
    @pytest.mark.parametrize("case", list(ENGINE_CASES), ids=list(ENGINE_CASES))
    def test_stack_matches_list_engine(self, case, size):
        jobs = stack_jobs(case, size)
        stacked = _train_stack(jobs)
        assert [m.spec for m in stacked] == [job[0] for job in jobs]
        for model, (spec, config, x, y, init) in zip(stacked, jobs):
            reference = Mlp(spec)
            if init is None:
                probs = oracle.forward_cached(reference.weights, reference.biases, 0.0, x, None)
                reference.loss_history.append(oracle.cross_entropy(probs[0][-1], y))
            else:
                reference.flat[...] = init
            oracle.fit_adam(reference, config, x, y)
            assert_same_parameters(model, reference)
            assert model.loss_history == reference.loss_history
            assert len(model.loss_history) == config.epochs + (init is None)

    def test_diverging_model_raises_with_its_epoch(self):
        # at this learning rate the inputs scaled by 1e97 overflow only after some
        # epochs, while the unscaled ones train on
        x = np.random.default_rng(0).normal(size=(8, 2))
        y = np.array([0, 1] * 4)
        spec = MlpSpec((2, 8, 8, 2), dropout_rate=0.0, seed=1)
        config = TrainConfig(learning_rate=1e70, epochs=6, batch_size=8, seed=2)
        diverging = Mlp(spec)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(TrainingDivergedError) as alone:
                fit_adam(diverging, config, x * 1e97, y)
            fit_adam(Mlp(spec), config, x, y)
            with pytest.raises(TrainingDivergedError) as stacked:
                _train_stack([(spec, config, x_h, y, None) for x_h in (x, x * 1e97, x)])
        assert stacked.value.epoch == alone.value.epoch == 4
        assert str(stacked.value) == str(alone.value)
        # a failed fit leaves the model as it was, with no partial epochs
        assert_same_parameters(diverging, Mlp(spec))
        assert diverging.loss_history == []

    @pytest.mark.parametrize("other", [
        (MlpSpec((2, 6, 2)), TrainConfig(epochs=1), 8),
        (MlpSpec((2, 4, 2), dropout_rate=0.5), TrainConfig(epochs=1), 8),
        (MlpSpec((2, 4, 2)), TrainConfig(epochs=2), 8),
        (MlpSpec((2, 4, 2)), TrainConfig(epochs=1, batch_size=4), 8),
        (MlpSpec((2, 4, 2)), TrainConfig(epochs=1, learning_rate=0.01), 8),
        (MlpSpec((2, 4, 2)), TrainConfig(epochs=1), 7),
    ], ids=["widths", "dropout", "epochs", "batch size", "learning rate", "samples"])
    def test_stack_needs_one_shape_and_schedule(self, other):
        spec, config, n = other
        x, y = xor_data(2)
        with pytest.raises(ValueError, match="a stack needs"):
            _train_stack([(MlpSpec((2, 4, 2)), TrainConfig(epochs=1), x, y, None),
                          (spec, config, x[:n], y[:n], None)])

    def test_inputs_need_one_row_per_label(self):
        x, y = xor_data(2)
        with pytest.raises(ValidationError, match="8 training inputs need 8 labels"):
            fit_adam(Mlp(MlpSpec((2, 4, 2))), TrainConfig(epochs=1), x, y[:6])


COPIES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda model: pickle.loads(pickle.dumps(model)),
}


class TestCopies:
    """Copies keep every parameter a view of their own buffer."""

    @pytest.mark.parametrize("how", list(COPIES), ids=list(COPIES))
    def test_copy_parameters_are_views_of_its_flat(self, how):
        x, y = xor_data()
        model = train_mlp(MlpSpec((2, 8, 4, 2), dropout_rate=0.25, seed=63),
                          TrainConfig(epochs=3, seed=3), (x, y))
        twin = COPIES[how](model)
        assert np.array_equal(twin.flat, model.flat)
        assert not np.shares_memory(twin.flat, model.flat)
        for p in twin.weights + twin.biases:
            assert np.shares_memory(p, twin.flat)
        assert twin.spec == model.spec
        assert twin.loss_history == model.loss_history
        assert twin.loss_history is not model.loss_history

    @pytest.mark.parametrize("how", list(COPIES), ids=list(COPIES))
    def test_copy_trains_like_original(self, how):
        x, y = xor_data()
        model = train_mlp(MlpSpec((2, 8, 4, 2), dropout_rate=0.25, seed=64),
                          TrainConfig(epochs=3, seed=3), (x, y))
        twin = COPIES[how](model)
        before = model.forward(x)
        config = TrainConfig(epochs=4, batch_size=8, seed=4)
        fit_adam(model, config, x, y)
        fit_adam(twin, config, x, y)
        assert_same_parameters(twin, model)
        assert twin.loss_history == model.loss_history
        assert np.array_equal(twin.forward(x), model.forward(x))
        assert not np.array_equal(twin.forward(x), before)


def test_diverged_error_pickles_with_epoch():
    error = TrainingDivergedError("loss became non-finite at epoch 3", epoch=3)
    back = pickle.loads(pickle.dumps(error))
    assert type(back) is TrainingDivergedError
    assert str(back) == str(error)
    assert back.epoch == 3


class TestMcDropout:
    def test_zero_dropout_rows_identical(self):
        model = Mlp(MlpSpec((2, 8, 2), dropout_rate=0.0, seed=41))
        x = np.random.default_rng(7).normal(size=(5, 2))
        tensor = mc_dropout_predict(model, x, 6, seed=1)
        deterministic = model.forward(x)
        for t in range(6):
            assert np.array_equal(tensor.probs[:, t, :], deterministic)

    def test_single_pass(self):
        model = Mlp(MlpSpec((2, 8, 2), dropout_rate=0.25, seed=42))
        x = np.random.default_rng(8).normal(size=(3, 2))
        tensor = mc_dropout_predict(model, x, 1, seed=2)
        assert tensor.n_passes == 1

    def test_deterministic_for_seed(self):
        model = Mlp(MlpSpec((2, 8, 2), dropout_rate=0.25, seed=43))
        x = np.random.default_rng(9).normal(size=(4, 2))
        a = mc_dropout_predict(model, x, 10, seed=3)
        b = mc_dropout_predict(model, x, 10, seed=3)
        assert np.array_equal(a.probs, b.probs)

    def test_passes_match_per_layer_draws(self):
        # one draw per pass, laid out layer by layer, gives the masks that one
        # draw per layer gives
        model = Mlp(MlpSpec((2, 32, 16, 4, 2), dropout_rate=0.25, seed=45))
        x = np.random.default_rng(11).normal(size=(150, 2))
        tensor = mc_dropout_predict(model, x, 5, seed=6)
        rng = np.random.default_rng(np.random.SeedSequence(6))
        for t in range(5):
            want = oracle.forward_cached(list(model.weights), list(model.biases), 0.25, x, rng)
            assert np.array_equal(tensor.probs[:, t, :], want[0][-1])

    def test_mc_mean_converges_across_halves(self):
        model = Mlp(MlpSpec((2, 16, 2), dropout_rate=0.5, seed=44))
        x = np.random.default_rng(10).normal(size=(1, 2))
        tensor = mc_dropout_predict(model, x, 10_000, seed=4)
        first = tensor.probs[0, :5000, :].mean(axis=0)
        second = tensor.probs[0, 5000:, :].mean(axis=0)
        assert np.all(np.abs(first - second) < 0.02)


def member_specs(spec: EnsembleSpec) -> list[MlpSpec]:
    """The architecture of each member's training job, for 2-D binary data."""
    x, y = xor_data()
    return [job[1] for job in _ensemble_jobs(spec, TrainConfig(), (x, y))]


class TestEnsemble:
    def test_architectures_deterministic(self):
        spec = EnsembleSpec(member_count=5, master_seed=12)
        a = member_specs(spec)
        b = member_specs(spec)
        assert [m.layer_widths for m in a] == [m.layer_widths for m in b]
        assert [m.seed for m in a] == [m.seed for m in b]

    def test_architecture_ranges(self):
        spec = EnsembleSpec(member_count=30, master_seed=13)
        for member in member_specs(spec):
            hidden = member.layer_widths[1:-1]
            assert len(hidden) in (2, 3)
            for width, (lo, hi) in zip(hidden, WIDTH_RANGES):
                assert lo <= width <= hi

    def test_member_count_minimum(self):
        with pytest.raises(ValidationError):
            EnsembleSpec(member_count=1)

    def test_single_model_ensemble_identity(self):
        model = Mlp(MlpSpec((2, 8, 2), dropout_rate=0.25, seed=51))
        x = np.random.default_rng(11).normal(size=(6, 2))
        tensor = ensemble_predict([model], x)
        assert tensor.n_passes == 1
        assert np.array_equal(tensor.probs[:, 0, :], model.forward(x))

    def test_ensemble_not_much_worse_than_best_member(self):
        ds = generate_dataset(200, 0.15, 21)
        spec = EnsembleSpec(member_count=5, master_seed=22)
        models = train_ensemble(spec, TrainConfig(epochs=60, seed=1), (ds.train_x, ds.train_y))
        tensor = ensemble_predict(models, ds.test_x, ds.test_ids)
        summaries = aggregate(tensor, ENSEMBLE)
        predicted = summaries.predicted_class
        ensemble_acc = (predicted == ds.test_y).mean()
        member_accs = [
            (m.forward(ds.test_x).argmax(axis=1) == ds.test_y).mean()
            for m in models
        ]
        assert ensemble_acc >= max(member_accs) - 0.05


class TestEmcd:
    def test_zero_dropout_collapses_to_ensemble(self):
        models = [Mlp(MlpSpec((2, 6, 2), dropout_rate=0.0, seed=s)) for s in (1, 2, 3)]
        x = np.random.default_rng(12).normal(size=(4, 2))
        emcd_tensor, scheme = emcd_predict(models, x, t_per_member=5, seed=9)
        ens_tensor = ensemble_predict(models, x)
        emcd_summaries = aggregate(emcd_tensor, scheme)
        ens_summaries = aggregate(ens_tensor, ENSEMBLE)
        assert np.max(np.abs(emcd_summaries.means - ens_summaries.means)) < 1e-12

    def test_partition_sums_to_pass_count(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            k = int(rng.integers(1, 5))
            t = int(rng.integers(1, 6))
            models = [
                Mlp(MlpSpec((2, 4, 2), dropout_rate=0.25, seed=int(s)))
                for s in rng.integers(0, 1000, k)
            ]
            x = rng.normal(size=(3, 2))
            tensor, scheme = emcd_predict(models, x, t_per_member=t, seed=14)
            assert sum(scheme.member_pass_counts) == tensor.n_passes
            assert scheme.member_pass_counts == tuple([t] * k)


PREDICTORS = {  # each predictor of a model that takes 2-D inputs, with a pass count and seed
    "mc_dropout_predict": lambda model, x, count=2, seed=0: mc_dropout_predict(model, x, count,
                                                                               seed),
    "emcd_predict": lambda model, x, count=2, seed=0: emcd_predict([model, model], x, count, seed),
    "ensemble_predict": lambda model, x, count=2, seed=0: ensemble_predict([model, model], x),
}
COUNTED = {"mc_dropout_predict": ("t_passes", "need at least one forward pass"),
           "emcd_predict": ("t_per_member", "need at least one pass per member")}


class TestPredictorArguments:
    """Every predictor checks its pass count, seed and inputs before numpy sees them."""

    model = Mlp(MlpSpec((2, 4, 2), seed=3))

    @pytest.mark.parametrize("count", [2.5, 2.0, True, "3", None])
    @pytest.mark.parametrize("entry", list(COUNTED))
    def test_pass_count_must_be_an_integer(self, entry, count):
        name = COUNTED[entry][0]
        with pytest.raises(ValidationError,
                           match=re.escape(f"{name} must be an integer, got {count!r}")):
            PREDICTORS[entry](self.model, np.zeros((3, 2)), count=count)

    @pytest.mark.parametrize("count", [0, -1])
    @pytest.mark.parametrize("entry", list(COUNTED))
    def test_pass_count_below_one(self, entry, count):
        with pytest.raises(ValidationError, match=COUNTED[entry][1]):
            PREDICTORS[entry](self.model, np.zeros((3, 2)), count=count)

    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    @pytest.mark.parametrize("entry", list(COUNTED))
    def test_seed_must_be_a_non_negative_integer(self, entry, seed):
        with pytest.raises(ValidationError,
                           match=re.escape(f"seed must be a non-negative integer, got {seed!r}")):
            PREDICTORS[entry](self.model, np.zeros((3, 2)), seed=seed)

    @pytest.mark.parametrize("entry", list(COUNTED))
    def test_numpy_integer_count_and_seed(self, entry):
        x = np.random.default_rng(5).normal(size=(3, 2))
        want = PREDICTORS[entry](self.model, x, 3, 7)
        got = PREDICTORS[entry](self.model, x, np.int64(3), np.uint32(7))
        if entry == "emcd_predict":
            (want, _), (got, scheme) = want, got
            assert scheme.member_pass_counts == (3, 3)
            assert {type(t) for t in scheme.member_pass_counts} == {int}
        assert got.n_passes == want.n_passes and np.array_equal(got.probs, want.probs)

    @pytest.mark.parametrize("x, message", [
        (np.zeros((3, 5)), "input width 2 does not match data dim 5"),
        (np.zeros(2), r"inputs must be a 2-D array, got shape \(2,\)"),
        (np.zeros((3, 2, 1)), r"inputs must be a 2-D array, got shape \(3, 2, 1\)"),
    ], ids=["too wide", "1-D", "3-D"])
    @pytest.mark.parametrize("entry", list(PREDICTORS))
    def test_inputs_are_checked_as_training_checks_them(self, entry, x, message):
        with pytest.raises(ValidationError, match=message):
            PREDICTORS[entry](self.model, x)

    def test_every_member_checks_the_input_width(self):
        wide = Mlp(MlpSpec((3, 4, 2), seed=4))
        with pytest.raises(ValidationError, match="input width 3 does not match data dim 2"):
            ensemble_predict([self.model, wide], np.zeros((3, 2)))
