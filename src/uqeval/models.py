"""From-scratch MLP classifiers used to exercise the evaluation pipeline.

A small fully connected network with rectifier hidden layers, a softmax
head, inverted dropout, and Adam on the cross-entropy loss. Everything is
seeded: dataset, weight init, shuffling, and dropout masks each consume a
dedicated stream, so identical seeds reproduce identical weights and
identical prediction tensors bit for bit.

Inverted dropout rescales surviving activations by 1/(1-p) at mask time,
so the deterministic forward pass needs no compensation and the expected
masked pre-activation equals the unmasked one.

Parameter layout: each :class:`Mlp` keeps every parameter in one float64
buffer, ``Mlp.flat``, layer by layer: layer ``i``'s weight matrix
(``fan_in x fan_out``, row-major) followed by its bias (``fan_out``).
``Mlp.weights`` and ``Mlp.biases`` are tuples of reshaped views into that
buffer. Writing through a view writes the buffer; rebinding either tuple, or
assigning one of its items, raises, so no parameter can come loose from the
buffer that training updates. The backward pass writes its gradients into
views of a gradient buffer with the same layout, and :func:`fit_adam` holds
its moment estimates in buffers of that size, so one Adam step is a fixed
dozen in-place array operations whatever the depth of the network.

Bit identity: Adam is elementwise, and the update applies, to every element
and in the same order, the operations of a per-tensor update:
``m*=b1; m+=(1-b1)*g; v*=b2; v+=(1-b2)*g**2; p-=lr*(m/bc1)/(sqrt(v/bc2)+eps)``.
The gradients are the same products and sums, written into views. Training
a model on the flat buffer therefore gives the same weights, bit for bit, as
training separate weight and bias arrays; the test suite keeps that
list-of-arrays engine as its reference.

Parallel training: every model of an ensemble, and of the demo, depends only
on its own seeds, so :func:`train_ensemble` and the demo train them in
forked worker processes, one per usable CPU (:func:`_map_jobs`). Every such
model is one job ``(spec, config, x, y, init=None)`` of the one function
:func:`_train_job`: a fresh model, or one warm-started from the parameter
buffer ``init``. Each job seeds itself as it would inline, and a model comes
back through pickle as its spec, buffer and loss history, so the weights do
not depend on the number of workers.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .aggregate import AggregationScheme, emcd_scheme
from .errors import TrainingDivergedError, ValidationError
from .tensor import JSON_TYPES, PredictionTensor, artifact_file, json_field

MODEL_FORMAT = "uqeval-mlp"
MODEL_VERSION = 1


def is_integer(value) -> bool:
    """Whether ``value`` is an integer by type: a Python or numpy integer, and not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True)
class MlpSpec:
    """Architecture: layer widths (input, hidden..., output), dropout, init seed."""

    layer_widths: tuple[int, ...]
    dropout_rate: float = 0.25
    seed: int = 0

    def __post_init__(self):
        for w in self.layer_widths:
            if not is_integer(w):
                raise ValidationError(f"layer width {w!r} is not an integer")
        widths = tuple(map(int, self.layer_widths))
        if len(widths) < 3:
            raise ValidationError("need at least one hidden layer")
        if widths[-1] < 2:
            raise ValidationError("output width must be at least 2 classes")
        if any(w < 1 for w in widths):
            raise ValidationError(f"layer widths must be positive, got {widths}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValidationError(f"dropout rate {self.dropout_rate} outside [0, 1)")
        object.__setattr__(self, "layer_widths", widths)


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.001
    epochs: int = 300
    batch_size: int = 32
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        # zero is allowed so the identity-update property stays testable
        if self.learning_rate < 0:
            raise ValidationError("learning rate must be nonnegative")
        if self.epochs < 1:
            raise ValidationError("need at least one epoch")
        if self.batch_size < 1:
            raise ValidationError("batch size must be positive")


def softmax(z: np.ndarray) -> np.ndarray:
    e = z - np.maximum.reduce(z, axis=1, keepdims=True)
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=1, keepdims=True)
    return e


def cross_entropy(probs: np.ndarray, y: np.ndarray) -> float:
    picked = probs[np.arange(len(y)), y]
    return float(-np.mean(np.log(np.clip(picked, 1e-300, 1.0))))


def _layer_views(buffer: np.ndarray, widths) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """Weight and bias views into a buffer laid out like :attr:`Mlp.flat`."""
    weights, biases = [], []
    offset = 0
    for fan_in, fan_out in zip(widths, widths[1:]):
        weights.append(buffer[offset:offset + fan_in * fan_out].reshape(fan_in, fan_out))
        offset += fan_in * fan_out
        biases.append(buffer[offset:offset + fan_out])
        offset += fan_out
    return tuple(weights), tuple(biases)


class Mlp:
    """Fully connected ReLU network with a softmax output head.

    Every parameter lives in the one buffer :attr:`flat`; :attr:`weights`
    and :attr:`biases` are read-only tuples of views into it.
    """

    def __init__(self, spec: MlpSpec):
        self.spec = spec
        widths = spec.layer_widths
        self._flat = np.zeros(sum(i * o + o for i, o in zip(widths, widths[1:])))
        self._weights, self._biases = _layer_views(self._flat, widths)
        rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
        for w in self._weights:
            limit = math.sqrt(6.0 / w.shape[0])
            w[...] = rng.uniform(-limit, limit, size=w.shape)
        self.loss_history: list[float] = []

    def __reduce__(self):
        # copies and pickles rebuild the views on the copied buffer; by default
        # each view would become an array of its own, cut loose from ``flat``
        return _rebuild_mlp, (self.spec, self._flat, self.loss_history)

    @property
    def flat(self) -> np.ndarray:
        """All parameters, layer by layer: weights (row-major), then bias."""
        return self._flat

    @property
    def weights(self) -> tuple[np.ndarray, ...]:
        return self._weights

    @property
    def biases(self) -> tuple[np.ndarray, ...]:
        return self._biases

    @property
    def n_classes(self) -> int:
        return self.spec.layer_widths[-1]

    def forward(self, x: np.ndarray, dropout_rng: np.random.Generator | None = None) -> np.ndarray:
        """Class probabilities; pass a generator to sample dropout masks."""
        return self._forward_cached(x, dropout_rng)[0][-1]

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Deterministic forward pass (dropout off)."""
        return self.forward(np.asarray(x, dtype=np.float64))

    def _forward_cached(self, x, dropout_rng):
        x = np.asarray(x, dtype=np.float64)
        rate = self.spec.dropout_rate
        activations = [x]
        pre = []
        masks = []
        a = x
        last = len(self._weights) - 1
        for i, (w, b) in enumerate(zip(self._weights, self._biases)):
            z = a @ w
            z += b
            pre.append(z)
            if i == last:
                a = softmax(z)
                masks.append(None)
            else:
                a = np.maximum(z, 0.0)
                if dropout_rng is not None and rate > 0.0:
                    keep = dropout_rng.random(a.shape) >= rate
                    a *= keep
                    a /= 1.0 - rate
                    masks.append(keep)
                else:
                    masks.append(None)
            activations.append(a)
        return activations, pre, masks

    def _backprop(self, activations, pre, masks, y, grads_w, grads_b) -> None:
        """Write the mean cross-entropy gradient into the views ``grads_w``/``grads_b``.

        Takes the cache of :meth:`_forward_cached` and overwrites its output
        probabilities with the output delta.
        """
        n = len(y)
        rate = self.spec.dropout_rate
        delta = activations[-1]
        delta[np.arange(n), y] -= 1.0
        delta /= n
        for i in range(len(grads_w) - 1, -1, -1):
            np.matmul(activations[i].T, delta, out=grads_w[i])
            np.add.reduce(delta, axis=0, out=grads_b[i])
            if i > 0:
                delta = delta @ self._weights[i].T
                if masks[i - 1] is not None:
                    delta *= masks[i - 1]
                    delta /= 1.0 - rate
                delta *= pre[i - 1] > 0.0

    def loss_and_gradients(self, x, y, dropout_rng=None):
        """Cross-entropy loss and its gradients for every weight and bias."""
        y = np.asarray(y, dtype=np.int64)
        cache = self._forward_cached(x, dropout_rng)
        loss = cross_entropy(cache[0][-1], y)
        grads_w, grads_b = _layer_views(np.empty_like(self._flat), self.spec.layer_widths)
        self._backprop(*cache, y, grads_w, grads_b)
        return loss, list(grads_w), list(grads_b)


def _rebuild_mlp(spec: MlpSpec, flat, loss_history) -> Mlp:
    model = Mlp.__new__(Mlp)
    model.spec = spec
    model._flat = np.array(flat, dtype=np.float64)
    model._weights, model._biases = _layer_views(model._flat, spec.layer_widths)
    model.loss_history = list(loss_history)
    return model


def fit_adam(model: Mlp, config: TrainConfig, x: np.ndarray, y: np.ndarray) -> None:
    """Train a model in place with fresh Adam state; appends epoch losses.

    Shuffling and dropout draw from streams derived from ``config.seed``, so
    the run is reproducible. Each step computes the batch gradient into one
    flat buffer and applies one Adam update to :attr:`Mlp.flat`; no batch
    loss is computed. Raises :class:`TrainingDivergedError` with the epoch
    index if the full-data loss goes non-finite.
    """
    ss = np.random.SeedSequence(config.seed)
    shuffle_rng, dropout_rng = (np.random.default_rng(s) for s in ss.spawn(2))
    rng = dropout_rng if model.spec.dropout_rate > 0 else None

    params = model.flat
    grad = np.zeros_like(params)
    grads_w, grads_b = _layer_views(grad, model.spec.layer_widths)
    m = np.zeros_like(params)
    v = np.zeros_like(params)
    update = np.empty_like(params)
    denom = np.empty_like(params)
    b1, b2, lr, eps = config.beta1, config.beta2, config.learning_rate, config.eps
    step = 0

    n = len(y)
    for epoch in range(config.epochs):
        order = shuffle_rng.permutation(n)
        for start in range(0, n, config.batch_size):
            batch = order[start:start + config.batch_size]
            cache = model._forward_cached(x[batch], rng)
            model._backprop(*cache, y[batch], grads_w, grads_b)
            step += 1
            bc1 = 1.0 - b1 ** step
            bc2 = 1.0 - b2 ** step
            # m = b1*m + (1-b1)*g; v = b2*v + (1-b2)*g²; p -= lr*(m/bc1)/(sqrt(v/bc2)+eps),
            # one operation per line in the order of a per-tensor update, so every
            # element rounds exactly as it did there
            m *= b1
            np.multiply(grad, 1.0 - b1, out=update)
            m += update
            v *= b2
            np.square(grad, out=update)
            update *= 1.0 - b2
            v += update
            np.divide(m, bc1, out=update)
            update *= lr
            np.divide(v, bc2, out=denom)
            np.sqrt(denom, out=denom)
            denom += eps
            update /= denom
            params -= update
        epoch_loss = cross_entropy(model.predict_proba(x), y)
        if not math.isfinite(epoch_loss):
            raise TrainingDivergedError(
                f"loss became non-finite at epoch {epoch}", epoch=epoch
            )
        model.loss_history.append(epoch_loss)


def train_mlp(spec: MlpSpec, config: TrainConfig, data) -> Mlp:
    """Train a fresh model with Adam on cross entropy.

    ``data`` is an ``(x, y)`` pair of inputs and integer labels.
    Deterministic for fixed seeds.
    """
    x, y = _training_arrays(data)
    if x.shape[1] != spec.layer_widths[0]:
        raise ValidationError(
            f"input width {spec.layer_widths[0]} does not match data dim {x.shape[1]}"
        )
    if int(y.max()) >= spec.layer_widths[-1]:
        raise ValidationError("label outside the model's class range")

    model = Mlp(spec)
    model.loss_history.append(cross_entropy(model.predict_proba(x), y))
    fit_adam(model, config, x, y)
    return model


def _train_job(spec: MlpSpec, config: TrainConfig, x, y, init=None) -> Mlp:
    """A fresh model trained on ``(x, y)`` or, given ``init``, one warm-started from it.

    ``init`` is a parameter buffer laid out like :attr:`Mlp.flat`. Pool
    workers look this function up by name, and it looks up ``train_mlp`` and
    ``fit_adam`` by name, so either may be rebound.
    """
    if init is None:
        return train_mlp(spec, config, (x, y))
    model = Mlp(spec)
    model.flat[...] = init
    fit_adam(model, config, x, y)
    return model


def derived_seed(seq: np.random.SeedSequence) -> int:
    """The integer seed of a seed-sequence child: its first 64-bit word, mod 2**63."""
    return int(seq.generate_state(1, dtype=np.uint64)[0] % (2**63))


def _map_jobs(fn, jobs: list[tuple]) -> list:
    """``[fn(*job) for job in jobs]``, spread over one forked worker per usable CPU.

    Results come back in job order, and the first job to raise, in that
    order, raises here. The jobs run inline when one CPU is usable, when the
    platform cannot fork, or in a daemon process, which may not have
    children. A forked worker starts from this process's memory, so it needs
    no imports; ``fn`` is a module-level function, and it and the results
    travel by pickle.
    """
    import multiprocessing

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(cpus or 1, len(jobs))
    if (workers < 2 or multiprocessing.current_process().daemon
            or "fork" not in multiprocessing.get_all_start_methods()):
        return [fn(*job) for job in jobs]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
        futures = [pool.submit(fn, *job) for job in jobs]
        try:
            return [future.result() for future in futures]
        finally:
            for future in futures:  # after a failure, start no further job
                future.cancel()


def _training_arrays(data):
    x, y = data
    return np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.int64)


def _sampled_tensor(models: list[Mlp], passes_per_model: int, rngs, inputs,
                    sample_ids) -> PredictionTensor:
    """``passes_per_model`` forward passes of each model, model-major along the pass axis.

    Each model draws its dropout masks from its generator in ``rngs``; a
    ``None`` generator, or a dropout rate of 0, gives deterministic passes.
    Sample ids default to ``s0000, s0001, ...``.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    passes = [model.forward(inputs, rng) for model, rng in zip(models, rngs)
              for _ in range(passes_per_model)]
    if sample_ids is None:
        sample_ids = (f"s{i:04d}" for i in range(len(inputs)))
    return PredictionTensor(np.stack(passes, axis=1), tuple(sample_ids))


def mc_dropout_predict(model: Mlp, inputs, t_passes: int, seed: int,
                       sample_ids=None) -> PredictionTensor:
    """T stochastic forward passes with dropout kept on; one pass per mask draw."""
    if t_passes < 1:
        raise ValidationError("need at least one forward pass")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return _sampled_tensor([model], t_passes, [rng], inputs, sample_ids)


def ensemble_predict(models: list[Mlp], inputs, sample_ids=None) -> PredictionTensor:
    """One deterministic pass per member; the pass axis indexes members."""
    if not models:
        raise ValidationError("need at least one model")
    return _sampled_tensor(models, 1, [None] * len(models), inputs, sample_ids)


def emcd_predict(models: list[Mlp], inputs, t_per_member: int, seed: int,
                 sample_ids=None) -> tuple[PredictionTensor, AggregationScheme]:
    """Each member evaluated by MC dropout; returns the tensor and its partition.

    The pass axis is member-major: member k occupies passes
    ``k*t_per_member .. (k+1)*t_per_member - 1``.
    """
    if not models:
        raise ValidationError("need at least one model")
    if t_per_member < 1:
        raise ValidationError("need at least one pass per member")
    rngs = [np.random.default_rng(seq) for seq in np.random.SeedSequence(seed).spawn(len(models))]
    tensor = _sampled_tensor(models, t_per_member, rngs, inputs, sample_ids)
    return tensor, emcd_scheme([t_per_member] * len(models))


# a member has two or three hidden layers, drawn with equal odds; hidden
# layer k's width is drawn from WIDTH_RANGES[k], bounds inclusive
DEPTH_CHOICES = (2, 3)
WIDTH_RANGES = ((32, 64), (8, 32), (2, 8))


@dataclass(frozen=True)
class EnsembleSpec:
    """Heterogeneous ensemble: depths and widths drawn from a master seed."""

    member_count: int = 30
    dropout_rate: float = 0.25
    master_seed: int = 0

    def __post_init__(self):
        if self.member_count < 2:
            raise ValidationError("an ensemble needs at least 2 members")


def draw_architectures(spec: EnsembleSpec, n_inputs: int, n_classes: int) -> list[MlpSpec]:
    """Member specs (widths and init seeds) derived from the master seed."""
    seqs = np.random.SeedSequence(spec.master_seed).spawn(1)
    rng = np.random.default_rng(seqs[0])
    members = []
    for _ in range(spec.member_count):
        depth = int(rng.choice(DEPTH_CHOICES))
        hidden = [int(rng.integers(lo, hi + 1)) for lo, hi in WIDTH_RANGES[:depth]]
        init_seed = int(rng.integers(0, 2**63 - 1))
        members.append(
            MlpSpec(
                layer_widths=(n_inputs, *hidden, n_classes),
                dropout_rate=spec.dropout_rate,
                seed=init_seed,
            )
        )
    return members


def _ensemble_jobs(spec: EnsembleSpec, config: TrainConfig, data) -> list[tuple]:
    """The :func:`_train_job` job ``(spec, config, x, y)`` of every member."""
    x, y = _training_arrays(data)
    member_specs = draw_architectures(spec, x.shape[1], int(y.max()) + 1)
    train_seqs = np.random.SeedSequence(spec.master_seed).spawn(spec.member_count + 1)[1:]
    return [(member_spec, replace(config, seed=derived_seed(seq)), x, y)
            for member_spec, seq in zip(member_specs, train_seqs)]


def train_ensemble(spec: EnsembleSpec, config: TrainConfig, data) -> list[Mlp]:
    """Independently train every member on the ``(x, y)`` pair ``data``, in parallel."""
    return _map_jobs(_train_job, _ensemble_jobs(spec, config, data))


def save_model(model: Mlp, path, manifest_digest: str | None = None) -> None:
    """Versioned JSON weight file; floats render exactly (repr round-trip)."""
    payload = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "layer_widths": list(model.spec.layer_widths),
        "dropout_rate": model.spec.dropout_rate,
        "init_seed": model.spec.seed,
        "weights": [w.ravel().tolist() for w in model.weights],
        "biases": [b.tolist() for b in model.biases],
    }
    if manifest_digest is not None:
        payload["manifest_digest"] = manifest_digest
    with artifact_file(path) as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def load_model(path) -> Mlp:
    """Read a :func:`save_model` file; every field and block is checked before use."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except ValueError as exc:  # not JSON, or not UTF-8
        raise ValidationError(f"{path}: malformed JSON: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != MODEL_FORMAT:
        raise ValidationError(f"{path}: not a {MODEL_FORMAT} file")
    if payload.get("version") != MODEL_VERSION:
        raise ValidationError(f"{path}: unsupported version {payload.get('version')}")
    try:
        widths = json_field(payload, "layer_widths", "an array of integers")
        rate = json_field(payload, "dropout_rate", "a number")
        seed = json_field({"init_seed": 0, **payload}, "init_seed", "an integer")
        weights = json_field(payload, "weights", "an array")
        biases = json_field(payload, "biases", "an array")
        spec = MlpSpec(tuple(widths), float(rate), seed)
    except KeyError as exc:
        raise ValidationError(f"{path}: missing {exc}") from exc
    except (TypeError, ValidationError) as exc:
        raise ValidationError(f"{path}: {exc}") from exc
    layers = list(zip(widths, widths[1:]))
    for name, blocks, sizes in (("weight", weights, [i * o for i, o in layers]),
                                ("bias", biases, widths[1:])):
        if len(blocks) != len(layers):
            raise ValidationError(f"{path}: expected {len(layers)} {name} blocks, got {len(blocks)}")
        for i, (block, size) in enumerate(zip(blocks, sizes)):
            if not JSON_TYPES["an array of numbers"](block) or len(block) != size:
                raise ValidationError(f"{path}: {name} block {i} is not {size} numbers")
    try:
        flat = np.array([v for w, b in zip(weights, biases) for v in w + b], dtype=np.float64)
    except OverflowError as exc:
        raise ValidationError(f"{path}: {exc}") from exc
    return _rebuild_mlp(spec, flat, [])
