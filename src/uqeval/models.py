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
A model is a frozen dataclass of its spec, that buffer and its loss history.
``Mlp.weights`` and ``Mlp.biases`` build tuples of reshaped views into the
buffer on each access, so writing through a view writes the buffer, a copy's
views are into its own copy, and no parameter can come loose from the
buffer that training updates: rebinding ``flat`` raises.

Lockstep training: :func:`_train_stack` is the one entry into the Adam
engine. It checks, then trains, a list of jobs ``(spec, config, x, y,
init=None)``: a fresh model, or one warm-started from the parameter buffer
``init``, each on its own data with its own shuffle and dropout generators,
all of one shape and on one schedule. Their parameters, gradients and Adam
moments are ``(H, P)`` buffers, each row laid out like ``Mlp.flat``, and
the layer views into them are 3-D (2-D for a stack of one), so a batch is
one batched matmul per layer for the whole stack and one Adam step is a
fixed dozen in-place array operations whatever the depth or the stack size.
:func:`train_mlp` and :func:`_train_job` train a stack of one job, and
:func:`fit_adam` one warm-started from the model's own buffer.

Bit identity: Adam is elementwise, and the update applies, to every element
and in the same order, the operations of a per-tensor update:
``m*=b1; m+=(1-b1)*g; v*=b2; v+=(1-b2)*g**2; p-=lr*(m/bc1)/(sqrt(v/bc2)+eps)``.
The gradients are the same products and sums, written into views, and a
batched matmul multiplies each model's matrices as a 2-D matmul of them
does. Training a model in a stack therefore gives the same weights, bit for
bit, as training it alone on separate weight and bias arrays; the test
suite keeps that list-of-arrays engine as its reference.

Parallel training: every model of an ensemble, and of the demo, depends only
on its own seeds and, for a warm start, on the buffer it starts from, so
:func:`train_ensemble` and the demo train them in forked worker processes,
one per usable CPU. :func:`_map_jobs`, the job map, runs a list of
``(fn, *args)`` jobs, where ``fn`` is a plain module-level function, since
pickle sends it by name, and returns the results in job order; a model is
the job ``(_train_job, spec, config, x, y, init=None)``.
Each job seeds itself as it would inline, and a model comes back through
pickle as its spec, buffer and loss history, so the weights do not depend
on the number of workers or the order they run in. An ensemble's master
seed spawns ``member_count + 1`` children: child 0 draws every member's
depth, widths and init seed, member by member, and child ``k + 1`` seeds
member ``k``'s training.

Dropout masks: a pass over ``n`` rows draws each model's uniforms with one
call, ``n * sum(hidden widths)`` of them, and :func:`_mask_views` lays them
out as one ``(n, width)`` mask per hidden layer, layer after layer, as
per-layer draws would give them; the engine makes that one call per model
and batch. A mask holds each unit's dropout divisor (:func:`_draw_masks`),
and the labels enter the backward pass as one-hot rows: both give the bits
that a 0/1 mask with a separate rescale, and an indexed label column, give,
with fewer numpy calls per step.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .aggregate import AggregationScheme, emcd_scheme
from .errors import TrainingDivergedError, ValidationError
from .tensor import (PredictionTensor, class_sums, int64_labels, require_integer, require_real,
                     require_seed, require_sequence)


# Adam's moment decay rates and denominator guard (Kingma & Ba 2015 defaults)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

DROPOUT_RATES = (0.0, math.nextafter(1.0, 0.0), "{name} {value} outside [0, 1)")
DROPOUT_RATE = 0.25  # an MlpSpec's by default, and every ensemble member's


@dataclass(frozen=True)
class MlpSpec:
    """Architecture: layer widths (input, hidden..., output), dropout, init seed."""

    layer_widths: tuple[int, ...]
    dropout_rate: float = DROPOUT_RATE
    seed: int = 0

    def __post_init__(self):
        widths = tuple(require_integer(w, "layer width")
                       for w in require_sequence(self.layer_widths, "layer_widths"))
        require_seed(self.seed)
        if len(widths) < 3:
            raise ValidationError("need at least one hidden layer")
        if widths[-1] < 2:
            raise ValidationError("output width must be at least 2 classes")
        if any(w < 1 for w in widths):
            raise ValidationError(f"layer widths must be positive, got {widths}")
        object.__setattr__(self, "layer_widths", widths)
        object.__setattr__(self, "dropout_rate",
                           require_real(self.dropout_rate, "dropout rate", *DROPOUT_RATES))


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.001
    epochs: int = 300
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        require_integer(self.epochs, "epochs", 1, "need at least one epoch")
        require_integer(self.batch_size, "batch_size", 1, "batch size must be positive")
        require_seed(self.seed)
        # zero is allowed so the identity-update property stays testable
        object.__setattr__(self, "learning_rate", require_real(
            self.learning_rate, "learning rate", 0.0, out_of_range="{name} must be nonnegative"))


def softmax(z: np.ndarray) -> np.ndarray:
    # numpy's row max and row sum, bit for bit, taken a class column at a time
    # instead of one reduction per row (see tensor.class_sums); rows lie along
    # the last axis, so a stack's batches are one call
    peak = z[..., 0]
    for c in range(1, z.shape[-1]):
        peak = np.maximum(peak, z[..., c])
    e = z - peak[..., None]
    np.exp(e, out=e)
    e /= class_sums(e)[..., None]
    return e


def cross_entropy(probs: np.ndarray, y: np.ndarray) -> float:
    picked = probs[np.arange(len(y)), y]
    return float(-np.mean(np.log(np.clip(picked, 1e-300, 1.0))))


def _parameter_count(widths) -> int:
    """The length of :attr:`Mlp.flat` for these layer widths."""
    return sum(i * o + o for i, o in zip(widths, widths[1:]))


def _layer_views(buffer: np.ndarray, widths) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """Weight and bias views into a buffer laid out like :attr:`Mlp.flat`, or a stack of them.

    A buffer of shape ``(..., P)`` gives weights of shape ``(..., fan_in, fan_out)``
    and biases of shape ``(..., fan_out)``.
    """
    lead = buffer.shape[:-1]
    weights, biases = [], []
    offset = 0
    for fan_in, fan_out in zip(widths, widths[1:]):
        block = buffer[..., offset:offset + fan_in * fan_out]
        weights.append(block.reshape(*lead, fan_in, fan_out))
        offset += fan_in * fan_out
        biases.append(buffer[..., offset:offset + fan_out])
        offset += fan_out
    return tuple(weights), tuple(biases)


def _draw_masks(rngs, rate: float, out: np.ndarray) -> np.ndarray:
    """``out`` with row ``h`` drawn from ``rngs[h]``: uniforms, each replaced by its dropout divisor.

    A unit is kept where its uniform is at least ``rate``. Its divisor is then
    ``1 - rate``, and elsewhere it is infinite. Dividing by it gives the bits
    of multiplying by the 0/1 keep-mask and then dividing by ``1 - rate``,
    signed zeros included, in one operation.
    """
    for rng, row in zip(rngs, out):
        rng.random(out=row)
    return np.array([np.inf, 1.0 - rate]).take(out >= rate, out=out, mode="clip")


def _mask_views(divisors: np.ndarray, hidden, n_rows: int) -> list[np.ndarray]:
    """One ``(..., n_rows, width)`` view per hidden layer of divisors drawn layer after layer."""
    lead = divisors.shape[:-1]
    masks, offset = [], 0
    for width in hidden:
        masks.append(divisors[..., offset:offset + n_rows * width].reshape(*lead, n_rows, width))
        offset += n_rows * width
    return masks


def _one_hot(y: np.ndarray, n_classes: int) -> np.ndarray:
    """Row ``i`` is 1.0 in column ``y[i]`` and 0.0 elsewhere."""
    targets = np.zeros((len(y), n_classes))
    targets[np.arange(len(y)), y] = 1.0
    return targets


def _forward(weights, biases, x, masks):
    """Activations, pre-activations and ``masks``: dropout divisors per hidden layer, or None.

    Takes one model's 2-D weights and ``(rows, width)`` inputs, or a stack's
    3-D weights and ``(H, rows, width)`` inputs, with biases that broadcast
    over the rows: one matmul per layer either way.
    """
    activations = [x]
    pre = []
    a = x
    last = len(weights) - 1
    for i, (w, b) in enumerate(zip(weights, biases)):
        z = np.matmul(a, w)
        z += b
        pre.append(z)
        if i == last:
            a = softmax(z)
        else:
            a = np.maximum(z, 0.0)
            if masks is not None:
                a /= masks[i]
        activations.append(a)
    return activations, pre, masks


def _backprop(weights_t, activations, pre, masks, targets, grads_w, grads_b) -> None:
    """Write the mean cross-entropy gradient into the views ``grads_w``/``grads_b``.

    Takes the transposed weights ``weights_t``, the cache of :func:`_forward`
    and the one-hot labels ``targets``, for one model or a stack, and
    overwrites the cached output probabilities with the output delta.
    Subtracting 0.0 leaves a probability as it is, so the delta is the one
    that subtracting 1.0 at each label gives.
    """
    delta = activations[-1]
    delta -= targets
    delta /= targets.shape[-2]
    for i in range(len(grads_w) - 1, -1, -1):
        np.matmul(activations[i].swapaxes(-1, -2), delta, out=grads_w[i])
        np.add.reduce(delta, axis=-2, out=grads_b[i])
        if i > 0:
            delta = np.matmul(delta, weights_t[i])
            if masks is not None:
                delta /= masks[i - 1]
            delta *= pre[i - 1] > 0.0


@dataclass(frozen=True, eq=False)
class Mlp:
    """Fully connected ReLU network with a softmax output head.

    Every parameter lives in the one buffer ``flat``: a copy of the given
    buffer, or one drawn from ``spec.seed``. :attr:`weights` and
    :attr:`biases` are tuples of views into it.
    """

    spec: MlpSpec
    flat: np.ndarray | None = None
    loss_history: list[float] = field(default_factory=list, init=False)

    def __post_init__(self):
        widths = self.spec.layer_widths
        count = _parameter_count(widths)
        if self.flat is None:
            flat = np.zeros(count)
            rng = np.random.default_rng(np.random.SeedSequence(self.spec.seed))
            for w in _layer_views(flat, widths)[0]:
                limit = math.sqrt(6.0 / w.shape[0])
                w[...] = rng.uniform(-limit, limit, size=w.shape)
        else:
            flat = np.array(self.flat, dtype=np.float64)
            if flat.shape != (count,):
                raise ValidationError(f"init of shape {flat.shape} does not match the model's "
                                      f"{count} parameters")
        object.__setattr__(self, "flat", flat)

    def __copy__(self) -> Mlp:
        # a shallow copy owns its buffer and history, as a deep copy does
        twin = Mlp(self.spec, self.flat)
        twin.loss_history.extend(self.loss_history)
        return twin

    @property
    def weights(self) -> tuple[np.ndarray, ...]:
        return _layer_views(self.flat, self.spec.layer_widths)[0]

    @property
    def biases(self) -> tuple[np.ndarray, ...]:
        return _layer_views(self.flat, self.spec.layer_widths)[1]

    def forward(self, x: np.ndarray, dropout_rng: np.random.Generator | None = None) -> np.ndarray:
        """Class probabilities, dropout off; pass a generator to sample dropout masks."""
        x = np.asarray(x, dtype=np.float64)
        rate, hidden = self.spec.dropout_rate, self.spec.layer_widths[1:-1]
        masks = None
        if dropout_rng is not None and rate > 0.0:
            divisors = _draw_masks([dropout_rng], rate, np.empty((1, len(x) * sum(hidden))))
            masks = _mask_views(divisors[0], hidden, len(x))
        return _forward(*_layer_views(self.flat, self.spec.layer_widths), x, masks)[0][-1]


def fit_adam(model: Mlp, config: TrainConfig, x: np.ndarray, y: np.ndarray) -> None:
    """Train a model in place with fresh Adam state; appends epoch losses.

    A stack of one warm-started from the model's own buffer, so its data is checked as
    :func:`train_mlp` checks it; a :class:`TrainingDivergedError` leaves the model as it was.
    """
    (trained,) = _train_stack([(model.spec, config, x, y, model.flat)])
    model.flat[...] = trained.flat
    model.loss_history.extend(trained.loss_history)


def train_mlp(spec: MlpSpec, config: TrainConfig, data) -> Mlp:
    """Train a fresh model with Adam on cross entropy.

    ``data`` is an ``(x, y)`` pair of inputs and integer labels.
    Deterministic for fixed seeds.
    """
    x, y = data
    return _train_job(spec, config, x, y)


def _map_jobs(jobs: list[tuple]) -> list:
    """``[fn(*args) for (fn, *args) in jobs]``, in job order, run on forked workers.

    One pool of one worker per usable CPU, and at most one per job, runs the
    jobs in list order. The first job to raise, in job order, raises here,
    and the jobs not yet started by then are cancelled. The jobs run inline,
    one at a time, when fewer than two workers would run, when the platform
    cannot fork, or in a daemon process, which may not have children. A
    forked worker starts from this process's memory, so it needs no imports;
    each ``fn`` is a module-level function, and it, its arguments and the
    results travel by pickle.
    """
    import multiprocessing

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(cpus or 1, len(jobs))
    if (workers < 2 or multiprocessing.current_process().daemon
            or "fork" not in multiprocessing.get_all_start_methods()):
        return [fn(*args) for fn, *args in jobs]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
        futures = [pool.submit(*job) for job in jobs]
        try:
            return [future.result() for future in futures]
        finally:
            for future in futures:  # after a failure, start no further job
                future.cancel()


def _train_job(spec: MlpSpec, config: TrainConfig, x, y, init=None) -> Mlp:
    """A fresh model trained on ``(x, y)`` or, given ``init``, one warm-started from it.

    ``init`` is a parameter buffer laid out like :attr:`Mlp.flat`.
    """
    return _train_stack([(spec, config, x, y, init)])[0]


def _train_stack(jobs: list[tuple]) -> list[Mlp]:
    """The models of jobs ``(spec, config, x, y, init)``, trained in lockstep as one stack.

    Every job's data is checked (:func:`_training_arrays`), and :class:`Mlp`
    checks its ``init``; the models must have one shape, the configs may
    differ only in their seed, and every job needs as many samples. A fresh
    model's loss history starts with its untrained loss; each epoch appends
    the full-data loss. Each epoch gathers each model's shuffled rows and
    one-hot labels once; each batch slices them, draws its masks into one
    reused buffer and makes one Adam step on the ``(H, P)`` parameters.
    Raises :class:`TrainingDivergedError` with the epoch index if a model's
    full-data loss goes non-finite, the epoch it would report trained alone.
    """
    models, xs, ys = [], [], []
    for spec, config, x, y, init in jobs:
        x, y = _training_arrays(x, y, spec)
        model = Mlp(spec, init)
        if init is None:
            model.loss_history.append(cross_entropy(model.forward(x), y))
        models.append(model)
        xs.append(x)
        ys.append(y)
    configs = [job[1] for job in jobs]
    spec, config = models[0].spec, configs[0]
    widths, rate = spec.layer_widths, spec.dropout_rate
    n, size = len(ys[0]), config.batch_size
    if (any((m.spec.layer_widths, m.spec.dropout_rate) != (widths, rate) for m in models)
            or any(replace(c, seed=config.seed) != config for c in configs)
            or any(len(y) != n for y in ys)):
        raise ValueError("a stack needs models of one shape, configs that differ only in "
                         "their seed, and one sample count for every job")
    streams = [np.random.SeedSequence(c.seed).spawn(2) for c in configs]
    shuffle_rngs = [np.random.default_rng(shuffle) for shuffle, _ in streams]
    dropout_rngs = [np.random.default_rng(dropout) for _, dropout in streams]

    x = np.stack(xs)
    targets = np.stack([_one_hot(y, widths[-1]) for y in ys])
    x_epoch, targets_epoch = np.empty_like(x), np.empty_like(targets)

    params = np.stack([model.flat for model in models])
    grad = np.zeros_like(params)
    m, v, update, denom = (np.zeros_like(params) for _ in range(4))
    # the passes see each stacked array through ``[lead]``: a stack of one as
    # its one 2-D model, which numpy multiplies with less overhead per call
    lead = 0 if len(models) == 1 else slice(None)
    weights, biases = _layer_views(params[lead], widths)
    weights_t = tuple(w.swapaxes(-1, -2) for w in weights)
    biases = tuple(b[..., None, :] for b in biases)
    grads_w, grads_b = _layer_views(grad[lead], widths)
    x_rows, targets_rows = x_epoch[lead], targets_epoch[lead]
    b1, b2, lr, eps = ADAM_BETA1, ADAM_BETA2, config.learning_rate, ADAM_EPS
    step = 0

    # a batch of ``rows`` rows draws into drawn[rows] and reads its masks from
    # masks[rows]: views of one buffer, made for a full and a last batch
    hidden = widths[1:-1] if rate > 0.0 else ()
    buffer = np.empty((len(models), size * sum(hidden)))
    drawn = {rows: buffer[:, :rows * sum(hidden)] for rows in {min(size, n), n % size or size}}
    masks = {rows: _mask_views(d[lead], hidden, rows) if hidden else None
             for rows, d in drawn.items()}

    for epoch in range(config.epochs):
        for h, shuffle_rng in enumerate(shuffle_rngs):
            order = shuffle_rng.permutation(n)
            np.take(x[h], order, axis=0, out=x_epoch[h])
            np.take(targets[h], order, axis=0, out=targets_epoch[h])
        for start in range(0, n, size):
            stop = min(start + size, n)
            if hidden:
                _draw_masks(dropout_rngs, rate, drawn[stop - start])
            cache = _forward(weights, biases, x_rows[..., start:stop, :], masks[stop - start])
            _backprop(weights_t, *cache, targets_rows[..., start:stop, :], grads_w, grads_b)
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
        probs = _forward(weights, biases, x[lead], None)[0][-1].reshape(len(models), n, -1)
        losses = [cross_entropy(p, y) for p, y in zip(probs, ys)]
        if not all(map(math.isfinite, losses)):
            raise TrainingDivergedError(
                f"loss became non-finite at epoch {epoch}", epoch=epoch
            )
        for model, loss in zip(models, losses):
            model.loss_history.append(loss)
    for model, trained in zip(models, params):
        model.flat[...] = trained
    return models


def derived_seed(seq: np.random.SeedSequence) -> int:
    """The integer seed of a seed-sequence child: its first 64-bit word, mod 2**63."""
    return int(seq.generate_state(1, dtype=np.uint64)[0] % (2**63))


def _input_rows(x, spec: MlpSpec | None, what: str = "inputs") -> np.ndarray:
    """``x`` as 2-D float64 rows, as wide as the input layer of ``spec`` if one is given."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValidationError(f"{what} must be a 2-D array, got shape {x.shape}")
    if spec is not None and x.shape[1] != spec.layer_widths[0]:
        raise ValidationError(f"input width {spec.layer_widths[0]} does not match data dim "
                              f"{x.shape[1]}")
    return x


def _training_arrays(x, y, spec: MlpSpec | None = None):
    """``x`` as float64 rows and ``y`` as int64 labels, checked for training ``spec``.

    Every training job goes through this check. The labels must be
    integers; without ``spec`` they need only be nonnegative.
    """
    x, y = _input_rows(x, spec, "training inputs"), int64_labels(y)
    if y.shape != (len(x),):
        raise ValidationError(f"{len(x)} training inputs need {len(x)} labels, "
                              f"got labels of shape {y.shape}")
    if not len(y):
        raise ValidationError("no training samples")
    if int(y.min()) < 0 or (spec is not None and int(y.max()) >= spec.layer_widths[-1]):
        raise ValidationError("label outside the model's class range")
    return x, y


def _sampled_tensor(models: list[Mlp], passes_per_model: int, rngs, inputs,
                    sample_ids) -> PredictionTensor:
    """``passes_per_model`` forward passes of each model, model-major along the pass axis.

    Each model checks the inputs and draws its dropout masks from its generator
    in ``rngs``; a ``None`` generator, or a dropout rate of 0, gives
    deterministic passes. Sample ids default to ``s0000, s0001, ...``.
    """
    passes = []
    for model, rng in zip(models, rngs):
        x = _input_rows(inputs, model.spec)
        passes += [model.forward(x, rng) for _ in range(passes_per_model)]
    if sample_ids is None:
        sample_ids = (f"s{i:04d}" for i in range(len(x)))
    return PredictionTensor(np.stack(passes, axis=1), tuple(sample_ids))


def mc_dropout_predict(model: Mlp, inputs, t_passes: int, seed: int,
                       sample_ids=None) -> PredictionTensor:
    """T stochastic forward passes with dropout kept on; one pass per mask draw."""
    require_integer(t_passes, "t_passes", 1, "need at least one forward pass")
    rng = np.random.default_rng(np.random.SeedSequence(require_seed(seed)))
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
    require_integer(t_per_member, "t_per_member", 1, "need at least one pass per member")
    require_seed(seed)
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
    master_seed: int = 0

    def __post_init__(self):
        require_integer(self.member_count, "member_count", 2, "an ensemble needs at least 2 members")
        require_seed(self.master_seed, "master_seed")


def _ensemble_jobs(spec: EnsembleSpec, config: TrainConfig, data) -> list[tuple]:
    """The :func:`_map_jobs` job ``(_train_job, spec, config, x, y)`` of every member."""
    x, y = _training_arrays(*data)
    arch_seq, *train_seqs = np.random.SeedSequence(spec.master_seed).spawn(spec.member_count + 1)
    rng = np.random.default_rng(arch_seq)
    jobs = []
    for seq in train_seqs:
        depth = int(rng.choice(DEPTH_CHOICES))
        hidden = [int(rng.integers(lo, hi + 1)) for lo, hi in WIDTH_RANGES[:depth]]
        member = MlpSpec((x.shape[1], *hidden, int(y.max()) + 1), DROPOUT_RATE,
                         seed=int(rng.integers(0, 2**63 - 1)))
        jobs.append((_train_job, member, replace(config, seed=derived_seed(seq)), x, y))
    return jobs


def train_ensemble(spec: EnsembleSpec, config: TrainConfig, data) -> list[Mlp]:
    """Independently train every member on the ``(x, y)`` pair ``data``, in parallel."""
    return _map_jobs(_ensemble_jobs(spec, config, data))

