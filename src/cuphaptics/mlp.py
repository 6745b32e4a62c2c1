"""From-scratch MLP yaw regressor: forward, backprop, RMSprop, persistence.

The network maps four chamber pressures to the unit-circle encoding
(cos phi, sin phi); predictions decode through the polar angle, which
keeps the 0/360 wrap out of the loss. Hidden layers use ReLU, the output
layer is linear, and every parameter is a 64-bit float. Nothing here
depends on an ML framework — the arithmetic is plain numpy so every step
can be checked against finite differences.

Model file format (versioned, little-endian):

    magic   7 bytes  b"CUPMLP1"
    mode    u8       1 when the file carries standardization stats, else 0
    depth   u32      number of entries in layer_sizes
    sizes   u32 * depth   first 4 (chamber pressures), last 2 (cos, sin)
    stats   f64 * (2 * sizes[0])   means then stds; mode 1 only
    params  per layer: weight matrix row-major (out x in) f64, bias f64 * out

The byte length must match the header exactly; anything else is rejected.
Every network maps 4 inputs to 2 outputs: ``_checked_sizes`` refuses any other
shape where a model is built or a file's header is read, and nothing checks again.
The params block is ``model.params``, the flat vector W0, b0, W1, b1, ...
that the model holds, ``train`` optimizes, ``save_model`` writes and
``load_model`` reads; ``model.weights`` and ``model.biases`` are per-layer
views into it, so every stage agrees on the order by construction.
A JSON sidecar (same path + ".json") carries training config and metrics
when the caller supplies them. Each model makes its forward plan when it
is built: per layer, W.T and b as views into ``params``. One forward kernel
runs every pass: single frames, with ``ndarray.dot``; tables, as a stack of
one-row ``matmul`` products with single-frame bits (an n-row product may not
keep them); and training's forward half and validation pass, on plans built
the same way from the parameters being trained; training's steps pass it
output arrays (``out=``), allocated once per live set of folds and batch
length, which get the bits of fresh ones. Training always z-scores inputs
under the training fold's ``feature_stats``, which the model and its file
keep; ``_zscored`` is that rule, written once and run on a frame's four
floats or a table's four columns, so both get the same bits. A model
without stats (mode 0) takes raw kPa values.

``train_many`` trains several folds' networks in lockstep: their parameters
are the rows of one (S, P) array, the forward and backward passes run on a
leading seed axis, and ``rmsprop_step`` updates the stack in place. numpy
runs each network's products and sums as it would for that network alone,
so every fold's model and history equal a solo ``train`` bit for bit;
``train`` is the one-fold case. It reads folds one at a time (``compare`` passes
a generator of its splits), each into its row of the (S, n, 4) input and (S, n, 2)
target stacks, the one copy of the training folds; each epoch re-orders the rows.
The validation fold is scored at each epoch's end in fixed chunks; the
training loss is accumulated from the mini-batches.

``MlpEstimator``, beside ``predict_angle``, is the table path: it decodes the
``_outputs_by_row`` rows of a ``Samples`` through ``core._yaws``, as ``direction_angle`` would;
a table runs through the network ``CHUNK_ROWS`` rows at a time.
"""

from __future__ import annotations

import json
import math
import operator
import struct
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .core import (
    EPS_ZERO,
    Angle,
    DirectionEstimate,
    SensorFrame,
    _as_finite,
    _rmse,
    _yaws,
    angular_errors,
    direction_angle,
)
from .dataset import Samples
from .errors import (
    ConfigError,
    DegenerateChannelError,
    InvalidInputError,
    ModelFormatError,
    _hold,
    as_reals,
    require_count,
    require_real,
)
from .rng import INIT, SHUFFLE, substream

DEFAULT_LAYER_SIZES = (4, 16, 32, 16, 2)
MODEL_MAGIC = b"CUPMLP1"
# Rows per forward call when training scores a validation fold; small
# enough that OpenBLAS keeps each product on one thread (M*N*K at most
# 4 * 65,536), so the package imports numpy with a one-thread OpenBLAS
# (see ``cuphaptics/__init__.py``). It also bounds a table's pass, whose
# layer outputs would otherwise all be held at once.
CHUNK_ROWS = 512
_V_INVALID = "squared-gradient average must be finite and >= 0"
_ZERO = np.zeros(())  # ReLU's bound, a float64 array ufuncs take unconverted
_ZERO.flags.writeable = False
# A forward plan: (W.T, b) per layer, the input of ``_forward``.
_Plan = tuple[tuple[np.ndarray, np.ndarray], ...]


@dataclass(frozen=True)
class FeatureStats:
    """Per-channel mean and population (divide-by-n) std of the 4 inputs."""

    mean: tuple[float, float, float, float]
    std: tuple[float, float, float, float]

    def __post_init__(self) -> None:
        mean = tuple(_as_finite(m, f"mean of channel {j}") for j, m in enumerate(self.mean, 1))
        std = tuple(_as_finite(s, f"std of channel {j}") for j, s in enumerate(self.std, 1))
        if len(mean) != 4 or len(std) != 4:
            raise InvalidInputError("feature stats must cover exactly 4 channels")
        for j, s in enumerate(std, start=1):
            if s <= 0.0:
                raise DegenerateChannelError(
                    f"channel {j} has std {s}; a positive spread is required"
                )
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "std", std)


def feature_stats(train: Samples) -> FeatureStats:
    """Per-channel mean/std of chamber pressures. Training set only; its cells
    are finite, as ``Samples`` holds them. A channel with one value on every
    row is refused first. A mean or std too large for a float is inf, which
    ``FeatureStats`` refuses."""
    if not len(train):
        raise ConfigError("cannot compute feature stats of an empty set")
    x = train.p_ch
    constant = x.min(axis=0) == x.max(axis=0)
    if constant.any():
        raise DegenerateChannelError(
            f"channel {constant.argmax() + 1} is constant in the training set"
        )
    # population std (divide by n); a constant column's need not be 0, and
    # FeatureStats refuses one that rounds to 0
    with np.errstate(over="ignore"):
        mean, std = x.mean(axis=0), x.std(axis=0)
    return FeatureStats(mean=tuple(mean), std=tuple(std))


@dataclass(frozen=True, eq=False)
class MlpModel:
    """Parameters as one flat vector, and the stats that z-score its inputs.

    ``params`` holds W0, b0, W1, b1, ... in model-file order (weights out x
    in, row-major); ``weights`` and ``biases`` are per-layer views into it.
    The network maps 4 inputs to 2 outputs; it standardizes its inputs
    exactly when ``stats`` is not None.
    Models compare by identity; compare ``params`` for equal values.
    ``_layers`` ((W.T, b) per layer) is the forward plan that ``_forward`` runs.
    """

    layer_sizes: tuple[int, ...]
    params: np.ndarray
    stats: FeatureStats | None = None
    weights: tuple[np.ndarray, ...] = field(init=False, repr=False)
    biases: tuple[np.ndarray, ...] = field(init=False, repr=False)
    _layers: _Plan = field(init=False, repr=False)

    def __post_init__(self) -> None:
        sizes = _checked_sizes(self.layer_sizes)
        params = as_reals("params", self.params, (_n_params(sizes),))
        if not np.isfinite(params).all():
            raise InvalidInputError("non-finite parameters")
        if not (self.stats is None or isinstance(self.stats, FeatureStats)):
            raise InvalidInputError(
                f"stats must be a FeatureStats or None, got {type(self.stats).__name__}"
            )
        weights, biases = _layer_views(params, sizes)
        object.__setattr__(self, "layer_sizes", sizes)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "weights", tuple(weights))
        object.__setattr__(self, "biases", tuple(biases))
        # Views, not copies: writes through params (init_model's fill) reach them.
        object.__setattr__(self, "_layers", _plan(weights, biases))

    def __reduce__(self):  # copies and pickles rebuild the views into params
        return (MlpModel, (self.layer_sizes, self.params, self.stats))


@dataclass(frozen=True)
class TrainConfig:
    """Training schedule and RMSprop settings (learning rate ``lr``, decay
    ``rho`` of the squared-gradient average, and ``eps``)."""

    batch_size: int = 64
    max_epochs: int = 200
    patience: int = 20
    seed: int = 0
    lr: float = 1e-3
    rho: float = 0.9
    eps: float = 1e-8

    def __post_init__(self) -> None:
        _hold(
            self,
            batch_size=require_count("batch_size", self.batch_size, 1),
            max_epochs=require_count("max_epochs", self.max_epochs, 1),
            patience=require_count("patience", self.patience, 0),
            seed=require_count("seed", self.seed),
            lr=require_real("lr", self.lr),
            rho=require_real("rho", self.rho, high=1.0),
            eps=require_real("eps", self.eps),
        )


@dataclass(frozen=True)
class TrainHistory:
    """Per-epoch loss curves; lengths equal the number of completed epochs.

    ``best_epoch`` is 0 when the initial parameters were never beaten,
    otherwise the 1-based epoch whose validation loss was checkpointed.
    ``val_rmse_deg`` decodes with numpy's ``arctan2``, so this monitor may
    differ in the last bits from an RMSE of ``evaluate_mlp``'s answers.
    ``train_loss`` is each epoch's MSE over its mini-batches, each scored before its update.
    """

    train_loss: tuple[float, ...]
    val_loss: tuple[float, ...]
    val_rmse_deg: tuple[float, ...]
    best_epoch: int = 0
    initial_val_loss: float = math.nan


def init_model(
    seed: int,
    layer_sizes: Sequence[int] = DEFAULT_LAYER_SIZES,
    stats: FeatureStats | None = None,
) -> MlpModel:
    """Glorot-uniform weights, zero biases, deterministic in ``seed``; the
    model standardizes its inputs under ``stats`` when they are given."""
    rng = substream(seed, INIT)
    sizes = _checked_sizes(layer_sizes)
    model = MlpModel(sizes, np.zeros(_n_params(sizes)), stats)
    for w in model.weights:  # drawn in place, layer by layer
        fan_out, fan_in = w.shape
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        w[:] = rng.uniform(-limit, limit, size=w.shape)
    return model


def _checked_sizes(layer_sizes: Sequence[int]) -> tuple[int, ...]:
    """``layer_sizes`` as a tuple of ints; InvalidInputError unless there are
    two or more, each is an integer (``operator.index`` takes it) >= 1, and
    they map 4 inputs (the chamber pressures) to 2 outputs (cos, sin)."""
    try:
        sizes = tuple(map(operator.index, layer_sizes))
    except TypeError:
        raise InvalidInputError(f"bad layer_sizes {layer_sizes!r}") from None
    if len(sizes) < 2 or any(s < 1 for s in sizes):
        raise InvalidInputError(f"bad layer_sizes {sizes}")
    if sizes[0] != 4 or sizes[-1] != 2:
        raise InvalidInputError(
            f"a network must map 4 inputs to 2 outputs, got {sizes[0]} -> {sizes[-1]}"
        )
    return sizes


def _n_params(layer_sizes: Sequence[int]) -> int:
    """Length of the flat parameter vector: each layer's weights and biases."""
    return sum(o * (i + 1) for i, o in zip(layer_sizes, layer_sizes[1:]))


def _layer_views(
    flat: np.ndarray, layer_sizes: Sequence[int]
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-layer weight (out x in) and bias views into a flat vector, or
    into each row of an (S, P) stack of them (views (S, out, in), (S, out))."""
    shapes = [s for i, o in zip(layer_sizes, layer_sizes[1:]) for s in ((o, i), (o,))]
    ends = np.cumsum([math.prod(s) for s in shapes])
    lead = flat.shape[:-1]
    views = [
        a.reshape(*lead, *s) for a, s in zip(np.split(flat, ends[:-1], axis=-1), shapes)
    ]
    return views[0::2], views[1::2]


def _plan(weights: Sequence[np.ndarray], biases: Sequence[np.ndarray]) -> _Plan:
    """The forward plan: per layer, W.T and b as views of ``weights`` and
    ``biases``. Stacked (S, out, in) weights give an (S, 1, out) bias, which
    broadcasts over each network's rows."""
    return tuple(
        (w.swapaxes(-1, -2), b if b.ndim == 1 else b[..., None, :])
        for w, b in zip(weights, biases)
    )


def _forward(plan: _Plan, x: np.ndarray, out: list | None = None) -> list[np.ndarray]:
    """The forward kernel: every layer's output for unchecked inputs along
    the last axis of ``x``, ``x`` itself first. Per layer ``x @ W.T``,
    ``+= b`` and, on hidden layers, ReLU in place. A 1-D input runs the
    product as ``x.dot(W.T)`` (``np.dot``'s BLAS gemv, undispatched), with
    the bits of the one-row ``matmul`` that each row of an (n, 1, in) stack
    runs; with a stacked plan, an (S, n, in) input runs S networks. Given
    ``out``, one array per layer, each ``matmul`` writes its layer's there."""
    activations = [x]
    last = len(plan) - 1
    product = np.ndarray.dot if x.ndim == 1 else np.matmul
    for k, (w_t, b) in enumerate(plan):
        x = product(x, w_t) if out is None else np.matmul(x, w_t, out=out[k])
        x += b
        if k < last:
            np.maximum(x, _ZERO, out=x)
        activations.append(x)
    return activations


def forward(model: MlpModel, inputs: Sequence[float]) -> np.ndarray:
    """Network output for one input vector (ReLU hidden, linear output): 4
    finite numbers, as ``as_reals`` reads them."""
    x = as_reals("inputs", inputs, (4,))
    if not all(map(math.isfinite, x.tolist())):
        raise InvalidInputError("inputs must be finite")
    return _forward(model._layers, x)[-1]


def target_encoding(phi_deg: np.ndarray) -> np.ndarray:
    """Unit-circle targets (cos phi, sin phi), one row per yaw in degrees."""
    rad = np.radians(as_reals("phi_deg", phi_deg, (None,)))
    return np.stack((np.cos(rad), np.sin(rad)), axis=1)


def decode_estimate(output: Sequence[float]) -> DirectionEstimate:
    """Direction estimate for a 2-vector output: the vector and its angle."""
    x, y = as_reals("output", output, (2,)).tolist()
    if not (math.isfinite(x) and math.isfinite(y)):
        raise InvalidInputError(f"output must be finite, got ({x}, {y})")
    return DirectionEstimate(v_pred=(x, y), phi_pred=direction_angle(x, y))


def loss(pred: Sequence[float], target: Sequence[float]) -> float:
    """MSE over the two components: ((p1-t1)^2 + (p2-t2)^2) / 2."""
    p, t = as_reals("pred", pred), as_reals("target", target)
    if p.shape != t.shape:
        raise InvalidInputError(f"shape mismatch {p.shape} vs {t.shape}")
    if not p.size:
        raise InvalidInputError("loss requires a non-empty batch")
    return float(np.mean((p - t) ** 2))


def _work_arrays(shape: tuple[int, ...], sizes: Sequence[int]) -> tuple:
    """Work arrays for inputs of ``shape``: layer outputs and the scaled residual,
    their transposes, the ReLU masks, and the row count as an array ufuncs take unconverted."""
    outs = [np.empty((*shape[:-1], s)) for s in (*sizes[1:], sizes[-1])]
    masks = [np.empty((*shape[:-1], s), dtype=bool) for s in sizes[1:-1]]
    return outs, [o.swapaxes(-1, -2) for o in outs], masks, np.array(float(shape[-2]))


def _backward_arrays(
    plan: _Plan,
    x: np.ndarray,
    t: np.ndarray,
    grad_w: Sequence[np.ndarray],
    grad_b: Sequence[np.ndarray],
    work: tuple,
) -> np.ndarray:
    """Write the mean-batch-loss gradients of the network that ``plan`` runs
    into ``grad_w`` and ``grad_b``, and return the residuals a - t; with a
    leading stack axis, per network. Every product lands in ``work``: the
    residuals in the output layer's array, each hidden layer's gradient in
    its output's array once its ReLU mask is read."""
    outs, outs_t, masks, n = work
    activations = _forward(plan, x, outs)
    # d(mean over n*2 elements of (a-t)^2) / da = (a - t) / n
    diff = np.subtract(activations[-1], t, out=activations[-1])
    grad, grad_t = np.divide(diff, n, out=outs[-1]), outs_t[-1]
    for k in reversed(range(len(plan))):
        np.matmul(grad_t, activations[k], out=grad_w[k])
        np.add.reduce(grad, axis=-2, out=grad_b[k])
        if k > 0:  # ReLU passes gradient where its output is > 0
            mask = np.greater(activations[k], _ZERO, out=masks[k - 1])
            grad = np.matmul(grad, plan[k][0].swapaxes(-1, -2), out=outs[k - 1])
            np.multiply(grad, mask, out=grad)
            grad_t = outs_t[k - 1]
    return diff


def backward(
    model: MlpModel, inputs: np.ndarray, targets: np.ndarray
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Gradients of the mean batch loss over (n, 4) inputs and (n, 2) targets
    w.r.t. every weight and bias; ReLU's subgradient at exactly 0 is taken as 0.
    Returns (grad_weights, grad_biases) with shapes matching the model."""
    x = as_reals("inputs", inputs, (None, 4))
    t = as_reals("targets", targets, (None, 2))
    if x.shape[0] == 0:
        raise InvalidInputError("backward requires a non-empty batch")
    if x.shape[0] != t.shape[0]:
        raise InvalidInputError(
            f"batch size mismatch: {x.shape[0]} inputs vs {t.shape[0]} targets"
        )
    grad_w, grad_b = _layer_views(np.empty_like(model.params), model.layer_sizes)
    _backward_arrays(model._layers, x, t, grad_w, grad_b, _work_arrays(x.shape, model.layer_sizes))
    return grad_w, grad_b


def rmsprop_step(
    params: np.ndarray, grads: np.ndarray, v: np.ndarray, config: TrainConfig
) -> None:
    """One RMSprop update of ``params`` and the squared-gradient average ``v``,
    both in place, with ``config``'s lr, rho and eps; ``grads`` is overwritten.

    The three must be float64 ndarrays of one shape, or none is written. The
    IEEE operations and their order are those of v <- rho*v + ((1-rho)*g)*g and
    theta <- theta - (lr*g) / (sqrt(v) + eps), so the bits equal that formula
    evaluated into fresh arrays. An average that is not finite and >= 0 (the
    run diverged) raises before ``params`` is touched.
    """
    if not (
        type(params) is type(grads) is type(v) is np.ndarray
        and params.shape == grads.shape == v.shape
        and params.dtype == grads.dtype == v.dtype == np.float64
    ):
        arrays = params, grads, v
        got = [f"{getattr(a, 'dtype', type(a).__name__)}{getattr(a, 'shape', '')}" for a in arrays]
        raise InvalidInputError(f"shape mismatch: need float64 ndarrays of one shape, got {got}")
    scratch = np.multiply(grads, 1.0 - config.rho, out=np.empty_like(grads))
    scratch *= grads
    v *= config.rho
    v += scratch
    if not 0.0 <= np.minimum.reduce(v, axis=None) <= np.maximum.reduce(v, axis=None) < np.inf:
        raise InvalidInputError(_V_INVALID)
    np.sqrt(v, out=scratch)
    scratch += config.eps
    grads *= config.lr
    grads /= scratch
    params -= grads


def _zscored(channels, stats: FeatureStats) -> list:
    """The four channels z-scored under ``stats``: a frame's floats, or a
    table's columns, which ``-`` and ``/`` round alike."""
    return [(p - m) / s for p, m, s in zip(channels, stats.mean, stats.std)]


def _model_inputs(model: MlpModel, p_ch: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Chamber pressures (last axis) as the network takes them: z-scored by
    ``_zscored`` and written into ``out`` when given; as they are without stats."""
    if model.stats is None:
        return p_ch
    return np.stack(_zscored(p_ch.T, model.stats), axis=-1, out=out)


def _chunked_outputs(plan: _Plan, x: np.ndarray) -> np.ndarray:
    """Output-layer values for ``x``, ``CHUNK_ROWS`` entries of its first axis
    per forward pass, written into one array."""
    out = np.empty((*x.shape[:-1], 2))
    for i in range(0, len(x), CHUNK_ROWS):
        out[i : i + CHUNK_ROWS] = _forward(plan, x[i : i + CHUNK_ROWS])[-1]
    return out


class _SeedRun:
    """One fold of a lockstep run: its validation rows and arrays, its shuffle
    stream, and its per-epoch record with the best checkpoint so far. Its
    z-scored training inputs and unit-circle targets go into ``x_row`` and
    ``t_row``, its rows of the lockstep's stacks; the run keeps only their count."""

    def __init__(
        self, fold: tuple[Samples, Samples], seed: int, x_row: np.ndarray, t_row: np.ndarray
    ):
        train_set, val_set = fold
        if not (len(train_set) and len(val_set)):
            raise ConfigError("train and validation sets must both be non-empty")
        self.model0 = init_model(seed, stats=feature_stats(train_set))
        _model_inputs(self.model0, train_set.p_ch, out=x_row)
        t_row[...] = target_encoding(train_set.phi_deg)
        self.n = len(train_set)
        self.x_val = _model_inputs(self.model0, val_set.p_ch)
        self.t_val = target_encoding(val_set.phi_deg)
        self.val_set = val_set
        self.shuffle_rng = substream(seed, SHUFFLE)
        self.initial_val = self.best_val = loss(self._val_outputs(self.model0.params), self.t_val)
        self.best_params = self.model0.params.copy()
        self.best_epoch = self.stale_epochs = 0
        self.train_loss: list[float] = []
        self.val_loss: list[float] = []
        self.val_rmse: list[float] = []

    def _val_outputs(self, params: np.ndarray) -> np.ndarray:
        """Outputs for the validation fold, ``CHUNK_ROWS`` rows per pass."""
        return _chunked_outputs(_plan(*_layer_views(params, self.model0.layer_sizes)), self.x_val)

    def end_epoch(self, epoch: int, params: np.ndarray, sq_sum: float, patience: int) -> bool:
        """Record ``epoch``'s losses (training from its squared residuals); True once
        more than ``patience`` epochs in a row have not improved validation loss."""
        self.train_loss.append(float(sq_sum) / (2 * self.n))
        val_out = self._val_outputs(params)
        val_loss = loss(val_out, self.t_val)
        # Decoded validation angles; ~zero output vectors carry none.
        defined = np.hypot(val_out[:, 0], val_out[:, 1]) > EPS_ZERO
        val_rmse = math.nan
        if defined.any():
            pred = np.degrees(np.arctan2(val_out[defined, 1], val_out[defined, 0]))
            val_rmse = _rmse(angular_errors(pred % 360.0, self.val_set.phi_deg[defined]))
        self.val_loss.append(val_loss)
        self.val_rmse.append(val_rmse)
        if val_loss < self.best_val:
            self.best_val = val_loss
            self.best_params = params.copy()
            self.best_epoch = epoch
            self.stale_epochs = 0
            return False
        self.stale_epochs += 1
        return self.stale_epochs > patience

    def result(self) -> tuple[MlpModel, TrainHistory]:
        history = TrainHistory(
            train_loss=tuple(self.train_loss),
            val_loss=tuple(self.val_loss),
            val_rmse_deg=tuple(self.val_rmse),
            best_epoch=self.best_epoch,
            initial_val_loss=self.initial_val,
        )
        return replace(self.model0, params=self.best_params), history


def train_many(
    folds: Iterable[tuple[Samples, Samples]],
    config: TrainConfig,
    seeds: Sequence[int],
) -> list[tuple[MlpModel, TrainHistory]]:
    """Train one model per (train, validation) fold, all folds in lockstep.

    Fold i trains under ``seeds[i]`` in place of ``config.seed``, and its
    result equals ``train(*fold_i, replace(config, seed=seeds[i]))`` bit
    for bit: the S networks run as one (S, P) parameter stack through the
    forward, backward and RMSprop code of a lone network, whose per-network
    products, sums and updates are the same operations. Each fold shuffles
    from its own stream and stops early on its own; a stopped fold keeps
    its best checkpoint and leaves the stack. The training folds must all
    have one size, so that their mini-batches line up.

    ``folds`` is read one fold at a time, at most ``len(seeds) + 1`` of them.
    The first allocates the (S, n, 4) input and (S, n, 2) target stacks, the
    one copy of the training folds; each fold's run writes its z-scored row,
    and the fold is dropped before the next is read, so a generator of splits
    keeps one training fold alive. The stacks go when this returns. Each epoch
    gathers each fold's row into itself in its shuffled order (``np.take``
    buffers the overlap); when folds stop, the live rows move to the front.
    """
    runs: list[_SeedRun] = []
    for fold in folds:  # not enumerate: its reused result tuple would keep the fold
        i = len(runs)
        if i == len(seeds):  # reading it also ends a generator of folds
            raise ConfigError(f"need one seed per fold, got more than {i} folds, {i} seeds")
        if i == 0:
            n = len(fold[0])
            x_all, t_all = np.empty((len(seeds), n, 4)), np.empty((len(seeds), n, 2))
        elif len(fold[0]) != n:
            raise ConfigError("lockstep training needs training folds of one size")
        runs.append(_SeedRun(fold, seeds[i], x_all[i], t_all[i]))
        del fold  # this fold's training rows, before the next is read
    if not runs or len(runs) < len(seeds):
        raise ConfigError(f"need one seed per fold, got {len(runs)} folds, {len(seeds)} seeds")
    sizes = DEFAULT_LAYER_SIZES
    rows = np.arange(n)
    # where[i, k]: the position of fold i's training row k in its row of the stacks.
    where = np.tile(rows, (len(runs), 1))
    live, batches, size = runs, None, config.batch_size
    # Parameters and RMSprop averages, one row per live fold.
    params = np.stack([run.model0.params for run in live])
    v = np.zeros_like(params)
    for epoch in range(1, config.max_epochs + 1):
        if batches is None:  # a new live set; its plan and gradient views alias params
            # and grads. Batches slice the stacks; one length shares work arrays.
            grads = np.empty_like(params)
            plan = _plan(*_layer_views(params, sizes))
            grad_w, grad_b = _layer_views(grads, sizes)
            x, t, batch_sq = x_all[: len(live)], t_all[: len(live)], np.empty(len(live))
            batches = [(x[:, i : i + size], t[:, i : i + size]) for i in range(0, n, size)]
            work = {s: _work_arrays(s, sizes) for s in {xb.shape for xb, _ in batches}}
            batches = [(xb, tb, work[xb.shape]) for xb, tb in batches]
        sq_sum = np.zeros(len(live))  # per fold, the epoch's squared residuals
        for run, x_row, t_row, pos in zip(live, x, t, where):
            order = run.shuffle_rng.permutation(n)
            step = pos[order]  # row j becomes training row order[j]
            np.take(x_row, step, axis=0, out=x_row)
            np.take(t_row, step, axis=0, out=t_row)
            pos[order] = rows
        for xb, tb, arrays in batches:
            diff = _backward_arrays(plan, xb, tb, grad_w, grad_b, arrays)
            sq_sum += np.add.reduce(np.square(diff, out=diff), axis=(-2, -1), out=batch_sq)
            rmsprop_step(params, grads, v, config)
        going = [
            not run.end_epoch(epoch, row, sq, config.patience)
            for run, row, sq in zip(live, params, sq_sum)
        ]
        if not all(going):
            kept = [i for i, keep in enumerate(going) if keep]
            live = [live[i] for i in kept]
            if not live:
                break
            for j, i in enumerate(kept):  # ascending, so no row is read after it is written
                if j != i:
                    x_all[j], t_all[j], where[j] = x_all[i], t_all[i], where[i]
            params, v, batches = params[going], v[going], None
    return [run.result() for run in runs]


def train(
    train_set: Samples,
    val_set: Samples,
    config: TrainConfig,
) -> tuple[MlpModel, TrainHistory]:
    """Mini-batch RMSprop with early stopping on validation loss.

    Epochs reshuffle the training set from a seed-derived stream. The
    returned model carries the best-validation-loss parameters seen,
    including the untrained initial model as candidate zero, so its
    validation loss never exceeds the initial one. Training stops at
    ``max_epochs`` or once more than ``patience`` consecutive epochs fail
    to improve validation loss. This is the one-fold case of ``train_many``.
    """
    return train_many([(train_set, val_set)], config, [config.seed])[0]


def network_output(model: MlpModel, frame: SensorFrame) -> np.ndarray:
    """Raw 2-vector output for a frame, z-scored by ``_zscored`` if the model has
    stats: on its four floats, which overflow to inf without a warning."""
    z = frame.p_ch if model.stats is None else _zscored(frame.p_ch, model.stats)
    if not all(map(math.isfinite, z)):
        return forward(model, z)  # raises forward's error
    return _forward(model._layers, np.array(z))[-1]


def _outputs_by_row(model: MlpModel, p_ch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unchecked inputs and (n, 2) outputs, each row as ``network_output`` runs
    it: a stack of one-row products, ``CHUNK_ROWS`` rows per pass."""
    x = _model_inputs(model, p_ch)
    return x, _chunked_outputs(model._layers, x[:, None, :])[:, 0]


def predict_angle(model: MlpModel, frame: SensorFrame) -> Angle | None:
    """Standardize if the model has stats, run forward, decode the angle:
    ``decode_estimate(network_output(model, frame)).phi_pred``."""
    x, y = network_output(model, frame).tolist()
    if math.isfinite(x) and math.isfinite(y):
        return direction_angle(x, y)
    return decode_estimate((x, y)).phi_pred  # raises the non-finite error


@dataclass(frozen=True)
class MlpEstimator:
    """Learned direction from a trained network: ``predict_angle`` per row."""

    model: MlpModel
    name: str = "mlp"

    def estimate_batch(self, rows: Samples) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):  # such rows are rejected
            inputs, out = _outputs_by_row(self.model, rows.p_ch)
        x, y = out.T
        ok = np.isfinite(inputs).all(axis=1)
        return _yaws(rows, x, y, ok, lambda f: predict_angle(self.model, f))


def save_model(
    model: MlpModel, path: str | Path, metadata: Mapping | None = None
) -> None:
    """Write the binary model file; optionally a JSON sidecar at path+'.json'."""
    mode = 0 if model.stats is None else 1  # 1 exactly when the file carries stats
    depth = len(model.layer_sizes)
    parts = [MODEL_MAGIC, struct.pack(f"<BI{depth}I", mode, depth, *model.layer_sizes)]
    if model.stats is not None:
        parts.append(np.array(model.stats.mean + model.stats.std, "<f8").tobytes())
    parts.append(model.params.astype("<f8").tobytes())
    Path(path).write_bytes(b"".join(parts))
    if metadata is not None:
        sidecar = Path(str(path) + ".json")
        sidecar.write_text(
            json.dumps(metadata, indent=2, sort_keys=False) + "\n", encoding="utf-8"
        )


def _require(buf: bytes, offset: int, n: int) -> None:
    """Raise a format error unless ``buf`` holds ``n`` bytes at ``offset``."""
    if offset + n > len(buf):
        raise ModelFormatError(
            f"truncated model file: wanted {n} bytes at offset {offset}, "
            f"file has {len(buf)}"
        )


def load_model(path: str | Path) -> MlpModel:
    """Read a model file, validating magic, shapes, and exact byte length."""
    buf = Path(path).read_bytes()
    magic = buf[: len(MODEL_MAGIC)]
    if not MODEL_MAGIC.startswith(magic):  # a file cut inside it is truncated
        raise ModelFormatError(
            f"bad magic {magic!r}; not a {MODEL_MAGIC.decode()} model file"
        )
    head = len(MODEL_MAGIC) + 5  # magic, mode byte, depth
    _require(buf, 0, head)
    mode_byte, depth = struct.unpack_from("<BI", buf, len(MODEL_MAGIC))
    if mode_byte not in (0, 1):
        raise ModelFormatError(f"unknown input-mode byte {mode_byte}")
    if not 2 <= depth <= 64:
        raise ModelFormatError(f"implausible layer count {depth}")
    _require(buf, head, 4 * depth)
    sizes = struct.unpack_from(f"<{depth}I", buf, head)
    try:
        _checked_sizes(sizes)  # before any float is read
    except InvalidInputError as exc:
        raise ModelFormatError(f"invalid model file header: {exc}") from None
    # Then float64 stats (mode 1 only), the params block, no more.
    pos = head + 4 * depth
    n_stats = 2 * sizes[0] if mode_byte == 1 else 0
    n_floats = n_stats + _n_params(sizes)
    _require(buf, pos, 8 * n_floats)
    if len(buf) > pos + 8 * n_floats:
        raise ModelFormatError(
            f"{len(buf) - pos - 8 * n_floats} trailing bytes after parameters"
        )
    floats = np.frombuffer(buf, dtype="<f8", offset=pos).copy()
    try:
        stats = None
        if n_stats:
            stats = FeatureStats(mean=tuple(floats[:4]), std=tuple(floats[4:8]))
        return MlpModel(layer_sizes=sizes, params=floats[n_stats:], stats=stats)
    except (InvalidInputError, DegenerateChannelError) as exc:
        raise ModelFormatError(f"invalid model file contents: {exc}") from exc
