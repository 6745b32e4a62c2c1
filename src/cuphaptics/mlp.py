"""From-scratch MLP yaw regressor: forward, backprop, RMSprop, persistence.

The network maps four chamber pressures to the unit-circle encoding
(cos phi, sin phi); predictions decode through the polar angle, which
keeps the 0/360 wrap out of the loss. Hidden layers use ReLU, the output
layer is linear, and every parameter is a 64-bit float. Nothing here
depends on an ML framework — the arithmetic is plain numpy so every step
can be checked against finite differences.

Model file format (versioned, little-endian):

    magic   7 bytes  b"CUPMLP1"
    mode    u8       0 = raw inputs, 1 = standardized
    depth   u32      number of entries in layer_sizes
    sizes   u32 * depth   first 4 (chamber pressures), last 2 (cos, sin)
    stats   f64 * (2 * sizes[0])   means then stds; standardized mode only
    params  per layer: weight matrix row-major (out x in) f64, bias f64 * out

The byte length must match the header exactly; anything else is rejected.
The params block is ``model.params``, the flat vector W0, b0, W1, b1, ...
that the model holds, ``train`` optimizes, ``save_model`` writes and
``load_model`` reads; ``model.weights`` and ``model.biases`` are per-layer
views into it, so every stage agrees on the order by construction.
A JSON sidecar (same path + ".json") carries training config and metrics
when the caller supplies them. A table is scored as a stack of one-row
products, which keeps each row's single-frame bits (an n-row one may not).

``train_many`` trains several folds' networks in lockstep: their parameters
are the rows of one (S, P) array, the forward and backward passes run on a
leading seed axis, and RMSprop updates the stack in place. numpy runs each
network's products and sums as it would for that network alone, so every
fold's model and history equal a solo ``train`` bit for bit; ``train`` is
the one-fold case. Per-epoch losses score each fold on its own, a fixed
chunk of rows at a time through reused buffers.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Literal, Mapping, Sequence

import numpy as np

from .core import (
    EPS_ZERO,
    Angle,
    DirectionEstimate,
    SensorFrame,
    Vector2,
    angular_errors,
    direction_angle,
)
from .dataset import FeatureStats, Samples, feature_stats
from .errors import (
    ConfigError,
    DegenerateChannelError,
    InvalidInputError,
    ModelFormatError,
)
from .rng import INIT, SHUFFLE, substream

DEFAULT_LAYER_SIZES = (4, 16, 32, 16, 2)
MODEL_MAGIC = b"CUPMLP1"
# Rows per forward call in a full-set scoring pass during training.
CHUNK_ROWS = 4096
_V_INVALID = "squared-gradient average must be finite and >= 0"


@dataclass(frozen=True, eq=False)
class MlpModel:
    """Parameters as one flat vector, and the input convention they expect.

    ``params`` holds W0, b0, W1, b1, ... in model-file order (weights out x
    in, row-major); ``weights`` and ``biases`` are per-layer views into it.
    Models compare by identity; compare ``params`` for equal values.
    """

    layer_sizes: tuple[int, ...]
    params: np.ndarray
    input_mode: Literal["raw", "standardized"] = "raw"
    stats: FeatureStats | None = None
    weights: tuple[np.ndarray, ...] = field(init=False, repr=False)
    biases: tuple[np.ndarray, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        sizes = tuple(int(s) for s in self.layer_sizes)
        if len(sizes) < 2 or any(s < 1 for s in sizes):
            raise InvalidInputError(f"bad layer_sizes {sizes}")
        params = np.asarray(self.params, dtype=np.float64)
        if params.shape != (_n_params(sizes),):
            raise InvalidInputError(
                f"params for sizes {sizes} must have shape ({_n_params(sizes)},), "
                f"got {params.shape}"
            )
        if not np.isfinite(params).all():
            raise InvalidInputError("non-finite parameters")
        if self.input_mode not in ("raw", "standardized"):
            raise InvalidInputError(f"unknown input_mode {self.input_mode!r}")
        if self.input_mode == "standardized":
            if self.stats is None:
                raise InvalidInputError("standardized input_mode requires stats")
            if len(self.stats.mean) != sizes[0]:
                raise InvalidInputError(
                    f"stats cover {len(self.stats.mean)} channels, model takes {sizes[0]}"
                )
        weights, biases = _layer_views(params, sizes)
        object.__setattr__(self, "layer_sizes", sizes)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "weights", tuple(weights))
        object.__setattr__(self, "biases", tuple(biases))


@dataclass(frozen=True)
class RmspropState:
    """Running mean of squared gradients plus the optimizer hyperparameters."""

    v: tuple[np.ndarray, ...]
    lr: float = 1e-3
    rho: float = 0.9
    eps: float = 1e-8

    def __post_init__(self) -> None:
        if not 0.0 < self.lr < math.inf:
            raise ConfigError(f"lr must be finite and > 0, got {self.lr}")
        if not 0.0 < self.rho < 1.0:
            raise ConfigError(f"rho must be in (0, 1), got {self.rho}")
        if not 0.0 < self.eps < math.inf:
            raise ConfigError(f"eps must be finite and > 0, got {self.eps}")
        v = tuple(np.asarray(a, dtype=np.float64) for a in self.v)
        for a in v:
            if not (np.isfinite(a).all() and (a >= 0.0).all()):
                raise InvalidInputError(_V_INVALID)
        object.__setattr__(self, "v", v)

    @classmethod
    def initial(cls, params: Sequence[np.ndarray], **hyper: float) -> "RmspropState":
        """Zero averages shaped like ``params``; ``hyper`` may set lr, rho, eps."""
        return cls(v=tuple(np.zeros_like(p) for p in params), **hyper)


@dataclass(frozen=True)
class TrainConfig:
    """Training schedule and optimizer settings.

    ``standardize`` controls whether inputs are z-scored with training-set
    stats (the default) or fed as raw kPa values.
    """

    batch_size: int = 64
    max_epochs: int = 200
    patience: int = 20
    seed: int = 0
    lr: float = 1e-3
    rho: float = 0.9
    eps: float = 1e-8
    standardize: bool = True

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.max_epochs < 1:
            raise ConfigError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if self.patience < 0:
            raise ConfigError(f"patience must be >= 0, got {self.patience}")
        # The optimizer state checks lr, rho and eps.
        RmspropState(v=(), lr=self.lr, rho=self.rho, eps=self.eps)


@dataclass(frozen=True)
class TrainHistory:
    """Per-epoch loss curves; lengths equal the number of completed epochs.

    ``best_epoch`` is 0 when the initial parameters were never beaten,
    otherwise the 1-based epoch whose validation loss was checkpointed.
    """

    train_loss: tuple[float, ...]
    val_loss: tuple[float, ...]
    val_rmse_deg: tuple[float, ...]
    best_epoch: int = 0
    initial_val_loss: float = math.nan


def init_model(
    seed: int,
    layer_sizes: Sequence[int] = DEFAULT_LAYER_SIZES,
    input_mode: Literal["raw", "standardized"] = "raw",
    stats: FeatureStats | None = None,
) -> MlpModel:
    """Glorot-uniform weights, zero biases, deterministic in ``seed``."""
    rng = substream(seed, INIT)
    sizes = tuple(int(s) for s in layer_sizes)
    model = MlpModel(sizes, np.zeros(_n_params(sizes)), input_mode, stats)
    for w in model.weights:  # drawn in place, layer by layer
        fan_out, fan_in = w.shape
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        w[:] = rng.uniform(-limit, limit, size=w.shape)
    return model


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


def _forward_batch(
    weights: Sequence[np.ndarray],
    biases: Sequence[np.ndarray],
    x: np.ndarray,
    work: Sequence[np.ndarray] | None = None,
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Return (activations, pre-activations); activations[0] is the input.

    Rows run along axis -2. Leading axes broadcast, so an (S, out, in)
    weight stack runs S networks on an (S, n, in) input stack at once.
    Given ``work`` (per layer, a 2-D array of its width with at least as
    many rows as ``x``), each layer is written there and its ReLU applied
    in place: a repeated pass then allocates nothing, and the hidden
    pre-activations are not kept.
    """
    activations = [x]
    preacts = []
    last = len(weights) - 1
    for k, (w, b) in enumerate(zip(weights, biases)):
        dest = None if work is None else work[k][: x.shape[-2]]
        z = np.matmul(activations[-1], w.swapaxes(-1, -2), out=dest)
        z += b[..., None, :]
        preacts.append(z)
        activations.append(z if k == last else np.maximum(z, 0.0, out=dest))
    return activations, preacts


def forward(model: MlpModel, inputs: Sequence[float]) -> np.ndarray:
    """Network output for one input vector (ReLU hidden, linear output)."""
    x = np.asarray(inputs, dtype=np.float64)
    if x.shape != (model.layer_sizes[0],):
        raise InvalidInputError(
            f"expected {model.layer_sizes[0]} inputs, got shape {x.shape}"
        )
    if not np.isfinite(x).all():
        raise InvalidInputError("inputs must be finite")
    return _forward_batch(model.weights, model.biases, x[None, :])[0][-1][0]


def target_encoding(phi: Angle) -> tuple[float, float]:
    """Unit-circle encoding (cos phi, sin phi)."""
    return (math.cos(phi.radians), math.sin(phi.radians))


def decode_angle(output: Sequence[float]) -> Angle | None:
    """Polar angle of a 2-vector output; None when the vector is ~zero."""
    return decode_estimate(output).phi_pred


def decode_estimate(output: Sequence[float]) -> DirectionEstimate:
    """Direction estimate for a 2-vector output: the vector and its angle."""
    x, y = (float(v) for v in output)
    if not (math.isfinite(x) and math.isfinite(y)):
        raise InvalidInputError(f"output must be finite, got ({x}, {y})")
    v = Vector2(x, y)
    return DirectionEstimate(v_pred=v, phi_pred=direction_angle(v.x, v.y))


def loss(pred: Sequence[float], target: Sequence[float]) -> float:
    """MSE over the two components: ((p1-t1)^2 + (p2-t2)^2) / 2."""
    p = np.asarray(pred, dtype=np.float64)
    t = np.asarray(target, dtype=np.float64)
    if p.shape != t.shape:
        raise InvalidInputError(f"shape mismatch {p.shape} vs {t.shape}")
    return float(np.mean((p - t) ** 2))


def _backward_arrays(
    weights: Sequence[np.ndarray],
    biases: Sequence[np.ndarray],
    x: np.ndarray,
    t: np.ndarray,
    grad_w: Sequence[np.ndarray],
    grad_b: Sequence[np.ndarray],
) -> None:
    """Write the mean-batch-loss gradients into ``grad_w`` and ``grad_b``;
    with a leading stack axis, each network's from its own batch."""
    activations, preacts = _forward_batch(weights, biases, x)
    n = x.shape[-2]
    # d(mean over n*2 elements of (a-t)^2) / da = (a - t) / n
    grad = (activations[-1] - t) / n
    for k in reversed(range(len(weights))):
        np.matmul(grad.swapaxes(-1, -2), activations[k], out=grad_w[k])
        grad.sum(axis=-2, out=grad_b[k])
        if k > 0:
            grad = (grad @ weights[k]) * (preacts[k - 1] > 0.0)


def backward(
    model: MlpModel, inputs: np.ndarray, targets: np.ndarray
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Gradients of the mean batch loss w.r.t. every weight and bias.

    ReLU's subgradient at exactly 0 is taken as 0. Returns
    (grad_weights, grad_biases) with shapes matching the model.
    """
    x = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    t = np.atleast_2d(np.asarray(targets, dtype=np.float64))
    if x.shape[0] == 0:
        raise InvalidInputError("backward requires a non-empty batch")
    if x.shape[0] != t.shape[0]:
        raise InvalidInputError(
            f"batch size mismatch: {x.shape[0]} inputs vs {t.shape[0]} targets"
        )
    grad_w, grad_b = _layer_views(np.empty_like(model.params), model.layer_sizes)
    _backward_arrays(model.weights, model.biases, x, t, grad_w, grad_b)
    return grad_w, grad_b


def _rmsprop_update(
    params: np.ndarray,
    grads: np.ndarray,
    v: np.ndarray,
    scratch: np.ndarray,
    lr: float,
    rho: float,
    eps: float,
) -> None:
    """One RMSprop update of ``params`` and ``v`` in place.

    ``grads`` and ``scratch`` are overwritten. The IEEE operations and their
    order are those of v <- rho*v + ((1-rho)*g)*g and
    theta <- theta - (lr*g) / (sqrt(v) + eps), so the bits equal that formula
    evaluated into fresh arrays. A non-finite average (the run diverged)
    raises before ``params`` is touched.
    """
    np.multiply(grads, 1.0 - rho, out=scratch)
    scratch *= grads
    v *= rho
    v += scratch
    if not np.isfinite(v).all():
        raise InvalidInputError(_V_INVALID)
    np.sqrt(v, out=scratch)
    scratch += eps
    grads *= lr
    grads /= scratch
    params -= grads


def rmsprop_step(
    params: Sequence[np.ndarray],
    grads: Sequence[np.ndarray],
    state: RmspropState,
) -> tuple[list[np.ndarray], RmspropState]:
    """One update: v <- rho*v + (1-rho)*g^2; theta <- theta - lr*g/(sqrt(v)+eps).

    Returns new arrays and a new state; the arguments are left unchanged.
    """
    if not (len(params) == len(grads) == len(state.v)):
        raise InvalidInputError("params, grads, and state.v must align")
    new_v, new_params = [], []
    for p, g, v in zip(params, grads, state.v):
        p, g, v = (np.array(a, dtype=np.float64) for a in (p, g, v))  # copies
        if p.shape != g.shape or p.shape != v.shape:
            raise InvalidInputError(
                f"shape mismatch: param {p.shape}, grad {g.shape}, v {v.shape}"
            )
        _rmsprop_update(p, g, v, np.empty_like(p), state.lr, state.rho, state.eps)
        new_v.append(v)
        new_params.append(p)
    return new_params, replace(state, v=tuple(new_v))


def _standardize(x: np.ndarray, stats: FeatureStats) -> np.ndarray:
    """Z-score chamber pressures (last axis) under training-set stats."""
    return (x - np.asarray(stats.mean)) / np.asarray(stats.std)


def _outputs_chunked(
    weights: Sequence[np.ndarray],
    biases: Sequence[np.ndarray],
    x: np.ndarray,
    out: np.ndarray,
    work: Sequence[np.ndarray],
) -> np.ndarray:
    """Fill ``out`` with the outputs for the rows of ``x``, ``CHUNK_ROWS`` rows
    at a time through the layer buffers ``work``, so that a full-set pass
    holds one chunk's activations and allocates none."""
    for start in range(0, len(x), CHUNK_ROWS):
        rows = slice(start, start + CHUNK_ROWS)
        out[rows] = _forward_batch(weights, biases, x[rows], work)[0][-1]
    return out


def _fold_arrays(part: Samples, stats: FeatureStats | None) -> tuple[np.ndarray, np.ndarray]:
    """A fold's network inputs, z-scored when ``stats`` is given, and its
    unit-circle targets (cos phi, sin phi)."""
    x = np.ascontiguousarray(part.p_ch)
    if stats is not None:
        x = _standardize(x, stats)
    rad = np.radians(part.phi_deg)
    return x, np.stack((np.cos(rad), np.sin(rad)), axis=1)


class _SeedRun:
    """One fold of a ``train_many`` call: its arrays, its shuffle stream, and
    its per-epoch record with the best checkpoint so far."""

    def __init__(
        self,
        fold: tuple[Samples, Samples],
        config: TrainConfig,
        seed: int,
        work: Sequence[np.ndarray],
    ):
        train_set, val_set = fold
        stats = feature_stats(train_set) if config.standardize else None
        self.x_train, self.t_train = _fold_arrays(train_set, stats)
        self.x_val, self.t_val = _fold_arrays(val_set, stats)
        self.phi_val = val_set.phi_deg
        self.train_out, self.val_out = np.empty_like(self.t_train), np.empty_like(self.t_val)
        self.work = work  # layer buffers that the folds share
        self.model0 = init_model(
            seed, input_mode="standardized" if config.standardize else "raw", stats=stats
        )
        self.shuffle_rng = substream(seed, SHUFFLE)
        self.initial_val = self.best_val = loss(
            self._outputs(self.model0.params, self.x_val, self.val_out), self.t_val
        )
        self.best_params = self.model0.params.copy()
        self.best_epoch = self.stale_epochs = 0
        self.train_loss: list[float] = []
        self.val_loss: list[float] = []
        self.val_rmse: list[float] = []

    def _outputs(self, params: np.ndarray, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        weights, biases = _layer_views(params, self.model0.layer_sizes)
        return _outputs_chunked(weights, biases, x, out, self.work)

    def end_epoch(self, epoch: int, params: np.ndarray, patience: int) -> bool:
        """Score ``params`` after ``epoch``; True once more than ``patience``
        epochs in a row have not improved validation loss."""
        train_out = self._outputs(params, self.x_train, self.train_out)
        self.train_loss.append(loss(train_out, self.t_train))
        val_out = self._outputs(params, self.x_val, self.val_out)
        val_loss = loss(val_out, self.t_val)
        # Decoded validation angles; ~zero output vectors carry none.
        defined = np.hypot(val_out[:, 0], val_out[:, 1]) > EPS_ZERO
        val_rmse = math.nan
        if defined.any():
            pred = np.degrees(np.arctan2(val_out[defined, 1], val_out[defined, 0]))
            err = angular_errors(pred % 360.0, self.phi_val[defined])
            val_rmse = float(np.sqrt(np.mean(err**2)))
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
    folds: Sequence[tuple[Samples, Samples]],
    config: TrainConfig,
    seeds: Sequence[int],
) -> list[tuple[MlpModel, TrainHistory]]:
    """Train one model per (train, validation) fold, all folds in lockstep.

    Fold i trains under ``seeds[i]`` in place of ``config.seed``, and its
    result equals ``train(*folds[i], replace(config, seed=seeds[i]))`` bit
    for bit: the S networks run as one (S, P) parameter stack through the
    forward, backward and RMSprop code of a lone network, whose per-network
    products, sums and updates are the same operations. Each fold shuffles
    from its own stream and stops early on its own; a stopped fold keeps
    its best checkpoint and leaves the stack. The training folds must all
    have one size, so that their mini-batches line up.
    """
    if not folds or len(folds) != len(seeds):
        raise ConfigError(f"need one seed per fold, got {len(folds)} folds, {len(seeds)} seeds")
    if not all(len(train_set) and len(val_set) for train_set, val_set in folds):
        raise ConfigError("train and validation sets must both be non-empty")
    n = len(folds[0][0])
    if any(len(train_set) != n for train_set, _ in folds):
        raise ConfigError("lockstep training needs training folds of one size")
    sizes = DEFAULT_LAYER_SIZES
    work = [np.empty((CHUNK_ROWS, width)) for width in sizes[1:]]
    runs = [_SeedRun(fold, config, seed, work) for fold, seed in zip(folds, seeds)]
    # Each live fold's training set in this epoch's order, stacked.
    x_epoch = np.empty((len(runs), n, sizes[0]))
    t_epoch = np.empty((len(runs), n, sizes[-1]))

    live = runs
    # Parameters and RMSprop averages, one row per live fold.
    params = np.stack([run.model0.params for run in live])
    v = np.zeros_like(params)
    for epoch in range(1, config.max_epochs + 1):
        # Gradients and scratch match the stack; the per-layer views alias
        # params and grads, so both are written in place.
        grads, scratch = np.empty_like(params), np.empty_like(params)
        weights, biases = _layer_views(params, sizes)
        grad_w, grad_b = _layer_views(grads, sizes)
        # Each fold's epoch order, gathered once; batches are slices of it.
        x, t = x_epoch[: len(live)], t_epoch[: len(live)]
        for i, run in enumerate(live):
            order = run.shuffle_rng.permutation(n)
            np.take(run.x_train, order, axis=0, out=x[i])
            np.take(run.t_train, order, axis=0, out=t[i])
        for start in range(0, n, config.batch_size):
            batch = slice(start, start + config.batch_size)
            _backward_arrays(weights, biases, x[:, batch], t[:, batch], grad_w, grad_b)
            _rmsprop_update(params, grads, v, scratch, config.lr, config.rho, config.eps)
        going = [
            not run.end_epoch(epoch, row, config.patience)
            for run, row in zip(live, params)
        ]
        if not all(going):
            live = [run for run, keep in zip(live, going) if keep]
            if not live:
                break
            params, v = params[going], v[going]
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
    """Raw 2-vector output for a frame, standardizing if the model expects it."""
    x = np.asarray(frame.p_ch, dtype=np.float64)
    if model.input_mode == "standardized":
        assert model.stats is not None  # enforced by MlpModel
        x = _standardize(x, model.stats)
    return forward(model, x)


def _outputs_by_row(model: MlpModel, p_ch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unchecked inputs and (n, 2) outputs, each row as ``network_output`` runs it."""
    if p_ch.shape[1:] != (n_in := model.layer_sizes[0],):
        raise InvalidInputError(f"expected {n_in} inputs, got shape {p_ch.shape[1:]}")
    standardized = model.input_mode == "standardized" and model.stats is not None
    x = _standardize(p_ch, model.stats) if standardized else p_ch
    return x, _forward_batch(model.weights, model.biases, x[:, None, :])[0][-1][:, 0]


def predict_angle(model: MlpModel, frame: SensorFrame) -> Angle | None:
    """Standardize if the model expects it, run forward, decode the angle."""
    return decode_angle(network_output(model, frame))


def save_model(
    model: MlpModel, path: str | Path, metadata: Mapping | None = None
) -> None:
    """Write the binary model file; optionally a JSON sidecar at path+'.json'."""
    mode = 1 if model.input_mode == "standardized" else 0
    depth = len(model.layer_sizes)
    parts = [MODEL_MAGIC, struct.pack(f"<BI{depth}I", mode, depth, *model.layer_sizes)]
    if mode:
        assert model.stats is not None
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
    if any(s < 1 for s in sizes):
        raise ModelFormatError(f"non-positive layer size in {sizes}")
    if sizes[0] != 4 or sizes[-1] != 2:
        raise ModelFormatError(
            f"model must map 4 inputs to 2 outputs, file says {sizes[0]} -> {sizes[-1]}"
        )
    # Then float64 stats (standardized mode only), the params block, no more.
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
        return MlpModel(
            layer_sizes=sizes,
            params=floats[n_stats:],
            input_mode="standardized" if mode_byte == 1 else "raw",
            stats=stats,
        )
    except (InvalidInputError, DegenerateChannelError) as exc:
        raise ModelFormatError(f"invalid model file contents: {exc}") from exc
