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
                raise InvalidInputError("squared-gradient average must be finite and >= 0")
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
    """Per-layer weight (out x in) and bias views into a flat vector."""
    shapes = [s for i, o in zip(layer_sizes, layer_sizes[1:]) for s in ((o, i), (o,))]
    ends = np.cumsum([math.prod(s) for s in shapes])
    views = [a.reshape(s) for a, s in zip(np.split(flat, ends[:-1]), shapes)]
    return views[0::2], views[1::2]


def _forward_batch(
    weights: Sequence[np.ndarray], biases: Sequence[np.ndarray], x: np.ndarray
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Return (activations, pre-activations); activations[0] is the input."""
    activations = [x]
    preacts = []
    last = len(weights) - 1
    for k, (w, b) in enumerate(zip(weights, biases)):
        z = activations[-1] @ w.T + b
        preacts.append(z)
        activations.append(z if k == last else np.maximum(z, 0.0))
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
    """Write the mean-batch-loss gradients into ``grad_w`` and ``grad_b``."""
    activations, preacts = _forward_batch(weights, biases, x)
    n = x.shape[0]
    # d(mean over n*2 elements of (a-t)^2) / da = (a - t) / n
    grad = (activations[-1] - t) / n
    for k in reversed(range(len(weights))):
        np.matmul(grad.T, activations[k], out=grad_w[k])
        grad.sum(axis=0, out=grad_b[k])
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


def rmsprop_step(
    params: Sequence[np.ndarray],
    grads: Sequence[np.ndarray],
    state: RmspropState,
) -> tuple[list[np.ndarray], RmspropState]:
    """One update: v <- rho*v + (1-rho)*g^2; theta <- theta - lr*g/(sqrt(v)+eps)."""
    if not (len(params) == len(grads) == len(state.v)):
        raise InvalidInputError("params, grads, and state.v must align")
    new_v, new_params = [], []
    for p, g, v in zip(params, grads, state.v):
        p = np.asarray(p, dtype=np.float64)
        g = np.asarray(g, dtype=np.float64)
        if p.shape != g.shape or p.shape != v.shape:
            raise InvalidInputError(
                f"shape mismatch: param {p.shape}, grad {g.shape}, v {v.shape}"
            )
        v2 = state.rho * v + (1.0 - state.rho) * g * g
        new_v.append(v2)
        new_params.append(p - state.lr * g / (np.sqrt(v2) + state.eps))
    return new_params, replace(state, v=tuple(new_v))


def _standardize(x: np.ndarray, stats: FeatureStats) -> np.ndarray:
    """Z-score chamber pressures (last axis) under training-set stats."""
    return (x - np.asarray(stats.mean)) / np.asarray(stats.std)


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
    to improve validation loss.
    """
    if not (len(train_set) and len(val_set)):
        raise ConfigError("train and validation sets must both be non-empty")
    x_train, x_val = (
        np.ascontiguousarray(part.p_ch) for part in (train_set, val_set)
    )
    stats = None
    if config.standardize:
        stats = feature_stats(train_set)
        x_train, x_val = _standardize(x_train, stats), _standardize(x_val, stats)
    t_train, t_val = (
        np.stack((np.cos(rad), np.sin(rad)), axis=1)
        for rad in (np.radians(part.phi_deg) for part in (train_set, val_set))
    )
    phi_val = val_set.phi_deg

    model0 = init_model(
        config.seed,
        input_mode="standardized" if config.standardize else "raw",
        stats=stats,
    )
    # Parameters, gradient and RMSprop state are one vector each. The
    # per-layer views alias params and grads, so both are written in place.
    params = model0.params.copy()
    grads = np.empty_like(params)
    weights, biases = _layer_views(params, model0.layer_sizes)
    grad_w, grad_b = _layer_views(grads, model0.layer_sizes)
    opt = RmspropState.initial([params], lr=config.lr, rho=config.rho, eps=config.eps)
    shuffle_rng = substream(config.seed, SHUFFLE)

    initial_val = loss(_forward_batch(weights, biases, x_val)[0][-1], t_val)
    best_val = initial_val
    best_params = params.copy()
    best_epoch = 0

    n = len(train_set)
    history_train, history_val, history_rmse = [], [], []
    stale_epochs = 0
    for epoch in range(1, config.max_epochs + 1):
        order = shuffle_rng.permutation(n)
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            _backward_arrays(
                weights, biases, x_train[idx], t_train[idx], grad_w, grad_b
            )
            (updated,), opt = rmsprop_step([params], [grads], opt)
            params[:] = updated
        train_loss = loss(_forward_batch(weights, biases, x_train)[0][-1], t_train)
        val_out = _forward_batch(weights, biases, x_val)[0][-1]
        val_loss = loss(val_out, t_val)
        # Decoded validation angles; ~zero output vectors carry none.
        defined = np.hypot(val_out[:, 0], val_out[:, 1]) > EPS_ZERO
        val_rmse = math.nan
        if defined.any():
            pred = np.degrees(np.arctan2(val_out[defined, 1], val_out[defined, 0]))
            err = angular_errors(pred % 360.0, phi_val[defined])
            val_rmse = float(np.sqrt(np.mean(err**2)))
        history_train.append(train_loss)
        history_val.append(val_loss)
        history_rmse.append(val_rmse)
        if val_loss < best_val:
            best_val = val_loss
            best_params = params.copy()
            best_epoch = epoch
            stale_epochs = 0
        else:
            stale_epochs += 1
            if stale_epochs > config.patience:
                break

    history = TrainHistory(
        train_loss=tuple(history_train),
        val_loss=tuple(history_val),
        val_rmse_deg=tuple(history_rmse),
        best_epoch=best_epoch,
        initial_val_loss=initial_val,
    )
    return replace(model0, params=best_params), history


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
