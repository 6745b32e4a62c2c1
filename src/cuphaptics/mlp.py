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
The params block is the flat vector W0, b0, W1, b1, ... that ``train``
optimizes; ``train``, ``save_model`` and ``load_model`` all cut per-layer
views out of one vector in that order, so they agree by construction.
A JSON sidecar (same path + ".json") carries training config and metrics
when the caller supplies them.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, replace
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
from .rng import make_generator, substream

DEFAULT_LAYER_SIZES = (4, 16, 32, 16, 2)
MODEL_MAGIC = b"CUPMLP1"


@dataclass(frozen=True)
class MlpModel:
    """Weights (out x in), biases, and the input convention they expect."""

    layer_sizes: tuple[int, ...]
    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]
    input_mode: Literal["raw", "standardized"] = "raw"
    stats: FeatureStats | None = None

    def __post_init__(self) -> None:
        sizes = tuple(int(s) for s in self.layer_sizes)
        if len(sizes) < 2 or any(s < 1 for s in sizes):
            raise InvalidInputError(f"bad layer_sizes {sizes}")
        weights = tuple(np.asarray(w, dtype=np.float64) for w in self.weights)
        biases = tuple(np.asarray(b, dtype=np.float64) for b in self.biases)
        if len(weights) != len(sizes) - 1 or len(biases) != len(sizes) - 1:
            raise InvalidInputError("one weight matrix and bias per layer required")
        for k, (w, b) in enumerate(zip(weights, biases)):
            if w.shape != (sizes[k + 1], sizes[k]) or b.shape != (sizes[k + 1],):
                raise InvalidInputError(
                    f"layer {k} shape mismatch: W{w.shape}, b{b.shape} for sizes {sizes}"
                )
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise InvalidInputError(f"layer {k} has non-finite parameters")
        if self.input_mode not in ("raw", "standardized"):
            raise InvalidInputError(f"unknown input_mode {self.input_mode!r}")
        if self.input_mode == "standardized":
            if self.stats is None:
                raise InvalidInputError("standardized input_mode requires stats")
            if len(self.stats.mean) != sizes[0]:
                raise InvalidInputError(
                    f"stats cover {len(self.stats.mean)} channels, model takes {sizes[0]}"
                )
        object.__setattr__(self, "layer_sizes", sizes)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "biases", biases)


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
    rng = make_generator(seed)
    sizes = tuple(int(s) for s in layer_sizes)
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return MlpModel(
        layer_sizes=sizes,
        weights=tuple(weights),
        biases=tuple(biases),
        input_mode=input_mode,
        stats=stats,
    )


def _flat_parameters(model: MlpModel) -> np.ndarray:
    """All parameters as one vector in file order: W0, b0, W1, b1, ..."""
    return np.concatenate(
        [a.ravel() for pair in zip(model.weights, model.biases) for a in pair]
    )


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
    activations, _ = _forward_batch(model.weights, model.biases, x[None, :])
    return activations[-1][0]


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
    return DirectionEstimate(v_pred=v, phi_pred=direction_angle(v))


def loss(pred: Sequence[float], target: Sequence[float]) -> float:
    """MSE over the two components: ((p1-t1)^2 + (p2-t2)^2) / 2."""
    p = np.asarray(pred, dtype=np.float64)
    t = np.asarray(target, dtype=np.float64)
    if p.shape != t.shape:
        raise InvalidInputError(f"shape mismatch {p.shape} vs {t.shape}")
    return float(np.mean((p - t) ** 2))


def _batch_loss(
    weights: Sequence[np.ndarray],
    biases: Sequence[np.ndarray],
    x: np.ndarray,
    t: np.ndarray,
) -> float:
    activations, _ = _forward_batch(weights, biases, x)
    return float(np.mean((activations[-1] - t) ** 2))


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
    grad_w = [np.empty_like(w) for w in model.weights]
    grad_b = [np.empty_like(b) for b in model.biases]
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


# Substream indices off the training seed: 0 is parameter init
# (init_model uses the seed directly), 1 drives epoch shuffling.
_SHUFFLE_STREAM = 1


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
        np.array([target_encoding(Angle(p)) for p in part.phi_deg.tolist()])
        for part in (train_set, val_set)
    )
    phi_val = val_set.phi_deg

    model0 = init_model(
        config.seed,
        input_mode="standardized" if config.standardize else "raw",
        stats=stats,
    )
    sizes = model0.layer_sizes
    # Parameters, gradient and RMSprop state are one vector each. The
    # per-layer views alias params and grads, so both are written in place.
    params = _flat_parameters(model0)
    grads = np.empty_like(params)
    weights, biases = _layer_views(params, sizes)
    grad_w, grad_b = _layer_views(grads, sizes)
    opt = RmspropState.initial([params], lr=config.lr, rho=config.rho, eps=config.eps)
    shuffle_rng = substream(config.seed, _SHUFFLE_STREAM)

    initial_val = _batch_loss(weights, biases, x_val, t_val)
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
        train_loss = _batch_loss(weights, biases, x_train, t_train)
        val_out = _forward_batch(weights, biases, x_val)[0][-1]
        val_loss = float(np.mean((val_out - t_val) ** 2))
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

    best_weights, best_biases = _layer_views(best_params, sizes)
    model = MlpModel(
        layer_sizes=sizes,
        weights=tuple(best_weights),
        biases=tuple(best_biases),
        input_mode=model0.input_mode,
        stats=stats,
    )
    history = TrainHistory(
        train_loss=tuple(history_train),
        val_loss=tuple(history_val),
        val_rmse_deg=tuple(history_rmse),
        best_epoch=best_epoch,
        initial_val_loss=initial_val,
    )
    return model, history


def network_output(model: MlpModel, frame: SensorFrame) -> np.ndarray:
    """Raw 2-vector output for a frame, standardizing if the model expects it."""
    x = np.asarray(frame.p_ch, dtype=np.float64)
    if model.input_mode == "standardized":
        assert model.stats is not None  # enforced by MlpModel
        x = _standardize(x, model.stats)
    return forward(model, x)


def predict_angle(model: MlpModel, frame: SensorFrame) -> Angle | None:
    """Standardize if the model expects it, run forward, decode the angle."""
    return decode_angle(network_output(model, frame))


def save_model(
    model: MlpModel, path: str | Path, metadata: Mapping | None = None
) -> None:
    """Write the binary model file; optionally a JSON sidecar at path+'.json'."""
    parts = [MODEL_MAGIC]
    parts.append(struct.pack("<B", 1 if model.input_mode == "standardized" else 0))
    parts.append(struct.pack("<I", len(model.layer_sizes)))
    parts.append(struct.pack(f"<{len(model.layer_sizes)}I", *model.layer_sizes))
    if model.input_mode == "standardized":
        assert model.stats is not None
        parts.append(np.asarray(model.stats.mean, dtype="<f8").tobytes())
        parts.append(np.asarray(model.stats.std, dtype="<f8").tobytes())
    parts.append(_flat_parameters(model).astype("<f8").tobytes())
    Path(path).write_bytes(b"".join(parts))
    if metadata is not None:
        sidecar = Path(str(path) + ".json")
        sidecar.write_text(
            json.dumps(metadata, indent=2, sort_keys=False) + "\n", encoding="utf-8"
        )


class _Cursor:
    """Sequential reader that turns under/overruns into format errors."""

    def __init__(self, buf: bytes):
        self.buf = buf
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.buf):
            raise ModelFormatError(
                f"truncated model file: wanted {n} bytes at offset {self.pos}, "
                f"file has {len(self.buf)}"
            )
        out = self.buf[self.pos : self.pos + n]
        self.pos += n
        return out

    def f64(self, count: int) -> np.ndarray:
        return np.frombuffer(self.take(8 * count), dtype="<f8").copy()


def load_model(path: str | Path) -> MlpModel:
    """Read a model file, validating magic, shapes, and exact byte length."""
    buf = Path(path).read_bytes()
    cur = _Cursor(buf)
    magic = cur.take(len(MODEL_MAGIC))
    if magic != MODEL_MAGIC:
        raise ModelFormatError(
            f"bad magic {magic!r}; not a {MODEL_MAGIC.decode()} model file"
        )
    (mode_byte,) = struct.unpack("<B", cur.take(1))
    if mode_byte not in (0, 1):
        raise ModelFormatError(f"unknown input-mode byte {mode_byte}")
    (depth,) = struct.unpack("<I", cur.take(4))
    if not 2 <= depth <= 64:
        raise ModelFormatError(f"implausible layer count {depth}")
    sizes = struct.unpack(f"<{depth}I", cur.take(4 * depth))
    if any(s < 1 for s in sizes):
        raise ModelFormatError(f"non-positive layer size in {sizes}")
    if sizes[0] != 4 or sizes[-1] != 2:
        raise ModelFormatError(
            f"model must map 4 inputs to 2 outputs, file says {sizes[0]} -> {sizes[-1]}"
        )
    stats_block = None  # means then stds
    if mode_byte == 1:
        stats_block = cur.f64(2 * sizes[0])
    n_params = sum(fan_out * (fan_in + 1) for fan_in, fan_out in zip(sizes, sizes[1:]))
    params = cur.f64(n_params)
    if cur.pos != len(buf):
        raise ModelFormatError(
            f"{len(buf) - cur.pos} trailing bytes after parameters"
        )
    weights, biases = _layer_views(params, sizes)
    try:
        stats = None
        if stats_block is not None:
            stats = FeatureStats(mean=tuple(stats_block[:4]), std=tuple(stats_block[4:]))
        return MlpModel(
            layer_sizes=sizes,
            weights=tuple(weights),
            biases=tuple(biases),
            input_mode="standardized" if mode_byte == 1 else "raw",
            stats=stats,
        )
    except (InvalidInputError, DegenerateChannelError) as exc:
        raise ModelFormatError(f"invalid model file contents: {exc}") from exc
