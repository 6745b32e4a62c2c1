"""Core types, the pressure-difference direction estimate and the estimators.

Units are fixed package-wide: pressures in kPa, lengths in mm, angles in
degrees normalized to [0, 360). The tool frame is a 2D cup-fixed frame;
chambers 1 and 4 sit on the +x side, chambers 3 and 4 on the +y side, so
pairwise chamber sums give a vector that points toward the better seal.

Everything here is an immutable value or a pure function. The value types
store each number as a finite float, converted and then range-checked.
``Angle`` is the one scalar yaw wrap, and ``_wrap_deg``, which wraps a column
in place, its column form.

``ModelBasedEstimator`` and ``OracleEstimator`` answer for a ``Samples`` table
through ``estimate_batch``, as ``mlp.MlpEstimator`` does beside ``predict_angle``:
each row gets its single-frame function's bits (``_yaws`` decodes the rows), and
only the estimator's own rejections are checked, as ``Samples`` checked each frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Protocol

import numpy as np

from .errors import InvalidInputError, as_real, as_reals

if TYPE_CHECKING:
    from .dataset import Samples

# Below this norm (in pressure-sum units) a direction vector is treated as
# zero and carries no usable angle. Far below any sensor noise scale.
EPS_ZERO = 1e-9

# A vacuum cup cannot exceed ambient pressure; this slack absorbs sensor
# noise on the ambient bound.
PRESSURE_TOLERANCE_KPA = 0.5


def _as_finite(value: object, what: str) -> float:
    if type(value) is not float:  # a float needs no conversion
        try:
            value = as_real(value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise InvalidInputError(f"{what} must be a real number, got {value!r}") from exc
    if not math.isfinite(value):  # type: ignore[arg-type]
        raise InvalidInputError(f"{what} must be finite, got {value!r}")
    return value  # type: ignore[return-value]


@dataclass(frozen=True, slots=True)
class Angle:
    """An angle in degrees, stored normalized to [0, 360)."""

    degrees: float

    def __init__(self, degrees: float) -> None:
        wrapped = _as_finite(degrees, "angle") % 360.0
        if wrapped == 360.0:  # fmod of a tiny negative can round up to 360
            wrapped = 0.0
        object.__setattr__(self, "degrees", wrapped)

    @property
    def radians(self) -> float:
        return math.radians(self.degrees)


def angular_errors(pred_deg: np.ndarray, true_deg: np.ndarray) -> np.ndarray:
    """Elementwise wrap-aware separation of angles in [0, 360), within [0, 180]."""
    d = np.abs(as_reals("pred_deg", pred_deg) - as_reals("true_deg", true_deg))
    return np.minimum(d, 360.0 - d)


def _rmse(errors: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.square(errors))))


def angular_error(a: Angle, b: Angle) -> float:
    """Wrap-aware separation between two angles, in degrees within [0, 180]."""
    return float(angular_errors(a.degrees, b.degrees))


@dataclass(frozen=True, slots=True)
class SensorFrame:
    """One reading: four chamber absolute pressures plus ambient, in kPa."""

    p_ch: tuple[float, float, float, float]
    p_atm: float

    def __post_init__(self) -> None:
        p_atm = _as_finite(self.p_atm, "p_atm")
        if p_atm < 0.0:
            raise InvalidInputError(f"p_atm must be >= 0 kPa, got {p_atm}")
        chambers = tuple(self.p_ch)
        if len(chambers) != 4:
            raise InvalidInputError(f"expected 4 chamber pressures, got {len(chambers)}")
        checked = []
        for i, raw in enumerate(chambers, start=1):
            p = _as_finite(raw, f"p_ch{i}")
            if p < 0.0:
                raise InvalidInputError(f"p_ch{i} must be >= 0 kPa, got {p}")
            if p > p_atm + PRESSURE_TOLERANCE_KPA:
                raise InvalidInputError(
                    f"p_ch{i} = {p} kPa exceeds ambient {p_atm} kPa by more than "
                    f"{PRESSURE_TOLERANCE_KPA} kPa"
                )
            checked.append(p)
        object.__setattr__(self, "p_ch", tuple(checked))
        object.__setattr__(self, "p_atm", p_atm)


def frames_valid(p_ch: np.ndarray, p_atm: float | np.ndarray) -> np.ndarray:
    """Per row of (n, 4) chamber pressures under ambient ``p_atm`` (a number or
    an (n, 1) column): whether ``SensorFrame`` accepts them.

    A finite p_atm >= 0 bounds every accepted p_ch, so each is finite too.
    """
    ok = (0.0 <= p_atm) & (p_atm < np.inf) & (0.0 <= p_ch)
    return (ok & (p_ch <= p_atm + PRESSURE_TOLERANCE_KPA)).all(axis=1)


@dataclass(frozen=True, slots=True)
class GroundTruthPose:
    """True lateral offset (mm) and yaw of the desired motion direction."""

    delta: float
    phi: Angle

    def __post_init__(self) -> None:
        delta = _as_finite(self.delta, "delta")
        if delta < 0.0:
            raise InvalidInputError(f"delta must be >= 0 mm, got {delta}")
        object.__setattr__(self, "delta", delta)


@dataclass(frozen=True, slots=True)
class DirectionEstimate:
    """Predicted motion vector (x along x_tool, y along y_tool), with its yaw
    when the vector is non-zero."""

    v_pred: tuple[float, float]
    phi_pred: Angle | None


def _yaw_deg(x: float, y: float) -> float:
    """Polar angle of the direction (x, y) in degrees, before ``Angle`` or
    ``_wrap_deg`` wraps it; NaN when its norm is ~zero. A table maps
    ``math.hypot`` and ``math.atan2`` over its columns (``_yaws``):
    numpy's arctan2 and hypot differ from libm's on some rows."""
    if not math.hypot(x, y) > EPS_ZERO:
        return math.nan
    return math.degrees(math.atan2(y, x))


def _wrap_deg(deg: np.ndarray) -> np.ndarray:
    """``deg``, a column of yaws in degrees, wrapped in place, each as ``Angle``
    stores it, NaN staying NaN: ``Angle``'s rule in column form."""
    np.remainder(deg, 360.0, out=deg)
    deg[deg == 360.0] = 0.0  # Angle's rule
    return deg


def direction_angle(x: float, y: float) -> Angle | None:
    """Polar angle of the direction (x, y); None when its norm is ~zero or
    (x, y) holds a NaN."""
    deg = _yaw_deg(x, y)
    return None if math.isnan(deg) else Angle(deg)


def _pair_sums(gauges):
    """The closed form's vector (x, y) from the four gauge pressures: a frame's
    floats or a table's columns, which ``+`` and ``-`` round alike."""
    p1, p2, p3, p4 = gauges
    return (p1 + p4) - (p2 + p3), (p3 + p4) - (p1 + p2)


def estimate_direction(frame: SensorFrame) -> DirectionEstimate:
    """Direction estimate from pairwise chamber-sum differences.

    The gauge pressures P_i = p_atm - p_ch_i (larger means a stronger seal)
    may dip below zero as far as ``SensorFrame`` lets a chamber exceed
    ambient. x collects chambers (1, 4) minus (2, 3); y collects (3, 4)
    minus (1, 2). A zero vector is a valid outcome and yields no angle; a
    vector whose sums overflow is rejected.
    """
    x, y = _pair_sums([frame.p_atm - p for p in frame.p_ch])
    if not (math.isfinite(x) and math.isfinite(y)):  # the first non-finite one is named
        name, value = ("y", y) if math.isfinite(x) else ("x", x)
        raise InvalidInputError(f"vector {name} must be finite, got {value!r}")
    return DirectionEstimate(v_pred=(x, y), phi_pred=direction_angle(x, y))


class Estimator(Protocol):
    """Direction source for a table of frames: the live rollouts of a
    lockstep search step, or a dataset."""

    name: str

    def estimate_batch(self, rows: Samples) -> np.ndarray:
        """Yaw (deg) per row, as the estimator's single-frame function gives it
        for row i's frame at its true yaw; NaN where it gives none. Raises
        ``InvalidInputError`` where the single-frame function raises."""
        ...


def _yaws(rows: Samples, x, y, ok, estimate: Callable[[SensorFrame], object]) -> np.ndarray:
    """Yaw (deg) of the direction (x, y) of each of ``rows``, NaN where it is
    ~zero. A row is rejected where ``ok`` is false or its (x, y) is not
    finite; the first such row replays ``estimate`` on its frame, which
    raises its error. ``Samples`` has checked each frame and true yaw.

    ``math.hypot`` and ``math.atan2`` map over the columns, as ``_yaw_deg``
    calls them: numpy's differ from libm's on some rows. The one new column,
    the yaws, is turned to degrees, blanked and wrapped in place."""
    ok = ok & np.isfinite(x) & np.isfinite(y)
    if not ok.all():
        i = int(ok.argmin())
        estimate(rows[i].frame)
        raise AssertionError(f"row {i} is rejected here but not by the single-frame path")
    xs, ys, n = memoryview(x), memoryview(y), len(x)  # floats one by one, no lists
    zero = ~(np.fromiter(map(math.hypot, xs, ys), float, count=n) > EPS_ZERO)
    yaw = np.fromiter(map(math.atan2, ys, xs), float, count=n)
    np.degrees(yaw, out=yaw)  # math.degrees' constant
    yaw[zero] = np.nan
    return _wrap_deg(yaw)


@dataclass(frozen=True)
class ModelBasedEstimator:
    """Pairwise chamber-sum direction from the frame alone."""

    name: str = "model_based"

    def estimate_batch(self, rows: Samples) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):  # such rows are rejected
            gauges = rows.p_atm - rows.p_ch  # kept to the end; freed early, peak RSS rose
            x, y = _pair_sums(gauges.T)
        return _yaws(rows, x, y, True, estimate_direction)


@dataclass(frozen=True)
class OracleEstimator:
    """Ground-truth direction; the upper bound every estimator chases."""

    name: str = "oracle"

    def estimate_batch(self, rows: Samples) -> np.ndarray:
        return rows.phi_deg
