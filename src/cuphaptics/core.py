"""Core types and the pressure-difference direction estimate.

Units are fixed package-wide: pressures in kPa, lengths in mm, angles in
degrees normalized to [0, 360). The tool frame is a 2D cup-fixed frame;
chambers 1 and 4 sit on the +x side, chambers 3 and 4 on the +y side, so
pairwise chamber sums give a vector that points toward the better seal.

Everything here is an immutable value or a pure function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

# Below this norm (in pressure-sum units) a direction vector is treated as
# zero and carries no usable angle. Far below any sensor noise scale.
EPS_ZERO = 1e-9

# A vacuum cup cannot exceed ambient pressure; this slack absorbs sensor
# noise on the ambient bound.
PRESSURE_TOLERANCE_KPA = 0.5


def _as_finite(value: object, what: str) -> float:
    try:
        out = float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"{what} must be a real number, got {value!r}") from exc
    if not math.isfinite(out):
        raise InvalidInputError(f"{what} must be finite, got {out!r}")
    return out


@dataclass(frozen=True)
class Angle:
    """An angle in degrees, stored normalized to [0, 360)."""

    degrees: float

    def __post_init__(self) -> None:
        wrapped = _as_finite(self.degrees, "angle") % 360.0
        if wrapped == 360.0:  # fmod of a tiny negative can round up to 360
            wrapped = 0.0
        object.__setattr__(self, "degrees", wrapped)

    @property
    def radians(self) -> float:
        return math.radians(self.degrees)


def wrap_angle(raw_degrees: float) -> Angle:
    """Normalize a raw degree value into [0, 360)."""
    return Angle(raw_degrees)


def angular_errors(pred_deg: np.ndarray, true_deg: np.ndarray) -> np.ndarray:
    """Elementwise wrap-aware separation of angles in [0, 360), within [0, 180]."""
    d = np.abs(np.asarray(pred_deg, dtype=np.float64) - true_deg)
    return np.minimum(d, 360.0 - d)


def angular_error(a: Angle, b: Angle) -> float:
    """Wrap-aware separation between two angles, in degrees within [0, 180]."""
    return float(angular_errors(a.degrees, b.degrees))


@dataclass(frozen=True)
class Vector2:
    """A vector in the tool frame (x along x_tool, y along y_tool)."""

    x: float
    y: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", _as_finite(self.x, "vector x"))
        object.__setattr__(self, "y", _as_finite(self.y, "vector y"))

    def norm(self) -> float:
        return math.hypot(self.x, self.y)

    def polar_angle(self) -> Angle:
        return wrap_angle(math.degrees(math.atan2(self.y, self.x)))


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class VacuumPressures:
    """Gauge pressures P_i = p_atm - p_ch_i; larger means a stronger seal."""

    p: tuple[float, float, float, float]

    def __post_init__(self) -> None:
        values = tuple(self.p)
        if len(values) != 4:
            raise InvalidInputError(f"expected 4 vacuum pressures, got {len(values)}")
        checked = []
        for i, raw in enumerate(values, start=1):
            v = _as_finite(raw, f"vacuum p{i}")
            if v < -PRESSURE_TOLERANCE_KPA:
                raise InvalidInputError(
                    f"vacuum p{i} = {v} kPa is below the -{PRESSURE_TOLERANCE_KPA} kPa "
                    "noise tolerance"
                )
            checked.append(v)
        object.__setattr__(self, "p", tuple(checked))


@dataclass(frozen=True)
class GroundTruthPose:
    """True lateral offset (mm) and yaw of the desired motion direction."""

    delta: float
    phi: Angle

    def __post_init__(self) -> None:
        delta = _as_finite(self.delta, "delta")
        if delta < 0.0:
            raise InvalidInputError(f"delta must be >= 0 mm, got {delta}")
        object.__setattr__(self, "delta", delta)


@dataclass(frozen=True)
class DirectionEstimate:
    """Predicted motion vector, with its yaw when the vector is non-zero."""

    v_pred: Vector2
    phi_pred: Angle | None


def direction_angle(v: Vector2) -> Angle | None:
    """Polar angle of the direction ``v``; None when its norm is ~zero."""
    return v.polar_angle() if v.norm() > EPS_ZERO else None


def vacuum_pressures(frame: SensorFrame) -> VacuumPressures:
    """Convert absolute chamber pressures to gauge (vacuum) pressures."""
    return VacuumPressures(tuple(frame.p_atm - p for p in frame.p_ch))


def model_direction(vp: VacuumPressures) -> DirectionEstimate:
    """Direction estimate from pairwise chamber-sum differences.

    x collects chambers (1, 4) minus (2, 3); y collects (3, 4) minus
    (1, 2). A zero vector is a valid outcome and yields no angle.
    """
    p1, p2, p3, p4 = vp.p
    v = Vector2((p1 + p4) - (p2 + p3), (p3 + p4) - (p1 + p2))
    return DirectionEstimate(v_pred=v, phi_pred=direction_angle(v))


def estimate_direction(frame: SensorFrame) -> DirectionEstimate:
    """Full model-based pipeline: gauge conversion then chamber-sum vector."""
    return model_direction(vacuum_pressures(frame))
