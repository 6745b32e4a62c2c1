"""Synthetic edge-contact pressure data.

Models a suction cup of lip radius ``r_cup`` overhanging a straight plate
edge. The plate-interior normal in the tool frame is (cos phi, sin phi)
and the edge line sits at signed coordinate ``delta - r_cup`` along that
normal, so delta = 0 means the cup is fully on the plate and
delta = 2*r_cup means fully off. Each chamber holds vacuum in proportion
to how deep its center sits inside the plate half-plane, through either a
clamped affine ramp or a logistic (sigmoid) transition, plus optional
i.i.d. Gaussian sensor noise.

All randomness is drawn from per-sample substreams (seed XOR index), so
datasets are byte-identical across runs and independent of generation
order. Within one sample the draw order is fixed: pose delta, pose phi
(random sampling only), then the four chamber noise terms in chamber
order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .core import PRESSURE_TOLERANCE_KPA, Angle, GroundTruthPose, SensorFrame
from .dataset import LabeledSample
from .errors import ConfigError, InvalidInputError
from .rng import substream

# Chamber-center directions, chambers 1-4. The pairwise-sum direction
# formula is only valid for this placement (up to reflection), so it is
# not configurable.
CHAMBER_ANGLES_DEG = (315.0, 225.0, 135.0, 45.0)


@dataclass(frozen=True)
class CupGeometry:
    """Cup lip and chamber-center radii, mm; chambers sit at CHAMBER_ANGLES_DEG."""

    r_cup_mm: float = 15.0
    r_chamber_mm: float = 10.0

    def __post_init__(self) -> None:
        if not (0.0 < self.r_chamber_mm < self.r_cup_mm):
            raise ConfigError(
                f"need 0 < r_chamber < r_cup, got r_chamber={self.r_chamber_mm}, "
                f"r_cup={self.r_cup_mm}"
            )


@dataclass(frozen=True)
class PressureFieldParams:
    """How coverage depth maps to chamber vacuum, and the noise level."""

    p_max_kpa: float = 10.0
    transition_width_mm: float = 4.0
    response: Literal["affine", "sigmoid"] = "sigmoid"
    noise_sigma_kpa: float = 0.3
    p_atm_kpa: float = 101.325

    def __post_init__(self) -> None:
        if not self.p_max_kpa > 0.0:
            raise ConfigError(f"p_max_kpa must be > 0, got {self.p_max_kpa}")
        if not self.transition_width_mm > 0.0:
            raise ConfigError(
                f"transition_width_mm must be > 0, got {self.transition_width_mm}"
            )
        if self.response not in ("affine", "sigmoid"):
            raise ConfigError(f"unknown response {self.response!r}")
        if self.noise_sigma_kpa < 0.0:
            raise ConfigError(
                f"noise_sigma_kpa must be >= 0, got {self.noise_sigma_kpa}"
            )
        if self.p_atm_kpa < 0.0:
            raise ConfigError(f"p_atm_kpa must be >= 0, got {self.p_atm_kpa}")


@dataclass(frozen=True)
class GenerationConfig:
    """Pose sampling plan for a dataset."""

    n_samples: int = 25_273
    delta_range_mm: tuple[float, float] = (7.0, 14.0)
    phi_range_deg: tuple[float, float] = (0.0, 360.0)
    sampling: Literal["uniform_random", "grid"] = "uniform_random"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_samples <= 0:
            raise ConfigError(f"n_samples must be > 0, got {self.n_samples}")
        d_lo, d_hi = self.delta_range_mm
        if not (0.0 <= d_lo <= d_hi):
            raise ConfigError(f"bad delta_range_mm {self.delta_range_mm}")
        p_lo, p_hi = self.phi_range_deg
        if not (0.0 <= p_lo < p_hi <= 360.0):
            raise ConfigError(f"bad phi_range_deg {self.phi_range_deg}")
        if self.sampling not in ("uniform_random", "grid"):
            raise ConfigError(f"unknown sampling mode {self.sampling!r}")


def coverage_depth(geom: CupGeometry, pose: GroundTruthPose, chamber: int) -> float:
    """Signed depth (mm) of chamber center inside the plate half-plane.

    d_i = r_chamber * cos(alpha_i - phi) - delta + r_cup. Positive means
    the chamber center is over the plate.
    """
    if chamber not in (1, 2, 3, 4):
        raise InvalidInputError(f"chamber must be 1..4, got {chamber}")
    alpha = CHAMBER_ANGLES_DEG[chamber - 1]
    return (
        geom.r_chamber_mm * math.cos(math.radians(alpha - pose.phi.degrees))
        - pose.delta
        + geom.r_cup_mm
    )


def _logistic(t: float) -> float:
    # Split on sign so exp never overflows.
    if t >= 0.0:
        return 1.0 / (1.0 + math.exp(-t))
    e = math.exp(t)
    return e / (1.0 + e)


def chamber_vacuum(
    params: PressureFieldParams, d: float, rng: np.random.Generator | None = None
) -> float:
    """Vacuum (kPa) held at coverage depth ``d``, plus Gaussian noise.

    Noiseless response: p_max * clamp01(0.5 + d/(2w)) for affine,
    p_max * logistic(d/w) for sigmoid. Noise is drawn from ``rng`` only
    when noise_sigma_kpa > 0.
    """
    if not math.isfinite(d):
        raise InvalidInputError(f"coverage depth must be finite, got {d}")
    t = d / params.transition_width_mm
    if params.response == "affine":
        v = params.p_max_kpa * min(max(0.5 + 0.5 * t, 0.0), 1.0)
    else:
        v = params.p_max_kpa * _logistic(t)
    if params.noise_sigma_kpa > 0.0:
        if rng is None:
            raise InvalidInputError("noise_sigma_kpa > 0 requires an rng")
        v += rng.normal(0.0, params.noise_sigma_kpa)
    return v


def synth_frame(
    geom: CupGeometry,
    params: PressureFieldParams,
    pose: GroundTruthPose,
    rng: np.random.Generator | None = None,
) -> SensorFrame:
    """Sensor frame at a pose: p_ch[i] = p_atm - vacuum, noise per chamber."""
    p_cap = params.p_atm_kpa + PRESSURE_TOLERANCE_KPA
    p_ch = tuple(
        min(params.p_atm_kpa - chamber_vacuum(params, coverage_depth(geom, pose, i), rng), p_cap)
        for i in (1, 2, 3, 4)
    )
    return SensorFrame(p_ch=p_ch, p_atm=params.p_atm_kpa)


def _grid_poses(config: GenerationConfig) -> list[GroundTruthPose]:
    d_lo, d_hi = config.delta_range_mm
    p_lo, p_hi = config.phi_range_deg
    n_phi = math.ceil(math.sqrt(config.n_samples))
    n_delta = math.ceil(config.n_samples / n_phi)
    deltas = np.linspace(d_lo, d_hi, n_delta)
    # phi endpoint excluded: the range wraps, so p_hi aliases p_lo.
    phis = p_lo + np.arange(n_phi) * ((p_hi - p_lo) / n_phi)
    poses = []
    for d in deltas:
        for p in phis:
            poses.append(GroundTruthPose(delta=float(d), phi=Angle(float(p))))
            if len(poses) == config.n_samples:
                return poses
    return poses


def generate_dataset(
    geom: CupGeometry, params: PressureFieldParams, config: GenerationConfig
) -> list[LabeledSample]:
    """Generate exactly n_samples labeled frames, fully determined by seed."""
    d_lo, d_hi = config.delta_range_mm
    if d_hi > 2.0 * geom.r_cup_mm:
        raise ConfigError(
            f"delta_range_mm must stay within [0, {2.0 * geom.r_cup_mm}] "
            f"(cup diameter), got {config.delta_range_mm}"
        )
    grid = _grid_poses(config) if config.sampling == "grid" else None
    samples = []
    for i in range(config.n_samples):
        rng = substream(config.seed, i)
        if grid is None:
            p_lo, p_hi = config.phi_range_deg
            pose = GroundTruthPose(
                delta=rng.uniform(d_lo, d_hi), phi=Angle(rng.uniform(p_lo, p_hi))
            )
        else:
            pose = grid[i]
        samples.append(
            LabeledSample(frame=synth_frame(geom, params, pose, rng), pose=pose)
        )
    return samples
