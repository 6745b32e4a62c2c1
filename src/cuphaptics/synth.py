"""Synthetic edge-contact pressure data.

Models a suction cup of lip radius ``r_cup`` overhanging a straight plate
edge. The plate-interior normal in the tool frame is (cos phi, sin phi)
and the edge line sits at signed coordinate ``delta - r_cup`` along that
normal, so delta = 0 means the cup is fully on the plate and
delta = 2*r_cup means fully off. Each chamber holds vacuum in proportion
to how deep its center sits inside the plate half-plane, through either a
clamped affine ramp or a logistic (sigmoid) transition, plus optional
i.i.d. Gaussian sensor noise.

A dataset is computed as whole columns by one array kernel
(``coverage_depth`` then ``chamber_vacuum``), and ``synth_frame`` is its
one-row case. Each random column has its own keyed stream (see ``rng``):
offsets (n,) and yaws (n,) for random sampling, and noise (n, 4) in row
then chamber order. Draws are sequential, so the first k rows of a
dataset do not depend on n, and the bytes depend only on the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Literal

import numpy as np

from .core import PRESSURE_TOLERANCE_KPA, GroundTruthPose, SensorFrame
from .dataset import CSV_COLUMNS, Samples
from .errors import ConfigError, InvalidInputError
from .rng import DATASET_DELTA, DATASET_NOISE, DATASET_PHI, substream

if TYPE_CHECKING:
    from numpy.typing import ArrayLike

# Chamber-center directions, chambers 1-4. The pairwise-sum direction
# formula is only valid for this placement (up to reflection), so it is
# not configurable.
CHAMBER_ANGLES_DEG = (315.0, 225.0, 135.0, 45.0)
_CHAMBER_ANGLES_RAD = np.radians(CHAMBER_ANGLES_DEG)


@dataclass(frozen=True)
class CupGeometry:
    """Cup lip and chamber-center radii, mm; chambers sit at CHAMBER_ANGLES_DEG."""

    r_cup_mm: float = 15.0
    r_chamber_mm: float = 10.0

    def __post_init__(self) -> None:
        if not (0.0 < self.r_chamber_mm < self.r_cup_mm < math.inf):
            raise ConfigError(
                "need 0 < r_chamber < r_cup, both finite, "
                f"got r_chamber={self.r_chamber_mm}, r_cup={self.r_cup_mm}"
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
        if not 0.0 < self.p_max_kpa < math.inf:
            raise ConfigError(f"p_max_kpa must be finite and > 0, got {self.p_max_kpa}")
        if not 0.0 < self.transition_width_mm < math.inf:
            raise ConfigError(
                "transition_width_mm must be finite and > 0, "
                f"got {self.transition_width_mm}"
            )
        if self.response not in ("affine", "sigmoid"):
            raise ConfigError(f"unknown response {self.response!r}")
        if not 0.0 <= self.noise_sigma_kpa < math.inf:
            raise ConfigError(
                f"noise_sigma_kpa must be finite and >= 0, got {self.noise_sigma_kpa}"
            )
        if not 0.0 <= self.p_atm_kpa < math.inf:
            raise ConfigError(f"p_atm_kpa must be finite and >= 0, got {self.p_atm_kpa}")


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


def coverage_depth(geom: CupGeometry, delta: ArrayLike, phi_deg: ArrayLike) -> np.ndarray:
    """Signed depth (mm) of each chamber center inside the plate half-plane.

    d_i = r_chamber * cos(alpha_i - phi) - delta + r_cup. ``delta`` and
    ``phi_deg`` broadcast to some shape (...); the result is (..., 4), one
    column per chamber. Positive means the chamber center is over the plate.
    """
    reach = geom.r_cup_mm - np.asarray(delta, dtype=np.float64)
    phi = np.radians(phi_deg)
    return geom.r_chamber_mm * np.cos(_CHAMBER_ANGLES_RAD - phi[..., None]) + reach[..., None]


def chamber_vacuum(
    params: PressureFieldParams, d: ArrayLike, rng: np.random.Generator | None = None
) -> np.ndarray:
    """Vacuum (kPa) held at each coverage depth in ``d``, plus Gaussian noise.

    Noiseless response: p_max * clamp01(0.5 + d/(2w)) for affine,
    p_max * logistic(d/w) = p_max/2 * (1 + tanh(d/2w)) for sigmoid, a form
    that cannot overflow. When noise_sigma_kpa > 0, ``rng`` gives one
    normal draw per element of ``d``, in C order.
    """
    d = np.asarray(d, dtype=np.float64)
    if not np.isfinite(d).all():
        raise InvalidInputError("coverage depth must be finite")
    half_t = d * (0.5 / params.transition_width_mm)
    if params.response == "affine":
        v = params.p_max_kpa * np.clip(0.5 + half_t, 0.0, 1.0)
    else:
        v = 0.5 * params.p_max_kpa * (1.0 + np.tanh(half_t))
    if params.noise_sigma_kpa > 0.0:
        if rng is None:
            raise InvalidInputError("noise_sigma_kpa > 0 requires an rng")
        v += rng.normal(0.0, params.noise_sigma_kpa, size=d.shape)
    return v


def _chamber_pressures(geom, params, delta, phi_deg, rng) -> np.ndarray:
    """p_ch = p_atm - vacuum, capped at p_atm + tolerance; shape (..., 4)."""
    vacuum = chamber_vacuum(params, coverage_depth(geom, delta, phi_deg), rng)
    return np.minimum(params.p_atm_kpa - vacuum, params.p_atm_kpa + PRESSURE_TOLERANCE_KPA)


def synth_frame(
    geom: CupGeometry,
    params: PressureFieldParams,
    pose: GroundTruthPose,
    rng: np.random.Generator | None = None,
) -> SensorFrame:
    """Sensor frame at one pose: the one-row case of ``generate_dataset``."""
    p_ch = _chamber_pressures(geom, params, pose.delta, pose.phi.degrees, rng)
    return SensorFrame(p_ch=tuple(p_ch.tolist()), p_atm=params.p_atm_kpa)


def generate_dataset(
    geom: CupGeometry, params: PressureFieldParams, config: GenerationConfig
) -> Samples:
    """Generate exactly n_samples labeled frames, fully determined by seed.

    A grid row i takes offset i // n_phi and yaw i % n_phi, n_phi = ceil(sqrt(n)).
    """
    d_lo, d_hi = config.delta_range_mm
    if d_hi > 2.0 * geom.r_cup_mm:
        raise ConfigError(
            f"delta_range_mm must stay within [0, {2.0 * geom.r_cup_mm}] "
            f"(cup diameter), got {config.delta_range_mm}"
        )
    p_lo, p_hi = config.phi_range_deg
    n, seed = config.n_samples, config.seed
    if config.sampling == "grid":
        n_phi = math.ceil(math.sqrt(n))
        row = np.arange(n)
        delta = np.linspace(d_lo, d_hi, math.ceil(n / n_phi))[row // n_phi]
        # phi endpoint excluded: the range wraps, so p_hi aliases p_lo.
        phi = (p_lo + np.arange(n_phi) * ((p_hi - p_lo) / n_phi))[row % n_phi]
    else:
        delta = substream(seed, DATASET_DELTA).uniform(d_lo, d_hi, size=n)
        phi = substream(seed, DATASET_PHI).uniform(p_lo, p_hi, size=n)
    phi[phi == 360.0] = 0.0  # as Angle wraps it; every phi is in [0, 360]
    p_ch = _chamber_pressures(geom, params, delta, phi, substream(seed, DATASET_NOISE))
    if not (p_ch >= 0.0).all():  # SensorFrame's rules: the cap holds the top
        i, j = np.argwhere(~(p_ch >= 0.0))[0]  # NaN is caught here too
        raise InvalidInputError(f"row {i}: p_ch{j + 1} = {p_ch[i, j]} kPa is below 0")
    return Samples(np.column_stack((p_ch, np.full(n, params.p_atm_kpa), delta, phi)))
