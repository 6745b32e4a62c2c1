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
(``coverage_depth``, then the vacuum response plus noise drawn ahead by
``sensor_noise``), and ``synth_frame`` is its one-row case; a lockstep
search runs it on the rows of its live rollouts. Each random column of a
dataset has its own keyed stream (see ``rng``):
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
from .dataset import Samples
from .errors import ConfigError, InvalidInputError, _hold, as_reals, require_count, require_real
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
        r_cup = require_real("r_cup_mm", self.r_cup_mm)
        r_chamber = require_real("r_chamber_mm", self.r_chamber_mm, high=r_cup)
        _hold(self, r_cup_mm=r_cup, r_chamber_mm=r_chamber)


@dataclass(frozen=True)
class PressureFieldParams:
    """How coverage depth maps to chamber vacuum, and the noise level."""

    p_max_kpa: float = 10.0
    transition_width_mm: float = 4.0
    response: Literal["affine", "sigmoid"] = "sigmoid"
    noise_sigma_kpa: float = 0.3
    p_atm_kpa: float = 101.325

    def __post_init__(self) -> None:
        p_max = require_real("p_max_kpa", self.p_max_kpa)
        width = require_real("transition_width_mm", self.transition_width_mm)
        if self.response not in ("affine", "sigmoid"):
            raise ConfigError(f"unknown response {self.response!r}")
        _hold(
            self,
            p_max_kpa=p_max,
            transition_width_mm=width,
            noise_sigma_kpa=require_real("noise_sigma_kpa", self.noise_sigma_kpa, open_low=False),
            p_atm_kpa=require_real("p_atm_kpa", self.p_atm_kpa, open_low=False),
        )


@dataclass(frozen=True)
class GenerationConfig:
    """Pose sampling plan for a dataset."""

    n_samples: int = 25_273
    delta_range_mm: tuple[float, float] = (7.0, 14.0)
    sampling: Literal["uniform_random", "grid"] = "uniform_random"
    seed: int = 0

    def __post_init__(self) -> None:
        n_samples = require_count("n_samples", self.n_samples, 1)
        seed = require_count("seed", self.seed)
        name = "delta_range_mm"
        try:  # 0 <= d_lo <= d_hi < inf
            d_lo, d_hi = self.delta_range_mm
            d_lo = require_real(name, d_lo, open_low=False)
            d_hi = require_real(name, d_hi, d_lo, open_low=False)
        except (ConfigError, TypeError, ValueError):
            raise ConfigError(f"bad {name} {self.delta_range_mm}") from None
        if self.sampling not in ("uniform_random", "grid"):
            raise ConfigError(f"unknown sampling mode {self.sampling!r}")
        _hold(self, n_samples=n_samples, seed=seed, delta_range_mm=(d_lo, d_hi))


def coverage_depth(geom: CupGeometry, delta: ArrayLike, phi_deg: ArrayLike) -> np.ndarray:
    """Signed depth (mm) of each chamber center inside the plate half-plane.

    d_i = r_chamber * cos(alpha_i - phi) - delta + r_cup. ``delta`` and
    ``phi_deg`` broadcast to some shape (...); the result is (..., 4), one
    column per chamber. Positive means the chamber center is over the plate.
    """
    reach = geom.r_cup_mm - as_reals("delta", delta)
    phi = np.radians(as_reals("phi_deg", phi_deg))
    return geom.r_chamber_mm * np.cos(_CHAMBER_ANGLES_RAD - phi[..., None]) + reach[..., None]


def sensor_noise(
    sigma_kpa: float, rng: np.random.Generator | None, shape: tuple[int, ...]
) -> np.ndarray | None:
    """Gaussian sensor noise of std ``sigma_kpa`` (kPa) and ``shape`` from
    ``rng``, in C order; None when sigma_kpa is 0, which draws nothing."""
    if sigma_kpa == 0.0:
        return None
    if rng is None:
        raise InvalidInputError("noise_sigma_kpa > 0 requires an rng")
    return rng.normal(0.0, sigma_kpa, size=shape)


def chamber_vacuum(
    params: PressureFieldParams, d: ArrayLike, rng: np.random.Generator | None = None
) -> np.ndarray:
    """Vacuum (kPa) held at each coverage depth in ``d``, plus Gaussian noise.

    Noiseless response: p_max * clamp01(0.5 + d/(2w)) for affine,
    p_max * logistic(d/w) = p_max/2 * (1 + tanh(d/2w)) for sigmoid, a form
    that cannot overflow. When noise_sigma_kpa > 0, ``rng`` gives one
    normal draw per element of ``d``, in C order.
    """
    d = as_reals("d", d)
    return _vacuum(params, d, sensor_noise(params.noise_sigma_kpa, rng, d.shape))


def _vacuum(params: PressureFieldParams, d: np.ndarray, noise: np.ndarray | None) -> np.ndarray:
    if not np.isfinite(d).all():
        raise InvalidInputError("coverage depth must be finite")
    half_t = d * (0.5 / params.transition_width_mm)
    if params.response == "affine":
        v = params.p_max_kpa * np.clip(0.5 + half_t, 0.0, 1.0)
    else:
        v = 0.5 * params.p_max_kpa * (1.0 + np.tanh(half_t))
    if noise is not None:
        v += noise
    return v


def _chamber_pressures(geom, params, delta, phi_deg, noise) -> np.ndarray:
    """p_ch = p_atm - (vacuum + noise), capped at p_atm + tolerance; shape (..., 4).

    ``noise`` is ``sensor_noise`` of the result's shape, or None."""
    vacuum = _vacuum(params, coverage_depth(geom, delta, phi_deg), noise)
    return np.minimum(params.p_atm_kpa - vacuum, params.p_atm_kpa + PRESSURE_TOLERANCE_KPA)


def synth_frame(
    geom: CupGeometry,
    params: PressureFieldParams,
    pose: GroundTruthPose,
    rng: np.random.Generator | None = None,
) -> SensorFrame:
    """Sensor frame at one pose: the one-row case of ``generate_dataset``."""
    noise = sensor_noise(params.noise_sigma_kpa, rng, (4,))
    p_ch = _chamber_pressures(geom, params, pose.delta, pose.phi.degrees, noise)
    return SensorFrame(p_ch=tuple(p_ch.tolist()), p_atm=params.p_atm_kpa)


def generate_dataset(
    geom: CupGeometry, params: PressureFieldParams, config: GenerationConfig
) -> Samples:
    """Generate exactly n_samples labeled frames, fully determined by seed.

    Yaws lie in [0, 360). A grid row i takes offset i // n_phi and yaw
    i % n_phi, n_phi = ceil(sqrt(n)).
    """
    d_lo, d_hi = config.delta_range_mm
    if d_hi > 2.0 * geom.r_cup_mm:
        raise ConfigError(
            f"delta_range_mm must stay within [0, {2.0 * geom.r_cup_mm}] "
            f"(cup diameter), got {config.delta_range_mm}"
        )
    n, seed = config.n_samples, config.seed
    if config.sampling == "grid":
        n_phi = math.ceil(math.sqrt(n))
        row = np.arange(n)
        delta = np.linspace(d_lo, d_hi, math.ceil(n / n_phi))[row // n_phi]
        # 360 excluded: it aliases 0.
        phi = (np.arange(n_phi) * (360.0 / n_phi))[row % n_phi]
    else:
        delta = substream(seed, DATASET_DELTA).uniform(d_lo, d_hi, size=n)
        phi = substream(seed, DATASET_PHI).uniform(0.0, 360.0, size=n)  # below 360
    noise = sensor_noise(params.noise_sigma_kpa, substream(seed, DATASET_NOISE), (n, 4))
    p_ch = _chamber_pressures(geom, params, delta, phi, noise)
    return Samples._adopt(np.column_stack((p_ch, np.full(n, params.p_atm_kpa), delta, phi)))
