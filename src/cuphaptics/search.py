"""Closed-loop haptic search over the synthetic edge field.

Each iteration senses a frame at the current pose, asks an estimator for
a motion direction, and translates the cup one step along it. Pure
translation: the true yaw never changes, only the lateral offset does.
Moving a step along unit direction m when the true inward normal is n
changes the offset by -step * (m . n), so a perfect estimate closes the
gap by exactly one step.

Sensing noise is fresh per step: a rollout draws four normals per step
from its stream keyed (seed, SEARCH_STEP), so step k's noise depends only
on the seed and k, whichever estimator runs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import astuple, dataclass, fields, replace
from pathlib import Path
from typing import Protocol, Sequence

import numpy as np

from .core import (
    Angle,
    DirectionEstimate,
    GroundTruthPose,
    SensorFrame,
    Vector2,
    estimate_direction,
)
from .dataset import write_table
from .errors import ConfigError, InvalidInputError
from .mlp import MlpModel, decode_estimate, network_output
from .rng import SEARCH_STEP, derive_seed, substream
from .synth import CupGeometry, PressureFieldParams, synth_frame

FAILURE_NO_GRADIENT = "no-gradient"
FAILURE_BUDGET_EXHAUSTED = "budget-exhausted"


class Estimator(Protocol):
    """Direction source queried once per search step."""

    name: str

    def estimate(
        self, frame: SensorFrame, pose: GroundTruthPose
    ) -> DirectionEstimate: ...


@dataclass(frozen=True)
class ModelBasedEstimator:
    """Pairwise chamber-sum direction from the frame alone."""

    name: str = "model_based"

    def estimate(
        self, frame: SensorFrame, pose: GroundTruthPose
    ) -> DirectionEstimate:
        return estimate_direction(frame)


@dataclass(frozen=True)
class MlpEstimator:
    """Learned direction from a trained network."""

    model: MlpModel
    name: str = "mlp"

    def estimate(
        self, frame: SensorFrame, pose: GroundTruthPose
    ) -> DirectionEstimate:
        return decode_estimate(network_output(self.model, frame))


@dataclass(frozen=True)
class OracleEstimator:
    """Ground-truth direction; the upper bound every estimator chases."""

    name: str = "oracle"

    def estimate(
        self, frame: SensorFrame, pose: GroundTruthPose
    ) -> DirectionEstimate:
        phi = pose.phi
        return DirectionEstimate(
            v_pred=Vector2(math.cos(phi.radians), math.sin(phi.radians)),
            phi_pred=phi,
        )


@dataclass(frozen=True)
class SearchConfig:
    """Step policy, budget, success threshold, estimator, and noise seed."""

    estimator: Estimator
    step_size_mm: float = 2.0
    max_steps: int = 25
    success_delta_mm: float = 7.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.step_size_mm < math.inf:
            raise ConfigError(f"step_size_mm must be finite and > 0, got {self.step_size_mm}")
        if self.max_steps < 1:
            raise ConfigError(f"max_steps must be >= 1, got {self.max_steps}")
        if not 0.0 <= self.success_delta_mm < math.inf:
            raise ConfigError(
                f"success_delta_mm must be finite and >= 0, got {self.success_delta_mm}"
            )


@dataclass(frozen=True)
class SearchResult:
    """Outcome of one search: poses visited and the estimates that drove them."""

    success: bool
    steps: int
    trajectory: tuple[GroundTruthPose, ...]
    estimates: tuple[DirectionEstimate, ...]
    failure_reason: str | None = None


def search_step(
    pose: GroundTruthPose, estimate: DirectionEstimate, step_size: float
) -> GroundTruthPose:
    """Translate one step along the estimated direction.

    delta' = delta - step * cos(phi_pred - phi_true), floored at 0 (the
    cup cannot overshoot past the fully-sealed position along the
    normal); phi is unchanged.
    """
    if estimate.phi_pred is None:
        raise InvalidInputError("search_step requires a defined direction estimate")
    gap = math.radians(estimate.phi_pred.degrees - pose.phi.degrees)
    new_delta = max(pose.delta - step_size * math.cos(gap), 0.0)
    return GroundTruthPose(delta=new_delta, phi=pose.phi)


def run_search(
    pose0: GroundTruthPose,
    config: SearchConfig,
    geom: CupGeometry,
    params: PressureFieldParams,
) -> SearchResult:
    """Sense-estimate-translate until success, no-gradient, or budget."""
    pose = pose0
    trajectory = [pose]
    estimates: list[DirectionEstimate] = []
    reason = None
    rng = substream(config.seed, SEARCH_STEP)
    while pose.delta > config.success_delta_mm:
        if len(estimates) >= config.max_steps:
            reason = FAILURE_BUDGET_EXHAUSTED
            break
        frame = synth_frame(geom, params, pose, rng)
        estimate = config.estimator.estimate(frame, pose)
        if estimate.phi_pred is None:
            reason = FAILURE_NO_GRADIENT
            break
        pose = search_step(pose, estimate, config.step_size_mm)
        trajectory.append(pose)
        estimates.append(estimate)
    return SearchResult(
        success=reason is None,
        steps=len(estimates),
        trajectory=tuple(trajectory),
        estimates=tuple(estimates),
        failure_reason=reason,
    )


@dataclass(frozen=True)
class BatchSpec:
    """Grid of start conditions, each repeated ``reps`` times."""

    delta0_values_mm: tuple[float, ...]
    phi0_values_deg: tuple[float, ...]
    noise_values_kpa: tuple[float, ...]
    estimators: tuple[Estimator, ...]
    reps: int = 5
    seed: int = 0

    def __post_init__(self) -> None:
        if not (
            self.delta0_values_mm
            and self.phi0_values_deg
            and self.noise_values_kpa
            and self.estimators
        ):
            raise ConfigError("batch grid must be non-empty on every axis")
        if self.reps < 1:
            raise ConfigError(f"reps must be >= 1, got {self.reps}")


@dataclass(frozen=True)
class BatchRow:
    """Aggregated outcome of one grid cell; the fields are the CSV columns."""

    delta0_mm: float
    phi0_deg: float
    noise_sigma_kpa: float
    estimator: str
    success_rate: float
    mean_steps: float


BATCH_CSV_COLUMNS = tuple(f.name for f in fields(BatchRow))


def batch_search(
    spec: BatchSpec,
    config: SearchConfig,
    geom: CupGeometry,
    params: PressureFieldParams,
) -> list[BatchRow]:
    """Success rate and mean steps per grid cell.

    Cell order: delta0 (outer), then phi0, then noise, then estimator.
    Each repetition runs under seed = derive_seed(spec.seed, SEARCH_STEP,
    cell, rep), so the table is reproducible.
    ``mean_steps`` averages over all repetitions, successful or not.
    """
    cells = itertools.product(
        spec.delta0_values_mm,
        spec.phi0_values_deg,
        spec.noise_values_kpa,
        spec.estimators,
    )
    rows = []
    for cell_idx, (d0, phi0, noise, est) in enumerate(cells):
        pose0 = GroundTruthPose(delta=d0, phi=Angle(phi0))
        cell_params = replace(params, noise_sigma_kpa=noise)
        outcomes = []
        for rep in range(spec.reps):
            run_config = replace(
                config, estimator=est, seed=derive_seed(spec.seed, SEARCH_STEP, cell_idx, rep)
            )
            outcomes.append(run_search(pose0, run_config, geom, cell_params))
        rows.append(
            BatchRow(
                delta0_mm=d0,
                phi0_deg=phi0,
                noise_sigma_kpa=noise,
                estimator=est.name,
                success_rate=float(np.mean([r.success for r in outcomes])),
                mean_steps=float(np.mean([r.steps for r in outcomes])),
            )
        )
    return rows


def write_batch_csv(rows: Sequence[BatchRow], path: str | Path) -> None:
    """Write batch results in the fixed six-column schema."""
    write_table(path, BATCH_CSV_COLUMNS, (astuple(r) for r in rows))
