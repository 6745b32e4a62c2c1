"""Closed-loop haptic search over the synthetic edge field.

Each iteration senses a frame at the current pose, asks an estimator for
a motion direction, and translates the cup one step along it. Pure
translation: the true yaw never changes, only the lateral offset does.
Moving a step along unit direction m when the true inward normal is n
changes the offset by -step * (m . n), so a perfect estimate closes the
gap by exactly one step.

Sensing noise is fresh per step. A lockstep of m rollouts keys one stream,
``substream(seed, SEARCH_STEP)``, and while any rollout is live each step
draws a row of four normals for every rollout, live or not, at that
rollout's noise level: rollout i's noise at step k is row i of draw k. It
depends only on the seed, m and i, not on which rollouts are still live or
on the step budget, and memory holds one step's rows, not a rollout's
whole budget. A lockstep whose rollouts are all noiseless draws nothing.
Every estimator's lockstep keys the same stream, so the estimators of a
grid meet the same noise at the same (start, rep), and ``run_search``,
the one-rollout case, meets the noise of its seed whichever estimator
runs.

One kernel runs the rollouts that share an estimator in lockstep: one
array kernel call synthesizes the frames of every live rollout, one
``estimate_batch`` call (a ``core.Estimator``'s) estimates their ``Samples``
table, and the offsets step as a column. Each rollout ends, or raises, as a
loop of ``synth_frame`` on its noise rows, the single-frame estimate and
``search_step`` would: the table path only detects a rejection, and a step
it rejects reruns each row through the single-frame functions in the loop's
order, so a rejected rollout ends with the error its own row raises.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .core import Angle, DirectionEstimate, GroundTruthPose
from .dataset import Samples, _labeled, write_table
from .errors import ConfigError, InvalidInputError, require_count, require_real
from .rng import SEARCH_STEP, substream
from .synth import CupGeometry, PressureFieldParams, _chamber_pressures
from .synth import synth_frame  # noqa: F401  perfbench's tracer test reads it here

if TYPE_CHECKING:
    from .core import Estimator

FAILURE_NO_GRADIENT = "no-gradient"
FAILURE_BUDGET_EXHAUSTED = "budget-exhausted"


def _require_estimator(name: str, est: object) -> None:
    """ConfigError unless ``est`` has a str ``name`` and a callable
    ``estimate_batch``, as an ``Estimator`` does; its class is no estimator."""
    if isinstance(est, type) or not (
        isinstance(getattr(est, "name", None), str)
        and callable(getattr(est, "estimate_batch", None))
    ):
        raise ConfigError(
            f"{name} must have a str name and a callable estimate_batch, got {est!r}"
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
        _require_estimator("estimator", self.estimator)
        require_real("step_size_mm", self.step_size_mm)
        require_count("max_steps", self.max_steps, 1)
        require_count("seed", self.seed)
        require_real("success_delta_mm", self.success_delta_mm, open_low=False)


@dataclass(frozen=True)
class SearchResult:
    """Outcome of one search: whether it sealed, its step count, and why not."""

    success: bool
    steps: int
    failure_reason: str | None = None


def search_step(
    pose: GroundTruthPose, estimate: DirectionEstimate, step_size: float
) -> GroundTruthPose:
    """Translate one step along the estimated direction.

    delta' = delta - step * cos(phi_pred - phi_true), floored at 0 (the
    cup cannot overshoot past the fully-sealed position along the
    normal); phi is unchanged.
    """
    step = require_real("step_size", step_size)
    if estimate.phi_pred is None:
        raise InvalidInputError("search_step requires a defined direction estimate")
    new_delta = _next_delta(pose.delta, estimate.phi_pred.degrees, pose.phi.degrees, step)
    return GroundTruthPose(delta=new_delta, phi=pose.phi)


def _next_delta(delta: float, phi_pred_deg: float, phi_deg: float, step_size: float) -> float:
    """The offset after one step: max(delta - step * cos(phi_pred - phi), 0)."""
    return max(delta - step_size * math.cos(math.radians(phi_pred_deg - phi_deg)), 0.0)


def _next_deltas(
    delta: np.ndarray, phi_pred_deg: np.ndarray, phi_deg: np.ndarray, step_size: float
) -> np.ndarray:
    """``_next_delta`` of each row, bit for bit: ``math.cos`` maps over the
    angles, so libm gives the cosines on any host, not numpy's SIMD loop.
    NaN where the yaw is NaN; an offset past the float range is inf."""
    angles = np.radians(phi_pred_deg - phi_deg)
    cos = np.fromiter(map(math.cos, memoryview(angles)), float, count=len(angles))
    with np.errstate(over="ignore", invalid="ignore"):  # an infinite offset is rejected
        new = delta - step_size * cos
    new[new < 0.0] = 0.0  # Python's max(new, 0.0), which keeps -0.0 as np.maximum does not
    return new


def run_search(
    pose0: GroundTruthPose,
    config: SearchConfig,
    geom: CupGeometry,
    params: PressureFieldParams,
) -> SearchResult:
    """Sense-estimate-translate until success, no-gradient, or budget."""
    start = np.array([[pose0.delta, pose0.phi.degrees, params.noise_sigma_kpa]])
    (reason,), (steps,) = _lockstep(config.estimator, start, config.seed, config, geom, params)
    if isinstance(reason, InvalidInputError):
        raise reason
    return SearchResult(success=reason is None, steps=int(steps), failure_reason=reason)


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
        axes = self.delta0_values_mm, self.phi0_values_deg, self.noise_values_kpa, self.estimators
        if not all(axes):
            raise ConfigError("batch grid must be non-empty on every axis")
        for i, est in enumerate(self.estimators):
            _require_estimator(f"estimators[{i}]", est)
        require_count("reps", self.reps, 1)
        require_count("seed", self.seed)


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
    Each repetition is one rollout. The rollouts of one estimator, in cell
    order and then by rep, run in one lockstep whose noise stream is keyed
    (spec.seed, SEARCH_STEP): its i-th rollout takes row i of each step's
    draw, so the table is reproducible, and every estimator meets the same
    noise at the same (start, rep). A one-cell, one-rep grid is
    ``run_search`` under ``spec.seed``. ``mean_steps`` averages over all
    repetitions, successful or not. A rollout whose frame, estimate or
    offset the single-frame path rejects ends with that error, and the
    first such rollout in cell order raises it. Each noise level and each start pose is checked once,
    in cell order: the first pose, the noise levels, the other poses.

    Only ``step_size_mm``, ``max_steps`` and ``success_delta_mm`` are read
    from ``config``; the estimators and the seed come from ``spec``. The
    grid's noise axis replaces ``params.noise_sigma_kpa``.
    """
    axes = spec.delta0_values_mm, spec.phi0_values_deg, spec.noise_values_kpa, spec.estimators
    cells = list(itertools.product(*axes))
    reps, n = spec.reps, len(cells) * spec.reps
    # each start pose and noise level checked once, as a pose and params check
    # them, in the order the cells meet them: the first pose, the noise levels
    poses = itertools.product(spec.delta0_values_mm, spec.phi0_values_deg)
    poses = (GroundTruthPose(delta=d0, phi=Angle(phi0)) for d0, phi0 in poses)
    first = next(poses)
    sigmas = [replace(params, noise_sigma_kpa=v).noise_sigma_kpa for v in spec.noise_values_kpa]
    cell_starts = []  # start offset, yaw and noise level of each cell
    for pose in itertools.chain([first], poses):
        for sigma in sigmas:
            cell_starts += [(pose.delta, pose.phi.degrees, sigma)] * len(spec.estimators)
    starts = np.repeat(cell_starts, reps, axis=0)  # rollout j = c * reps + rep starts as cell c
    group_of = np.arange(n) // reps % len(spec.estimators)  # each rollout's estimator
    reasons, steps = np.empty(n, dtype=object), np.zeros(n, dtype=np.int64)
    for e, est in enumerate(spec.estimators):
        group = np.flatnonzero(group_of == e)
        reasons[group], steps[group] = _lockstep(est, starts[group], spec.seed, config, geom, params)
    for reason in reasons.tolist():
        if isinstance(reason, InvalidInputError):
            raise reason  # the first rollout in cell order that was rejected
    # exact means: sums of at most reps small integers, then one division
    success_rates = np.equal(reasons, None).reshape(-1, reps).mean(axis=1).tolist()
    mean_steps = steps.reshape(-1, reps).mean(axis=1).tolist()
    return [
        BatchRow(d0, phi0, noise, est.name, success_rate, mean)
        for (d0, phi0, noise, est), success_rate, mean in zip(cells, success_rates, mean_steps)
    ]


def _lockstep(
    est: Estimator,
    starts: np.ndarray,
    seed: int,
    config: SearchConfig,
    geom: CupGeometry,
    params: PressureFieldParams,
) -> tuple[np.ndarray, np.ndarray]:
    """Each rollout's failure reason (None where it sealed) and step count, as
    arrays, all run under ``est``. Rollout i starts from row i of ``starts``
    (offset mm, yaw in [0, 360) deg, noise level kPa; already checked), and
    its noise at step k is row i of the k-th draw from ``substream(seed,
    SEARCH_STEP)``. A rollout whose frame, estimate or offset the
    single-frame path rejects ends there, and its reason is that path's
    error; the step's other rollouts go on as if it were not there."""
    max_steps, seal_at, step = config.max_steps, config.success_delta_mm, config.step_size_mm
    delta, phi, sigma = starts[:, 0].copy(), starts[:, 1], starts[:, 2:]
    rng = substream(seed, SEARCH_STEP) if sigma.any() else None  # noiseless: no draws
    steps = np.zeros(len(starts), dtype=np.int64)
    sealed = delta <= seal_at
    reasons = np.where(sealed, None, FAILURE_BUDGET_EXHAUSTED)  # a rollout still live runs out
    live = np.flatnonzero(~sealed)
    for k in range(max_steps):
        if not live.size:
            break
        d, f = delta[live], phi[live]
        noise = rng.normal(0.0, sigma, (len(starts), 4))[live] if rng else None
        p_ch = _chamber_pressures(geom, params, d, f, noise)
        table = np.column_stack((p_ch, np.full(len(live), params.p_atm_kpa), d, f))
        try:  # the table path only detects a rejection
            yaw = est.estimate_batch(Samples._adopt(table))
            new = _next_deltas(d, yaw, f, step)
        except InvalidInputError:
            new = None
        rejected = {}
        if new is None or np.isinf(new).any():  # each row alone, as the single-frame loop runs it
            yaw, new = np.full(len(live), np.nan), d.copy()
            for i, row in enumerate(table.tolist()):
                try:
                    pose = _labeled(row).pose  # the frame's own error, unprefixed
                    (y,) = est.estimate_batch(Samples(table[i : i + 1])).tolist()
                    n = _next_delta(pose.delta, y, pose.phi.degrees, step)
                    if not math.isnan(y):  # with no gradient the loop stops before it steps
                        GroundTruthPose(delta=n, phi=pose.phi)
                    yaw[i], new[i] = y, n
                except InvalidInputError as error:
                    rejected[live[i]] = error
            if not rejected:
                raise AssertionError("a search step is rejected but none of its rows alone")
        moved = ~np.isnan(yaw)  # NaN: no gradient (or rejected), the rollout ends here
        delta[live] = new
        steps[live] = k + moved
        reasons[live[~moved]] = FAILURE_NO_GRADIENT
        reasons[live[moved & (new <= seal_at)]] = None
        live = live[moved & (new > seal_at)]
        for j, error in rejected.items():
            reasons[j] = error
    return reasons, steps


def write_batch_csv(rows: Sequence[BatchRow], path: str | Path) -> None:
    """Write batch results in the fixed six-column schema."""
    write_table(path, BATCH_CSV_COLUMNS, map(operator.attrgetter(*BATCH_CSV_COLUMNS), rows))
