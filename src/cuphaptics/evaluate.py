"""Estimator evaluation: angular RMSE/MAE, multi-seed comparison, scatter export.

Both estimators are scored on the same validation fold per seed. A
prediction can be absent (the pressure-difference vector was ~zero);
absent predictions are excluded from the error metrics and reported as a
separate count rather than being scored at some arbitrary penalty angle.
Across-seed spread is the population (divide-by-n) standard deviation.
Each evaluator scores a table in one pass with the single-frame answers'
bits; a row the single-frame path rejects raises that row's error.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .core import PRESSURE_TOLERANCE_KPA, Angle, SensorFrame, angular_errors
from .core import direction_angle, estimate_direction
from .dataset import Samples, SplitSpec, frames_valid, split, write_table
from .errors import ConfigError, InvalidInputError
from .mlp import MlpModel, TrainConfig, _outputs_by_row, predict_angle, train_many

MLP_METHOD = "mlp"
MODEL_BASED_METHOD = "model_based"


@dataclass(frozen=True)
class PredictionPair:
    """One scored sample: the true yaw and the (possibly absent) prediction."""

    phi_true: Angle
    phi_pred: Angle | None


@dataclass(frozen=True)
class SeedMetrics:
    """Validation-fold metrics for one method under one seed."""

    seed: int
    rmse_deg: float
    mae_deg: float
    n_scored: int
    n_undefined: int


@dataclass(frozen=True)
class MethodSummary:
    """Per-seed rows plus mean/std aggregates for one method."""

    method: str
    per_seed: tuple[SeedMetrics, ...]
    rmse_mean_deg: float
    rmse_std_deg: float
    mae_mean_deg: float
    mae_std_deg: float
    n_undefined_total: int


@dataclass(frozen=True)
class EvalReport:
    """The two-method comparison over a common seed list."""

    seeds: tuple[int, ...]
    n_samples: int
    n_validation: int
    single_run: bool
    mlp: MethodSummary
    model_based: MethodSummary

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        # Field order fixed by the dataclass definitions -> stable output.
        return json.dumps(self.to_dict(), indent=2, sort_keys=False)


def _errors(pairs: Sequence[PredictionPair], metric: str) -> np.ndarray:
    """Wrap-aware angular error per pair; every pair must carry a prediction."""
    if not pairs:
        raise InvalidInputError(f"{metric} requires at least one pair")
    if any(pair.phi_pred is None for pair in pairs):
        raise InvalidInputError(
            f"{metric} got an absent prediction; exclude those first"
        )
    return angular_errors(
        [pair.phi_pred.degrees for pair in pairs],
        [pair.phi_true.degrees for pair in pairs],
    )


def rmse_deg(pairs: Sequence[PredictionPair]) -> float:
    """sqrt(mean(angular_error^2)); every pair must carry a prediction."""
    return float(np.sqrt(np.mean(np.square(_errors(pairs, "rmse_deg")))))


def mae_deg(pairs: Sequence[PredictionPair]) -> float:
    """Mean absolute wrap-aware angular error."""
    return float(np.mean(_errors(pairs, "mae_deg")))


def _angles(p_ch, p_atm, x, y, ok, replay: Callable[[int], object]) -> list[Angle | None]:
    """The angle of each row's direction (x, y), None where it is ~zero.

    A row is rejected where ``ok`` is false, ``SensorFrame`` rejects its
    pressures or (x, y) is not finite; ``replay(i)`` runs the first such row
    through the single-frame path, which raises that row's error.
    """
    ok = ok & frames_valid(p_ch, p_atm) & np.isfinite(x) & np.isfinite(y)
    if not ok.all():
        i = int(ok.argmin())
        replay(i)
        raise AssertionError(f"row {i} is rejected here but not by the single-frame path")
    return [direction_angle(vx, vy) for vx, vy in zip(x.tolist(), y.tolist())]


def _closed_form_columns(p_ch: np.ndarray, p_atm) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Chamber-sum direction (x, y) per row, from ``model_direction``'s float
    operations in its order, and the rows whose gauge pressures it accepts."""
    with np.errstate(over="ignore", invalid="ignore"):  # such rows are rejected
        vacuum = p_atm - p_ch
        p1, p2, p3, p4 = vacuum.T
        x, y = (p1 + p4) - (p2 + p3), (p3 + p4) - (p1 + p2)
    return x, y, (vacuum >= -PRESSURE_TOLERANCE_KPA).all(axis=1)


def _mlp_columns(model: MlpModel, p_ch: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Network output (x, y) per row, each row run as the one-row product of
    ``network_output``, and the rows whose network inputs are finite."""
    with np.errstate(over="ignore", invalid="ignore"):  # such rows are rejected
        inputs, out = _outputs_by_row(model, p_ch)
    return out[:, 0], out[:, 1], np.isfinite(inputs).all(axis=1)


def _pairs(
    samples: Samples, x: np.ndarray, y: np.ndarray, ok: np.ndarray, estimate: Callable
) -> list[PredictionPair]:
    """Each row's yaw and the angle of (x, y); a rejected row replays ``estimate``."""

    def replay(i: int) -> None:
        *p_ch, p_atm, _, phi = samples.table[i].tolist()
        frame, _ = SensorFrame(p_ch=tuple(p_ch), p_atm=p_atm), Angle(phi)
        estimate(frame)

    phi = samples.phi_deg
    angles = _angles(samples.p_ch, samples.table[:, 4:5], x, y, ok & np.isfinite(phi), replay)
    return [PredictionPair(phi_true=Angle(t), phi_pred=a) for t, a in zip(phi.tolist(), angles)]


def evaluate_model_based(samples: Samples) -> list[PredictionPair]:
    """Pressure-difference estimate per sample, a column at a time.

    The vectors come from ``model_direction``'s float operations in its
    order and the angles from the same ``math`` calls, so each answer
    equals ``estimate_direction`` on that row bit for bit.
    """
    columns = _closed_form_columns(samples.p_ch, samples.table[:, 4:5])
    return _pairs(samples, *columns, estimate_direction)


def evaluate_mlp(model: MlpModel, samples: Samples) -> list[PredictionPair]:
    """Network estimate per sample: each row runs as the one-row product of
    ``predict_angle``, so each answer equals it on that row bit for bit."""
    columns = _mlp_columns(model, samples.p_ch)
    return _pairs(samples, *columns, lambda f: predict_angle(model, f))


def _seed_metrics(method: str, seed: int, pairs: Sequence[PredictionPair]) -> SeedMetrics:
    scored = [p for p in pairs if p.phi_pred is not None]
    n_undefined = len(pairs) - len(scored)
    if not scored:
        raise ConfigError(
            f"{method} gives no direction on any of the {n_undefined} "
            f"validation rows under seed {seed}; its error is undefined"
        )
    return SeedMetrics(
        seed=seed,
        rmse_deg=rmse_deg(scored),
        mae_deg=mae_deg(scored),
        n_scored=len(scored),
        n_undefined=n_undefined,
    )


def _summarize(method: str, rows: Sequence[SeedMetrics]) -> MethodSummary:
    rmse = np.array([r.rmse_deg for r in rows])
    mae = np.array([r.mae_deg for r in rows])
    return MethodSummary(
        method=method,
        per_seed=tuple(rows),
        rmse_mean_deg=float(rmse.mean()),
        rmse_std_deg=float(rmse.std()),  # population std; 0.0 for a single seed
        mae_mean_deg=float(mae.mean()),
        mae_std_deg=float(mae.std()),
        n_undefined_total=int(sum(r.n_undefined for r in rows)),
    )


def run_comparison(
    samples: Samples,
    split_spec: SplitSpec,
    train_config: TrainConfig,
    seeds: Sequence[int],
) -> tuple[EvalReport, dict[str, list[PredictionPair]]]:
    """Split, train, and score both methods once per seed; aggregate.

    Also returns the first seed's per-sample pairs for scatter export.
    Each seed drives both the fold shuffle and the training run, so one
    integer fully reproduces a pipeline repetition. The seeds' networks
    train together in lockstep, each as ``train`` would train it alone.
    """
    if not seeds:
        raise ConfigError("need at least one seed")
    folds = [split(samples, replace(split_spec, seed=seed)) for seed in seeds]
    trained = train_many(folds, train_config, seeds)
    mlp_rows, mb_rows = [], []
    first_pairs: dict[str, list[PredictionPair]] = {}
    n_validation = 0
    for i, (seed, (_, val_set), (model, _)) in enumerate(zip(seeds, folds, trained)):
        mlp_pairs = evaluate_mlp(model, val_set)
        mb_pairs = evaluate_model_based(val_set)
        mlp_rows.append(_seed_metrics(MLP_METHOD, seed, mlp_pairs))
        mb_rows.append(_seed_metrics(MODEL_BASED_METHOD, seed, mb_pairs))
        if i == 0:
            n_validation = len(val_set)
            first_pairs = {MLP_METHOD: mlp_pairs, MODEL_BASED_METHOD: mb_pairs}
    report = EvalReport(
        seeds=tuple(int(s) for s in seeds),
        n_samples=len(samples),
        n_validation=n_validation,
        single_run=len(seeds) == 1,
        mlp=_summarize(MLP_METHOD, mlp_rows),
        model_based=_summarize(MODEL_BASED_METHOD, mb_rows),
    )
    return report, first_pairs


def export_scatter(
    results: Mapping[str, Iterable[PredictionPair]], path: str | Path
) -> None:
    """Write defined predictions as `phi_true_deg,phi_pred_deg,method` rows."""
    write_table(
        path,
        ("phi_true_deg", "phi_pred_deg", "method"),
        (
            (pair.phi_true.degrees, pair.phi_pred.degrees, method)
            for method, pairs in results.items()
            for pair in pairs
            if pair.phi_pred is not None
        ),
    )
