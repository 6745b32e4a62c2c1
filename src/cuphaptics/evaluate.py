"""Estimator evaluation: angular RMSE/MAE, multi-seed comparison, scatter export.

Both estimators are scored on the same validation fold per seed. A
prediction can be absent (the pressure-difference vector was ~zero);
absent predictions are excluded from the error metrics and reported as a
separate count rather than being scored at some arbitrary penalty angle.
Across-seed spread is the population (divide-by-n) standard deviation.
Each evaluator scores a table through its estimator's ``estimate_batch``
(see ``search``), so its answers carry the single-frame answers' bits,
and a row the single-frame path rejects raises that row's error.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .core import Angle, angular_errors
from .dataset import Samples, SplitSpec, split, write_table
from .errors import ConfigError, InvalidInputError
from .mlp import MlpModel, TrainConfig, train_many
from .search import Estimator, MlpEstimator, ModelBasedEstimator

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


def _pairs(estimator: Estimator, samples: Samples) -> list[PredictionPair]:
    """Each row's true yaw and the estimator's answer, from one
    ``estimate_batch`` call; a row the single-frame path rejects raises."""
    phi = samples.phi_deg
    yaws = estimator.estimate_batch(samples.p_ch, samples.table[:, 4:5], phi)
    return [
        PredictionPair(phi_true=Angle(t), phi_pred=None if math.isnan(p) else Angle(p))
        for t, p in zip(phi.tolist(), yaws.tolist())
    ]


def evaluate_model_based(samples: Samples) -> list[PredictionPair]:
    """Pressure-difference estimate per sample, a column at a time; each
    answer equals ``estimate_direction`` on that row bit for bit."""
    return _pairs(ModelBasedEstimator(), samples)


def evaluate_mlp(model: MlpModel, samples: Samples) -> list[PredictionPair]:
    """Network estimate per sample, in one pass; each answer equals
    ``predict_angle`` on that row bit for bit."""
    return _pairs(MlpEstimator(model), samples)


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
