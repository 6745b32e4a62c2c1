"""Estimator evaluation: angular RMSE/MAE, multi-seed comparison, scatter export.

Both estimators are scored on the same validation fold per seed. A
prediction can be absent (the pressure-difference vector was ~zero);
absent predictions are excluded from the error metrics and reported as a
separate count rather than being scored at some arbitrary penalty angle.
Across-seed spread is the population (divide-by-n) standard deviation.
Each evaluator hands its ``Samples`` to its estimator's ``estimate_batch``
(``core.ModelBasedEstimator``, ``mlp.MlpEstimator``), so its answers carry
the single-frame answers' bits, and a row the estimator rejects raises its
single-frame error; ``Samples`` has refused every other bad row.
"""

from __future__ import annotations

import gc
import json
import math
from collections import deque
from dataclasses import asdict, dataclass, replace
from itertools import repeat
from pathlib import Path
from typing import Iterator, Mapping, Sequence

import numpy as np

from .core import Angle, ModelBasedEstimator, _rmse, angular_errors
from .dataset import Samples, SplitSpec, split, write_table
from .errors import ConfigError, InvalidInputError, as_reals, require_count
from .mlp import MlpEstimator, MlpModel, TrainConfig, train_many

MLP_METHOD = "mlp"
MODEL_BASED_METHOD = "model_based"


@dataclass(frozen=True, slots=True)
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

    def to_json(self) -> str:
        # Field order fixed by the dataclass definitions -> stable output.
        return json.dumps(asdict(self), indent=2, sort_keys=False)


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
    return _rmse(_errors(pairs, "rmse_deg"))


def mae_deg(pairs: Sequence[PredictionPair]) -> float:
    """Mean absolute wrap-aware angular error."""
    return float(np.mean(_errors(pairs, "mae_deg")))


def _defined_errors(phi_true: np.ndarray, phi_pred: np.ndarray) -> np.ndarray:
    return angular_errors(phi_pred, phi_true)[~np.isnan(phi_pred)]


def _fill(cls: type, name: str, objects: list, values: list) -> None:
    """Set field ``name`` of each object to its value through ``cls``'s slot
    descriptor: the write ``object.__setattr__`` makes in a frozen ``__init__``."""
    deque(map(cls.__dict__[name].__set__, objects, values), maxlen=0)


def _build(cls: type, n: int, **columns: list) -> list:
    """``n`` blank ``cls``s from ``object.__new__``, filled a field at a time."""
    objects = list(map(object.__new__, repeat(cls, n)))
    for name, values in columns.items():
        _fill(cls, name, objects, values)
    return objects


def _pairs(phi_true: np.ndarray, phi_pred: np.ndarray) -> list[PredictionPair]:
    """A pair per row of true yaws (``Samples.phi_deg``, held as ``Angle``
    stores them) and ``estimate_batch``'s yaws (NaN where none), each float kept.

    Each pass of ``_build`` is a ``map`` with no Python frame per object, and
    the objects equal, hash and pickle as constructed ones do. A NaN
    prediction's ``Angle`` is then swapped for ``None``. The collector pauses
    while they are built, which delays its young-generation pass rather than
    saving it: the caller's next allocation scans every new object (about
    10 ms on 50,000 rows)."""
    n, collecting = len(phi_true), gc.isenabled()
    gc.disable()
    try:
        preds = _build(Angle, n, degrees=phi_pred.tolist())
        for row in np.flatnonzero(np.isnan(phi_pred)).tolist():
            preds[row] = None
        true = _build(Angle, n, degrees=phi_true.tolist())
        return _build(PredictionPair, n, phi_true=true, phi_pred=preds)
    finally:
        if collecting:
            gc.enable()


def evaluate_model_based(samples: Samples) -> list[PredictionPair]:
    """Pressure-difference estimate per sample, a column at a time; each
    answer equals ``estimate_direction`` on that row bit for bit."""
    return _pairs(samples.phi_deg, ModelBasedEstimator().estimate_batch(samples))


def evaluate_mlp(model: MlpModel, samples: Samples) -> list[PredictionPair]:
    """Network estimate per sample, in one pass; each answer equals
    ``predict_angle`` on that row bit for bit."""
    return _pairs(samples.phi_deg, MlpEstimator(model).estimate_batch(samples))


def _seed_metrics(method: str, seed: int, true: np.ndarray, pred: np.ndarray) -> SeedMetrics:
    errors = _defined_errors(true, pred)
    n_undefined = len(pred) - len(errors)
    if not len(errors):
        raise ConfigError(
            f"{method} gives no direction on any of the {n_undefined} "
            f"validation rows under seed {seed}; its error is undefined"
        )
    return SeedMetrics(
        seed=seed,
        rmse_deg=_rmse(errors),
        mae_deg=float(np.mean(errors)),
        n_scored=len(errors),
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


def _check_seeds(seeds: Sequence[int]) -> tuple[int, ...]:
    """``seeds`` as ints; ConfigError unless they name one or more distinct
    runs: integers that differ mod 2**64, which keys their streams."""
    if len(seeds) == 0:
        raise ConfigError("need at least one seed")
    ints = tuple(require_count("seed", seed) for seed in seeds)
    keys = [seed % 2**64 for seed in ints]
    for i, key in enumerate(keys):
        if (j := keys.index(key)) < i:
            alias = "" if ints[j] == ints[i] else f" ({ints[j]} mod 2**64)"
            raise ConfigError(f"seed {ints[i]} is repeated{alias}; each seed is one run")
    return ints


def _splits(
    samples: Samples, split_spec: SplitSpec, seeds: Sequence[int], val_sets: list[Samples]
) -> Iterator[tuple[Samples, Samples]]:
    """Each seed's (train, validation) split, made when it is read; each
    validation set is appended to ``val_sets``. The table goes after its last
    split, and each fold once the reader asks for the next."""
    for i, seed in enumerate(seeds):
        fold = split(samples, replace(split_spec, seed=seed))
        if i == len(seeds) - 1:  # nothing reads the table after its last split
            del samples
        val_sets.append(fold[1])
        yield fold
        del fold  # this seed's training rows, before the next split


def run_comparison(
    samples: Samples,
    split_spec: SplitSpec,
    train_config: TrainConfig,
    seeds: Sequence[int],
) -> tuple[EvalReport, dict[str, tuple[np.ndarray, np.ndarray]]]:
    """Split, train, and score both methods once per seed; aggregate.

    Also returns the first seed's (true, predicted) yaw columns for scatter export.
    Each seed drives both the fold shuffle and the training run, so one
    integer fully reproduces a pipeline repetition. The seeds' networks
    train together in lockstep, each as ``train`` would train it alone:
    ``train_many`` is handed a generator of the splits, which it reads one
    fold at a time, so a seed's training rows go before the next split.
    The generator holds the only reference to ``samples`` here, which it
    drops after the last split, before training; ``train_many``'s stacks go
    before scoring. A seed that repeats another (mod 2**64, which keys its
    streams) would count one run twice, so it is a ConfigError.
    """
    seeds = _check_seeds(seeds)
    n_samples, val_sets = len(samples), []
    folds = _splits(samples, split_spec, seeds, val_sets)
    del samples  # the generator's is the last reference
    trained = train_many(folds, train_config, seeds)
    metrics, first = [], None  # each seed's metrics per method; the first seed's columns
    for seed, (model, _), val_set in zip(seeds, trained, val_sets):
        estimators = {MLP_METHOD: MlpEstimator(model), MODEL_BASED_METHOD: ModelBasedEstimator()}
        columns = {m: (val_set.phi_deg, e.estimate_batch(val_set)) for m, e in estimators.items()}
        metrics.append({m: _seed_metrics(m, seed, *c) for m, c in columns.items()})
        first = first or columns
    report = EvalReport(
        seeds=seeds,
        n_samples=n_samples,
        n_validation=len(val_sets[0]),
        single_run=len(seeds) == 1,
        mlp=_summarize(MLP_METHOD, [row[MLP_METHOD] for row in metrics]),
        model_based=_summarize(MODEL_BASED_METHOD, [row[MODEL_BASED_METHOD] for row in metrics]),
    )
    return report, first


def export_scatter(
    results: Mapping[str, tuple[np.ndarray, np.ndarray]], path: str | Path
) -> None:
    """Write the defined (non-NaN) predictions as `phi_true_deg,phi_pred_deg,method` rows.
    A column ``as_reals`` refuses, or a method's two of unequal length, raises before writing."""
    columns = {}
    for method, (phi_true, phi_pred) in results.items():
        phi_true = as_reals(f"{method} phi_true_deg", phi_true, (None,))
        phi_pred = as_reals(f"{method} phi_pred_deg", phi_pred, (None,))
        if len(phi_true) != len(phi_pred):
            raise InvalidInputError(
                f"{method}: {len(phi_true)} true yaws but {len(phi_pred)} predictions"
            )
        columns[method] = phi_true, phi_pred
    write_table(
        path,
        ("phi_true_deg", "phi_pred_deg", "method"),
        (
            (t, p, method)
            for method, (phi_true, phi_pred) in columns.items()
            for t, p in zip(phi_true.tolist(), phi_pred.tolist())
            if not math.isnan(p)
        ),
    )
