"""Command-line pipeline: generate, train, compare, search, predict.

Exit codes are a stable contract for scripting: 0 on success, 1 on
runtime/I-O failures (unreadable data or model files), 2 on usage or
configuration errors (argparse itself exits 2 on bad flags). Every
subcommand is deterministic given --seed and its inputs; bulky results go
to files under --out-dir, while `predict` emits machine-readable JSON on
stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Sequence

from .core import SensorFrame, estimate_direction
from .dataset import SplitSpec, read_csv, split, write_csv
from .errors import (
    ConfigError,
    CsvParseError,
    CupHapticsError,
    InvalidInputError,
    ModelFormatError,
)
from .evaluate import (
    MLP_METHOD,
    MODEL_BASED_METHOD,
    evaluate_mlp,
    export_scatter,
    rmse_deg,
    run_comparison,
)
from .mlp import (
    TrainConfig,
    decode_estimate,
    load_model,
    network_output,
    save_model,
    train,
)
from .search import (
    BatchSpec,
    MlpEstimator,
    ModelBasedEstimator,
    OracleEstimator,
    SearchConfig,
    batch_search,
    write_batch_csv,
)
from .synth import CupGeometry, GenerationConfig, PressureFieldParams, generate_dataset

DATASET_FILENAME = "dataset.csv"
MODEL_FILENAME = "model.cupmlp"
HISTORY_FILENAME = "history.json"
REPORT_FILENAME = "report.json"
SCATTER_MLP_FILENAME = "scatter_mlp.csv"
SCATTER_MODEL_BASED_FILENAME = "scatter_model_based.csv"
SEARCH_FILENAME = "search.csv"


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _parse_seeds(raw: str) -> list[int]:
    try:
        seeds = [int(part) for part in raw.split(",") if part.strip() != ""]
    except ValueError:
        raise ConfigError(f"--seeds must be comma-separated integers, got {raw!r}") from None
    if not seeds:
        raise ConfigError("--seeds must name at least one seed")
    return seeds


def _parse_pressures(raw: str) -> tuple[float, float, float, float]:
    parts = raw.split(",")
    if len(parts) != 4:
        raise ConfigError(
            f"--p-ch needs exactly 4 comma-separated values, got {len(parts)}"
        )
    try:
        values = tuple(float(p) for p in parts)
    except ValueError:
        raise ConfigError(f"--p-ch values must be numbers, got {raw!r}") from None
    return values


def _train_config(args: argparse.Namespace) -> TrainConfig:
    return TrainConfig(
        batch_size=args.batch_size,
        max_epochs=args.epochs,
        patience=args.patience,
        seed=args.seed,
        lr=args.lr,
        standardize=not args.raw_inputs,
    )


def cmd_generate(args: argparse.Namespace) -> int:
    config = GenerationConfig(
        n_samples=args.n,
        delta_range_mm=(args.delta_min, args.delta_max),
        sampling="grid" if args.sampling == "grid" else "uniform_random",
        seed=args.seed,
    )
    params = PressureFieldParams(
        response=args.response, noise_sigma_kpa=args.noise_sigma
    )
    samples = generate_dataset(CupGeometry(), params, config)
    path = _out_dir(args) / DATASET_FILENAME
    write_csv(samples, path)
    print(f"wrote {path} ({len(samples)} rows)")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    samples = read_csv(args.data)
    train_set, val_set = split(
        samples, SplitSpec(train_fraction=args.train_fraction, seed=args.seed)
    )
    config = _train_config(args)
    model, history = train(train_set, val_set, config)

    scored = [p for p in evaluate_mlp(model, val_set) if p.phi_pred is not None]
    val_rmse = rmse_deg(scored) if scored else None
    out = _out_dir(args)
    model_path = out / MODEL_FILENAME
    metadata = {
        "train_config": asdict(config),
        "train_fraction": args.train_fraction,
        "n_train": len(train_set),
        "n_validation": len(val_set),
        "metrics": {
            "best_epoch": history.best_epoch,
            "epochs_run": len(history.val_loss),
            "initial_val_loss": history.initial_val_loss,
            "best_val_loss": (
                history.val_loss[history.best_epoch - 1]
                if history.best_epoch >= 1
                else history.initial_val_loss
            ),
            "val_rmse_deg": val_rmse,
        },
    }
    save_model(model, model_path, metadata=metadata)
    history_path = out / HISTORY_FILENAME
    history_path.write_text(
        json.dumps(
            {
                "train_loss": list(history.train_loss),
                "val_loss": list(history.val_loss),
                "val_rmse_deg": list(history.val_rmse_deg),
                "best_epoch": history.best_epoch,
                "initial_val_loss": history.initial_val_loss,
            },
            indent=2,
        )
        + "\n",
        encoding="utf-8",
    )
    rmse_text = f"{val_rmse:.3f} deg" if val_rmse is not None else "n/a"
    print(
        f"wrote {model_path} and {history_path} "
        f"(best epoch {history.best_epoch}, validation RMSE {rmse_text})"
    )
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    samples = read_csv(args.data)
    seeds = _parse_seeds(args.seeds)
    report, first_pairs = run_comparison(
        samples,
        SplitSpec(train_fraction=args.train_fraction, seed=seeds[0]),
        _train_config(args),
        seeds,
    )
    out = _out_dir(args)
    report_path = out / REPORT_FILENAME
    report_path.write_text(report.to_json() + "\n", encoding="utf-8")
    export_scatter(
        {MLP_METHOD: first_pairs[MLP_METHOD]}, out / SCATTER_MLP_FILENAME
    )
    export_scatter(
        {MODEL_BASED_METHOD: first_pairs[MODEL_BASED_METHOD]},
        out / SCATTER_MODEL_BASED_FILENAME,
    )
    print(f"wrote {report_path} and scatter CSVs for {len(seeds)} seed(s)")
    for summary in (report.mlp, report.model_based):
        print(
            f"  {summary.method}: RMSE {summary.rmse_mean_deg:.3f} "
            f"+/- {summary.rmse_std_deg:.3f} deg, "
            f"MAE {summary.mae_mean_deg:.3f} +/- {summary.mae_std_deg:.3f} deg"
        )
    return 0


def cmd_search(args: argparse.Namespace) -> int:
    if args.estimator == "model_based":
        estimator = ModelBasedEstimator()
    elif args.estimator == "oracle":
        estimator = OracleEstimator()
    else:
        if args.model is None:
            raise ConfigError("--model is required when --estimator mlp")
        estimator = MlpEstimator(model=load_model(args.model))
    config = SearchConfig(
        estimator=estimator,
        step_size_mm=args.step,
        max_steps=args.max_steps,
        success_delta_mm=args.success_delta,
        seed=args.seed,
    )
    if args.phi_points < 1:
        raise ConfigError(f"--phi-points must be >= 1, got {args.phi_points}")
    spec = BatchSpec(
        delta0_values_mm=(args.delta0,),
        phi0_values_deg=tuple(
            k * 360.0 / args.phi_points for k in range(args.phi_points)
        ),
        noise_values_kpa=(args.noise_sigma,),
        estimators=(estimator,),
        reps=args.reps,
        seed=args.seed,
    )
    rows = batch_search(
        spec,
        config,
        CupGeometry(),
        PressureFieldParams(noise_sigma_kpa=args.noise_sigma),
    )
    path = _out_dir(args) / SEARCH_FILENAME
    write_batch_csv(rows, path)
    overall = sum(r.success_rate for r in rows) / len(rows)
    print(f"wrote {path} ({len(rows)} cells, overall success rate {overall:.3f})")
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    frame = SensorFrame(p_ch=_parse_pressures(args.p_ch), p_atm=args.p_atm)
    if args.method == "model":
        estimate = estimate_direction(frame)
    else:
        if args.model is None:
            raise ConfigError("--model is required when --method mlp")
        estimate = decode_estimate(network_output(load_model(args.model), frame))
    v, phi = estimate.v_pred, estimate.phi_pred
    if args.format == "json":
        payload = {
            "method": args.method,
            "v_pred": [v.x, v.y],
            "phi_pred_deg": None if phi is None else phi.degrees,
        }
        print(json.dumps(payload))
    else:
        phi_text = "" if phi is None else format(phi.degrees, ".9g")
        print("v_x,v_y,phi_pred_deg,method")
        print(f"{format(v.x, '.9g')},{format(v.y, '.9g')},{phi_text},{args.method}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cuphaptics",
        description=(
            "Suction-cup yaw estimation pipeline: synthetic data generation, "
            "network training, estimator comparison, and haptic-search simulation."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    common.add_argument(
        "--out-dir", default=".", help="directory for output files (default .)"
    )

    p_gen = sub.add_parser(
        "generate", parents=[common], help="write a synthetic dataset CSV"
    )
    p_gen.add_argument("--n", type=int, default=25_273, help="sample count")
    p_gen.add_argument("--delta-min", type=float, default=7.0, help="min offset, mm")
    p_gen.add_argument("--delta-max", type=float, default=14.0, help="max offset, mm")
    p_gen.add_argument(
        "--noise-sigma", type=float, default=0.3, help="sensor noise std, kPa"
    )
    p_gen.add_argument(
        "--response",
        choices=("affine", "sigmoid"),
        default="sigmoid",
        help="coverage-to-vacuum response curve",
    )
    p_gen.add_argument(
        "--sampling",
        choices=("grid", "random"),
        default="random",
        help="pose sampling plan",
    )
    p_gen.set_defaults(handler=cmd_generate)

    train_common = argparse.ArgumentParser(add_help=False)
    train_common.add_argument(
        "--train-fraction", type=float, default=0.8, help="train share of the split"
    )
    train_common.add_argument("--epochs", type=int, default=200, help="max epochs")
    train_common.add_argument("--batch-size", type=int, default=64)
    train_common.add_argument("--lr", type=float, default=1e-3, help="learning rate")
    train_common.add_argument(
        "--patience", type=int, default=20, help="early-stop patience, epochs"
    )
    train_common.add_argument(
        "--raw-inputs",
        action="store_true",
        help="feed raw kPa inputs instead of standardized ones",
    )

    p_train = sub.add_parser(
        "train",
        parents=[common, train_common],
        help="train the network on a dataset CSV",
    )
    p_train.add_argument("--data", required=True, help="dataset CSV path")
    p_train.set_defaults(handler=cmd_train)

    p_cmp = sub.add_parser(
        "compare",
        parents=[common, train_common],
        help="multi-seed comparison of both estimators",
    )
    p_cmp.add_argument("--data", required=True, help="dataset CSV path")
    p_cmp.add_argument(
        "--seeds", default="1,2,3,4,5", help="comma-separated seed list"
    )
    p_cmp.set_defaults(handler=cmd_compare)

    p_search = sub.add_parser(
        "search", parents=[common], help="closed-loop search success-rate table"
    )
    p_search.add_argument(
        "--estimator",
        choices=("model_based", "mlp", "oracle"),
        default="model_based",
    )
    p_search.add_argument("--model", help="model file (required for mlp)")
    p_search.add_argument("--delta0", type=float, default=14.0, help="start offset, mm")
    p_search.add_argument("--step", type=float, default=2.0, help="step size, mm")
    p_search.add_argument("--max-steps", type=int, default=25)
    p_search.add_argument(
        "--success-delta", type=float, default=7.0, help="success threshold, mm"
    )
    p_search.add_argument(
        "--phi-points", type=int, default=36, help="evenly spaced start yaws"
    )
    p_search.add_argument(
        "--noise-sigma", type=float, default=0.3, help="sensor noise std, kPa"
    )
    p_search.add_argument("--reps", type=int, default=5, help="repetitions per cell")
    p_search.set_defaults(handler=cmd_search)

    p_pred = sub.add_parser(
        "predict", help="one-shot direction estimate printed to stdout"
    )
    p_pred.add_argument(
        "--p-ch", required=True, help="four chamber pressures, kPa, comma-separated"
    )
    p_pred.add_argument("--p-atm", type=float, default=101.325, help="ambient, kPa")
    p_pred.add_argument("--method", choices=("model", "mlp"), default="model")
    p_pred.add_argument("--model", help="model file (required for mlp)")
    p_pred.add_argument("--format", choices=("json", "csv"), default="json")
    p_pred.set_defaults(handler=cmd_predict)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ConfigError, InvalidInputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CsvParseError, ModelFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CupHapticsError as exc:  # any remaining package error is runtime
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
