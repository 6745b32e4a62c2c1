"""The names ``from cuphaptics import *`` gives: ``__all__`` is built from the
package's import lists, and this pins the set it builds."""

import cuphaptics

EXPORTS = {
    # core
    "EPS_ZERO", "PRESSURE_TOLERANCE_KPA", "Angle", "DirectionEstimate", "GroundTruthPose",
    "ModelBasedEstimator", "OracleEstimator", "SensorFrame", "angular_error", "angular_errors",
    "estimate_direction",
    # dataset
    "LabeledSample", "Samples", "SplitSpec", "read_csv", "split", "write_csv",
    # errors
    "ConfigError", "CsvParseError", "CupHapticsError", "DegenerateChannelError",
    "InvalidInputError", "ModelFormatError",
    # evaluate
    "EvalReport", "MethodSummary", "PredictionPair", "SeedMetrics", "evaluate_mlp",
    "evaluate_model_based", "export_scatter", "mae_deg", "rmse_deg", "run_comparison",
    # mlp
    "DEFAULT_LAYER_SIZES", "FeatureStats", "MlpEstimator", "MlpModel", "TrainConfig",
    "TrainHistory", "backward", "decode_estimate", "feature_stats", "forward", "init_model",
    "load_model", "loss", "network_output", "predict_angle", "rmsprop_step", "save_model",
    "target_encoding", "train", "train_many",
    # search
    "BatchRow", "BatchSpec", "SearchConfig", "SearchResult", "batch_search", "run_search",
    "search_step", "write_batch_csv",
    # synth
    "CupGeometry", "GenerationConfig", "PressureFieldParams", "chamber_vacuum",
    "coverage_depth", "generate_dataset", "synth_frame",
    "__version__",
}


def test_exported_names_are_pinned():
    assert len(cuphaptics.__all__) == len(set(cuphaptics.__all__))
    assert set(cuphaptics.__all__) == EXPORTS


def test_star_import_gives_every_exported_name_and_no_module():
    namespace = {}
    exec("from cuphaptics import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == EXPORTS
    assert all(namespace[name] is getattr(cuphaptics, name) for name in EXPORTS)
