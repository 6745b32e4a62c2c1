"""Suction-cup haptic yaw estimation.

A four-chamber suction cup overhanging an edge holds more vacuum on the
covered side. This package turns those four pressures into a direction
estimate two ways — a closed-form pressure-difference model and a small
learned network — and provides the synthetic data, training, evaluation,
and closed-loop search machinery to compare them.
"""


def _load_numpy() -> None:
    """Import numpy with its OpenBLAS on the calling thread alone.

    OpenBLAS starts a busy-waiting worker per core as it loads (about 60 ms
    of start-up on 2 vCPUs), yet no product here is wide enough for it to
    split (see ``mlp.CHUNK_ROWS``). It reads the variable only then, so the
    environment is restored at once. A thread count the environment sets is
    kept, and a numpy already loaded leaves the environment unwritten.
    """
    import os
    import sys

    chosen = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
    if "numpy" in sys.modules or any(name in os.environ for name in chosen):
        return
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]


_load_numpy()
del _load_numpy

from types import ModuleType as _ModuleType

from .core import (
    EPS_ZERO,
    PRESSURE_TOLERANCE_KPA,
    Angle,
    DirectionEstimate,
    GroundTruthPose,
    ModelBasedEstimator,
    OracleEstimator,
    SensorFrame,
    angular_error,
    angular_errors,
    estimate_direction,
)
from .dataset import (
    LabeledSample,
    Samples,
    SplitSpec,
    read_csv,
    split,
    write_csv,
)
from .errors import (
    ConfigError,
    CsvParseError,
    CupHapticsError,
    DegenerateChannelError,
    InvalidInputError,
    ModelFormatError,
)
from .evaluate import (
    EvalReport,
    MethodSummary,
    PredictionPair,
    SeedMetrics,
    evaluate_mlp,
    evaluate_model_based,
    export_scatter,
    mae_deg,
    rmse_deg,
    run_comparison,
)
from .mlp import (
    DEFAULT_LAYER_SIZES,
    FeatureStats,
    MlpEstimator,
    MlpModel,
    TrainConfig,
    TrainHistory,
    backward,
    decode_estimate,
    feature_stats,
    forward,
    init_model,
    load_model,
    loss,
    network_output,
    predict_angle,
    rmsprop_step,
    save_model,
    target_encoding,
    train,
    train_many,
)
from .search import (
    BatchRow,
    BatchSpec,
    SearchConfig,
    SearchResult,
    batch_search,
    run_search,
    search_step,
    write_batch_csv,
)
from .synth import (
    CupGeometry,
    GenerationConfig,
    PressureFieldParams,
    chamber_vacuum,
    coverage_depth,
    generate_dataset,
    synth_frame,
)

__version__ = "0.1.0"

# Every public name imported above, the submodules aside, and the version.
__all__ = [
    name
    for name, value in [*globals().items()]
    if not (name.startswith("_") or isinstance(value, _ModuleType))
]
__all__.append("__version__")
del _ModuleType
