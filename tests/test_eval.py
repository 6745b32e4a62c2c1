import contextlib
import copy
import gc
import math
import pickle
import re
import struct
import sys
import warnings
import weakref
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuphaptics import (
    EPS_ZERO,
    PRESSURE_TOLERANCE_KPA,
    Angle,
    BatchSpec,
    ConfigError,
    CupGeometry,
    DegenerateChannelError,
    FeatureStats,
    GenerationConfig,
    InvalidInputError,
    MlpEstimator,
    MlpModel,
    ModelBasedEstimator,
    PredictionPair,
    PressureFieldParams,
    Samples,
    SearchConfig,
    SensorFrame,
    SplitSpec,
    TrainConfig,
    batch_search,
    decode_estimate,
    estimate_direction,
    evaluate_mlp,
    evaluate_model_based,
    export_scatter,
    forward,
    generate_dataset,
    init_model,
    mae_deg,
    network_output,
    predict_angle,
    read_csv,
    rmse_deg,
    run_comparison,
    split,
    train,
    write_csv,
)
import cuphaptics
from cuphaptics import evaluate as evaluate_module
from cuphaptics.mlp import (
    CHUNK_ROWS,
    _forward,
    _layer_views,
    _model_inputs,
    _n_params,
    _outputs_by_row,
    _plan,
)
from helpers import equal_chamber_rows

GEOM = CupGeometry()


def pair(pred, true):
    return PredictionPair(
        phi_true=Angle(true), phi_pred=None if pred is None else Angle(pred)
    )


def columns_of(pairs):
    """The ``(phi_true_deg, phi_pred_deg)`` columns of these pairs, NaN for None."""
    true = np.array([p.phi_true.degrees for p in pairs])
    pred = np.array([math.nan if p.phi_pred is None else p.phi_pred.degrees for p in pairs])
    return true, pred


class TestRmse:
    def test_zero_when_all_equal(self):
        pairs = [pair(10.0, 10.0), pair(200.0, 200.0)]
        assert rmse_deg(pairs) == 0.0

    def test_equal_errors_hand_value(self):
        pairs = [pair(30.0, 10.0), pair(50.0, 70.0)]
        assert rmse_deg(pairs) == pytest.approx(20.0)

    def test_wrap_contributes_short_way(self):
        assert rmse_deg([pair(350.0, 10.0)]) == pytest.approx(20.0)

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            rmse_deg([])

    def test_absent_prediction_rejected(self):
        with pytest.raises(InvalidInputError):
            rmse_deg([pair(None, 10.0)])

    def test_rmse_at_least_mae_and_bounded(self):
        pairs = [pair(p, t) for p, t in [(5, 40), (300, 320), (10, 350), (90, 91)]]
        rmse = rmse_deg(pairs)
        mae = mae_deg(pairs)
        assert mae <= rmse <= 180.0
        assert 0.0 <= mae


class TestEvaluators:
    def test_model_based_exact_on_unclamped_affine(self):
        params = PressureFieldParams(
            response="affine", transition_width_mm=20.0, noise_sigma_kpa=0.0
        )
        samples = generate_dataset(
            GEOM, params, GenerationConfig(n_samples=200, sampling="grid", seed=0)
        )
        pairs = evaluate_model_based(samples)
        assert all(p.phi_pred is not None for p in pairs)
        assert rmse_deg(pairs) < 1e-6

    def test_model_based_noisy_is_finite_and_positive(self):
        samples = generate_dataset(
            GEOM, PressureFieldParams(), GenerationConfig(n_samples=300, seed=2)
        )
        pairs = evaluate_model_based(samples)
        scored = [p for p in pairs if p.phi_pred is not None]
        value = rmse_deg(scored)
        assert 0.0 < value < 45.0

    def test_mlp_memorizes_toy_set(self):
        params = PressureFieldParams(noise_sigma_kpa=0.0)
        samples = generate_dataset(
            GEOM, params, GenerationConfig(n_samples=16, sampling="grid", seed=3)
        )
        model, _ = train(
            samples, samples, TrainConfig(max_epochs=300, patience=300, seed=0)
        )
        pairs = evaluate_mlp(model, samples)
        assert rmse_deg(pairs) < 5.0

    def test_answers_equal_single_frame_calls(self):
        generated = generate_dataset(
            GEOM, PressureFieldParams(), GenerationConfig(n_samples=300, seed=6)
        )
        # A symmetric frame, where the closed form has no angle to give.
        symmetric = [96.0, 96.0, 96.0, 96.0, 101.325, 9.0, 45.0]
        samples = Samples(np.vstack([generated.table, symmetric]))
        model, _ = train(
            samples[:240], samples[240:], TrainConfig(max_epochs=3, patience=3, seed=0)
        )
        rows = [samples[i] for i in range(len(samples))]
        model_based = evaluate_model_based(samples)
        mlp = evaluate_mlp(model, samples)
        assert [p.phi_true for p in model_based] == [s.pose.phi for s in rows]
        assert [p.phi_true for p in mlp] == [s.pose.phi for s in rows]
        assert [p.phi_pred for p in model_based] == [
            estimate_direction(s.frame).phi_pred for s in rows
        ]
        assert model_based[-1].phi_pred is None
        assert [p.phi_pred for p in mlp] == [predict_angle(model, s.frame) for s in rows]

    def test_exclusion_accounting(self):
        samples = generate_dataset(
            GEOM, PressureFieldParams(), GenerationConfig(n_samples=50, seed=1)
        )
        model = init_model(0)  # untrained but non-degenerate
        pairs = evaluate_mlp(model, samples)
        scored = [p for p in pairs if p.phi_pred is not None]
        undefined = [p for p in pairs if p.phi_pred is None]
        assert len(scored) + len(undefined) == len(samples)


def quick_config():
    return TrainConfig(max_epochs=3, patience=3, seed=0)


@pytest.fixture(scope="module")
def samples():
    return generate_dataset(
        GEOM, PressureFieldParams(), GenerationConfig(n_samples=400, seed=6)
    )


class TestCompare:
    def test_single_seed_flagged_with_zero_std(self, samples):
        report, _ = run_comparison(samples, SplitSpec(), quick_config(), seeds=[3])
        assert report.single_run is True
        assert report.mlp.rmse_std_deg == 0.0
        assert report.model_based.rmse_std_deg == 0.0
        assert len(report.mlp.per_seed) == 1

    def test_row_structure_and_fold_accounting(self, samples):
        report, _ = run_comparison(samples, SplitSpec(), quick_config(), seeds=[1, 2])
        assert report.seeds == (1, 2)
        assert len(report.mlp.per_seed) == 2
        assert len(report.model_based.per_seed) == 2
        assert report.n_samples == 400
        assert report.n_validation == 400 - round(400 * 0.8)
        for row in report.mlp.per_seed + report.model_based.per_seed:
            assert row.n_scored + row.n_undefined == report.n_validation

    def test_deterministic_report(self, samples):
        a, _ = run_comparison(samples, SplitSpec(), quick_config(), seeds=[1, 2])
        b, _ = run_comparison(samples, SplitSpec(), quick_config(), seeds=[1, 2])
        assert a.to_json() == b.to_json()

    def test_json_stable_field_order(self, samples):
        report, _ = run_comparison(samples, SplitSpec(), quick_config(), seeds=[1])
        text = report.to_json()
        assert text.index('"seeds"') < text.index('"mlp"') < text.index('"model_based"')

    def test_needs_a_seed(self, samples):
        with pytest.raises(ConfigError):
            run_comparison(samples, SplitSpec(), quick_config(), seeds=[])

    @pytest.mark.parametrize("seeds", [np.array([0]), np.array([1, 2])], ids=["one", "two"])
    def test_an_array_of_seeds_is_counted_by_its_length(self, samples, seeds):
        report, _ = run_comparison(samples, SplitSpec(), quick_config(), seeds)
        listed, _ = run_comparison(samples, SplitSpec(), quick_config(), seeds.tolist())
        assert report.to_json() == listed.to_json()

    @pytest.mark.parametrize(
        "seeds, message",
        [
            ([1, 1], "seed 1 is repeated; each seed is one run"),
            ([2, 3, 2], "seed 2 is repeated; each seed is one run"),
            ([-1, 2**64 - 1], f"seed {2**64 - 1} is repeated (-1 mod 2**64)"),
        ],
        ids=["twice", "apart", "same-mod-2**64"],
    )
    def test_repeated_seed_is_rejected_before_training(self, samples, monkeypatch, seeds, message):
        def no_training(*args):
            raise AssertionError("trained despite a repeated seed")

        monkeypatch.setattr(evaluate_module, "train_many", no_training)
        with pytest.raises(ConfigError, match=re.escape(message)):
            run_comparison(samples, SplitSpec(), quick_config(), seeds=seeds)

    def test_estimator_without_any_direction_on_a_fold(self):
        # Four equal chambers on every row: the closed form has no direction.
        samples = Samples(equal_chamber_rows(40))
        message = (
            "model_based gives no direction on any of the 8 validation rows "
            "under seed 3; its error is undefined"
        )
        with pytest.raises(ConfigError, match=re.escape(message)):
            run_comparison(samples, SplitSpec(), quick_config(), seeds=[3])

    @pytest.mark.parametrize("seeds", [(1, 2), (1, 2, 3)], ids=["2-seeds", "3-seeds"])
    def test_training_rows_are_freed_before_training(self, samples, monkeypatch, seeds):
        # Each seed's run holds its own arrays, so no training Samples that
        # split made may still be alive when the first RMSprop step runs.
        training, checked = [], []

        def recorded(*args):
            train_set, val_set = split(*args)
            training.append(weakref.ref(train_set))
            return train_set, val_set

        def checked_step(*args):
            if not checked:
                checked.append(True)
                assert len(training) == len(seeds)
                assert all(ref() is None for ref in training)
            return rmsprop_step(*args)

        rmsprop_step = cuphaptics.mlp.rmsprop_step
        monkeypatch.setattr(evaluate_module, "split", recorded)
        monkeypatch.setattr(cuphaptics.mlp, "rmsprop_step", checked_step)
        report, _ = run_comparison(samples, SplitSpec(), quick_config(), seeds)
        assert checked and report.seeds == seeds

    @pytest.mark.skipif(
        sys.version_info < (3, 11),
        reason="before CPython 3.11 the caller's frame holds a call's arguments until it "
        "returns, so run_comparison cannot free a table passed straight in",
    )
    @pytest.mark.parametrize("seeds", [(1,), (1, 2)], ids=["1-seed", "2-seeds"])
    def test_table_is_freed_before_training(self, monkeypatch, seeds):
        # compare passes read_csv's table straight in; nothing reads it after
        # the last split, so it must be dead when the first RMSprop step runs.
        tables, checked = [], []

        def recorded(table, spec):
            tables.append(weakref.ref(table))
            return split(table, spec)

        def checked_step(*args):
            if not checked:
                checked.append(True)
                assert len(tables) == len(seeds)
                assert all(ref() is None for ref in tables)
            return rmsprop_step(*args)

        rmsprop_step = cuphaptics.mlp.rmsprop_step
        monkeypatch.setattr(evaluate_module, "split", recorded)
        monkeypatch.setattr(cuphaptics.mlp, "rmsprop_step", checked_step)
        config = GenerationConfig(n_samples=100, seed=6)
        report, _ = run_comparison(
            generate_dataset(GEOM, PressureFieldParams(), config), SplitSpec(), quick_config(), seeds
        )
        assert checked and report.seeds == seeds and report.n_samples == 100

    @pytest.mark.skipif(
        sys.version_info < (3, 11),
        reason="before CPython 3.11 the caller's frame holds a call's arguments until it "
        "returns, so run_comparison cannot free a table passed straight in",
    )
    def test_one_training_fold_is_alive_and_the_table_goes_after_its_last_split(
        self, monkeypatch
    ):
        # Each split is made once the last training fold is unreachable, and
        # the last seed's run is built once the table is.
        tables, training, at_split, at_run = [], [], [], []

        def recorded(table, spec):
            at_split.append(any(ref() is not None for ref in training))
            tables.append(weakref.ref(table))
            train_set, val_set = split(table, spec)
            training.append(weakref.ref(train_set))
            return train_set, val_set

        def checked_stats(train_set):
            at_run.append(tables[-1]() is not None)
            return feature_stats(train_set)

        feature_stats = cuphaptics.mlp.feature_stats
        monkeypatch.setattr(evaluate_module, "split", recorded)
        monkeypatch.setattr(cuphaptics.mlp, "feature_stats", checked_stats)
        config, seeds = GenerationConfig(n_samples=100, seed=6), (1, 2, 3)
        run_comparison(
            generate_dataset(GEOM, PressureFieldParams(), config), SplitSpec(), quick_config(), seeds
        )
        assert at_split == [False, False, False] and at_run == [True, True, False]

    @pytest.mark.parametrize("fraction", [0.99, 0.01], ids=["no-validation", "no-training"])
    def test_empty_fold_is_refused_before_any_run(self, samples, fraction):
        # 20 rows cut at 0.99 leave no validation row; at 0.01, no training row.
        spec = SplitSpec(train_fraction=fraction)
        with pytest.raises(ConfigError, match="^train and validation sets must both be non-empty$"):
            run_comparison(samples[:20], spec, quick_config(), [1, 2])

    def test_fold_with_a_constant_channel_is_refused(self, samples):
        table = samples[:20].table.copy()
        table[:, 0] = table[0, 0]
        with pytest.raises(DegenerateChannelError, match="^channel 1 is constant"):
            run_comparison(Samples(table), SplitSpec(), quick_config(), [1, 2])

    def test_early_stopping_folds_equal_solo_runs(self):
        # patience 1 stops the three seeds at different epochs, so the stack
        # sheds folds while the others keep training.
        samples = generate_dataset(
            GEOM, PressureFieldParams(), GenerationConfig(n_samples=300, seed=5)
        )
        config, seeds = TrainConfig(batch_size=16, max_epochs=25, patience=1), (3, 4, 5)
        report, first = run_comparison(samples, SplitSpec(), config, seeds)
        epochs = []
        for i, seed in enumerate(seeds):
            train_set, val_set = split(samples, SplitSpec(seed=seed))
            model, history = train(train_set, val_set, replace(config, seed=seed))
            epochs.append(len(history.val_loss))
            public = {
                "mlp": evaluate_mlp(model, val_set),
                "model_based": evaluate_model_based(val_set),
            }
            for method, pairs in public.items():
                if i == 0:  # the returned columns, bit for bit
                    true, pred = columns_of(pairs)
                    assert first[method][0].tobytes() == true.tobytes()
                    assert first[method][1].tobytes() == pred.tobytes()
                scored = [p for p in pairs if p.phi_pred is not None]
                row = getattr(report, method).per_seed[i]
                assert row.seed == seed
                assert (row.rmse_deg, row.mae_deg) == (rmse_deg(scored), mae_deg(scored))
                assert (row.n_scored, row.n_undefined) == (len(scored), len(pairs) - len(scored))
        assert len(set(epochs)) == 3 and max(epochs) < config.max_epochs


class TestExportScatter:
    def test_header_only_for_empty(self, tmp_path):
        path = tmp_path / "s.csv"
        export_scatter({"mlp": (np.array([]), np.array([]))}, path)
        assert path.read_text() == "phi_true_deg,phi_pred_deg,method\n"

    def test_row_count_is_defined_predictions(self, tmp_path):
        columns = (np.array([12.0, 50.0, 199.0]), np.array([10.0, math.nan, 200.0]))
        path = tmp_path / "s.csv"
        export_scatter({"model_based": columns}, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 3  # header + 2 defined
        assert lines[1].endswith(",model_based")

    @pytest.mark.parametrize("true_n, pred_n", [(2, 1), (1, 2)])
    def test_columns_of_unequal_length_raise_and_write_nothing(self, tmp_path, true_n, pred_n):
        path = tmp_path / "s.csv"
        columns = {
            "mlp": (np.array([1.0]), np.array([1.0])),
            "x": (np.arange(1.0, true_n + 1), np.arange(1.0, pred_n + 1)),
        }
        message = f"x: {true_n} true yaws but {pred_n} predictions"
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            export_scatter(columns, path)
        assert not path.exists()

    def test_round_trip_parse(self, tmp_path):
        samples = generate_dataset(
            GEOM, PressureFieldParams(), GenerationConfig(n_samples=60, seed=4)
        )
        pairs = evaluate_model_based(samples)
        path = tmp_path / "s.csv"
        export_scatter({"model_based": columns_of(pairs)}, path)
        lines = path.read_text().splitlines()[1:]
        for line, p in zip(lines, [q for q in pairs if q.phi_pred is not None]):
            true_s, pred_s, method = line.split(",")
            assert method == "model_based"
            assert float(true_s) == pytest.approx(p.phi_true.degrees, rel=1e-8, abs=1e-7)
            assert float(pred_s) == pytest.approx(p.phi_pred.degrees, rel=1e-8, abs=1e-7)


def bits(angle):
    """An angle's exact bits (signed zero included), or None."""
    return None if angle is None else angle.degrees.hex()


@st.composite
def frame_rows(draw):
    """A table row the frame types accept: any chambers within the bounds,
    four equal chambers (a zero vector), or one chamber off by a hair, so
    that the vector norm falls on either side of EPS_ZERO."""
    p_atm = draw(st.floats(0.0, 200.0))
    kind = draw(st.sampled_from(["any", "equal", "hair"]))
    if kind == "any":
        bound = p_atm + PRESSURE_TOLERANCE_KPA
        p_ch = [draw(st.floats(0.0, bound)) for _ in range(4)]
    elif kind == "equal":
        p_ch = [draw(st.floats(0.0, p_atm))] * 4
    else:
        p, hair = draw(st.floats(0.0, p_atm)), draw(st.floats(1e-10, 1e-8))
        p_ch = [p, p + hair, p, p]
    return [*p_ch, p_atm, draw(st.floats(0.0, 30.0)), draw(st.floats(0.0, 360.0))]


class TestClosedFormColumns:
    """``evaluate_model_based`` answers as ``estimate_direction`` does, row by row."""

    @settings(max_examples=200)
    @given(rows=st.lists(frame_rows(), min_size=1, max_size=12))
    def test_equals_single_frame_bit_for_bit(self, rows):
        samples = Samples(np.array(rows))
        want = [estimate_direction(s.frame).phi_pred for s in samples]
        pairs = evaluate_model_based(samples)
        assert [bits(p.phi_pred) for p in pairs] == [bits(a) for a in want]
        assert [bits(p.phi_true) for p in pairs] == [bits(Angle(r[6])) for r in rows]

    def test_norms_either_side_of_eps_zero(self):
        p_atm, p_ch = 101.325, 96.0
        rows = [
            [p_ch, p_ch + hair, p_ch, p_ch, p_atm, 1.0, 10.0] for hair in (0.0, 5e-10, 2e-9)
        ]
        pairs = evaluate_model_based(Samples(np.array(rows)))
        frames = [SensorFrame(tuple(r[:4]), p_atm) for r in rows]
        norms = [math.hypot(*estimate_direction(f).v_pred) for f in frames]
        assert norms[0] == 0.0 and 0.0 < norms[1] <= EPS_ZERO < norms[2]
        assert [p.phi_pred for p in pairs[:2]] == [None, None]
        assert bits(pairs[2].phi_pred) == bits(estimate_direction(frames[2]).phi_pred)

    @pytest.mark.parametrize(
        "row, refusal, message",
        [
            (
                [150.0, 96.0, 96.0, 96.0, 101.325, 1.0, 10.0],
                "row 1: p_ch1 = 150.0 kPa exceeds",
                "p_ch1 = 150.0 kPa exceeds",
            ),
            (
                [96.0, 96.0, 96.0, 96.0, 101.325, 1.0, np.nan],
                "row 1: phi_deg must be in [0, 360], got nan",
                "angle must be finite",
            ),
            (
                [96.0, -1.0, 96.0, 96.0, 101.325, 1.0, 10.0],
                "row 1: p_ch2 must be >= 0",
                "p_ch2 must be >= 0",
            ),
            (
                [np.inf, 96.0, 96.0, 96.0, np.inf, 1.0, 10.0],
                "row 1: p_atm must be finite",
                "p_atm must be finite",
            ),
            ([1.7e308, 0.0, 1.7e308, 0.0, 1.79e308, 1.0, 10.0], None, "vector x must be finite"),
        ],
        ids=[
            "above-ambient",
            "nan-yaw",
            "negative-chamber",
            "infinite-ambient",
            "vector-overflows",
        ],
    )
    def test_rejected_row_raises_the_single_frame_error(self, row, refusal, message):
        # Samples refuses a row the frame rule refuses (``refusal``), so no
        # estimator meets it. A row it holds that the estimator rejects raises
        # the single-frame error, through the estimator and the evaluator.
        table = np.array([[96.0, 96.0, 96.0, 96.0, 101.325, 1.0, 10.0], row])
        if refusal is not None:
            with pytest.raises(InvalidInputError, match="^" + re.escape(refusal)):
                Samples(table)
            return
        with pytest.raises(InvalidInputError, match="^" + re.escape(message)):
            ModelBasedEstimator().estimate_batch(Samples(table))
        with pytest.raises(InvalidInputError, match="^" + re.escape(message)):
            evaluate_model_based(Samples(table))

    @pytest.mark.parametrize(
        "row",
        [
            # Ambient plus the tolerance rounds up, so the gauge pressure of a
            # chamber at that bound falls just below -0.5 kPa.
            [1.3008000000000001] + [0.8008000000000001] * 3 + [0.8008000000000001, 1.0, 10.0],
            # At 2**53 - 1 the bound rounds up by half a unit, to 2**53.
            [2.0**53] * 4 + [2.0**53 - 1, 1.0, 10.0],
        ],
        ids=["gauge-below-tolerance", "gauge-one-kpa-below-zero"],
    )
    def test_gauge_below_zero_is_answered(self, row):
        # SensorFrame accepts a chamber up to ambient plus the tolerance as
        # the floats round, and the closed form answers every such frame.
        samples = Samples(np.array([[96.0, 96.0, 96.0, 96.0, 101.325, 1.0, 10.0], row]))
        want = [estimate_direction(s.frame).phi_pred for s in samples]
        assert [bits(p.phi_pred) for p in evaluate_model_based(samples)] == [bits(a) for a in want]

    def test_rows_outside_the_dataset_ranges_are_refused(self):
        # A negative offset or a yaw outside [0, 360] is refused, so no
        # evaluation scores 400 deg as 40 deg.
        rows = np.array([[96.0, 97.0, 96.0, 95.0, 101.325, 9.5, 400.0],
                         [96.0, 97.0, 96.0, 95.0, 101.325, -3.0, 10.0],
                         [96.0, 97.0, 96.0, 95.0, 101.325, 1.0, -30.0]])
        for i, message in enumerate(
            ["phi_deg must be in [0, 360], got 400.0", "delta must be >= 0 mm, got -3.0",
             "phi_deg must be in [0, 360], got -30.0"]
        ):
            with pytest.raises(InvalidInputError, match=re.escape(f"row 0: {message}") + "$"):
                Samples(rows[i:])


# Ambients just below a power of two where p_atm + 0.5 rounds up, so a
# chamber synth caps at that bound reads below -0.5 kPa gauge.
ROUNDING_AMBIENTS = [63.9, 127.55, 255.6, 511.7, 1023.65]


@pytest.mark.parametrize("p_atm", ROUNDING_AMBIENTS)
def test_the_closed_form_scores_what_synth_makes_at_any_ambient(p_atm):
    assert (p_atm + PRESSURE_TOLERANCE_KPA) - p_atm > PRESSURE_TOLERANCE_KPA
    params = PressureFieldParams(p_atm_kpa=p_atm, noise_sigma_kpa=1.5)
    config = GenerationConfig(n_samples=300, delta_range_mm=(20.0, 28.0), seed=1)
    samples = generate_dataset(GEOM, params, config)
    assert (samples.p_ch == p_atm + PRESSURE_TOLERANCE_KPA).any(axis=1).sum() > 100
    want = [estimate_direction(s.frame).phi_pred for s in samples]
    assert [bits(p.phi_pred) for p in evaluate_model_based(samples)] == [bits(a) for a in want]
    est = ModelBasedEstimator()
    spec = BatchSpec((28.0,), (0.0, 90.0, 200.0), (1.5,), (est,), reps=3, seed=1)
    rows = batch_search(spec, SearchConfig(estimator=est), GEOM, params)
    assert [(r.delta0_mm, r.phi0_deg) for r in rows] == [(28.0, 0.0), (28.0, 90.0), (28.0, 200.0)]


RAW_MODEL = init_model(4)
STD_MODEL = init_model(
    5, stats=FeatureStats(mean=(90.0, 92.0, 94.0, 96.0), std=(3.0, 4.0, 5.0, 6.0))
)
MODELS = {"raw": RAW_MODEL, "std": STD_MODEL}
# A row every model scores: zero inputs give finite (zero) outputs.
BASE_ROW = [0.0, 0.0, 0.0, 0.0, 101.325, 1.0, 10.0]


class TestMlpColumns:
    """``evaluate_mlp`` answers as ``predict_angle`` does, row by row."""

    @settings(max_examples=200)
    @given(rows=st.lists(frame_rows(), min_size=1, max_size=12))
    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_equals_single_frame_bit_for_bit(self, name, rows):
        model, samples = MODELS[name], Samples(np.array(rows))
        pairs = evaluate_mlp(model, samples)
        want = [predict_angle(model, s.frame) for s in samples]
        assert [bits(p.phi_pred) for p in pairs] == [bits(a) for a in want]
        assert [bits(p.phi_true) for p in pairs] == [bits(Angle(r[6])) for r in rows]

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_outputs_do_not_depend_on_the_chunk_size(self, name):
        model = MODELS[name]
        samples = generate_dataset(
            GEOM, PressureFieldParams(), GenerationConfig(n_samples=300, seed=7)
        )
        _, whole = _outputs_by_row(model, samples.p_ch)
        single = np.array([network_output(model, s.frame) for s in samples])
        assert whole.tobytes() == single.tobytes()
        for size in (1, 7, 64):
            chunks = [
                _outputs_by_row(model, samples.p_ch[i : i + size])[1]
                for i in range(0, len(samples), size)
            ]
            assert np.concatenate(chunks).tobytes() == whole.tobytes()

    @pytest.mark.parametrize(
        "model, row, refusal, message",
        [
            (
                RAW_MODEL,
                [150.0, 96.0, 96.0, 96.0, 101.325, 1.0, 10.0],
                "row 1: p_ch1 = 150.0 kPa exceeds",
                "p_ch1 = 150.0 kPa exceeds",
            ),
            (
                STD_MODEL,
                [96.0, 96.0, 96.0, 96.0, 101.325, 1.0, np.nan],
                "row 1: phi_deg must be in [0, 360], got nan",
                "angle must be finite",
            ),
            (
                RAW_MODEL,
                [96.0, -1.0, 96.0, 96.0, 101.325, 1.0, 10.0],
                "row 1: p_ch2 must be >= 0",
                "p_ch2 must be >= 0",
            ),
            (
                STD_MODEL,
                [np.inf, 96.0, 96.0, 96.0, np.inf, 1.0, 10.0],
                "row 1: p_atm must be finite",
                "p_atm must be finite",
            ),
            # A tiny spread sends the standardized inputs past the float range.
            (
                init_model(6, stats=FeatureStats(mean=(0.0,) * 4, std=(1e-300,) * 4)),
                [1e10, 1e10, 1e10, 1e10, 1e10, 1.0, 10.0],
                None,
                "inputs must be finite",
            ),
            (
                MlpModel(RAW_MODEL.layer_sizes, RAW_MODEL.params * 1e300),
                [200.0, 200.0, 200.0, 200.0, 200.0, 1.0, 10.0],
                None,
                "output must be finite",
            ),
        ],
        ids=[
            "above-ambient",
            "nan-yaw",
            "negative-chamber",
            "infinite-ambient",
            "standardized-input-overflows",
            "output-overflows",
        ],
    )
    def test_rejected_row_raises_the_single_frame_error(self, model, row, refusal, message):
        # As for the closed form: Samples refuses what the frame rule refuses,
        # and a row it holds that the network rejects raises the single-frame
        # error, through the estimator and ``evaluate_mlp``.
        table = np.array([BASE_ROW, row])
        if refusal is not None:
            with pytest.raises(InvalidInputError, match="^" + re.escape(refusal)):
                Samples(table)
            return
        # Overflow warnings are silenced so the single-frame error surfaces.
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(InvalidInputError, match="^" + re.escape(message)):
                MlpEstimator(model).estimate_batch(Samples(table))
            with pytest.raises(InvalidInputError, match="^" + re.escape(message)):
                evaluate_mlp(model, Samples(table))

    def test_model_of_another_input_width_is_rejected(self):
        # Refused where the model is built, before evaluate_mlp could run it.
        rule = "a network must map 4 inputs to 2 outputs, got 3 -> 2"
        with pytest.raises(InvalidInputError, match=f"^{re.escape(rule)}$"):
            evaluate_mlp(init_model(0, layer_sizes=(3, 8, 2)), Samples(np.array([BASE_ROW])))

    @pytest.mark.parametrize("width", [3, 1])
    @pytest.mark.parametrize(
        "path", ["predict_angle", "decode_estimate", "evaluate_mlp", "estimate_batch", "batch_search"]
    )
    def test_model_of_another_output_width_is_rejected(self, path, width):
        # A direction decodes from exactly 2 outputs; a model of any other
        # width is refused where it is built, so no path runs it.
        samples = Samples(np.array([BASE_ROW]))
        frame = samples[0].frame
        calls = {
            "predict_angle": lambda model: predict_angle(model, frame),
            "decode_estimate": lambda model: decode_estimate(network_output(model, frame)),
            "evaluate_mlp": lambda model: evaluate_mlp(model, samples),
            "estimate_batch": lambda model: MlpEstimator(model).estimate_batch(samples),
            "batch_search": lambda model: batch_search(
                BatchSpec((14.0,), (0.0,), (0.3,), (MlpEstimator(model),), reps=1),
                SearchConfig(estimator=ModelBasedEstimator()),
                GEOM,
                PressureFieldParams(),
            ),
        }
        rule = f"a network must map 4 inputs to 2 outputs, got 4 -> {width}"
        with pytest.raises(InvalidInputError, match=f"^{re.escape(rule)}$"):
            calls[path](init_model(0, layer_sizes=(4, 8, width)))

    def test_rows_outside_the_dataset_ranges_are_refused(self):
        rows = np.array([[96.0, 97.0, 96.0, 95.0, 101.325, -1.0, 400.0],
                         [96.0, 97.0, 96.0, 95.0, 101.325, 1.0, -30.0]])
        with pytest.raises(InvalidInputError, match=r"^row 0: phi_deg must be in \[0, 360\]"):
            evaluate_mlp(RAW_MODEL, Samples(rows))


class TestTableChunks:
    """A table is scored ``CHUNK_ROWS`` rows per pass; every row is its own
    product, so no chunk edge changes a bit."""

    SAMPLES = generate_dataset(
        GEOM, PressureFieldParams(), GenerationConfig(n_samples=2 * CHUNK_ROWS + 123, seed=8)
    )

    @pytest.mark.parametrize("n", [0, 1, CHUNK_ROWS, 2 * CHUNK_ROWS + 123])
    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_chunk_edges_keep_the_single_frame_bits(self, name, n):
        model, rows = MODELS[name], self.SAMPLES[:n]
        yaws = MlpEstimator(model).estimate_batch(rows)
        want = [predict_angle(model, s.frame) for s in rows]
        assert [None if math.isnan(y) else y.hex() for y in yaws.tolist()] == [
            bits(a) for a in want
        ]
        # The same one-row products as a single unchunked stack.
        whole = _forward(model._layers, _model_inputs(model, rows.p_ch)[:, None, :])[-1][:, 0]
        _, chunked = _outputs_by_row(model, rows.p_ch)
        assert chunked.shape == (n, 2)
        assert chunked.tobytes() == whole.tobytes()


# A network whose inputs overflow at 1e10 kPa and whose outputs overflow at 1 kPa.
OVERFLOWING_MODEL = init_model(6, stats=FeatureStats(mean=(0.0,) * 4, std=(1e-300,) * 4))
OVERFLOWING_MODEL = MlpModel(
    OVERFLOWING_MODEL.layer_sizes, OVERFLOWING_MODEL.params * 1e300, OVERFLOWING_MODEL.stats
)
# Per estimator, two rows that Samples holds and it rejects, with their errors.
REJECTED_BY = {
    "model_based": (
        ModelBasedEstimator(),
        ([1.7e308, 1.7e308, 0.8e308, 0.8e308, 1.7e308, 1.0, 10.0], "vector y must be finite"),
        ([1.7e308, 0.0, 1.7e308, 0.0, 1.79e308, 1.0, 10.0], "vector x must be finite"),
    ),
    "mlp": (
        MlpEstimator(OVERFLOWING_MODEL),
        ([1e10] * 5 + [1.0, 10.0], "inputs must be finite"),
        ([1.0] * 5 + [1.0, 10.0], "output must be finite"),
    ),
}


@pytest.mark.parametrize("method", ["model_based", "mlp"])
def test_earliest_rejected_row_wins(method):
    # Samples names the first row the frame rule refuses, and the estimator
    # the first row of a table it holds that the estimator rejects.
    nan_yaw = [96.0, 96.0, 96.0, 96.0, 101.325, 1.0, np.nan]
    above = [150.0, 96.0, 96.0, 96.0, 101.325, 1.0, 10.0]
    for rows, refusal in (
        ([BASE_ROW, nan_yaw, above], "row 1: phi_deg must be in"),
        ([BASE_ROW, above, nan_yaw], "row 1: p_ch1 = 150.0 kPa"),
    ):
        with pytest.raises(InvalidInputError, match="^" + re.escape(refusal)):
            Samples(np.array(rows))
    estimator, (a, a_error), (b, b_error) = REJECTED_BY[method]
    for rows, message in (([BASE_ROW, a, b], a_error), ([BASE_ROW, b, a], b_error)):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(InvalidInputError, match="^" + re.escape(message)):
                estimator.estimate_batch(Samples(np.array(rows)))


EVALUATORS = {
    "model_based": (evaluate_model_based, ModelBasedEstimator()),
    "mlp": (lambda samples: evaluate_mlp(RAW_MODEL, samples), MlpEstimator(RAW_MODEL)),
}
# Yaws of a dataset whose wrap has an edge: signed zero and the 360 boundary
# from both sides.
EDGE_YAWS = [-0.0, 360.0, 359.99999999999994]
# Yaws outside it that still wrap at an edge: a negative, a yaw past a turn,
# and tiny negatives that wrap up to 360.
OUTSIDE_YAWS = [-30.0, 400.0, -360.0, 720.0, -1e-300, -5e-324]


def f64(x):
    return struct.pack("<d", x)


def edge_yaw_rows(yaws):
    """Per yaw, a row both estimators give a direction and an all-zero row
    they give none: a zero vector to each."""
    rows = []
    for yaw in yaws:
        rows.append([96.0, 97.0, 96.0, 95.0, 101.325, 1.0, yaw])
        rows.append([0.0, 0.0, 0.0, 0.0, 101.325, 1.0, yaw])
    return np.array(rows)


def edge_yaw_table():
    return Samples(edge_yaw_rows(EDGE_YAWS))


class TestPairs:
    """Pairs are built from the checked, wrapped columns, each float kept."""

    @pytest.mark.parametrize("method", sorted(EVALUATORS))
    def test_yaws_outside_the_dataset_reach_only_the_estimator(self, method):
        # Samples refuses each, so no estimator meets it.
        rows = edge_yaw_rows(OUTSIDE_YAWS)
        for i in range(0, len(rows), 2):
            with pytest.raises(InvalidInputError, match=r"^row 0: phi_deg must be in \[0, 360\]"):
                Samples(rows[i:])

    @pytest.mark.parametrize("method", sorted(EVALUATORS))
    def test_angles_have_the_checked_paths_bits(self, method):
        evaluate, estimator = EVALUATORS[method]
        samples = edge_yaw_table()
        pairs = evaluate(samples)
        column = estimator.estimate_batch(samples)
        assert len(pairs) == len(samples) == len(column)
        assert np.isnan(column).any() and not np.isnan(column).all()
        want = [
            pair(None if math.isnan(pred) else pred, yaw)
            for yaw, pred in zip(samples.phi_deg.tolist(), column.tolist())
        ]
        assert pairs == want
        for got, wanted, pred in zip(pairs, want, column.tolist()):
            assert type(got.phi_true) is Angle
            assert f64(got.phi_true.degrees) == f64(wanted.phi_true.degrees)
            assert (got.phi_pred is None) == math.isnan(pred)
            if got.phi_pred is not None:
                assert type(got.phi_pred) is Angle
                assert f64(got.phi_pred.degrees) == f64(wanted.phi_pred.degrees)

    @pytest.mark.parametrize("method", sorted(EVALUATORS))
    def test_built_objects_behave_as_constructed(self, method):
        evaluate, estimator = EVALUATORS[method]
        samples = edge_yaw_table()
        column = estimator.estimate_batch(samples)
        for got, pred, yaw in zip(evaluate(samples), column.tolist(), samples.phi_deg.tolist()):
            want = pair(None if math.isnan(pred) else pred, yaw)
            assert (got, hash(got), repr(got)) == (want, hash(want), repr(want))
            angles = [got.phi_true] + ([] if got.phi_pred is None else [got.phi_pred])
            for obj, field in [(got, "phi_true"), (got, "phi_pred")] + [(a, "degrees") for a in angles]:
                with pytest.raises(FrozenInstanceError):
                    setattr(obj, field, None)
            for obj in [got] + angles:
                for copied in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj), replace(obj)):
                    assert type(copied) is type(obj)
                    assert (copied, hash(copied), repr(copied)) == (obj, hash(obj), repr(obj))

    @settings(max_examples=200)
    @given(
        yaws=st.lists(
            st.floats(allow_nan=False, allow_infinity=False)
            | st.floats(-0.0, 360.0)
            | st.sampled_from(EDGE_YAWS + OUTSIDE_YAWS),
            min_size=1,
        )
    )
    def test_any_finite_yaw_is_stored_as_angle_stores_it(self, yaws):
        # A yaw in [0, 360] is held as Angle stores it; any other is refused.
        held = [y for y in yaws if 0.0 <= y <= 360.0]
        rows = [[96.0, 97.0, 96.0, 95.0, 101.325, 1.0, yaw] for yaw in held]
        pairs = evaluate_model_based(Samples(np.array(rows).reshape(-1, 7)))
        assert [f64(p.phi_true.degrees) for p in pairs] == [f64(Angle(y).degrees) for y in held]
        for yaw in set(yaws) - set(held):
            with pytest.raises(InvalidInputError, match=r"^row 0: phi_deg must be in \[0, 360\]"):
                Samples(np.array([[96.0, 97.0, 96.0, 95.0, 101.325, 1.0, yaw]]))


@contextlib.contextmanager
def collector(enabled):
    """The cyclic collector switched on or off, and put back as it was after."""
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was else gc.disable)()


class TestCollectorState:
    """The collector pauses while pairs are built and is left as it was found."""

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize("method", sorted(EVALUATORS))
    def test_left_as_found(self, method, enabled):
        evaluate, _ = EVALUATORS[method]
        rejected = np.array([BASE_ROW, [150.0, 96.0, 96.0, 96.0, 101.325, 1.0, 10.0]])
        with collector(enabled):
            assert len(evaluate(edge_yaw_table())) == 2 * len(EDGE_YAWS)
            assert gc.isenabled() is enabled
            with pytest.raises(InvalidInputError, match="^row 1: p_ch1 = 150.0 kPa exceeds"):
                Samples(rejected)
            assert gc.isenabled() is enabled

    @pytest.mark.parametrize("method", sorted(EVALUATORS))
    def test_paused_while_building_and_restored_on_failure(self, method, monkeypatch):
        evaluate, _ = EVALUATORS[method]
        seen, fill = [], evaluate_module._fill

        def failing_fill(*args):
            seen.append(gc.isenabled())
            if len(seen) == 3:
                raise RuntimeError("fill 3 fails")
            fill(*args)

        monkeypatch.setattr(evaluate_module, "_fill", failing_fill)
        with collector(True):
            with pytest.raises(RuntimeError, match="fill 3 fails"):
                evaluate(edge_yaw_table())
            assert gc.isenabled()
        assert seen == [False, False, False]


# Sizes the row kernel is checked at: one hidden neuron, a small net, and
# the default shape.
KERNEL_SIZES = [(4, 1, 2), (4, 8, 2), (4, 16, 32, 16, 2)]


@st.composite
def random_models(draw, sizes=KERNEL_SIZES):
    """A model of one of ``sizes`` with normal parameters scaled by 1e-12 (its
    outputs fall below EPS_ZERO) up to 1e2; it may carry stats."""
    layer_sizes = draw(st.sampled_from(sizes))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    params = rng.standard_normal(_n_params(layer_sizes)) * 10.0 ** draw(st.integers(-12, 2))
    stats = None
    if draw(st.booleans()):
        stats = FeatureStats(
            mean=tuple(rng.uniform(0.0, 200.0, 4)), std=tuple(rng.uniform(0.1, 50.0, 4))
        )
    return MlpModel(layer_sizes, params, stats)


class TestRowKernel:
    """Single frames and table rows run one per-model row kernel, with the
    bits of the stacked product the trainer runs."""

    @settings(max_examples=300)
    @given(model=random_models(), data=st.data())
    def test_forward_equals_the_stacked_product(self, model, data):
        n_in = model.layer_sizes[0]
        x = np.array(data.draw(st.lists(st.floats(-1e3, 1e3), min_size=n_in, max_size=n_in)))
        got = forward(model, x).tobytes()
        assert got == _forward(model._layers, x[None, :])[-1][0].tobytes()
        # The trainer's plan for an (S, P) stack, here S = 1.
        stacked = _plan(*_layer_views(model.params[None, :], model.layer_sizes))
        assert got == _forward(stacked, x[None, None, :])[-1][0, 0].tobytes()

    @settings(max_examples=300)
    @given(
        model=random_models(sizes=KERNEL_SIZES[1:]),
        rows=st.lists(frame_rows(), min_size=1, max_size=12),
    )
    def test_single_frames_equal_the_table_rows(self, model, rows):
        samples = Samples(np.array(rows))
        _, table = _outputs_by_row(model, samples.p_ch)
        single = np.array([network_output(model, s.frame) for s in samples])
        assert single.tobytes() == table.tobytes()
        pairs = evaluate_mlp(model, samples)
        want = [predict_angle(model, s.frame) for s in samples]
        assert [bits(p.phi_pred) for p in pairs] == [bits(a) for a in want]

    def test_plan_follows_writes_to_params(self):
        samples = generate_dataset(
            GEOM, PressureFieldParams(), GenerationConfig(n_samples=50, seed=3)
        )
        frames = [s.frame for s in samples]
        # init_model fills the weights in place after building the model.
        model, other = init_model(1), init_model(2)
        stacked = _forward(_plan(model.weights, model.biases), samples.p_ch[:, None, :])[-1]
        first = [predict_angle(model, f) for f in frames]
        assert None not in first
        assert [bits(a) for a in first] == [
            bits(decode_estimate(out[0]).phi_pred) for out in stacked
        ]
        assert [bits(p.phi_pred) for p in evaluate_mlp(model, samples)] == [
            bits(a) for a in first
        ]
        model.params[:] = other.params
        after = [bits(predict_angle(model, f)) for f in frames]
        assert after == [bits(predict_angle(other, f)) for f in frames]
        assert after != [bits(a) for a in first]

    @pytest.mark.parametrize("single", [predict_angle, network_output])
    @pytest.mark.parametrize(
        "make_model, frame, message",
        [
            # A tiny spread sends the standardized inputs past the float range.
            (
                lambda: init_model(6, stats=FeatureStats(mean=(0.0,) * 4, std=(1e-300,) * 4)),
                SensorFrame((1e10,) * 4, 1e10),
                "inputs must be finite",
            ),
            # A 3-input model is refused where it is built, before any frame.
            (
                lambda: init_model(0, layer_sizes=(3, 8, 2)),
                SensorFrame((96.0,) * 4, 101.325),
                "a network must map 4 inputs to 2 outputs, got 3 -> 2",
            ),
        ],
        ids=["standardized-input-overflows", "three-input-model"],
    )
    def test_rejected_frame_raises_its_error(self, single, make_model, frame, message):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(InvalidInputError, match=re.escape(message)):
                single(make_model(), frame)

    @pytest.mark.parametrize("single", [predict_angle, network_output])
    def test_overflowing_standardized_input_warns_of_nothing(self, single):
        # No np.errstate: the z-score runs on floats, so only the error is raised.
        model = init_model(6, stats=FeatureStats(mean=(0.0,) * 4, std=(1e-300,) * 4))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match="^inputs must be finite$"):
                single(model, SensorFrame((1e10,) * 4, 1e10))

    def test_overflowing_output_is_rejected_by_the_decode(self):
        model = MlpModel(RAW_MODEL.layer_sizes, RAW_MODEL.params * 1e300)
        frame = SensorFrame((200.0,) * 4, 200.0)
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.isfinite(network_output(model, frame)).all()
            with pytest.raises(InvalidInputError, match=re.escape("output must be finite")):
                predict_angle(model, frame)

    def test_zero_model_gives_no_angle(self):
        model = MlpModel(RAW_MODEL.layer_sizes, np.zeros_like(RAW_MODEL.params))
        frame = SensorFrame((91.325, 96.325, 96.325, 91.325), 101.325)
        assert network_output(model, frame).tobytes() == np.zeros(2).tobytes()
        assert predict_angle(model, frame) is None


class TestRunComparison:
    def test_the_frame_rule_runs_once_per_table(self, tmp_path, monkeypatch):
        # Samples checks a table's frames where it is built; scoring it and
        # training on it check none again.
        samples = generate_dataset(
            GEOM, PressureFieldParams(), GenerationConfig(n_samples=60, seed=5)
        )
        write_csv(samples, tmp_path / "d.csv")
        calls, frames_valid = [], cuphaptics.core.frames_valid

        def counted(p_ch, p_atm):
            calls.append(len(p_ch))
            return frames_valid(p_ch, p_atm)

        for module in (cuphaptics.core, cuphaptics.dataset, cuphaptics.evaluate,
                       cuphaptics.mlp, cuphaptics.search):
            if hasattr(module, "frames_valid"):
                monkeypatch.setattr(module, "frames_valid", counted)
        evaluate_model_based(samples)
        evaluate_mlp(RAW_MODEL, samples)
        run_comparison(samples, SplitSpec(), quick_config(), seeds=[1, 2])
        assert calls == []
        assert len(read_csv(tmp_path / "d.csv")) == 60
        assert calls == [60]

    def test_returns_first_seed_pairs(self):
        samples = generate_dataset(
            GEOM, PressureFieldParams(), GenerationConfig(n_samples=200, seed=5)
        )
        report, first = run_comparison(
            samples, SplitSpec(), quick_config(), seeds=[9, 10]
        )
        n_val = report.n_validation
        assert [len(column) for column in first["mlp"]] == [n_val, n_val]
        assert [len(column) for column in first["model_based"]] == [n_val, n_val]
        # both evaluated on the same fold: identical truth sequence
        truths_mlp = first["mlp"][0].tolist()
        truths_mb = first["model_based"][0].tolist()
        assert truths_mlp == truths_mb

    def test_columns_and_metrics_equal_the_public_pairs(self):
        # Yaws of 360 and -0.0 are held as 0.0, as Angle stores them; rows
        # with four equal chambers give the closed form no direction (NaN).
        table = generate_dataset(
            GEOM, PressureFieldParams(), GenerationConfig(n_samples=200, seed=5)
        ).table.copy()
        table[0::4, 6] = 360.0
        table[1::4, 6] = -0.0
        table[2::10, 0:4] = table[2::10, 0:1]
        samples, config, seeds = Samples(table), quick_config(), [9, 10]
        report, first = run_comparison(samples, SplitSpec(), config, seeds)
        for i, seed in enumerate(seeds):
            train_set, val_set = split(samples, SplitSpec(seed=seed))
            model, _ = train(train_set, val_set, replace(config, seed=seed))
            public = {
                "mlp": evaluate_mlp(model, val_set),
                "model_based": evaluate_model_based(val_set),
            }
            for method, pairs in public.items():
                true, pred = columns_of(pairs)
                if i == 0:  # the returned columns, bit for bit
                    assert first[method][0].tobytes() == true.tobytes()
                    assert first[method][1].tobytes() == pred.tobytes()
                scored = [p for p in pairs if p.phi_pred is not None]
                row = getattr(report, method).per_seed[i]
                assert row.rmse_deg == rmse_deg(scored)
                assert row.mae_deg == mae_deg(scored)
                assert (row.n_scored, row.n_undefined) == (len(scored), len(pairs) - len(scored))
            if i == 0:  # the first fold holds both kinds of row
                phi = val_set.phi_deg
                assert (phi == 0.0).sum() > 1 and not np.signbit(phi).any()
                assert np.isnan(first["model_based"][1]).any()
