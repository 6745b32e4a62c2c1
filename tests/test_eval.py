import pytest

from cuphaptics import (
    Angle,
    ConfigError,
    CupGeometry,
    GenerationConfig,
    InvalidInputError,
    PredictionPair,
    PressureFieldParams,
    SplitSpec,
    TrainConfig,
    evaluate_mlp,
    evaluate_model_based,
    export_scatter,
    generate_dataset,
    init_model,
    mae_deg,
    rmse_deg,
    run_comparison,
    train,
)

GEOM = CupGeometry()


def pair(pred, true):
    return PredictionPair(
        phi_true=Angle(true), phi_pred=None if pred is None else Angle(pred)
    )


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


class TestExportScatter:
    def test_header_only_for_empty(self, tmp_path):
        path = tmp_path / "s.csv"
        export_scatter({"mlp": []}, path)
        assert path.read_text() == "phi_true_deg,phi_pred_deg,method\n"

    def test_row_count_is_defined_predictions(self, tmp_path):
        pairs = [pair(10.0, 12.0), pair(None, 50.0), pair(200.0, 199.0)]
        path = tmp_path / "s.csv"
        export_scatter({"model_based": pairs}, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 3  # header + 2 defined
        assert lines[1].endswith(",model_based")

    def test_round_trip_parse(self, tmp_path):
        samples = generate_dataset(
            GEOM, PressureFieldParams(), GenerationConfig(n_samples=60, seed=4)
        )
        pairs = evaluate_model_based(samples)
        path = tmp_path / "s.csv"
        export_scatter({"model_based": pairs}, path)
        lines = path.read_text().splitlines()[1:]
        for line, p in zip(lines, [q for q in pairs if q.phi_pred is not None]):
            true_s, pred_s, method = line.split(",")
            assert method == "model_based"
            assert float(true_s) == pytest.approx(p.phi_true.degrees, rel=1e-8, abs=1e-7)
            assert float(pred_s) == pytest.approx(p.phi_pred.degrees, rel=1e-8, abs=1e-7)


class TestRunComparison:
    def test_returns_first_seed_pairs(self):
        samples = generate_dataset(
            GEOM, PressureFieldParams(), GenerationConfig(n_samples=200, seed=5)
        )
        report, first = run_comparison(
            samples, SplitSpec(), quick_config(), seeds=[9, 10]
        )
        n_val = report.n_validation
        assert len(first["mlp"]) == n_val
        assert len(first["model_based"]) == n_val
        # both evaluated on the same fold: identical truth sequence
        truths_mlp = [p.phi_true.degrees for p in first["mlp"]]
        truths_mb = [p.phi_true.degrees for p in first["model_based"]]
        assert truths_mlp == truths_mb
