import math
from dataclasses import dataclass, replace

import numpy as np
import pytest

from cuphaptics import (
    Angle,
    BatchRow,
    BatchSpec,
    ConfigError,
    CupGeometry,
    DirectionEstimate,
    GroundTruthPose,
    InvalidInputError,
    MlpEstimator,
    ModelBasedEstimator,
    OracleEstimator,
    PressureFieldParams,
    SearchConfig,
    TrainConfig,
    Vector2,
    batch_search,
    generate_dataset,
    run_search,
    search_step,
    train,
    write_batch_csv,
)
from cuphaptics import GenerationConfig
from cuphaptics.rng import SEARCH_STEP, derive_seed

GEOM = CupGeometry()
NOISELESS = PressureFieldParams(noise_sigma_kpa=0.0)
AFFINE_WIDE = PressureFieldParams(
    response="affine", transition_width_mm=20.0, noise_sigma_kpa=0.0
)


def pose(delta, phi=0.0):
    return GroundTruthPose(delta=delta, phi=Angle(phi))


def estimate_at(phi):
    return DirectionEstimate(
        v_pred=Vector2(math.cos(math.radians(phi)), math.sin(math.radians(phi))),
        phi_pred=Angle(phi),
    )


@dataclass(frozen=True)
class StubEstimator:
    """Always answers with a fixed yaw (or no answer at all)."""

    phi: float | None
    name: str = "stub"

    def estimate(self, frame, pose):
        if self.phi is None:
            return DirectionEstimate(v_pred=Vector2(0.0, 0.0), phi_pred=None)
        return estimate_at(self.phi)


class TestSearchStep:
    def test_perfect_estimate_closes_full_step(self):
        p = search_step(pose(14.0, 30.0), estimate_at(30.0), 2.0)
        assert p.delta == pytest.approx(12.0)
        assert p.phi.degrees == 30.0  # translation never rotates

    def test_orthogonal_estimate_moves_nothing(self):
        p = search_step(pose(10.0, 0.0), estimate_at(90.0), 2.0)
        assert p.delta == pytest.approx(10.0)

    def test_sixty_degree_error_half_step(self):
        p = search_step(pose(10.0, 0.0), estimate_at(60.0), 2.0)
        assert p.delta == pytest.approx(9.0)

    def test_opposite_estimate_increases_offset(self):
        p = search_step(pose(10.0, 0.0), estimate_at(180.0), 2.0)
        assert p.delta == pytest.approx(12.0)

    def test_floors_at_zero(self):
        p = search_step(pose(1.0, 0.0), estimate_at(0.0), 2.0)
        assert p.delta == 0.0

    def test_absent_estimate_rejected(self):
        absent = DirectionEstimate(v_pred=Vector2(0.0, 0.0), phi_pred=None)
        with pytest.raises(InvalidInputError):
            search_step(pose(10.0), absent, 2.0)


class TestRunSearch:
    def test_oracle_closed_form_step_count(self):
        config = SearchConfig(estimator=OracleEstimator(), seed=0)
        result = run_search(pose(14.0, 123.0), config, GEOM, NOISELESS)
        assert result.success is True
        assert result.steps == 4  # 14 -> 12 -> 10 -> 8 -> 6
        assert result.trajectory[-1].delta == pytest.approx(6.0)
        assert result.failure_reason is None

    def test_start_at_threshold_succeeds_immediately(self):
        config = SearchConfig(estimator=OracleEstimator(), seed=0)
        result = run_search(pose(7.0), config, GEOM, NOISELESS)
        assert result.success is True
        assert result.steps == 0
        assert result.trajectory == (pose(7.0),)

    def test_model_based_matches_oracle_on_unclamped_affine(self):
        for phi in (0.0, 41.0, 77.7, 180.0, 299.0):
            oracle = run_search(
                pose(14.0, phi),
                SearchConfig(estimator=OracleEstimator(), seed=0),
                GEOM,
                AFFINE_WIDE,
            )
            model = run_search(
                pose(14.0, phi),
                SearchConfig(estimator=ModelBasedEstimator(), seed=0),
                GEOM,
                AFFINE_WIDE,
            )
            assert model.success is True
            assert model.steps == oracle.steps == 4

    def test_no_gradient_terminates(self):
        config = SearchConfig(estimator=StubEstimator(phi=None), seed=0)
        result = run_search(pose(14.0), config, GEOM, NOISELESS)
        assert result.success is False
        assert result.failure_reason == "no-gradient"
        assert result.steps == 0
        assert len(result.trajectory) == 1

    def test_budget_exhaustion(self):
        # tangential estimator never reduces delta
        config = SearchConfig(
            estimator=StubEstimator(phi=90.0), max_steps=5, seed=0
        )
        result = run_search(pose(14.0, 0.0), config, GEOM, NOISELESS)
        assert result.success is False
        assert result.failure_reason == "budget-exhausted"
        assert result.steps == 5

    def test_trajectory_length_invariant(self):
        for estimator in (OracleEstimator(), StubEstimator(phi=90.0)):
            config = SearchConfig(estimator=estimator, max_steps=6, seed=1)
            result = run_search(pose(13.0, 10.0), config, GEOM, PressureFieldParams())
            assert len(result.trajectory) == result.steps + 1
            assert len(result.estimates) == result.steps

    def test_delta_never_jumps_more_than_step(self):
        config = SearchConfig(
            estimator=ModelBasedEstimator(), step_size_mm=2.0, seed=3
        )
        result = run_search(pose(14.0, 33.0), config, GEOM, PressureFieldParams())
        for a, b in zip(result.trajectory, result.trajectory[1:]):
            assert abs(b.delta - a.delta) <= 2.0 + 1e-12

    def test_deterministic(self):
        config = SearchConfig(estimator=ModelBasedEstimator(), seed=42)
        a = run_search(pose(14.0, 70.0), config, GEOM, PressureFieldParams())
        b = run_search(pose(14.0, 70.0), config, GEOM, PressureFieldParams())
        assert a == b

    def test_mlp_estimator_runs(self):
        samples = generate_dataset(
            GEOM, NOISELESS, GenerationConfig(n_samples=64, sampling="grid", seed=0)
        )
        model, _ = train(
            samples, samples, TrainConfig(max_epochs=150, patience=150, seed=1)
        )
        config = SearchConfig(estimator=MlpEstimator(model=model), seed=0)
        result = run_search(pose(12.0, 45.0), config, GEOM, NOISELESS)
        assert result.success is True

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            SearchConfig(estimator=OracleEstimator(), step_size_mm=0.0)
        with pytest.raises(ConfigError):
            SearchConfig(estimator=OracleEstimator(), max_steps=0)
        with pytest.raises(ConfigError):
            SearchConfig(estimator=OracleEstimator(), success_delta_mm=-1.0)


    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("field", ["step_size_mm", "success_delta_mm"])
    def test_config_rejects_non_finite_floats(self, field, value):
        with pytest.raises(ConfigError):
            SearchConfig(estimator=OracleEstimator(), **{field: value})


class TestBatchSearch:
    def test_single_cell_reduces_to_run_search(self):
        spec = BatchSpec(
            delta0_values_mm=(14.0,),
            phi0_values_deg=(50.0,),
            noise_values_kpa=(0.0,),
            estimators=(OracleEstimator(),),
            reps=3,
            seed=5,
        )
        config = SearchConfig(estimator=OracleEstimator(), seed=0)
        (row,) = batch_search(spec, config, GEOM, NOISELESS)
        assert row.success_rate == 1.0
        assert row.mean_steps == pytest.approx(4.0)
        assert row.estimator == "oracle"

    def test_identical_seeds_identical_tables(self):
        spec = BatchSpec(
            delta0_values_mm=(10.0, 14.0),
            phi0_values_deg=(0.0, 120.0, 240.0),
            noise_values_kpa=(0.0, 0.3),
            estimators=(ModelBasedEstimator(), OracleEstimator()),
            reps=2,
            seed=9,
        )
        config = SearchConfig(estimator=OracleEstimator(), seed=0)
        a = batch_search(spec, config, GEOM, PressureFieldParams())
        b = batch_search(spec, config, GEOM, PressureFieldParams())
        assert a == b

    def test_oracle_always_succeeds_within_budget(self):
        spec = BatchSpec(
            delta0_values_mm=(14.0,),
            phi0_values_deg=tuple(k * 10.0 for k in range(36)),
            noise_values_kpa=(0.3,),
            estimators=(OracleEstimator(),),
            reps=2,
            seed=0,
        )
        config = SearchConfig(estimator=OracleEstimator(), seed=0)
        rows = batch_search(spec, config, GEOM, PressureFieldParams())
        assert len(rows) == 36
        assert all(r.success_rate == 1.0 for r in rows)
        assert all(r.mean_steps == pytest.approx(4.0) for r in rows)

    def test_csv_schema(self, tmp_path):
        spec = BatchSpec(
            delta0_values_mm=(14.0,),
            phi0_values_deg=(0.0,),
            noise_values_kpa=(0.0,),
            estimators=(OracleEstimator(),),
            reps=1,
            seed=0,
        )
        config = SearchConfig(estimator=OracleEstimator(), seed=0)
        rows = batch_search(spec, config, GEOM, NOISELESS)
        path = tmp_path / "batch.csv"
        write_batch_csv(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "delta0_mm,phi0_deg,noise_sigma_kpa,estimator,success_rate,mean_steps"
        assert lines[1] == "14,0,0,oracle,1,4"

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError):
            BatchSpec(
                delta0_values_mm=(),
                phi0_values_deg=(0.0,),
                noise_values_kpa=(0.0,),
                estimators=(OracleEstimator(),),
            )

    def test_rows_are_rep_means_in_cell_order(self):
        spec = BatchSpec(
            delta0_values_mm=(14.0, 18.0),
            phi0_values_deg=(0.0, 120.0, 240.0),
            noise_values_kpa=(0.3, 4.0),
            estimators=(ModelBasedEstimator(), OracleEstimator()),
            reps=4,
            seed=11,
        )
        config = SearchConfig(
            estimator=OracleEstimator(), step_size_mm=2.0, max_steps=6, seed=0
        )
        rows = batch_search(spec, config, GEOM, PressureFieldParams())
        cells = [
            (d0, phi0, noise, est)
            for d0 in spec.delta0_values_mm
            for phi0 in spec.phi0_values_deg
            for noise in spec.noise_values_kpa
            for est in spec.estimators
        ]
        expected = []
        for i, (d0, phi0, noise, est) in enumerate(cells):
            runs = [
                run_search(
                    pose(d0, phi0),
                    replace(
                        config,
                        estimator=est,
                        seed=derive_seed(spec.seed, SEARCH_STEP, i, rep),
                    ),
                    GEOM,
                    PressureFieldParams(noise_sigma_kpa=noise),
                )
                for rep in range(spec.reps)
            ]
            expected.append(
                BatchRow(
                    delta0_mm=d0,
                    phi0_deg=phi0,
                    noise_sigma_kpa=noise,
                    estimator=est.name,
                    success_rate=float(np.mean([r.success for r in runs])),
                    mean_steps=float(np.mean([r.steps for r in runs])),
                )
            )
        assert rows == expected
        # Rates strictly between 0 and 1 show that each rep draws its own noise.
        assert {r.success_rate for r in rows} == {0.0, 0.25, 0.5, 1.0}
