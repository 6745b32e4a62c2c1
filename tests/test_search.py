import itertools
import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cuphaptics import (
    Angle,
    BatchRow,
    BatchSpec,
    ConfigError,
    CupGeometry,
    DirectionEstimate,
    FeatureStats,
    GroundTruthPose,
    InvalidInputError,
    MlpEstimator,
    ModelBasedEstimator,
    OracleEstimator,
    PressureFieldParams,
    SearchConfig,
    SensorFrame,
    TrainConfig,
    batch_search,
    estimate_direction,
    generate_dataset,
    init_model,
    run_search,
    search_step,
    train,
    write_batch_csv,
)
from cuphaptics import GenerationConfig, Samples, SplitSpec
from cuphaptics.core import EPS_ZERO, _yaw_deg, _yaws
from cuphaptics.rng import SEARCH_STEP, substream
import cuphaptics
import cuphaptics.search as search_module
import helpers
from cuphaptics.search import _next_delta, _next_deltas
from helpers import StubEstimator, frame_yaw, grid_noise_rows, rollout_a_frame_at_a_time

GEOM = CupGeometry()
NOISELESS = PressureFieldParams(noise_sigma_kpa=0.0)
AFFINE_WIDE = PressureFieldParams(
    response="affine", transition_width_mm=20.0, noise_sigma_kpa=0.0
)


def pose(delta, phi=0.0):
    return GroundTruthPose(delta=delta, phi=Angle(phi))


def estimate_at(phi):
    return DirectionEstimate(
        v_pred=(math.cos(math.radians(phi)), math.sin(math.radians(phi))),
        phi_pred=Angle(phi),
    )


def run_both(pose0, config, params):
    """``run_search``'s result, checked against the rollout of the single-frame
    functions, and that rollout's poses."""
    result = run_search(pose0, config, GEOM, params)
    want, trajectory = rollout_a_frame_at_a_time(pose0, config, GEOM, params)
    assert result == want
    return result, trajectory


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
        absent = DirectionEstimate(v_pred=(0.0, 0.0), phi_pred=None)
        with pytest.raises(InvalidInputError):
            search_step(pose(10.0), absent, 2.0)

    @pytest.mark.parametrize("step", [-1.0, 0.0, math.nan, math.inf, "2", None])
    def test_refuses_the_steps_search_config_refuses(self, step):
        # A negative step with a perfect estimate once moved the cup away (10 -> 11 mm).
        with pytest.raises(ConfigError, match="^step_size must be "):
            search_step(pose(10.0, 30.0), estimate_at(30.0), step)


class TestRunSearch:
    def test_oracle_closed_form_step_count(self):
        config = SearchConfig(estimator=OracleEstimator(), seed=0)
        result, trajectory = run_both(pose(14.0, 123.0), config, NOISELESS)
        assert result.success is True
        assert result.steps == 4  # 14 -> 12 -> 10 -> 8 -> 6
        assert trajectory[-1].delta == pytest.approx(6.0)
        assert result.failure_reason is None

    def test_start_at_threshold_succeeds_immediately(self):
        config = SearchConfig(estimator=OracleEstimator(), seed=0)
        result, trajectory = run_both(pose(7.0), config, NOISELESS)
        assert result.success is True
        assert result.steps == 0
        assert trajectory == (pose(7.0),)

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
        result, trajectory = run_both(pose(14.0), config, NOISELESS)
        assert result.success is False
        assert result.failure_reason == "no-gradient"
        assert result.steps == 0
        assert len(trajectory) == 1

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
            result, trajectory = run_both(pose(13.0, 10.0), config, PressureFieldParams())
            assert len(trajectory) == result.steps + 1

    def test_delta_never_jumps_more_than_step(self):
        config = SearchConfig(
            estimator=ModelBasedEstimator(), step_size_mm=2.0, seed=3
        )
        _, trajectory = run_both(pose(14.0, 33.0), config, PressureFieldParams())
        for a, b in zip(trajectory, trajectory[1:]):
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

    @pytest.mark.parametrize(
        "est",
        [None, "oracle", OracleEstimator, StubEstimator(phi=0.0, name=None)],
        ids=["none", "a-name", "a-class", "no-str-name"],
    )
    def test_config_rejects_what_is_not_an_estimator(self, est):
        # run_search would fail later with a bare AttributeError or TypeError
        message = f"estimator must have a str name and a callable estimate_batch, got {est!r}"
        with pytest.raises(ConfigError, match=re.escape(message)):
            SearchConfig(estimator=est)
        with pytest.raises(ConfigError, match=re.escape(f"estimators[1] {message[10:]}")):
            BatchSpec((14.0,), (0.0,), (0.0,), (OracleEstimator(), est))


def one_cell_spec(**counts):
    return BatchSpec((14.0,), (0.0,), (0.0,), (OracleEstimator(),), **counts)


# The counts and seeds of every library config; each must be an integer, or
# the value would only fail later with a bare TypeError (numpy's, for
# n_samples; the random streams', for a seed).
@pytest.mark.parametrize("value", [2.5, 3.0, "3"], ids=["fraction", "float", "str"])
@pytest.mark.parametrize(
    "make, field",
    [
        (TrainConfig, "batch_size"),
        (TrainConfig, "max_epochs"),
        (TrainConfig, "patience"),
        (lambda **kw: SearchConfig(estimator=OracleEstimator(), **kw), "max_steps"),
        (one_cell_spec, "reps"),
        (GenerationConfig, "n_samples"),
        (GenerationConfig, "seed"),
        (SplitSpec, "seed"),
        (TrainConfig, "seed"),
        (lambda **kw: SearchConfig(estimator=OracleEstimator(), **kw), "seed"),
        (one_cell_spec, "seed"),
    ],
    ids=[
        "batch_size", "max_epochs", "patience", "max_steps", "reps", "n_samples",
        "generation_seed", "split_seed", "train_seed", "search_seed", "batch_seed",
    ],
)
def test_configs_reject_non_integer_counts(make, field, value):
    with pytest.raises(ConfigError, match=f"{field} must be an integer, got {value!r}"):
        make(**{field: value})
    assert getattr(make(**{field: np.int64(3)}), field) == 3  # numpy integers pass


def rows_a_rollout_at_a_time(spec, config, params):
    """``batch_search``'s rows built from rollouts of the single-frame
    functions, one rollout at a time on its rows of the grid's noise, and the
    rollouts' results."""
    cells = [
        (d0, phi0, noise, est)
        for d0 in spec.delta0_values_mm
        for phi0 in spec.phi0_values_deg
        for noise in spec.noise_values_kpa
        for est in spec.estimators
    ]
    rows, every_run = [], []
    for i, (d0, phi0, noise, est) in enumerate(cells):
        start = i // len(spec.estimators) * spec.reps  # the cell's first among its estimator's
        runs = [
            rollout_a_frame_at_a_time(
                pose(d0, phi0),
                replace(config, estimator=est),
                GEOM,
                replace(params, noise_sigma_kpa=noise),
                grid_noise_rows(spec, config, start + rep),
            )[0]
            for rep in range(spec.reps)
        ]
        every_run += runs
        rows.append(
            BatchRow(
                delta0_mm=d0,
                phi0_deg=phi0,
                noise_sigma_kpa=noise,
                estimator=est.name,
                success_rate=float(np.mean([r.success for r in runs])),
                mean_steps=float(np.mean([r.steps for r in runs])),
            )
        )
    return rows, every_run


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
        samples = generate_dataset(
            GEOM, NOISELESS, GenerationConfig(n_samples=128, sampling="grid", seed=0)
        )
        model, _ = train(samples, samples, TrainConfig(max_epochs=40, patience=40, seed=1))
        assert model.stats is not None
        spec = BatchSpec(
            # 7 mm starts sealed; 30 mm, with every chamber off the plate,
            # gives the noiseless affine closed form no gradient; 18 mm seals
            # on the last step of the budget at best, and 30 mm never does.
            delta0_values_mm=(7.0, 14.0, 18.0, 30.0),
            phi0_values_deg=(0.0, 120.0, 240.0),
            # 8 kPa gives each table every rate under the grid's shared noise
            noise_values_kpa=(0.0, 0.3, 4.0, 8.0),
            estimators=(ModelBasedEstimator(), OracleEstimator(), MlpEstimator(model=model)),
            reps=4,
            seed=11,
        )
        config = SearchConfig(
            estimator=OracleEstimator(), step_size_mm=2.0, max_steps=6, seed=0
        )
        reasons = set()
        for params in (PressureFieldParams(), replace(AFFINE_WIDE, transition_width_mm=4.0)):
            rows = batch_search(spec, config, GEOM, params)
            expected, runs = rows_a_rollout_at_a_time(spec, config, params)
            assert rows == expected
            reasons.update(r.failure_reason for r in runs)
            # Rates strictly between 0 and 1 show that each rep draws its own noise.
            assert {r.success_rate for r in rows} == {0.0, 0.25, 0.5, 0.75, 1.0}
        assert reasons == {None, "no-gradient", "budget-exhausted"}

    def test_long_noisy_rollouts_equal_the_replay(self):
        # 0.1 mm steps keep the 14 mm rollouts live to the 100-step budget,
        # long after the 7.5 mm starts seal; every step still draws their rows.
        spec = BatchSpec(
            delta0_values_mm=(7.5, 14.0),
            phi0_values_deg=(0.0, 200.0),
            noise_values_kpa=(0.3, 4.0),
            estimators=(ModelBasedEstimator(),),
            reps=2,
            seed=4,
        )
        config = SearchConfig(estimator=OracleEstimator(), step_size_mm=0.1, max_steps=100)
        expected, runs = rows_a_rollout_at_a_time(spec, config, PressureFieldParams())
        assert batch_search(spec, config, GEOM, PressureFieldParams()) == expected
        steps = [r.steps for r in runs]
        assert min(steps) < 64 < max(steps) == 100

    def test_estimators_meet_the_same_noise(self):
        # A renamed copy of the closed form steers as the original does, so
        # every cell's rows match: the two locksteps draw the same rows.
        spec = BatchSpec(
            delta0_values_mm=(14.0, 22.0),
            phi0_values_deg=(0.0, 120.0, 240.0),
            noise_values_kpa=(1.5,),
            estimators=(ModelBasedEstimator(), ModelBasedEstimator(name="copy")),
            reps=4,
            seed=8,
        )
        config = SearchConfig(estimator=OracleEstimator(), step_size_mm=1.0, max_steps=20)
        rows = batch_search(spec, config, GEOM, PressureFieldParams())
        original, copy = rows[::2], rows[1::2]
        assert [replace(r, estimator="copy") for r in original] == copy
        assert any(r.mean_steps % 1 for r in rows)  # the reps meet different noise

    @pytest.mark.parametrize("seed", [0, 5, 2**64 + 3])
    def test_noisy_single_rollout_is_run_search_under_the_grid_seed(self, seed):
        spec = BatchSpec((22.0,), (75.0,), (1.5,), (ModelBasedEstimator(),), reps=1, seed=seed)
        config = SearchConfig(estimator=ModelBasedEstimator(), max_steps=12, seed=seed)
        params = PressureFieldParams(noise_sigma_kpa=1.5)
        result = run_search(pose(22.0, 75.0), config, GEOM, params)
        (row,) = batch_search(spec, replace(config, seed=99), GEOM, params)
        assert (row.success_rate, row.mean_steps) == (float(result.success), result.steps)
        replay = grid_noise_rows(spec, config, 0)
        alone = rollout_a_frame_at_a_time(pose(22.0, 75.0), config, GEOM, params, replay)[0]
        assert result == alone

    def test_a_rollout_does_not_depend_on_the_others(self):
        # reps=1: each row is one rollout. The 14 mm rollouts keep their rows
        # of the noise when the far starts begin sealed at 5 mm, and when the
        # budget is cut to the 14 mm rollouts' own step counts, below the far
        # rollouts' counts.
        def rows(far, max_steps):
            spec = BatchSpec((14.0, far), tuple(range(0, 360, 45)), (4.0,),
                             (ModelBasedEstimator(),), reps=1, seed=21)
            config = SearchConfig(estimator=OracleEstimator(), step_size_mm=1.0,
                                  max_steps=max_steps)
            return batch_search(spec, config, GEOM, PressureFieldParams())

        full = rows(28.0, 40)
        near, far = full[:8], full[8:]
        assert len({r.mean_steps for r in near}) > 2  # the noise matters
        assert rows(5.0, 40)[:8] == near
        cut = int(max(r.mean_steps for r in near))
        assert max(r.mean_steps for r in far) > cut
        assert rows(28.0, cut)[:8] == near

    @pytest.mark.parametrize("seed", [0, 9, 2**64 + 1])
    def test_step_k_draws_a_row_for_every_rollout(self, monkeypatch, seed):
        # reps=1 and the oracle: rollout i is row i, live for its first
        # mean_steps steps. Each step's noise is the live rows of one draw of
        # all twelve rollouts, the sealed and the noiseless ones included.
        seen = []
        chamber_pressures = search_module._chamber_pressures

        def recording(geom, params, d, f, noise):
            seen.append(noise)
            return chamber_pressures(geom, params, d, f, noise)

        monkeypatch.setattr(search_module, "_chamber_pressures", recording)
        spec = BatchSpec((5.0, 14.0, 22.0, 30.0), (40.0,), (0.0, 0.8, 2.5),
                         (OracleEstimator(),), reps=1, seed=seed)
        config = SearchConfig(estimator=OracleEstimator(), step_size_mm=2.0, max_steps=10)
        rows = batch_search(spec, config, GEOM, PressureFieldParams())
        steps = np.array([r.mean_steps for r in rows])
        sigma = np.array([r.noise_sigma_kpa for r in rows])
        assert sorted(set(steps)) == [0, 4, 8, 10]  # the 5 mm starts begin sealed
        stream = substream(seed, SEARCH_STEP)
        assert len(seen) == 10
        for k, noise in enumerate(seen):
            want = stream.normal(0.0, sigma[:, None], (len(rows), 4))[steps > k]
            assert noise.tobytes() == want.tobytes()

    def test_a_noiseless_grid_keys_no_stream(self, monkeypatch):
        keyed = []

        def keying(seed, purpose):
            keyed.append((seed, purpose))
            return substream(seed, purpose)

        monkeypatch.setattr(search_module, "substream", keying)
        spec = BatchSpec((14.0, 22.0), (0.0, 90.0), (0.0,),
                         (ModelBasedEstimator(), OracleEstimator()), reps=2, seed=4)
        config = SearchConfig(estimator=OracleEstimator(), max_steps=10)
        batch_search(spec, config, GEOM, PressureFieldParams())
        run_search(pose(14.0), config, GEOM, NOISELESS)
        assert keyed == []
        batch_search(replace(spec, noise_values_kpa=(0.0, 0.5)), config, GEOM, NOISELESS)
        assert keyed == [(4, SEARCH_STEP)] * 2  # one stream per estimator's lockstep

    def test_noiseless_cells_of_a_noisy_grid_are_the_noiseless_grid(self):
        # A noiseless rollout's rows are scaled by 0 kPa, so it meets no noise
        # beside noisy rollouts either.
        spec = BatchSpec((14.0, 22.0), (0.0, 150.0, 300.0), (0.0,),
                         (ModelBasedEstimator(),), reps=3, seed=6)
        config = SearchConfig(estimator=OracleEstimator(), step_size_mm=1.0, max_steps=20)
        noiseless = batch_search(spec, config, GEOM, PressureFieldParams())
        mixed = batch_search(replace(spec, noise_values_kpa=(2.0, 0.0)), config, GEOM,
                             PressureFieldParams())
        assert mixed[1::2] == noiseless
        assert any(r.mean_steps % 1 for r in mixed[::2])  # the noisy reps differ

    def test_memory_does_not_grow_with_the_step_budget(self):
        spec = BatchSpec(
            delta0_values_mm=(14.0,),
            phi0_values_deg=(30.0,),
            noise_values_kpa=(0.3,),
            estimators=(ModelBasedEstimator(),),
            reps=2,
            seed=3,
        )

        def run(max_steps):
            config = SearchConfig(estimator=OracleEstimator(), max_steps=max_steps)
            tracemalloc.start()
            try:
                rows = batch_search(spec, config, GEOM, PressureFieldParams())
                return rows, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        run(25)  # first-call allocations (caches, lazy imports) are not counted
        (small, small_peak), (large, large_peak) = run(25), run(100_000)
        assert large == small
        # A (rollouts, max_steps, 4) noise block would add 6.4 MB here.
        assert large_peak < small_peak + 64 * 1024

    def test_reads_only_the_step_policy_from_config_and_params(self):
        spec = BatchSpec(
            delta0_values_mm=(14.0,),
            phi0_values_deg=(0.0, 120.0),
            noise_values_kpa=(0.0, 0.3),
            estimators=(ModelBasedEstimator(),),
            reps=2,
            seed=6,
        )
        a = batch_search(
            spec,
            SearchConfig(estimator=OracleEstimator(), max_steps=8, seed=0),
            GEOM,
            PressureFieldParams(noise_sigma_kpa=0.0),
        )
        b = batch_search(
            spec,
            SearchConfig(estimator=StubEstimator(phi=None), max_steps=8, seed=99),
            GEOM,
            PressureFieldParams(noise_sigma_kpa=2.5),
        )
        assert a == b

    def test_rejected_frame_raises_the_first_rollouts_error(self):
        # Ambient 5 kPa is below the 10 kPa peak vacuum, so p_ch goes below 0
        # in every rollout, each at its own value: from 14 mm on the first
        # frame, from 26 mm (the first rollout in cell order) only nearer in.
        params = PressureFieldParams(p_atm_kpa=5.0)
        spec = BatchSpec(
            delta0_values_mm=(26.0, 14.0),
            phi0_values_deg=(0.0, 90.0),
            noise_values_kpa=(0.3,),
            estimators=(OracleEstimator(),),  # no estimate to check the frames
            reps=2,
            seed=3,
        )
        config = SearchConfig(estimator=OracleEstimator(), max_steps=10, seed=0)
        first = grid_noise_rows(spec, config, 0)
        with pytest.raises(InvalidInputError, match="must be >= 0 kPa") as want:
            rollout_a_frame_at_a_time(pose(26.0, 0.0), config, GEOM, params, first)
        with pytest.raises(InvalidInputError) as got:
            batch_search(spec, config, GEOM, params)
        assert str(got.value) == str(want.value)

    def test_rejected_estimate_raises_the_first_rollouts_error(self):
        # The estimator rejects a frame with a chamber below 96 kPa. The 14 mm
        # rollout meets one on its first frame, the 26 mm one (first in cell
        # order) only nearer in; the 26 mm one raises, with the error it
        # raises when the other start begins sealed at 5 mm.
        class RejectsDeepVacuum:
            name = "rejects"

            def estimate_batch(self, rows):
                for row in rows.p_ch:
                    if row.min() < 96.0:
                        raise InvalidInputError(f"rejected at {row.min()!r} kPa")
                return rows.phi_deg.copy()

        def error(*delta0_values_mm):
            spec = BatchSpec(delta0_values_mm, (0.0,), (0.3,),
                             (OracleEstimator(), RejectsDeepVacuum()), reps=1, seed=3)
            config = SearchConfig(estimator=OracleEstimator(), max_steps=20)
            with pytest.raises(InvalidInputError) as got:
                batch_search(spec, config, GEOM, PressureFieldParams())
            return str(got.value)

        first = error(26.0, 14.0)
        assert first == error(26.0, 5.0)
        assert error(14.0, 26.0) != first  # the 14 mm rollout's own error

    @pytest.mark.parametrize(
        "axis, value, error, message",
        [
            ("noise_values_kpa", -1.0, ConfigError, "noise_sigma_kpa must be finite and >= 0"),
            ("phi0_values_deg", math.nan, InvalidInputError, "angle must be finite"),
        ],
    )
    def test_bad_grid_value_raises_its_error(self, axis, value, error, message):
        grid = dict(
            delta0_values_mm=(14.0,),
            phi0_values_deg=(0.0,),
            noise_values_kpa=(0.3,),
            estimators=(OracleEstimator(),),
            reps=1,
        )
        spec = BatchSpec(**{**grid, axis: (0.0, value)})
        config = SearchConfig(estimator=OracleEstimator())
        with pytest.raises(error, match=message):
            batch_search(spec, config, GEOM, PressureFieldParams())

    @pytest.mark.parametrize(
        "delta0_values, phi0_values, noise_values",
        [
            ((14.0,), (math.nan, 0.0), (0.3, -1.0)),  # the first pose is checked first
            ((14.0,), (0.0, math.nan), (0.3, -1.0)),  # then every noise level
            ((14.0, -1.0), (0.0, math.inf), (0.3, 0.0)),  # then the other poses in order
            ((14.0, math.nan), (0.0,), (0.3, math.inf)),
        ],
    )
    def test_bad_grid_values_raise_the_first_bad_cells_error(
        self, delta0_values, phi0_values, noise_values
    ):
        spec = BatchSpec(delta0_values, phi0_values, noise_values, (OracleEstimator(),) * 2)
        params = PressureFieldParams()
        with pytest.raises((ConfigError, InvalidInputError)) as want:
            for d0, phi0, noise, _ in itertools.product(
                delta0_values, phi0_values, noise_values, spec.estimators
            ):
                GroundTruthPose(delta=d0, phi=Angle(phi0))
                replace(params, noise_sigma_kpa=noise)
        with pytest.raises(want.type) as got:
            batch_search(spec, SearchConfig(estimator=OracleEstimator()), GEOM, params)
        assert str(got.value) == str(want.value)


STATS = FeatureStats(mean=(90.0, 92.0, 94.0, 96.0), std=(3.0, 4.0, 5.0, 6.0))
ESTIMATORS = {
    "model_based": ModelBasedEstimator(),
    "mlp_raw": MlpEstimator(init_model(4)),
    "mlp_std": MlpEstimator(init_model(5, stats=STATS)),
    "oracle": OracleEstimator(),
}
# Four equal chambers: the closed form has no direction to give.
SYMMETRIC = [96.0, 96.0, 96.0, 96.0, 101.325, 9.0, 45.0]
# A closed-form yaw a hair below 0 degrees, which wraps to exactly 360.0 and
# is stored as 0.0, as Angle stores it.
WRAP = [1.325, 101.325, math.nextafter(101.325, math.inf), 1.325, 101.325, 9.0, 0.0]


@pytest.fixture(scope="module")
def table():
    generated = generate_dataset(
        GEOM, PressureFieldParams(), GenerationConfig(n_samples=200, seed=8)
    )
    return Samples(np.vstack([generated.table, SYMMETRIC, WRAP]))


class TestEstimateBatch:
    """Each estimator's table path answers as its single-frame path does."""

    @pytest.mark.parametrize("name", sorted(ESTIMATORS))
    def test_equals_estimate_bit_for_bit(self, name, table):
        est = ESTIMATORS[name]
        yaw = est.estimate_batch(table)
        want = [frame_yaw(est, s.frame, s.pose) for s in table]
        assert [y.hex() for y in yaw.tolist()] == [
            math.nan.hex() if a is None else a.degrees.hex() for a in want
        ]
        if name == "model_based":
            assert math.isnan(yaw[-2]) and yaw[-1].hex() == "0x0.0p+0"

    @pytest.mark.parametrize(
        "est, row, p_atm, message",
        [
            (ESTIMATORS["model_based"], [150.0, 96.0, 96.0, 96.0], 101.325,
             "row 1: p_ch1 = 150.0 kPa exceeds"),
            (ESTIMATORS["mlp_raw"], [150.0, 96.0, 96.0, 96.0], 101.325,
             "row 1: p_ch1 = 150.0 kPa exceeds"),
            (ESTIMATORS["mlp_std"], [96.0, 96.0, 96.0, 150.0], 101.325,
             "row 1: p_ch4 = 150.0 kPa exceeds"),
            # A tiny spread sends the standardized inputs past the float range.
            (
                MlpEstimator(init_model(6, stats=FeatureStats((0.0,) * 4, (1e-300,) * 4))),
                [1e10, 1e10, 1e10, 1e10],
                1e10,
                "inputs must be finite",
            ),
        ],
        ids=["model_based-above-ambient", "mlp_raw-above-ambient", "mlp_std-above-ambient",
             "mlp-standardized-input-overflows"],
    )
    def test_rejected_row_raises_the_single_frame_error(self, est, row, p_atm, message):
        # Samples refuses a frame that SensorFrame refuses, naming its row, so
        # no estimator meets it; a row it holds that the estimator rejects
        # raises the estimator's single-frame error.
        table = np.array([[96.0] * 4 + [p_atm, 1.0, 10.0], row + [p_atm, 1.0, 20.0]])
        # Overflow warnings are silenced so the single-frame error surfaces.
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(InvalidInputError, match="^" + re.escape(message)):
                est.estimate_batch(Samples(table))

    def test_a_chamber_at_the_tolerance_bound_is_answered(self):
        # Ambients in [2**k - 0.5, 2**k), one chamber per row at exactly
        # p_atm + 0.5, the value synth's cap writes. That sum rounds up for
        # about one ambient in four, so the chamber's gauge pressure falls
        # below -0.5 kPa; SensorFrame accepts it and the closed form answers.
        rng = np.random.default_rng(0)
        p_atm = np.concatenate([rng.uniform(2.0**k - 0.5, 2.0**k, 40) for k in range(9)])
        n = len(p_atm)
        p_ch = rng.uniform(0.0, 1.0, (n, 4)) * p_atm[:, None]
        p_ch[np.arange(n), np.arange(n) % 4] = p_atm + 0.5
        assert ((p_atm[:, None] - p_ch) < -0.5).any(axis=1).sum() > n // 8
        rows = np.column_stack([p_ch, p_atm, np.ones(n), np.zeros(n)])
        frames = [SensorFrame(tuple(r[:4]), r[4]) for r in rows.tolist()]
        want = [estimate_direction(f).phi_pred for f in frames]
        yaw = ModelBasedEstimator().estimate_batch(Samples(rows))
        assert [y.hex() for y in yaw.tolist()] == [
            math.nan.hex() if a is None else a.degrees.hex() for a in want
        ]

    def test_oracle_returns_the_true_yaws(self, table):
        yaw = OracleEstimator().estimate_batch(table)
        assert yaw.tobytes() == table.phi_deg.tobytes()


class TestEstimatorHomes:
    """Each estimator is defined beside its single-frame function."""

    def test_defined_beside_the_single_frame_functions_and_exported_at_top_level(self):
        core, mlp = cuphaptics.core, cuphaptics.mlp
        assert cuphaptics.ModelBasedEstimator is core.ModelBasedEstimator
        assert cuphaptics.OracleEstimator is core.OracleEstimator
        assert cuphaptics.MlpEstimator is mlp.MlpEstimator
        assert core.Estimator.__module__ == "cuphaptics.core"
        for name in ("Estimator", "ModelBasedEstimator", "OracleEstimator", "MlpEstimator"):
            assert not hasattr(cuphaptics.search, name)

    @pytest.mark.parametrize(
        "module, other", [("search", "cuphaptics.mlp"), ("evaluate", "cuphaptics.search")]
    )
    def test_module_holds_nothing_from_a_module_it_does_not_need(self, module, other):
        held = vars(getattr(cuphaptics, module)).items()
        assert [name for name, value in held if getattr(value, "__module__", None) == other] == []


# start -> (delta0, phi0, how the noiseless closed form ends from there under
# the affine response and a 6-step budget).
STARTS = {
    "sealed": (7.0, 0.0, None),
    "seals": (14.0, 120.0, None),
    "budget": (22.0, 240.0, "budget-exhausted"),
    "no-gradient": (30.0, 300.0, "no-gradient"),  # every chamber is off the plate
}


@pytest.mark.parametrize("start", sorted(STARTS))
@pytest.mark.parametrize("noise", [0.0, 0.3, 4.0])
@pytest.mark.parametrize(
    "est",
    [ESTIMATORS["model_based"], ESTIMATORS["mlp_std"], ESTIMATORS["oracle"],
     StubEstimator(phi=None), StubEstimator(phi=90.0)],
    ids=["model_based", "mlp", "oracle", "stub-none", "stub-90"],
)
def test_run_search_equals_the_single_frame_rollout(est, noise, start):
    d0, phi0, closed_form_reason = STARTS[start]
    config = SearchConfig(estimator=est, max_steps=6, seed=11580396128195341621)
    params = PressureFieldParams(response="affine", noise_sigma_kpa=noise)
    result = run_search(pose(d0, phi0), config, GEOM, params)
    assert result == rollout_a_frame_at_a_time(pose(d0, phi0), config, GEOM, params)[0]
    if est is ESTIMATORS["model_based"] and noise == 0.0:
        assert result.failure_reason == closed_form_reason


class TestRejectedRollout:
    """A rollout that the single-frame functions reject raises their error, from
    ``run_search`` and from a one-cell ``batch_search``."""

    def run(self, est, config, params, message):
        spec = BatchSpec((14.0,), (0.0,), (0.0,), (est,), reps=1)
        config = replace(config, estimator=est, seed=5159740435168934496)
        with pytest.raises(InvalidInputError, match=re.escape(message)) as want:
            rollout_a_frame_at_a_time(pose(14.0), config, GEOM, params)
        for search in (lambda: run_search(pose(14.0), config, GEOM, params),
                       lambda: batch_search(spec, config, GEOM, params)):
            with pytest.raises(InvalidInputError) as got:
                search()
            assert str(got.value) == str(want.value)

    def test_offset_overflow(self):
        # Stepping away from the plate doubles 1.7e308 mm past the float range.
        config = SearchConfig(estimator=OracleEstimator(), step_size_mm=1.7e308)
        self.run(StubEstimator(phi=180.0), config, NOISELESS, "delta must be finite, got inf")

    def test_frame_below_zero(self):
        # Ambient 5 kPa is below the 10 kPa peak vacuum.
        params = PressureFieldParams(p_atm_kpa=5.0, noise_sigma_kpa=0.0)
        self.run(OracleEstimator(), SearchConfig(estimator=OracleEstimator()), params,
                 "must be >= 0 kPa")



class RejectsSecondQuadrant:
    """An estimator by true yaw: toward the plate below 90 degrees, a
    rejection naming chamber 1 below 180, away from the plate below 270 and
    no answer above. ``yaw`` is its single-frame function."""

    name = "quadrants"

    def yaw(self, frame, pose):
        phi = pose.phi.degrees
        if 90.0 <= phi < 180.0:
            raise InvalidInputError(f"rejects p_ch1 = {frame.p_ch[0]!r} kPa")
        return phi if phi < 90.0 else (phi + 180.0) % 360.0 if phi < 270.0 else math.nan

    def estimate_batch(self, rows):
        return np.array([self.yaw(row.frame, row.pose) for row in rows])


def test_mixed_rejections_in_one_lockstep_each_end_their_own_rollout(monkeypatch):
    # 1000 kPa noise drives most frames below 0 kPa, the estimator rejects
    # every second-quadrant yaw, and a 1.7e308 mm step away from the plate
    # overflows the offset: on the first step from 1.7e308 mm, on the second
    # from 14 mm. The other rollouts seal or find no gradient meanwhile.
    est = RejectsSecondQuadrant()
    spec = BatchSpec((14.0, 1.7e308), (45.0, 135.0, 225.0, 315.0), (0.0, 1000.0), (est,),
                     reps=2, seed=4)
    config = SearchConfig(estimator=est, step_size_mm=1.7e308, max_steps=3)
    cells = list(itertools.product(*(spec.delta0_values_mm, spec.phi0_values_deg,
                                     spec.noise_values_kpa)))
    starts = np.repeat(cells, spec.reps, axis=0)
    reasons, _ = search_module._lockstep(est, starts, spec.seed, config, GEOM, NOISELESS)

    def single_frame_yaw(est, frame, pose):
        yaw = est.yaw(frame, pose)
        return None if math.isnan(yaw) else Angle(yaw)

    monkeypatch.setattr(helpers, "frame_yaw", single_frame_yaw)
    errors = []
    for j, (d0, phi0, noise) in enumerate(starts.tolist()):
        params = replace(NOISELESS, noise_sigma_kpa=noise)
        noise_rows = grid_noise_rows(spec, config, j)
        try:
            want = rollout_a_frame_at_a_time(pose(d0, phi0), config, GEOM, params, noise_rows)[0]
        except InvalidInputError as error:
            errors.append(error)
            assert type(reasons[j]) is InvalidInputError and str(reasons[j]) == str(error)
        else:
            assert reasons[j] == want.failure_reason
    kinds = ("must be >= 0 kPa", "rejects p_ch1", "delta must be finite, got inf")
    assert all(any(kind in str(error) for error in errors) for kind in kinds)
    assert {None, "no-gradient"} <= {r for r in reasons.tolist() if isinstance(r, (str, type(None)))}
    with pytest.raises(InvalidInputError) as got:
        batch_search(spec, config, GEOM, NOISELESS)
    assert str(got.value) == str(errors[0])


def scalar_yaws(x, y):
    """Each row's yaw from ``_yaw_deg`` and ``Angle``, as hex; NaN without one."""
    degs = map(_yaw_deg, x.tolist(), y.tolist())
    return [math.nan.hex() if math.isnan(d) else Angle(d).degrees.hex() for d in degs]


def column_yaws(x, y):
    """``_yaws`` of the rows (x, y), on a table of frames that every check
    accepts, as hex."""
    n = len(x)
    rows = Samples(np.tile([96.0, 96.0, 96.0, 96.0, 101.325, 1.0, 0.0], (n, 1)))
    yaw = _yaws(rows, x, y, np.ones(n, dtype=bool), estimate=None)
    return [v.hex() for v in yaw.tolist()]


def scalar_deltas(d, yaw, f, step):
    return [_next_delta(*row, step).hex() for row in zip(d.tolist(), yaw.tolist(), f.tolist())]


def column_deltas(d, yaw, f, step):
    return [v.hex() for v in _next_deltas(d, yaw, f, step).tolist()]


TINY = 5e-324  # the smallest subnormal
BIG = 1.7e308
# (x, y) rows at the edges of _yaw_deg: no norm, a norm at and just past
# EPS_ZERO, signed zeros on the +-180 degree cut, a hair below 0 degrees
# (which wraps to 360.0 and is stored as 0.0), and norms near the float limit.
YAW_EDGES = [
    (0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0),
    (EPS_ZERO, 0.0), (0.0, -EPS_ZERO), (math.nextafter(EPS_ZERO, 1.0), 0.0),
    (TINY, TINY), (-1.0, 0.0), (-1.0, -0.0), (1.0, -TINY), (1.0, -1e-17),
    (BIG, BIG), (-BIG, BIG), (BIG, -TINY), (3.0, 4.0), (-2.5, -7.0),
]
# (delta, yaw, true yaw, step) rows at the edges of _next_delta: no yaw,
# signed zero offsets, a step that underflows to zero, a step past the
# offset (floored at 0), and offsets that overflow either way.
DELTA_EDGES = [
    (14.0, math.nan, 30.0, 1.0),
    (0.0, 90.0, 0.0, TINY), (-0.0, 90.0, 0.0, TINY), (-0.0, 0.0, 0.0, 1.0),
    (0.5, 10.0, 10.0, 1.0), (14.0, 359.9999, 0.0, 2.0), (14.0, 0.0, 359.9999, 2.0),
    (BIG, 180.0, 0.0, BIG), (BIG, 0.0, 0.0, BIG), (TINY, 270.0, 90.0, TINY),
]


class TestColumnsEqualTheSingleFramePath:
    """The yaw and offset columns that the lockstep search steps equal
    ``_yaw_deg`` (wrapped as ``Angle`` wraps it) and ``_next_delta`` row by
    row, bit for bit."""

    def test_yaw_edges(self):
        x, y = np.array(YAW_EDGES).T
        assert column_yaws(x, y) == scalar_yaws(x, y)
        assert column_yaws(x[:4], y[:4]) == [math.nan.hex()] * 4
        assert column_yaws(x[4:7], y[4:7])[:2] == [math.nan.hex()] * 2

    def test_offset_edges(self):
        for d, yaw, f, step in DELTA_EDGES:
            row = np.array([d]), np.array([yaw]), np.array([f])
            assert column_deltas(*row, step) == scalar_deltas(*row, step)
        zero = column_deltas(np.array([-0.0]), np.array([90.0]), np.array([0.0]), TINY)
        assert zero == [(-0.0).hex()]  # Python's max keeps the first of two equal zeros
        beyond = column_deltas(np.array([BIG]), np.array([180.0]), np.array([0.0]), BIG)
        assert beyond == [math.inf.hex()]

    @given(
        st.lists(
            st.tuples(
                st.floats(allow_nan=False, allow_infinity=False),
                st.floats(allow_nan=False, allow_infinity=False),
                st.floats(0.0, 1e3),
                st.floats(0.0, 360.0, exclude_max=True),
                st.floats(0.0, 360.0, exclude_max=True),
            ),
            min_size=1,
            max_size=40,
        ),
        st.floats(1e-6, 1e3),
    )
    def test_random_rows(self, rows, step):
        x, y, d, yaw, f = np.array(rows).T
        assert column_yaws(x, y) == scalar_yaws(x, y)
        assert column_deltas(d, yaw, f, step) == scalar_deltas(d, yaw, f, step)
