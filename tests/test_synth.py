import math

import numpy as np
import pytest

from cuphaptics import (
    Angle,
    ConfigError,
    CupGeometry,
    GenerationConfig,
    GroundTruthPose,
    InvalidInputError,
    PressureFieldParams,
    SensorFrame,
    angular_error,
    chamber_vacuum,
    coverage_depth,
    estimate_direction,
    generate_dataset,
    synth_frame,
)
from cuphaptics.rng import substream
from cuphaptics.synth import CHAMBER_ANGLES_DEG

GEOM = CupGeometry()
NOISELESS = PressureFieldParams(noise_sigma_kpa=0.0)


def pose(delta, phi):
    return GroundTruthPose(delta=delta, phi=Angle(phi))


class TestGeometry:
    def test_defaults(self):
        assert GEOM.r_cup_mm == 15.0
        assert GEOM.r_chamber_mm == 10.0
        assert CHAMBER_ANGLES_DEG == (315.0, 225.0, 135.0, 45.0)

    def test_rejects_chamber_outside_cup(self):
        with pytest.raises(ConfigError):
            CupGeometry(r_cup_mm=10.0, r_chamber_mm=12.0)


class TestCoverageDepth:
    def test_fully_covered_at_zero_offset(self):
        for phi in (0.0, 33.0, 180.0, 271.5):
            d = coverage_depth(GEOM, 0.0, phi)
            assert d.shape == (4,)
            assert (d > 0.0).all()

    def test_closed_form_value(self):
        d = coverage_depth(GEOM, 15.0, 0.0)[3]  # chamber 4
        assert d == pytest.approx(10.0 * math.cos(math.radians(45.0)), abs=1e-12)
        assert d == pytest.approx(7.0711, abs=1e-4)

    def test_fully_off_the_plate(self):
        d = coverage_depth(GEOM, 30.0, 0.0)[3]
        assert d == pytest.approx(7.0711 - 15.0, abs=1e-4)
        assert d < 0.0

    def test_broadcasts_rows_to_rows_of_chambers(self):
        rng = substream(3, 0)
        delta = rng.uniform(0.0, 30.0, size=(5, 7))
        phi = rng.uniform(0.0, 360.0, size=(5, 7))
        d = coverage_depth(GEOM, delta, phi)
        assert d.shape == (5, 7, 4)
        for i, j in np.ndindex(5, 7):
            assert (d[i, j] == coverage_depth(GEOM, delta[i, j], phi[i, j])).all()


class TestChamberVacuum:
    def test_midpoint_is_half_pmax(self):
        for response in ("affine", "sigmoid"):
            params = PressureFieldParams(response=response, noise_sigma_kpa=0.0)
            assert chamber_vacuum(params, 0.0) == pytest.approx(5.0)

    def test_sigmoid_saturates(self):
        assert chamber_vacuum(NOISELESS, 1e6) == pytest.approx(10.0)
        assert chamber_vacuum(NOISELESS, -1e6) == pytest.approx(0.0, abs=1e-12)

    def test_logistic_value(self):
        assert chamber_vacuum(NOISELESS, 4.0) == pytest.approx(
            10.0 / (1.0 + math.exp(-1.0))
        )
        assert chamber_vacuum(NOISELESS, 4.0) == pytest.approx(7.3106, abs=1e-4)

    def test_affine_clamps(self):
        params = PressureFieldParams(response="affine", noise_sigma_kpa=0.0)
        assert chamber_vacuum(params, 100.0) == 10.0
        assert chamber_vacuum(params, -100.0) == 0.0

    def test_noise_needs_rng(self):
        params = PressureFieldParams(noise_sigma_kpa=0.3)
        with pytest.raises(InvalidInputError):
            chamber_vacuum(params, 0.0)
        rng = np.random.default_rng(0)
        v = chamber_vacuum(params, 0.0, rng)
        assert v != 5.0  # one Gaussian draw applied

    def test_rejects_non_finite_depth(self):
        with pytest.raises(InvalidInputError):
            chamber_vacuum(NOISELESS, float("nan"))
        with pytest.raises(InvalidInputError):
            chamber_vacuum(NOISELESS, np.array([[1.0, 2.0, math.inf, 3.0]]))

    @pytest.mark.parametrize("response", ["affine", "sigmoid"])
    def test_extreme_depths_saturate_without_overflow(self, response):
        # any numpy overflow warning fails the run (filterwarnings = error)
        params = PressureFieldParams(response=response, noise_sigma_kpa=0.0)
        v = chamber_vacuum(params, np.array([-1e308, -800.0, 800.0, 1e308]))
        assert v.tolist() == [0.0, 0.0, 10.0, 10.0]

    def test_elementwise_and_one_normal_per_element(self):
        d = substream(4, 0).uniform(-20.0, 20.0, size=(50, 4))
        noiseless = chamber_vacuum(NOISELESS, d)
        for (i, j), v in np.ndenumerate(noiseless):
            assert v == chamber_vacuum(NOISELESS, d[i, j])
        noisy = chamber_vacuum(PressureFieldParams(), d, substream(4, 1))
        noise = substream(4, 1).normal(0.0, 0.3, size=(50, 4))
        assert (noisy == noiseless + noise).all()


def reference_p_ch(params, delta, phi):
    """The per-chamber scalar formulas, written out with math."""
    p_ch = []
    for alpha in CHAMBER_ANGLES_DEG:
        d = 10.0 * math.cos(math.radians(alpha - phi)) - delta + 15.0
        t = d / params.transition_width_mm
        if params.response == "affine":
            v = params.p_max_kpa * min(max(0.5 + 0.5 * t, 0.0), 1.0)
        else:
            v = params.p_max_kpa / (1.0 + math.exp(-t))
        p_ch.append(min(params.p_atm_kpa - v, params.p_atm_kpa + 0.5))
    return p_ch


class TestSynthFrame:
    @pytest.mark.parametrize("response", ["affine", "sigmoid"])
    def test_matches_scalar_reference(self, response):
        params = PressureFieldParams(response=response, noise_sigma_kpa=0.0)
        for delta in (0.0, 7.0, 10.3, 14.0, 30.0):
            for phi in (0.0, 17.5, 90.0, 233.3, 359.9):
                got = synth_frame(GEOM, params, pose(delta, phi)).p_ch
                assert got == pytest.approx(reference_p_ch(params, delta, phi), abs=1e-12)

    def test_fully_sealed_pose_saturates_all_chambers(self):
        # at delta=0 every coverage depth exceeds the affine ramp width,
        # so all four chambers bottom out at p_atm - p_max exactly and
        # the pressure field carries no direction signal
        affine = PressureFieldParams(response="affine", noise_sigma_kpa=0.0)
        frame = synth_frame(GEOM, affine, pose(0.0, 0.0))
        assert set(frame.p_ch) == {101.325 - 10.0}
        assert estimate_direction(frame).phi_pred is None

    def test_chambers_toward_plate_hold_more_vacuum(self):
        # phi=0: plate interior along +x, so chambers 1 and 4 seal better
        frame = synth_frame(GEOM, NOISELESS, pose(10.0, 0.0))
        p1, p2, p3, p4 = frame.p_ch
        assert p1 == pytest.approx(p4)
        assert p2 == pytest.approx(p3)
        assert p1 < p2

    def test_rotated_pose(self):
        frame = synth_frame(GEOM, NOISELESS, pose(10.0, 90.0))
        p1, p2, p3, p4 = frame.p_ch
        assert p3 == pytest.approx(p4)
        assert p1 == pytest.approx(p2)
        assert p3 < p1

    @pytest.mark.parametrize("phi", [0.0, 17.0, 45.0, 133.3, 289.9])
    @pytest.mark.parametrize("delta", [7.0, 10.5, 14.0])
    def test_rotation_equivariance(self, phi, delta):
        """phi -> phi+90 permutes chamber pressures cyclically (1->4->3->2->1)."""
        a = synth_frame(GEOM, NOISELESS, pose(delta, phi)).p_ch
        b = synth_frame(GEOM, NOISELESS, pose(delta, phi + 90.0)).p_ch
        assert b[3] == pytest.approx(a[0], abs=1e-12)  # 1 -> 4
        assert b[2] == pytest.approx(a[3], abs=1e-12)  # 4 -> 3
        assert b[1] == pytest.approx(a[2], abs=1e-12)  # 3 -> 2
        assert b[0] == pytest.approx(a[1], abs=1e-12)  # 2 -> 1

    @pytest.mark.parametrize("phi", [0.0, 60.0, 200.0])
    def test_vacuum_non_increasing_in_delta(self, phi):
        deltas = np.linspace(0.0, 30.0, 61)
        for chamber in (1, 2, 3, 4):
            vacuums = [
                101.325 - synth_frame(GEOM, NOISELESS, pose(d, phi)).p_ch[chamber - 1]
                for d in deltas
            ]
            assert all(b <= a + 1e-12 for a, b in zip(vacuums, vacuums[1:]))


class TestEq1Consistency:
    def test_affine_unclamped_recovers_phi_exactly(self):
        # transition width 20 keeps the ramp linear over the whole band
        params = PressureFieldParams(
            response="affine", transition_width_mm=20.0, noise_sigma_kpa=0.0
        )
        for phi in range(0, 360, 7):
            for delta in (7.0, 9.5, 12.0, 14.0):
                p = pose(delta, float(phi))
                est = estimate_direction(synth_frame(GEOM, params, p))
                assert est.phi_pred is not None
                assert angular_error(est.phi_pred, p.phi) < 1e-6

    def test_sigmoid_exact_at_45_degree_multiples(self):
        for phi in range(0, 360, 45):
            for delta in (7.0, 10.0, 14.0):
                p = pose(delta, float(phi))
                est = estimate_direction(synth_frame(GEOM, NOISELESS, p))
                assert est.phi_pred is not None
                assert angular_error(est.phi_pred, p.phi) < 1e-6

    def test_sigmoid_biased_away_from_symmetry(self):
        # the sigmoid field is not an exact cosine, so generic yaws drift
        p = pose(10.0, 20.0)
        est = estimate_direction(synth_frame(GEOM, NOISELESS, p))
        assert angular_error(est.phi_pred, p.phi) > 0.1


class TestGenerateDataset:
    def test_single_sample_grid_is_delta_min_phi_zero(self):
        config = GenerationConfig(
            n_samples=1, sampling="grid", seed=0, delta_range_mm=(7.0, 14.0)
        )
        (sample,) = generate_dataset(GEOM, NOISELESS, config)
        assert sample.pose.delta == 7.0
        assert sample.pose.phi.degrees == 0.0

    def test_exact_count_and_determinism(self):
        config = GenerationConfig(n_samples=300, seed=42)
        params = PressureFieldParams()  # noisy
        a = generate_dataset(GEOM, params, config)
        b = generate_dataset(GEOM, params, config)
        assert len(a) == len(b) == 300
        for sa, sb in zip(a, b):
            assert sa.frame.p_ch == sb.frame.p_ch
            assert sa.pose.delta == sb.pose.delta
            assert sa.pose.phi.degrees == sb.pose.phi.degrees

    def test_seeds_share_no_row(self):
        params = PressureFieldParams()
        rows = set()
        for seed in range(8):
            samples = generate_dataset(GEOM, params, GenerationConfig(1000, seed=seed))
            rows.update(map(tuple, samples.table.tolist()))
        assert len(rows) == 8 * 1000

    def test_first_rows_do_not_depend_on_n(self):
        params = PressureFieldParams()
        short, long = (
            generate_dataset(GEOM, params, GenerationConfig(n, seed=6)) for n in (300, 1000)
        )
        assert (short.table == long.table[:300]).all()

    @pytest.mark.parametrize("response", ["affine", "sigmoid"])
    def test_noiseless_grid_rows_equal_synth_frame(self, response):
        params = PressureFieldParams(response=response, noise_sigma_kpa=0.0)
        config = GenerationConfig(n_samples=400, sampling="grid", seed=0)
        samples = generate_dataset(GEOM, params, config)
        for *p_ch, p_atm, delta, phi in samples.table.tolist():
            frame = synth_frame(GEOM, params, pose(delta, phi))
            assert frame.p_ch == tuple(p_ch) and frame.p_atm == p_atm

    def test_yaw_at_range_end_wraps_to_zero_as_angle_does(self):
        # Drawn yaws in [360 - ulp, 360) round up to 360 about half the time.
        below = float(np.nextafter(360.0, 0.0))
        config = GenerationConfig(n_samples=200, phi_range_deg=(below, 360.0), seed=2)
        phis = generate_dataset(GEOM, NOISELESS, config).phi_deg
        assert set(phis.tolist()) == {below, 0.0}
        assert all(Angle(phi).degrees == phi for phi in phis.tolist())

    def test_pressure_below_zero_is_rejected(self):
        # ambient 5 kPa cannot hold up to 10 kPa of vacuum
        params = PressureFieldParams(p_atm_kpa=5.0, noise_sigma_kpa=0.0)
        with pytest.raises(InvalidInputError, match="p_ch"):
            generate_dataset(GEOM, params, GenerationConfig(n_samples=50, seed=0))
        with pytest.raises(InvalidInputError, match="p_ch"):
            synth_frame(GEOM, params, pose(0.0, 0.0))

    def test_samples_satisfy_frame_invariants(self):
        config = GenerationConfig(n_samples=500, seed=9)
        for s in generate_dataset(GEOM, PressureFieldParams(), config):
            assert isinstance(s.frame, SensorFrame)  # constructor re-validates
            assert 7.0 <= s.pose.delta <= 14.0
            assert 0.0 <= s.pose.phi.degrees < 360.0

    def test_grid_covers_both_axes(self):
        config = GenerationConfig(n_samples=100, sampling="grid", seed=0)
        samples = generate_dataset(GEOM, NOISELESS, config)
        deltas = {s.pose.delta for s in samples}
        phis = {s.pose.phi.degrees for s in samples}
        assert len(samples) == 100
        assert min(deltas) == 7.0 and max(deltas) == 14.0
        assert len(phis) == 10 and 0.0 in phis

    def test_rejects_bad_config(self):
        with pytest.raises(ConfigError):
            GenerationConfig(n_samples=0)
        with pytest.raises(ConfigError):
            GenerationConfig(delta_range_mm=(14.0, 7.0))
        with pytest.raises(ConfigError):
            generate_dataset(
                GEOM, NOISELESS, GenerationConfig(delta_range_mm=(7.0, 31.0))
            )

    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize(
        "cls, field",
        [
            (PressureFieldParams, "p_max_kpa"),
            (PressureFieldParams, "transition_width_mm"),
            (PressureFieldParams, "noise_sigma_kpa"),
            (PressureFieldParams, "p_atm_kpa"),
            (CupGeometry, "r_chamber_mm"),
            (CupGeometry, "r_cup_mm"),
        ],
    )
    def test_rejects_non_finite_floats(self, cls, field, value):
        with pytest.raises(ConfigError):
            cls(**{field: value})

    def test_rejects_bad_params(self):
        with pytest.raises(ConfigError):
            PressureFieldParams(p_max_kpa=0.0)
        with pytest.raises(ConfigError):
            PressureFieldParams(transition_width_mm=-1.0)
        with pytest.raises(ConfigError):
            PressureFieldParams(response="cubic")
        with pytest.raises(ConfigError):
            PressureFieldParams(noise_sigma_kpa=-0.1)
