import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cuphaptics import (
    Angle,
    DirectionEstimate,
    GroundTruthPose,
    InvalidInputError,
    SensorFrame,
    VacuumPressures,
    Vector2,
    angular_error,
    angular_errors,
    estimate_direction,
    model_direction,
    vacuum_pressures,
    wrap_angle,
)

finite_angles = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


class TestAngle:
    def test_wraps_into_range(self):
        assert wrap_angle(370.0).degrees == pytest.approx(10.0)
        assert wrap_angle(-90.0).degrees == pytest.approx(270.0)
        assert wrap_angle(720.0).degrees == 0.0

    def test_tiny_negative_does_not_round_to_360(self):
        # fmod of -1e-15 % 360 rounds up to exactly 360.0 in float64
        assert wrap_angle(-1e-15).degrees == 0.0

    @given(finite_angles)
    def test_always_in_half_open_range(self, raw):
        a = wrap_angle(raw)
        assert 0.0 <= a.degrees < 360.0

    def test_radians(self):
        assert Angle(180.0).radians == pytest.approx(math.pi)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), "x"])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(InvalidInputError):
            Angle(bad)


class TestAngularError:
    def test_wrap_aware(self):
        assert angular_error(Angle(350.0), Angle(10.0)) == pytest.approx(20.0)

    def test_plain_difference(self):
        assert angular_error(Angle(30.0), Angle(90.0)) == pytest.approx(60.0)

    @given(finite_angles, finite_angles)
    def test_symmetric_and_bounded(self, a, b):
        x, y = wrap_angle(a), wrap_angle(b)
        e = angular_error(x, y)
        assert e == angular_error(y, x)
        assert 0.0 <= e <= 180.0

    @given(finite_angles)
    def test_self_distance_zero(self, a):
        assert angular_error(wrap_angle(a), wrap_angle(a)) == 0.0

    def test_elementwise_matches_scalar(self):
        pred = [350.0, 30.0, 0.0, 179.5, 10.0]
        true = [10.0, 90.0, 180.0, 359.5, 10.0]
        errs = angular_errors(np.array(pred), np.array(true))
        assert errs.shape == (5,)
        assert list(errs) == [
            angular_error(Angle(p), Angle(t)) for p, t in zip(pred, true)
        ]
        assert list(errs) == pytest.approx([20.0, 60.0, 180.0, 180.0, 0.0])


class TestVector2:
    def test_norm_and_polar(self):
        v = Vector2(0.0, 4.0)
        assert v.norm() == pytest.approx(4.0)
        assert v.polar_angle().degrees == pytest.approx(90.0)

    def test_negative_quadrant(self):
        assert Vector2(-1.0, -1.0).polar_angle().degrees == pytest.approx(225.0)

    def test_rejects_nan(self):
        with pytest.raises(InvalidInputError):
            Vector2(float("nan"), 0.0)


class TestSensorFrame:
    def test_valid(self):
        f = SensorFrame(p_ch=(91.3, 96.3, 96.3, 91.3), p_atm=101.325)
        assert f.p_ch == (91.3, 96.3, 96.3, 91.3)

    def test_rejects_wrong_count(self):
        with pytest.raises(InvalidInputError):
            SensorFrame(p_ch=(1.0, 2.0, 3.0), p_atm=101.325)

    def test_rejects_pressure_above_ambient(self):
        # 0.5 kPa of headroom absorbs noise; more than that is rejected
        SensorFrame(p_ch=(101.7, 96.0, 96.0, 96.0), p_atm=101.325)
        with pytest.raises(InvalidInputError):
            SensorFrame(p_ch=(101.9, 96.0, 96.0, 96.0), p_atm=101.325)

    def test_rejects_negative_pressure(self):
        with pytest.raises(InvalidInputError):
            SensorFrame(p_ch=(-0.1, 96.0, 96.0, 96.0), p_atm=101.325)


class TestVacuumPressures:
    def test_conversion(self):
        f = SensorFrame(p_ch=(91.325, 96.325, 96.325, 91.325), p_atm=101.325)
        assert vacuum_pressures(f).p == pytest.approx((10.0, 5.0, 5.0, 10.0))

    def test_slightly_negative_allowed(self):
        VacuumPressures(p=(-0.4, 0.0, 0.0, 0.0))
        with pytest.raises(InvalidInputError):
            VacuumPressures(p=(-0.6, 0.0, 0.0, 0.0))


class TestModelDirection:
    def test_x_axis_case(self):
        # chambers 1 and 4 (the +x pair) hold 2.5 kPa more than 2 and 3
        est = model_direction(VacuumPressures(p=(10.0, 5.0, 5.0, 10.0)))
        assert est.v_pred.x == pytest.approx(10.0)
        assert est.v_pred.y == pytest.approx(0.0)
        assert est.phi_pred is not None
        assert est.phi_pred.degrees == pytest.approx(0.0)

    def test_y_axis_case(self):
        est = model_direction(VacuumPressures(p=(5.0, 5.0, 7.0, 7.0)))
        assert est.v_pred.x == pytest.approx(0.0)
        assert est.v_pred.y == pytest.approx(4.0)
        assert est.phi_pred.degrees == pytest.approx(90.0)

    def test_symmetric_pressures_give_no_angle(self):
        est = model_direction(VacuumPressures(p=(6.0, 6.0, 6.0, 6.0)))
        assert est.v_pred.norm() == 0.0
        assert est.phi_pred is None

    @given(
        st.floats(min_value=0.1, max_value=5.0),
        st.floats(min_value=0.0, max_value=360.0, exclude_max=True),
        st.floats(min_value=0.0, max_value=4.0),
    )
    def test_recovers_cosine_field_exactly(self, amplitude, phi, offset):
        """P_i = c + a*cos(alpha_i - phi) on the diagonal layout -> phi back."""
        angles = (315.0, 225.0, 135.0, 45.0)
        p = tuple(
            offset + amplitude * math.cos(math.radians(a - phi)) + amplitude
            for a in angles
        )
        est = model_direction(VacuumPressures(p=p))
        assert est.phi_pred is not None
        assert angular_error(est.phi_pred, Angle(phi)) < 1e-6


class TestEstimateDirection:
    def test_full_pipeline(self):
        f = SensorFrame(p_ch=(91.325, 96.325, 96.325, 91.325), p_atm=101.325)
        est = estimate_direction(f)
        assert isinstance(est, DirectionEstimate)
        assert est.phi_pred.degrees == pytest.approx(0.0)


class TestGroundTruthPose:
    def test_rejects_negative_delta(self):
        with pytest.raises(InvalidInputError):
            GroundTruthPose(delta=-1.0, phi=Angle(0.0))

    def test_zero_delta_fine(self):
        assert GroundTruthPose(delta=0.0, phi=Angle(5.0)).delta == 0.0
