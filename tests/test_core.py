import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cuphaptics import (
    Angle,
    DirectionEstimate,
    GroundTruthPose,
    InvalidInputError,
    LabeledSample,
    PredictionPair,
    SensorFrame,
    angular_error,
    angular_errors,
    estimate_direction,
)
from cuphaptics.core import PRESSURE_TOLERANCE_KPA, frames_valid

finite_angles = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


class TestAngle:
    def test_wraps_into_range(self):
        assert Angle(370.0).degrees == pytest.approx(10.0)
        assert Angle(-90.0).degrees == pytest.approx(270.0)
        assert Angle(720.0).degrees == 0.0

    def test_tiny_negative_does_not_round_to_360(self):
        # fmod of -1e-15 % 360 rounds up to exactly 360.0 in float64
        assert Angle(-1e-15).degrees == 0.0

    @given(finite_angles)
    def test_always_in_half_open_range(self, raw):
        a = Angle(raw)
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
        x, y = Angle(a), Angle(b)
        e = angular_error(x, y)
        assert e == angular_error(y, x)
        assert 0.0 <= e <= 180.0

    @given(finite_angles)
    def test_self_distance_zero(self, a):
        assert angular_error(Angle(a), Angle(a)) == 0.0

    def test_elementwise_matches_scalar(self):
        pred = [350.0, 30.0, 0.0, 179.5, 10.0]
        true = [10.0, 90.0, 180.0, 359.5, 10.0]
        errs = angular_errors(np.array(pred), np.array(true))
        assert errs.shape == (5,)
        assert list(errs) == [
            angular_error(Angle(p), Angle(t)) for p, t in zip(pred, true)
        ]
        assert list(errs) == pytest.approx([20.0, 60.0, 180.0, 180.0, 0.0])


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


@st.composite
def pressure_table(draw):
    """(n, 4) chamber pressures and their (n,) ambients: plain values, NaN,
    +-inf, negatives, and values at or just past p_atm + the tolerance."""
    n = draw(st.integers(1, 6))
    special = [math.nan, math.inf, -math.inf, -0.0, -1e-300, -1.0]
    p_atm = [draw(st.sampled_from(special) | st.floats(0.0, 200.0)) for _ in range(n)]
    rows = []
    for a in p_atm:
        bound = a + PRESSURE_TOLERANCE_KPA
        edge = [bound, math.nextafter(bound, math.inf), math.nextafter(bound, -math.inf)]
        value = st.sampled_from(special + edge) | st.floats(0.0, 210.0)
        rows.append([draw(value) for _ in range(4)])
    return np.array(rows), np.array(p_atm)


def frame_accepted(p_ch, p_atm) -> bool:
    try:
        SensorFrame(p_ch=tuple(p_ch), p_atm=p_atm)
    except InvalidInputError:
        return False
    return True


class TestFramesValid:
    """``frames_valid`` is ``SensorFrame``'s rule, a row at a time."""

    @given(pressure_table())
    def test_column_ambient_matches_sensor_frame(self, table):
        p_ch, p_atm = table
        want = [frame_accepted(row, a) for row, a in zip(p_ch.tolist(), p_atm.tolist())]
        assert frames_valid(p_ch, p_atm[:, None]).tolist() == want

    @given(pressure_table())
    def test_scalar_ambient_matches_sensor_frame(self, table):
        p_ch, p_atm = table
        a = float(p_atm[0])
        assert frames_valid(p_ch, a).tolist() == [frame_accepted(row, a) for row in p_ch.tolist()]


def gauge_frame(*vacuum, p_atm=20.0):
    """The frame whose gauge pressures p_atm - p_ch_i are ``vacuum``."""
    return SensorFrame(p_ch=tuple(p_atm - v for v in vacuum), p_atm=p_atm)


class TestVacuumPressures:
    """The gauge pressures ``estimate_direction`` takes from a frame."""

    def test_conversion(self):
        f = SensorFrame(p_ch=(91.325, 96.325, 96.325, 91.325), p_atm=101.325)
        x, y = estimate_direction(f).v_pred
        assert (x, y) == pytest.approx((10.0, 0.0))

    def test_slightly_negative_allowed(self):
        # p_ch1 sits 0.4 kPa above ambient: within the noise tolerance
        est = estimate_direction(gauge_frame(-0.4, 0.0, 0.0, 0.0))
        assert est.v_pred == pytest.approx((-0.4, 0.4))

    def test_below_tolerance_is_rejected(self):
        # p_atm + 0.5 rounds up to 2**53, so SensorFrame accepts chambers at
        # 2**53, whose gauge pressure is -1 kPa.
        f = SensorFrame(p_ch=(2.0**53,) * 4, p_atm=2.0**53 - 1)
        message = "vacuum p1 = -1.0 kPa is below the -0.5 kPa noise tolerance"
        with pytest.raises(InvalidInputError, match=re.escape(message)):
            estimate_direction(f)


class TestModelDirection:
    def test_x_axis_case(self):
        # chambers 1 and 4 (the +x pair) hold 2.5 kPa more than 2 and 3
        est = estimate_direction(gauge_frame(10.0, 5.0, 5.0, 10.0))
        assert est.v_pred == (10.0, 0.0)
        assert est.phi_pred is not None
        assert est.phi_pred.degrees == 0.0

    def test_y_axis_case(self):
        est = estimate_direction(gauge_frame(5.0, 5.0, 7.0, 7.0))
        assert est.v_pred == (0.0, 4.0)
        assert est.phi_pred.degrees == 90.0

    def test_symmetric_pressures_give_no_angle(self):
        est = estimate_direction(gauge_frame(6.0, 6.0, 6.0, 6.0))
        assert est.v_pred == (0.0, 0.0)
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
        est = estimate_direction(gauge_frame(*p, p_atm=101.325))
        assert est.phi_pred is not None
        assert angular_error(est.phi_pred, Angle(phi)) < 1e-6


class TestEstimateDirection:
    def test_full_pipeline(self):
        f = SensorFrame(p_ch=(91.325, 96.325, 96.325, 91.325), p_atm=101.325)
        est = estimate_direction(f)
        assert isinstance(est, DirectionEstimate)
        assert est.phi_pred.degrees == pytest.approx(0.0)

    def test_vector_that_overflows_is_rejected(self):
        # Each pair sum overflows to inf, so x = inf - inf is NaN.
        f = SensorFrame(p_ch=(0.0, 0.0, 0.0, 0.0), p_atm=1.7e308)
        with pytest.raises(InvalidInputError, match="vector x must be finite, got nan"):
            estimate_direction(f)


class TestGroundTruthPose:
    def test_rejects_negative_delta(self):
        with pytest.raises(InvalidInputError):
            GroundTruthPose(delta=-1.0, phi=Angle(0.0))

    def test_zero_delta_fine(self):
        assert GroundTruthPose(delta=0.0, phi=Angle(5.0)).delta == 0.0


def per_row_values():
    """One instance of each per-row value type, and a field value to replace."""
    frame = SensorFrame(p_ch=(91.3, 96.3, 96.2, 91.4), p_atm=101.325)
    pose = GroundTruthPose(delta=9.5, phi=Angle(123.0))
    cases = [
        (Angle(370.0), "degrees", 20.0),
        (frame, "p_atm", 102.0),
        (pose, "delta", 1.0),
        (DirectionEstimate(v_pred=(1.0, 0.0), phi_pred=Angle(0.0)), "phi_pred", None),
        (LabeledSample(frame=frame, pose=pose), "pose", GroundTruthPose(0.0, Angle(1.0))),
        (PredictionPair(phi_true=Angle(1.0), phi_pred=None), "phi_pred", Angle(2.0)),
    ]
    return [pytest.param(*case, id=type(case[0]).__name__) for case in cases]


@pytest.mark.parametrize("value, field, other", per_row_values())
class TestPerRowValueTypes:
    def test_slotted_without_instance_dict(self, value, field, other):
        assert not hasattr(value, "__dict__")
        assert "__slots__" in vars(type(value))

    def test_assignment_is_refused(self, value, field, other):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, field, other)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(value, field)
        # A new name is refused too; for a frozen slotted dataclass CPython
        # (3.10 to 3.13) raises TypeError from the frozen __setattr__ there.
        with pytest.raises((dataclasses.FrozenInstanceError, TypeError)):
            value.extra = 1

    def test_equality_hash_and_replace(self, value, field, other):
        twin = dataclasses.replace(value)
        assert twin == value and twin is not value
        assert hash(twin) == hash(value)
        changed = dataclasses.replace(value, **{field: other})
        assert changed != value
        assert dataclasses.replace(changed, **{field: getattr(value, field)}) == value


class TestAngleConstruction:
    @pytest.mark.parametrize(
        "bad, message",
        [
            ("x", "angle must be a real number, got 'x'"),
            (math.inf, "angle must be finite, got inf"),
            (math.nan, "angle must be finite, got nan"),
        ],
    )
    def test_error_texts(self, bad, message):
        with pytest.raises(InvalidInputError) as exc_info:
            Angle(bad)
        assert str(exc_info.value) == message

    def test_tiny_negative_wraps_to_zero_not_360(self):
        assert Angle(-1e-300).degrees == 0.0
        assert dataclasses.replace(Angle(5.0), degrees=-1e-300).degrees == 0.0

    def test_keyword_and_positional_forms_agree(self):
        assert Angle(degrees=-90) == Angle(-90) == Angle(270.0)
        assert type(Angle(np.float64(12.5)).degrees) is float
