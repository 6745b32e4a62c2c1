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
from cuphaptics.core import (
    PRESSURE_TOLERANCE_KPA,
    _yaw_deg,
    direction_angle,
    frames_valid,
)

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
        # Only the frame rule bounds a chamber: p_atm + 0.5 rounds up to
        # 2**53, so SensorFrame accepts chambers at 2**53, whose gauge
        # pressure is -1 kPa, and the closed form answers the frame. Four
        # equal gauges give a zero vector and no angle.
        f = SensorFrame(p_ch=(2.0**53,) * 4, p_atm=2.0**53 - 1)
        est = estimate_direction(f)
        assert est.v_pred == (0.0, 0.0)
        assert est.phi_pred is None


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


def outcome(build, *args):
    """What ``build(*args)`` gives: ("ok", its fields as exact bits) or
    ("error", the message)."""
    try:
        value = build(*args)
    except InvalidInputError as exc:
        return "error", str(exc)
    fields = [getattr(value, f.name) for f in dataclasses.fields(value)]
    flat = [v for f in fields for v in (f if isinstance(f, tuple) else (f,))]
    return "ok", [(type(v), v.hex()) if isinstance(v, float) else v for v in flat]


# Chamber values the checks reject at p_atm = 101.325, and their messages.
BAD_CHAMBERS = [
    (math.nan, "p_ch{i} must be finite, got nan"),
    (math.inf, "p_ch{i} must be finite, got inf"),
    (-math.inf, "p_ch{i} must be finite, got -inf"),
    (-1.0, "p_ch{i} must be >= 0 kPa, got -1.0"),
    (101.9, "p_ch{i} = 101.9 kPa exceeds ambient 101.325 kPa by more than 0.5 kPa"),
]
# Values either check path takes, and values one of its comparisons rejects.
EDGE_VALUES = [math.nan, math.inf, -math.inf, -0.0, 0.0, -1e-300, 5e-324, 101.825, 101.826]


class TestValueTypeChecks:
    """``SensorFrame`` and ``GroundTruthPose`` take plain floats in range with
    one comparison each; their results and errors equal those of the
    converting checks, which a list, ints and numpy floats still take."""

    @pytest.mark.parametrize("i", [1, 2, 3, 4])
    @pytest.mark.parametrize(
        "bad, message", BAD_CHAMBERS, ids=["nan", "inf", "-inf", "neg", "high"]
    )
    def test_each_bad_chamber_is_named(self, i, bad, message):
        p_ch = [96.0] * 4
        p_ch[i - 1] = bad
        want = ("error", message.format(i=i))
        assert outcome(SensorFrame, tuple(p_ch), 101.325) == want
        assert outcome(SensorFrame, p_ch, 101.325) == want  # the converting checks

    @pytest.mark.parametrize(
        "p_atm, message",
        [
            (math.nan, "p_atm must be finite, got nan"),
            (math.inf, "p_atm must be finite, got inf"),
            (-math.inf, "p_atm must be finite, got -inf"),
            (-1.0, "p_atm must be >= 0 kPa, got -1.0"),
        ],
    )
    def test_bad_ambient_is_named_before_any_chamber(self, p_atm, message):
        for p_ch in ((96.0,) * 4, (math.nan, -1.0, math.inf, 96.0), (0.0,) * 4):
            assert outcome(SensorFrame, p_ch, p_atm) == ("error", message)

    @pytest.mark.parametrize(
        "p_ch, field",
        [
            # min() and max() of these skip the NaN or stop at it, by order.
            ((96.0, math.nan, 96.0, 96.0), "p_ch2 must be finite, got nan"),
            ((math.nan, 96.0, 96.0, 96.0), "p_ch1 must be finite, got nan"),
            ((96.0, 96.0, 96.0, math.nan), "p_ch4 must be finite, got nan"),
            # The first bad value names the error, whatever follows it.
            ((96.0, -1.0, math.nan, 200.0), "p_ch2 must be >= 0 kPa, got -1.0"),
            ((96.0, 96.0, math.inf, -1.0), "p_ch3 must be finite, got inf"),
        ],
    )
    def test_first_bad_value_names_the_error(self, p_ch, field):
        assert outcome(SensorFrame, p_ch, 101.325) == ("error", field)

    @given(
        p_ch=st.lists(st.sampled_from(EDGE_VALUES) | st.floats(), min_size=4, max_size=4),
        p_atm=st.sampled_from(EDGE_VALUES + [101.325]) | st.floats(),
    )
    def test_tuple_of_floats_equals_the_converting_checks(self, p_ch, p_atm):
        # A list, or numpy floats, take the converting checks.
        want = outcome(SensorFrame, p_ch, p_atm)
        assert outcome(SensorFrame, tuple(p_ch), p_atm) == want
        assert outcome(SensorFrame, tuple(map(np.float64, p_ch)), np.float64(p_atm)) == want

    @pytest.mark.parametrize(
        "p_ch, p_atm",
        [
            ((96, 95, 94, 93), 101),
            ([96.0, 95.0, 94.0, 93.0], 101.325),
            (tuple(np.float64([96.0, 95.0, 94.0, 93.0])), np.float64(101.325)),
            ((96.0, 95, np.float64(94.0), 93.0), 101.325),
            ((96.0, 95.0, 94.0, np.float64(93.0)), 101.325),
            ((96.0, 95.0, 94.0, 93), 101.325),
        ],
        ids=["ints", "list", "numpy", "mixed", "last-numpy", "last-int"],
    )
    def test_other_numbers_are_stored_as_a_tuple_of_floats(self, p_ch, p_atm):
        frame = SensorFrame(p_ch, p_atm)
        assert type(frame.p_ch) is tuple and type(frame.p_atm) is float
        assert [type(p) for p in frame.p_ch] == [float] * 4
        assert frame.p_ch == tuple(float(p) for p in p_ch) and frame.p_atm == float(p_atm)

    def test_negative_zero_is_kept(self):
        frame = SensorFrame((-0.0, 0.0, -0.0, 0.4), -0.0)
        signs = [math.copysign(1.0, v) for v in (*frame.p_ch, frame.p_atm)]
        assert signs == [-1.0, 1.0, -1.0, 1.0, -1.0]
        assert math.copysign(1.0, GroundTruthPose(-0.0, Angle(0.0)).delta) == -1.0

    @pytest.mark.parametrize(
        "delta, want",
        [
            (math.nan, ("error", "delta must be finite, got nan")),
            (math.inf, ("error", "delta must be finite, got inf")),
            (-1.0, ("error", "delta must be >= 0 mm, got -1.0")),
            (3, ("ok", [(float, (3.0).hex()), Angle(1.0)])),
            (np.float64(2.5), ("ok", [(float, (2.5).hex()), Angle(1.0)])),
            (2.5, ("ok", [(float, (2.5).hex()), Angle(1.0)])),
        ],
    )
    def test_pose_delta(self, delta, want):
        assert outcome(GroundTruthPose, delta, Angle(1.0)) == want


class TestDirectionChecks:
    """``estimate_direction`` answers every frame ``SensorFrame`` accepts,
    names the first non-finite vector component, and decodes a finite
    vector as ``direction_angle`` does."""

    @pytest.mark.parametrize("i", [1, 2, 3, 4])
    def test_each_low_gauge_pressure_is_named(self, i):
        # p_atm + 0.5 rounds up to 2**53, so a chamber at 2**53 is accepted
        # and its gauge pressure of -1 kPa enters the sums like any other.
        p_ch = [2.0**53 - 1] * 4
        p_ch[i - 1] = 2.0**53
        frame = SensorFrame(tuple(p_ch), 2.0**53 - 1)
        p1, p2, p3, p4 = [-1.0 if k == i else 0.0 for k in (1, 2, 3, 4)]
        x, y = (p1 + p4) - (p2 + p3), (p3 + p4) - (p1 + p2)
        est = estimate_direction(frame)
        assert [v.hex() for v in est.v_pred] == [x.hex(), y.hex()]
        assert est.phi_pred == Angle({1: 135.0, 2: 45.0, 3: 315.0, 4: 225.0}[i])

    @pytest.mark.parametrize(
        "vacuum, message",
        [
            ((0.9e308, 0.0, 0.0, 0.9e308), "vector x must be finite, got inf"),
            ((0.0, 0.0, 0.9e308, 0.9e308), "vector y must be finite, got inf"),
            ((0.0, 0.9e308, 0.9e308, 0.0), "vector x must be finite, got -inf"),
        ],
    )
    def test_one_overflowing_component_is_named(self, vacuum, message):
        # One pair sum overflows; the other component stays finite.
        frame = gauge_frame(*vacuum, p_atm=1.7e308)
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            estimate_direction(frame)

    @given(
        x=st.floats() | st.sampled_from([-0.0, 0.0, -1e-300, 1e-9, -5e-324, math.nan, math.inf]),
        y=st.floats() | st.sampled_from([-0.0, 0.0, -1e-300, 1e-9, -5e-324, math.nan, -math.inf]),
    )
    def test_finite_decode_equals_direction_angle(self, x, y):
        # direction_angle's unchecked Angle equals the checked one of its yaw,
        # which is NaN or finite for every input, NaN and +-inf included.
        deg = _yaw_deg(x, y)
        got, want = direction_angle(x, y), None if math.isnan(deg) else Angle(deg)
        assert (got is None) == (want is None)
        if got is not None:
            assert type(got) is Angle and got.degrees.hex() == want.degrees.hex()
