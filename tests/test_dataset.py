import csv
import itertools
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from cuphaptics import (
    Angle,
    BatchRow,
    ConfigError,
    CsvParseError,
    CupGeometry,
    DegenerateChannelError,
    FeatureStats,
    GenerationConfig,
    GroundTruthPose,
    InvalidInputError,
    LabeledSample,
    PressureFieldParams,
    Samples,
    SensorFrame,
    SplitSpec,
    feature_stats,
    evaluate_model_based,
    export_scatter,
    generate_dataset,
    read_csv,
    split,
    write_batch_csv,
    write_csv,
)
import cuphaptics
from cuphaptics.dataset import (
    BLOCK_ROWS,
    CSV_COLUMNS,
    _cell_tables,
    _csv_rows,
    _format_block,
    _rows_ok,
    write_table,
)
from cuphaptics.mlp import _model_inputs, init_model
from helpers import first_bad_row_error, samples_of

HEADER = "p_ch1_kpa,p_ch2_kpa,p_ch3_kpa,p_ch4_kpa,p_atm_kpa,delta_mm,phi_deg"
GOOD_ROW = "91.3,96.3,96.2,91.4,101.325,9.5,123"
# Values whose 9-digit text is easy to get wrong: signed zero, the smallest
# subnormal, a value past float's exact integers, a sum that prints long,
# and a yaw just below the wrap that prints as 360.
TRICKY = (-0.0, 5e-324, 1e16, 0.1 + 0.2, 359.9999999996)


def per_cell_bytes(columns, rows):
    """The CSV bytes of the per-cell rule: strings as given, numbers as .9g."""
    lines = [",".join(columns)] + [
        ",".join(v if isinstance(v, str) else format(float(v), ".9g") for v in row)
        for row in rows
    ]
    return ("\n".join(lines) + "\n").encode("utf-8")


# Cells the numpy formatter prints itself: signed zeros, carries into the
# next decade (9.9999999996 prints as 10, 99999999.96 as 100000000, and
# 0.000099999999996 as 0.0001), and the neighbours of powers of ten.
POWERS = [float(f"1e{k}") for k in range(-4, 9)]
KERNEL_CELLS = (
    0.0,
    -0.0,
    9.9999999996,
    -99999999.96,
    0.000099999999996,
    999999999.4,
    *(np.nextafter(p, to) * sign for p in POWERS for to in (0.0, math.inf) for sign in (1, -1)),
    *POWERS,
)
# Cells it leaves to the %-format: ties at the ninth digit, exact or within
# 1e-6 (99999999.95 is 99999999.9500000030 and prints as 100000000; the
# float64 product of 0.1234567895 and 1e9 is a tie, its exact one is not,
# and it prints as 0.123456789), values printed with an exponent
# (subnormals among them, and 999999999.5 and the float below 1e9, which
# round up to 1e+09), and inf and NaN.
PERCENT_CELLS = (
    123456789.5,
    -0.1234567895,
    99999999.95,
    1.5e-323,
    -2.2250738585072014e-308,
    np.nextafter(1e-4, 0.0) / 2,
    9.99999999e-5,
    999999999.5,
    np.nextafter(1e9, 0.0),
    1e9,
    1e16,
    math.inf,
    -math.inf,
    math.nan,
)


def near_tie(value):
    """Whether ``value``'s digits after its ninth significant one lie within
    1.1e-6 (in units of the ninth digit) of a half: exactly, in decimal."""
    exact = abs(Decimal(value))
    if not exact:
        return False
    shifted = exact.scaleb(8 - exact.adjusted())
    return abs(shifted % 1 - Decimal("0.5")) < Decimal("1.1e-6")


def write_rows(path, *rows):
    path.write_text("\n".join([HEADER, *rows]) + "\n", encoding="utf-8")
    return path


def row_at(p_ch3=96.2, p_atm=101.325, delta=9.5, phi=123.0):
    """GOOD_ROW's values as a table row, with these cells in place of its own."""
    return [91.3, 96.3, p_ch3, 91.4, p_atm, delta, phi]


def make_sample(p_ch=(91.3, 96.3, 96.2, 91.4), p_atm=101.325, delta=9.5, phi=123.0):
    return LabeledSample(
        frame=SensorFrame(p_ch=p_ch, p_atm=p_atm),
        pose=GroundTruthPose(delta=delta, phi=Angle(phi)),
    )


def small_samples(n=12, seed=7):
    return generate_dataset(
        CupGeometry(), PressureFieldParams(), GenerationConfig(n_samples=n, seed=seed)
    )


class TestSamples:
    def test_int_index_builds_the_row(self):
        samples = samples_of([make_sample(delta=1.0), make_sample(delta=2.0, phi=7.5)])
        assert samples[0] == make_sample(delta=1.0)
        assert samples[1] == make_sample(delta=2.0, phi=7.5)
        assert samples[np.int64(1)] == samples[1]

    def test_negative_index_counts_from_the_end(self):
        samples = small_samples()
        assert samples[-1] == samples[len(samples) - 1]
        assert samples[-len(samples)] == samples[0]

    @pytest.mark.parametrize("offset", [0, 5])
    def test_index_past_either_end_raises(self, offset):
        samples = small_samples()
        with pytest.raises(IndexError):
            samples[len(samples) + offset]
        with pytest.raises(IndexError):
            samples[-len(samples) - 1 - offset]

    def test_slice_gives_samples(self):
        samples = small_samples()
        part = samples[2:5]
        assert isinstance(part, Samples)
        assert len(part) == 3
        assert np.array_equal(part.table, samples.table[2:5])
        assert part[0] == samples[2]

    def test_index_array_gives_samples_in_that_order(self):
        samples = small_samples()
        picked = samples[np.array([4, 0, 4])]
        assert isinstance(picked, Samples)
        assert [picked[i] for i in range(3)] == [samples[4], samples[0], samples[4]]

    def test_iteration_yields_every_row_in_order(self):
        samples = small_samples()
        assert list(samples) == [samples[i] for i in range(len(samples))]

    def test_columns_are_views_in_csv_order(self):
        samples = small_samples()
        assert np.shares_memory(samples.p_ch, samples.table)
        assert np.array_equal(samples.p_ch[3], samples[3].frame.p_ch)
        assert np.shares_memory(samples.p_atm, samples.table)
        assert samples.p_atm.tolist() == [[s.frame.p_atm] for s in samples]
        assert np.array_equal(samples.phi_deg, [s.pose.phi.degrees for s in samples])
        assert samples.table.flags.c_contiguous

    def test_table_is_read_only(self):
        samples = small_samples()
        columns = (samples.p_ch, samples.p_atm, samples.phi_deg)
        for view in (samples.table, *columns, samples[1:].table):
            with pytest.raises(ValueError):
                view[0] = 0.0

    def test_equality_is_identity_not_elementwise(self):
        samples = small_samples()
        assert samples == samples
        assert samples != Samples(samples.table)

    @pytest.mark.parametrize(
        "table",
        [
            np.zeros((3, 6)),
            np.zeros((3, 8)),
            np.zeros(7),
            np.zeros((2, 3, 7)),
            np.zeros((3, 7), dtype=np.float32),
            np.zeros((3, 7), dtype=np.int64),
            [[0.0] * 7],
        ],
        ids=["6-cols", "8-cols", "1-d", "3-d", "float32", "int64", "list"],
    )
    def test_rejects_a_bad_table(self, table):
        with pytest.raises(InvalidInputError):
            Samples(table)

    @pytest.mark.parametrize(
        "table, got",
        [
            ([[0.0] * 7], "list"),
            ([[1.0] * 7, [1.0]], "list"),  # ragged: no numpy error from the message
            (np.zeros((3, 7), dtype=np.float32), "float32 of shape (3, 7)"),
        ],
        ids=["list", "ragged-list", "float32"],
    )
    def test_a_bad_table_is_named_by_what_it_is(self, table, got):
        with pytest.raises(InvalidInputError) as exc_info:
            Samples(table)
        want = f"samples table must be a float64 array of shape (n, 7), got {got}"
        assert str(exc_info.value) == want

    @pytest.mark.parametrize(
        "rows, message",
        [
            ([row_at(phi=400.0), row_at(delta=-3.0)],
             "row 0: phi_deg must be in [0, 360], got 400.0"),
            ([row_at(), row_at(delta=-3.0)], "row 1: delta must be >= 0 mm, got -3.0"),
            ([row_at(p_atm=-1.0)], "row 0: p_atm must be >= 0 kPa, got -1.0"),
            ([row_at(p_ch3=150.0)],
             "row 0: p_ch3 = 150.0 kPa exceeds ambient 101.325 kPa by more than 0.5 kPa"),
            ([row_at(delta=math.inf)], "row 0: delta must be finite, got inf"),
            ([row_at(phi=-1e-300)], "row 0: phi_deg must be in [0, 360], got -1e-300"),
        ],
        ids=["yaw-and-offset", "offset", "ambient", "chamber", "infinite-offset", "tiny-negative-yaw"],
    )
    def test_refuses_the_first_row_a_frame_or_pose_refuses(self, rows, message):
        # The rule read_csv applies to a file, with its message for that row.
        with pytest.raises(InvalidInputError) as exc_info:
            Samples(np.array(rows))
        assert str(exc_info.value) == message

    def test_yaws_are_held_as_angle_stores_them_on_a_copy(self):
        table = small_samples().table.copy()
        assert not np.shares_memory(Samples(table).table, table)  # a caller's table is copied
        table[[1, 4], 6] = [360.0, -0.0]
        samples = Samples(table)
        assert not np.shares_memory(samples.table, table)
        assert [f"{v!r}" for v in samples.phi_deg[[1, 4]]] == ["np.float64(0.0)"] * 2
        assert [f"{v!r}" for v in table[[1, 4], 6].tolist()] == ["360.0", "-0.0"]
        kept = np.delete(samples.table, [1, 4], axis=0)
        assert np.array_equal(kept, np.delete(table, [1, 4], axis=0))

    def test_rows_cut_from_a_checked_table_are_not_checked_again(self, monkeypatch):
        samples = small_samples(n=20)

        def no_check(table):
            raise AssertionError("a cut table was checked again")

        monkeypatch.setattr(cuphaptics.dataset, "_rows_ok", no_check)
        parts = [samples[2:9], samples[np.array([3, 3, 0])], samples[samples.phi_deg > 180.0]]
        parts += split(samples, SplitSpec(seed=1))
        for part in parts:
            assert isinstance(part, Samples) and not part.table.flags.writeable
        with pytest.raises(AssertionError, match="checked again"):
            Samples(samples.table)

    def test_read_csv_checks_the_rows_once(self, tmp_path, monkeypatch):
        write_csv(small_samples(), tmp_path / "d.csv")
        calls, rows_ok = [], cuphaptics.dataset._rows_ok

        def counted(table):
            calls.append(len(table))
            return rows_ok(table)

        monkeypatch.setattr(cuphaptics.dataset, "_rows_ok", counted)
        assert len(read_csv(tmp_path / "d.csv")) == 12
        assert calls == [12]



class TestSamplesOwnsItsTable:
    """A ``Samples`` holds a table no caller can write: the caller's array is
    copied, and a table handed over with ``Samples._adopt`` is kept only where
    it owns its data. ``generate_dataset`` and ``read_csv`` hand over the arrays
    ``np.column_stack`` and ``np.loadtxt`` built, without a copy."""

    @pytest.mark.parametrize("read_only_view", [False, True], ids=["array", "read-only-view"])
    def test_writes_to_the_callers_array_leave_it_as_checked(self, tmp_path, read_only_view):
        table = np.array([row_at(phi=40.0), row_at(delta=3.0)])
        given = table.view() if read_only_view else table
        given.flags.writeable = not read_only_view
        samples = Samples(given)
        checked = samples.table.copy()
        table[0, 6], table[1, 0] = 400.0, 500.0  # a yaw and a chamber the rule refuses
        assert np.array_equal(samples.table, checked)
        assert samples.phi_deg[0] == 40.0 and samples[0].pose.phi == Angle(40.0)
        write_csv(samples, tmp_path / "d.csv")
        assert np.array_equal(read_csv(tmp_path / "d.csv").table, checked)
        assert [p.phi_true for p in evaluate_model_based(samples)] == [Angle(40.0), Angle(123.0)]

    def test_a_handed_over_table_is_kept_where_it_owns_its_data(self):
        owner = np.array([row_at(), row_at(phi=360.0)])
        samples = Samples._adopt(owner)
        assert samples.table is owner and not owner.flags.writeable
        assert samples.phi_deg.tolist() == [123.0, 0.0]  # Angle's rule, in place
        base = np.array([row_at(), row_at()])
        samples = Samples._adopt(base[:1])  # a view: its base may be written
        base[0, 6] = 400.0
        assert samples.phi_deg.tolist() == [123.0]

    def test_generate_and_read_csv_hand_over_the_table_numpy_built(self, tmp_path, monkeypatch):
        built = []

        def recorded(make):
            return lambda *args, **kwargs: built.append(make(*args, **kwargs)) or built[-1]

        monkeypatch.setattr(np, "column_stack", recorded(np.column_stack))
        monkeypatch.setattr(np, "loadtxt", recorded(np.loadtxt))
        samples = small_samples()
        assert samples.table is built[-1]
        write_csv(samples, tmp_path / "d.csv")
        assert read_csv(tmp_path / "d.csv").table is built[-1]
        assert [table.flags.owndata for table in built] == [True, True]

    def test_a_table_of_any_layout_is_copied_once(self):
        table = np.tile(row_at(), (50_000, 1))  # 2.8 MB
        layouts = {"fortran": np.asfortranarray(table), "strided": np.repeat(table, 2, 0)[::2]}
        peaks = {}
        for name, given in {"c": table, **layouts}.items():
            tracemalloc.start()
            try:
                held = Samples(given).table
                peaks[name] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert held.flags.c_contiguous and np.array_equal(held, table)
        # The copy and the row check's columns; a second copy adds 2.8 MB.
        for name in layouts:
            assert peaks[name] < peaks["c"] + table.nbytes / 4, peaks


class TestCsvRoundTrip:
    def test_header_exact(self, tmp_path):
        path = tmp_path / "d.csv"
        write_csv(samples_of([make_sample()]), path)
        first_line = path.read_text(encoding="utf-8").splitlines()[0]
        assert first_line == HEADER

    def test_lf_line_endings(self, tmp_path):
        path = tmp_path / "d.csv"
        write_csv(samples_of([make_sample()]), path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")

    def test_round_trip_synthetic_set(self, tmp_path):
        samples = generate_dataset(
            CupGeometry(),
            PressureFieldParams(),
            GenerationConfig(n_samples=400, seed=5),
        )
        path = tmp_path / "d.csv"
        write_csv(samples, path)
        loaded = read_csv(path)
        assert len(loaded) == len(samples)
        # 9 significant digits bound the relative error by half a unit in
        # the ninth digit, i.e. 5e-9.
        for a, b in zip(samples, loaded):
            for x, y in zip(a.frame.p_ch, b.frame.p_ch):
                assert y == pytest.approx(x, rel=5e-9)
            assert b.frame.p_atm == pytest.approx(a.frame.p_atm, rel=5e-9)
            assert b.pose.delta == pytest.approx(a.pose.delta, rel=5e-9)
            assert b.pose.phi.degrees == pytest.approx(
                a.pose.phi.degrees, rel=5e-9, abs=1e-6
            )
        # a second serialization is a fixed point: nothing drifts further
        again = tmp_path / "again.csv"
        write_csv(loaded, again)
        assert again.read_bytes() == path.read_bytes()

    @settings(max_examples=50)
    @given(
        phi=st.floats(min_value=0.0, max_value=360.0, exclude_max=True),
        delta=st.floats(min_value=0.0, max_value=29.0),
        vac=st.floats(min_value=0.0, max_value=10.0),
    )
    def test_round_trip_property(self, tmp_path_factory, phi, delta, vac):
        sample = make_sample(
            p_ch=(101.325 - vac, 96.0, 95.0, 94.0), delta=delta, phi=phi
        )
        path = tmp_path_factory.mktemp("csv") / "one.csv"
        write_csv(samples_of([sample]), path)
        (loaded,) = read_csv(path)
        assert loaded.pose.delta == pytest.approx(delta, rel=1e-8, abs=1e-9)
        # an exact 360.0 print artifact must wrap back to 0
        err = abs(loaded.pose.phi.degrees - phi)
        assert min(err, 360.0 - err) < 1e-6

    def test_header_only_file_reads_empty(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text(HEADER + "\n", encoding="utf-8")
        assert len(read_csv(path)) == 0

    def test_negative_zero_phi_reads_as_positive_zero(self, tmp_path):
        path = write_rows(tmp_path / "z.csv", "91.3,96.3,96.2,91.4,101.325,9.5,-0")
        loaded = read_csv(path)
        assert math.copysign(1.0, loaded.phi_deg[0]) == 1.0
        assert math.copysign(1.0, loaded[0].pose.phi.degrees) == 1.0

    def test_boundary_values_are_accepted(self, tmp_path):
        # Each bound is inclusive: no chamber vacuum, a chamber at ambient
        # plus the tolerance, zero ambient, zero offset, yaw 0 and 360.
        path = write_rows(
            tmp_path / "edge.csv",
            "0,0,0,0,0,0,0",
            "101.825,0,101.825,0,101.325,0,360",
            "0.5,0.5,0.5,0.5,0,0,360",
        )
        loaded = read_csv(path)
        assert loaded.table.tolist() == [
            [0.0] * 7,
            [101.825, 0.0, 101.825, 0.0, 101.325, 0.0, 0.0],
            [0.5, 0.5, 0.5, 0.5, 0.0, 0.0, 0.0],
        ]

    def test_blank_lines_are_skipped(self, tmp_path):
        path = write_rows(tmp_path / "gaps.csv", GOOD_ROW, "", GOOD_ROW, "")
        assert len(read_csv(path)) == 2

    def test_phi_exactly_360_wraps_to_zero(self, tmp_path):
        path = tmp_path / "wrap.csv"
        path.write_text(
            HEADER + "\n91.3,96.3,96.2,91.4,101.325,9.5,360\n", encoding="utf-8"
        )
        (sample,) = read_csv(path)
        assert sample.pose.phi.degrees == 0.0


class TestCsvRejection:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "none.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(CsvParseError):
            read_csv(path)

    def test_wrong_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n", encoding="utf-8")
        with pytest.raises(CsvParseError, match="header"):
            read_csv(path)

    def test_nan_cell_names_row_and_column(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text(
            HEADER + "\nNaN,96.3,96.2,91.4,101.325,9.5,123\n", encoding="utf-8"
        )
        with pytest.raises(CsvParseError) as exc_info:
            read_csv(path)
        assert exc_info.value.line == 2
        assert exc_info.value.column == "p_ch1_kpa"

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "junk.csv"
        path.write_text(
            HEADER + "\n91.3,96.3,96.2,91.4,101.325,what,123\n", encoding="utf-8"
        )
        with pytest.raises(CsvParseError, match="delta_mm"):
            read_csv(path)

    def test_missing_column(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text(HEADER + "\n91.3,96.3,96.2,91.4,101.325,9.5\n", encoding="utf-8")
        with pytest.raises(CsvParseError, match="columns"):
            read_csv(path)

    def test_extra_column(self, tmp_path):
        path = tmp_path / "long.csv"
        path.write_text(
            HEADER + "\n91.3,96.3,96.2,91.4,101.325,9.5,123,extra\n", encoding="utf-8"
        )
        with pytest.raises(CsvParseError, match="columns"):
            read_csv(path)

    def test_phi_out_of_range(self, tmp_path):
        path = tmp_path / "phi.csv"
        path.write_text(
            HEADER + "\n91.3,96.3,96.2,91.4,101.325,9.5,361\n", encoding="utf-8"
        )
        with pytest.raises(CsvParseError, match="phi_deg"):
            read_csv(path)

    def test_violated_frame_invariant_reports_line(self, tmp_path):
        # chamber pressure far above ambient
        path = tmp_path / "inv.csv"
        path.write_text(
            HEADER + "\n150.0,96.3,96.2,91.4,101.325,9.5,123\n", encoding="utf-8"
        )
        with pytest.raises(CsvParseError, match="line 2"):
            read_csv(path)


    @pytest.mark.parametrize(
        "row, message",
        [
            ("91.3,96.3,96.2,91.4,-1,9.5,123", "p_atm must be >= 0 kPa, got -1.0 (line 2)"),
            (
                "91.3,-0.5,96.2,91.4,101.325,9.5,123",
                "p_ch2 must be >= 0 kPa, got -0.5 (line 2)",
            ),
            (
                "91.3,96.3,150,91.4,101.325,9.5,123",
                "p_ch3 = 150.0 kPa exceeds ambient 101.325 kPa by more than 0.5 kPa (line 2)",
            ),
            (
                "91.3,96.3,96.2,101.826,101.325,9.5,123",
                "p_ch4 = 101.826 kPa exceeds ambient 101.325 kPa by more than 0.5 kPa "
                "(line 2)",
            ),
            (
                "91.3,96.3,96.2,91.4,101.325,-1e-300,123",
                "delta must be >= 0 mm, got -1e-300 (line 2)",
            ),
            (
                "91.3,96.3,96.2,91.4,101.325,9.5,360.0000001",
                "phi_deg must be in [0, 360], got 360.0000001 (line 2, column 'phi_deg')",
            ),
            (
                "91.3,96.3,96.2,91.4,101.325,9.5,-1",
                "phi_deg must be in [0, 360], got -1.0 (line 2, column 'phi_deg')",
            ),
            (
                "NaN,96.3,96.2,91.4,101.325,9.5,123",
                "non-finite value 'NaN' (line 2, column 'p_ch1_kpa')",
            ),
            (
                "91.3,96.3,96.2,91.4,+Infinity,9.5,123",
                "non-finite value '+Infinity' (line 2, column 'p_atm_kpa')",
            ),
            (
                "91.3,96.3,96.2,91.4,101.325,9.5, nan ",
                "non-finite value ' nan ' (line 2, column 'phi_deg')",
            ),
            (
                "91.3,96.3,96.2,91.4,101.325,what,123",
                "expected a number, got 'what' (line 2, column 'delta_mm')",
            ),
            ("91.3,96.3,96.2,91.4,101.325,9.5", "expected 7 columns, got 6 (line 2)"),
            ("91.3,96.3,96.2,91.4,101.325,9.5,1,2", "expected 7 columns, got 8 (line 2)"),
            ('""', "expected 7 columns, got 1 (line 2)"),
        ],
        ids=[
            "p_atm-negative",
            "p_ch-negative",
            "p_ch-above-ambient",
            "p_ch-just-above-tolerance",
            "delta-negative",
            "phi-above-360",
            "phi-negative",
            "nan",
            "inf",
            "nan-with-spaces",
            "not-a-number",
            "6-columns",
            "8-columns",
            "1-column",
        ],
    )
    def test_message_text_is_exact(self, tmp_path, row, message):
        with pytest.raises(CsvParseError) as exc_info:
            read_csv(write_rows(tmp_path / "first.csv", row))
        assert str(exc_info.value) == message
        # The same row after a good one reports the next line.
        with pytest.raises(CsvParseError) as exc_info:
            read_csv(write_rows(tmp_path / "second.csv", GOOD_ROW, row))
        assert str(exc_info.value) == message.replace("line 2", "line 3")

    @pytest.mark.parametrize(
        "bad, line",
        [
            (
                {3: "150,96.3,96.2,91.4,101.325,9.5,123", 5: "x,1,1,1,1,1,1", 6: "1,1,1,1,1,1"},
                3,
            ),
            ({3: "1,1,1,1,1,1", 5: "150,96.3,96.2,91.4,101.325,9.5,123"}, 3),
            ({4: "x,1,1,1,1,1,1", 6: "91.3,96.3,96.2,91.4,101.325,-2,123"}, 4),
            ({5: "91.3,96.3,96.2,91.4,101.325,9.5,400", 6: "NaN,1,1,1,1,1,1"}, 5),
            ({6: "inf,96.3,96.2,91.4,101.325,9.5,123", 7: "91.3,96.3,96.2,91.4,-1,9.5,1"}, 6),
        ],
        ids=[
            "invariant-before-parse",
            "columns-first",
            "parse-first",
            "phi-first",
            "inf-first",
        ],
    )
    def test_earliest_bad_line_wins(self, tmp_path, bad, line):
        rows = [bad.get(i, GOOD_ROW) for i in range(2, 9)]
        with pytest.raises(CsvParseError) as exc_info:
            read_csv(write_rows(tmp_path / "mixed.csv", *rows))
        assert exc_info.value.line == line

    def test_bad_row_after_blank_line_reports_its_file_line(self, tmp_path):
        path = write_rows(
            tmp_path / "gap.csv", GOOD_ROW, "", "", "91.3,96.3,96.2,91.4,101.325,-1,123"
        )
        with pytest.raises(CsvParseError) as exc_info:
            read_csv(path)
        assert exc_info.value.line == 5
        assert str(exc_info.value) == "delta must be >= 0 mm, got -1.0 (line 5)"

    def test_records_with_a_quoted_line_break_report_file_lines(self, tmp_path):
        # The first record spans lines 2 and 3 (a quoted cell holds a line
        # break), so the bad record after it starts on line 4.
        spanning = '"91.3\n",96.3,96.2,91.4,101.325,9.5,123'
        bad = "91.3,96.3,96.2,91.4,101.325,-1,123"
        with pytest.raises(CsvParseError) as exc_info:
            read_csv(write_rows(tmp_path / "after.csv", spanning, bad))
        assert str(exc_info.value) == "delta must be >= 0 mm, got -1.0 (line 4)"
        # A bad record that spans lines names the line it starts on.
        spanning_bad = spanning.replace("9.5", "-1")
        with pytest.raises(CsvParseError) as exc_info:
            read_csv(write_rows(tmp_path / "spans.csv", GOOD_ROW, spanning_bad, GOOD_ROW))
        assert str(exc_info.value) == "delta must be >= 0 mm, got -1.0 (line 3)"

    def test_file_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes((HEADER + "\n" + GOOD_ROW + "\n").encode() + b"\xff\xfe\n")
        with pytest.raises(CsvParseError, match="not UTF-8"):
            read_csv(path)

    def test_binary_file(self, tmp_path):
        path = tmp_path / "blob.bin"
        path.write_bytes(bytes(range(256)) * 64)
        with pytest.raises(CsvParseError, match="not UTF-8"):
            read_csv(path)

    def test_field_over_the_csv_size_limit(self, tmp_path):
        path = write_rows(tmp_path / "huge.csv", GOOD_ROW, "9" * 200_000)
        with pytest.raises(CsvParseError, match="field limit") as exc_info:
            read_csv(path)
        assert exc_info.value.line == 3


def good_table(n):
    """The bytes of the table ``read_csv`` returns for n rows of GOOD_ROW's values."""
    return np.array([[float(v) for v in GOOD_ROW.split(",")]] * n).tobytes()


# A valid 7-field row whose first cell is a 200,001-character number (91.3).
LONG_NUMBER_ROW = "91.3" + "0" * 199_997 + GOOD_ROW[GOOD_ROW.index(","):]

# How a dataset's numbers may be printed: as the writer prints them, as
# repr does, and with 17 digits.
cell_format = st.sampled_from(["%.9g", "%r", "%.17g"])


@st.composite
def valid_rows(draw):
    """Rows of a valid dataset, as float cells, each printed in a drawn format."""
    n = draw(st.integers(1, 8))
    rows = []
    for _ in range(n):
        p_atm = draw(st.floats(0.0, 1e6))
        p_ch = [draw(st.floats(0.0, p_atm)) for _ in range(4)]
        delta = draw(st.floats(0.0, 1e300))
        phi = draw(st.floats(0.0, 360.0))
        rows.append([draw(cell_format) % v for v in (*p_ch, p_atm, delta, phi)])
    return rows


def edge_table():
    """Rows at the edges of the checks: each p_atm below, with one chamber at
    each p_ch below (the others at 0), each delta and each phi."""
    rows = []
    for p_atm in (101.325, 0.0, -0.0, 5e-324, 1.797e308, math.inf, math.nan):
        tip = p_atm + 0.5  # the highest p_ch SensorFrame accepts
        chambers = (0.0, tip, *(math.nextafter(tip, to) for to in (-math.inf, math.inf)), -5e-324)
        for k, p, delta, phi in itertools.product(
            range(4),
            chambers,
            (9.5, -0.0, -1e-300, math.inf),
            (123.0, 360.0, math.nextafter(360.0, math.inf), -0.0, math.nan),
        ):
            p_ch = [0.0] * 4
            p_ch[k] = p
            rows.append([*p_ch, p_atm, delta, phi])
    return np.array(rows)


class TestCsvAcceptsWhatTheRowPassAccepts:
    """Files the csv module and ``float`` accept read as they do, cell for cell,
    and files they reject fail with the same error, whichever parser runs."""

    @pytest.mark.parametrize(
        "text, n",
        [
            (HEADER + "\n" + GOOD_ROW.replace("91.3", '"91.3"', 1) + "\n", 1),
            (HEADER + "\r" + GOOD_ROW + "\r" + GOOD_ROW + "\r", 2),
            (HEADER + "\r\n" + GOOD_ROW + "\r\n" + GOOD_ROW + "\r\n", 2),
            (HEADER + "\n" + GOOD_ROW.replace("101.325", "101.3_25") + "\n", 1),
            (HEADER + "\n" + GOOD_ROW.replace("123", "\uff11\uff12\uff13") + "\n", 1),
            (HEADER + "\n" + GOOD_ROW.replace("123", "\xa0123\u3000") + "\n", 1),
            # over 65,536 bytes, half the field limit, without a "\n"
            (HEADER + "\r" + (GOOD_ROW + "\r") * 2_000, 2_000),
        ],
        ids=["quoted-cell", "cr-line-ends", "crlf-line-ends", "underscore", "full-width",
             "unicode-space", "cr-line-ends-over-half-the-field-limit"],
    )
    def test_reads_what_csv_and_float_read(self, tmp_path, text, n):
        path = tmp_path / "d.csv"
        path.write_bytes(text.encode("utf-8"))
        assert read_csv(path).table.tobytes() == good_table(n)

    def test_number_over_the_csv_field_limit(self, tmp_path):
        path = write_rows(tmp_path / "long.csv", GOOD_ROW, LONG_NUMBER_ROW)
        with pytest.raises(CsvParseError, match="field limit") as exc_info:
            read_csv(path)
        assert exc_info.value.line == 3

    def test_whitespace_only_line(self, tmp_path):
        path = write_rows(tmp_path / "ws.csv", GOOD_ROW, " ", GOOD_ROW)
        with pytest.raises(CsvParseError) as exc_info:
            read_csv(path)
        assert str(exc_info.value) == "expected 7 columns, got 1 (line 3)"

    @pytest.mark.parametrize("separator", ["\u2028", "\x85", "\x0c"])
    def test_rows_joined_by_a_str_line_break(self, tmp_path, separator):
        # str.splitlines breaks lines here; the csv module does not.
        path = write_rows(tmp_path / "joined.csv", GOOD_ROW + separator + GOOD_ROW)
        with pytest.raises(CsvParseError) as exc_info:
            read_csv(path)
        assert str(exc_info.value) == "expected 7 columns, got 13 (line 2)"

    @pytest.mark.parametrize("separator", ["\x1c", "\x1d", "\x1e", "\x1f"])
    def test_information_separator_beside_a_number(self, tmp_path, separator):
        # numpy strips these around a number; float() does not.
        path = write_rows(tmp_path / "sep.csv", GOOD_ROW, GOOD_ROW + separator)
        with pytest.raises(CsvParseError) as exc_info:
            read_csv(path)
        assert str(exc_info.value) == (
            f"expected a number, got {'123' + separator!r} (line 3, column 'phi_deg')"
        )

    @settings(max_examples=100)
    @given(rows=valid_rows())
    def test_cells_read_as_float_reads_them(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("csv") / "d.csv"
        text = "\n".join([HEADER] + [",".join(r) for r in rows]) + "\n"
        path.write_text(text, encoding="utf-8")
        want = np.array([[float(cell) for cell in row] for row in rows])
        want[:, 6] = [Angle(phi).degrees for phi in want[:, 6]]
        assert read_csv(path).table.tobytes() == want.tobytes()

    def test_table_check_accepts_what_the_row_check_accepts(self):
        # The numpy pass returns a table only where _rows_ok accepts every row,
        # so _rows_ok must accept a row exactly when the csv pass's checks do.
        table = edge_table()
        accepted = _rows_ok(table)
        for row, ok in zip(table.tolist(), accepted.tolist()):
            reader = csv.reader([",".join(map(repr, row))])
            try:
                read = _csv_rows(reader)
            except CsvParseError:
                read = None
            assert (read is not None) == ok, row
            assert read is None or read.tobytes() == np.array([row]).tobytes()
        assert 0 < accepted.sum() < len(table) == 2_800


def nine_digit_edges():
    """The values of ``edge_table`` that %.9g prints exactly, NaN included."""
    values = {}
    for v in edge_table().ravel().tolist():
        if math.isnan(v) or float(f"{v:.9g}") == v:
            values.setdefault(repr(v), v)
    return list(values.values())


NINE_DIGIT_EDGES = nine_digit_edges()


@st.composite
def nine_digit_tables(draw):
    """Tables whose cells %.9g prints exactly: valid rows, some of whose cells
    are swapped for an edge value or any other number."""
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        p_atm = draw(st.floats(0.0, 1e6))
        p_ch = [draw(st.floats(0.0, p_atm)) for _ in range(4)]
        row = [*p_ch, p_atm, draw(st.floats(0.0, 1e300)), draw(st.floats(0.0, 360.0))]
        for j in draw(st.lists(st.integers(0, 6), max_size=2)):
            row[j] = draw(st.sampled_from(NINE_DIGIT_EDGES) | st.floats(-1e3, 1e3) | st.floats())
        rows.append([float(f"{v:.9g}") for v in row])
    return np.array(rows)


@settings(max_examples=200)
@given(table=nine_digit_tables())
def test_samples_rule_is_the_csv_rule(tmp_path_factory, table):
    # A table Samples holds round-trips through the CSV bit for bit; a file
    # of one it refuses is refused at the line of the row Samples names.
    path = tmp_path_factory.mktemp("csv") / "d.csv"
    try:
        samples = Samples(table)
    except InvalidInputError as exc:
        row, message = re.fullmatch(r"row (\d+): (.*)", str(exc)).groups()
        write_table(path, CSV_COLUMNS, table)
        with pytest.raises(CsvParseError) as got:
            read_csv(path)
        assert got.value.line == int(row) + 2
        if np.isfinite(table[int(row)]).all():  # else the csv pass names the cell
            assert str(got.value).startswith(f"{message} (line {got.value.line}")
    else:
        write_csv(samples, path)
        assert read_csv(path).table.tobytes() == samples.table.tobytes()


# kind -> (the columns it may sit in, its text): a cell float() rejects, a
# non-finite one, a phi out of range, a frame SensorFrame rejects, a negative
# offset.
BAD_CELLS = {
    "parse": (range(7), "what"),
    "non-finite": (range(7), "-inf"),
    "phi": ([6], "400"),
    "frame": (range(5), "-1"),
    "delta": ([5], "-1"),
}


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("kind", sorted(BAD_CELLS))
def test_quoted_file_raises_the_row_by_row_error(tmp_path, kind, seed):
    rng = np.random.default_rng(seed)
    rows = [[format(v, ".9g") for v in row] for row in small_samples(300, seed).table.tolist()]
    columns, text = BAD_CELLS[kind]
    rows[rng.integers(len(rows))][rng.choice(columns)] = text
    for at in rng.integers(len(rows), size=3):
        rows.insert(at, [])  # blank lines the file line numbers count
    path = tmp_path / "quoted.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, quoting=csv.QUOTE_ALL, lineterminator="\n")
        writer.writerows([HEADER.split(","), *rows])
    want = first_bad_row_error(path)
    with pytest.raises(CsvParseError) as got:
        read_csv(path)
    assert (got.value.line, got.value.column, str(got.value)) == (
        want.line, want.column, str(want)
    )


class TestWrittenBytes:
    """Every writer prints the bytes of the per-cell ``.9g`` rule."""

    def test_write_csv(self, tmp_path):
        rows = [[v, 1.0, 2.0, 3.0, 4.0, 5.0, v] for v in TRICKY]
        write_table(tmp_path / "t.csv", CSV_COLUMNS, np.array(rows))
        assert (tmp_path / "t.csv").read_bytes() == per_cell_bytes(CSV_COLUMNS, rows)
        # The rows of a dataset: each tricky value that Samples holds, in
        # every column where it may stand (1e16 may not: it exceeds p_atm).
        valid = [[v, 1.0, 2.0, 3.0, 1e16, v, v] for v in TRICKY if v != 1e16]
        samples = Samples(np.array(valid))
        write_csv(samples, tmp_path / "d.csv")
        assert (tmp_path / "d.csv").read_bytes() == per_cell_bytes(
            CSV_COLUMNS, samples.table.tolist()
        )

    def test_export_scatter(self, tmp_path):
        true = np.array(TRICKY)
        results = {"model_based": (true, true / 3.0), "mlp": (true[:2], true[:2] / 3.0)}
        path = tmp_path / "s.csv"
        export_scatter(results, path)
        want = [
            (t, p, method)
            for method, (phi_true, phi_pred) in results.items()
            for t, p in zip(phi_true.tolist(), phi_pred.tolist())
        ]
        assert path.read_bytes() == per_cell_bytes(
            ("phi_true_deg", "phi_pred_deg", "method"), want
        )

    def test_write_batch_csv(self, tmp_path):
        rows = [BatchRow(v, 360.0 - v, v * 7.0, "model_based", v, 3) for v in TRICKY]
        path = tmp_path / "b.csv"
        write_batch_csv(rows, path)
        want = [(r.delta0_mm, r.phi0_deg, r.noise_sigma_kpa, r.estimator, r.success_rate,
                 r.mean_steps) for r in rows]
        columns = ("delta0_mm", "phi0_deg", "noise_sigma_kpa", "estimator",
                   "success_rate", "mean_steps")
        assert path.read_bytes() == per_cell_bytes(columns, want)

    @settings(max_examples=100)
    @given(
        rows=st.lists(
            st.tuples(
                st.floats(),
                st.text(alphabet="ab-_ ", max_size=4),
                st.one_of(st.integers(-(10**30), 10**30), st.booleans(), st.floats()),
            ),
            max_size=6,
        )
    )
    def test_any_numbers_property(self, tmp_path_factory, rows):
        # Any float (NaN and inf included), int or bool, beside a string column.
        path = tmp_path_factory.mktemp("t") / "t.csv"
        write_table(path, ("a", "b", "c"), rows)
        assert path.read_bytes() == per_cell_bytes(("a", "b", "c"), rows)

    @pytest.mark.parametrize("value", KERNEL_CELLS)
    def test_kernel_cell(self, tmp_path, value):
        table = np.array([[value, -value, 1.0]])
        assert b"a,b,c\n" + _format_block(table) == per_cell_bytes("abc", table.tolist())
        write_table(tmp_path / "t.csv", "abc", table)
        assert (tmp_path / "t.csv").read_bytes() == per_cell_bytes("abc", table.tolist())

    @pytest.mark.parametrize("value", PERCENT_CELLS)
    def test_percent_cell(self, tmp_path, value):
        # One such cell sends its whole block to the %-format.
        table = np.array([[1.0, 2.5], [value, 3.0]])
        assert _format_block(table) is None
        write_table(tmp_path / "t.csv", "ab", table)
        assert (tmp_path / "t.csv").read_bytes() == per_cell_bytes("ab", table.tolist())

    def test_int_table(self, tmp_path):
        # Only float64 blocks go through the kernel; others print by the %-format.
        table = np.array([[0, -7, 123456789], [10**9, -(10**12), 5]])
        assert _format_block(table) is None
        write_table(tmp_path / "t.csv", "abc", table)
        assert (tmp_path / "t.csv").read_bytes() == per_cell_bytes("abc", table.tolist())
        assert (tmp_path / "t.csv").read_bytes().endswith(b"1e+09,-1e+12,5\n")

    @settings(max_examples=200)
    @given(
        table=arrays(
            np.float64,
            array_shapes(min_dims=2, max_dims=2, max_side=6),
            elements=st.floats() | st.floats(1e-4, 1e9) | st.floats(-1e9, -1e-4),
        )
    )
    def test_any_table_property(self, tmp_path_factory, table):
        # Any float64 table, within [1e-4, 1e9) in magnitude and outside it.
        path = tmp_path_factory.mktemp("t") / "t.csv"
        columns = [f"c{j}" for j in range(table.shape[1])]
        write_table(path, columns, table)
        assert path.read_bytes() == per_cell_bytes(columns, table.tolist())

    @settings(max_examples=200)
    @given(
        table=arrays(
            np.float64,
            array_shapes(min_dims=2, max_dims=2, max_side=6),
            elements=st.floats(1e-4, 999999999.4) | st.floats(-999999999.4, -1e-4) | st.just(0.0),
        )
    )
    def test_kernel_prints_in_range_tables(self, table):
        # Cells the %.9g rule prints without an exponent go through the
        # kernel, unless one is within about 1e-6 of a rounding tie.
        got = _format_block(table)
        if got is None:
            assert any(near_tie(v) for v in table.ravel().tolist())
        else:
            columns = [f"c{j}" for j in range(table.shape[1])]
            assert got == per_cell_bytes(columns, table.tolist()).split(b"\n", 1)[1]

    def test_kernel_memory_is_per_block(self, tmp_path):
        values = np.random.default_rng(5).uniform(-400.0, 400.0, size=(50_000, 7))
        write_table(tmp_path / "warm.csv", CSV_COLUMNS, values)
        tracemalloc.start()
        try:
            write_table(tmp_path / "d.csv", CSV_COLUMNS, values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000
        assert _format_block(values[:BLOCK_ROWS]) is not None

    @pytest.mark.parametrize(
        "n", [BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 1]
    )
    def test_block_boundaries(self, tmp_path, n):
        values = np.random.default_rng(n).normal(scale=1e3, size=(n, 7))
        values[: len(TRICKY), 0] = TRICKY
        write_table(tmp_path / "d.csv", CSV_COLUMNS, values)
        rows = values.tolist()
        assert (tmp_path / "d.csv").read_bytes() == per_cell_bytes(CSV_COLUMNS, rows)
        named = [(a, f"r{i}", b) for i, (a, b) in enumerate(values[:, :2].tolist())]
        write_table(tmp_path / "t.csv", ("a", "name", "b"), named)
        assert (tmp_path / "t.csv").read_bytes() == per_cell_bytes(("a", "name", "b"), named)

    @pytest.mark.parametrize(
        "rows",
        [
            [(1.0, 2.0), (3.0,)],
            # six cells fill three rows of two, but only the first row has two
            [(1.0, 2.0), (3.0, 4.0, 5.0), (6.0,)],
            [(1.0, 2.0)] * BLOCK_ROWS + [(3.0, 4.0, 5.0)],
        ],
        ids=["short", "compensating", "next-block"],
    )
    def test_row_of_another_length_is_rejected(self, tmp_path, rows):
        with pytest.raises(TypeError, match="every row must have 2 cells"):
            write_table(tmp_path / "t.csv", ("a", "b"), rows)


def test_the_writer_tables_are_built_on_the_first_array_write(tmp_path):
    # A fresh process: import, then predict, writes no table and builds none.
    script = (
        "import cuphaptics\n"
        "from cuphaptics.cli import main\n"
        "from cuphaptics.dataset import _cell_tables\n"
        "assert main(['predict', '--p-ch', '91.325,96.325,96.325,91.325']) == 0\n"
        "print(_cell_tables.cache_info().currsize)\n"
    )
    src = os.path.dirname(os.path.dirname(cuphaptics.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "0"
    write_table(tmp_path / "t.csv", "ab", np.array([[1.0, 2.5]]))
    assert _cell_tables.cache_info().currsize == 1


class TestSplit:
    def test_paper_scale_arithmetic(self):
        samples = samples_of(make_sample(phi=float(i % 360)) for i in range(25_273))
        train, val = split(samples, SplitSpec(train_fraction=0.8, seed=0))
        assert len(train) == 20_218
        assert len(val) == 5_055

    def test_deterministic(self):
        samples = samples_of(make_sample(delta=float(i)) for i in range(10))
        spec = SplitSpec(train_fraction=0.8, seed=77)
        a = split(samples, spec)
        b = split(samples, spec)
        assert [s.pose.delta for s in a[0]] == [s.pose.delta for s in b[0]]
        assert [s.pose.delta for s in a[1]] == [s.pose.delta for s in b[1]]

    def test_partition(self):
        samples = samples_of(make_sample(delta=float(i)) for i in range(23))
        train, val = split(samples, SplitSpec(train_fraction=0.8, seed=3))
        got = sorted(s.pose.delta for s in [*train, *val])
        assert got == [float(i) for i in range(23)]
        assert len(train) == round(23 * 0.8)

    def test_seed_changes_partition(self):
        samples = samples_of(make_sample(delta=float(i)) for i in range(50))
        a, _ = split(samples, SplitSpec(seed=1))
        b, _ = split(samples, SplitSpec(seed=2))
        assert [s.pose.delta for s in a] != [s.pose.delta for s in b]

    def test_halves_partition_the_rows(self):
        samples = small_samples(n=41)
        train, val = split(samples, SplitSpec(seed=4))
        joined = np.concatenate([train.table, val.table])
        assert len(train) == 33
        assert len(np.unique(samples.table, axis=0)) == len(samples)
        assert np.array_equal(np.unique(joined, axis=0), np.unique(samples.table, axis=0))
        assert len(joined) == len(samples)

    def test_too_few_samples(self):
        with pytest.raises(ConfigError):
            split(samples_of([make_sample()]), SplitSpec())

    def test_bad_fraction(self):
        with pytest.raises(ConfigError):
            SplitSpec(train_fraction=1.0)
        with pytest.raises(ConfigError):
            SplitSpec(train_fraction=0.0)


def _standardize(x, stats):
    """Chamber pressures as a model z-scoring under ``stats`` takes them."""
    return _model_inputs(init_model(0, stats=stats), x)


class TestFeatureStats:
    def test_two_point_hand_arithmetic(self):
        # channel values {0, 2}: mean 1, population std 1
        samples = samples_of([
            make_sample(p_ch=(0.0, 5.0, 6.0, 7.0)),
            make_sample(p_ch=(2.0, 6.0, 7.0, 8.0)),
        ])
        stats = feature_stats(samples)
        assert stats.mean[0] == pytest.approx(1.0)
        assert stats.std[0] == pytest.approx(1.0)
        z = _standardize(np.array(samples[1].frame.p_ch), stats)
        assert z[0] == pytest.approx(1.0)

    def test_standardize_mean_vector_is_zero(self):
        samples = samples_of([
            make_sample(p_ch=(90.0, 92.0, 94.0, 96.0)),
            make_sample(p_ch=(92.0, 94.0, 96.0, 98.0)),
        ])
        stats = feature_stats(samples)
        mid = make_sample(p_ch=(91.0, 93.0, 95.0, 97.0))
        z = _standardize(np.array(mid.frame.p_ch), stats)
        assert list(z) == pytest.approx([0.0, 0.0, 0.0, 0.0])

    def test_standardized_training_set_is_zero_mean_unit_std(self):
        samples = generate_dataset(
            CupGeometry(),
            PressureFieldParams(),
            GenerationConfig(n_samples=300, seed=8),
        )
        stats = feature_stats(samples)
        z = _standardize(np.array([s.frame.p_ch for s in samples]), stats)
        for col in z.T:
            n = len(col)
            mean = sum(col) / n
            var = sum((v - mean) ** 2 for v in col) / n
            assert abs(mean) < 1e-9
            assert abs(math.sqrt(var) - 1.0) < 1e-9

    def test_constant_channel_rejected(self):
        samples = samples_of([make_sample(), make_sample()])
        with pytest.raises(DegenerateChannelError):
            feature_stats(samples)

    @pytest.mark.parametrize("value", [101.325, 96.3, 0.1])
    def test_constant_channel_with_an_inexact_mean_rejected(self, value):
        # A chamber stuck at one reading on all 20,000 rows: the float mean
        # of the column is not exactly that reading, so its std is not 0.
        table = small_samples(n=20_000, seed=3).table.copy()
        table[:, 0] = value
        assert table[:, 0].std() > 0.0
        with pytest.raises(DegenerateChannelError, match="^channel 1 is constant"):
            feature_stats(Samples(table))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_cell_rejected_before_a_constant_channel(self, bad):
        # Channel 1 is constant, but channel 3's non-finite cell is refused
        # first: Samples holds no such row, so feature_stats never sees one.
        table = samples_of([
            make_sample(p_ch=(90.0, 92.0, 94.0, 96.0)),
            make_sample(p_ch=(90.0, 93.0, 95.0, 97.0)),
        ]).table.copy()
        table[1, 2] = bad
        with pytest.raises(InvalidInputError, match=f"^row 1: p_ch3 must be finite, got {bad}$"):
            Samples(table)

    @pytest.mark.parametrize(
        "cells, message",
        [
            ((1e200, 2e200), "std of channel 1 must be finite, got inf"),
            ((1e308, 1.5e308), "mean of channel 1 must be finite, got inf"),
        ],
        ids=["std-overflows", "mean-overflows"],
    )
    def test_finite_cells_too_large_for_the_stats_are_rejected(self, cells, message):
        # Cells Samples holds (p_atm is above them), whose std or mean is too
        # large for a float: FeatureStats refuses the inf, with no numpy warning.
        rows = [[c, 90.0 + k, 92.0 + k, 94.0 + k, 1.7e308, 9.5, 10.0] for k, c in enumerate(cells)]
        samples = Samples(np.array(rows))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
                feature_stats(samples)

    def test_stats_type_rejects_zero_std(self):
        with pytest.raises(DegenerateChannelError):
            FeatureStats(mean=(0.0, 0.0, 0.0, 0.0), std=(1.0, 0.0, 1.0, 1.0))

    def test_empty_set_rejected(self):
        with pytest.raises(ConfigError):
            feature_stats(samples_of([]))

    def test_defined_in_mlp_and_exported_at_top_level(self):
        # The learned estimator is their only user; the dataset module has none.
        assert FeatureStats is cuphaptics.mlp.FeatureStats
        assert feature_stats is cuphaptics.mlp.feature_stats
        assert not hasattr(cuphaptics.dataset, "FeatureStats")
        assert not hasattr(cuphaptics.dataset, "feature_stats")
