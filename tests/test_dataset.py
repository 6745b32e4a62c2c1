import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuphaptics import (
    Angle,
    ConfigError,
    CsvParseError,
    CupGeometry,
    DegenerateChannelError,
    FeatureStats,
    GenerationConfig,
    GroundTruthPose,
    LabeledSample,
    PressureFieldParams,
    SensorFrame,
    SplitSpec,
    feature_stats,
    generate_dataset,
    read_csv,
    split,
    write_csv,
)
from cuphaptics.mlp import _standardize

HEADER = "p_ch1_kpa,p_ch2_kpa,p_ch3_kpa,p_ch4_kpa,p_atm_kpa,delta_mm,phi_deg"


def make_sample(p_ch=(91.3, 96.3, 96.2, 91.4), p_atm=101.325, delta=9.5, phi=123.0):
    return LabeledSample(
        frame=SensorFrame(p_ch=p_ch, p_atm=p_atm),
        pose=GroundTruthPose(delta=delta, phi=Angle(phi)),
    )


class TestCsvRoundTrip:
    def test_header_exact(self, tmp_path):
        path = tmp_path / "d.csv"
        write_csv([make_sample()], path)
        first_line = path.read_text(encoding="utf-8").splitlines()[0]
        assert first_line == HEADER

    def test_lf_line_endings(self, tmp_path):
        path = tmp_path / "d.csv"
        write_csv([make_sample()], path)
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
        write_csv([sample], path)
        (loaded,) = read_csv(path)
        assert loaded.pose.delta == pytest.approx(delta, rel=1e-8, abs=1e-9)
        # an exact 360.0 print artifact must wrap back to 0
        err = abs(loaded.pose.phi.degrees - phi)
        assert min(err, 360.0 - err) < 1e-6

    def test_header_only_file_reads_empty(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text(HEADER + "\n", encoding="utf-8")
        assert read_csv(path) == []

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


class TestSplit:
    def test_paper_scale_arithmetic(self):
        samples = [make_sample(phi=float(i % 360)) for i in range(25_273)]
        train, val = split(samples, SplitSpec(train_fraction=0.8, seed=0))
        assert len(train) == 20_218
        assert len(val) == 5_055

    def test_deterministic(self):
        samples = [make_sample(delta=float(i)) for i in range(10)]
        spec = SplitSpec(train_fraction=0.8, seed=77)
        a = split(samples, spec)
        b = split(samples, spec)
        assert [s.pose.delta for s in a[0]] == [s.pose.delta for s in b[0]]
        assert [s.pose.delta for s in a[1]] == [s.pose.delta for s in b[1]]

    def test_partition(self):
        samples = [make_sample(delta=float(i)) for i in range(23)]
        train, val = split(samples, SplitSpec(train_fraction=0.8, seed=3))
        got = sorted(s.pose.delta for s in train + val)
        assert got == [float(i) for i in range(23)]
        assert len(train) == round(23 * 0.8)

    def test_seed_changes_partition(self):
        samples = [make_sample(delta=float(i)) for i in range(50)]
        a, _ = split(samples, SplitSpec(seed=1))
        b, _ = split(samples, SplitSpec(seed=2))
        assert [s.pose.delta for s in a] != [s.pose.delta for s in b]

    def test_too_few_samples(self):
        with pytest.raises(ConfigError):
            split([make_sample()], SplitSpec())

    def test_bad_fraction(self):
        with pytest.raises(ConfigError):
            SplitSpec(train_fraction=1.0)
        with pytest.raises(ConfigError):
            SplitSpec(train_fraction=0.0)


class TestFeatureStats:
    def test_two_point_hand_arithmetic(self):
        # channel values {0, 2}: mean 1, population std 1
        samples = [
            make_sample(p_ch=(0.0, 5.0, 6.0, 7.0)),
            make_sample(p_ch=(2.0, 6.0, 7.0, 8.0)),
        ]
        stats = feature_stats(samples)
        assert stats.mean[0] == pytest.approx(1.0)
        assert stats.std[0] == pytest.approx(1.0)
        z = _standardize(np.array(samples[1].frame.p_ch), stats)
        assert z[0] == pytest.approx(1.0)

    def test_standardize_mean_vector_is_zero(self):
        samples = [
            make_sample(p_ch=(90.0, 92.0, 94.0, 96.0)),
            make_sample(p_ch=(92.0, 94.0, 96.0, 98.0)),
        ]
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
        samples = [make_sample(), make_sample()]
        with pytest.raises(DegenerateChannelError):
            feature_stats(samples)

    def test_stats_type_rejects_zero_std(self):
        with pytest.raises(DegenerateChannelError):
            FeatureStats(mean=(0.0, 0.0, 0.0, 0.0), std=(1.0, 0.0, 1.0, 1.0))

    def test_empty_set_rejected(self):
        with pytest.raises(ConfigError):
            feature_stats([])
