import csv
import json
import warnings
from dataclasses import fields

import numpy as np
import pytest

from cuphaptics import (
    Angle,
    BatchSpec,
    CupGeometry,
    FeatureStats,
    GroundTruthPose,
    InvalidInputError,
    ModelBasedEstimator,
    PressureFieldParams,
    Samples,
    SearchConfig,
    TrainConfig,
    cli,
    init_model,
    load_model,
    read_csv,
    save_model,
    write_csv,
)
from helpers import (
    equal_chamber_rows,
    grid_noise_rows,
    rollout_a_frame_at_a_time,
    write_model_with_nan_param,
    write_model_with_sizes,
    write_model_with_stats,
)
from cuphaptics.cli import (
    DATASET_FILENAME,
    HISTORY_FILENAME,
    MODEL_FILENAME,
    REPORT_FILENAME,
    SCATTER_MLP_FILENAME,
    SCATTER_MODEL_BASED_FILENAME,
    SEARCH_FILENAME,
    main,
)


# Layer sizes the estimators cannot run: they feed 4 inputs and decode 2 outputs.
WRONG_SHAPES = pytest.mark.parametrize(
    "sizes", [(4, 3), (4, 1), (3, 2)], ids=["4-3", "4-1", "3-2"]
)


@pytest.fixture(scope="module")
def data_csv(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    assert main(["generate", "--n", "240", "--seed", "3", "--out-dir", str(out)]) == 0
    return out / DATASET_FILENAME


@pytest.fixture(scope="module")
def model_dir(tmp_path_factory, data_csv):
    out = tmp_path_factory.mktemp("model")
    code = main(
        [
            "train",
            "--data",
            str(data_csv),
            "--epochs",
            "8",
            "--batch-size",
            "32",
            "--seed",
            "1",
            "--out-dir",
            str(out),
        ]
    )
    assert code == 0
    return out


class TestGenerate:
    def test_writes_requested_rows(self, tmp_path, capsys):
        assert main(["generate", "--n", "25", "--out-dir", str(tmp_path)]) == 0
        path = tmp_path / DATASET_FILENAME
        assert path.exists()
        assert len(path.read_text().splitlines()) == 26  # header + rows
        assert "wrote" in capsys.readouterr().out

    def test_same_seed_same_bytes(self, tmp_path):
        args = ["generate", "--n", "40", "--seed", "7"]
        main(args + ["--out-dir", str(tmp_path / "a")])
        main(args + ["--out-dir", str(tmp_path / "b")])
        assert (tmp_path / "a" / DATASET_FILENAME).read_bytes() == (
            tmp_path / "b" / DATASET_FILENAME
        ).read_bytes()

    def test_different_seed_different_bytes(self, tmp_path):
        main(["generate", "--n", "40", "--seed", "7", "--out-dir", str(tmp_path / "a")])
        main(["generate", "--n", "40", "--seed", "8", "--out-dir", str(tmp_path / "b")])
        assert (tmp_path / "a" / DATASET_FILENAME).read_bytes() != (
            tmp_path / "b" / DATASET_FILENAME
        ).read_bytes()

    def test_zero_samples_is_usage_error(self, tmp_path, capsys):
        assert main(["generate", "--n", "0", "--out-dir", str(tmp_path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_sampling_choice_exits_two(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--sampling", "sobol", "--out-dir", str(tmp_path)])
        assert exc.value.code == 2


class TestTrain:
    def test_writes_model_sidecar_and_history(self, model_dir):
        model_path = model_dir / MODEL_FILENAME
        assert model_path.exists()
        meta = json.loads((model_dir / (MODEL_FILENAME + ".json")).read_text())
        assert meta["n_train"] == 192
        assert meta["n_validation"] == 48
        assert meta["train_config"]["max_epochs"] == 8
        assert meta["metrics"]["best_epoch"] >= 0
        history = json.loads((model_dir / HISTORY_FILENAME).read_text())
        assert len(history["train_loss"]) == len(history["val_loss"])
        assert len(history["val_loss"]) <= 8

    def test_sidecar_records_every_config_field(self, model_dir):
        meta = json.loads((model_dir / (MODEL_FILENAME + ".json")).read_text())
        assert list(meta["train_config"]) == [f.name for f in fields(TrainConfig)]
        assert "standardize" not in meta["train_config"]

    def test_model_file_loads(self, model_dir):
        model = load_model(model_dir / MODEL_FILENAME)
        assert model.layer_sizes == (4, 16, 32, 16, 2)
        assert model.stats is not None

    def test_same_seed_same_model_bytes(self, tmp_path, data_csv):
        args = [
            "train",
            "--data",
            str(data_csv),
            "--epochs",
            "4",
            "--seed",
            "9",
        ]
        assert main(args + ["--out-dir", str(tmp_path / "a")]) == 0
        assert main(args + ["--out-dir", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a" / MODEL_FILENAME).read_bytes() == (
            tmp_path / "b" / MODEL_FILENAME
        ).read_bytes()

    def test_missing_data_flag_exits_two(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--out-dir", str(tmp_path)])
        assert exc.value.code == 2

    def test_raw_inputs_flag_is_gone(self, tmp_path, data_csv, capsys):
        # Training always z-scores its inputs; the old flag is an unknown option.
        argv = ["train", "--data", str(data_csv), "--raw-inputs", "--out-dir", str(tmp_path)]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: --raw-inputs" in capsys.readouterr().err
        assert not (tmp_path / MODEL_FILENAME).exists()

    def test_unreadable_data_is_runtime_error(self, tmp_path, capsys):
        code = main(
            ["train", "--data", str(tmp_path / "nope.csv"), "--out-dir", str(tmp_path)]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_data_that_is_not_utf8_is_runtime_error(self, tmp_path, capsys):
        data = tmp_path / "blob.csv"
        data.write_bytes(bytes(range(256)) * 64)
        code = main(["train", "--data", str(data), "--out-dir", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: not UTF-8 text") and err.count("\n") == 1

    def test_diverging_run_is_usage_error(self, tmp_path, data_csv, capsys):
        argv = ["train", "--data", str(data_csv), "--lr", "1e30", "--epochs", "2"]
        # Overflow warnings are silenced so only the error line is printed.
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(argv + ["--out-dir", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err == "error: squared-gradient average must be finite and >= 0\n"
        assert not (tmp_path / MODEL_FILENAME).exists()


class TestCompare:
    def test_writes_report_and_scatters(self, tmp_path, data_csv, capsys):
        code = main(
            [
                "compare",
                "--data",
                str(data_csv),
                "--seeds",
                "1,2",
                "--epochs",
                "3",
                "--out-dir",
                str(tmp_path),
            ]
        )
        assert code == 0
        report = json.loads((tmp_path / REPORT_FILENAME).read_text())
        assert report["seeds"] == [1, 2]
        assert len(report["mlp"]["per_seed"]) == 2
        assert report["model_based"]["rmse_mean_deg"] > 0
        for name in (SCATTER_MLP_FILENAME, SCATTER_MODEL_BASED_FILENAME):
            lines = (tmp_path / name).read_text().splitlines()
            assert lines[0] == "phi_true_deg,phi_pred_deg,method"
            assert len(lines) > 1
        out = capsys.readouterr().out
        assert "mlp" in out and "model_based" in out

    def test_data_that_is_not_utf8_is_runtime_error(self, tmp_path, capsys):
        data = tmp_path / "latin1.csv"
        data.write_bytes(b"p_ch1_kpa,caf\xe9\n")
        code = main(["compare", "--data", str(data), "--out-dir", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: not UTF-8 text") and err.count("\n") == 1

    def test_raw_inputs_flag_is_gone(self, tmp_path, data_csv, capsys):
        argv = ["compare", "--data", str(data_csv), "--raw-inputs", "--out-dir", str(tmp_path)]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: --raw-inputs" in capsys.readouterr().err
        assert not (tmp_path / REPORT_FILENAME).exists()

    def test_seed_flag_is_gone(self, tmp_path, data_csv, capsys):
        # --seeds seeds every fold's split and training; a --seed would change nothing.
        out = tmp_path / "out"
        argv = ["compare", "--data", str(data_csv), "--seed", "1", "--out-dir", str(out)]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_seed_list_is_usage_error(self, tmp_path, data_csv):
        code = main(
            [
                "compare",
                "--data",
                str(data_csv),
                "--seeds",
                ",",
                "--out-dir",
                str(tmp_path),
            ]
        )
        assert code == 2

    def test_non_integer_seeds_is_usage_error(self, tmp_path, data_csv):
        code = main(
            [
                "compare",
                "--data",
                str(data_csv),
                "--seeds",
                "1,two",
                "--out-dir",
                str(tmp_path),
            ]
        )
        assert code == 2

    def test_repeated_seed_is_usage_error(self, tmp_path, data_csv, capsys):
        out = tmp_path / "out"
        code = main(["compare", "--data", str(data_csv), "--seeds", "1,1", "--out-dir", str(out)])
        assert code == 2
        assert capsys.readouterr().err == "error: seed 1 is repeated; each seed is one run\n"
        assert not (out / REPORT_FILENAME).exists()

    @staticmethod
    def sealed_dataset(tmp_path):
        """60 generated frames, every one fully sealed: four equal chambers."""
        data = tmp_path / "data"
        generate = ["generate", "--n", "60", "--response", "affine", "--noise-sigma", "0"]
        sealed = ["--delta-min", "0", "--delta-max", "0", "--out-dir", str(data)]
        assert main(generate + sealed) == 0
        return data / DATASET_FILENAME

    def test_fully_sealed_dataset_is_refused_before_training(self, tmp_path, capsys):
        # Every chamber reads one value on every row, so no input can be z-scored.
        out = tmp_path / "out"
        data = self.sealed_dataset(tmp_path)
        code = main(["compare", "--data", str(data), "--seeds", "4", "--out-dir", str(out)])
        assert code == 1
        assert capsys.readouterr().err == "error: channel 1 is constant in the training set\n"
        assert not out.exists()

    @pytest.mark.parametrize("fraction", ["0.99", "0.01"], ids=["no-validation", "no-training"])
    def test_empty_fold_is_usage_error(self, tmp_path, capsys, fraction):
        # 20 rows cut at 0.99 leave no validation row; at 0.01, no training row.
        data = tmp_path / "data"
        assert main(["generate", "--n", "20", "--out-dir", str(data)]) == 0
        capsys.readouterr()
        out = tmp_path / "out"
        code = main(
            ["compare", "--data", str(data / DATASET_FILENAME), "--train-fraction", fraction]
            + ["--out-dir", str(out)]
        )
        assert code == 2
        assert capsys.readouterr().err == (
            "error: train and validation sets must both be non-empty\n"
        )
        assert not (out / REPORT_FILENAME).exists()

    def test_estimator_without_any_direction_is_usage_error(self, tmp_path, capsys):
        # The fully sealed frames, each row's chambers moved by one offset that
        # varies across rows: the closed form answers None on each row.
        data = self.sealed_dataset(tmp_path)
        table = read_csv(data).table.copy()
        table[:, :4] -= np.linspace(0.0, 5.0, len(table))[:, None]
        write_csv(Samples(table), data)
        out = tmp_path / "out"
        code = main(
            ["compare", "--data", str(data), "--seeds", "4"]
            + ["--epochs", "2", "--out-dir", str(out)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "model_based" in err and "seed 4" in err and "12 validation rows" in err
        assert not out.exists()

    def test_rows_without_any_direction_are_usage_error(self, tmp_path, capsys):
        # four equal chambers on every row, at a level that varies across rows
        data = tmp_path / "equal.csv"
        write_csv(Samples(equal_chamber_rows(40)), data)
        out = tmp_path / "out"
        code = main(
            ["compare", "--data", str(data), "--seeds", "3"]
            + ["--epochs", "2", "--out-dir", str(out)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: model_based gives no direction on any of the 8 ")
        assert "under seed 3" in err and not out.exists()


def read_search_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestSearch:
    def test_oracle_closed_form(self, tmp_path):
        code = main(
            [
                "search",
                "--estimator",
                "oracle",
                "--delta0",
                "14",
                "--step",
                "2",
                "--success-delta",
                "7",
                "--phi-points",
                "4",
                "--reps",
                "1",
                "--noise-sigma",
                "0",
                "--out-dir",
                str(tmp_path),
            ]
        )
        assert code == 0
        rows = read_search_rows(tmp_path / SEARCH_FILENAME)
        assert len(rows) == 4
        for row in rows:
            assert float(row["success_rate"]) == 1.0
            assert float(row["mean_steps"]) == 4.0
            assert row["estimator"] == "oracle"

    def test_deterministic_output(self, tmp_path):
        args = [
            "search",
            "--estimator",
            "model_based",
            "--phi-points",
            "3",
            "--reps",
            "2",
            "--seed",
            "6",
        ]
        assert main(args + ["--out-dir", str(tmp_path / "a")]) == 0
        assert main(args + ["--out-dir", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a" / SEARCH_FILENAME).read_bytes() == (
            tmp_path / "b" / SEARCH_FILENAME
        ).read_bytes()

    def test_mlp_estimator_smoke(self, tmp_path, model_dir):
        code = main(
            [
                "search",
                "--estimator",
                "mlp",
                "--model",
                str(model_dir / MODEL_FILENAME),
                "--phi-points",
                "2",
                "--reps",
                "1",
                "--max-steps",
                "10",
                "--noise-sigma",
                "0",
                "--out-dir",
                str(tmp_path),
            ]
        )
        assert code == 0
        rows = read_search_rows(tmp_path / SEARCH_FILENAME)
        assert len(rows) == 2
        assert all(row["estimator"] == "mlp" for row in rows)

    @WRONG_SHAPES
    def test_model_of_wrong_shape_is_runtime_error(self, tmp_path, capsys, sizes):
        bad = tmp_path / "bad.cupmlp"
        write_model_with_sizes(bad, sizes, standardized=True)
        code = main(
            [
                "search",
                "--estimator",
                "mlp",
                "--model",
                str(bad),
                "--phi-points",
                "1",
                "--reps",
                "1",
                "--out-dir",
                str(tmp_path),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_mlp_without_model_is_usage_error(self, tmp_path, capsys):
        code = main(["search", "--estimator", "mlp", "--out-dir", str(tmp_path)])
        assert code == 2
        assert "--model" in capsys.readouterr().err

    def test_unknown_estimator_exits_two(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["search", "--estimator", "psychic", "--out-dir", str(tmp_path)])
        assert exc.value.code == 2

    def test_zero_phi_points_is_usage_error(self, tmp_path):
        code = main(["search", "--phi-points", "0", "--out-dir", str(tmp_path)])
        assert code == 2

    def test_rejected_frame_is_usage_error(self, tmp_path, capsys):
        # 1000 kPa of noise drives chambers below 0 kPa. The first rollout in
        # cell order to meet such a frame raises what its single-frame loop
        # raises, and no table is written.
        args = ["--noise-sigma", "1000", "--phi-points", "4", "--reps", "1"]
        code = main(["search", *args, "--out-dir", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        est = ModelBasedEstimator()
        spec = BatchSpec((14.0,), (0.0, 90.0, 180.0, 270.0), (1000.0,), (est,), reps=1)
        config, params = SearchConfig(estimator=est), PressureFieldParams(noise_sigma_kpa=1000.0)
        with pytest.raises(InvalidInputError, match=r"^p_ch[1-4] must be >= 0 kPa, ") as want:
            for i, phi0 in enumerate(spec.phi0_values_deg):
                pose0 = GroundTruthPose(delta=14.0, phi=Angle(phi0))
                noise = grid_noise_rows(spec, config, i)
                rollout_a_frame_at_a_time(pose0, config, CupGeometry(), params, noise)
        assert err == f"error: {want.value}\n"
        assert not (tmp_path / SEARCH_FILENAME).exists()


class TestPredict:
    def test_symmetric_pressures_yield_null_angle(self, capsys):
        code = main(["predict", "--p-ch", "96.325,96.325,96.325,96.325"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["method"] == "model"
        assert payload["phi_pred_deg"] is None
        assert payload["v_pred"] == [0.0, 0.0]

    def test_x_axis_gradient_reads_zero_degrees(self, capsys):
        code = main(["predict", "--p-ch", "91.325,96.325,96.325,91.325"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["phi_pred_deg"] == 0.0
        assert payload["v_pred"] == [10.0, 0.0]

    @pytest.mark.parametrize("method", ["model", "mlp"])
    def test_csv_format(self, capsys, model_dir, method):
        argv = ["predict", "--p-ch", "91.325,96.325,96.325,91.325", "--method", method]
        argv += ["--model", str(model_dir / MODEL_FILENAME)]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert main(argv + ["--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "v_x,v_y,phi_pred_deg,method"
        values = [*payload["v_pred"], payload["phi_pred_deg"]]
        assert lines[1] == ",".join([format(v, ".9g") for v in values] + [method])
        if method == "model":
            assert lines[1] == "10,0,0,model"

    def test_mlp_method(self, capsys, model_dir):
        code = main(
            [
                "predict",
                "--p-ch",
                "91.325,96.325,96.325,91.325",
                "--method",
                "mlp",
                "--model",
                str(model_dir / MODEL_FILENAME),
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["method"] == "mlp"
        assert len(payload["v_pred"]) == 2

    def test_mlp_without_model_is_usage_error(self, capsys):
        code = main(["predict", "--p-ch", "96,96,96,96", "--method", "mlp"])
        assert code == 2
        assert "--model" in capsys.readouterr().err

    def test_wrong_pressure_count_is_usage_error(self, capsys):
        assert main(["predict", "--p-ch", "96,96,96"]) == 2
        assert "exactly 4" in capsys.readouterr().err

    def test_non_numeric_pressures_is_usage_error(self):
        assert main(["predict", "--p-ch", "a,b,c,d"]) == 2

    def test_negative_pressure_is_usage_error(self):
        assert main(["predict", "--p-ch=-1,96,96,96"]) == 2

    def test_pressure_far_above_ambient_is_usage_error(self):
        assert main(["predict", "--p-ch", "103,96,96,96"]) == 2

    def test_overflowing_standardized_input_is_one_error_line(self, tmp_path, capsys):
        # The z-scored inputs overflow; no numpy warning joins the error line.
        path = tmp_path / "tiny-spread.cupmlp"
        save_model(init_model(6, stats=FeatureStats(mean=(0.0,) * 4, std=(1e-300,) * 4)), path)
        argv = ["predict", "--p-ch", "1e10,1e10,1e10,1e10", "--p-atm", "1e10"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([*argv, "--method", "mlp", "--model", str(path)]) == 2
        assert capsys.readouterr().err == "error: inputs must be finite\n"

    def test_corrupt_model_file_is_runtime_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.cupmlp"
        bad.write_bytes(b"not a model")
        code = main(
            ["predict", "--p-ch", "96,96,96,96", "--method", "mlp", "--model", str(bad)]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "mean0, std0", [(float("nan"), 1.0), (90.0, 0.0)], ids=["nan-mean", "zero-std"]
    )
    def test_model_with_bad_stats_is_runtime_error(self, tmp_path, capsys, mean0, std0):
        bad = tmp_path / "bad.cupmlp"
        write_model_with_stats(
            bad, mean=(mean0, 91.0, 92.0, 93.0), std=(std0, 1.0, 1.0, 1.0)
        )
        code = main(
            ["predict", "--p-ch", "96,96,96,96", "--method", "mlp", "--model", str(bad)]
        )
        assert code == 1
        assert "model file" in capsys.readouterr().err

    def test_model_with_nan_param_is_runtime_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.cupmlp"
        write_model_with_nan_param(bad)
        code = main(
            ["predict", "--p-ch", "96,96,96,96", "--method", "mlp", "--model", str(bad)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "non-finite" in err
        assert "Traceback" not in err

    @WRONG_SHAPES
    def test_model_of_wrong_shape_is_runtime_error(self, tmp_path, capsys, sizes):
        bad = tmp_path / "bad.cupmlp"
        write_model_with_sizes(bad, sizes, standardized=False)
        code = main(
            ["predict", "--p-ch", "96,96,96,96", "--method", "mlp", "--model", str(bad)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err


class TestFlagsBeforeData:
    """train and compare check their flags before they read the dataset."""

    @pytest.mark.parametrize(
        "argv, err",
        [
            (["compare", "--seeds", "1,1"], "error: seed 1 is repeated; each seed is one run\n"),
            (["train", "--lr", "inf"], "error: lr must be finite and > 0, got inf\n"),
        ],
        ids=["compare-repeated-seed", "train-infinite-lr"],
    )
    def test_usage_error_is_not_masked_by_missing_data(self, tmp_path, capsys, argv, err):
        data = ["--data", str(tmp_path / "missing.csv")]
        assert main([*argv, *data, "--out-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == err

    @pytest.mark.parametrize(
        "argv",
        [
            ["compare", "--seeds", "1,1"],
            ["compare", "--seeds=-1,18446744073709551615"],
            ["compare", "--seeds", ","],
            ["compare", "--seeds", "1,two"],
            ["compare", "--lr", "inf"],
            ["compare", "--train-fraction", "1.5"],
            ["train", "--lr", "nan"],
            ["train", "--batch-size", "0"],
            ["train", "--train-fraction", "0"],
        ],
    )
    def test_bad_flag_reads_no_data(self, tmp_path, data_csv, monkeypatch, argv):
        def read_csv(path):
            raise AssertionError(f"read {path} before checking the flags")

        monkeypatch.setattr(cli, "read_csv", read_csv)
        assert main([*argv, "--data", str(data_csv), "--out-dir", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "flag, value, err",
        [
            ("--step", "nan", "error: step_size_mm must be finite and > 0, got nan\n"),
            ("--phi-points", "0", "error: --phi-points must be >= 1, got 0\n"),
            ("--reps", "0", "error: reps must be >= 1, got 0\n"),
        ],
    )
    def test_search_checks_flags_before_loading_the_model(
        self, tmp_path, capsys, monkeypatch, flag, value, err
    ):
        missing = ["--estimator", "mlp", "--model", str(tmp_path / "missing.cupmlp")]
        argv = ["search", *missing, flag, value, "--out-dir", str(tmp_path / "out")]
        assert main(argv) == 2
        assert capsys.readouterr().err == err

        def load_model(path):
            raise AssertionError(f"loaded {path} before checking the flags")

        monkeypatch.setattr(cli, "load_model", load_model)
        assert main(argv) == 2
        assert not (tmp_path / "out").exists()


class TestNonFiniteConfig:
    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("generate", "--noise-sigma", "nan"),
            ("generate", "--noise-sigma", "inf"),
            ("search", "--success-delta", "nan"),
            ("search", "--step", "inf"),
            ("search", "--noise-sigma", "nan"),
            ("train", "--lr", "inf"),
            ("train", "--lr", "nan"),
            ("compare", "--lr", "inf"),
        ],
    )
    def test_usage_error_and_no_output(
        self, tmp_path, capsys, data_csv, command, flag, value
    ):
        out = tmp_path / "out"
        data = ["--data", str(data_csv)] if command in ("train", "compare") else []
        assert main([command, *data, flag, value, "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert not out.exists()


class TestSeedRange:
    # Streams are keyed through SeedSequence, which rejects negative entropy;
    # every int seed is masked to 64 bits first.
    @pytest.mark.parametrize("seed", ["-1", "99999999999999999999999"])
    def test_any_int_seed_runs(self, tmp_path, data_csv, seed):
        runs = [
            ["generate", "--n", "30"],
            ["train", "--data", str(data_csv), "--epochs", "1"],
            ["search", "--phi-points", "2", "--reps", "1"],
        ]
        for argv in runs:
            assert main(argv + ["--seed", seed, "--out-dir", str(tmp_path)]) == 0
