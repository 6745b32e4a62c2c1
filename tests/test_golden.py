"""Golden outputs: fixed-seed CLI runs must reproduce pinned file bytes.

The digests were recorded on x86-64 Linux (Python 3.11, numpy 2.4) when
datasets moved to one array kernel over streams keyed by (seed, purpose),
so they hold later refactors to those outputs. A change that alters any
of these bytes on purpose must say why in CHANGES.md and re-pin here. Model bytes depend on the summation order of numpy's matrix
products, so a different BLAS build or CPU may need its own pins.
"""

import hashlib
from pathlib import Path

import pytest

from cuphaptics import (
    CupGeometry,
    GenerationConfig,
    PressureFieldParams,
    decode_estimate,
    evaluate_mlp,
    forward,
    generate_dataset,
    load_model,
    predict_angle,
    save_model,
)
from cuphaptics.cli import SEARCH_FILENAME, main
from cuphaptics.mlp import MODEL_MAGIC

# A model file without stats (mode byte 0), from before training always
# z-scored: ``generate --n 3000 --seed 5``, then ``train --seed 5 --epochs 6
# --patience 6`` on raw kPa inputs. It holds that mode-0 files still load
# and answer as they did.
RAW_MODE0 = Path(__file__).parent / "data" / "raw_mode0.cupmlp"
RAW_MODE0_SHA256 = "64ca9adf3f4287ef953e522bb58da8d6287bdd649d1d18fec42260fff41287a3"

# Paths relative to the run directory built by the ``golden_run`` fixture.
GOLDEN_SHA256 = {
    "data/dataset.csv": "4d81cfa14d6087cb0ebce547e05902ace5343699235fbb2dddadca441ab0fe56",
    "std/model.cupmlp": "1e717d1cb2af94a69c6e9b11d32b37744a51e49755e0d664140833191a261bee",
    "std/model.cupmlp.json": "f6062a1143d5da4e6a2ce05cdb5d7ddf7478b5fed52c75b93659732c8f27206e",
    "std/history.json": "26b407788674b259af85e1a89653f81ac4efb69b0e684fc12d6880448574985f",
    "compare/report.json": "b279473d7d07ff45b88772628ce11b39b91ccadeefacc2d49542798b795c372b",
    "compare/scatter_mlp.csv": "aa26f1954ec1488aec75e00f25d3361d9e561141cc2b6e4abbe0df184300722a",
    "compare/scatter_model_based.csv": "fe421fe1132a3a32b9b150b1b2a64d31f263128c19d4007ba01805685d332b6b",
    # 6,000 rows: each epoch scores only the 1,200-row validation fold, which
    # spans three 512-row chunks, the last one short.
    "compare6k/report.json": "b58d3c5302addc7494feefb73ce6335b1c05d4a53673ef4f42037f5fe73aeb44",
    "search_model_based/search.csv": "3fe1a50acdd47c05569304f580f9bc7cd69e379e862eeb30dda72e68c17fc096",
    "search_mlp/search.csv": "1c737a468a520b6dd4fe2ac780d5bae7bc50033495bd5f16ac491360a939c121",
}

# Single-frame MLP answers, which hold the network's output bits: the
# ``predict`` stdout for each model on one fixed frame: the golden run's
# trained one, and the checked-in mode-0 file.
GOLDEN_PREDICT = {
    "std": '{"method": "mlp", "v_pred": [0.9933823502712892, -0.03348213581613666], '
    '"phi_pred_deg": 358.06956595125916}\n',
    "raw": '{"method": "mlp", "v_pred": [0.06326411517002253, 0.3957175018486108], '
    '"phi_pred_deg": 80.91687872053917}\n',
}


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    data = str(root / "data" / "dataset.csv")
    train = ["train", "--data", data, "--seed", "5", "--epochs", "6", "--patience", "6"]
    search = ["search", "--phi-points", "8", "--reps", "2", "--seed", "5"]
    runs = [
        ["generate", "--n", "3000", "--seed", "5", "--out-dir", str(root / "data")],
        train + ["--out-dir", str(root / "std")],
        ["compare", "--data", data, "--seeds", "1,2", "--epochs", "3", "--patience", "3"]
        + ["--out-dir", str(root / "compare")],
        ["generate", "--n", "6000", "--seed", "5", "--out-dir", str(root / "data6k")],
        ["compare", "--data", str(root / "data6k" / "dataset.csv"), "--seeds", "1,2,3"]
        + ["--epochs", "4", "--patience", "1", "--out-dir", str(root / "compare6k")],
        search + ["--estimator", "model_based", "--out-dir", str(root / "search_model_based")],
        search
        + ["--estimator", "mlp", "--model", str(root / "std" / "model.cupmlp")]
        + ["--out-dir", str(root / "search_mlp")],
    ]
    for argv in runs:
        assert main(argv) == 0, argv
    return root


@pytest.mark.parametrize("relpath", sorted(GOLDEN_SHA256))
def test_output_bytes_match_pinned_digest(golden_run, relpath):
    digest = hashlib.sha256((golden_run / relpath).read_bytes()).hexdigest()
    assert digest == GOLDEN_SHA256[relpath]


@pytest.mark.parametrize("model_dir", sorted(GOLDEN_PREDICT))
def test_predict_output_matches_pinned_text(golden_run, model_dir, capsys):
    model = RAW_MODE0 if model_dir == "raw" else golden_run / model_dir / "model.cupmlp"
    argv = ["predict", "--method", "mlp", "--model", str(model)]
    assert main(argv + ["--p-ch", "91.325,96.325,96.325,91.325"]) == 0
    assert capsys.readouterr().out == GOLDEN_PREDICT[model_dir]


class TestRawMode0File:
    def test_bytes_match_pinned_digest(self):
        assert hashlib.sha256(RAW_MODE0.read_bytes()).hexdigest() == RAW_MODE0_SHA256

    def test_loads_without_stats(self):
        assert load_model(RAW_MODE0).stats is None

    def test_frames_enter_as_raw_kpa(self):
        model = load_model(RAW_MODE0)
        samples = generate_dataset(
            CupGeometry(), PressureFieldParams(), GenerationConfig(n_samples=20, seed=4)
        )
        for s in samples:
            want = decode_estimate(forward(model, s.frame.p_ch)).phi_pred
            assert predict_angle(model, s.frame) == want

    def test_mode_byte_is_zero(self):
        assert RAW_MODE0.read_bytes()[len(MODEL_MAGIC)] == 0

    def test_saves_back_to_the_same_bytes(self, tmp_path):
        save_model(load_model(RAW_MODE0), tmp_path / "copy.cupmlp")
        assert (tmp_path / "copy.cupmlp").read_bytes() == RAW_MODE0.read_bytes()

    def test_search_runs_on_it(self, tmp_path):
        argv = ["search", "--estimator", "mlp", "--model", str(RAW_MODE0), "--phi-points", "2"]
        argv += ["--reps", "1", "--max-steps", "10", "--noise-sigma", "0"]
        assert main(argv + ["--out-dir", str(tmp_path)]) == 0
        lines = (tmp_path / SEARCH_FILENAME).read_text().splitlines()
        assert len(lines) == 3 and all(",mlp," in line for line in lines[1:])

    def test_single_frames_answer_as_the_table(self):
        model = load_model(RAW_MODE0)
        samples = generate_dataset(
            CupGeometry(), PressureFieldParams(), GenerationConfig(n_samples=200, seed=3)
        )
        pairs = evaluate_mlp(model, samples)
        assert len(pairs) == len(samples)
        assert [predict_angle(model, s.frame) for s in samples] == [p.phi_pred for p in pairs]
