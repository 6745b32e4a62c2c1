"""Golden outputs: fixed-seed CLI runs must reproduce pinned file bytes.

The digests were recorded on x86-64 Linux (Python 3.11, numpy 2.4) with
the code as it stood before training moved to one flat parameter vector,
so they hold refactors to the outputs of earlier code. A change that
alters any of these bytes on purpose must say why in CHANGES.md and
re-pin here. Model bytes depend on the summation order of numpy's matrix
products, so a different BLAS build or CPU may need its own pins.
"""

import hashlib

import pytest

from cuphaptics.cli import main

# Paths relative to the run directory built by the ``golden_run`` fixture.
GOLDEN_SHA256 = {
    "data/dataset.csv": "ebfaee5ef5b1e8888212d4056ba62a960ec47e08d4a538958672ed049845c833",
    "std/model.cupmlp": "8bacb79fef44d7de7148f0ce79880a754ed12fcc76d10098be55245db1f1eaf4",
    "std/model.cupmlp.json": "f4aa3af3d8bbca9084050bff938bb8a6c563e32f39fd4c440081a56f67338443",
    "std/history.json": "95fa79fe088f6481b60a3b4470408f7968b4c4c37f597116eb50dd8280a26615",
    "raw/model.cupmlp": "1683f5adab1069ebe6cb71c8c141fc587ef7a18592bfd4b3d5619a683384f0e3",
    "raw/model.cupmlp.json": "eeb84bc81be0f3e8a357c5516d3cbad3cb25a1a921416df759e3d1e3fd201789",
    "raw/history.json": "2b42a9d3508a85a6b24e98069df9cb38ee5488ae243b22e08310369bc85e97fb",
    "compare/report.json": "8a4f19ddf9c1ed003536f65359ef20c75057acd2bc06255047b252306541b2e7",
    "compare/scatter_mlp.csv": "701562b3b8141160df7fd5bc92ab1841a8474cadbea484d82bf14ce5857f474c",
    "compare/scatter_model_based.csv": "b03a1b22e1e049891e9cb29887599afef8b0145dbbd1a798ce8b072c572c84c0",
    "search_model_based/search.csv": "3fe1a50acdd47c05569304f580f9bc7cd69e379e862eeb30dda72e68c17fc096",
    "search_mlp/search.csv": "1c737a468a520b6dd4fe2ac780d5bae7bc50033495bd5f16ac491360a939c121",
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
        train + ["--raw-inputs", "--out-dir", str(root / "raw")],
        ["compare", "--data", data, "--seeds", "1,2", "--epochs", "3", "--patience", "3"]
        + ["--out-dir", str(root / "compare")],
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
