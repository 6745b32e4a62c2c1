"""One array rule: every caller array the package reads goes through
``errors.as_reals``. Text, None, bytes and ragged nestings, which
``np.asarray(..., np.float64)`` parsed or failed on with a bare numpy error,
raise ``InvalidInputError`` naming the argument; a wrong shape is named where
the edge has a shape; and bools and integers read as the floats they equal."""

import re

import numpy as np
import pytest

from cuphaptics import (
    CupGeometry,
    InvalidInputError,
    MlpModel,
    PressureFieldParams,
    angular_errors,
    backward,
    chamber_vacuum,
    coverage_depth,
    decode_estimate,
    export_scatter,
    forward,
    init_model,
    loss,
    target_encoding,
)

MODEL = init_model(0)
GEOM = CupGeometry()
NOISELESS = PressureFieldParams(noise_sigma_kpa=0.0)

# Per edge: a call of the argument under test (and a scratch file path), the
# name its errors give, a value it takes, and a shape it refuses (None: it
# takes any shape).
EDGES = {
    "forward": (lambda a, path: forward(MODEL, a), "inputs", [1.0, 2.0, 3.0, 4.0], [[1.0] * 4]),
    "backward-inputs": (
        lambda a, path: backward(MODEL, a, np.zeros((2, 2))),
        "inputs",
        [[1.0, 2.0, 3.0, 4.0], [0.0, 1.0, 0.0, 1.0]],
        np.zeros((2, 3)),
    ),
    "backward-targets": (
        lambda a, path: backward(MODEL, np.ones((2, 4)), a),
        "targets",
        [[1.0, 0.0], [0.0, 1.0]],
        np.zeros((2, 3)),
    ),
    "loss-pred": (lambda a, path: loss(a, [0.0, 0.5]), "pred", [1.0, 0.0], None),
    "loss-target": (lambda a, path: loss([0.0, 0.5], a), "target", [1.0, 0.0], None),
    "decode_estimate": (lambda a, path: decode_estimate(a), "output", [1.0, 1.0], [1.0, 1.0, 0.0]),
    "MlpModel-params": (
        lambda a, path: MlpModel((4, 2), a).params,
        "params",
        [1.0, 0.0] * 5,
        np.zeros(9),
    ),
    "target_encoding": (lambda a, path: target_encoding(a), "phi_deg", [10.0, 90.0], [[10.0]]),
    "angular_errors-pred": (
        lambda a, path: angular_errors(a, [350.0, 0.0]), "pred_deg", [10.0, 90.0], None
    ),
    "angular_errors-true": (
        lambda a, path: angular_errors([350.0, 0.0], a), "true_deg", [10.0, 90.0], None
    ),
    "coverage_depth-delta": (
        lambda a, path: coverage_depth(GEOM, a, [0.0, 90.0]), "delta", [1.0, 20.0], None
    ),
    "coverage_depth-phi": (
        lambda a, path: coverage_depth(GEOM, [1.0, 20.0], a), "phi_deg", [0.0, 90.0], None
    ),
    "chamber_vacuum": (
        lambda a, path: chamber_vacuum(NOISELESS, a), "d", [1.0, -3.0], None
    ),
    "export_scatter-true": (
        lambda a, path: export_scatter({"m": (a, [1.0, 2.0])}, path),
        "m phi_true_deg",
        [10.0, 90.0],
        [[10.0, 90.0]],
    ),
    "export_scatter-pred": (
        lambda a, path: export_scatter({"m": ([1.0, 2.0], a)}, path),
        "m phi_pred_deg",
        [10.0, 90.0],
        [[10.0, 90.0]],
    ),
}


def _with_none(value):
    """``value`` as nested lists, its first number replaced by None."""
    cells = np.array(value, dtype=object)
    cells.flat[0] = None
    return cells.tolist()


BAD_VALUES = {
    "text": lambda value: np.asarray(value).astype(str).tolist(),  # "1.0", which float() parses
    "none": _with_none,
    "bytes": lambda value: np.asarray(value).astype(bytes).tolist(),
}


def _bits(result):
    """An edge's result as comparable bits: array bytes, recursively through lists."""
    if isinstance(result, np.ndarray):
        return result.dtype.str, result.shape, result.tobytes()
    if isinstance(result, (list, tuple)):
        return [_bits(r) for r in result]
    return result


@pytest.mark.parametrize("bad", BAD_VALUES)
@pytest.mark.parametrize("edge", EDGES)
def test_refuses_what_is_not_a_number_naming_the_argument(edge, bad, tmp_path):
    call, name, value, _ = EDGES[edge]
    path = tmp_path / "scatter.csv"
    with pytest.raises(InvalidInputError, match=f"^{re.escape(name)} must be real numbers, got dtype "):
        call(BAD_VALUES[bad](value), path)
    assert not path.exists()  # export_scatter opens no file before its columns pass


@pytest.mark.parametrize("edge", EDGES)
def test_refuses_a_ragged_nesting_naming_the_argument(edge, tmp_path):
    # numpy's asarray raises a bare ValueError on it ("inhomogeneous shape")
    call, name, value, _ = EDGES[edge]
    cells = np.asarray(value).tolist()
    path = tmp_path / "scatter.csv"
    with pytest.raises(InvalidInputError, match=f"^{re.escape(name)} must be an array, got a ragged"):
        call([cells, cells[:1]], path)
    assert not path.exists()


@pytest.mark.parametrize("edge", [e for e, (*_, wrong) in EDGES.items() if wrong is not None])
def test_names_a_wrong_shape(edge, tmp_path):
    call, name, value, wrong = EDGES[edge]
    path = tmp_path / "scatter.csv"
    got = re.escape(str(np.shape(wrong)))
    with pytest.raises(InvalidInputError, match=f"^{re.escape(name)} must have shape .*, got {got}$"):
        call(wrong, path)
    assert not path.exists()


@pytest.mark.parametrize("edge", EDGES)
def test_reads_integers_and_bools_as_the_floats_they_equal(edge, tmp_path):
    call, _, value, _ = EDGES[edge]
    want = _bits(call(value, tmp_path / "float.csv"))
    for kind in (np.int64, np.uint8, bool):
        if np.array_equal(np.asarray(value).astype(kind), value):
            assert _bits(call(np.asarray(value).astype(kind).tolist(), tmp_path / "int.csv")) == want
    if edge.startswith("export_scatter"):
        assert (tmp_path / "int.csv").read_bytes() == (tmp_path / "float.csv").read_bytes()


def test_a_float64_array_passes_through_as_itself():
    # MlpModel's weights and biases are views into the very array it was given.
    params = np.zeros(10)
    model = MlpModel((4, 2), params)
    assert model.params is params
    params[0] = 1.0
    assert model.weights[0][0, 0] == 1.0


def test_backward_names_a_three_wide_batch():
    with pytest.raises(InvalidInputError, match=r"^inputs must have shape \(n, 4\), got \(2, 3\)$"):
        backward(MODEL, np.zeros((2, 3)), np.zeros((2, 2)))
    with pytest.raises(InvalidInputError, match=r"^targets must have shape \(n, 2\), got \(2, 3\)$"):
        backward(MODEL, np.zeros((2, 4)), np.zeros((2, 3)))


def test_export_scatter_writes_lists_as_it_writes_arrays(tmp_path):
    columns = ([12.0, 50.0, 199.5], [10.0, float("nan"), 200.25])
    export_scatter({"a": tuple(map(np.array, columns))}, tmp_path / "arrays.csv")
    export_scatter({"a": columns}, tmp_path / "lists.csv")
    want = "phi_true_deg,phi_pred_deg,method\n12,10,a\n199.5,200.25,a\n"
    assert (tmp_path / "arrays.csv").read_text() == want
    assert (tmp_path / "lists.csv").read_bytes() == (tmp_path / "arrays.csv").read_bytes()
