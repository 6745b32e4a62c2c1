import copy
import json
import math
import pickle
import re
import struct
import tracemalloc
from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cuphaptics import (
    Angle,
    ConfigError,
    CupGeometry,
    GenerationConfig,
    GroundTruthPose,
    InvalidInputError,
    FeatureStats,
    LabeledSample,
    MlpModel,
    ModelFormatError,
    PressureFieldParams,
    SensorFrame,
    TrainConfig,
    angular_error,
    backward,
    decode_estimate,
    feature_stats,
    forward,
    generate_dataset,
    init_model,
    load_model,
    loss,
    network_output,
    predict_angle,
    rmsprop_step,
    save_model,
    synth_frame,
    target_encoding,
    train,
    train_many,
)
from cuphaptics import SplitSpec, mlp
from cuphaptics import split as split_samples
from cuphaptics.mlp import CHUNK_ROWS, MODEL_MAGIC
from cuphaptics.rng import substream
from helpers import (
    gradient_check_trials,
    samples_of,
    train_a_batch_at_a_time,
    write_model_with_nan_param,
    write_model_with_sizes,
    write_model_with_stats,
)

NOISELESS = PressureFieldParams(noise_sigma_kpa=0.0)
DIVERGED = "squared-gradient average must be finite and >= 0"


# A 4-1-2 network: W0 = [[1, 0, 0, 0]], b0 = [0], W1 = [[1], [0]], b1 = [0, 0].
RELU_TOY_PARAMS = [1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0]


def zero_model(sizes=(4, 16, 32, 16, 2)):
    n_params = sum(o * (i + 1) for i, o in zip(sizes, sizes[1:]))
    return MlpModel(layer_sizes=sizes, params=np.zeros(n_params))


class TestInitModel:
    def test_layer_shapes(self):
        model = init_model(0)
        shapes = [w.shape for w in model.weights]
        assert shapes == [(16, 4), (32, 16), (16, 32), (2, 16)]
        assert [b.shape for b in model.biases] == [(16,), (32,), (16,), (2,)]

    def test_parameter_count(self):
        model = init_model(0)
        count = sum(w.size for w in model.weights) + sum(
            b.size for b in model.biases
        )
        assert count == (4 * 16 + 16) + (16 * 32 + 32) + (32 * 16 + 16) + (16 * 2 + 2)
        assert count == 1_186

    def test_deterministic(self):
        a, b = init_model(123), init_model(123)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)

    def test_seed_changes_weights(self):
        assert not np.array_equal(init_model(1).weights[0], init_model(2).weights[0])

    def test_weights_and_biases_are_views_of_params(self):
        model = init_model(5)
        assert model.params.shape == (1_186,)
        for a in (*model.weights, *model.biases):
            assert np.shares_memory(a, model.params)
        model.biases[-1][0] = 7.0
        assert model.params[-2] == 7.0

    @pytest.mark.parametrize(
        "copier", [copy.deepcopy, lambda m: pickle.loads(pickle.dumps(m))], ids=["deepcopy", "pickle"]
    )
    @pytest.mark.parametrize("standardize", [True, False], ids=["standardized", "raw"])
    def test_a_copy_keeps_its_views_into_params(self, copier, standardize):
        stats = FeatureStats(mean=(90.0, 91.0, 92.0, 93.0), std=(1.0, 2.0, 3.0, 4.0))
        stats = stats if standardize else None
        model, other = init_model(1, stats=stats), init_model(2, stats=stats)
        frame = SensorFrame(p_ch=(91.325, 96.325, 96.325, 91.325), p_atm=101.325)
        params, answer = model.params.copy(), predict_angle(model, frame)
        clone = copier(model)
        assert clone.stats == model.stats
        for a in (*clone.weights, *clone.biases):
            assert np.shares_memory(a, clone.params)
            assert not np.shares_memory(a, model.params)
        clone.params[:] = other.params
        assert predict_angle(clone, frame).degrees == predict_angle(other, frame).degrees
        assert model.params.tobytes() == params.tobytes()
        assert predict_angle(model, frame).degrees == answer.degrees

    def test_models_compare_by_identity(self):
        model = init_model(0)
        assert model == model
        assert (init_model(0) == init_model(0)) is False  # answers, does not raise
        assert model in {model, init_model(0)}
        assert len({model, init_model(0)}) == 2

    def test_glorot_bounds_and_zero_biases(self):
        model = init_model(7)
        for w, (fan_out, fan_in) in zip(model.weights, ((16, 4), (32, 16), (16, 32), (2, 16))):
            limit = math.sqrt(6.0 / (fan_in + fan_out))
            assert np.all(np.abs(w) <= limit)
        for b in model.biases:
            assert np.all(b == 0.0)


class TestModelValidation:
    @pytest.mark.parametrize(
        "params",
        [np.zeros(1_185), np.zeros(1_187), np.zeros((1, 1_186)), np.zeros((2, 593))],
        ids=["short", "long", "row", "2-d"],
    )
    def test_rejects_params_of_wrong_shape(self, params):
        with pytest.raises(InvalidInputError, match="params"):
            MlpModel(layer_sizes=(4, 16, 32, 16, 2), params=params)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_params(self, bad):
        params = np.zeros(1_186)
        params[500] = bad
        with pytest.raises(InvalidInputError, match="non-finite"):
            MlpModel(layer_sizes=(4, 16, 32, 16, 2), params=params)

    @pytest.mark.parametrize(
        "sizes",
        [("4", "3", "2"), (4, 3.7, 2), (4, 3.0, 2), (4,), (4, 0, 2), 4],
        ids=["text", "fraction", "float", "one-layer", "zero-width", "not-a-sequence"],
    )
    def test_rejects_layer_sizes_that_are_not_integers_or_too_few(self, sizes):
        # a size that only int() takes would build another network than asked
        with pytest.raises(InvalidInputError, match="bad layer_sizes"):
            MlpModel(layer_sizes=sizes, params=np.zeros(23))
        with pytest.raises(InvalidInputError, match="bad layer_sizes"):
            init_model(0, layer_sizes=sizes)

    def test_rejects_stats_of_another_width(self):
        # A FeatureStats covers the 4 channels, and no other stats are taken:
        # a tuple once raised a bare AttributeError.
        three = SimpleNamespace(mean=(90.0, 91.0, 92.0), std=(1.0, 1.0, 1.0))
        for stats, kind in (((1, 2), "tuple"), (three, "SimpleNamespace")):
            with pytest.raises(InvalidInputError) as exc_info:
                MlpModel(layer_sizes=(4, 16, 32, 16, 2), params=np.zeros(1_186), stats=stats)
            assert str(exc_info.value) == f"stats must be a FeatureStats or None, got {kind}"

    @pytest.mark.parametrize("sizes", [(3, 8, 2), (4, 8, 3), (4, 8, 1), (1, 1, 1)], ids=str)
    def test_only_a_4_in_2_out_network_builds(self, tmp_path, sizes):
        # The one shape rule: no model of another width is built in memory,
        # so none reaches inference, scoring or save_model; a file is refused
        # from its header.
        rule = f"a network must map 4 inputs to 2 outputs, got {sizes[0]} -> {sizes[-1]}"
        with pytest.raises(InvalidInputError, match=f"^{re.escape(rule)}$"):
            init_model(0, layer_sizes=sizes)
        with pytest.raises(InvalidInputError, match=f"^{re.escape(rule)}$"):
            zero_model(sizes)
        path = tmp_path / "m.cupmlp"
        write_model_with_sizes(path, sizes, standardized=False)
        with pytest.raises(ModelFormatError, match=f"^invalid model file header: {re.escape(rule)}$"):
            load_model(path)

    def test_stats_must_cover_four_channels(self):
        with pytest.raises(InvalidInputError) as exc_info:
            FeatureStats(mean=(90.0, 91.0, 92.0), std=(1.0, 1.0, 1.0))
        assert str(exc_info.value) == "feature stats must cover exactly 4 channels"

    def test_numpy_integer_layer_sizes_are_ints(self):
        model = init_model(0, layer_sizes=np.array([4, 3, 2]))
        assert model.layer_sizes == (4, 3, 2)
        assert all(type(s) is int for s in model.layer_sizes)


class TestForward:
    def test_zero_model_outputs_zero(self):
        out = forward(zero_model(), [90.0, 91.0, 92.0, 93.0])
        assert np.array_equal(out, np.zeros(2))

    def test_relu_gates_negative_preactivation(self):
        # The first input through one ReLU unit to the first output.
        toy = MlpModel(layer_sizes=(4, 1, 2), params=RELU_TOY_PARAMS)
        assert forward(toy, [-3.0, 0.0, 0.0, 0.0]).tolist() == [0.0, 0.0]
        assert forward(toy, [2.5, 0.0, 0.0, 0.0]).tolist() == [2.5, 0.0]

    def test_matches_straight_line_reimplementation(self):
        model = init_model(99)
        x = [0.3, -1.2, 2.0, 0.7]
        # per-neuron arithmetic, no matrix ops
        acts = list(x)
        last = len(model.weights) - 1
        for k, (w, bias) in enumerate(zip(model.weights, model.biases)):
            nxt = []
            for i in range(w.shape[0]):
                s = float(bias[i])
                for j in range(w.shape[1]):
                    s += float(w[i, j]) * acts[j]
                if k < last and s < 0.0:
                    s = 0.0
                nxt.append(s)
            acts = nxt
        out = forward(model, x)
        assert out[0] == pytest.approx(acts[0], abs=1e-12)
        assert out[1] == pytest.approx(acts[1], abs=1e-12)

    def test_rejects_bad_input(self):
        with pytest.raises(InvalidInputError):
            forward(init_model(0), [1.0, 2.0, 3.0])
        with pytest.raises(InvalidInputError):
            forward(init_model(0), [1.0, 2.0, 3.0, float("nan")])

    @pytest.mark.parametrize(
        "inputs, dtype",
        [
            (["1", "2", "3", "4"], "<U1"),
            (["a", "b", "c", "d"], "<U1"),
            ([b"1", b"2", b"3", b"4"], "|S1"),
            ([1j, 2.0, 3.0, 4.0], "complex128"),
            ([math.nan, 2.0, 3.0, None], "object"),
        ],
        ids=["numeric-text", "text", "bytes", "complex", "none"],
    )
    def test_rejects_what_is_not_a_number(self, inputs, dtype):
        # As errors.as_real: text is not a number, though numpy would parse it.
        with pytest.raises(InvalidInputError) as exc_info:
            forward(init_model(0), inputs)
        assert str(exc_info.value) == f"inputs must be real numbers, got dtype {dtype}"

    def test_takes_bools_and_integers_as_floats(self):
        model = init_model(0)
        want = forward(model, [1.0, 0.0, 1.0, 1.0]).tobytes()
        for inputs in ([True, False, True, True], [1, 0, 1, 1], np.array([1, 0, 1, 1], np.uint8)):
            assert forward(model, inputs).tobytes() == want


class TestEncoding:
    def test_cardinal_points(self):
        targets = target_encoding(np.array([0.0, 90.0]))
        assert targets.shape == (2, 2)
        assert targets[0] == pytest.approx((1.0, 0.0))
        assert targets[1] == pytest.approx((0.0, 1.0), abs=1e-15)
        assert decode_estimate((1.0, 0.0)).phi_pred.degrees == 0.0
        assert decode_estimate((0.0, 1.0)).phi_pred.degrees == 90.0

    def test_third_quadrant(self):
        assert decode_estimate((-0.7071, -0.7071)).phi_pred.degrees == pytest.approx(225.0)

    @pytest.mark.parametrize("width", [0, 1, 3])
    def test_another_number_of_outputs_is_named(self, width):
        with pytest.raises(InvalidInputError, match=rf"^output must have shape \(2,\), got \({width},\)$"):
            decode_estimate([0.5] * width)

    def test_zero_vector_has_no_angle(self):
        assert decode_estimate((0.0, 0.0)).phi_pred is None
        assert decode_estimate((1e-10, -1e-10)).phi_pred is None

    @given(st.floats(min_value=0.0, max_value=360.0, exclude_max=True))
    def test_decode_inverts_encode(self, phi):
        decoded = decode_estimate(target_encoding(np.array([phi]))[0]).phi_pred
        assert decoded is not None
        assert angular_error(decoded, Angle(phi)) < 1e-9


class TestLoss:
    def test_zero_at_match(self):
        assert loss((0.3, -0.8), (0.3, -0.8)) == 0.0

    def test_hand_value(self):
        assert loss((1.0, 0.0), (0.0, 1.0)) == pytest.approx(1.0)

    @given(
        st.tuples(st.floats(-5, 5), st.floats(-5, 5)),
        st.tuples(st.floats(-5, 5), st.floats(-5, 5)),
    )
    def test_non_negative(self, p, t):
        assert loss(p, t) >= 0.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InvalidInputError) as exc_info:
            loss((0.3, -0.8), (0.3, -0.8, 0.0))
        assert str(exc_info.value) == "shape mismatch (2,) vs (3,)"

    @pytest.mark.parametrize("shape", [(0,), (0, 2)])
    def test_empty_batch_rejected(self, shape):
        # Its mean was NaN, with numpy's "Mean of empty slice" warning.
        with pytest.raises(InvalidInputError) as exc_info:
            loss(np.empty(shape), np.empty(shape))
        assert str(exc_info.value) == "loss requires a non-empty batch"


class TestBackward:
    def test_batch_size_mismatch_rejected(self):
        with pytest.raises(InvalidInputError) as exc_info:
            backward(zero_model(), np.zeros((2, 4)), np.zeros((3, 2)))
        assert str(exc_info.value) == "batch size mismatch: 2 inputs vs 3 targets"

    def test_zero_gradient_at_exact_fit(self):
        model = zero_model()
        x = np.array([[90.0, 91.0, 92.0, 93.0], [1.0, 2.0, 3.0, 4.0]])
        t = np.zeros((2, 2))
        grad_w, grad_b = backward(model, x, t)
        for g in grad_w + grad_b:
            assert np.all(g == 0.0)

    def test_duplicated_batch_equals_single(self):
        model = init_model(5)
        x1 = np.array([[0.5, -0.5, 1.0, 2.0]])
        t1 = np.array([[0.3, 0.9]])
        gw1, gb1 = backward(model, x1, t1)
        xk = np.repeat(x1, 7, axis=0)
        tk = np.repeat(t1, 7, axis=0)
        gwk, gbk = backward(model, xk, tk)
        for a, b in zip(gw1 + gb1, gwk + gbk):
            assert np.allclose(a, b, atol=1e-15)

    def test_rejects_empty_batch(self):
        with pytest.raises(InvalidInputError):
            backward(init_model(0), np.empty((0, 4)), np.empty((0, 2)))

    @pytest.mark.parametrize(
        "x, want_w, want_b",
        [
            (0.0, [[[0.0]], [[0.0]]], [[0.0], [-1.0]]),
            (-0.0, [[[0.0]], [[0.0]]], [[0.0], [-1.0]]),
            (-1e-300, [[[0.0]], [[0.0]]], [[0.0], [-1.0]]),
            (1e-300, [[[-1e-300]], [[-1e-300]]], [[-1.0], [-1.0]]),
        ],
    )
    def test_relu_subgradient_at_the_kink(self, x, want_w, want_b):
        # One ReLU unit between identity paths from the first input to the
        # first output, target (1, 0): the hidden layer passes gradient only
        # where its pre-activation x is > 0. The want lists are the gradients
        # of those paths; every other gradient is 0.
        model = MlpModel((4, 1, 2), RELU_TOY_PARAMS)
        (gw0, gw1), (gb0, gb1) = backward(model, [[x, 0.0, 0.0, 0.0]], [[1.0, 0.0]])
        assert [gw0[:, :1].tolist(), gw1[:1].tolist()] == want_w
        assert [gb0.tolist(), gb1[:1].tolist()] == want_b
        assert gw0[:, 1:].tolist() == [[0.0, 0.0, 0.0]]
        assert gw1[1:].tolist() == [[0.0]] and gb1[1:].tolist() == [0.0]

    def test_matches_finite_differences_quick(self):
        checked, _, worst = gradient_check_trials(20, base_seed=50_000)
        assert checked >= 10
        assert worst <= 1.0


class TestRmsprop:
    """``rmsprop_step`` updates params and v in place and returns None."""

    def test_closed_form_first_step(self):
        params, v = np.array([0.0]), np.zeros(1)
        config = TrainConfig(lr=0.01, rho=0.9, eps=1e-8)
        assert rmsprop_step(params, np.array([1.0]), v, config) is None
        assert float(v[0]) == pytest.approx(0.1)
        expected = -0.01 / (math.sqrt(0.1) + 1e-8)
        assert float(params[0]) == pytest.approx(expected, rel=1e-12)
        assert f"{float(params[0]):.6g}" == "-0.0316228"

    def test_zero_gradient_only_decays_v(self):
        params, v = np.array(3.0), np.array(0.5)  # 0-d arrays update in place too
        rmsprop_step(params, np.array(0.0), v, TrainConfig(lr=0.01))
        assert float(params) == 3.0
        assert float(v) == pytest.approx(0.45)

    def test_constant_gradient_step_converges_to_lr(self):
        lr = 1e-3
        config = TrainConfig(lr=lr)
        theta, v = np.array([0.0]), np.zeros(1)
        last_delta = None
        for _ in range(200):
            before = float(theta[0])
            rmsprop_step(theta, np.array([1.0]), v, config)  # overwrites the gradient
            last_delta = abs(float(theta[0]) - before)
        assert abs(last_delta - lr) <= 0.01 * lr

    def test_hyperparameter_validation(self):
        with pytest.raises(ConfigError, match="lr must be finite and > 0"):
            TrainConfig(lr=0.0)
        with pytest.raises(ConfigError, match=r"rho must be in \(0, 1\)"):
            TrainConfig(rho=1.0)
        with pytest.raises(ConfigError, match="eps must be finite and > 0"):
            TrainConfig(eps=0.0)

    @pytest.mark.parametrize("value", [True, False])
    def test_standardize_is_no_field(self, value):
        # Training always z-scores: asking for either mode fails loudly.
        with pytest.raises(TypeError, match="standardize"):
            TrainConfig(standardize=value)
        assert len(fields(TrainConfig)) == 7

    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("field", ["lr", "rho", "eps"])
    def test_rejects_non_finite_hyperparameters(self, field, value):
        with pytest.raises(ConfigError):
            TrainConfig(**{field: value})

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InvalidInputError, match="shape mismatch"):
            rmsprop_step(np.zeros(3), np.zeros(2), np.zeros(3), TrainConfig())
        with pytest.raises(InvalidInputError, match="shape mismatch"):
            rmsprop_step(np.zeros(3), np.zeros(3), np.zeros(2), TrainConfig())

    @pytest.mark.parametrize(
        "params, grads, v",
        [
            (np.zeros(3, dtype=np.int64), np.ones(3), np.zeros(3)),
            ([0.0, 0.0, 0.0], np.ones(3), np.zeros(3)),
            (np.zeros(3, dtype=np.float32), np.ones(3), np.zeros(3)),
            (np.zeros(3), np.ones(3, dtype=np.int64), np.zeros(3)),
            (np.zeros(3), np.ones(3), np.zeros(3, dtype=np.int64)),
        ],
        ids=["int-params", "list-params", "float32-params", "int-grads", "int-v"],
    )
    def test_refuses_what_is_not_three_float64_arrays_before_any_write(self, params, grads, v):
        # An int params array once raised numpy's UFuncTypeError after v and grads were written.
        before = [np.array(a, copy=True) for a in (params, grads, v)]
        with pytest.raises(InvalidInputError, match="^shape mismatch: need float64 ndarrays"):
            rmsprop_step(params, grads, v, TrainConfig())
        for a, was in zip((params, grads, v), before):
            assert np.asarray(a).tobytes() == was.tobytes()

    def test_matches_the_formula_bit_for_bit(self):
        rng = np.random.default_rng(7)
        p, g, v = rng.normal(size=50), rng.normal(size=50), rng.uniform(0.0, 2.0, 50)
        v2 = 0.85 * v + (1.0 - 0.85) * g * g
        p2 = p - 0.003 * g / (np.sqrt(v2) + 1e-7)
        rmsprop_step(p, g, v, TrainConfig(lr=0.003, rho=0.85, eps=1e-7))
        assert v.tobytes() == v2.tobytes()
        assert p.tobytes() == p2.tobytes()

    def test_negative_average_is_rejected(self):
        params = np.array([0.5, -0.5])
        with pytest.raises(InvalidInputError, match=DIVERGED):
            rmsprop_step(params, np.zeros(2), np.array([-1.0, 1.0]), TrainConfig())
        assert params.tolist() == [0.5, -0.5]  # raised before the parameters moved

    def test_overflowing_average_is_rejected(self):
        params = np.array([0.5, -0.5])
        # The overflow warning is silenced so the optimizer's error surfaces.
        with np.errstate(over="ignore"):
            with pytest.raises(InvalidInputError, match=DIVERGED):
                rmsprop_step(params, np.array([1e200, 1.0]), np.zeros(2), TrainConfig())
        assert params.tolist() == [0.5, -0.5]  # raised before the parameters moved


def small_dataset(n=200, seed=4, noise=0.3):
    params = PressureFieldParams(noise_sigma_kpa=noise)
    return generate_dataset(CupGeometry(), params, GenerationConfig(n_samples=n, seed=seed))


class TestTrain:
    def test_deterministic(self):
        samples = small_dataset()
        train_set, val_set = samples[:160], samples[160:]
        config = TrainConfig(max_epochs=8, patience=8, seed=11)
        model_a, hist_a = train(train_set, val_set, config)
        model_b, hist_b = train(train_set, val_set, config)
        assert hist_a == hist_b
        for wa, wb in zip(model_a.weights, model_b.weights):
            assert np.array_equal(wa, wb)
        for ba, bb in zip(model_a.biases, model_b.biases):
            assert np.array_equal(ba, bb)

    def test_patience_zero_single_epoch(self):
        samples = small_dataset(n=40)
        model, hist = train(
            samples[:30], samples[30:], TrainConfig(max_epochs=1, patience=0, seed=0)
        )
        assert len(hist.train_loss) == 1
        assert len(hist.val_loss) == 1
        assert len(hist.val_rmse_deg) == 1

    def test_best_checkpoint_never_worse_than_initial(self):
        samples = small_dataset(n=120, seed=9)
        for seed in (0, 1, 2):
            _, hist = train(
                samples[:90],
                samples[90:],
                TrainConfig(max_epochs=6, patience=6, seed=seed),
            )
            if hist.best_epoch == 0:
                continue  # initial model kept; trivially equal
            assert hist.val_loss[hist.best_epoch - 1] <= hist.initial_val_loss

    def test_training_runs_the_public_step(self, monkeypatch):
        samples = small_dataset(n=70)
        config = TrainConfig(batch_size=16, max_epochs=4, patience=1, seed=3)
        plain, _ = train(samples[:50], samples[50:], config)
        calls = []
        step = mlp.rmsprop_step

        def counting_step(*args):
            calls.append(args)
            return step(*args)

        monkeypatch.setattr(mlp, "rmsprop_step", counting_step)
        model, history = train(samples[:50], samples[50:], config)
        # One step per mini-batch: ceil(50 / 16) = 4 per completed epoch.
        assert len(calls) == 4 * len(history.train_loss)
        assert model.params.tobytes() == plain.params.tobytes()

    def test_rejects_empty_sets(self):
        samples = small_dataset(n=10)
        with pytest.raises(ConfigError):
            train(samples[:0], samples, TrainConfig())
        with pytest.raises(ConfigError):
            train(samples, samples[:0], TrainConfig())

    def test_training_pose_sanity_on_noiseless_affine(self):
        params = PressureFieldParams(
            response="affine", transition_width_mm=20.0, noise_sigma_kpa=0.0
        )
        samples = generate_dataset(
            CupGeometry(), params, GenerationConfig(n_samples=64, sampling="grid", seed=0)
        )
        model, _ = train(
            samples, samples, TrainConfig(max_epochs=300, patience=300, seed=1)
        )
        for s in samples[::5]:
            phi = predict_angle(model, s.frame)
            assert phi is not None
            assert angular_error(phi, s.pose.phi) < 5.0


    @pytest.mark.parametrize("n, seed", [(60, 2), (80, 5), (120, 7)])
    def test_model_keeps_the_training_rows_stats(self, n, seed):
        samples = small_dataset(n=n, seed=seed)
        cut = n * 3 // 4
        config = TrainConfig(max_epochs=2, patience=2, seed=seed)
        model, _ = train(samples[:cut], samples[cut:], config)
        assert model.stats == feature_stats(samples[:cut])
        assert model.stats != feature_stats(samples)  # validation rows stay out

    # Of 50 rows, 7 and 16 leave a short last batch, 50 is one full batch and
    # 64 one short one. Inputs are z-scored, as the ids say.
    @pytest.mark.parametrize("batch_size", [7, 16, 50, 64], ids=lambda b: f"standardized-{b}")
    def test_equals_a_batch_at_a_time_replay(self, batch_size):
        samples = small_dataset(n=70)
        epochs = 5
        config = TrainConfig(batch_size=batch_size, max_epochs=epochs, patience=epochs, seed=6)
        model, history = train(samples[:50], samples[50:], config)
        snapshots, train_loss = train_a_batch_at_a_time(samples[:50], config, epochs)
        assert len(history.train_loss) == epochs
        assert model.params.tobytes() == snapshots[history.best_epoch].tobytes()
        assert history.train_loss == pytest.approx(train_loss, rel=1e-12, abs=0.0)

    def test_divergence_is_rejected(self):
        samples = small_dataset(n=60)
        # Overflow warnings are silenced so the optimizer's error surfaces.
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(InvalidInputError, match=DIVERGED):
                train(samples[:45], samples[45:], TrainConfig(lr=1e30, max_epochs=3))


def lockstep_folds(seeds, n=300):
    """Folds of one dataset under each seed's split: equal training sizes."""
    samples = small_dataset(n=n)
    return [split_samples(samples, SplitSpec(seed=seed)) for seed in seeds]


class TestTrainMany:
    SEEDS = (3, 4, 5)

    # patience 1 stops the three seeds at different epochs, so the stack
    # sheds folds while the others keep training. Inputs are z-scored. Of
    # the 240 training rows, batches of 16 divide them; batches of 17 and
    # 64 leave a short last batch (2 and 48 rows) in every live set, and
    # train at lr 1e-2 so that their folds too stop at three epochs.
    @pytest.mark.parametrize(
        "config",
        [
            TrainConfig(batch_size=16, max_epochs=25, patience=1),
            TrainConfig(batch_size=17, max_epochs=25, patience=1, lr=1e-2),
            TrainConfig(batch_size=64, max_epochs=25, patience=1, lr=1e-2),
        ],
        ids=["standardized", "short-last-batch-17", "short-last-batch-64"],
    )
    def test_each_fold_equals_a_solo_train(self, config):
        folds = lockstep_folds(self.SEEDS)
        stacked = train_many(folds, config, self.SEEDS)
        epochs = [len(history.val_loss) for _, history in stacked]
        assert len(set(epochs)) == 3 and max(epochs) < config.max_epochs
        for (train_set, val_set), seed, (model, history) in zip(folds, self.SEEDS, stacked):
            solo_model, solo_history = train(train_set, val_set, replace(config, seed=seed))
            assert model.params.tobytes() == solo_model.params.tobytes()
            assert model.stats == solo_model.stats
            for name in ("train_loss", "val_loss", "val_rmse_deg"):
                assert np.array(getattr(history, name)).tobytes() == (
                    np.array(getattr(solo_history, name)).tobytes()
                ), name
            assert history.best_epoch == solo_history.best_epoch
            assert history.initial_val_loss == solo_history.initial_val_loss

    def test_each_fold_keeps_its_own_stats(self):
        folds = lockstep_folds(self.SEEDS)
        stacked = train_many(folds, TrainConfig(max_epochs=2, patience=2), self.SEEDS)
        stats = [model.stats for model, _ in stacked]
        assert stats == [feature_stats(train_set) for train_set, _ in folds]
        assert len(set(stats)) == len(self.SEEDS)

    def test_training_folds_of_different_sizes_are_rejected(self):
        (a_train, a_val), (b_train, b_val) = lockstep_folds((1, 2))
        with pytest.raises(ConfigError, match="one size"):
            train_many([(a_train, a_val), (b_train[1:], b_val)], TrainConfig(), (1, 2))

    def test_one_seed_per_fold(self):
        folds = lockstep_folds((1, 2))
        with pytest.raises(ConfigError, match="one seed per fold"):
            train_many(folds, TrainConfig(), (1,))
        with pytest.raises(ConfigError, match="one seed per fold"):
            train_many([], TrainConfig(), ())

    def test_training_rows_are_held_once(self, monkeypatch):
        # Each fold's z-scored inputs and targets live only in the lockstep's
        # stacks, re-ordered in place. From the call to the first RMSprop
        # step, the traced peak stays under the stacks, one fold's np.take
        # buffer (its inputs), the validation folds' inputs and targets, and
        # 768 KiB for the rest: parameters, work arrays, streams, and the
        # int64 shuffle orders and row positions (about 300 KiB and 225 KiB
        # here). A second copy of the training rows (675 KiB) exceeds it.
        class FirstStep(Exception):
            pass

        def traced_step(*args):
            peaks.append(tracemalloc.get_traced_memory()[1])
            raise FirstStep

        folds = lockstep_folds(self.SEEDS, n=6000)
        n, n_val = len(folds[0][0]), sum(len(val_set) for _, val_set in folds)
        monkeypatch.setattr(mlp, "rmsprop_step", traced_step)
        peaks = []
        for _ in range(2):  # the first call's lazy allocations are not counted
            tracemalloc.start()
            try:
                with pytest.raises(FirstStep):
                    train_many(folds, TrainConfig(), self.SEEDS)
            finally:
                tracemalloc.stop()
        stacks, gather, val = len(folds) * n * 6 * 8, n * 4 * 8, n_val * 6 * 8
        assert n == 4800 and len(peaks) == 2
        assert peaks[1] < stacks + gather + val + 768 * 1024

    def test_chunked_pass_equals_one_forward_pass(self):
        rows = 2 * CHUNK_ROWS + 123
        samples = small_dataset(n=rows + 50)
        x, t = mlp._stacks(1, 50)
        run = mlp._SeedRun((samples[:50], samples[50:]), 8, x[0], t[0])
        chunked = run._val_outputs(run.model0.params)
        whole = mlp._forward(run.model0._layers, run.x_val)[-1]
        assert chunked.shape == (rows, 2)
        assert chunked.tobytes() == whole.tobytes()

    def test_no_product_is_wide_enough_for_openblas_to_split(self, monkeypatch):
        # OpenBLAS keeps a gemm of M*N*K <= 4 * 65,536 on the calling thread
        # (GEMM_MULTITHREAD_THRESHOLD times SMP_THRESHOLD_MIN), which is why
        # importing cuphaptics loads it without a worker pool. The widest
        # product is a validation chunk through the widest layer pair; every
        # training product (forward, weight gradient, gradient back through
        # a layer) is a 64-row batch through one pair, and inference runs a
        # row at a time.
        limit = 4 * 65_536
        sizes = mlp.DEFAULT_LAYER_SIZES
        widest = max(a * b for a, b in zip(sizes, sizes[1:]))
        assert CHUNK_ROWS * widest == 512 * 16 * 32 <= limit
        assert TrainConfig().batch_size < CHUNK_ROWS
        mnk = []
        matmul = np.matmul

        def recorded(a, b, *args, **kwargs):
            mnk.append(a.shape[-2] * a.shape[-1] * b.shape[-1])
            return matmul(a, b, *args, **kwargs)

        monkeypatch.setattr(np, "matmul", recorded)
        samples = small_dataset(n=128 + CHUNK_ROWS + 7)
        train(samples[:128], samples[128:], TrainConfig(max_epochs=1))
        assert max(mnk) == CHUNK_ROWS * widest

    # A full batch and a short one, each a strided slice of a two-fold stack
    # as the lockstep takes it.
    @pytest.mark.parametrize("rows", [64, 7])
    def test_work_arrays_hold_the_bits_of_fresh_products(self, rows):
        models = [init_model(seed) for seed in (8, 9)]
        sizes = models[0].layer_sizes
        params = np.stack([model.params for model in models])
        plan = mlp._plan(*mlp._layer_views(params, sizes))
        rng = np.random.default_rng(5)
        x, t = rng.normal(size=(2, 100, 4))[:, :rows], rng.normal(size=(2, 100, 2))[:, :rows]
        grad_w, grad_b = mlp._layer_views(np.empty_like(params), sizes)
        work = mlp._work_arrays(x.shape, sizes)
        diff = mlp._backward_arrays(plan, x, t, grad_w, grad_b, work)
        sq = np.add.reduce(np.square(diff, out=diff), axis=(-2, -1), out=np.empty(2))
        # The same operations, in the same order, each into a fresh array.
        a = [x]
        for k, (w_t, b) in enumerate(plan):
            a.append(a[-1] @ w_t + b)
            if k < len(plan) - 1:
                a[-1] = np.maximum(a[-1], 0.0)
        grad = (want_diff := a[-1] - t) / rows
        want_w, want_b = [], []
        for k in reversed(range(len(plan))):
            want_w.insert(0, grad.swapaxes(-1, -2) @ a[k])
            want_b.insert(0, grad.sum(axis=-2))
            if k > 0:
                grad = (grad @ plan[k][0].swapaxes(-1, -2)) * (a[k] > 0.0)
        assert [g.tobytes() for g in grad_w] == [g.tobytes() for g in want_w]
        assert [g.tobytes() for g in grad_b] == [g.tobytes() for g in want_b]
        assert diff.tobytes() == np.square(want_diff).tobytes()
        assert sq.tobytes() == np.square(want_diff).sum(axis=(-2, -1)).tobytes()

    def test_stacked_plan_gives_each_network_its_own_bits(self):
        models = [init_model(seed) for seed in (8, 9)]
        x = np.random.default_rng(3).normal(size=(2, 100, 4))
        stack = np.stack([model.params for model in models])
        plan = mlp._plan(*mlp._layer_views(stack, models[0].layer_sizes))
        stacked = mlp._forward(plan, x)
        for i, model in enumerate(models):
            solo = mlp._forward(model._layers, x[i])
            assert [a[i].tobytes() for a in stacked] == [a.tobytes() for a in solo]


class TestModelInputs:
    STATS = FeatureStats(mean=(90.0, 92.0, 94.0, 96.0), std=(3.0, 4.0, 5.0, 6.0))

    def test_model_without_stats_takes_raw_kpa(self):
        p_ch = small_dataset(n=5).p_ch
        assert mlp._model_inputs(init_model(3), p_ch) is p_ch

    def test_table_is_z_scored_under_the_stats_bit_for_bit(self):
        p_ch = small_dataset(n=40).p_ch
        want = (p_ch - np.array(self.STATS.mean)) / np.array(self.STATS.std)
        got = mlp._model_inputs(init_model(3, stats=self.STATS), p_ch)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("stats", [None, STATS], ids=["raw", "standardized"])
    def test_single_frame_runs_the_forward_pass_on_its_inputs(self, stats):
        model = init_model(5, stats=stats)
        for s in small_dataset(n=6):
            x = np.array(s.frame.p_ch)
            if stats is not None:
                x = (x - np.array(stats.mean)) / np.array(stats.std)
            assert network_output(model, s.frame).tobytes() == forward(model, x).tobytes()


class TestPredictAngle:
    def test_zero_model_gives_absent_angle(self):
        samples = small_dataset(n=2)
        assert predict_angle(zero_model(), samples[0].frame) is None

    def test_offset_augmented_model_ignores_common_mode(self):
        """Uniform chamber offsets should barely move the prediction.

        The training data carries random common-mode offsets, so the
        network learns to key on differences. Threshold frozen from the
        trained baseline (observed worst 2.2 degrees at +0.8 kPa).
        """

        def shifted(frame, u):
            return SensorFrame(
                p_ch=tuple(p + u for p in frame.p_ch), p_atm=frame.p_atm
            )

        geom = CupGeometry()
        base = generate_dataset(
            geom, NOISELESS, GenerationConfig(n_samples=2000, sampling="grid", seed=11)
        )
        augmented = samples_of(
            LabeledSample(
                frame=shifted(s.frame, substream(101, i).uniform(-1.0, 1.0)),
                pose=s.pose,
            )
            for i, s in enumerate(base)
        )
        train_set, val_set = split_samples(augmented, SplitSpec(seed=5))
        model, _ = train(
            train_set, val_set, TrainConfig(max_epochs=100, patience=100, seed=5)
        )
        assert model.stats is not None
        for k in range(12):
            g = substream(777, k)
            pose = GroundTruthPose(
                delta=float(g.uniform(7.5, 13.5)), phi=Angle(float(g.uniform(0, 360)))
            )
            f0 = synth_frame(geom, NOISELESS, pose)
            f1 = shifted(f0, 0.8)
            a0 = predict_angle(model, f0)
            a1 = predict_angle(model, f1)
            assert a0 is not None and a1 is not None
            assert angular_error(a0, a1) < 5.0


class TestPersistence:
    def test_round_trip_bitwise(self, tmp_path):
        stats = FeatureStats(mean=(90.0, 91.0, 92.0, 93.0), std=(1.0, 2.0, 3.0, 4.0))
        path = tmp_path / "m.cupmlp"
        # An untrained model keeps the stats it is given, and so does its file.
        for model in (init_model(31), init_model(31, stats=stats)):
            save_model(model, path)
            assert path.read_bytes()[len(MODEL_MAGIC)] == (model.stats is not None)
            loaded = load_model(path)
            assert loaded.layer_sizes == model.layer_sizes
            assert loaded.stats == model.stats
            for a, b in zip(model.weights, loaded.weights):
                assert np.array_equal(a, b)
            for a, b in zip(model.biases, loaded.biases):
                assert np.array_equal(a, b)

    def test_round_trip_standardized(self, tmp_path):
        samples = small_dataset(n=60, seed=3)
        model, _ = train(
            samples[:48], samples[48:], TrainConfig(max_epochs=2, patience=2, seed=8)
        )
        path = tmp_path / "m.cupmlp"
        save_model(model, path)
        assert path.read_bytes()[len(MODEL_MAGIC)] == 1
        loaded = load_model(path)
        assert model.stats is not None and loaded.stats == model.stats
        out_a = predict_angle(model, samples[0].frame)
        out_b = predict_angle(loaded, samples[0].frame)
        assert out_a.degrees == out_b.degrees

    def test_shape_generic_format(self, tmp_path):
        model = init_model(1, layer_sizes=(4, 8, 2))
        path = tmp_path / "small.cupmlp"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.layer_sizes == (4, 8, 2)
        x = [1.0, -2.0, 0.5, 3.0]
        assert np.array_equal(forward(model, x), forward(loaded, x))

    @pytest.mark.parametrize("sizes", [(3, 8, 2), (4, 8, 3), (1, 1, 1)], ids=str)
    def test_save_refuses_what_load_refuses_and_writes_nothing(self, tmp_path, sizes):
        # A model of another width is refused where it is built, so it never
        # reaches save_model; a file of those sizes is refused on load.
        rule = f"a network must map 4 inputs to 2 outputs, got {sizes[0]} -> {sizes[-1]}"
        path = tmp_path / "m.cupmlp"
        with pytest.raises(InvalidInputError, match=f"^{re.escape(rule)}$"):
            save_model(init_model(0, layer_sizes=sizes), path, metadata={"epochs": 1})
        assert list(tmp_path.iterdir()) == []
        write_model_with_sizes(path, sizes, standardized=False)
        with pytest.raises(ModelFormatError, match=re.escape(rule)):
            load_model(path)
        model = init_model(0, layer_sizes=(4, 8, 2))
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.layer_sizes == (4, 8, 2)
        assert loaded.params.tobytes() == model.params.tobytes()

    # Standardized 4-16-32-16-2 file: magic 0-6, mode 7, depth 8-11,
    # sizes 12-31, stats 32-95, params 96-9583.
    @pytest.mark.parametrize(
        "keep",
        [0, 3, 7, 9, 20, 60, 96, 5_000, 9_583],
        ids=[
            "empty", "magic", "mode", "depth", "sizes",
            "stats", "no-params", "params", "one-byte-short",
        ],
    )
    def test_truncated_file_rejected(self, tmp_path, keep):
        stats = FeatureStats(mean=(90.0, 91.0, 92.0, 93.0), std=(1.0, 1.0, 1.0, 1.0))
        path = tmp_path / "m.cupmlp"
        save_model(init_model(0, stats=stats), path)
        blob = path.read_bytes()
        assert len(blob) == 9_584
        path.write_bytes(blob[:keep])
        with pytest.raises(ModelFormatError, match="truncated"):
            load_model(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "m.cupmlp"
        save_model(init_model(0), path)
        blob = bytearray(path.read_bytes())
        blob[0] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(ModelFormatError, match="magic"):
            load_model(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "m.cupmlp"
        save_model(init_model(0), path)
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(ModelFormatError, match="trailing"):
            load_model(path)

    def test_params_block_is_the_flat_vector(self, tmp_path):
        model = init_model(3)
        path = tmp_path / "m.cupmlp"
        save_model(model, path)
        flat = np.concatenate(
            [a.ravel() for w, b in zip(model.weights, model.biases) for a in (w, b)]
        )
        assert np.array_equal(model.params, flat)
        for a in (*model.weights, *model.biases):
            assert np.shares_memory(a, model.params)
        blob = path.read_bytes()
        assert blob.endswith(model.params.astype("<f8").tobytes())
        assert len(blob) == len(MODEL_MAGIC) + 1 + 4 + 4 * 5 + 8 * model.params.size
        loaded = load_model(path)
        assert np.array_equal(loaded.params, model.params)
        for a in (*loaded.weights, *loaded.biases):
            assert np.shares_memory(a, loaded.params)

    def test_non_finite_param_rejected(self, tmp_path):
        path = tmp_path / "m.cupmlp"
        write_model_with_nan_param(path)
        with pytest.raises(ModelFormatError, match="non-finite"):
            load_model(path)

    @pytest.mark.parametrize(
        "mean0, std0", [(math.nan, 1.0), (90.0, 0.0)], ids=["nan-mean", "zero-std"]
    )
    def test_bad_stats_rejected(self, tmp_path, mean0, std0):
        path = tmp_path / "m.cupmlp"
        write_model_with_stats(
            path, mean=(mean0, 91.0, 92.0, 93.0), std=(std0, 1.0, 1.0, 1.0)
        )
        with pytest.raises(ModelFormatError, match="channel 1"):
            load_model(path)

    @pytest.mark.parametrize("standardized", [False, True], ids=["raw", "standardized"])
    @pytest.mark.parametrize(
        "sizes", [(4, 3), (4, 1), (3, 2)], ids=["4-3", "4-1", "3-2"]
    )
    def test_wrong_input_or_output_width_rejected(self, tmp_path, sizes, standardized):
        path = tmp_path / "m.cupmlp"
        write_model_with_sizes(path, sizes, standardized)
        with pytest.raises(ModelFormatError, match="4 inputs to 2 outputs"):
            load_model(path)

    @pytest.mark.parametrize(
        "offset, fmt, value, message",
        [
            (0, "<B", 255, "unknown input-mode byte 255"),
            (1, "<I", 1, "implausible layer count 1"),
            (1, "<I", 65, "implausible layer count 65"),
            (9, "<I", 0, "invalid model file header: bad layer_sizes (4, 0, 2)"),
        ],
        ids=["mode-255", "depth-1", "depth-65", "zero-width"],
    )
    def test_bad_header_rejected(self, tmp_path, offset, fmt, value, message):
        # Offsets past the magic: the mode byte at 0, the depth at 1, sizes from 5.
        path = tmp_path / "m.cupmlp"
        save_model(init_model(0, layer_sizes=(4, 8, 2)), path)
        blob = bytearray(path.read_bytes())
        struct.pack_into(fmt, blob, len(MODEL_MAGIC) + offset, value)
        path.write_bytes(bytes(blob))
        with pytest.raises(ModelFormatError) as exc_info:
            load_model(path)
        assert str(exc_info.value) == message

    def test_sidecar_metadata(self, tmp_path):
        path = tmp_path / "m.cupmlp"
        save_model(init_model(0), path, metadata={"epochs": 3, "note": "fixture"})
        sidecar = tmp_path / "m.cupmlp.json"
        assert sidecar.exists()
        assert json.loads(sidecar.read_text())["epochs"] == 3
