import json
import math
from dataclasses import replace

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
    RmspropState,
    SensorFrame,
    TrainConfig,
    angular_error,
    backward,
    decode_angle,
    forward,
    generate_dataset,
    init_model,
    load_model,
    loss,
    predict_angle,
    rmsprop_step,
    save_model,
    synth_frame,
    target_encoding,
    train,
    train_many,
)
from cuphaptics import SplitSpec
from cuphaptics import split as split_samples
from cuphaptics.mlp import CHUNK_ROWS, MODEL_MAGIC, _forward_batch, _outputs_chunked
from cuphaptics.rng import substream
from helpers import (
    gradient_check_trials,
    samples_of,
    write_model_with_nan_param,
    write_model_with_sizes,
    write_model_with_stats,
)

NOISELESS = PressureFieldParams(noise_sigma_kpa=0.0)
DIVERGED = "squared-gradient average must be finite and >= 0"


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


class TestForward:
    def test_zero_model_outputs_zero(self):
        out = forward(zero_model(), [90.0, 91.0, 92.0, 93.0])
        assert np.array_equal(out, np.zeros(2))

    def test_relu_gates_negative_preactivation(self):
        # W0 = [[1]], b0 = [0], W1 = [[1]], b1 = [0]
        toy = MlpModel(layer_sizes=(1, 1, 1), params=np.array([1.0, 0.0, 1.0, 0.0]))
        assert forward(toy, [-3.0])[0] == 0.0
        assert forward(toy, [2.5])[0] == 2.5

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


class TestEncoding:
    def test_cardinal_points(self):
        assert target_encoding(Angle(0.0)) == pytest.approx((1.0, 0.0))
        assert target_encoding(Angle(90.0)) == pytest.approx((0.0, 1.0), abs=1e-15)
        assert decode_angle((1.0, 0.0)).degrees == 0.0
        assert decode_angle((0.0, 1.0)).degrees == 90.0

    def test_third_quadrant(self):
        assert decode_angle((-0.7071, -0.7071)).degrees == pytest.approx(225.0)

    def test_zero_vector_has_no_angle(self):
        assert decode_angle((0.0, 0.0)) is None
        assert decode_angle((1e-10, -1e-10)) is None

    @given(st.floats(min_value=0.0, max_value=360.0, exclude_max=True))
    def test_decode_inverts_encode(self, phi):
        decoded = decode_angle(target_encoding(Angle(phi)))
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


class TestBackward:
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

    def test_matches_finite_differences_quick(self):
        checked, _, worst = gradient_check_trials(20, base_seed=50_000)
        assert checked >= 10
        assert worst <= 1.0


class TestRmsprop:
    def test_closed_form_first_step(self):
        state = RmspropState.initial([np.array(0.0)], lr=0.01, rho=0.9, eps=1e-8)
        params, state = rmsprop_step([np.array(0.0)], [np.array(1.0)], state)
        assert float(state.v[0]) == pytest.approx(0.1)
        expected = -0.01 / (math.sqrt(0.1) + 1e-8)
        assert float(params[0]) == pytest.approx(expected, rel=1e-12)
        assert f"{float(params[0]):.6g}" == "-0.0316228"

    def test_zero_gradient_only_decays_v(self):
        state = RmspropState(v=(np.array(0.5),), lr=0.01)
        params, state2 = rmsprop_step([np.array(3.0)], [np.array(0.0)], state)
        assert float(params[0]) == 3.0
        assert float(state2.v[0]) == pytest.approx(0.45)

    def test_constant_gradient_step_converges_to_lr(self):
        lr = 1e-3
        state = RmspropState.initial([np.array(0.0)], lr=lr)
        theta = np.array(0.0)
        last_delta = None
        for _ in range(200):
            (new_theta,), state = rmsprop_step([theta], [np.array(1.0)], state)
            last_delta = abs(float(new_theta - theta))
            theta = new_theta
        assert abs(last_delta - lr) <= 0.01 * lr

    def test_hyperparameter_validation(self):
        with pytest.raises(ConfigError):
            RmspropState.initial([np.array(0.0)], lr=0.0)
        with pytest.raises(ConfigError):
            RmspropState.initial([np.array(0.0)], rho=1.0)
        with pytest.raises(ConfigError):
            RmspropState.initial([np.array(0.0)], eps=0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("field", ["lr", "rho", "eps"])
    def test_rejects_non_finite_hyperparameters(self, field, value):
        with pytest.raises(ConfigError):
            RmspropState.initial([np.array(0.0)], **{field: value})
        with pytest.raises(ConfigError):
            TrainConfig(**{field: value})

    def test_shape_mismatch_rejected(self):
        state = RmspropState.initial([np.zeros(3)])
        with pytest.raises(InvalidInputError):
            rmsprop_step([np.zeros(3)], [np.zeros(2)], state)

    def test_leaves_its_arguments_unchanged(self):
        params, grads = [np.array([1.0, -2.0])], [np.array([0.5, 0.25])]
        state = RmspropState(v=(np.array([0.1, 0.2]),), lr=0.01)
        new_params, new_state = rmsprop_step(params, grads, state)
        assert params[0].tolist() == [1.0, -2.0]
        assert grads[0].tolist() == [0.5, 0.25]
        assert state.v[0].tolist() == [0.1, 0.2]
        assert new_params[0] is not params[0]
        assert new_state.v[0] is not state.v[0]

    def test_matches_the_formula_bit_for_bit(self):
        rng = np.random.default_rng(7)
        p, g, v = rng.normal(size=50), rng.normal(size=50), rng.uniform(0.0, 2.0, 50)
        state = RmspropState(v=(v,), lr=0.003, rho=0.85, eps=1e-7)
        (new_p,), new_state = rmsprop_step([p], [g], state)
        v2 = 0.85 * v + (1.0 - 0.85) * g * g
        assert new_state.v[0].tobytes() == v2.tobytes()
        assert new_p.tobytes() == (p - 0.003 * g / (np.sqrt(v2) + 1e-7)).tobytes()

    def test_overflowing_average_is_rejected(self):
        state = RmspropState.initial([np.zeros(2)])
        # The overflow warning is silenced so the optimizer's error surfaces.
        with np.errstate(over="ignore"):
            with pytest.raises(InvalidInputError, match=DIVERGED):
                rmsprop_step([np.zeros(2)], [np.array([1e200, 1.0])], state)


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

    def test_raw_input_mode(self):
        samples = small_dataset(n=80, seed=2)
        model, _ = train(
            samples[:60],
            samples[60:],
            TrainConfig(max_epochs=3, patience=3, seed=0, standardize=False),
        )
        assert model.input_mode == "raw"
        assert model.stats is None
        assert predict_angle(model, samples[0].frame) is not None

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

    @pytest.mark.parametrize("standardize", [True, False], ids=["standardized", "raw"])
    def test_each_fold_equals_a_solo_train(self, standardize):
        folds = lockstep_folds(self.SEEDS)
        # patience 1 stops the three seeds at different epochs, so the
        # stack sheds folds while the others keep training.
        config = TrainConfig(batch_size=16, max_epochs=25, patience=1, standardize=standardize)
        stacked = train_many(folds, config, self.SEEDS)
        epochs = [len(history.val_loss) for _, history in stacked]
        assert len(set(epochs)) == 3 and max(epochs) < config.max_epochs
        for (train_set, val_set), seed, (model, history) in zip(folds, self.SEEDS, stacked):
            solo_model, solo_history = train(train_set, val_set, replace(config, seed=seed))
            assert model.params.tobytes() == solo_model.params.tobytes()
            assert model.input_mode == solo_model.input_mode
            assert model.stats == solo_model.stats
            for name in ("train_loss", "val_loss", "val_rmse_deg"):
                assert np.array(getattr(history, name)).tobytes() == (
                    np.array(getattr(solo_history, name)).tobytes()
                ), name
            assert history.best_epoch == solo_history.best_epoch
            assert history.initial_val_loss == solo_history.initial_val_loss

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

    def test_chunked_pass_equals_one_forward_pass(self):
        rows = 2 * CHUNK_ROWS + 123
        x = np.random.default_rng(3).normal(size=(rows, 4))
        model = init_model(8)
        work = [np.empty((CHUNK_ROWS, width)) for width in model.layer_sizes[1:]]
        chunked = _outputs_chunked(model.weights, model.biases, x, np.empty((rows, 2)), work)
        whole = _forward_batch(model.weights, model.biases, x)[0][-1]
        assert chunked.tobytes() == whole.tobytes()


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
        assert model.input_mode == "standardized"
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
        model = init_model(31)
        path = tmp_path / "m.cupmlp"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.layer_sizes == model.layer_sizes
        assert loaded.input_mode == "raw"
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
        loaded = load_model(path)
        assert loaded.input_mode == "standardized"
        assert loaded.stats.mean == model.stats.mean
        assert loaded.stats.std == model.stats.std
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
        save_model(init_model(0, input_mode="standardized", stats=stats), path)
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

    def test_sidecar_metadata(self, tmp_path):
        path = tmp_path / "m.cupmlp"
        save_model(init_model(0), path, metadata={"epochs": 3, "note": "fixture"})
        sidecar = tmp_path / "m.cupmlp.json"
        assert sidecar.exists()
        assert json.loads(sidecar.read_text())["epochs"] == 3
