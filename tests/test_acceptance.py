"""Release acceptance gate.

Eight end-to-end checks, one per release criterion. Each test prints a
single PASS/FAIL line (run ``pytest -s tests/test_acceptance.py`` to see
them all) and asserts the same condition, so the suite both reports and
enforces the bar.
"""

import math
import time

import numpy as np

from cuphaptics import (
    Angle,
    BatchSpec,
    CupGeometry,
    GenerationConfig,
    GroundTruthPose,
    ModelBasedEstimator,
    OracleEstimator,
    PressureFieldParams,
    SearchConfig,
    SplitSpec,
    TrainConfig,
    angular_error,
    batch_search,
    estimate_direction,
    evaluate_mlp,
    generate_dataset,
    load_model,
    read_csv,
    rmse_deg,
    rmsprop_step,
    run_comparison,
    run_search,
    save_model,
    split,
    synth_frame,
    train,
    write_batch_csv,
    write_csv,
)
from helpers import gradient_check_trials

GEOM = CupGeometry()
# Transition width 20 mm keeps the affine ramp unsaturated across the
# whole 7-14 mm offset band, so the closed-form estimator sees a pure
# cosine field and must be exact there.
AFFINE_EXACT = PressureFieldParams(
    response="affine", transition_width_mm=20.0, noise_sigma_kpa=0.0
)
SIGMOID_CLEAN = PressureFieldParams(noise_sigma_kpa=0.0)


def check(criterion: int, label: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion}] {label}: {verdict} ({detail})")
    assert ok, f"criterion {criterion} — {label}: {detail}"


def pose_error_deg(params: PressureFieldParams, pose: GroundTruthPose) -> float:
    estimate = estimate_direction(synth_frame(GEOM, params, pose))
    if estimate.phi_pred is None:
        return 180.0
    return angular_error(estimate.phi_pred, pose.phi)


def test_c1_learned_estimator_matches_or_beats_closed_form():
    t0 = time.perf_counter()
    samples = generate_dataset(GEOM, PressureFieldParams(), GenerationConfig())
    report, _ = run_comparison(samples, SplitSpec(), TrainConfig(), seeds=(1, 2, 3, 4, 5))
    elapsed = time.perf_counter() - t0
    mlp = report.mlp.rmse_mean_deg
    mb = report.model_based.rmse_mean_deg
    ok = (
        math.isfinite(mlp)
        and math.isfinite(mb)
        and mlp <= mb
        and mlp < 45.0
        and mb < 45.0
        and elapsed < 600.0
    )
    check(
        1,
        "five-seed comparison on the default dataset",
        ok,
        f"network {mlp:.3f} deg <= closed form {mb:.3f} deg, {elapsed:.1f} s",
    )


def test_c2_closed_form_estimator_exact_on_unclamped_fields():
    worst_affine = max(
        pose_error_deg(
            AFFINE_EXACT, GroundTruthPose(delta=float(d), phi=Angle(float(p)))
        )
        for p in range(360)
        for d in range(7, 15)
    )
    worst_sigmoid = max(
        pose_error_deg(
            SIGMOID_CLEAN, GroundTruthPose(delta=float(d), phi=Angle(45.0 * k))
        )
        for k in range(8)
        for d in range(7, 15)
    )
    ok = worst_affine < 1e-6 and worst_sigmoid < 1e-6
    check(
        2,
        "analytic exactness on noiseless fields",
        ok,
        f"worst affine {worst_affine:.3g} deg over 2880 poses, "
        f"worst sigmoid-at-45-multiples {worst_sigmoid:.3g} deg",
    )


def test_c3_backprop_matches_finite_differences():
    try:
        checked, skipped, worst = gradient_check_trials(130, base_seed=10_000)
    except AssertionError as exc:
        check(3, "gradient check vs central differences", False, str(exc))
        return
    ok = checked >= 100
    check(
        3,
        "gradient check vs central differences",
        ok,
        f"{checked} trials within 1e-4 relative, {skipped} skipped at ReLU kinks, "
        f"worst error/tolerance ratio {worst:.3g}",
    )


def test_c4_rmsprop_scalar_oracle_and_step_size_convergence():
    theta, v = np.array([0.0]), np.zeros(1)
    config = TrainConfig(lr=0.01, rho=0.9, eps=1e-8)
    rmsprop_step(theta, np.array([1.0]), v, config)  # in place; the gradient is consumed
    first = float(theta[0])
    closed_form = -0.01 / (math.sqrt(0.1) + 1e-8)
    oracle_ok = (
        abs(first - closed_form) <= 5e-7 * abs(closed_form)
        and f"{first:.6g}" == "-0.0316228"
    )
    last_step = abs(first)
    for _ in range(199):
        before = float(theta[0])
        rmsprop_step(theta, np.array([1.0]), v, config)
        last_step = abs(float(theta[0]) - before)
    conv_ok = abs(last_step - 0.01) <= 0.01 * 0.01
    check(
        4,
        "optimizer scalar oracle and convergence to lr",
        oracle_ok and conv_ok,
        f"first step {first:.10g}, step-200 magnitude {last_step:.6g} vs lr 0.01",
    )


def test_c5_network_memorizes_a_tiny_noiseless_set():
    samples = generate_dataset(
        GEOM, SIGMOID_CLEAN, GenerationConfig(n_samples=16, sampling="grid", seed=0)
    )
    model, _ = train(samples, samples, TrainConfig(max_epochs=500, patience=500, seed=0))
    pairs = [p for p in evaluate_mlp(model, samples) if p.phi_pred is not None]
    train_rmse = rmse_deg(pairs) if len(pairs) == len(samples) else math.inf
    ok = train_rmse < 5.0
    check(
        5,
        "memorization of a 16-sample noiseless set",
        ok,
        f"train angular RMSE {train_rmse:.3f} deg after 500 epochs",
    )


def test_c6_search_closed_form_and_full_success():
    pose0 = GroundTruthPose(delta=14.0, phi=Angle(0.0))
    oracle_res = run_search(
        pose0, SearchConfig(estimator=OracleEstimator(), seed=0), GEOM, AFFINE_EXACT
    )
    mb_res = run_search(
        pose0, SearchConfig(estimator=ModelBasedEstimator(), seed=0), GEOM, AFFINE_EXACT
    )
    grid = BatchSpec(
        delta0_values_mm=(14.0,),
        phi0_values_deg=tuple(k * 10.0 for k in range(36)),
        noise_values_kpa=(0.0,),
        estimators=(ModelBasedEstimator(),),
        reps=1,
        seed=0,
    )
    rows = batch_search(
        grid, SearchConfig(estimator=ModelBasedEstimator(), seed=0), GEOM, AFFINE_EXACT
    )
    success_rate = sum(r.success_rate for r in rows) / len(rows)
    ok = (
        oracle_res.success
        and oracle_res.steps == 4
        and mb_res.success
        and mb_res.steps == 4
        and success_rate == 1.0
        and all(r.mean_steps == 4.0 for r in rows)
    )
    check(
        6,
        "search closed form (14 mm start, 2 mm steps, 7 mm threshold)",
        ok,
        f"oracle {oracle_res.steps} steps, closed form {mb_res.steps} steps, "
        f"{success_rate:.0%} success over 36 start yaws",
    )


def test_c7_same_seed_byte_identity_and_round_trips(tmp_path):
    params = PressureFieldParams()
    gen = GenerationConfig(n_samples=96, seed=11)
    first = generate_dataset(GEOM, params, gen)
    second = generate_dataset(GEOM, params, gen)
    path_a, path_b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(first, path_a)
    write_csv(second, path_b)
    dataset_ok = path_a.read_bytes() == path_b.read_bytes()

    # Values survive to 9 significant digits (half a unit in the ninth
    # digit is 5e-9 relative) and a rewrite of what was read is
    # byte-identical to the original file.
    def close(x: float, y: float) -> bool:
        return abs(x - y) <= 5e-9 * max(1.0, abs(x), abs(y))

    back = read_csv(path_a)
    path_c = tmp_path / "c.csv"
    write_csv(back, path_c)
    csv_ok = (
        len(back) == len(first)
        and path_c.read_bytes() == path_a.read_bytes()
        and all(
            all(close(x, y) for x, y in zip(s.frame.p_ch, t.frame.p_ch))
            and close(s.frame.p_atm, t.frame.p_atm)
            and close(s.pose.delta, t.pose.delta)
            and close(s.pose.phi.degrees, t.pose.phi.degrees)
            for s, t in zip(first, back)
        )
    )

    train_set, val_set = split(first, SplitSpec(seed=2))
    config = TrainConfig(max_epochs=5, seed=2)
    model_a, _ = train(train_set, val_set, config)
    model_b, _ = train(train_set, val_set, config)
    m1, m2, m3 = (tmp_path / n for n in ("m1.bin", "m2.bin", "m3.bin"))
    save_model(model_a, m1)
    save_model(model_b, m2)
    train_ok = m1.read_bytes() == m2.read_bytes()
    loaded = load_model(m1)
    save_model(loaded, m3)
    model_ok = (
        loaded.layer_sizes == model_a.layer_sizes
        and all(np.array_equal(p, q) for p, q in zip(loaded.weights, model_a.weights))
        and all(np.array_equal(p, q) for p, q in zip(loaded.biases, model_a.biases))
        and m3.read_bytes() == m1.read_bytes()
    )

    report_a, _ = run_comparison(first, SplitSpec(), TrainConfig(max_epochs=3), (1, 2))
    report_b, _ = run_comparison(first, SplitSpec(), TrainConfig(max_epochs=3), (1, 2))
    compare_ok = report_a.to_json() == report_b.to_json()

    spec = BatchSpec(
        delta0_values_mm=(12.0, 14.0),
        phi0_values_deg=(0.0, 90.0),
        noise_values_kpa=(0.3,),
        estimators=(ModelBasedEstimator(),),
        reps=2,
        seed=3,
    )
    search_config = SearchConfig(estimator=ModelBasedEstimator(), seed=0)
    s1, s2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    write_batch_csv(batch_search(spec, search_config, GEOM, params), s1)
    write_batch_csv(batch_search(spec, search_config, GEOM, params), s2)
    search_ok = s1.read_bytes() == s2.read_bytes()

    ok = dataset_ok and csv_ok and train_ok and model_ok and compare_ok and search_ok
    check(
        7,
        "same-seed byte identity and lossless round trips",
        ok,
        f"dataset {dataset_ok}, csv round trip {csv_ok}, training {train_ok}, "
        f"model round trip {model_ok}, comparison {compare_ok}, search {search_ok}",
    )


def _sorted_rows(table):
    """Rows of a table in lexicographic order, first column first."""
    return table[np.lexsort(table.T[::-1])]


def test_c8_split_arithmetic_at_full_scale():
    samples = generate_dataset(GEOM, PressureFieldParams(), GenerationConfig())
    train_set, val_set = split(samples, SplitSpec())
    rows = _sorted_rows(samples.table)
    # With every row distinct, train + val holding exactly the full set's
    # rows means the halves are disjoint and together exhaustive.
    distinct = bool(np.any(rows[1:] != rows[:-1], axis=1).all())
    joined = _sorted_rows(np.concatenate([train_set.table, val_set.table]))
    same_rows = np.array_equal(joined, rows)
    ok = (
        len(samples) == 25_273
        and len(train_set) == 20_218
        and len(val_set) == 5_055
        and distinct
        and same_rows
    )
    check(
        8,
        "80/20 split arithmetic at full scale",
        ok,
        f"{len(train_set)}/{len(val_set)} of {len(samples)}, "
        f"rows distinct {distinct}, train+val rows equal the full set {same_rows}",
    )
