"""Shared test utilities: the finite-difference gradient checker, a
``Samples`` builder, and model-file writers with chosen standardization
stats, layer sizes or a NaN parameter."""

import numpy as np

from cuphaptics import FeatureStats, Samples, backward, init_model, save_model
from cuphaptics.mlp import MODEL_MAGIC, _forward_batch

FD_STEP = 1e-6
KINK_EPS = 1e-7
SMALL_SIZES = (3, 6, 4, 2)


def batch_loss(weights, biases, x, t):
    activations, _ = _forward_batch(weights, biases, x)
    return float(np.mean((activations[-1] - t) ** 2))


def gradient_check_trials(n_trials, base_seed=10_000, sizes=SMALL_SIZES):
    """Compare backprop to central finite differences on random small nets.

    Trials where any hidden pre-activation sits within KINK_EPS of the
    ReLU kink are skipped (the subgradient convention makes the two
    derivatives legitimately disagree there). Returns (checked_trials,
    skipped_trials, worst_ratio) where worst_ratio is max |bp-fd|/tol;
    raises AssertionError on the first component out of tolerance.
    """
    checked = skipped = 0
    worst = 0.0
    for trial in range(n_trials):
        seed = base_seed + trial
        rng = np.random.default_rng(seed)
        model = init_model(seed, layer_sizes=sizes)
        n = int(rng.integers(1, 6))
        x = rng.normal(0.0, 1.0, size=(n, sizes[0]))
        t = rng.normal(0.0, 1.0, size=(n, sizes[-1]))
        _, preacts = _forward_batch(model.weights, model.biases, x)
        if any(np.any(np.abs(z) < KINK_EPS) for z in preacts[:-1]):
            skipped += 1
            continue
        grad_w, grad_b = backward(model, x, t)
        params = list(model.weights) + list(model.biases)
        grads = grad_w + grad_b
        for p, g in zip(params, grads):
            flat_p, flat_g = p.ravel(), g.ravel()
            for j in range(flat_p.size):
                orig = flat_p[j]
                flat_p[j] = orig + FD_STEP
                loss_plus = batch_loss(model.weights, model.biases, x, t)
                flat_p[j] = orig - FD_STEP
                loss_minus = batch_loss(model.weights, model.biases, x, t)
                flat_p[j] = orig
                fd = (loss_plus - loss_minus) / (2.0 * FD_STEP)
                bp = flat_g[j]
                tol = max(1e-6, 1e-4 * max(abs(bp), abs(fd)))
                diff = abs(bp - fd)
                worst = max(worst, diff / tol)
                assert diff <= tol, (
                    f"trial {trial}: backprop {bp} vs finite diff {fd} "
                    f"(|diff| {diff} > tol {tol})"
                )
        checked += 1
    return checked, skipped, worst


def samples_of(labeled):
    """A ``Samples`` table holding these ``LabeledSample`` rows, in order."""
    rows = [
        (*s.frame.p_ch, s.frame.p_atm, s.pose.delta, s.pose.phi.degrees)
        for s in labeled
    ]
    return Samples(np.array(rows, dtype=np.float64).reshape(-1, 7))


def write_model_with_stats(path, mean, std):
    """Write a standardized 4-16-32-16-2 model file carrying these stats.

    The stats go in as raw bytes, bypassing FeatureStats validation, so a
    file can hold values (NaN, zero spread) that the loader must reject.
    """
    stats = FeatureStats(mean=(90.0, 91.0, 92.0, 93.0), std=(1.0, 1.0, 1.0, 1.0))
    save_model(init_model(0, input_mode="standardized", stats=stats), path)
    blob = bytearray(path.read_bytes())
    offset = len(MODEL_MAGIC) + 1 + 4 + 4 * 5  # magic, mode, depth, sizes
    blob[offset : offset + 64] = np.array([*mean, *std], dtype="<f8").tobytes()
    path.write_bytes(bytes(blob))


def write_model_with_nan_param(path):
    """Write a raw 4-16-32-16-2 model file whose last parameter is NaN."""
    save_model(init_model(0), path)
    nan = np.array([np.nan], dtype="<f8").tobytes()
    path.write_bytes(path.read_bytes()[:-8] + nan)


def write_model_with_sizes(path, sizes, standardized):
    """Write a model file of any layer sizes, bypassing the 4-channel
    FeatureStats check, so a file can hold shapes the loader must reject."""
    save_model(init_model(0, layer_sizes=sizes), path)
    if standardized:
        blob = path.read_bytes()
        mode = len(MODEL_MAGIC)
        header = mode + 1 + 4 + 4 * len(sizes)  # magic, mode, depth, sizes
        stats = np.array([0.0] * sizes[0] + [1.0] * sizes[0], dtype="<f8").tobytes()
        head = blob[:mode] + b"\x01" + blob[mode + 1 : header]
        path.write_bytes(head + stats + blob[header:])
