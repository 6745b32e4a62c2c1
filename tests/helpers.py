"""Shared test utilities: the finite-difference gradient checker, a
``Samples`` builder, model-file writers with chosen standardization stats,
layer sizes or a NaN parameter, a search rollout built from the
single-frame functions and a grid rollout's noise rows, a trainer that
steps one mini-batch at a time through the public functions, and a
per-row dataset CSV reader."""

import csv
import math
import struct
from dataclasses import dataclass

import numpy as np

from cuphaptics import (
    Angle,
    CsvParseError,
    DirectionEstimate,
    FeatureStats,
    GroundTruthPose,
    InvalidInputError,
    MlpEstimator,
    ModelBasedEstimator,
    OracleEstimator,
    Samples,
    SearchResult,
    SensorFrame,
    backward,
    estimate_direction,
    feature_stats,
    forward,
    init_model,
    predict_angle,
    rmsprop_step,
    save_model,
    search_step,
    synth_frame,
    target_encoding,
)
from cuphaptics.dataset import CSV_COLUMNS
from cuphaptics.mlp import MODEL_MAGIC, _n_params
from cuphaptics.rng import SEARCH_STEP, SHUFFLE, substream

FD_STEP = 1e-6
KINK_EPS = 1e-7
SMALL_SIZES = (4, 6, 4, 2)


def reference_forward(weights, biases, x):
    """A plain forward pass, apart from the package's kernel: the output for
    the rows of ``x`` and the hidden layers' pre-activations."""
    preacts = []
    for w, b in zip(weights[:-1], biases[:-1]):
        preacts.append(z := x @ w.T + b)
        x = np.maximum(z, 0.0)
    return x @ weights[-1].T + biases[-1], preacts


def batch_loss(weights, biases, x, t):
    out, _ = reference_forward(weights, biases, x)
    return float(np.mean((out - t) ** 2))


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
        _, preacts = reference_forward(model.weights, model.biases, x)
        if any(np.any(np.abs(z) < KINK_EPS) for z in preacts):
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
    save_model(init_model(0, stats=stats), path)
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
    """Write a model file of any layer sizes as raw bytes, with zero
    parameters, bypassing the 4-channel FeatureStats check and the 4-in,
    2-out rule of every model, so a file can hold shapes the loader must
    reject."""
    header = struct.pack(f"<BI{len(sizes)}I", int(standardized), len(sizes), *sizes)
    stats = np.array([0.0] * sizes[0] + [1.0] * sizes[0], dtype="<f8").tobytes()
    params = np.zeros(_n_params(sizes), dtype="<f8").tobytes()
    path.write_bytes(MODEL_MAGIC + header + stats * standardized + params)


def equal_chamber_rows(n):
    """An (n, 7) table whose rows hold four equal chambers, at a level that
    varies across rows, so every channel has spread but no row a direction."""
    level = np.linspace(90.0, 100.0, n)
    phi = np.linspace(0.0, 350.0, n)
    return np.column_stack([level] * 4 + [np.full(n, 101.325), np.full(n, 1.0), phi])


@dataclass(frozen=True)
class StubEstimator:
    """Always answers with a fixed yaw (or no answer at all)."""

    phi: float | None
    name: str = "stub"

    def estimate_batch(self, rows):
        return np.full(len(rows), math.nan if self.phi is None else Angle(self.phi).degrees)


def frame_yaw(est, frame, pose):
    """The yaw (an ``Angle``, or None) that an estimator's single-frame function
    gives for ``frame`` at the true ``pose``."""
    if isinstance(est, ModelBasedEstimator):
        return estimate_direction(frame).phi_pred
    if isinstance(est, MlpEstimator):
        return predict_angle(est.model, frame)
    if isinstance(est, OracleEstimator):
        return pose.phi
    return None if est.phi is None else Angle(est.phi)  # a StubEstimator


class NoiseRows:
    """Stands in for a rollout's ``Generator``: the k-th ``normal`` call
    returns row k of ``standard`` (standard normals) as numpy scales a
    standard normal, loc + scale * z."""

    def __init__(self, standard):
        self._rows = iter(standard)

    def normal(self, loc, scale, size):
        z = next(self._rows)
        assert z.shape == size
        return loc + scale * z


def grid_noise_rows(spec, config, position):
    """The noise of the rollout at ``position`` among its estimator's rollouts
    (in cell order, then by rep), as ``rollout_a_frame_at_a_time`` takes it:
    every step's draw holds a row of standard normals for each of those
    rollouts, all drawn from one stream keyed (spec.seed, SEARCH_STEP)."""
    m = len(spec.delta0_values_mm) * len(spec.phi0_values_deg) * len(spec.noise_values_kpa)
    stream = substream(spec.seed, SEARCH_STEP)
    standard = stream.standard_normal((config.max_steps, m * spec.reps, 4))
    return NoiseRows(standard[:, position])


def rollout_a_frame_at_a_time(pose0, config, geom, params, rng=None):
    """One search rollout from the single-frame functions: ``synth_frame`` on
    ``rng`` (by default the rollout's noise stream, keyed (config.seed,
    SEARCH_STEP)), ``frame_yaw`` and ``search_step``, until it seals, finds no
    gradient or runs out of budget. Returns the ``SearchResult`` and the poses
    visited."""
    pose, trajectory, reason = pose0, [pose0], None
    rng = substream(config.seed, SEARCH_STEP) if rng is None else rng
    while pose.delta > config.success_delta_mm:
        if len(trajectory) > config.max_steps:
            reason = "budget-exhausted"
            break
        frame = synth_frame(geom, params, pose, rng)
        yaw = frame_yaw(config.estimator, frame, pose)
        if yaw is None:
            reason = "no-gradient"
            break
        v_pred = (math.cos(yaw.radians), math.sin(yaw.radians))
        pose = search_step(pose, DirectionEstimate(v_pred, yaw), config.step_size_mm)
        trajectory.append(pose)
    result = SearchResult(success=reason is None, steps=len(trajectory) - 1, failure_reason=reason)
    return result, tuple(trajectory)


def train_a_batch_at_a_time(train_set, config, epochs):
    """Replay ``train``'s mini-batch RMSprop on ``train_set`` for ``epochs``
    epochs from the public functions: each epoch's order drawn from
    ``substream(config.seed, SHUFFLE)``, each batch scored row by row with
    ``forward`` before ``backward`` and ``rmsprop_step`` update it. Returns
    the parameters after each epoch (the initial ones first) and, per epoch,
    the batches' squared residuals summed over both outputs, divided by
    twice the row count."""
    stats = feature_stats(train_set)
    model = init_model(config.seed, stats=stats)
    x = (train_set.p_ch - np.array(stats.mean)) / np.array(stats.std)
    t = target_encoding(train_set.phi_deg)
    rng = substream(config.seed, SHUFFLE)
    v = np.zeros_like(model.params)
    snapshots, train_loss = [model.params.copy()], []
    for _ in range(epochs):
        order = rng.permutation(len(x))
        total = 0.0
        for start in range(0, len(x), config.batch_size):
            rows = order[start : start + config.batch_size]
            out = np.array([forward(model, row) for row in x[rows]])
            total += float(np.sum((out - t[rows]) ** 2))
            grad_w, grad_b = backward(model, x[rows], t[rows])
            grads = np.concatenate([g.ravel() for pair in zip(grad_w, grad_b) for g in pair])
            rmsprop_step(model.params, grads, v, config)
        snapshots.append(model.params.copy())
        train_loss.append(total / (2 * len(x)))
    return snapshots, train_loss


def first_bad_row_error(path):
    """The ``CsvParseError`` of the first bad row of a dataset CSV, or None,
    reading it as the csv module and ``float()`` read it and checking each
    row in turn: its column count, each cell's number, its yaw range, then
    ``SensorFrame`` and ``GroundTruthPose``. The error names the file line
    the row starts on."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)  # the header
        end = reader.line_num
        for row in reader:
            line, end = end + 1, reader.line_num
            if not row:
                continue
            if len(row) != len(CSV_COLUMNS):
                return CsvParseError(f"expected 7 columns, got {len(row)}", line=line)
            values = []
            for cell, column in zip(row, CSV_COLUMNS):
                try:
                    values.append(float(cell))
                except ValueError:
                    message = f"expected a number, got {cell!r}"
                    return CsvParseError(message, line=line, column=column)
                if not math.isfinite(values[-1]):
                    return CsvParseError(f"non-finite value {cell!r}", line=line, column=column)
            *p_ch, p_atm, delta, phi = values
            if not 0.0 <= phi <= 360.0:
                return CsvParseError(
                    f"phi_deg must be in [0, 360], got {phi}", line=line, column="phi_deg"
                )
            try:
                SensorFrame(p_ch=tuple(p_ch), p_atm=p_atm)
                GroundTruthPose(delta=delta, phi=Angle(phi))
            except InvalidInputError as exc:
                return CsvParseError(str(exc), line=line)
    return None
