"""One iteration of a benchmark workload, in a fresh process.

run.py starts this script once per iteration with the checkout's ``src``
on PYTHONPATH. The iteration imports cuphaptics, builds the workload's
fixtures, runs the timed section through the package's public functions
and ``cuphaptics.cli.main``, checks the outputs and writes one JSON result.
With ``--trace 1`` the spans recorded during set-up and the timed section
are written beside it.

    python3 perfbench/workload.py --workload NAME --seed N --trace 0|1 \\
        --workdir DIR --result FILE [--trace-file FILE]
"""

from __future__ import annotations

import argparse
import array
import contextlib
import hashlib
import importlib
import io
import json
import math
import resource
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import Tracer  # noqa: E402

# Sizes are set so that one iteration takes a few seconds on a 2-core box
# and a run of run_seconds holds at least three iterations.
PIPELINE_FRAMES = 25_273  # the paper's dataset size
PIPELINE_EPOCHS = 10
PREDICT_EXAMPLE = "91.325,96.325,96.325,91.325"  # README: phi_pred_deg 0.0
# `cuphaptics search` defaults: 36 start yaws at one offset, 5 reps each.
CLI_SEARCH_CELLS = 36
CLI_SEARCH_REPS = 5

GRID_DELTA0_MM = (14.0, 22.0, 28.0)
GRID_NOISE_KPA = (0.3, 1.5)
GRID_YAWS = 40
GRID_REPS = 4
GRID_STEP_MM = 1.0
GRID_MAX_STEPS = 40
FIXTURE_FRAMES = 8_000
FIXTURE_EPOCHS = 20
SINGLE_FRAME_CALLS = 20_000
SINGLE_FRAME_POOL = 2_000

BULK_FRAMES = 50_000

# The speed probe (SpeedProbe): a fixed pure-Python loop timed every
# PROBE_INTERVAL_S of wall time, about 0.5% of the time. REFERENCE_PROBE_S
# is the loop's thread CPU time on a 2-vCPU Xeon VM (Python 3.11) when
# run back to back; it sets the machine speed that setup_s and wall_s
# are expressed at.
PROBE_INTERVAL_S = 0.02
PROBE_LOOPS = 3_000
PROBE_WARMUP_LOOPS = 1_000
REFERENCE_PROBE_S = 90e-6


class Iteration:
    """Stage times, values, output hashes and check outcomes of one iteration."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.stages: dict[str, float] = {}
        self.values: dict[str, float] = {}
        self.hashes: dict[str, str] = {}
        self.checks: list[tuple[str, bool, str]] = []

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.checks.append((name, bool(ok), detail))
        return ok

    def stage(self, name: str, fn, *args, **kwargs):
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        self.stages[name] = self.stages.get(name, 0.0) + time.perf_counter() - start
        return result

    def cli(self, stage: str, argv: list[str]) -> str:
        """Run ``cuphaptics.cli.main(argv)``, check its exit code, return stdout."""
        main = sys.modules["cuphaptics.cli"].main
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            try:
                code = self.stage(stage, main, argv)
            except SystemExit as exc:  # argparse rejects bad flags this way
                code = exc.code
        self.check(f"exit code of {argv[0]}", code == 0, f"exit {code}")
        return out.getvalue()

    def expect_files(self, *paths: Path) -> None:
        for path in paths:
            self.check(f"{path.name} exists", path.is_file(), str(path))

    def hash_files(self, **paths: Path) -> None:
        for key, path in paths.items():
            if path.is_file():
                self.hashes[key] = hashlib.sha256(path.read_bytes()).hexdigest()


def _csv_rows(path: Path) -> int:
    with open(path, encoding="utf-8") as fh:
        return sum(1 for _ in fh) - 1


def _search_totals(path: Path, reps: int) -> tuple[int, int, int]:
    """(rollouts, sealed rollouts, steps) from a search.csv table."""
    rollouts = sealed = steps = 0
    with open(path, encoding="utf-8") as fh:
        header = next(fh).strip().split(",")
        rate_col, steps_col = header.index("success_rate"), header.index("mean_steps")
        for line in fh:
            cells = line.strip().split(",")
            rollouts += reps
            sealed += round(float(cells[rate_col]) * reps)
            steps += round(float(cells[steps_col]) * reps)
    return rollouts, sealed, steps


class SpeedProbe:
    """Samples how fast this machine runs Python while the iteration runs.

    On a host shared with other tenants the same code runs up to twice as
    slow for stretches of seconds to minutes, and CPU time slows with wall
    time, so neither clock alone gives a steady figure. Every
    PROBE_INTERVAL_S a SIGALRM handler on the main thread runs a fixed loop
    once to warm it and times it a second time in thread CPU time, which
    leaves out time spent waiting for the interpreter lock or the
    processor. The mean of REFERENCE_PROBE_S / probe over a window is the
    machine's speed there relative to the reference; a wall time multiplied
    by it is the time the same work takes at reference speed. The loop
    makes no objects the garbage collector tracks and the samples go into
    flat arrays, so the probe neither triggers collections nor keeps small
    objects alive in the allocator's arenas (which would raise
    peak_rss_mb); cuphaptics code never runs inside it. The correction is
    partial: across iterations of one run the workloads slowed about
    1.2-1.6 times as much as the probe.
    """

    def __init__(self):
        self.times = array.array("d")  # perf_counter at each sample
        self.probes = array.array("d")  # seconds the loop took
        self._previous = signal.SIG_DFL

    def _probe(self, signum, frame) -> None:
        x = 0
        for i in range(PROBE_WARMUP_LOOPS):
            x ^= i
        start = time.thread_time()
        for i in range(PROBE_LOOPS):
            x ^= i
        self.probes.append(time.thread_time() - start)
        self.times.append(time.perf_counter())

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def speed(self, start: float, end: float) -> float:
        """Mean speed relative to the reference over [start, end]; 1.0 unsampled."""
        window = [REFERENCE_PROBE_S / p for t, p in zip(self.times, self.probes)
                  if start <= t <= end]
        return statistics.fmean(window) if window else 1.0

    def median_probe_s(self) -> float:
        return statistics.median(self.probes) if self.probes else 0.0


# Each workload is (setup, timed, check). setup builds fixtures before the
# clock starts; timed is what wall_s measures; check runs afterwards, with
# any tracing already removed.


def pipeline_setup(it: Iteration, seed: int):
    return {}


def pipeline_timed(it: Iteration, seed: int, fx) -> None:
    out = it.workdir / "run"
    data, model = out / "dataset.csv", out / "model.cupmlp"
    budget = ["--epochs", str(PIPELINE_EPOCHS), "--patience", str(PIPELINE_EPOCHS)]
    it.cli("generate_s", ["generate", "--n", str(PIPELINE_FRAMES), "--seed", str(seed),
                          "--out-dir", str(out)])
    it.cli("train_s", ["train", "--data", str(data), "--seed", str(seed), *budget,
                       "--out-dir", str(out)])
    it.cli("compare_s", ["compare", "--data", str(data), "--seeds", f"{seed + 1},{seed + 2}",
                         *budget, "--out-dir", str(out)])
    for est, extra in (("model_based", []), ("mlp", ["--model", str(model)])):
        it.cli("search_s", ["search", "--estimator", est, *extra, "--seed", str(seed),
                            "--out-dir", str(out / f"search_{est}")])
    fx["predict_model"] = it.cli("predict_s", ["predict", "--p-ch", PREDICT_EXAMPLE])
    fx["predict_mlp"] = it.cli("predict_s", ["predict", "--p-ch", PREDICT_EXAMPLE,
                                             "--method", "mlp", "--model", str(model)])


def pipeline_check(it: Iteration, seed: int, fx) -> None:
    out = it.workdir / "run"
    searches = [out / f"search_{est}" / "search.csv" for est in ("model_based", "mlp")]
    it.expect_files(*(out / name for name in (
        "dataset.csv", "model.cupmlp", "model.cupmlp.json", "history.json",
        "report.json", "scatter_mlp.csv", "scatter_model_based.csv")), *searches)
    it.hash_files(dataset=out / "dataset.csv", model=out / "model.cupmlp",
                  search_model_based=searches[0], search_mlp=searches[1])

    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    mlp, mb = report["mlp"]["rmse_mean_deg"], report["model_based"]["rmse_mean_deg"]
    it.check("compare: MLP RMSE <= closed-form RMSE, both finite",
             math.isfinite(mlp) and math.isfinite(mb) and mlp <= mb, f"{mlp} vs {mb}")
    it.values["val_rmse_mlp_deg"] = mlp
    it.values["val_rmse_model_based_deg"] = mb

    model_phi = json.loads(fx["predict_model"])["phi_pred_deg"]
    it.check("README predict example gives phi_pred_deg 0.0", model_phi == 0.0, str(model_phi))
    mlp_phi = json.loads(fx["predict_mlp"])["phi_pred_deg"]
    it.check("predict --method mlp gives a finite angle",
             isinstance(mlp_phi, float) and math.isfinite(mlp_phi), str(mlp_phi))

    rollouts = sealed = steps = 0
    for path in searches:
        rows = _csv_rows(path)
        it.check(f"{path.parent.name}: one row per grid cell", rows == CLI_SEARCH_CELLS,
                 f"{rows} rows")
        r, s, n = _search_totals(path, reps=CLI_SEARCH_REPS)
        rollouts, sealed, steps = rollouts + r, sealed + s, steps + n
    it.values["search_success_rate"] = sealed / rollouts
    it.values["search_steps"] = steps


def grid_setup(it: Iteration, seed: int):
    import cuphaptics as c

    fx_dir = it.workdir / "fixture"
    data, model_path = fx_dir / "dataset.csv", fx_dir / "model.cupmlp"
    epochs = str(FIXTURE_EPOCHS)
    it.cli("generate_s", ["generate", "--n", str(FIXTURE_FRAMES), "--seed", str(seed),
                          "--out-dir", str(fx_dir)])
    it.cli("train_s", ["train", "--data", str(data), "--seed", str(seed), "--epochs", epochs,
                       "--patience", epochs, "--out-dir", str(fx_dir)])
    it.expect_files(data, model_path, Path(str(model_path) + ".json"))
    it.hash_files(dataset=data, model=model_path)
    sidecar = json.loads(Path(str(model_path) + ".json").read_text(encoding="utf-8"))
    it.values["val_rmse_mlp_deg"] = sidecar["metrics"]["val_rmse_deg"]

    model = c.load_model(model_path)
    samples = c.read_csv(data)
    # The closed form is never fitted, so every fixture frame is held out for it.
    scored = [p for p in c.evaluate_model_based(samples) if p.phi_pred is not None]
    it.values["val_rmse_model_based_deg"] = c.rmse_deg(scored)
    _, val_set = c.split(samples, c.SplitSpec(train_fraction=0.8, seed=seed))
    estimators = (c.ModelBasedEstimator(), c.MlpEstimator(model=model))
    spec = c.BatchSpec(
        delta0_values_mm=GRID_DELTA0_MM,
        phi0_values_deg=tuple(k * 360.0 / GRID_YAWS for k in range(GRID_YAWS)),
        noise_values_kpa=GRID_NOISE_KPA,
        estimators=estimators,
        reps=GRID_REPS,
        seed=seed,
    )
    config = c.SearchConfig(estimator=estimators[0], step_size_mm=GRID_STEP_MM,
                            max_steps=GRID_MAX_STEPS, seed=seed)
    return {"model": model, "spec": spec, "config": config,
            "samples": val_set[:SINGLE_FRAME_POOL]}


def _single_frame_latencies(fn, frames, calls: int) -> tuple[list[int], list]:
    clock = time.perf_counter_ns
    latencies, answers = [], []
    for i in range(calls):
        frame = frames[i % len(frames)]
        start = clock()
        answer = fn(frame)
        latencies.append(clock() - start)
        if i < len(frames):
            answers.append(answer)
    return latencies, answers


def grid_timed(it: Iteration, seed: int, fx) -> None:
    import cuphaptics as c

    rows = it.stage("search_s", c.batch_search, fx["spec"], fx["config"],
                    c.CupGeometry(), c.PressureFieldParams())
    c.write_batch_csv(rows, it.workdir / "search.csv")

    frames = [s.frame for s in fx["samples"]]
    model = fx["model"]
    for key, fn in (
        ("closed_form", lambda f: c.estimate_direction(f).phi_pred),
        ("mlp", lambda f: c.predict_angle(model, f)),
    ):
        latencies, answers = _single_frame_latencies(fn, frames, SINGLE_FRAME_CALLS)
        latencies.sort()
        it.values[f"{key}_p50_us"] = latencies[len(latencies) // 2] / 1e3
        fx[f"{key}_answers"] = answers


def grid_check(it: Iteration, seed: int, fx) -> None:
    import cuphaptics as c

    path = it.workdir / "search.csv"
    it.expect_files(path)
    it.hash_files(search=path)
    spec = fx["spec"]
    cells = (len(spec.delta0_values_mm) * len(spec.phi0_values_deg)
             * len(spec.noise_values_kpa) * len(spec.estimators))
    rows = _csv_rows(path)
    it.check("search table: one row per grid cell", rows == cells, f"{rows} rows, {cells} cells")
    rollouts, sealed, steps = _search_totals(path, reps=spec.reps)
    it.values["search_success_rate"] = sealed / rollouts
    it.values["search_steps"] = steps

    samples = fx["samples"]
    expected = {
        "closed_form": [p.phi_pred for p in c.evaluate_model_based(samples)],
        "mlp": [p.phi_pred for p in c.evaluate_mlp(fx["model"], samples)],
    }
    for key, want in expected.items():
        got = fx[f"{key}_answers"]
        it.check(f"single-frame {key} answers match the batch evaluation", got == want,
                 f"{sum(a != b for a, b in zip(got, want))} of {len(want)} differ")


def bulk_setup(it: Iteration, seed: int):
    import cuphaptics as c

    return {
        "params": c.PressureFieldParams(response="affine"),
        "config": c.GenerationConfig(n_samples=BULK_FRAMES, sampling="grid", seed=seed),
    }


def bulk_timed(it: Iteration, seed: int, fx) -> None:
    import cuphaptics as c

    path = it.workdir / "dataset.csv"
    samples = it.stage("generate_s", c.generate_dataset, c.CupGeometry(), fx["params"],
                       fx["config"])
    it.stage("generate_s", c.write_csv, samples, path)
    del samples
    samples = it.stage("read_s", c.read_csv, path)
    pairs = it.stage("score_s", c.evaluate_model_based, samples)
    scored = [p for p in pairs if p.phi_pred is not None]
    it.values["val_rmse_model_based_deg"] = it.stage("score_s", c.rmse_deg, scored)
    fx["samples"] = samples


def bulk_check(it: Iteration, seed: int, fx) -> None:
    import cuphaptics as c

    path = it.workdir / "dataset.csv"
    it.hash_files(dataset=path)
    samples = fx["samples"]
    it.check("read_csv returns every generated row", len(samples) == BULK_FRAMES,
             f"{len(samples)} rows")
    again = it.workdir / "rewritten.csv"
    c.write_csv(samples, again)
    it.check("CSV rewritten after read_csv is byte-identical",
             again.read_bytes() == path.read_bytes(), str(again))
    rmse = it.values["val_rmse_model_based_deg"]
    it.check("closed-form RMSE is finite", math.isfinite(rmse), str(rmse))
    stages = it.stages
    it.values["frames_per_s"] = BULK_FRAMES / (
        stages["generate_s"] + stages["read_s"] + stages["score_s"]
    )


WORKLOADS = {
    "pipeline-paper": (pipeline_setup, pipeline_timed, pipeline_check),
    "search-grid": (grid_setup, grid_timed, grid_check),
    "bulk-data": (bulk_setup, bulk_timed, bulk_check),
}


def run_iteration(workload: str, seed: int, trace: bool, workdir: Path,
                  trace_file: Path | None) -> dict:
    """Import, set up, time, check; the returned dict is the iteration's result."""
    probe = SpeedProbe()
    tracer = Tracer() if trace else None
    probe.start()
    try:
        start = time.perf_counter()
        importlib.import_module("cuphaptics.cli")
        import_s = time.perf_counter() - start
        import cuphaptics
        import numpy

        workdir.mkdir(parents=True, exist_ok=True)
        setup, timed, check = WORKLOADS[workload]
        it = Iteration(workdir)
        if tracer:
            tracer.install()
        fixtures = setup(it, seed)
        t_first = time.perf_counter()
        timed(it, seed, fixtures)
        t_end = time.perf_counter()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        probe.stop()
        if tracer:
            tracer.uninstall()
    if tracer:
        left = tracer.leftovers()
        it.check("tracing removed every wrapper", not left, ", ".join(left))
        tracer.write(trace_file)
    check(it, seed, fixtures)
    return {
        "t_first": t_first,
        "wall_s": t_end - t_first,
        "setup_speed": probe.speed(0.0, t_first),
        "wall_speed": probe.speed(t_first, t_end),
        "probe_s": probe.median_probe_s(),
        "probes": len(probe.probes),
        "peak_rss_mb": peak_rss_mb,
        "import_s": import_s,
        "stages": it.stages,
        "values": it.values,
        "hashes": it.hashes,
        "checks": it.checks,
        "versions": {
            "cuphaptics": cuphaptics.__version__,
            "numpy": numpy.__version__,
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--trace-file", type=Path)
    args = parser.parse_args(argv)
    try:
        result = run_iteration(args.workload, args.seed, bool(args.trace), args.workdir,
                               args.trace_file)
    except Exception:  # the parent counts a crashed iteration as failed
        result = {"error": traceback.format_exc()}
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0 if "error" not in result else 1


if __name__ == "__main__":
    sys.exit(main())
