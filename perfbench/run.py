"""cuphaptics benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Runs iterations of one workload, each in a fresh ``workload.py`` process
that imports cuphaptics from this checkout's ``src``, until ``--seconds``
have passed (at least two iterations). With ``--trace 0`` every iteration
is untraced and the result carries the end-to-end metrics, each the median
over iterations; setup_s and wall_s are scaled to a reference machine
speed by the probe in ``workload.SpeedProbe``. With ``--trace 1`` untraced and traced iterations
alternate; the result carries the per-layer metrics: span-derived ones
from the traced iterations, stage figures from the untraced ones, and the
tracing overhead between the two.

Stdout ends with an ``env`` line and then one JSON result line:
``{"correct", "attempted", "failed", "metrics"}``. ``failed / attempted``
is the error rate: non-zero CLI exits, failed output checks, crashed
iterations and same-seed outputs that differ between iterations. Stderr
gets a table of every metric with its unit. ``--workload all`` runs every
workload both ways and prints that table for all of them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import MODULES, layer_metrics, read_spans  # noqa: E402

WORKLOADS = ("pipeline-paper", "search-grid", "bulk-data")
WORK_DIR = ROOT / ".perfbench-work"
MIN_ITERATIONS = 2
# Stop starting iterations after this long, so a slow machine still ends
# a run well inside three minutes.
HARD_STOP_S = 110.0
CHILD_TIMEOUT_S = 60.0

# name -> unit. tests/test_perfbench.py keeps BENCHMARK.json in step with these.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "val_rmse_model_based_deg": "deg",
}
# Figures of one stage of a workload, from its untraced iterations. 0 means
# the workload does not run that stage.
STAGES = {
    "setup_raw_s": "s",
    "wall_raw_s": "s",
    "machine.probe_us": "us",
    "cli.import_s": "s",
    "generate_s": "s",
    "train_s": "s",
    "compare_s": "s",
    "search_steps_per_s": "1/s",
    "closed_form_p50_us": "us",
    "mlp_p50_us": "us",
    "frames_per_s": "1/s",
    "val_rmse_mlp_deg": "deg",
    "search_success_rate": "ratio",
}
LAYERS = {
    "rng.substream_us": "us",
    "rng.substreams": "count",
    "synth.generate_us_per_frame": "us",
    "synth.frame_us": "us",
    "synth.frames": "count",
    "dataset.write_us_per_row": "us",
    "dataset.read_us_per_row": "us",
    "dataset.split_ms": "ms",
    "mlp.epoch_ms": "ms",
    "mlp.epochs": "count",
    "mlp.rmsprop_step_us": "us",
    "mlp.rmsprop_steps": "count",
    "mlp.epoch_self_ms": "ms",
    "mlp.predict_us": "us",
    "mlp.predict_p99_us": "us",
    "core.estimate_us": "us",
    "core.estimate_p99_us": "us",
    "evaluate.mlp_us_per_sample": "us",
    "evaluate.model_based_us_per_sample": "us",
    "evaluate.undefined": "count",
    "search.step_us.model_based": "us",
    "search.step_us.mlp": "us",
    "search.steps": "count",
    "search.rollouts": "count",
    "search.budget_exhausted": "count",
    "search.no_gradient": "count",
    "search.rollout_busy_s": "s",
    "parallel.workers": "count",
    "parallel.concurrency": "ratio",
    **{f"{module}.self_s": "s" for module in MODULES},
    "trace.overhead_pct": "%",
}
PER_LAYER = {**STAGES, **LAYERS}


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git; else unknown."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_child(workload: str, seed: int, trace: bool, index: int, work: Path) -> dict:
    """One iteration in a fresh process; adds setup_s and the trace path."""
    it_dir = work / f"it{index}"
    result_file = work / f"it{index}.json"
    trace_file = work / "trace.jsonl"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if p
    )
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(trace)), "--workdir", str(it_dir),
           "--result", str(result_file), "--trace-file", str(trace_file)]
    spawned = time.perf_counter()
    try:
        # On timeout, run() kills the child and waits for it before raising.
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
        outcome = f"exit {proc.returncode}\n{proc.stderr}"
    except subprocess.TimeoutExpired:
        outcome = f"killed after {CHILD_TIMEOUT_S} s"
    elapsed = time.perf_counter() - spawned
    try:
        result = json.loads(result_file.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        result = {"error": f"no result ({outcome})"}
    shutil.rmtree(it_dir, ignore_errors=True)
    result_file.unlink(missing_ok=True)
    result["traced"] = trace
    result["elapsed_s"] = elapsed
    if "error" not in result:
        # CLOCK_MONOTONIC is shared by every process on the machine.
        result["setup_raw_s"] = result["t_first"] - spawned
        if trace:
            result["layers"] = layer_metrics(read_spans(trace_file))
    return result


def median(values):
    return statistics.median(values) if values else 0.0


def scaled(it: dict) -> tuple[float, float]:
    """(setup_s, wall_s) of an iteration at the reference machine speed.

    The probe covers set-up from the child's first line; interpreter start
    before it is scaled by the same speed.
    """
    return it["setup_raw_s"] * it["setup_speed"], it["wall_s"] * it["wall_speed"]


def stage_metrics(it: dict) -> dict[str, float]:
    stages, values = it["stages"], it["values"]
    search_s = stages.get("search_s", 0.0)
    return {
        "setup_raw_s": it["setup_raw_s"],
        "wall_raw_s": it["wall_s"],
        "machine.probe_us": it["probe_s"] * 1e6,
        "cli.import_s": it["import_s"],
        "generate_s": stages.get("generate_s", 0.0),
        "train_s": stages.get("train_s", 0.0),
        "compare_s": stages.get("compare_s", 0.0),
        "search_steps_per_s": values.get("search_steps", 0) / search_s if search_s else 0.0,
        "closed_form_p50_us": values.get("closed_form_p50_us", 0.0),
        "mlp_p50_us": values.get("mlp_p50_us", 0.0),
        "frames_per_s": values.get("frames_per_s", 0.0),
        "val_rmse_mlp_deg": values.get("val_rmse_mlp_deg", 0.0),
        "search_success_rate": values.get("search_success_rate", 0.0),
    }


def bench(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run iterations for ``seconds`` and aggregate them into one result."""
    work = WORK_DIR / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    start = time.perf_counter()
    iterations: list[dict] = []
    while True:
        traced = trace and len(iterations) % 2 == 1
        iterations.append(run_child(workload, seed, traced, len(iterations), work))
        elapsed = time.perf_counter() - start
        typical = median([it["elapsed_s"] for it in iterations])
        if len(iterations) >= MIN_ITERATIONS and (
            elapsed + typical > seconds or elapsed > HARD_STOP_S
        ):
            break

    attempted = failed = 0
    failures = []
    for i, it in enumerate(iterations):
        if "error" in it:
            attempted, failed = attempted + 1, failed + 1
            failures.append(f"iteration {i} crashed: {it['error']}")
            continue
        for name, ok, detail in it["checks"]:
            attempted += 1
            if not ok:
                failed += 1
                failures.append(f"iteration {i}: {name}: {detail}")
    good = [it for it in iterations if "error" not in it]
    for key in sorted({k for it in good for k in it["hashes"]}):
        digests = {it["hashes"].get(key) for it in good}
        attempted += 1
        if len(digests) != 1:
            failed += 1
            failures.append(f"same-seed {key} output differs between iterations")

    plain = [it for it in good if not it["traced"]]
    traced = [it for it in good if it["traced"]]
    if trace:
        metrics = {name: median([stage_metrics(it)[name] for it in plain]) for name in STAGES}
        for name in LAYERS:
            if name != "trace.overhead_pct":
                metrics[name] = median([it["layers"][name] for it in traced])
        untraced_wall = median([scaled(it)[1] for it in plain])
        metrics["trace.overhead_pct"] = (
            (median([scaled(it)[1] for it in traced]) / untraced_wall - 1.0) * 100.0
            if untraced_wall else 0.0
        )
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": median([scaled(it)[0] for it in plain]),
            "wall_s": median([scaled(it)[1] for it in plain]),
            "peak_rss_mb": median([it["peak_rss_mb"] for it in plain]),
            "val_rmse_model_based_deg": median(
                [it["values"]["val_rmse_model_based_deg"] for it in plain]
            ),
        }
        units = END_TO_END
    versions = good[0]["versions"] if good else {}
    env = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "iterations": len(iterations),
        "traced_iterations": len(traced),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": versions.get("numpy"),
        "cuphaptics": versions.get("cuphaptics"),
        "commit": git_commit(ROOT),
        "CUPHAPTICS_THREADS": os.environ.get("CUPHAPTICS_THREADS", "unset"),
    }
    return {
        "env": env,
        "failures": failures,
        "usable": bool(plain) and (bool(traced) or not trace),
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
            },
        },
        "raw": [
            {k: v for k, v in it.items() if k not in ("checks", "versions")}
            for it in iterations
        ],
    }


def print_table(rows: list[tuple[str, str, dict]], out) -> None:
    for workload, mode, metrics in rows:
        for name, m in metrics.items():
            print(f"{workload:15} {mode:8} {name:36} {m['value']:>14.6g} {m['unit']}", file=out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="cuphaptics benchmark")
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cuphaptics" / "__init__.py").is_file():
        print(f"error: no cuphaptics package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    if args.workload == "all":
        rows = []
        ok = True
        for workload in WORKLOADS:
            for trace in (False, True):
                run = bench(workload, args.seed, args.seconds, trace)
                ok = ok and run["usable"] and run["result"]["correct"]
                for line in run["failures"]:
                    print(f"FAIL {workload}: {line}", file=sys.stderr)
                rows.append((workload, "traced" if trace else "e2e",
                             run["result"]["metrics"]))
        print_table(rows, sys.stdout)
        return 0 if ok else 1

    run = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in run["failures"]:
        print(f"FAIL: {line}", file=sys.stderr)
    record = WORK_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(run, indent=1), encoding="utf-8")
    if not run["usable"]:
        print("error: no iteration of the needed kind finished", file=sys.stderr)
        return 1
    mode = "traced" if args.trace else "e2e"
    print_table([(args.workload, mode, run["result"]["metrics"])], sys.stderr)
    print("env " + json.dumps(run["env"]))
    print(json.dumps(run["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
