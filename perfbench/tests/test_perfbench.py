"""Tests of the benchmark itself: span arithmetic, tracing, and the contract.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
import workload

ROOT = Path(run.__file__).resolve().parent.parent


def span(span_id, name, start, end, parent=None, thread=1, attrs=None):
    return (span_id, name, start, end, parent, thread, attrs)


def test_self_time_subtracts_the_union_of_children_across_threads():
    spans = [
        span(1, "search.batch_search", 0.0, 10.0),
        span(2, "parallel.map_ordered", 1.0, 9.0, parent=1),
        # Two rollouts on two pool threads overlap from 4 to 6.
        span(3, "search.run_search", 2.0, 6.0, parent=2, thread=2),
        span(4, "search.run_search", 4.0, 8.0, parent=2, thread=3),
        span(5, "synth.synth_frame", 3.0, 4.0, parent=3, thread=2),
        span(6, "synth.synth_frame", 5.0, 5.5, parent=4, thread=3),
    ]
    selfs = tracing.self_times(spans)
    assert selfs == pytest.approx({1: 2.0, 2: 2.0, 3: 3.0, 4: 3.5, 5: 1.0, 6: 0.5})


def test_covered_clips_children_to_the_parent_interval():
    assert tracing.covered([(0.0, 2.0), (1.0, 3.0), (5.0, 9.0)], 1.0, 6.0) == 3.0
    assert tracing.covered([], 0.0, 1.0) == 0.0


def test_layer_metrics_of_a_two_thread_search():
    attrs = {"estimator": "mlp", "steps": 4, "success": True, "reason": None}
    spans = [
        span(1, "search.batch_search", 0.0, 10.0),
        span(2, "parallel.resolve_workers", 0.5, 0.6, parent=1, attrs={"workers": 2}),
        span(3, "parallel.map_ordered", 1.0, 9.0, parent=1),
        span(4, "search.run_search", 2.0, 6.0, parent=3, thread=2, attrs=attrs),
        span(5, "search.run_search", 4.0, 8.0, parent=3, thread=3,
             attrs={**attrs, "success": False, "reason": "budget-exhausted"}),
    ]
    m = tracing.layer_metrics(spans)
    assert m["search.rollouts"] == 2
    assert m["search.steps"] == 8
    assert m["search.budget_exhausted"] == 1
    assert m["search.step_us.mlp"] == pytest.approx(8.0 / 8 * 1e6)
    assert m["search.rollout_busy_s"] == pytest.approx(8.0)
    assert m["parallel.concurrency"] == pytest.approx(0.8)
    assert m["parallel.workers"] == 2
    # batch_search keeps 10 - 0.1 - 8 of its own; the rollouts have no children.
    assert m["search.self_s"] == pytest.approx(1.9 + 8.0)
    assert set(m) | {"trace.overhead_pct"} == set(run.LAYERS)


def _snapshot():
    return {
        (mod.__name__, attr): value
        for mod in tracing._package_modules()
        for attr, value in vars(mod).items()
        if callable(value)
    }


def test_uninstall_restores_every_patched_name_even_after_an_error():
    import cuphaptics

    before = _snapshot()
    tracer = tracing.Tracer()
    tracer.install()
    assert cuphaptics.search.synth_frame is not before[("cuphaptics.search", "synth_frame")]
    assert cuphaptics.mlp.rmsprop_step is not before[("cuphaptics.mlp", "rmsprop_step")]
    with pytest.raises(cuphaptics.ConfigError):
        try:
            cuphaptics.GenerationConfig(n_samples=0)
        finally:
            tracer.uninstall()
    assert tracer.leftovers() == []
    after = _snapshot()
    assert all(after[key] is value for key, value in before.items())


def test_pool_threads_hang_under_the_map_span():
    import cuphaptics

    tracer = tracing.Tracer()
    tracer.install()
    try:
        cuphaptics._parallel.map_ordered(
            lambda i: cuphaptics.rng.substream(7, i), list(range(8))
        )
    finally:
        tracer.uninstall()
    (map_span,) = [s for s in tracer.spans if s[1] == "parallel.map_ordered"]
    substreams = [s for s in tracer.spans if s[1] == "rng.substream"]
    assert len(substreams) == 8
    assert {s[4] for s in substreams} == {map_span[0]}


@pytest.fixture
def tiny_workloads(monkeypatch):
    for name, value in {
        "PIPELINE_FRAMES": 400, "PIPELINE_EPOCHS": 2, "FIXTURE_FRAMES": 300,
        "FIXTURE_EPOCHS": 2, "GRID_YAWS": 3, "GRID_REPS": 1, "SINGLE_FRAME_CALLS": 50,
        "SINGLE_FRAME_POOL": 20, "BULK_FRAMES": 300,
    }.items():
        monkeypatch.setattr(workload, name, value)


@pytest.mark.parametrize("name", sorted(workload.WORKLOADS))
def test_traced_iteration_leaves_outputs_byte_identical(name, tiny_workloads, tmp_path):
    plain = workload.run_iteration(name, 3, False, tmp_path / "plain", None)
    traced = workload.run_iteration(name, 3, True, tmp_path / "traced", tmp_path / "t.jsonl")
    assert plain["hashes"] and plain["hashes"] == traced["hashes"]
    assert ("tracing removed every wrapper", True, "") in [tuple(c) for c in traced["checks"]]
    spans = tracing.read_spans(tmp_path / "t.jsonl")
    metrics = tracing.layer_metrics(spans)
    assert metrics["synth.frames"] > 0 and metrics["core.estimate_us"] > 0


def test_benchmark_json_lists_what_run_py_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_run_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bulk-data", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_speed_probe_averages_reference_over_probe_in_the_window():
    probe = workload.SpeedProbe()
    ref = workload.REFERENCE_PROBE_S
    probe.times.extend([1.0, 2.0, 3.0, 9.0])
    probe.probes.extend([ref, 2 * ref, 4 * ref, ref / 10])
    assert probe.speed(0.5, 3.5) == pytest.approx((1 + 0.5 + 0.25) / 3)
    assert probe.speed(4.0, 5.0) == 1.0
    assert probe.median_probe_s() == pytest.approx(1.5 * ref)


def test_speed_probe_samples_while_running_and_restores_the_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    probe = workload.SpeedProbe()
    probe.start()
    try:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    finally:
        probe.stop()
    assert len(probe.probes) == len(probe.times) >= 3
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert 0 < probe.speed(0.0, time.perf_counter())
