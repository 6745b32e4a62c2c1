"""Span tracing installed from outside the package, and the arithmetic on spans.

A traced run replaces selected cuphaptics functions with timing wrappers.
Each replacement is made in every cuphaptics module that holds a reference
to the original function, because a call such as ``synth_frame(...)``
inside ``cuphaptics.search`` looks the name up in that module, not in the
module that defines it. ``Tracer.uninstall`` puts every original back.

Spans are kept in memory as plain tuples and written out once at the end:

    (span_id, name, start_s, end_s, parent_id, thread_id, attrs)

``parent_id`` is the innermost open span on the same thread. Work that
``_parallel.map_ordered`` hands to pool threads gets the ``map_ordered``
span as its parent, so a rollout run on a worker thread still hangs under
the batch search that caused it.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import math
import statistics
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Iterable, Sequence

def _n_result(args, kwargs, result):
    return {"n": len(result)}


def _n_arg0(args, kwargs, result):
    return {"n": len(args[0])}


def _train_attrs(args, kwargs, result):
    return {"epochs": len(result[1].val_loss)}


def _eval_attrs(args, kwargs, result):
    return {
        "n": len(result),
        "undefined": sum(1 for pair in result if pair.phi_pred is None),
    }


def _rollout_attrs(args, kwargs, result):
    config = args[1] if len(args) > 1 else kwargs["config"]
    return {
        "estimator": config.estimator.name,
        "steps": result.steps,
        "success": result.success,
        "reason": result.failure_reason,
    }


def _workers_attrs(args, kwargs, result):
    return {"workers": result}


# (module that defines it, function name, attrs taken from args and result).
# The attrs carry the counts that the per-layer metrics divide by.
TRACED = (
    ("cuphaptics.cli", "main", None),
    ("cuphaptics.rng", "substream", None),
    ("cuphaptics.synth", "generate_dataset", _n_result),
    ("cuphaptics.synth", "synth_frame", None),
    ("cuphaptics.dataset", "write_csv", _n_arg0),
    ("cuphaptics.dataset", "read_csv", _n_result),
    ("cuphaptics.dataset", "split", None),
    ("cuphaptics.mlp", "train", _train_attrs),
    ("cuphaptics.mlp", "rmsprop_step", None),
    ("cuphaptics.mlp", "network_output", None),
    ("cuphaptics.core", "estimate_direction", None),
    ("cuphaptics.evaluate", "evaluate_mlp", _eval_attrs),
    ("cuphaptics.evaluate", "evaluate_model_based", _eval_attrs),
    ("cuphaptics.evaluate", "run_comparison", None),
    ("cuphaptics.search", "batch_search", None),
    ("cuphaptics.search", "run_search", _rollout_attrs),
    ("cuphaptics._parallel", "map_ordered", None),
    ("cuphaptics._parallel", "resolve_workers", _workers_attrs),
)


# Layer names: the modules under src/cuphaptics/, without the underscore.
MODULES = ("cli", "rng", "synth", "dataset", "mlp", "core", "evaluate", "search", "parallel")


def span_name(module: str, func: str) -> str:
    """``cuphaptics._parallel.map_ordered`` -> ``parallel.map_ordered``."""
    return f"{module.rsplit('.', 1)[-1].lstrip('_')}.{func}"


def _package_modules() -> list:
    return [
        mod
        for key, mod in sorted(sys.modules.items())
        if mod is not None and (key == "cuphaptics" or key.startswith("cuphaptics."))
    ]


class Tracer:
    """Records spans from wrappers it installs into the cuphaptics modules."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        # next() on a count is one C call, so pool threads never share an id.
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []
        # Keyed by id; holding the wrapper keeps its id from being reused.
        self._wrappers: dict[int, Callable] = {}

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn: Callable, attrs_fn) -> Callable:
        spans = self.spans
        clock = time.perf_counter
        # Pool threads start with an empty stack; give them the map span.
        adopts = name == "parallel.map_ordered"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            span_id = next(self._ids)
            if adopts:
                args = (self._adopt(args[0], span_id), *args[1:])
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            attrs = attrs_fn(args, kwargs, result) if attrs_fn else None
            spans.append(
                (span_id, name, start, end, parent, threading.get_ident(), attrs)
            )
            return result

        return wrapper

    def _adopt(self, fn: Callable, parent_id: int) -> Callable:
        def run_under_parent(item):
            stack = self._stack()
            stack.append(parent_id)
            try:
                return fn(item)
            finally:
                stack.pop()

        return run_under_parent

    def install(self, targets: Sequence[tuple] = TRACED) -> None:
        """Wrap each target in every loaded cuphaptics module that refers to it."""
        for module_name, _, _ in targets:
            importlib.import_module(module_name)
        modules = _package_modules()
        for module_name, func, attrs_fn in targets:
            original = getattr(sys.modules[module_name], func)
            wrapper = self._wrap(span_name(module_name, func), original, attrs_fn)
            self._wrappers[id(wrapper)] = wrapper
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        """Put back every original function, in reverse order of patching."""
        while self._patched:
            mod, attr, original = self._patched.pop()
            setattr(mod, attr, original)

    def leftovers(self) -> list[str]:
        """Names in cuphaptics modules that still hold one of our wrappers."""
        return [
            f"{mod.__name__}.{attr}"
            for mod in _package_modules()
            for attr, value in vars(mod).items()
            if id(value) in self._wrappers
        ]

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def read_spans(path: Path) -> list[tuple]:
    with open(path, encoding="utf-8") as fh:
        return [tuple(json.loads(line)) for line in fh]


def covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Sequence[tuple]) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover.

    Children on other threads may overlap each other; the union is taken,
    so two parallel children covering the same second subtract it once.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span_id, _, start, end, parent, _, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    return {
        span_id: (end - start) - covered(children.get(span_id, ()), start, end)
        for span_id, _, start, end, _, _, _ in spans
    }


def _percentile(values: Sequence[float], q: float) -> float:
    ordered = sorted(values)
    rank = max(math.ceil(q * len(ordered)) - 1, 0)
    return ordered[rank]


def layer_metrics(spans: Sequence[tuple]) -> dict[str, float]:
    """Per-layer metrics of one traced iteration.

    A per-call time of a layer the iteration never called is reported as
    0 beside its count of 0.
    """
    by_name: dict[str, list[tuple]] = defaultdict(list)
    for span in spans:
        by_name[span[1]].append(span)
    selfs = self_times(spans)

    def durations(name):
        return [s[3] - s[2] for s in by_name[name]]

    def total(name):
        return sum(durations(name))

    def attr_sum(name, key):
        return sum(s[6][key] for s in by_name[name])

    def per(numerator, denominator, scale=1.0):
        return numerator / denominator * scale if denominator else 0.0

    def median_us(name):
        d = durations(name)
        return statistics.median(d) * 1e6 if d else 0.0

    def p99_us(name):
        d = durations(name)
        return _percentile(d, 0.99) * 1e6 if d else 0.0

    out: dict[str, float] = {}
    out["rng.substream_us"] = median_us("rng.substream")
    out["rng.substreams"] = len(by_name["rng.substream"])

    frames = attr_sum("synth.generate_dataset", "n")
    out["synth.generate_us_per_frame"] = per(total("synth.generate_dataset"), frames, 1e6)
    out["synth.frame_us"] = median_us("synth.synth_frame")
    out["synth.frames"] = len(by_name["synth.synth_frame"])

    out["dataset.write_us_per_row"] = per(
        total("dataset.write_csv"), attr_sum("dataset.write_csv", "n"), 1e6
    )
    out["dataset.read_us_per_row"] = per(
        total("dataset.read_csv"), attr_sum("dataset.read_csv", "n"), 1e6
    )
    out["dataset.split_ms"] = per(total("dataset.split"), len(by_name["dataset.split"]), 1e3)

    epochs = attr_sum("mlp.train", "epochs")
    train_self = sum(selfs[s[0]] for s in by_name["mlp.train"])
    out["mlp.epoch_ms"] = per(total("mlp.train"), epochs, 1e3)
    out["mlp.epochs"] = epochs
    out["mlp.rmsprop_step_us"] = median_us("mlp.rmsprop_step")
    out["mlp.rmsprop_steps"] = len(by_name["mlp.rmsprop_step"])
    out["mlp.epoch_self_ms"] = per(train_self, epochs, 1e3)
    out["mlp.predict_us"] = median_us("mlp.network_output")
    out["mlp.predict_p99_us"] = p99_us("mlp.network_output")

    out["core.estimate_us"] = median_us("core.estimate_direction")
    out["core.estimate_p99_us"] = p99_us("core.estimate_direction")

    for method in ("mlp", "model_based"):
        name = f"evaluate.evaluate_{method}"
        out[f"evaluate.{method}_us_per_sample"] = per(total(name), attr_sum(name, "n"), 1e6)
    out["evaluate.undefined"] = attr_sum(
        "evaluate.evaluate_mlp", "undefined"
    ) + attr_sum("evaluate.evaluate_model_based", "undefined")

    for est in ("model_based", "mlp"):
        rollouts = [s for s in by_name["search.run_search"] if s[6]["estimator"] == est]
        out[f"search.step_us.{est}"] = per(
            sum(s[3] - s[2] for s in rollouts), sum(s[6]["steps"] for s in rollouts), 1e6
        )
    out["search.steps"] = attr_sum("search.run_search", "steps")
    out["search.rollouts"] = len(by_name["search.run_search"])
    for reason in ("budget-exhausted", "no-gradient"):
        out[f"search.{reason.replace('-', '_')}"] = sum(
            1 for s in by_name["search.run_search"] if s[6]["reason"] == reason
        )
    busy = total("search.run_search")
    out["search.rollout_busy_s"] = busy

    out["parallel.workers"] = max(
        (s[6]["workers"] for s in by_name["parallel.resolve_workers"]), default=0
    )
    out["parallel.concurrency"] = per(busy, total("search.batch_search"))

    # Busy time of each module: the self time of its spans.
    for module in MODULES:
        out[f"{module}.self_s"] = sum(
            selfs[s[0]] for s in spans if s[1].split(".", 1)[0] == module
        )
    return out
