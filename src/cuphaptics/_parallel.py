"""Two sequential names kept only for perfbench's tracer.

Nothing in the package imports ``map_ordered`` or ``resolve_workers``;
``TRACED`` in ``perfbench/tracing.py`` looks them up here. This module
goes when a benchmark change drops them from ``TRACED``.
"""

from __future__ import annotations

from typing import Callable, Iterable, TypeVar

_T = TypeVar("_T")
_R = TypeVar("_R")


def map_ordered(fn: Callable[[_T], _R], items: Iterable[_T]) -> list[_R]:
    """``[fn(x) for x in items]``."""
    return [fn(item) for item in items]


def resolve_workers(n_tasks: int) -> int:
    """Always 1: every operation runs in the calling thread."""
    return 1
