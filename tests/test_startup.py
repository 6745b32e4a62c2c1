"""How ``import cuphaptics`` loads numpy's OpenBLAS: with one thread unless the
environment picks a count or numpy is already loaded, leaving the environment
as it found it. Each case imports in a fresh process and counts its threads in
``/proc/self/task``; the file is skipped where there is no ``/proc`` or where
numpy is not built on OpenBLAS."""

import json
import os
import subprocess
import sys

import pytest

import cuphaptics

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

# Prints the process's thread count, each thread variable as os.environ and
# as a child process see it, and whether an OpenBLAS library is mapped.
REPORT = """
import json, os, subprocess, sys
names = {names!r}
seen = subprocess.run(
    [sys.executable, "-c", "import json, os; print(json.dumps([os.environ.get(n) for n in %r]))" % (names,)],
    capture_output=True, text=True, check=True,
)
with open("/proc/self/maps") as maps:
    openblas = any("openblas" in line.lower() for line in maps)
print(json.dumps({{
    "threads": len(os.listdir("/proc/self/task")),
    "environ": [os.environ.get(n) for n in names],
    "child": json.loads(seen.stdout),
    "openblas": openblas,
}}))
""".format(names=THREAD_VARS)


def run_child(imports: str, **env_vars: str) -> dict:
    """Run ``imports`` then the report in a fresh process whose environment
    holds none of the thread variables but ``env_vars``."""
    src = os.path.dirname(os.path.dirname(cuphaptics.__file__))
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env.update(env_vars)
    run = subprocess.run(
        [sys.executable, "-c", imports + "\n" + REPORT], env=env, capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout.splitlines()[-1])


@pytest.fixture(scope="module", autouse=True)
def openblas_on_proc():
    if not os.path.isdir("/proc/self/task"):
        pytest.skip("no /proc/self/task to count threads in")
    if not run_child("import numpy")["openblas"]:
        pytest.skip("numpy does not load an OpenBLAS library")


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


needs_two_cpus = pytest.mark.skipif(
    usable_cpus() < 2, reason="OpenBLAS caps its thread count at the CPUs it may run on"
)


def test_import_loads_openblas_on_one_thread_and_restores_the_environment():
    report = run_child("import cuphaptics")
    assert report["threads"] == 1
    assert report["environ"] == [None, None, None]
    assert report["child"] == [None, None, None]


@needs_two_cpus
@pytest.mark.parametrize("name", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
def test_a_thread_count_in_the_environment_is_kept(name):
    report = run_child("import cuphaptics", **{name: "2"})
    assert report["threads"] == 2
    want = [("2" if n == name else None) for n in THREAD_VARS]
    assert report["environ"] == want
    assert report["child"] == want


def test_numpy_imported_first_is_left_as_it_loaded():
    numpy_alone = run_child("import numpy")
    report = run_child("import numpy\nimport cuphaptics")
    assert report["threads"] == numpy_alone["threads"]
    assert report["environ"] == report["child"] == [None, None, None]
