import os
import random
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from cubechar import all_permutations


@pytest.fixture
def rng():
    return random.Random(20240817)


@pytest.fixture(scope="session")
def s22():
    """All 24 permutations of the level-2 cube."""
    return list(all_permutations(2))


def orbit_lengths(images):
    """Independent cycle scan used as an oracle against cycle_type."""
    seen = [False] * len(images)
    out = []
    for start in range(len(images)):
        if seen[start]:
            continue
        length, x = 0, start
        while not seen[x]:
            seen[x] = True
            length += 1
            x = images[x]
        out.append(length)
    return sorted(out)


def traced_peak(call):
    """(call(), peak bytes allocated while it ran, as tracemalloc sees them)."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


SRC = str(Path(__file__).resolve().parents[1] / "src")
#: Limits of the child that `run_cli_capped` starts: address space, CPU and wall time.
CHILD_MEMORY_BYTES = 1 << 30
CHILD_CPU_SECONDS = 30
CHILD_TIMEOUT_SECONDS = 60


def run_cli_capped(argv):
    """Run `cubechar argv` in a child process whose address space and CPU
    time are limited (RLIMIT_AS and RLIMIT_CPU, set in the child only), with
    a wall-clock timeout: an input that allocates or spins without bound then
    fails the test instead of taking the test runner down.  Returns the
    CompletedProcess, with stdout and stderr as text."""

    def limit():
        for kind, value in ((resource.RLIMIT_AS, CHILD_MEMORY_BYTES), (resource.RLIMIT_CPU, CHILD_CPU_SECONDS)):
            hard = resource.getrlimit(kind)[1]
            value = value if hard == resource.RLIM_INFINITY else min(value, hard)
            resource.setrlimit(kind, (value, hard))

    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"}
    return subprocess.run(
        [sys.executable, "-m", "cubechar.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        preexec_fn=limit,
        timeout=CHILD_TIMEOUT_SECONDS,
    )
