import random
import tracemalloc

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
