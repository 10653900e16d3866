import time

import numpy as np
import pytest
from hypothesis import settings

from biramsey.model import ArcState, BicoloredGraph, EdgeColor, SemicompleteDigraph, pair_count
from biramsey.solvers import brute_force_F, brute_force_f

# CI runs the tests with --hypothesis-profile=ci: the examples are derived
# from each test alone, so a failure there replays locally with the same flag
settings.register_profile("ci", derandomize=True, deadline=None, print_blob=True)


@pytest.fixture(scope="session")
def oracle_grid():
    """Worst-case values over the exact-formula grid: n in 3..5, m in 0..n.

    Shared between the formula, monotonicity, and ordering checks; the
    elapsed wall time rides along for the runtime ceiling.
    """
    start = time.monotonic()
    grid = {}
    for n in (3, 4, 5):
        for m in range(n + 1):
            grid[(n, m)] = (brute_force_f(n, m).value, brute_force_F(n, m).value)
    return grid, time.monotonic() - start


def _sparse_builder(kind, free, one, other):
    def build(n, m, rng):
        states = [free] * pair_count(n)
        places = rng.choice(pair_count(n), size=m, replace=False).tolist()
        for idx, first in zip(places, rng.integers(0, 2, size=m).tolist()):
            states[idx] = one if first else other
        return kind(n, bytes(s.code for s in states))

    return build


_sparse_semicomplete = _sparse_builder(
    SemicompleteDigraph, ArcState.BIORIENTED, ArcState.FORWARD, ArcState.BACKWARD
)
_sparse_coloring = _sparse_builder(
    BicoloredGraph, EdgeColor.RED_BLUE, EdgeColor.RED, EdgeColor.BLUE
)


@pytest.fixture(scope="session")
def sparse_semicomplete():
    """Builder ``(n, m, rng)``: m one-way pairs placed uniformly, each
    orientation a coin flip, every other pair bioriented."""
    return _sparse_semicomplete


@pytest.fixture(scope="session")
def sparse_semicomplete_28(sparse_semicomplete):
    """The seeded n = 28, m = 168 instance of the golden solve and
    node-count tests."""
    return sparse_semicomplete(28, 168, np.random.default_rng(2))


@pytest.fixture(scope="session")
def sparse_coloring():
    """Builder ``(n, m, rng)``: m unicolored pairs placed uniformly, each
    red or blue by a coin flip, every other pair bicolored."""
    return _sparse_coloring


@pytest.fixture(scope="session")
def sparse_colorings_64(sparse_coloring):
    """Seeded n = 64 colorings with m = 256 and m = 1024 unicolored pairs
    (each red or blue by a coin flip), keyed by m: the instances of the
    golden clique solve and node-count tests."""
    return {m: sparse_coloring(64, m, np.random.default_rng(0)) for m in (256, 1024)}
