import time

import numpy as np
import pytest

from biramsey.model import ArcState, SemicompleteDigraph, pair_count
from biramsey.solvers import brute_force_F, brute_force_f


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


def _sparse_semicomplete(n, m, rng):
    states = [ArcState.BIORIENTED] * pair_count(n)
    places = rng.choice(pair_count(n), size=m, replace=False).tolist()
    for idx, forward in zip(places, rng.integers(0, 2, size=m).tolist()):
        states[idx] = ArcState.FORWARD if forward else ArcState.BACKWARD
    return SemicompleteDigraph(n, tuple(states))


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
