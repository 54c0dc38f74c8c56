"""Shared session fixtures: the expensive iteration runs are computed once.

eps=1e-300 forces the full sweep budget (the stopping rule then never
fires), which the history- and trace-based tests rely on.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from ratered.envelope import _envelope_line
from ratered.lattice import run
from ratered.probability import GridSpec
from ratered.target_functions import builtin_table

CENTER = (0.5, 0.5, 0.5)


@pytest.fixture(scope="session")
def min3():
    return builtin_table("min", 3)


@pytest.fixture(scope="session")
def per_line_envelope():
    """envelope_batch's reference: the scalar _envelope_line on each row."""
    def envelope(lines, threads=1):
        out = np.empty_like(lines)
        for r in range(lines.shape[0]):
            out[r] = _envelope_line(lines[r].tolist())
        return out
    return envelope


@pytest.fixture(scope="session")
def history_run(min3):
    """MIN, delta=0.05, all 40 sweeps retained."""
    grid = GridSpec.from_delta(3, 0.05)
    return run(
        grid,
        min3,
        t_max=40,
        eps=1e-300,
        tracked=(grid.snap(CENTER),),
        keep_history=True,
    )


@pytest.fixture(scope="session")
def delta_sweep_runs(min3):
    """MIN runs at delta 0.1 / 0.05 / 0.02 tracking the center, with a
    40-sweep budget (coarse grids may hit an exact fixed point sooner);
    returns ({delta: result}, total wall time)."""
    results = {}
    started = time.perf_counter()
    for delta in (0.1, 0.05, 0.02):
        grid = GridSpec.from_delta(3, delta)
        results[delta] = run(
            grid, min3, t_max=40, eps=1e-300, tracked=(grid.snap(CENTER),)
        )
    elapsed = time.perf_counter() - started
    return results, elapsed


@pytest.fixture(scope="session")
def converged_run(min3):
    """MIN, delta=0.05, iterated to the eps=1e-6 stop."""
    grid = GridSpec.from_delta(3, 0.05)
    return run(grid, min3, t_max=100, eps=1e-6)
