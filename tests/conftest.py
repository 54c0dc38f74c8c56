"""Shared session fixtures: the expensive iteration runs are computed once.

eps=1e-300 forces the full sweep budget (the stopping rule then never
fires), which the history- and trace-based tests rely on.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from ratered.cli import _fmt
from ratered.envelope import BOTTOM, _envelope_line
from ratered.lattice import run, sum_rate_field
from ratered.probability import GridSpec, entropy_grid
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
def per_row_field_csv():
    """write_field_csv's reference: the cells of each np.ndindex point joined
    one row at a time, the whole text written at once."""
    def write(path, field_in, label):
        grid = field_in.grid
        axis = [_fmt(v) for v in grid.axis_values()]
        rho = field_in.data.reshape(-1)
        rsum = sum_rate_field(field_in).reshape(-1)
        lines = [",".join([f"i_{j}" for j in range(1, grid.m + 1)]
                          + [f"p_{j}" for j in range(1, grid.m + 1)]
                          + [f"rho_{label}", f"Rsum_{label}"])]
        for flat, idx in enumerate(np.ndindex(grid.shape)):
            cells = [str(i) for i in idx]
            cells += [axis[i] for i in idx]
            cells.append(_fmt(rho[flat]))
            cells.append(_fmt(rsum[flat]))
            lines.append(",".join(cells))
        path.write_text("\n".join(lines) + "\n")
    return write


@pytest.fixture(scope="session")
def per_row_slice_csv():
    """The text of `run --slice` by its reference loop: field_in with 1-based
    axis fixed at grid index fixed, Rsum as entropy minus rho per point."""
    def text(field_in, axis, fixed, label):
        grid = field_in.grid
        sl = [slice(None)] * grid.m
        sl[axis - 1] = fixed
        sliced = field_in.data[tuple(sl)]
        h = entropy_grid(grid)[tuple(sl)]
        keep = [j for j in range(grid.m) if j != axis - 1]
        axis_vals = [_fmt(v) for v in grid.axis_values()]
        lines = [",".join([f"i_{j + 1}" for j in keep] + [f"p_{j + 1}" for j in keep]
                          + [f"rho_{label}", f"Rsum_{label}"])]
        for idx in np.ndindex(sliced.shape):
            rho = sliced[idx]
            rs = h[idx] - rho if rho != BOTTOM else float("inf")
            cells = [str(i) for i in idx]
            cells += [axis_vals[i] for i in idx]
            cells += [_fmt(rho), _fmt(rs)]
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"
    return text


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
