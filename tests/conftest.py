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
from ratered.oracle import _stochastic_rows, _support_constancy
from ratered.probability import GridSpec, binary_entropy, entropy_grid
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


def _per_pair_chunks(p, f, spec):
    """The posterior of every (given0 row, given1 row, message value) triple
    evaluated in full, per chunk of given0 rows; yields, for each chunk with
    a feasible pair, np.sum of each pair's terms and its feasibility."""
    k = spec.k
    pk = p[k - 1]
    ok0, ok1, ok01 = _support_constancy(f, p, k)

    n_steps = spec.n_search_steps
    rows = _stochastic_rows(n_steps, spec.u1_cardinality) / float(n_steps)
    n_rows = rows.shape[0]
    chunk = max(1, min(n_rows, (1 << 17) // max(n_rows, 1) + 1))
    for lo in range(0, n_rows, chunk):
        given0 = rows[lo : lo + chunk, None, :]      # message dist given X_k = 0
        given1 = rows[None, :, :]                    # message dist given X_k = 1
        mass0 = (1.0 - pk) * given0
        mass1 = pk * given1
        p_u = mass0 + mass1
        live = p_u > 0.0
        post = np.divide(mass1, p_u, out=np.zeros_like(p_u), where=live)
        at_zero = mass1 == 0.0
        at_one = mass0 == 0.0
        u_ok = np.where(at_zero, ok0, np.where(at_one, ok1, ok01))
        feasible = np.all(u_ok | ~live, axis=-1)
        if not np.any(feasible):
            continue
        interior = live & ~at_zero & ~at_one
        h_post = np.zeros_like(post)
        q = post[interior]
        h_post[interior] = -(q * np.log2(q) + (1.0 - q) * np.log2(1.0 - q))
        yield np.sum(p_u * h_post, axis=-1), feasible


@pytest.fixture(scope="session")
def per_pair_chunks():
    """The per-chunk pair sums and feasibility of the per-pair search."""
    return _per_pair_chunks


@pytest.fixture(scope="session")
def per_pair_oracle():
    """single_message_reduction's reference: the per-pair search, with base
    added to every pair before the maximum."""
    def search(p, f, spec):
        base = 0.0
        for j in range(f.m):
            if j != spec.k - 1:
                base += binary_entropy(p[j])
        best = BOTTOM
        for sums, feasible in _per_pair_chunks(p, f, spec):
            values = base + sums
            cand = float(np.max(values[feasible]))
            if cand > best:
                best = cand
        return best
    return search


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
