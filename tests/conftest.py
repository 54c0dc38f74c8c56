"""Shared session fixtures: the expensive iteration runs are computed once.

eps=1e-300 forces the full sweep budget (the stopping rule then never
fires), which the history- and trace-based tests rely on.
"""

from __future__ import annotations

import hashlib
import time

import numpy as np
import pytest

from ratered.certify import MembershipReport
from ratered.cli import _fmt
from ratered.envelope import BOTTOM, _envelope_line
from ratered.lattice import (
    FieldBank,
    axis_convexify,
    next_node,
    run,
    sum_rate_field,
    zero_message_mask,
)
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
    def envelope(lines):
        out = np.empty_like(lines)
        for r in range(lines.shape[0]):
            out[r] = _envelope_line(lines[r].tolist())
        return out
    return envelope


@pytest.fixture(scope="session")
def per_node_sweep():
    """sweep_once's reference: every node's field enveloped from the previous
    bank, with no use of the rotation period."""
    def sweep(bank):
        m = bank.m
        fields = tuple(
            axis_convexify(bank.field_for(next_node(k, m)), k) for k in range(1, m + 1)
        )
        return FieldBank(fields=fields, tau=bank.tau + 1, period=bank.period)
    return sweep


def _per_line_concavity(profile):
    """concavity_violation's reference: one line, support checks first, then
    the first argmax of the interior second differences."""
    arr = np.asarray(profile, dtype=np.float64)
    finite = np.isfinite(arr)
    k = int(np.count_nonzero(finite))
    if k <= 1:
        return (BOTTOM, -1)
    idx = np.flatnonzero(finite)
    lo, hi = int(idx[0]), int(idx[-1])
    if hi - lo + 1 != k:
        inner = np.flatnonzero(~finite[lo : hi + 1])
        return (float("inf"), lo + int(inner[0]))
    seg = arr[lo : hi + 1]
    if len(seg) < 3:
        return (BOTTOM, -1)
    defects = seg[:-2] + seg[2:] - 2.0 * seg[1:-1]
    j = int(np.argmax(defects))
    return (float(defects[j]), lo + j + 1)


@pytest.fixture(scope="session")
def per_line_concavity():
    return _per_line_concavity


@pytest.fixture(scope="session")
def per_line_membership():
    """check_membership's reference: every line of every axis through
    per_line_concavity in a Python loop; a later line or axis takes over
    the worst location only when its violation is strictly larger."""
    def check(field, f, tol):
        grid = field.grid
        mask = zero_message_mask(grid, f)
        gaps = entropy_grid(grid)[mask] - field.data[mask]
        j = int(np.argmax(gaps))
        per_axis_ok = []
        worst_violation, worst_axis, worst_loc = BOTTOM, 0, None
        length = grid.points_per_axis
        for k in range(1, grid.m + 1):
            ax = k - 1
            moved = np.moveaxis(field.data, ax, -1)
            outer_shape = moved.shape[:-1]
            lines = np.ascontiguousarray(moved).reshape(-1, length)
            axis_ok = True
            for r in range(lines.shape[0]):
                violation, inner = _per_line_concavity(lines[r])
                if violation == BOTTOM:
                    continue
                if violation > tol:
                    axis_ok = False
                if violation > worst_violation:
                    loc = [int(c) for c in np.unravel_index(r, outer_shape)]
                    loc.insert(ax, inner)
                    worst_violation, worst_axis, worst_loc = violation, k, tuple(loc)
            per_axis_ok.append(axis_ok)
        return MembershipReport(
            majorization_ok=float(gaps[j]) <= tol,
            worst_majorization_gap=float(gaps[j]),
            majorization_location=tuple(int(c) for c in np.argwhere(mask)[j]),
            concavity_ok_per_axis=tuple(per_axis_ok),
            worst_concavity_violation=worst_violation,
            concavity_axis=worst_axis,
            concavity_location=worst_loc,
            tol=tol,
            delta=grid.delta,
            m=grid.m,
            n_steps=grid.n_steps,
            field_sha256=hashlib.sha256(field.data.tobytes()).hexdigest(),
        )
    return check


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
