"""Shared session fixtures and the scalar references of the package's
vectorised code.

The expensive iteration runs are computed once.  eps=1e-300 forces the
full sweep budget (the stopping rule then never fires, short of an exact
fixed point), which the history- and trace-based tests rely on.

The references are imported by tests with `from conftest import ...`:
_envelope_line and upper_concave_envelope (the envelope kernel's scalar
reference), grid_points and computable_with_zero_messages (the pointwise
specs of entropy_grid and zero_message_mask), sweep_history (the banks
that run() passes through) and per_pair_terms (the oracle search's
message-value terms, pair by pair).

The kernel fixtures pick the envelope kernel a test runs on (kernel,
numpy_kernel) or let it exercise the compiled kernel's loader from scratch
(fresh_loader, no_compiler).
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import math
import shlex
import shutil
import sysconfig
import time
from pathlib import Path

import numpy as np
import pytest

from ratered import envelope
from ratered.certify import MembershipReport
from ratered.fieldcsv import _CSV_BLOCK, _fmt
from ratered.envelope import BOTTOM
from ratered.errors import ConfigError
from ratered.lattice import (
    FieldBank,
    RateReductionField,
    convexify_axes,
    initial_bank,
    run,
    sum_rate_field,
    sup_delta,
    sweep_once,
    zero_message_mask,
)
from ratered.oracle import _stochastic_rows, _support_constancy
from ratered.probability import GridSpec, ProductPmf, binary_entropy, entropy_grid
from ratered.target_functions import builtin_table

CENTER = (0.5, 0.5, 0.5)


def upper_concave_envelope(profile) -> np.ndarray:
    """Least concave majorant of the finite points of a 1D profile.

    Accepts any 1D sequence of floats (BOTTOM = -inf allowed) and returns a
    float array of the same length.  Values at the finite points' hull
    vertices are returned exactly; interior points are chord interpolations;
    indices outside [min finite, max finite] are BOTTOM.
    """
    arr = np.asarray(profile, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError("profile must be one-dimensional")
    return np.asarray(_envelope_line(arr.tolist()), dtype=np.float64)


def _envelope_line(v: list) -> list:
    """envelope_batch's scalar reference on one line of Python floats:
    Andrew's monotone chain over the finite points, then a chord walk, in
    the float operations the kernel performs."""
    n = len(v)
    xs = [i for i in range(n) if v[i] != BOTTOM]
    if len(xs) <= 1:
        return list(v)
    a, b = xs[0], xs[-1]

    # Monotone-chain upper hull over (index, value); collinear middles are
    # dropped (evaluated envelope is identical either way).
    hx: list = []
    hy: list = []
    for j in xs:
        y = v[j]
        while len(hx) >= 2:
            x1 = hx[-1]
            x0 = hx[-2]
            y0 = hy[-2]
            if (x1 - x0) * (y - y0) - (hy[-1] - y0) * (j - x0) >= 0.0:
                hx.pop()
                hy.pop()
            else:
                break
        hx.append(j)
        hy.append(y)

    out = [BOTTOM] * n
    seg = 1
    x0, y0 = hx[0], hy[0]
    x1, y1 = hx[1], hy[1]
    for i in range(a, b + 1):
        while i > x1:
            seg += 1
            x0, y0 = x1, y1
            x1, y1 = hx[seg], hy[seg]
        if i == x0:
            out[i] = y0
        elif i == x1:
            out[i] = y1
        else:
            out[i] = y0 + (y1 - y0) * (i - x0) / (x1 - x0)
    return out


def grid_points(grid: GridSpec):
    """All (N+1)^m grid points as (index, ProductPmf), in row-major order
    (first axis slowest)."""
    n = grid.n_steps
    for index in itertools.product(range(n + 1), repeat=grid.m):
        yield index, ProductPmf(tuple(i / n for i in index))


def computable_with_zero_messages(f, pmf: ProductPmf) -> bool:
    """zero_message_mask at one pmf: f almost surely constant under pmf,
    i.e. H(f(X^m)) = 0, read off the exact zeros of the marginals."""
    if pmf.m != f.m:
        raise ValueError(f"pmf arity {pmf.m} != function arity {f.m}")
    it = itertools.product(*(pmf.support(j) for j in range(f.m)))
    first = f(next(it))
    return all(f(x) == first for x in it)


def sweep_history(grid, f, t_max, eps, sweep=sweep_once):
    """run() spelled out: the banks from initial_bank on, one per sweep, and
    each sweep's sup delta over every node, stopping as run() stops (at
    t_max sweeps, or once a delta is at most eps)."""
    banks = [initial_bank(grid, f)]
    deltas = []
    for _ in range(t_max):
        banks.append(sweep(banks[-1]))
        deltas.append(max(sup_delta(n.data, o.data) for n, o in
                          zip(banks[-1].node_fields(), banks[-2].node_fields())))
        if deltas[-1] <= eps:
            break
    return banks, deltas


@pytest.fixture
def numpy_kernel(monkeypatch):
    """envelope_batch on the numpy kernel, as on a host where the compiled
    one cannot be built."""
    monkeypatch.setattr(envelope, "_compiled_kernel", lambda: None)
    return "numpy"


@pytest.fixture
def compiler():
    """The C compiler the kernel loader calls; the test is skipped where it
    is not on PATH."""
    cc = shlex.split(sysconfig.get_config_var("CC") or "cc")[0]
    if not shutil.which(cc):
        pytest.skip(f"no C compiler ({cc}) on PATH")
    return cc


@pytest.fixture(params=["compiled", "numpy"])
def kernel(request):
    """Runs a test once on each envelope kernel.  Wherever the C compiler
    the loader calls is on PATH, the compiled kernel must load."""
    if request.param == "numpy":
        return request.getfixturevalue("numpy_kernel")
    cc = request.getfixturevalue("compiler")
    if envelope.kernel_name() != "compiled":
        pytest.fail(f"{cc} is on PATH but the compiled envelope kernel did not load")
    return "compiled"


@pytest.fixture
def fresh_loader(monkeypatch, tmp_path):
    """The kernel loader with its choice forgotten and its cache directory
    under tmp_path, so the next envelope_batch call decides again."""
    cache = tmp_path / "kernel-cache"
    monkeypatch.setattr(envelope, "_CACHE", cache)
    envelope._compiled_kernel.cache_clear()
    yield cache
    envelope._compiled_kernel.cache_clear()


@pytest.fixture
def no_compiler(monkeypatch, tmp_path, fresh_loader):
    """A host whose configured C compiler does not exist."""
    config = sysconfig.get_config_var
    missing = str(tmp_path / "no-such-cc")
    monkeypatch.setattr(sysconfig, "get_config_var",
                        lambda name: missing if name == "CC" else config(name))
    return fresh_loader


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
            convexify_axes([(bank.field_for(k % m + 1), k)])[0] for k in range(1, m + 1)
        )
        return FieldBank(fields=fields, tau=bank.tau + 1)
    return sweep


def _per_line_concavity(profile):
    """The worst concavity defect of one line and its index, by support
    checks first, then the first argmax of the interior second differences:
    (+inf, first hole) for a support gap, (BOTTOM, -1) when fewer than three
    finite points leave nothing to measure."""
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


def per_pair_terms(p, f, spec, every_chunk=False):
    """The posterior of every (given0 row, given1 row, message value) triple
    evaluated in full, per chunk of given0 rows; yields, for each chunk with
    a feasible pair (every chunk if every_chunk), its first given0 row, each
    pair's terms along a last |U| axis and its feasibility."""
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
        if not (every_chunk or np.any(feasible)):
            continue
        interior = live & ~at_zero & ~at_one
        h_post = np.zeros_like(post)
        q = post[interior]
        h_post[interior] = -(q * np.log2(q) + (1.0 - q) * np.log2(1.0 - q))
        yield lo, p_u * h_post, feasible


def _per_pair_chunks(p, f, spec, every_chunk=False):
    """per_pair_terms with each pair's terms summed by a left fold in
    message order."""
    for lo, terms, feasible in per_pair_terms(p, f, spec, every_chunk):
        yield lo, functools.reduce(np.add, np.moveaxis(terms, -1, 0)), feasible


@pytest.fixture(scope="session")
def per_pair_chunks():
    """The per-chunk pair sums and feasibility of the per-pair search, each
    chunk with its first given0 row."""
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
        for _, sums, feasible in _per_pair_chunks(p, f, spec):
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


def _parses(parse, text: str) -> bool:
    try:
        parse(text)
    except ValueError:
        return False
    return True


@pytest.fixture(scope="session")
def per_cell_read_field_csv():
    """read_field_csv's reference: every cell parsed by Python int() or
    float(), _CSV_BLOCK lines at a time, with the same checks and messages."""
    def read(path) -> RateReductionField:
        def data_lines() -> list[tuple[int, str]]:
            lines = Path(path).read_text().splitlines()[1:]
            return [(line_no, line) for line_no, line in enumerate(lines, 2) if line]

        def bad_cell(r: int, c: int) -> tuple[str, str]:
            line_no, line = data_lines()[r]
            return f"{path}:{line_no}", line.split(",")[c]

        with open(path) as src:
            blocks = iter(lambda: "".join(itertools.islice(src, _CSV_BLOCK)).splitlines(), [])
            first = next(blocks, [])
            if not first:
                raise ConfigError(f"{path}: empty field CSV")
            header = first[0].split(",")
            n_cols = len(header)
            if n_cols < 6 or n_cols % 2 != 0:
                raise ConfigError(f"{path}: malformed field CSV header {first[0]!r}")
            m = (n_cols - 2) // 2
            expect_i = [f"i_{j}" for j in range(1, m + 1)]
            expect_p = [f"p_{j}" for j in range(1, m + 1)]
            label = header[2 * m][len("rho_"):]
            if header[:m] != expect_i or header[m : 2 * m] != expect_p or not label or \
                    header[2 * m :] != [f"rho_{label}", f"Rsum_{label}"]:
                raise ConfigError(f"{path}: unexpected field CSV columns {header}")
            parsed = [*range(m), 2 * m, 2 * m + 1]

            n_rows = 0
            p_cells: list = [{} for _ in range(m)]
            p_mixed = [False] * m
            indices, values = [], []
            for block in itertools.chain([first[1:]], blocks):
                body = [line for line in block if line]
                if set(map(str.count, body, itertools.repeat(","))) - {n_cols - 1}:
                    r = next(r for r, line in enumerate(body) if line.count(",") != n_cols - 1)
                    raise ConfigError(
                        f"{path}:{data_lines()[n_rows + r][0]}: expected {n_cols} "
                        f"cells, got {body[r].count(',') + 1}"
                    )
                if not body:
                    continue
                try:
                    cells = ",".join(body).split(",")
                    cols = [list(map(int, cells[j::n_cols])) for j in range(m)]
                    values.append(np.array([list(map(float, cells[c::n_cols]))
                                            for c in (2 * m, 2 * m + 1)]))
                except ValueError:
                    r, c = next((r, c) for r, line in enumerate(body) for c in parsed
                                if not _parses(int if c < m else float, line.split(",")[c]))
                    where, cell = bad_cell(n_rows + r, c)
                    raise ConfigError(f"{where}: {header[c]} {cell!r} is not "
                                      f"{'an integer' if c < m else 'a number'}") from None
                n_rows += len(body)
                for j in range(m):
                    p = cells[m + j :: n_cols]
                    block_cells = dict(zip(cols[j], p))
                    if list(map(block_cells.__getitem__, cols[j])) != p or any(
                            p_cells[j].setdefault(i, c) != c for i, c in block_cells.items()):
                        p_mixed[j] = True
                indices.append(np.array(cols))
        if not n_rows:
            raise ConfigError(f"{path}: field CSV has no data rows")

        index = np.concatenate(indices, axis=1)
        rho, rsum = np.concatenate(values, axis=1)
        bad = np.isnan(rho) | (rho == math.inf)
        if bad.any():
            where, cell = bad_cell(int(np.argmax(bad)), 2 * m)
            raise ConfigError(f"{where}: rho {cell!r} is neither finite nor -inf")
        if index.min() < 0:
            raise ConfigError(f"{path}: negative grid index")
        if index.max() == 0:
            raise ConfigError(f"{path}: every i_j is 0, so the indices span no grid step")
        try:
            grid = GridSpec(m=m, n_steps=int(index.max()))
        except ConfigError as exc:
            raise ConfigError(f"{path}: {exc}") from None
        if n_rows != grid.n_points:
            raise ConfigError(
                f"{path}: {n_rows} rows does not cover the "
                f"{grid.n_points}-point grid inferred from the indices"
            )
        axis = [_fmt(v) for v in grid.axis_values()]
        for j in range(m):
            if p_mixed[j] or any(axis[i] != p for i, p in p_cells[j].items()):
                r = next(r for r, (_, line) in enumerate(data_lines())
                         if line.split(",")[m + j] != axis[index[j, r]])
                where, cell = bad_cell(r, m + j)
                raise ConfigError(
                    f"{where}: p_{j + 1} = {cell!r} is not the "
                    f"grid value {axis[index[j, r]]} of i_{j + 1} = {index[j, r]}"
                )
        flat = np.ravel_multi_index(index, grid.shape)
        data = np.full(grid.n_points, np.nan)
        data[flat] = rho
        if np.any(np.isnan(data)):
            raise ConfigError(f"{path}: duplicate rows leave grid points unfilled")
        field = RateReductionField(grid=grid, data=data.reshape(grid.shape))
        bad = sum_rate_field(field).reshape(-1)[flat].view(np.uint64) != rsum.view(np.uint64)
        if bad.any():
            where, cell = bad_cell(int(np.argmax(bad)), 2 * m + 1)
            raise ConfigError(
                f"{where}: Rsum {cell!r} is not the "
                "joint entropy minus rho (inf where rho is -inf)"
            )
        return field
    return read


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
    """MIN, delta=0.05: the banks of all 40 sweeps (sweep_history)."""
    return sweep_history(GridSpec.from_delta(3, 0.05), min3, 40, 1e-300)[0]


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
