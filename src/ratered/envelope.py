"""Upper concave envelope of a sampled extended-real profile on a uniform grid.

A profile holds one value per abscissa i/N; BOTTOM (-inf) marks points where
no finite value is achievable yet.  The envelope is the least concave
majorant of the finite points, evaluated back on the grid: a single
monotone-chain upper hull over the finite points followed by linear
interpolation at the grid abscissae.  Outside the integer interval spanned
by the finite points the output stays BOTTOM: mixtures of achievable
marginals can only produce marginals inside their convex hull, so no
extrapolation is ever performed.

Hull construction and interpolation use integer abscissae (the index i
rather than i/N); the two are affinely equivalent and integer arithmetic
keeps the hull tests free of grid-step rounding.

Two implementations share that arithmetic.  _envelope_line is the scalar
reference: Andrew's monotone chain and a chord walk over one line in plain
Python floats; upper_concave_envelope uses it, and the tests compare the
batch kernel against it bit for bit.  envelope_batch runs the same monotone
chain on all rows of a batch in lockstep, one numpy step per column and per
round of pops, each round on the rows still popping only; then it
interpolates the whole batch in one vectorised pass, building the chords in
place in the output.  A sweep makes one call, with the lines of every
enveloped node stacked into one batch.  The kernel performs the reference's
float operations in the same order, so the two agree to the last bit, ties
and BOTTOM rows included.

Near the limit many lines are already their own hull, and the kernel would
return them unchanged.  A loop-free pre-pass (_already_hulls) finds those
rows first, and only the others go through the kernel.  A row is returned as
it is when its non-BOTTOM cells form one contiguous run and no consecutive
triple of them passes the kernel's own pop test,

    (v[j] - v[j-2]) - (v[j-1] - v[j-2]) * 2 >= 0.0,

which is the kernel's cross term with its integer factors 1 and 2; both
products are exact, so the pre-pass and the kernel compute the same bits.
Such a row never pops, by induction on the columns: at column j the top two
stack entries are j-2 and j-1, the test above fails, and j is pushed.  So
every non-BOTTOM cell is a hull vertex; the kernel copies vertices and
writes BOTTOM only outside the support, so its output is the input.

The concavity test lives in one place too: concavity_defects measures every
second difference of every line of an array at once, and both the per-line
concavity_violation / is_concave and the certifier's family check read it.
"""

from __future__ import annotations

import numpy as np

BOTTOM = float("-inf")


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
    """Envelope of one line, as Python floats for speed in the sweep loop."""
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


def envelope_batch(lines: np.ndarray) -> np.ndarray:
    """_envelope_line on every row of a 2D array at once, bit for bit.

    Rows that are already their own upper hull come back as they are, with
    no kernel work: their non-BOTTOM cells form one run and no consecutive
    triple passes the kernel's pop test (v[j] - v[j-2]) - (v[j-1] - v[j-2])
    * 2 >= 0.0, in the kernel's own float operations (_already_hulls).  On
    such a row the monotone chain never pops, since at column j its top two
    entries are j-2 and j-1; so every non-BOTTOM cell is a vertex, and the
    kernel, which copies vertices and writes BOTTOM only outside the
    support, would return the row unchanged.

    The other rows are gathered into one batch for _envelope_rows and
    scattered back into a copy of the input; when no row is skipped the
    kernel runs on the batch itself.  The result never aliases lines.
    """
    if lines.ndim != 2:
        raise ValueError("lines must be two-dimensional")
    v = np.asarray(lines, dtype=np.float64)
    todo = np.flatnonzero(~_already_hulls(v))
    if todo.size == v.shape[0]:
        return _envelope_rows(v)
    if not todo.size:
        return v.copy()
    # The gathered rows are freed before the copy is made, so the peak is
    # the kernel's on the gathered rows alone.
    hulls = _envelope_rows(v[todo])
    out = v.copy()
    out[todo] = hulls
    return out


def _already_hulls(v: np.ndarray) -> np.ndarray:
    """Mask of the rows that _envelope_rows would return bit for bit.

    A row qualifies when its non-BOTTOM cells form one run and no triple of
    consecutive cells passes the pop test of _hull_vertices with the stack
    top at j-1 and j-2.  The test runs on every triple, BOTTOM or not: a
    triple holding BOTTOM gives -inf or NaN (no pop) unless BOTTOM is its
    middle cell between two non-BOTTOM ones, and such a row has a hole and
    fails the run test anyway.  A row of fewer than three cells has no
    triple and no room for a hole.

    Both tests run on the flat batch, so every numpy step is one pass over
    contiguous memory rather than one short loop per row.
    """
    rows, n = v.shape
    if n < 3:
        return np.ones(rows, dtype=bool)
    flat = v.reshape(-1)
    finite = flat != BOTTOM
    # A run starts at a non-BOTTOM cell whose left neighbour in its row is
    # BOTTOM or absent; a row that holds two starts has a hole.
    starts = np.empty_like(finite)
    np.greater(finite[1:], finite[:-1], out=starts[1:])
    starts[::n] = finite[::n]
    start_rows = np.flatnonzero(starts) // n
    # cross[i] is the pop test of the flat cells i, i+1, i+2; the last two
    # columns of each row hold triples that straddle two rows, never read.
    cross = np.empty_like(flat)
    with np.errstate(invalid="ignore", over="ignore"):
        np.subtract(flat[2:], flat[:-2], out=cross[:-2])
        rise = flat[1:-1] - flat[:-2]
        rise *= 2.0
        cross[:-2] -= rise
        pops = np.greater_equal(cross, 0.0, out=finite).reshape(rows, n)
    keep = ~pops[:, :-2].any(axis=1)
    keep[start_rows[1:][start_rows[1:] == start_rows[:-1]]] = False
    return keep


def _envelope_rows(v: np.ndarray) -> np.ndarray:
    """The lockstep kernel: _envelope_line on every row of v, bit for bit.

    Hull pass (_hull_vertices): Andrew's monotone chain on every row in
    lockstep, one column at a time.  Interpolation pass: every grid index
    takes the previous and next hull vertex of its row by a running max /
    min over the vertex mask, and the chord is built in place in the output
    before the vertices are copied back and BOTTOM is set outside the
    support.  Both passes use the reference's arithmetic operation for
    operation, so every float is the same.  A row with at most one finite
    point has no chord to fill and comes back unchanged.

    Column indices are held in the narrowest signed dtype that holds -1..n,
    and arithmetic mixing them with Python ints stays in range, so every
    integer reaches the float operations exact.
    """
    rows, n = v.shape
    ctype = np.min_scalar_type(-n - 1)
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        vertex = _hull_vertices(v, ctype)
        cols = np.arange(n, dtype=ctype)
        x0 = np.maximum.accumulate(np.where(vertex, cols, -1), axis=1)
        x1 = np.minimum.accumulate(np.where(vertex, cols, n)[:, ::-1], axis=1)[:, ::-1]
        outside = (x0 < 0) | (x1 >= n)
        np.maximum(x0, 0, out=x0)
        np.minimum(x1, n - 1, out=x1)
        # The clamped flat indices are in range; mode="clip" only spares
        # take a buffered copy of out.
        flat = v.reshape(-1)
        row_start = np.arange(rows, dtype=np.intp)[:, None] * n
        index = row_start + x1
        out = np.take(flat, index, out=np.empty_like(v), mode="clip")
        y0 = np.take(flat, np.add(row_start, x0, out=index), mode="clip")
        del index
        out -= y0
        out *= cols - x0
        out /= x1 - x0
        out += y0
    np.copyto(out, v, where=vertex)
    out[outside] = BOTTOM
    return out


def _hull_vertices(v: np.ndarray, ctype) -> np.ndarray:
    """Mask of the upper-hull vertices of the finite points of every row.

    Walk the columns left to right; every row keeps its hull stack in a flat
    array at row*n + depth, with tops[r] pointing at its top entry.  At
    column j the pop test runs only on the rows still popping, held as a
    shrinking index array, until none pops; then j is pushed on every row
    where it is finite.
    """
    rows, n = v.shape
    base = np.arange(rows, dtype=np.intp) * n
    finite = v != BOTTOM
    hx = np.zeros(rows * n, dtype=ctype)
    hy = np.zeros(rows * n, dtype=np.float64)
    tops = base - 1
    for j in range(n):
        at = np.flatnonzero(finite[:, j])
        y = v[at, j]
        top = tops[at]
        floor = base[at] + 1
        live = np.flatnonzero(top >= floor)
        while live.size:
            t = top[live]
            x0 = hx[t - 1]
            y0 = hy[t - 1]
            pop = (hx[t] - x0) * (y[live] - y0) - (hy[t] - y0) * (j - x0) >= 0.0
            live = live[pop]
            top[live] -= 1
            live = live[top[live] >= floor[live]]
        top += 1
        hx[top] = j
        hy[top] = y
        tops[at] = top
    # Stack slot s of row r sits at r*n + s and holds a column of row r.
    slots = np.flatnonzero(np.arange(n) < (tops - base + 1)[:, None])
    vertex = np.zeros((rows, n), dtype=bool)
    vertex.reshape(-1)[slots - slots % n + hx[slots]] = True
    return vertex


def is_concave(profile, tol: float = 1e-9) -> bool:
    """Discrete concavity with contiguous finite support.

    True iff the finite entries occupy one contiguous index interval and
    every interior triple satisfies v[i-1] + v[i+1] - 2 v[i] <= tol, i.e.
    iff concavity_violation reports at most tol.  An
    extended-real concave function is finite on an interval, so a support
    gap is a concavity failure, not a separate condition.
    """
    arr = np.asarray(profile, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError("profile must be one-dimensional")
    return concavity_violation(arr)[0] <= tol


def concavity_violation(profile) -> tuple[float, int]:
    """Worst concavity defect of one line and the interior index at fault.

    The first maximum of concavity_defects on the line: the defect
    v[i-1] + v[i+1] - 2 v[i] of the worst interior triple, (+inf, first hole
    index) for a support gap, and (BOTTOM, -1) when there is nothing to
    measure (fewer than three finite points).  A second difference that
    overflows to NaN counts as +inf, so it fails at every finite tolerance.
    """
    defects = concavity_defects(profile)
    j = int(np.argmax(defects))
    if defects[j] == BOTTOM:
        return (BOTTOM, -1)
    return (float(defects[j]), j)


def concavity_defects(lines) -> np.ndarray:
    """Concavity defect at every index of every line along the last axis.

    A line whose finite entries are contiguous gets, at each interior index
    i of that support, v[i-1] + v[i+1] - 2 v[i] (NaN, from an overflow,
    becomes +inf).  A line with a hole inside its finite support gets +inf
    at its first hole.  Every other entry is BOTTOM, so an entry is above a
    tolerance exactly where the line fails at that index.
    """
    v = np.asarray(lines, dtype=np.float64)
    finite = np.isfinite(v)
    hole = (~finite & np.logical_or.accumulate(finite, axis=-1)
            & np.logical_or.accumulate(finite[..., ::-1], axis=-1)[..., ::-1])
    gapped = hole.any(axis=-1, keepdims=True)
    with np.errstate(over="ignore", invalid="ignore"):
        second = v[..., :-2] + v[..., 2:] - 2.0 * v[..., 1:-1]
    second[np.isnan(second)] = np.inf
    out = np.full(v.shape, BOTTOM)
    interior = finite[..., :-2] & finite[..., 2:] & ~gapped
    out[..., 1:-1] = np.where(interior, second, BOTTOM)
    out[hole & (np.cumsum(hole, axis=-1) == 1)] = np.inf
    return out
