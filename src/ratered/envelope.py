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
batch kernel against it bit for bit.  envelope_batch, which every sweep
calls, runs _envelope_rows: the same monotone chain on all rows of a batch
in lockstep, one numpy step per column (and per round of pops), then the
interpolation for the whole batch in one vectorised pass.  It performs the
reference's float operations in the same order, so the two agree to the
last bit, ties and BOTTOM rows included.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

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


def _envelope_rows(lines: np.ndarray) -> np.ndarray:
    """_envelope_line on every row of a 2D array at once, bit for bit.

    Hull pass: walk the columns left to right; every row keeps its hull
    stack in a flat array at row*n + depth, with tops[r] pointing at its top
    entry.  At column j the pop test runs on the rows still popping until
    none pops, then j is pushed on every row where it is finite.
    Interpolation pass: every grid index takes the previous and next hull
    vertex of its row by a running max / min over the vertex mask.  Both
    passes use the reference's arithmetic operation for operation, so every
    float is the same.  A row with at most one finite point has no chord to
    fill and comes back unchanged.
    """
    v = np.asarray(lines, dtype=np.float64)
    rows, n = v.shape
    itype = np.int32 if rows * n < 2**31 else np.int64
    base = np.arange(rows, dtype=itype) * n
    by_col = v.T.copy()
    finite = by_col != BOTTOM
    hx = np.zeros(rows * n, dtype=itype)
    hy = np.zeros(rows * n, dtype=np.float64)
    tops = base - 1
    # Rows that are not popping still gather (at most two entries below
    # their own stack, a valid flat index); the mask discards what they read.
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        for j in range(n):
            at = np.flatnonzero(finite[j])
            y = by_col[j, at]
            top = tops[at]
            floor = base[at] + 1
            popping = top >= floor
            while popping.any():
                x1 = hx[top]
                x0 = hx[top - 1]
                y0 = hy[top - 1]
                popping &= (x1 - x0) * (y - y0) - (hy[top] - y0) * (j - x0) >= 0.0
                top -= popping
                popping &= top >= floor
            top += 1
            hx[top] = j
            hy[top] = y
            tops[at] = top

        depth = tops - base + 1
        cols = np.arange(n, dtype=itype)
        vertex = np.zeros((rows, n), dtype=bool)
        vertex[np.repeat(np.arange(rows), depth),
               hx.reshape(rows, n)[cols < depth[:, None]]] = True
        x0 = np.maximum.accumulate(np.where(vertex, cols, -1), axis=1)
        x1 = np.minimum.accumulate(np.where(vertex, cols, n)[:, ::-1], axis=1)[:, ::-1]
        inside = (x0 >= 0) & (x1 < n)
        np.maximum(x0, 0, out=x0)
        np.minimum(x1, n - 1, out=x1)
        flat = v.reshape(-1)
        y0 = flat[base[:, None] + x0]
        y1 = flat[base[:, None] + x1]
        chord = y0 + (y1 - y0) * (cols - x0) / (x1 - x0)
    return np.where(vertex, v, np.where(inside, chord, BOTTOM))


def envelope_batch(lines: np.ndarray, threads: int = 1) -> np.ndarray:
    """Envelope of every row of a 2D array, row-independently.

    Rows are disjoint, so any chunking across threads produces bit-identical
    results; the thread count is a throughput knob only.
    """
    if lines.ndim != 2:
        raise ValueError("lines must be two-dimensional")
    rows, _ = lines.shape
    out = np.empty_like(lines)

    def work(lo: int, hi: int) -> None:
        out[lo:hi] = _envelope_rows(lines[lo:hi])

    if threads <= 1 or rows < 2 * threads:
        work(0, rows)
        return out
    chunk = (rows + threads - 1) // threads
    bounds = [(lo, min(lo + chunk, rows)) for lo in range(0, rows, chunk)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        list(pool.map(lambda be: work(*be), bounds))
    return out


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


def concavity_violation(profile, tol: float = 1e-9) -> tuple[float, int]:
    """Worst concavity defect of one line and the interior index at fault.

    Returns (violation, index) where violation = max over interior triples of
    v[i-1] + v[i+1] - 2 v[i]; a support gap reports (+inf, gap index), and a
    line with fewer than three finite points (BOTTOM, -1).
    """
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
