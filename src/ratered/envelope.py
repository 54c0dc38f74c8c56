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

The scalar reference, Andrew's monotone chain and a chord walk over one
line in plain Python floats, lives in tests/conftest.py (_envelope_line).
Both kernels below compute every entry by its float operations, in the same
order, and the tests compare all three to the last bit, ties and BOTTOM
rows included.

The compiled kernel, _envelope.c, is that reference ported to C, in one
library with the field-CSV row writer and row reader and certify's family
check.  compiled_sweep, compiled_csv_rows, compiled_csv_read and
compiled_family_check hand out its four entry points, each on its
fallback's contract; their docstrings and the C comment above each
function state what each does.

The library is built on the first call of a process that needs it, never at
import: compiled with sysconfig's CC (else cc) and -O2 -ffp-contract=off
-fPIC -shared, so no product is fused into a sum (never -ffast-math, which
lets the compiler reorder float operations and assume that no NaN or
infinity occurs).  The library is cached in this package's __pycache__
directory under a name that carries a SHA-256 of the C source, the compiler
argv and the platform tag, so a later process only loads it;
sys.dont_write_bytecode does not govern it, as it is not bytecode.  It is
compiled under a temporary name and moved into place with os.replace, so
concurrent processes never load a half-written file.  It is adopted only
if every entry point passes its probe: the sweep gives the numpy sweep's
results, the writer the bytes of fieldcsv._python_rows, the reader those
rows' bits while it declines respellings the writer would not write, and
the family check the values and locations of certify._numpy_family_check
(_sweep_probe_passes, _csv_probe_passes, _csv_read_probe_passes,
_family_probe_passes).  A cached file is never rebuilt: delete it to force
a new build.  A build unlinks every other _envelope-*.so in the directory,
so an edited source leaves one library behind, not one per version.  Where
there is no compiler, the directory is not writable, or the build, the load
or any probe fails, the process runs the numpy sweep, the Python row
writer, only the block reader of ratered.fieldcsv and the numpy family
check for its whole life; kernel_name() says which kernel runs, and the
writer, the reader and the family check go with it.

The numpy kernel, envelope_batch, envelopes every row of a batch; the
numpy sweep makes one call, with the changed lines of every node of the
bank stacked into one batch.  It runs the monotone chain on all rows of a
batch in lockstep, one numpy step per column and per round of pops, each
round on the rows still popping only; then it interpolates the whole batch
in one vectorised pass, building the chords in place in the output.

The concavity test is written twice, each the other's check:
concavity_defects measures every second difference of every line of an
array at once, and certify._numpy_family_check, the fallback and the
probe's reference, reads it; ratered_family_check applies the same rules
line by line and keeps only each axis' worst.
"""

from __future__ import annotations

import functools
import os
from pathlib import Path

import numpy as np

BOTTOM = float("-inf")

_SOURCE = Path(__file__).with_name("_envelope.c")
_CACHE = Path(__file__).with_name("__pycache__")
_FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")


def envelope_batch(lines: np.ndarray) -> np.ndarray:
    """The upper concave envelope of every row of a 2D array at once, bit for
    bit the scalar reference's, on the numpy kernel.  The result never
    aliases lines."""
    if lines.ndim != 2:
        raise ValueError("lines must be two-dimensional")
    return _envelope_rows(np.asarray(lines, dtype=np.float64))


def compiled_sweep():
    """The compiled sweep of a whole bank, or None where the numpy sweep,
    lattice._numpy_sweep, runs (see the module docstring).  Both are called
    as sweep(sources, previous, stored) and return (fields, delta,
    enveloped), on this one contract.

    sources, previous (None for none) and stored hold one float64 array per
    node, node k (counted from 0) of one shape in each, sources and
    previous in any layout; stored[k] is line by line the envelope of
    previous[k] along axis k.  fields holds a new C-contiguous array per
    node: every axis-k line of sources[k] whose bits equal the same line of
    previous[k] takes the same line of stored[k], and every other line gets
    its envelope.  delta is the largest lattice.sup_delta(fields[k],
    stored[k]), and enveloped the number of lines that were enveloped."""
    kernel = _compiled_kernel()
    return None if kernel is None else kernel[0]


def compiled_csv_rows():
    """The compiled field-CSV row writer, or None where the Python row
    writer, fieldcsv._python_rows, runs on the same interface; the same
    library and the same decision as compiled_sweep.

    It is called as csv_rows(cells, shape), with cells the "i," cell of
    every grid index i in 0..n-1 followed by the "p_i," cell of every grid
    value, and shape that of the fields, n points on every axis.  It
    returns rows(h, rhos, first, count): h, the joint entropy, and each
    file's rho are arrays of that shape in any layout (copied at each call
    where numpy does not hold them aligned), and rows returns per file the
    bytes of its rows of flat indices first .. first + count - 1, Rsum
    being lattice.gap(h, rho), as a uint8 array."""
    kernel = _compiled_kernel()
    return None if kernel is None else kernel[1]


def kernel_name() -> str:
    """The kernel the sweep runs in this process: "compiled" or "numpy"."""
    return "numpy" if _compiled_kernel() is None else "compiled"


def compiled_csv_read():
    """The compiled field-CSV row reader, or None where only the reader of
    ratered.fieldcsv runs; the same library and the same decision as
    compiled_sweep.

    It is called as csv_read(cells, shape), with cells and shape as
    compiled_csv_rows takes them.  It returns read(chunk, first, rho, rsum):
    chunk holds the bytes of the rows of flat indices first, first + 1, ...,
    and rho and rsum are float64 arrays of one entry per grid point.  read
    stops at the last row or at the first line that chunk does not hold
    whole, and returns (rows, used, slow): it read rows rows, which take the
    first used bytes of chunk, into rho and rsum from index first on, and
    slow of their cells by strtod.  It returns None if a whole line of chunk
    is not byte for byte the row that compiled_csv_rows writes for the
    values it reads.

    Each value is the one double that compiled_csv_rows spells with the
    cell's bytes, as 17 significant digits tell every two doubles apart,
    found from the cell's digits or by strtod as the C comment above
    canonical_cell says; so the values and the files taken are those that
    strtod alone would give."""
    kernel = _compiled_kernel()
    return None if kernel is None else kernel[2]


def compiled_family_check():
    """certify.check_membership's compiled family check, or None where
    certify._numpy_family_check runs on the same contract; the same library
    and the same decision as compiled_sweep.

    Both are called as family_check(data, h, mask): data is the field, h the
    joint entropy and mask the zero-message set, arrays of one shape, data
    in any layout.  They return (axes, floor).  axes holds per axis a the
    pair (defect, flat): the largest entry of concavity_defects along axis
    a, and the flat index of its first occurrence in the C order of
    np.moveaxis(data, a, -1).  floor is (gap, flat): the largest
    lattice.gap(h, data) over the points of mask, and the flat index in C
    order of the first mask point where it occurs.  A mask that holds no
    point raises ValueError."""
    kernel = _compiled_kernel()
    return None if kernel is None else kernel[3]


@functools.cache
def _compiled_kernel():
    """The compiled sweep, row writer, row reader and family check as Python
    functions (compiled_sweep's, compiled_csv_rows', compiled_csv_read's and
    compiled_family_check's), or None where the library cannot be built,
    loaded or trusted; decided once per process."""
    import ctypes

    try:
        argv, source, path = _recipe()
        if not path.exists():
            _build(argv, source, path)
        library = ctypes.CDLL(str(path))
        node, csv = library.ratered_sweep_node, library.ratered_csv_write
        csv_in, family = library.ratered_csv_read, library.ratered_family_check
    except (OSError, ValueError, AttributeError):
        return None
    node.argtypes = (*[ctypes.c_void_p] * 6, ctypes.c_ssize_t, ctypes.c_ssize_t,
                     ctypes.c_void_p, ctypes.c_void_p)
    node.restype = ctypes.c_int
    csv.argtypes = (*[ctypes.c_void_p] * 3, *[ctypes.c_ssize_t] * 4, *[ctypes.c_void_p] * 3,
                    ctypes.c_ssize_t, ctypes.c_void_p)
    csv.restype = ctypes.c_int
    csv_in.argtypes = (ctypes.c_char_p, ctypes.c_ssize_t, ctypes.c_void_p,
                       *[ctypes.c_ssize_t] * 3, *[ctypes.c_void_p] * 6)
    csv_in.restype = ctypes.c_ssize_t
    family.argtypes = (*[ctypes.c_void_p] * 3, ctypes.c_ssize_t, *[ctypes.c_void_p] * 4)
    family.restype = ctypes.c_int

    def layout(shape, *arrays):
        """shape and the element strides of arrays as the C code takes them,
        strides[a * m + j] being arrays[a]'s along axis j."""
        steps = [s // a.itemsize for a in arrays for s in a.strides]
        return (ctypes.c_ssize_t * len(shape))(*shape), (ctypes.c_ssize_t * len(steps))(*steps)

    def sweep(sources, previous, stored):
        if previous is None:
            previous = [None] * len(sources)
        if not len(sources) == len(previous) == len(stored):
            raise ValueError("sources, previous and stored differ in length")
        fields, delta, enveloped = [], 0.0, 0
        for axis, (source, before, old) in enumerate(zip(sources, previous, stored)):
            src = _aligned(source)
            prev = None if before is None else _aligned(before)
            old = np.ascontiguousarray(old, dtype=np.float64)
            if old.shape != src.shape or prev is not None and prev.shape != src.shape:
                raise ValueError("source, previous and stored differ in shape")
            if axis >= src.ndim:
                raise ValueError(f"{len(sources)} nodes sweep fields of {src.ndim} axes")
            out = np.empty(src.shape)
            shape, strides = layout(src.shape, src, src if prev is None else prev, out)
            node_delta, lines = ctypes.c_double(), ctypes.c_ssize_t()
            if node(src.ctypes.data, None if prev is None else prev.ctypes.data,
                    old.ctypes.data, out.ctypes.data, shape, strides, src.ndim, axis,
                    ctypes.byref(node_delta), ctypes.byref(lines)):
                raise MemoryError("the envelope kernel could not allocate its hull stack")
            fields.append(out)
            delta = max(delta, node_delta.value)
            enveloped += lines.value
        return tuple(fields), delta, enveloped

    def csv_rows(cells, shape):
        text, starts, width = _packed_cells(cells, shape)
        n, m = len(cells) // 2, len(shape)

        def rows(h, rhos, first: int, count: int):
            fields = [_aligned(a) for a in (h, *rhos)]
            if not (rhos and all(a.shape == tuple(shape) for a in fields)
                    and 0 <= first <= first + count <= n**m):
                raise ValueError(f"{count} rows from row {first} of h and {len(rhos)} rho do not "
                                 f"fit fields of shape {shape}")
            out = np.empty((len(rhos), count * width), np.uint8)
            data = (ctypes.c_void_p * len(fields))(*[a.ctypes.data for a in fields])
            dims, strides = layout(shape, *fields)
            sizes = (ctypes.c_ssize_t * len(rhos))()
            if csv(data, dims, strides, m, len(rhos), first, count, text.ctypes.data,
                   starts.ctypes.data, out.ctypes.data, out.shape[1], sizes):
                raise MemoryError("the row writer could not allocate its index")
            return [row[:size] for row, size in zip(out, sizes)]
        return rows

    def csv_read(cells, shape):
        text, starts, _ = _packed_cells(cells, shape)
        n, m = len(cells) // 2, len(shape)
        dims, _ = layout(shape)

        def read(chunk: bytes, first: int, rho, rsum):
            for a in (rho, rsum):
                if not (isinstance(a, np.ndarray) and a.dtype == np.float64
                        and a.shape == (n**m,) and a.flags.c_contiguous and a.flags.writeable):
                    raise ValueError(f"rho and rsum must be writable float64 arrays of "
                                     f"{n**m} entries, one per point of fields of shape {shape}")
            if not 0 <= first <= n**m:
                raise ValueError(f"row {first} is outside fields of shape {shape}")
            used, slow, at = ctypes.c_ssize_t(), ctypes.c_ssize_t(), first * rho.itemsize
            rows = csv_in(chunk, len(chunk), dims, m, first, n**m - first, text.ctypes.data,
                          starts.ctypes.data, rho.ctypes.data + at, rsum.ctypes.data + at,
                          ctypes.byref(used), ctypes.byref(slow))
            if rows == -2:
                raise MemoryError("the row reader could not allocate its index")
            return None if rows < 0 else (rows, used.value, slow.value)
        return read

    def family_check(data, h, mask):
        field = _aligned(data)
        h = np.ascontiguousarray(h, dtype=np.float64)
        mask = np.ascontiguousarray(mask, dtype=bool)
        if not field.shape == h.shape == mask.shape:
            raise ValueError(f"field, h and mask differ in shape: {field.shape}, {h.shape} "
                             f"and {mask.shape}")
        m = field.ndim
        shape, strides = layout(field.shape, field)
        worst, where = (ctypes.c_double * (m + 1))(), (ctypes.c_ssize_t * (m + 1))()
        if family(field.ctypes.data, shape, strides, m, h.ctypes.data, mask.ctypes.data,
                  worst, where):
            raise MemoryError("the family check could not allocate its index")
        if where[m] < 0:
            raise ValueError("the zero-message mask holds no point")
        return tuple(zip(worst[:m], where[:m])), (worst[m], where[m])

    probe = _csv_probe_files()
    if (_sweep_probe_passes(sweep) and _csv_probe_passes(csv_rows, probe)
            and _csv_read_probe_passes(csv_read, probe) and _family_probe_passes(family_check)):
        return sweep, csv_rows, csv_read, family_check
    return None


def _packed_cells(cells: list, shape: tuple) -> tuple[np.ndarray, np.ndarray, int]:
    """The cells of the compiled row writer and reader as the C code takes
    them, the ASCII bytes of all cells in one array and the offset of each
    cell's first byte, with the end as a last offset; and the most bytes a
    row takes.  cells must hold an "i," and a "p_i," cell for each of the n
    points on every axis of shape, which has at least one."""
    n, m = len(cells) // 2, len(shape)
    if len(cells) != 2 * n or not shape or any(size != n for size in shape):
        raise ValueError(f"{len(cells)} cells do not fit fields of shape {shape}")
    encoded = [cell.encode("ascii") for cell in cells]
    text = np.frombuffer(b"".join(encoded), np.uint8)
    starts = np.cumsum([0, *map(len, encoded)], dtype=np.intp)
    # a row's cells, then rho and Rsum of at most 24 bytes, "," and "\n"
    width = m * (max(map(len, encoded[:n])) + max(map(len, encoded[n:]))) + 50
    return text, starts, width


def _aligned(a) -> np.ndarray:
    """a as float64: a view where numpy holds it aligned, so every stride is
    whole elements, else a copy."""
    a = np.asarray(a, dtype=np.float64)
    return a if a.flags.aligned and a.dtype.alignment == a.itemsize else a.copy()


def _recipe() -> tuple[list, bytes, Path]:
    """The compiler argv, the C source, and the cached library's path, whose
    name carries a SHA-256 of both and of the platform tag."""
    import hashlib
    import shlex
    import sysconfig

    source = _SOURCE.read_bytes()
    argv = [*shlex.split(sysconfig.get_config_var("CC") or "cc"), *_FLAGS]
    key = hashlib.sha256("\0".join([*argv, sysconfig.get_platform(), ""]).encode() + source)
    return argv, source, _CACHE / f"_envelope-{key.hexdigest()[:32]}.so"


def _build(argv: list, source: bytes, path: Path) -> None:
    """Compile source into the shared library path: under a temporary name
    in the same directory, then moved into place in one os.replace.  Then
    every other library in that directory, built from an older source or
    with other flags, is unlinked where it can be."""
    import contextlib
    import shutil
    import subprocess
    import tempfile

    path.parent.mkdir(exist_ok=True)
    tmpdir = tempfile.mkdtemp(dir=path.parent)
    try:
        tmp = os.path.join(tmpdir, path.name)
        done = subprocess.run([*argv, "-o", tmp, "-x", "c", "-"], input=source,
                              capture_output=True)
        if done.returncode:
            raise OSError(f"{argv[0]} exited with {done.returncode}")
        os.replace(tmp, path)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    for stale in path.parent.glob("_envelope-*.so"):
        if stale != path:
            with contextlib.suppress(OSError):
                stale.unlink()


def _probe_batch() -> np.ndarray:
    """The cells of the compiled kernel's probe, as rows whose envelopes it
    must reproduce bit for bit before it is used: scrambled rows with holes,
    exact ties, all-BOTTOM and one-point rows, NaN, +inf, -0.0, subnormals,
    cross products that overflow, rows that pop to the floor or never pop,
    and near-collinear rows whose pop test only rounding decides (a fused
    multiply-add flips some of them)."""
    rows, n = 52, 13
    cell = np.arange(rows * n, dtype=np.float64).reshape(rows, n)
    v = 0.5 + 1.5 * np.sin(cell * 12.9898)
    v[8:16] = np.round(v[8:16] * 4.0) / 4.0
    v[np.sin(cell * 78.233) > 0.4] = BOTTOM
    v[16] = BOTTOM
    v[17] = BOTTOM
    v[17, 6] = 0.75
    v[18:22] = np.ldexp(v[18:22], -1060)
    v[22:26] = np.where(np.sin(cell[22:26] * 3.7) > 0.0, 1e308, -0.5e308)
    v[26, 3] = np.nan
    v[27, 5] = np.inf
    i = np.arange(n, dtype=np.float64)
    v[28] = np.where(i % 2, 0.0, -0.0)
    v[29:33] = i**2
    v[33:37] = -(i - 5.0) ** 2
    v[40:52] = np.tile(0.1 + np.array([0.1, 0.3, 0.7, 1 / 3])[:, None] * i, (3, 1))
    v[44:48, 1::3] = BOTTOM
    v[48:52, [1, 2, 4, 5, 6, 8, 9, 11]] = BOTTOM
    return v


def _sweep_probe_passes(sweep) -> bool:
    """Whether sweep, the compiled sweep, gives the fields, the delta bits
    and the count of enveloped lines of the numpy sweep on the same inputs
    (lattice._numpy_sweep).

    The probe batch's cells, as a (4, 13, 13) field, are read in a rotated
    view, which is swept twice.  Each sweep is two calls of three nodes,
    node k reading the view with its axis axes[k] moved to axis k: the
    13-cell axes, axes = (0, 1, 1), and the 4-cell one, axes = (2, 2, 2).
    So every probe row is one of the lines enveloped, the nodes of one call
    have lines of one length (the numpy sweep's one batch needs that), and
    the compiled sweep walks axes 0, 1 and 2.  The first sweep has no
    previous source and a stored field 0.25 off the compiled result, so
    every delta is finite.  The second reads a C-contiguous copy in which
    three cells changed: one in the last ulp, one from 0.0 to -0.0, and one
    BOTTOM cell of an all-BOTTOM line turned finite, whose delta is +inf.
    Every other line is unchanged and takes the first sweep's result.

    Then one line is swept alone per path that envelope_line writes by,
    against a stored line that differs from its envelope on that path
    only: an interpolated cell, the BOTTOM cells before and after the
    finite span (+inf), the last hull vertex, and the only finite cell."""
    from .lattice import _numpy_sweep

    def agreed(sources, previous, stored):
        """The numpy sweep's fields where sweep gives its results, else None."""
        want = _numpy_sweep(sources, previous, stored)
        fields, delta, enveloped = sweep(sources, previous, stored)
        if (all(np.array_equal(got.view(np.uint64), data.view(np.uint64))
                for got, data in zip(fields, want[0]))
                and np.float64(delta).tobytes() == np.float64(want[1]).tobytes()
                and enveloped == want[2]):
            return want[0]
        return None

    first = _probe_batch().reshape(4, 13, 13)
    second = first.copy()
    second[3, 12, 0] = np.nextafter(second[3, 12, 0], np.inf)   # last on two axes
    second[2, 2, 1] = -0.0                      # probe row 28: 0.0 at odd columns
    second[1, 3, 6] = 0.75                      # probe row 16: all BOTTOM
    views = (first.transpose(1, 2, 0), np.ascontiguousarray(second.transpose(1, 2, 0)))
    for axes in ((0, 1, 1), (2, 2, 2)):
        before, after = ([np.moveaxis(v, a, k) for k, a in enumerate(axes)] for v in views)
        stored = [f + 0.25 for f in sweep(before, None, before)[0]]
        for sources, previous in ((before, None), (after, before)):
            stored = agreed(sources, previous, stored)
            if stored is None:
                return False
    lines = (([0.0, -1.0, 2.0, BOTTOM], [0.0, 1.5, 2.0, BOTTOM]),
             ([BOTTOM, 1.0, 2.0], [5.0, 1.0, 2.0]),
             ([1.0, 2.0, BOTTOM], [1.0, 2.0, 5.0]),
             ([1.0, 3.0, 2.0], [1.0, 3.0, 2.5]),
             ([BOTTOM, 3.0, BOTTOM], [BOTTOM, 1.0, BOTTOM]))
    return all(agreed([np.array(line)], None, [np.array(stored)]) is not None
               for line, stored in lines)


def _csv_probe_values() -> np.ndarray:
    """The values the compiled row writer must spell as "%.17g" does before
    it is used, 216 of them: the doubles next to 10**-5 .. 10**16, both
    ends of the fixed notation included; +-0.0, +-inf and NaN with and
    without its sign bit; subnormals and the float extremes; exponent
    notation; ties at the 17th digit; 2/11, which the reader's first
    candidate overshoots by one ulp within its decade; and scattered bit
    patterns."""
    powers = np.array([float(f"1e{j}") for j in range(-5, 17)])
    specials = np.array([0.0, np.inf, np.nan, 5e-324, 2.2250738585072014e-308 / 3,
                         2.2250738585072014e-308, 1.7976931348623157e308, 1.5e-7, 2.5e20,
                         1e14 + 0.125, 1e14 + 0.375, 0.1, 1 / 3, 2 / 11, 123456789.12345678])
    values = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf),
                             specials])
    values = np.concatenate([values, -values])
    # bit patterns scattered by a multiplicative hash (numpy.random would
    # cost the process megabytes of resident memory to import)
    scrambled = np.arange(1, 217 - values.size, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    return np.concatenate([values, scrambled.view(np.float64)])


def _csv_probe_files() -> tuple:
    """The row probes' cells, the shape of their fields, the joint entropy h
    and the rho of each of three files; and per file its rho and Rsum in row
    order and its rows as fieldcsv._python_rows writes them.  The first rho
    is the probe values as a (6, 6, 6) field in a rotated view; h, every
    other entry of a wider array, holds them in another order, not finite
    at two cells where that rho is not either and one where it is.  The
    second rho shares the first's bits in every third row, and holds the
    other zero and another NaN payload where the first holds a zero or NaN;
    the third is the first's in even rows and the second's in odd ones."""
    from .fieldcsv import _fmt, _python_rows
    from .lattice import gap

    n = 6
    cells = [f"{i}," for i in range(n)] + [_fmt(i / (n - 1)) + "," for i in range(n)]
    values = _csv_probe_values()
    rho = values.reshape(n, n, n).transpose(1, 2, 0)
    first = rho.reshape(-1)
    entropy = np.roll(values, 7)
    entropy[np.flatnonzero(~np.isfinite(first))[:2]] = (np.nan, -np.inf)
    entropy[np.flatnonzero(np.isfinite(first))[0]] = np.inf
    h = np.repeat(entropy.reshape(n, n, n), 2, axis=-1)[..., ::2]
    second = np.where(np.arange(first.size) % 3 == 0, first, np.roll(values[::-1], 11))
    zero, nan = first == 0.0, np.isnan(first)
    second[zero] = -first[zero]
    second[nan] = (first[nan].view(np.uint64) ^ np.uint64(1)).view(np.float64)
    third = np.where(np.arange(first.size) % 2 == 0, first, second)
    rhos = [rho, second.reshape(rho.shape), third.reshape(rho.shape)]
    texts = _python_rows(cells, rho.shape)(h, rhos, 0, first.size)
    files = [(r.reshape(-1), gap(entropy, r.reshape(-1)),
              text.tobytes().decode().splitlines(keepends=True))
             for r, text in zip(rhos, texts)]
    return cells, rho.shape, h, rhos, files


def _csv_probe_passes(csv_rows, probe) -> bool:
    """Whether csv_rows, the compiled row writer, writes the rows of the
    probe's files, probe = _csv_probe_files(), byte for byte.  The rows go
    in two blocks, the second starting inside an axis line, so the writer
    must find its place in the row-major index."""
    cells, shape, h, rhos, files = probe
    rows, got = csv_rows(cells, shape), [b""] * len(files)
    for first, count in ((0, 100), (100, h.size - 100)):
        got = [done + text.tobytes() for done, text in zip(got, rows(h, rhos, first, count))]
    return got == ["".join(lines).encode() for *_, lines in files]


def _csv_read_probe_passes(csv_read, probe) -> bool:
    """Whether csv_read, the compiled row reader, reads the rows of the
    probe's files, probe = _csv_probe_files(), back with the bits float()
    reads from each cell, and declines four copies of the first file that
    the writer would not write: 0.1 spelled "0.1", 1e-4 spelled "0.00010"
    and "00.0001", and two p cells of the same length swapped.  Each file
    is read in two chunks, the first ending inside a line, so the reader
    must carry on at the row where the first chunk ended.  It must read by
    strtod exactly the cells of the values outside 1e-4 <= |x| < 1e15: a
    digit path that misses a value, some an ulp or two from its first
    candidate, only sends more cells to strtod, so that count shows it."""
    from .fieldcsv import _fmt

    cells, shape, _, _, files = probe
    read, n = csv_read(cells, shape), len(files[0][0])

    def read_back(a, b, lines):
        v = np.abs(np.concatenate([a, b]))
        slow = np.count_nonzero(~((v >= 1e-4) & (v < 1e15)))     # the cells strtod reads
        text, rho, rsum = "".join(lines).encode(), np.empty(n), np.empty(n)
        head = read(text[: text.index(b"\n", len(text) // 2) - 3], 0, rho, rsum)
        tail = None if head is None else read(text[head[1]:], head[0], rho, rsum)
        if tail is None or (head[0] + tail[0], head[1] + tail[1], head[2] + tail[2]) \
                != (n, len(text), slow):
            return None
        return rho, rsum

    for a, b, lines in files:
        got = read_back(a, b, lines)
        # "%.17g" gives every double back, and float("nan") is np.nan
        want = [np.where(np.isnan(v), np.nan, v) for v in (a, b)]
        if got is None or not all(np.array_equal(x.view(np.uint64), y.view(np.uint64))
                                  for x, y in zip(got, want)):
            return False
    a, b, lines = files[0]
    declined = []
    for value, spelling in ((0.1, "0.1"), (1e-4, "0.00010"), (1e-4, "00.0001")):
        r = int(np.flatnonzero(a == value)[0])
        declined.append([*lines[:r], lines[r].replace(f",{_fmt(value)},", f",{spelling},"),
                         *lines[r + 1:]])
    swapped = list(lines)
    p1, p2 = cells[len(cells) // 2 + 1], cells[len(cells) // 2 + 2]
    r = int(np.ravel_multi_index((1, 2, 0), shape))
    swapped[r] = lines[r].replace(p1 + p2, p2 + p1)
    return all(read_back(a, b, copy) is None for copy in [*declined, swapped])


def _family_probe_passes(family_check) -> bool:
    """Whether family_check, the compiled family check, gives the defects,
    gaps and locations of the numpy one, certify._numpy_family_check, bit
    for bit.

    The fields: the probe batch's cells as a (4, 13, 13) field in a rotated
    view, so the walk reads strides on every axis; a C-contiguous (13, 13, 4)
    field whose second differences are 2, -6 and 0 along its three axes and
    whose floor gap is 1 at every point, so every maximum ties and each
    location must be the first in its axis' moved order; and one-axis fields
    that each decide one rule: holes of +inf and of NaN inside a finite span
    (their first hole, and a floor gap of +inf where F is +inf), three 1e308
    cells whose second difference is NaN (+inf at the first), and i**2,
    whose defects all tie."""
    from .certify import _numpy_family_check

    def bits(result):
        axes, floor = result
        return [(np.float64(v).tobytes(), int(at)) for v, at in (*axes, floor)]

    cube = _probe_batch().reshape(4, 13, 13).transpose(1, 2, 0)
    i = np.arange(13.0)
    ties = np.add.outer(np.add.outer(i**2, -3.0 * (i - 5.0) ** 2), i[:4])
    cases = [(cube, np.cos(np.arange(cube.size)).reshape(cube.shape),
              np.arange(cube.size).reshape(cube.shape) % 3 != 1),
             (ties, ties + 1.0, np.arange(ties.size).reshape(ties.shape) % 5 != 2)]
    for line in ([0.0, 1.0, np.inf, 1.0, 0.0, -1.0], [0.0, 1.0, np.nan, 1.0, 0.0],
                 [1e308, 1e308, 1e308, 10.0, 20.0], i**2):
        line = np.array(line)
        cases.append((line, np.zeros(line.shape), np.ones(line.shape, dtype=bool)))
    return all(bits(family_check(*case)) == bits(_numpy_family_check(*case)) for case in cases)


def _envelope_rows(v: np.ndarray) -> np.ndarray:
    """The lockstep kernel: the scalar reference on every row of v, bit for
    bit.

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
