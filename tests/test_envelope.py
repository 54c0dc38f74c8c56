"""Unit tests for the upper-concave-envelope kernels.

The heavyweight randomized property suite (1000 profiles, five properties)
lives in test_acceptance; this file keeps small targeted cases plus short
random loops for day-to-day debugging.  Tests taking the kernel fixture (or
envelope_rows, which picks it) run once on each kernel, through the sweep
lattice calls, and compare both with the scalar reference bit for bit.
"""

import collections
import decimal
import itertools
import math
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from conftest import upper_concave_envelope
from ratered import envelope, fieldcsv, lattice
from ratered.certify import check_membership
from ratered.envelope import BOTTOM, concavity_defects, envelope_batch
from ratered.probability import GridSpec
from ratered.target_functions import builtin_table


def reference_envelope(values):
    """O(n^3) pairwise-mixture evaluation: at every index take the best
    linear interpolation between two finite points straddling it."""
    n = len(values)
    finite = [i for i in range(n) if values[i] != BOTTOM]
    out = [BOTTOM] * n
    for i in range(n):
        best = BOTTOM
        for a in finite:
            if a > i:
                continue
            for b in finite:
                if b < i:
                    continue
                if a == b:
                    cand = values[a]
                else:
                    t = (i - a) / (b - a)
                    cand = values[a] * (1.0 - t) + values[b] * t
                if cand > best:
                    best = cand
        out[i] = best
    return out


def worst_defect(line):
    """The first maximum of concavity_defects on one line and its index, or
    (BOTTOM, -1) when the line has nothing to measure."""
    defects = concavity_defects(line)
    j = int(np.argmax(defects))
    return (BOTTOM, -1) if defects[j] == BOTTOM else (float(defects[j]), j)


def random_profile(rng, max_len=12, bottom_prob=0.3):
    n = int(rng.integers(2, max_len + 1))
    values = rng.uniform(-1.0, 2.0, size=n)
    mask = rng.uniform(size=n) < bottom_prob
    values[mask] = BOTTOM
    return values


class TestBasics:
    def test_all_bottom_passthrough(self):
        v = [BOTTOM, BOTTOM, BOTTOM]
        assert list(upper_concave_envelope(v)) == v

    def test_single_finite_point(self):
        v = [BOTTOM, 1.5, BOTTOM, BOTTOM]
        assert list(upper_concave_envelope(v)) == v

    def test_two_points_fill_chord(self):
        v = [2.0, BOTTOM, BOTTOM, BOTTOM, 0.5]
        out = upper_concave_envelope(v)
        assert out[0] == 2.0
        assert out[4] == 0.5
        assert out[2] == pytest.approx(1.25, abs=1e-15)

    def test_no_extrapolation_outside_span(self):
        v = [BOTTOM, 1.0, 2.0, BOTTOM]
        out = upper_concave_envelope(v)
        assert out[0] == BOTTOM
        assert out[3] == BOTTOM

    def test_convex_valley_becomes_chord(self):
        v = [1.0, 0.0, 1.0]
        out = upper_concave_envelope(v)
        assert list(out) == [1.0, 1.0, 1.0]

    def test_concave_input_returned_exactly(self):
        # strictly concave samples are all hull vertices: bitwise fixed point
        xs = np.linspace(0.0, 1.0, 21)
        v = np.array([0.0 if x in (0.0, 1.0) else
                      -(x * math.log2(x) + (1 - x) * math.log2(1 - x)) for x in xs])
        out = upper_concave_envelope(v)
        assert np.array_equal(out, v)

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            upper_concave_envelope(np.zeros((2, 2)))


class TestProperties:
    def test_matches_pairwise_reference(self):
        rng = np.random.default_rng(3)
        for _ in range(250):
            v = random_profile(rng)
            got = upper_concave_envelope(v)
            want = reference_envelope(list(v))
            for g, w in zip(got, want):
                if w == BOTTOM:
                    assert g == BOTTOM
                else:
                    assert g == pytest.approx(w, abs=1e-12)

    def test_idempotent(self):
        rng = np.random.default_rng(4)
        for _ in range(250):
            v = random_profile(rng)
            once = upper_concave_envelope(v)
            twice = upper_concave_envelope(once)
            assert np.all(np.isfinite(once) == np.isfinite(twice))
            both = np.isfinite(once)
            assert np.allclose(once[both], twice[both], atol=1e-12, rtol=0.0)

    def test_majorizes_input(self):
        rng = np.random.default_rng(5)
        for _ in range(250):
            v = random_profile(rng)
            out = upper_concave_envelope(v)
            finite_in = v != BOTTOM
            assert np.all(out[finite_in] >= v[finite_in] - 1e-12)

    def test_output_is_concave(self):
        rng = np.random.default_rng(6)
        for _ in range(250):
            out = upper_concave_envelope(random_profile(rng))
            assert concavity_defects(out).max() <= 1e-12


@pytest.fixture
def envelope_rows(kernel):
    """The rows of a 2D batch enveloped by the sweep lattice calls on the
    kernel under test: a one-node sweep of the batch's transpose, whose
    axis-0 lines are the rows, with no previous source, so every row is
    enveloped.  The stored field is 0, so the delta overflows nowhere."""
    sweep = lattice.compiled_sweep() or lattice._numpy_sweep

    def rows(lines):
        return sweep([lines.T], None, [np.zeros(lines.T.shape)])[0][0].T
    return rows


class TestBatch:
    def test_matches_per_line(self, envelope_rows):
        rng = np.random.default_rng(8)
        lines = rng.uniform(-1.0, 2.0, size=(40, 9))
        lines[rng.uniform(size=lines.shape) < 0.4] = BOTTOM
        batch = envelope_rows(lines)
        for row, line in zip(batch, lines):
            assert np.array_equal(row, upper_concave_envelope(line))

    def test_peak_memory_per_point(self):
        # a four-chain sweep batch of the benchmark's converge workload:
        # 4 * 11**3 lines of 11 points
        rng = np.random.default_rng(14)
        lines = rng.uniform(-1.0, 2.0, size=(5324, 11))
        lines[rng.uniform(size=lines.shape) < 0.3] = BOTTOM
        envelope_batch(lines)
        tracemalloc.start()
        try:
            envelope_batch(lines)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / lines.size < 40.0

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            envelope_batch(np.zeros(5))

    def test_every_row_reaches_the_hull_pass(self, numpy_kernel, monkeypatch):
        seen = []
        hull = envelope._hull_vertices

        def spy(v, ctype):
            seen.append(v.copy())
            return hull(v, ctype)

        monkeypatch.setattr(envelope, "_hull_vertices", spy)
        rng = np.random.default_rng(33)
        for lines in (_concave_rows(rng, 64, 11), _mixed_rows(rng, 64, 11)):
            seen.clear()
            envelope_batch(lines)
            assert len(seen) == 1
            assert np.array_equal(_bits(seen[0]), _bits(lines))

    def test_peak_memory_per_point_on_a_mixed_batch(self, numpy_kernel):
        rng = np.random.default_rng(34)
        lines = _mixed_rows(rng, 5324, 11)
        envelope_batch(lines)
        tracemalloc.start()
        try:
            envelope_batch(lines)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / lines.size < 40.0

    def test_bitwise_equals_per_line_loop(self, per_line_envelope, envelope_rows):
        rng = np.random.default_rng(10)
        # past 127 and 255 the kernel's column indices need a wider dtype
        for n in [*range(1, 61), 127, 128, 129, 255, 256, 257]:
            lines = rng.uniform(-1.0, 2.0, size=(48, n))
            lines[8:16] = np.round(lines[8:16] * 4.0) / 4.0   # exactly collinear ties
            lines[rng.uniform(size=lines.shape) < rng.uniform(0.0, 0.8)] = BOTTOM
            lines[16:24, : n // 2] = BOTTOM                    # gapped / one-sided rows
            lines[24] = BOTTOM                                 # all BOTTOM
            lines[25] = BOTTOM
            lines[25, n // 2] = 0.75                           # one finite point
            i = np.arange(n, dtype=np.float64)
            lines[26:34:2] = i**2                              # convex: pop to the floor
            lines[27:34:2] = -(i - n / 3) ** 2                 # concave: never pop
            got = envelope_rows(lines)
            want = per_line_envelope(lines)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), n


def _concave_rows(rng, rows, n):
    """Rows strictly concave along every triple, each on its own parabola."""
    i = np.arange(n, dtype=np.float64)
    centre = rng.uniform(0.0, n, size=(rows, 1))
    return 2.0 - rng.uniform(0.05, 1.0, size=(rows, 1)) * (i - centre) ** 2


def _convex_rows(rng, rows, n):
    """Rows whose every triple pops: second differences of at least 1."""
    return rng.uniform(0.0, 0.25, size=(rows, n)) + np.arange(n, dtype=np.float64) ** 2


def _mixed_rows(rng, rows, n):
    """Every other row strictly concave, the rest random with 30 % BOTTOM."""
    lines = rng.uniform(-1.0, 2.0, size=(rows, n))
    lines[rng.uniform(size=lines.shape) < 0.3] = BOTTOM
    lines[::2] = _concave_rows(rng, (rows + 1) // 2, n)
    return lines


B = BOTTOM
UP = np.nextafter(1.0, 2.0)     # one ulp above the chord through (0, 0), (2, 2)
DOWN = np.nextafter(1.0, 0.0)   # one ulp below it


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64)


# (row, whether the monotone chain never pops on it: then every finite cell
# is a hull vertex and the row comes back bit for bit)
CASES = [
    ([0.0, 1.5, 2.0, 1.5, 0.0], True),          # strictly concave
    ([-4.0, -1.0, 0.0, -1.0, -4.0], True),
    ([0.0, 1.0, 2.0], False),                    # exactly collinear: cross term 0.0
    ([2.0, 1.0, 0.0, -1.0], False),
    ([0.0, UP, 2.0], True),                      # one ulp above collinear
    ([0.0, DOWN, 2.0], False),                   # one ulp below collinear
    ([0.0, 1.5, B, 1.5, 0.0], False),            # hole of length 1
    ([0.0, 1.5, B, B, 1.5, 0.0], False),         # hole of length 2
    ([1.0, B, B, B, 1.0], False),                # hole of length 3
    ([B, 1.0, 2.0, B, B], True),                 # two adjacent finite points
    ([B, 1.0, B, 2.0, B], False),                # two finite points apart
    ([B, B, B, B], True),                        # all BOTTOM
    ([B, 0.75, B, B], True),                     # one finite point
    ([B, 0.0, 1.5, 2.0, B], True),               # concave run inside BOTTOM
    ([0.0, math.nan, 0.0], True),                # NaN never pops
    ([0.0, 1.0, math.nan, 1.0, 0.0], True),
    ([0.0, math.inf, 1.0], True),                # +inf: cross term -inf
    ([math.inf, 1.0, 0.0], True),                # inf - inf = NaN
    ([0.0, 1.0, math.inf], False),               # cross term +inf pops
    ([0.0, B, math.inf], False),                 # hole next to +inf
    ([math.nan, B, 0.0], False),                 # hole next to NaN
    ([1e308, -1e308, 1e308], False),             # differences overflow
    ([-1e308, 1e308, -1e308], True),
]


def _case_rows():
    """The CASES rows in one batch, padded with BOTTOM."""
    n = max(len(row) for row, _ in CASES)
    lines = np.full((len(CASES), n), BOTTOM)
    for r, (row, _) in enumerate(CASES):
        lines[r, : len(row)] = row
    return lines


def _unchanged(got, lines):
    """Per row: whether got holds the bits of lines."""
    return (_bits(got) == _bits(lines)).all(axis=1)


class TestKernels:
    """Edge cases on both kernels, each compared with the scalar reference
    as uint64, so -0.0 against 0.0 and NaN payloads count."""

    @pytest.mark.parametrize("n", [1, 2, 13])
    def test_empty_batch(self, envelope_rows, n):
        out = envelope_rows(np.empty((0, n)))
        assert out.shape == (0, n) and out.dtype == np.float64

    @pytest.mark.parametrize("n", [1, 2])
    def test_one_and_two_cells(self, per_line_envelope, envelope_rows, n):
        cells = [BOTTOM, 0.5, -0.0, 0.0, math.nan, math.inf, 1e308, 5e-324]
        lines = np.array(list(itertools.product(cells, repeat=n)))
        assert np.array_equal(_bits(envelope_rows(lines)), _bits(per_line_envelope(lines)))

    def test_one_finite_cell(self, per_line_envelope, envelope_rows):
        n = 9
        lines = np.full((4 * n, n), BOTTOM)
        for j in range(n):
            lines[4 * j : 4 * j + 4, j] = [0.75, -0.0, math.nan, math.inf]
        got = envelope_rows(lines)
        assert np.array_equal(_bits(got), _bits(lines))
        assert np.array_equal(_bits(got), _bits(per_line_envelope(lines)))

    def test_holes(self, per_line_envelope, envelope_rows):
        rng = np.random.default_rng(40)
        lines = rng.uniform(-1.0, 2.0, size=(64, 17))
        for r, line in enumerate(lines):
            a = r % 5
            b = a + 2 + r % 9
            line[a + 1 : b] = BOTTOM          # one hole of 1..9 cells
            line[b + 2 :: 3] = BOTTOM         # and holes past it
        assert np.array_equal(_bits(envelope_rows(lines)), _bits(per_line_envelope(lines)))

    def test_signed_zeros(self, per_line_envelope, envelope_rows):
        lines = np.array(list(itertools.product([0.0, -0.0, BOTTOM], repeat=5)))
        got = envelope_rows(lines)
        assert np.array_equal(_bits(got), _bits(per_line_envelope(lines)))
        # a flat row of -0.0 and 0.0 keeps the sign of every vertex
        assert np.array_equal(_bits(got[0]), _bits([0.0] * 5))

    def test_subnormals(self, per_line_envelope, envelope_rows):
        rng = np.random.default_rng(41)
        lines = np.ldexp(rng.uniform(-1.0, 2.0, size=(64, 11)), -1060)
        lines[rng.uniform(size=lines.shape) < 0.2] = BOTTOM
        lines[:8] = np.arange(11) * 5e-324          # collinear multiples of the least one
        lines[8:16] = (np.arange(11) % 3) * 5e-324
        got = envelope_rows(lines)
        assert np.array_equal(_bits(got), _bits(per_line_envelope(lines)))
        assert np.any((got != 0.0) & (np.abs(got) < np.finfo(np.float64).tiny))

    def test_values_near_the_float_limits(self, per_line_envelope, envelope_rows):
        rng = np.random.default_rng(42)
        big = np.finfo(np.float64).max
        lines = rng.choice([big, -big, 1e308, -1e308, 0.9e308, 0.0, BOTTOM], size=(200, 7))
        with np.errstate(over="ignore", invalid="ignore"):
            want = per_line_envelope(lines)
        assert np.array_equal(_bits(envelope_rows(lines)), _bits(want))

    def test_boundary_rows(self, per_line_envelope, envelope_rows):
        """The CASES rows in one padded batch, then each alone as a one-row
        batch of its own length."""
        lines = _case_rows()
        got = envelope_rows(lines)
        assert np.array_equal(_bits(got), _bits(per_line_envelope(lines)))
        # a row on which the chain never pops comes back bit for bit
        assert _unchanged(got, lines)[[never_pops for _, never_pops in CASES]].all()
        for row, never_pops in CASES:
            line = np.array([row])
            got = envelope_rows(line)
            assert np.array_equal(_bits(got), _bits(per_line_envelope(line))), row
            assert _unchanged(got, line)[0] or not never_pops, row

    def test_random_rows_with_special_cells(self, per_line_envelope, envelope_rows):
        rng = np.random.default_rng(43)
        specials = np.array([BOTTOM, math.nan, math.inf, -0.0, 1e308, -1e308, 5e-324])
        for n in range(1, 20):
            lines = _mixed_rows(rng, 60, n)
            lines[20:30] = np.round(lines[20:30] * 2.0) / 2.0     # ties
            cells = rng.uniform(size=lines.shape) < 0.15
            lines[cells] = rng.choice(specials, size=int(cells.sum()))
            lines[30:40, : n // 3] = BOTTOM
            assert np.array_equal(_bits(envelope_rows(lines)),
                                  _bits(per_line_envelope(lines))), n

    def test_any_layout_and_dtype(self, envelope_rows):
        rng = np.random.default_rng(44)
        block = rng.uniform(-1.0, 2.0, size=(11, 30))
        block[rng.uniform(size=block.shape) < 0.3] = BOTTOM
        want = envelope_rows(np.ascontiguousarray(block.T))
        assert np.array_equal(_bits(envelope_rows(block.T)), _bits(want))
        ints = rng.integers(-5, 5, size=(30, 11))
        assert np.array_equal(_bits(envelope_rows(ints)),
                              _bits(envelope_rows(ints.astype(np.float64))))

    def test_result_never_aliases_the_input(self, envelope_rows):
        """The result is a new array.  A row on which the monotone chain
        never pops comes back in it bit for bit: every row of _concave_rows
        and some of _mixed_rows, but none of _convex_rows."""
        rng = np.random.default_rng(45)
        for rows, all_any in ((_concave_rows, (True, True)), (_convex_rows, (False, False)),
                              (_mixed_rows, (False, True))):
            for n in (3, 4, 11, 51):
                lines = rows(rng, 40, n)
                before = lines.copy()
                out = envelope_rows(lines)
                unchanged = _unchanged(out, lines)
                assert (unchanged.all(), unchanged.any()) == all_any, (rows.__name__, n)
                assert not np.shares_memory(out, lines), rows.__name__
                out[...] = 7.0
                assert np.array_equal(lines, before), rows.__name__

    def test_compiled_and_numpy_agree_on_sweep_batches(self, per_line_envelope, envelope_rows,
                                                       monkeypatch):
        # every batch the numpy sweep path sends in twelve min sweeps, on
        # the kernel under test, against the per-line reference
        batches = []
        kernel_batch = lattice.envelope_batch

        def recording(lines):
            batches.append(lines.copy())
            return kernel_batch(lines)

        monkeypatch.setattr(lattice, "envelope_batch", recording)
        monkeypatch.setattr(lattice, "compiled_sweep", lambda: None)   # the batched path
        table = builtin_table("min", 3)
        lattice.run(GridSpec.from_delta(3, 0.1), table, t_max=12, eps=1e-300)
        # the numpy sweep under test calls envelope_batch too
        monkeypatch.setattr(lattice, "envelope_batch", kernel_batch)
        assert batches
        for lines in batches:
            assert np.array_equal(_bits(envelope_rows(lines)), _bits(per_line_envelope(lines)))


WRONG_DIVISION = ("y0 + (y1 - y0) * (double)(i - x0) / (double)(x1 - x0)",
                  "y0 + (y1 - y0) * (double)(i - x0) * (1.0 / (double)(x1 - x0))")
# Faults of the sweep walk, outside the line function.
WRONG_SWEEPS = {
    "transition-counts-0": ("fa == fb ? 0.0 : fa ? INFINITY : -INFINITY;", "0.0;"),
    "compare-skips-the-last-cell": ("for (ptrdiff_t j = 0; j < n; j++) {\n        uint64_t a",
                                    "for (ptrdiff_t j = 0; j + 1 < n; j++) {\n        uint64_t a"),
    "reused-line-read-contiguous": ("w[i * os] = old[i * os];", "w[i * os] = old[i];"),
    "previous-read-by-source-strides": ("ps = strides[m + axis]", "ps = strides[axis]"),
    # Faults of the delta envelope_line takes as it writes: each still
    # writes every entry, but leaves one path's entries out of the delta.
    "delta-skips-interpolated-cells": ("worst = put(w + i * ws, y0 + (y1 - y0)",
                                       "put(w + i * ws, y0 + (y1 - y0)"),
    "delta-skips-the-bottom-fill": (
        "i < a; i++)\n        worst = put(w + i * ws, -INFINITY, old[i * ws], worst);\n"
        "    for (ptrdiff_t i = b + 1; i < n; i++)\n        worst = put(",
        "i < a; i++)\n        put(w + i * ws, -INFINITY, old[i * ws], worst);\n"
        "    for (ptrdiff_t i = b + 1; i < n; i++)\n        put("),
    "last-vertex-delta-skipped": ("return put(w + b * ws, hy[top - 1], old[b * ws], worst);",
                                  "put(w + b * ws, hy[top - 1], old[b * ws], worst);\n"
                                  "    return worst;"),
    "one-cell-line-delta-0": ("worst = put(w + i * ws, v[i * vs], old[i * ws], worst);",
                              "put(w + i * ws, v[i * vs], old[i * ws], worst);"),
}


# Faults of the row writer.  The last four are faults of its one pass over
# the files: a -0.0 that takes the cells of an earlier file's 0.0, a rotated
# view read as if contiguous, and Rsum's two BOTTOM rules broken.
WRONG_ROWS = {
    "nan-by-snprintf": ("if (isnan(x)) {", "if (0) {"),
    "ties-round-up": ("((rest == half) & quotient & 1)", "(rest == half)"),
    "decade-not-corrected": ("if (a < TEN[d + 4])", "if (0)"),
    "index-from-row-0": ("seek_index(first, shape, m, index, offset, strides, files + 1);",
                         "seek_index(0, shape, m, index, offset, strides, files + 1);"),
    "reuse-on-equal-values": ("memcmp(&value[g], &x, sizeof x) != 0", "value[g] != x"),
    "rho-read-contiguously": ("x = fields[f + 1][offset[f + 1]];",
                              "x = fields[f + 1][first + r];"),
    "neither-finite-rsum-not-0": ("fa == fb ? 0.0 :", "fa == fb ? -0.0 :"),
    "one-sided-infinities-swapped": ("fa ? INFINITY : -INFINITY", "fa ? -INFINITY : INFINITY"),
    # A fault of the odometer every entry point walks by: it counts the
    # first axis fastest, so it visits every index once, in bounds, in
    # another order.  The sweep's result does not depend on that order; the
    # row writer's does.
    "odometer-counts-the-first-axis-fastest": (
        "for (ptrdiff_t j = m - 1; j >= 0; j--) {\n        if (j == skip)",
        "for (ptrdiff_t j = 0; j < m; j++) {\n        if (j == skip)"),
}
# Faults of the row reader.  The last five are faults of the digit path:
# the first and the last take a cell the writer did not write, the other
# three only send more cells to strtod.
WRONG_READS = {
    "p-cells-not-compared": (
        "if (nl - p < len || memcmp(p, prefix, (size_t)len) != 0)",
        "ptrdiff_t i_cells = 0;\n        for (ptrdiff_t j = 0; j < m; j++)\n"
        "            i_cells += starts[index[j] + 1] - starts[index[j]];\n"
        "        if (nl - p < len || memcmp(p, prefix, (size_t)i_cells) != 0)"),
    "rho-read-as-strtod-reads-it": ("!canonical_cell(p, comma - p, rho + r, slow)",
                                    "!(rho[r] = strtod(p, NULL), 1)"),
    "index-from-row-0-at-a-chunk": ("seek_index(first, shape, m, index, NULL, NULL, 0);",
                                    "seek_index(0, shape, m, index, NULL, NULL, 0);"),
    "first-candidate-not-checked": ("if (got == want) {", "if (got == want || j == 0) {"),
    "no-neighbour-tried": ("for (int j = 0; j < 3; j++)", "for (int j = 0; j < 1; j++)"),
    "digits-always-step-up": ("side = got < want ? 1 : -1;", "side = 1;"),
    "k-counted-one-short": ("p - point - 1;", "p - point - 2;"),
    "trailing-zero-accepted": ("(point == NULL || end[-1] > '0')", "1"),
}
# Faults of the family check: each breaks one of concavity_defects' rules,
# lattice.gap's floor rule, or the order its locations are counted in.
WRONG_CHECKS = {
    "tie-keeps-the-last": ("if (d > best) {", "if (d >= best) {"),
    "nan-not-promoted": ("if (isnan(d))", "if (0)"),
    "hole-rule-dropped": ("if (hole >= 0) {", "if (0) {"),
    "floor-subtracts-infinity": ("double g = gap(h[p], field[at]);",
                                 "double g = field[at] == -INFINITY ? INFINITY : h[p] - field[at];"),
    # the element offset, which is the natural C order of a contiguous field
    "location-in-natural-order": ("best_at = start + i;", "best_at = at + i * s;"),
    "only-bottom-not-finite": ("if (!isfinite(v[i * s]))", "if (v[i * s] == -INFINITY)"),
}


def _digit_candidate(cell: str):
    """The first double the compiled reader's digit path tries for cell,
    D / 10**k, with D its digits as one integer and k the digits after the
    point; None where the cell goes to strtod as it has not the layout of
    the writer's fixed notation: -?, an integer part of at most 15 digits
    that is "0" or starts with a non-zero digit, and, after a point, digits
    that end in a non-zero one; "0." followed by at most 3 zeros, and 1 to
    17 significant digits.  int to float and float division round once
    each, as in the C code."""
    match = re.fullmatch(r"-?(0|[1-9][0-9]{0,14})(?:\.([0-9]*[1-9]))?", cell)
    if match is None:
        return None
    whole, after = match.group(1), match.group(2) or ""
    zeros = len(after) - len(after.lstrip("0")) if whole == "0" else 0
    if not 1 <= len((whole + after).lstrip("0")) <= 17 or zeros > 3:
        return None
    y = float(int(whole + after)) / float(10 ** len(after))
    return -y if cell.startswith("-") else y


def _library():
    return envelope._recipe()[2]


def _assert_refused(monkeypatch, tmp_path, right, wrong):
    """Builds the library from the source with its one copy of right
    replaced by wrong, and asserts that the loader builds and loads it and
    then refuses it, so the process runs the numpy kernel."""
    text = envelope._SOURCE.read_text()
    assert text.count(right) == 1
    source = tmp_path / "_envelope.c"
    source.write_text(text.replace(right, wrong))
    monkeypatch.setattr(envelope, "_SOURCE", source)
    assert envelope.kernel_name() == "numpy"
    assert _library().is_file()   # built and loaded, then refused


class TestLoader:
    """How the compiled kernel is built, cached, checked and refused."""

    def test_builds_once_under_a_content_hashed_name(self, compiler, fresh_loader,
                                                     monkeypatch):
        assert envelope.kernel_name() == "compiled"
        assert [p.name for p in fresh_loader.iterdir()] == [_library().name]
        assert re.fullmatch(r"_envelope-[0-9a-f]{32}\.so", _library().name)
        # a later process loads the cached file and compiles nothing
        envelope._compiled_kernel.cache_clear()

        def forbidden(*args, **kwargs):
            raise AssertionError("compiled again although the library is cached")

        monkeypatch.setattr(subprocess, "run", forbidden)
        assert envelope.kernel_name() == "compiled"

    def test_name_changes_with_source_and_flags(self, fresh_loader, monkeypatch, tmp_path):
        name = _library().name
        monkeypatch.setattr(envelope, "_FLAGS", (*envelope._FLAGS, "-g"))
        assert _library().name != name
        monkeypatch.undo()
        source = tmp_path / "_envelope.c"
        source.write_bytes(envelope._SOURCE.read_bytes() + b"\n")
        monkeypatch.setattr(envelope, "_SOURCE", source)
        assert _library().name != name

    def test_a_new_build_unlinks_the_older_libraries(self, compiler, fresh_loader,
                                                     monkeypatch, tmp_path):
        assert envelope.kernel_name() == "compiled"
        older = _library()
        (fresh_loader / "lattice.cpython-311.pyc").write_bytes(b"")
        source = tmp_path / "_envelope.c"
        source.write_text(envelope._SOURCE.read_text() + "/* another version */\n")
        monkeypatch.setattr(envelope, "_SOURCE", source)
        envelope._compiled_kernel.cache_clear()
        assert envelope.kernel_name() == "compiled"
        assert _library() != older
        assert sorted(p.name for p in fresh_loader.iterdir()) == sorted(
            [_library().name, "lattice.cpython-311.pyc"])

    def test_dont_write_bytecode_does_not_govern_the_library(self, compiler, fresh_loader,
                                                             monkeypatch):
        monkeypatch.setattr(sys, "dont_write_bytecode", True)
        assert envelope.kernel_name() == "compiled"
        assert _library().is_file()

    def test_missing_compiler_gives_numpy(self, no_compiler, per_line_envelope):
        assert envelope.kernel_name() == "numpy"
        assert not any(no_compiler.glob("*.so"))
        lines = _mixed_rows(np.random.default_rng(46), 40, 11)
        assert np.array_equal(_bits(envelope_batch(lines)), _bits(per_line_envelope(lines)))

    def test_a_failed_build_is_not_retried(self, no_compiler, monkeypatch):
        calls = []
        compile_ = subprocess.run

        def counting(*args, **kwargs):
            calls.append(args)
            return compile_(*args, **kwargs)

        monkeypatch.setattr(subprocess, "run", counting)
        for _ in range(3):
            assert envelope.compiled_sweep() is None
        assert envelope.kernel_name() == "numpy"
        assert len(calls) == 1

    def test_unwritable_cache_gives_numpy(self, fresh_loader, monkeypatch, tmp_path):
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("")
        monkeypatch.setattr(envelope, "_CACHE", blocker / "cache")
        assert envelope.kernel_name() == "numpy"

    def test_a_corrupt_cached_file_is_not_loaded(self, fresh_loader):
        fresh_loader.mkdir()
        path = _library()
        path.write_bytes(b"\x7fELF" + b"\0" * 60)
        assert envelope.kernel_name() == "numpy"
        assert path.read_bytes() == b"\x7fELF" + b"\0" * 60   # left as it is

    def test_a_library_failing_the_probe_is_refused(self, compiler, fresh_loader,
                                                    monkeypatch, tmp_path):
        _assert_refused(monkeypatch, tmp_path, *WRONG_DIVISION)

    @pytest.mark.parametrize("fault", WRONG_SWEEPS)
    def test_a_library_whose_sweep_disagrees_is_refused(self, compiler, fresh_loader,
                                                        monkeypatch, tmp_path, fault):
        _assert_refused(monkeypatch, tmp_path, *WRONG_SWEEPS[fault])
        assert envelope.compiled_sweep() is None

    @pytest.mark.parametrize("fault", WRONG_ROWS)
    def test_a_library_whose_row_writer_disagrees_is_refused(self, compiler, fresh_loader,
                                                             monkeypatch, tmp_path, fault,
                                                             per_row_field_csv):
        """The whole library is refused, its sweep too, and the Python row
        writer writes the bytes the format spells."""
        _assert_refused(monkeypatch, tmp_path, *WRONG_ROWS[fault])
        assert envelope.compiled_sweep() is None and envelope.compiled_csv_rows() is None
        grid = GridSpec(m=3, n_steps=20)
        values = envelope._csv_probe_values()
        field = lattice.RateReductionField(grid, np.resize(values, grid.shape))
        fieldcsv.write_field_csv(tmp_path / "field.csv", field, "max")
        per_row_field_csv(tmp_path / "ref.csv", field, "max")
        assert (tmp_path / "field.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    @pytest.mark.parametrize("fault", WRONG_READS)
    def test_a_library_whose_row_reader_disagrees_is_refused(self, compiler, fresh_loader,
                                                             monkeypatch, tmp_path, fault):
        """The whole library is refused, and the block reader reads what the
        writer wrote."""
        _assert_refused(monkeypatch, tmp_path, *WRONG_READS[fault])
        assert envelope.compiled_csv_read() is None
        values = envelope._csv_probe_values()
        grid = GridSpec(m=3, n_steps=20)
        field = lattice.RateReductionField(   # rho is finite or -inf
            grid, np.resize(values[~np.isnan(values) & (values != np.inf)], grid.shape))
        fieldcsv.write_field_csv(tmp_path / "field.csv", field, "max")
        loaded = fieldcsv.read_field_csv(tmp_path / "field.csv")
        assert np.array_equal(_bits(loaded.data), _bits(field.data))

    @pytest.mark.parametrize("fault", WRONG_CHECKS)
    def test_a_library_whose_family_check_disagrees_is_refused(self, compiler, fresh_loader,
                                                               monkeypatch, tmp_path, fault,
                                                               per_line_membership):
        """The whole library is refused, and certify checks a field with
        holes, +inf, NaN and overflowing cells on numpy, as the per-line
        loop does (repr tells every two doubles apart)."""
        _assert_refused(monkeypatch, tmp_path, *WRONG_CHECKS[fault])
        assert envelope.compiled_family_check() is None
        grid = GridSpec(m=3, n_steps=6)
        field = lattice.RateReductionField(grid, np.resize(envelope._probe_batch(), grid.shape))
        table = builtin_table("min", 3)
        assert repr(check_membership(field, table, 1e-9)) \
            == repr(per_line_membership(field, table, 1e-9))

    def test_the_read_probe_covers_its_cases(self):
        """A reader that takes a row only if it is the writer's spelling of
        the values float() reads from it, and counts as read by strtod the
        cells that the digit path leaves to it, passes the read probe; one
        that reads every row as float() does, one that leaves the p cells
        unread, one that reads every cell by strtod, and one that takes a
        cell whose digits spell the writer's value with a leading or a
        trailing zero, do not."""
        def reference_read(cells, shape, canonical=True, p_cells=True, all_strtod=False,
                           layout=True):
            n, m = len(cells) // 2, len(shape)

            def read(chunk, first, rho, rsum):
                lines, slow = chunk.decode().split("\n")[:-1][: n**m - first], 0
                for r, line in enumerate(lines, first):
                    at = np.unravel_index(r, shape)
                    prefix = "".join([cells[i] for i in at] + [cells[n + i] for i in at] * p_cells)
                    if not line.startswith(prefix):
                        return None
                    text = line.split(",")[-2:]
                    rho[r], rsum[r] = map(float, text)
                    spelled = [fieldcsv._fmt(rho[r]), fieldcsv._fmt(rsum[r])]
                    if not layout:    # compare the digits alone: "0.50" as "0.5"
                        text = [w if decimal.Decimal(t) == decimal.Decimal(w) else t
                                for t, w in zip(text, spelled)]
                    if canonical and text != spelled:
                        return None
                    slow += sum(all_strtod or _digit_candidate(cell) is None for cell in text)
                return len(lines), sum(len(line) + 1 for line in lines), slow
            return read

        probe = envelope._csv_probe_files()
        assert envelope._csv_read_probe_passes(reference_read, probe)
        assert not envelope._csv_read_probe_passes(
            lambda cells, shape: reference_read(cells, shape, canonical=False), probe)
        assert not envelope._csv_read_probe_passes(
            lambda cells, shape: reference_read(cells, shape, p_cells=False), probe)
        assert not envelope._csv_read_probe_passes(
            lambda cells, shape: reference_read(cells, shape, all_strtod=True), probe)
        assert not envelope._csv_read_probe_passes(
            lambda cells, shape: reference_read(cells, shape, layout=False), probe)

    def test_the_read_probe_covers_the_digit_path(self):
        """Of the probe's 216 values, 88 are not spelled in the writer's
        fixed notation with a non-zero digit, and go to strtod: they are
        0, -0, not finite, or outside 1e-4 <= |x| < 1e15.  The digit path's
        first candidate is every other value but 18: 14 are the double one
        ulp above it in magnitude and 4 the one below, two of them, +-2/11,
        in the candidate's decade.  So a reader that tries no neighbour, or
        takes the wrong side from the digits, sends some of them to strtod
        too."""
        kinds = collections.Counter()
        for x in envelope._csv_probe_values().tolist():
            y = _digit_candidate(fieldcsv._fmt(x))
            assert (y is None) == (not 1e-4 <= abs(x) < 1e15)
            if y is None:
                kinds["strtod"] += 1
                continue
            steps = {0: "first", 1: "up", -1: "down"}
            kinds[steps.get(int(_bits([abs(x)])[0]) - int(_bits([abs(y)])[0]), "miss")] += 1
        assert kinds == {"strtod": 88, "first": 110, "up": 14, "down": 4}

    def test_the_csv_probe_covers_the_edge_cases(self):
        """A writer that spells every cell of every file by fieldcsv._fmt,
        with Rsum by lattice.gap, passes the row probe, whose values hold
        what the formatter spells apart; and whose fields hold what the
        one-pass writer must tell apart: a rotated rho, a non-contiguous h,
        files that share a row's bits, rows that differ only in the sign of
        a zero or in a NaN's payload, and every BOTTOM rule of Rsum."""
        def reference_rows(cells, shape):
            n = len(cells) // 2

            def rows(h, rhos, first, count):
                for rho in rhos:
                    text = ""
                    for flat in range(first, first + count):
                        at = np.unravel_index(flat, shape)
                        text += "".join([cells[i] for i in at] + [cells[n + i] for i in at])
                        text += f"{fieldcsv._fmt(rho[at])},"
                        text += f"{fieldcsv._fmt(lattice.gap(h[at], rho[at]))}\n"
                    yield np.frombuffer(text.encode(), np.uint8)
            return rows

        probe = envelope._csv_probe_files()
        assert envelope._csv_probe_passes(reference_rows, probe)
        _, _, h, rhos, files = probe
        assert not h.flags.c_contiguous and h.base is not None
        assert not rhos[0].flags.c_contiguous and rhos[0].base is not None
        assert all(s > 0 for a in (h, *rhos) for s in a.strides)   # none read past its end
        first, second, third = (_bits(rho) for rho, _, _ in files)
        assert ((first == second) & (first != 0)).any() and (first != second).any()
        assert np.all((third == first) | (third == second))
        assert ((third == second) & (third != first)).any()
        signs = (first ^ second) == np.uint64(1 << 63)
        assert ((first == _bits(0.0)) & signs).any() and ((first == _bits(-0.0)) & signs).any()
        nan = np.isnan(files[0][0])
        assert nan.any() and np.all(np.isnan(files[1][0][nan]) & (first[nan] != second[nan]))
        assert ((third != first) & np.isnan(files[2][0])).any()
        entropy, rho = h.reshape(-1), files[0][0]
        assert (~np.isfinite(entropy) & ~np.isfinite(rho)).any()
        assert (~np.isfinite(entropy) & np.isfinite(rho)).any()
        assert (np.isfinite(entropy) & ~np.isfinite(rho)).any()
        v = envelope._csv_probe_values()
        bits = set(_bits(v).tolist())
        assert set(_bits([0.0, -0.0, np.inf, -np.inf]).tolist()) <= bits
        assert {b >> 63 for b in _bits(v[np.isnan(v)]).tolist()} == {0, 1}
        finite = np.abs(v[np.isfinite(v)])
        assert ((0 < finite) & (finite < np.finfo(np.float64).tiny)).any()
        assert ((0 < finite) & (finite < 1e-4)).any() and (finite >= 1e15).any()
        for j in range(-4, 16):          # the fixed notation's ends included
            power = float(f"1e{j}")
            assert {power, np.nextafter(power, 0.0), np.nextafter(power, np.inf)} <= set(finite)
        assert 1e14 + 0.125 in finite    # a tie at the 17th digit

    def test_the_sweep_probe_covers_reuse_and_transitions(self, per_line_envelope):
        """The sweep contract, written out node by node with the per-line
        reference, passes the sweep probe; and the probe reads rotated
        views, sweeps axes 0, 1 and 2, has sweeps with and without a
        previous source, reuses some lines, sees finite and infinite
        deltas, and sweeps single lines whose stored lines differ."""
        calls, deltas, lone = [], [], []

        def reference_sweep(sources, previous, stored):
            fields, delta, enveloped = [], 0.0, 0
            for k, (source, old) in enumerate(zip(sources, stored)):
                moved = np.moveaxis(source, k, -1)
                changed = (np.ones(moved.shape[:-1], dtype=bool) if previous is None else
                           np.any(_bits(moved) != _bits(np.moveaxis(previous[k], k, -1)),
                                  axis=-1))
                out = np.array(old, dtype=np.float64)
                np.moveaxis(out, k, -1)[changed] = per_line_envelope(moved[changed])
                fields.append(out)
                delta = max(delta, lattice.sup_delta(out, old))
                enveloped += int(np.count_nonzero(changed))
                calls.append((k, source.flags.c_contiguous, previous is None,
                              int(np.count_nonzero(changed)), changed.size))
            deltas.append(delta)
            if sources[0].ndim == 1:
                lone.append(delta)
            return tuple(fields), delta, enveloped

        assert envelope._sweep_probe_passes(reference_sweep)
        assert {k for k, *_ in calls} == {0, 1, 2}
        assert any(not contiguous for _, contiguous, *_ in calls)
        assert {first for _, _, first, *_ in calls} == {True, False}
        assert any(0 < n < size for *_, first, n, size in calls if not first)
        assert math.inf in deltas and any(0.0 < d < math.inf for d in deltas)
        assert len(lone) == 5 and all(lone)

    def test_the_probe_batch_covers_the_edge_cases(self, per_line_envelope):
        v = envelope._probe_batch()
        finite = v != BOTTOM
        assert (finite.sum(axis=1) == 0).any() and (finite.sum(axis=1) == 1).any()
        assert np.isnan(v).any() and np.isposinf(v).any()
        assert (_bits(v) == _bits(-0.0)).any()
        assert ((v != 0.0) & (np.abs(v) < np.finfo(np.float64).tiny)).any()
        assert (np.abs(v[finite]) >= 1e308).any()
        # some rows of two or more finite cells are their own envelope, some are not
        unchanged = _unchanged(per_line_envelope(v), v)[finite.sum(axis=1) >= 2]
        assert unchanged.any() and not unchanged.all()

    def test_import_loads_nothing(self):
        code = ("import sys, ratered.cli\n"
                "from ratered import envelope\n"
                "print(envelope._compiled_kernel.cache_info().currsize,"
                " 'hashlib' in sys.modules, 'sysconfig' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, timeout=60)
        assert out.stdout.split() == ["0", "False", "False"]


class TestCompiledRefusals:
    """The compiled wrappers check every size before a raw pointer reaches
    C, and refuse what does not fit with ValueError."""

    @pytest.fixture
    def compiled(self, compiler):
        assert envelope.kernel_name() == "compiled"

    def test_sweep_refuses_mismatched_shapes(self, compiled):
        sweep, a, b = envelope.compiled_sweep(), np.zeros((3, 4)), np.zeros((4, 3))
        for args in (([a], None, [b]), ([a], [b], [a]), ([a], [a.T], [a])):
            with pytest.raises(ValueError, match="differ in shape"):
                sweep(*args)
        for args in (([a, a], None, [a]), ([a], [a, a], [a]), ([a], None, [])):
            with pytest.raises(ValueError, match="differ in length"):
                sweep(*args)

    def test_sweep_refuses_more_nodes_than_axes(self, compiled):
        sweep, a = envelope.compiled_sweep(), np.zeros((3, 3))
        with pytest.raises(ValueError, match="3 nodes sweep fields of 2 axes"):
            sweep([a] * 3, None, [a] * 3)
        assert sweep([a] * 2, None, [a] * 2)[2] == 6     # one node per axis fits

    def test_csv_rows_refuses_cells_that_do_not_fit_the_shape(self, compiled):
        csv_rows, cells = envelope.compiled_csv_rows(), ["0,", "1,", "0,", "1,"]
        for cells, shape in ((cells[:3], (2, 2)), (cells, (2, 3)), (cells, (3, 3)), (cells, ())):
            with pytest.raises(ValueError, match="do not fit fields of shape"):
                csv_rows(cells, shape)

    def test_csv_rows_refuses_values_or_first_out_of_range(self, compiled):
        rows, h = envelope.compiled_csv_rows()(["0,", "1,", "0,", "1,"], (2, 2)), np.zeros((2, 2))
        [text] = rows(h, [np.ones((2, 2))], 0, 4)
        assert text.tobytes().count(b"\n") == 4 and text.tobytes().endswith(b",1,-1\n")
        assert [t.size for t in rows(h, [h, h.T], 4, 0)] == [0, 0]
        for args in ((h, [np.zeros((2, 3))], 0, 4),        # a rho of another shape
                     (h, [h, np.zeros(4)], 0, 4),
                     (np.zeros((2, 3)), [h], 0, 4),         # h of another shape
                     (h, [], 0, 4),                         # no file
                     (h, [h], 0, 5), (h, [h], 3, 2), (h, [h], -1, 1), (h, [h], 4, 1),
                     (h, [h], 5, 0), (h, [h], 2, -1)):      # rows out of range
            with pytest.raises(ValueError, match=f"{args[3]} rows from row {args[2]} of h and "
                                                 f"{len(args[1])} rho do not fit fields of shape"):
                rows(*args)

    def test_views_whose_strides_are_not_whole_elements_are_copied(self, compiled):
        # a float64 field of a record array steps 12 bytes, not a whole element
        records = np.zeros(27, dtype=[("rho", np.float64), ("tag", np.float32)])
        records["rho"] = np.sin(np.arange(27.0))
        view = records["rho"].reshape(3, 3, 3)
        assert view.strides[-1] == 12 and not view.flags.aligned
        cells, h = ["0,", "1,", "2,", "0,", "0.5,", "1,"], np.zeros((3, 3, 3))
        [text] = envelope.compiled_csv_rows()(cells, view.shape)(h, [view], 0, 27)
        [want] = fieldcsv._python_rows(cells, view.shape)(h, [view], 0, 27)
        assert text.tobytes() == want.tobytes()
        want = lattice._numpy_sweep([view], None, [h])
        got = envelope.compiled_sweep()([view], None, [h])
        assert np.array_equal(_bits(got[0][0]), _bits(want[0][0]))
        assert (_bits([got[1]]).tolist(), got[2]) == (_bits([want[1]]).tolist(), want[2])

    def test_csv_read_refuses_cells_that_do_not_fit_the_shape(self, compiled):
        csv_read, cells = envelope.compiled_csv_read(), ["0,", "1,", "0,", "1,"]
        for cells, shape in ((cells[:3], (2, 2)), (cells, (2, 3)), (cells, (3, 3)), (cells, ())):
            with pytest.raises(ValueError, match="do not fit fields of shape"):
                csv_read(cells, shape)

    def test_csv_read_refuses_arrays_or_first_out_of_range(self, compiled):
        read = envelope.compiled_csv_read()(["0,", "1,", "0,", "1,"], (2, 2))
        text = b"0,0,0,0,0.5,1\n0,1,0,1,0,0\n1,0,1,0,0,0\n1,1,1,1,-inf,inf\n"
        rho, rsum = np.zeros(4), np.zeros(4)
        assert read(text, 0, rho, rsum) == (4, len(text), 6)  # strtod reads 0, -inf and inf
        assert rho.tolist() == [0.5, 0.0, 0.0, -math.inf] and rsum[3] == math.inf
        assert read(text[14:34], 1, rho, rsum) == (1, 12, 2)  # stops at the cut line
        assert read(text, 4, rho, rsum) == (0, 0, 0)
        assert read(text, 1, rho, rsum) is None              # row 1 is not "0,0,..."
        readonly = np.zeros(4)
        readonly.flags.writeable = False
        for a in (np.zeros(5), np.zeros(3), np.zeros(4, np.float32), np.zeros(8)[::2],
                  np.zeros((2, 2)), readonly, [0.0] * 4):
            with pytest.raises(ValueError, match="writable float64 arrays of 4 entries"):
                read(text, 0, a, rsum)
            with pytest.raises(ValueError, match="writable float64 arrays of 4 entries"):
                read(text, 0, rho, a)
        for first in (-1, 5):
            with pytest.raises(ValueError, match=f"row {first} is outside fields of shape"):
                read(text, first, rho, rsum)


class TestConcavityChecks:
    def test_concave_passes(self):
        assert concavity_defects([0.0, 1.0, 1.5, 1.0, 0.0]).max() <= 1e-9

    def test_strict_violation_fails_and_is_located(self):
        violation, where = worst_defect([0.0, 1.0, 0.0, 2.0, 0.0])
        assert violation > 1e-9
        assert where == 2

    def test_support_gap_fails(self):
        assert worst_defect([1.0, BOTTOM, 1.0]) == (math.inf, 1)

    def test_trivial_lines_pass(self):
        assert concavity_defects([BOTTOM, BOTTOM]).max() == BOTTOM
        assert worst_defect([BOTTOM, 3.0, BOTTOM]) == (BOTTOM, -1)

    def test_tolerance_respected(self):
        v = [0.0, 0.5, 1.0 + 5e-10]   # tiny convex kink at the end
        assert 1e-12 < concavity_defects(v).max() <= 1e-9

    def test_overflow_to_nan_counts_as_infinite(self):
        # 1e308 + 1e308 - 2 * 1e308 is inf - inf = NaN at index 1
        v = [1e308, 1e308, 1e308, 10.0, 20.0]
        assert worst_defect(v) == (math.inf, 1)
        assert concavity_defects(v)[3] == 1e308

    def test_matches_per_line_reference(self, per_line_concavity):
        rng = np.random.default_rng(12)
        for n in range(1, 30):
            lines = rng.normal(size=(40, n))
            lines[8:16] = np.round(lines[8:16] * 4.0) / 4.0   # exact ties
            lines[rng.uniform(size=lines.shape) < rng.uniform(0.0, 0.6)] = BOTTOM
            lines[16] = BOTTOM                                 # all BOTTOM
            lines[17] = BOTTOM
            lines[17, n // 2] = 0.5                            # one finite point
            lines[18] = BOTTOM
            lines[18, n // 3 : n // 3 + 2] = 0.5               # two finite points
            for line in lines:
                got, want = worst_defect(line), per_line_concavity(line)
                assert got[1] == want[1]
                assert np.float64(got[0]).view(np.uint64) == np.float64(want[0]).view(np.uint64)

    def test_defects_entry_by_entry(self):
        inf = math.inf
        got = concavity_defects([
            [BOTTOM, 0.0, 1.0, 1.5, BOTTOM],     # interior index 2 only
            [1.0, BOTTOM, BOTTOM, 2.0, 3.0],     # two holes: the first is marked
            [BOTTOM, 4.0, 5.0, BOTTOM, BOTTOM],  # two finite points
        ])
        assert np.array_equal(got, [
            [BOTTOM, BOTTOM, -0.5, BOTTOM, BOTTOM],
            [BOTTOM, inf, BOTTOM, BOTTOM, BOTTOM],
            [BOTTOM] * 5,
        ])

    def test_defects_work_along_the_last_axis_of_any_rank(self, per_line_concavity):
        rng = np.random.default_rng(13)
        block = rng.normal(size=(3, 4, 7))
        block[rng.uniform(size=block.shape) < 0.3] = BOTTOM
        got = concavity_defects(block)
        assert got.shape == block.shape
        for idx in np.ndindex(block.shape[:-1]):
            want = concavity_defects(block[idx])
            assert np.array_equal(got[idx].view(np.uint64), want.view(np.uint64))
            assert worst_defect(block[idx]) == per_line_concavity(block[idx])
