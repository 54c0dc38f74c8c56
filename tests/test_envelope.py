"""Unit tests for the upper-concave-envelope kernels.

The heavyweight randomized property suite (1000 profiles, five properties)
lives in test_acceptance; this file keeps small targeted cases plus short
random loops for day-to-day debugging.  Tests taking the kernel fixture run
once on the compiled kernel and once on the numpy one, and compare both
with the scalar reference bit for bit.
"""

import itertools
import math
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from conftest import upper_concave_envelope
from ratered import envelope, lattice
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


class TestBatch:
    def test_matches_per_line(self, kernel):
        rng = np.random.default_rng(8)
        lines = rng.uniform(-1.0, 2.0, size=(40, 9))
        lines[rng.uniform(size=lines.shape) < 0.4] = BOTTOM
        batch = envelope_batch(lines)
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

    def test_bitwise_equals_per_line_loop(self, per_line_envelope, kernel):
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
            got = envelope_batch(lines)
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
    def test_empty_batch(self, kernel, n):
        out = envelope_batch(np.empty((0, n)))
        assert out.shape == (0, n) and out.dtype == np.float64

    @pytest.mark.parametrize("n", [1, 2])
    def test_one_and_two_cells(self, per_line_envelope, kernel, n):
        cells = [BOTTOM, 0.5, -0.0, 0.0, math.nan, math.inf, 1e308, 5e-324]
        lines = np.array(list(itertools.product(cells, repeat=n)))
        assert np.array_equal(_bits(envelope_batch(lines)), _bits(per_line_envelope(lines)))

    def test_one_finite_cell(self, per_line_envelope, kernel):
        n = 9
        lines = np.full((4 * n, n), BOTTOM)
        for j in range(n):
            lines[4 * j : 4 * j + 4, j] = [0.75, -0.0, math.nan, math.inf]
        got = envelope_batch(lines)
        assert np.array_equal(_bits(got), _bits(lines))
        assert np.array_equal(_bits(got), _bits(per_line_envelope(lines)))

    def test_holes(self, per_line_envelope, kernel):
        rng = np.random.default_rng(40)
        lines = rng.uniform(-1.0, 2.0, size=(64, 17))
        for r, line in enumerate(lines):
            a = r % 5
            b = a + 2 + r % 9
            line[a + 1 : b] = BOTTOM          # one hole of 1..9 cells
            line[b + 2 :: 3] = BOTTOM         # and holes past it
        assert np.array_equal(_bits(envelope_batch(lines)), _bits(per_line_envelope(lines)))

    def test_signed_zeros(self, per_line_envelope, kernel):
        lines = np.array(list(itertools.product([0.0, -0.0, BOTTOM], repeat=5)))
        got = envelope_batch(lines)
        assert np.array_equal(_bits(got), _bits(per_line_envelope(lines)))
        # a flat row of -0.0 and 0.0 keeps the sign of every vertex
        assert np.array_equal(_bits(got[0]), _bits([0.0] * 5))

    def test_subnormals(self, per_line_envelope, kernel):
        rng = np.random.default_rng(41)
        lines = np.ldexp(rng.uniform(-1.0, 2.0, size=(64, 11)), -1060)
        lines[rng.uniform(size=lines.shape) < 0.2] = BOTTOM
        lines[:8] = np.arange(11) * 5e-324          # collinear multiples of the least one
        lines[8:16] = (np.arange(11) % 3) * 5e-324
        got = envelope_batch(lines)
        assert np.array_equal(_bits(got), _bits(per_line_envelope(lines)))
        assert np.any((got != 0.0) & (np.abs(got) < np.finfo(np.float64).tiny))

    def test_values_near_the_float_limits(self, per_line_envelope, kernel):
        rng = np.random.default_rng(42)
        big = np.finfo(np.float64).max
        lines = rng.choice([big, -big, 1e308, -1e308, 0.9e308, 0.0, BOTTOM], size=(200, 7))
        with np.errstate(over="ignore", invalid="ignore"):
            want = per_line_envelope(lines)
        assert np.array_equal(_bits(envelope_batch(lines)), _bits(want))

    def test_boundary_rows(self, per_line_envelope, kernel):
        """The CASES rows in one padded batch, then each alone as a one-row
        batch of its own length."""
        lines = _case_rows()
        got = envelope_batch(lines)
        assert np.array_equal(_bits(got), _bits(per_line_envelope(lines)))
        # a row on which the chain never pops comes back bit for bit
        assert _unchanged(got, lines)[[never_pops for _, never_pops in CASES]].all()
        for row, never_pops in CASES:
            line = np.array([row])
            got = envelope_batch(line)
            assert np.array_equal(_bits(got), _bits(per_line_envelope(line))), row
            assert _unchanged(got, line)[0] or not never_pops, row

    def test_random_rows_with_special_cells(self, per_line_envelope, kernel):
        rng = np.random.default_rng(43)
        specials = np.array([BOTTOM, math.nan, math.inf, -0.0, 1e308, -1e308, 5e-324])
        for n in range(1, 20):
            lines = _mixed_rows(rng, 60, n)
            lines[20:30] = np.round(lines[20:30] * 2.0) / 2.0     # ties
            cells = rng.uniform(size=lines.shape) < 0.15
            lines[cells] = rng.choice(specials, size=int(cells.sum()))
            lines[30:40, : n // 3] = BOTTOM
            assert np.array_equal(_bits(envelope_batch(lines)),
                                  _bits(per_line_envelope(lines))), n

    def test_any_layout_and_dtype(self, kernel):
        rng = np.random.default_rng(44)
        block = rng.uniform(-1.0, 2.0, size=(11, 30))
        block[rng.uniform(size=block.shape) < 0.3] = BOTTOM
        want = envelope_batch(np.ascontiguousarray(block.T))
        assert np.array_equal(_bits(envelope_batch(block.T)), _bits(want))
        ints = rng.integers(-5, 5, size=(30, 11))
        assert np.array_equal(_bits(envelope_batch(ints)),
                              _bits(envelope_batch(ints.astype(np.float64))))

    def test_result_never_aliases_the_input(self, kernel):
        """The result is a new array.  A row on which the monotone chain
        never pops comes back in it bit for bit: every row of _concave_rows
        and some of _mixed_rows, but none of _convex_rows."""
        rng = np.random.default_rng(45)
        for rows, all_any in ((_concave_rows, (True, True)), (_convex_rows, (False, False)),
                              (_mixed_rows, (False, True))):
            for n in (3, 4, 11, 51):
                lines = rows(rng, 40, n)
                before = lines.copy()
                out = envelope_batch(lines)
                unchanged = _unchanged(out, lines)
                assert (unchanged.all(), unchanged.any()) == all_any, (rows.__name__, n)
                assert not np.shares_memory(out, lines), rows.__name__
                out[...] = 7.0
                assert np.array_equal(lines, before), rows.__name__

    def test_compiled_and_numpy_agree_on_sweep_batches(self, kernel, monkeypatch):
        # every batch of twelve min sweeps, on the other kernel too
        batches = []
        kernel_batch = lattice.envelope_batch

        def both(lines):
            out = kernel_batch(lines)
            batches.append((lines.copy(), out))
            return out

        monkeypatch.setattr(lattice, "envelope_batch", both)
        table = builtin_table("min", 3)
        lattice.run(GridSpec.from_delta(3, 0.1), table, t_max=12, eps=1e-300)
        assert batches
        monkeypatch.undo()
        if kernel == "compiled":
            monkeypatch.setattr(envelope, "_compiled_kernel", lambda: None)
        for lines, out in batches:
            assert np.array_equal(_bits(envelope_batch(lines)), _bits(out))


WRONG_DIVISION = ("y0 + (y1 - y0) * (double)(i - x0) / (double)(x1 - x0)",
                  "y0 + (y1 - y0) * (double)(i - x0) * (1.0 / (double)(x1 - x0))")


def _library():
    return envelope._recipe()[2]


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
        lines = _mixed_rows(np.random.default_rng(47), 8, 11)
        for _ in range(3):
            envelope_batch(lines)
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
        right, wrong = WRONG_DIVISION
        text = envelope._SOURCE.read_text()
        assert text.count(right) == 1
        source = tmp_path / "_envelope.c"
        source.write_text(text.replace(right, wrong))
        monkeypatch.setattr(envelope, "_SOURCE", source)
        assert envelope.kernel_name() == "numpy"
        assert _library().is_file()   # built and loaded, then refused

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
