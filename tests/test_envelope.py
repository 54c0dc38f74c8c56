"""Unit tests for the per-line upper-concave-envelope kernel.

The heavyweight randomized property suite (1000 profiles, five properties)
lives in test_acceptance; this file keeps small targeted cases plus short
random loops for day-to-day debugging.
"""

import math
import tracemalloc

import numpy as np
import pytest

from ratered import envelope
from ratered.envelope import (
    BOTTOM,
    concavity_defects,
    concavity_violation,
    envelope_batch,
    is_concave,
    upper_concave_envelope,
)


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
            assert is_concave(out, tol=1e-12)


class TestBatch:
    def test_matches_per_line(self):
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

    def test_bitwise_equals_per_line_loop(self, per_line_envelope):
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


class TestSkipPass:
    """Rows that are already their own hull skip the kernel; output is the
    same bits either way."""

    # (row, whether the pre-pass returns it untouched)
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

    @pytest.mark.parametrize("row, skipped", CASES)
    def test_boundary_rows(self, per_line_envelope, row, skipped):
        lines = np.array([row])
        assert envelope._already_hulls(lines).tolist() == [skipped]
        got = envelope_batch(lines)
        want = per_line_envelope(lines)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        if skipped:
            assert np.array_equal(got.view(np.uint64), lines.view(np.uint64))

    def test_every_boundary_row_in_one_batch(self, per_line_envelope):
        n = max(len(row) for row, _ in self.CASES)
        lines = np.full((len(self.CASES), n), BOTTOM)
        for r, (row, _) in enumerate(self.CASES):
            lines[r, : len(row)] = row
        skipped = [s for _, s in self.CASES]
        assert envelope._already_hulls(lines).tolist() == skipped
        got = envelope_batch(lines)
        assert np.array_equal(got.view(np.uint64),
                              per_line_envelope(lines).view(np.uint64))

    @pytest.mark.parametrize("batch", ["all skipped", "none skipped", "mixed"])
    def test_batches_match_per_line_loop(self, per_line_envelope, batch):
        rng = np.random.default_rng(31)
        for n in [1, 2, 3, 4, 11, 51]:
            if batch == "all skipped":
                lines = _concave_rows(rng, 40, n)
            elif batch == "none skipped":
                lines = _convex_rows(rng, 40, n)
            else:
                lines = _mixed_rows(rng, 40, n)
            skip = envelope._already_hulls(lines)
            if n >= 3:
                assert skip.all() == (batch == "all skipped")
                assert skip.any() == (batch != "none skipped")
            got = envelope_batch(lines)
            assert np.array_equal(got.view(np.uint64),
                                  per_line_envelope(lines).view(np.uint64)), n

    def test_random_rows_with_special_cells(self, per_line_envelope):
        rng = np.random.default_rng(32)
        specials = np.array([BOTTOM, math.nan, math.inf, -0.0, 1e308, -1e308])
        for n in range(1, 16):
            lines = _mixed_rows(rng, 60, n)
            lines[20:30] = np.round(lines[20:30] * 2.0) / 2.0     # ties
            cells = rng.uniform(size=lines.shape) < 0.15
            lines[cells] = rng.choice(specials, size=int(cells.sum()))
            lines[30:40, : n // 3] = BOTTOM
            got = envelope_batch(lines)
            assert np.array_equal(got.view(np.uint64),
                                  per_line_envelope(lines).view(np.uint64)), n

    def test_skipped_rows_never_reach_the_hull_pass(self, monkeypatch):
        seen = []
        hull = envelope._hull_vertices

        def spy(v, ctype):
            seen.append(v.copy())
            return hull(v, ctype)

        monkeypatch.setattr(envelope, "_hull_vertices", spy)
        rng = np.random.default_rng(33)
        envelope_batch(_concave_rows(rng, 64, 11))
        assert seen == []

        lines = _mixed_rows(rng, 64, 11)
        skip = envelope._already_hulls(lines)
        assert 0 < skip.sum() < len(skip)
        envelope_batch(lines)
        assert len(seen) == 1
        assert np.array_equal(seen[0].view(np.uint64), lines[~skip].view(np.uint64))

    def test_peak_memory_per_point_on_a_mixed_batch(self):
        rng = np.random.default_rng(34)
        lines = _mixed_rows(rng, 5324, 11)
        assert 0.4 < envelope._already_hulls(lines).mean() < 0.6
        envelope_batch(lines)
        tracemalloc.start()
        try:
            envelope_batch(lines)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / lines.size < 40.0

    @pytest.mark.parametrize("batch", ["all skipped", "none skipped", "mixed"])
    def test_result_never_aliases_the_input(self, batch):
        rng = np.random.default_rng(35)
        lines = {
            "all skipped": _concave_rows(rng, 8, 11),
            "none skipped": _convex_rows(rng, 8, 11),
            "mixed": _mixed_rows(rng, 8, 11),
        }[batch]
        before = lines.copy()
        out = envelope_batch(lines)
        assert not np.shares_memory(out, lines)
        out[...] = 7.0
        assert np.array_equal(lines, before)


class TestConcavityChecks:
    def test_concave_passes(self):
        assert is_concave([0.0, 1.0, 1.5, 1.0, 0.0])

    def test_strict_violation_fails_and_is_located(self):
        v = [0.0, 1.0, 0.0, 2.0, 0.0]
        assert not is_concave(v)
        violation, where = concavity_violation(v)
        assert violation > 0
        assert where == 2

    def test_support_gap_fails(self):
        v = [1.0, BOTTOM, 1.0]
        assert not is_concave(v)
        violation, where = concavity_violation(v)
        assert violation == math.inf
        assert where == 1

    def test_trivial_lines_pass(self):
        assert is_concave([BOTTOM, BOTTOM])
        assert is_concave([BOTTOM, 3.0, BOTTOM])
        violation, where = concavity_violation([BOTTOM, 3.0, BOTTOM])
        assert violation == BOTTOM
        assert where == -1

    def test_tolerance_respected(self):
        v = [0.0, 0.5, 1.0 + 5e-10]   # tiny convex kink at the end
        assert is_concave(v, tol=1e-9)
        assert not is_concave(v, tol=1e-12)

    def test_overflow_to_nan_counts_as_infinite(self):
        # 1e308 + 1e308 - 2 * 1e308 is inf - inf = NaN at index 1
        v = [1e308, 1e308, 1e308, 10.0, 20.0]
        assert concavity_violation(v) == (math.inf, 1)
        assert not is_concave(v, tol=1e300)
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
                got, want = concavity_violation(line), per_line_concavity(line)
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
            assert concavity_violation(block[idx]) == per_line_concavity(block[idx])
