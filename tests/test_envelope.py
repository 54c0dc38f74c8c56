"""Unit tests for the per-line upper-concave-envelope kernel.

The heavyweight randomized property suite (1000 profiles, five properties)
lives in test_acceptance; this file keeps small targeted cases plus short
random loops for day-to-day debugging.
"""

import math

import numpy as np
import pytest

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

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            envelope_batch(np.zeros(5))

    def test_bitwise_equals_per_line_loop(self, per_line_envelope):
        rng = np.random.default_rng(10)
        for n in range(1, 61):
            lines = rng.uniform(-1.0, 2.0, size=(48, n))
            lines[8:16] = np.round(lines[8:16] * 4.0) / 4.0   # exactly collinear ties
            lines[rng.uniform(size=lines.shape) < rng.uniform(0.0, 0.8)] = BOTTOM
            lines[16:24, : n // 2] = BOTTOM                    # gapped / one-sided rows
            lines[24] = BOTTOM                                 # all BOTTOM
            lines[25] = BOTTOM
            lines[25, n // 2] = 0.75                           # one finite point
            got = envelope_batch(lines)
            want = per_line_envelope(lines)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), n


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
