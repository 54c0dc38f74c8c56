"""The brute-force searcher is the envelope's independent witness; these
tests pin its own behavior before the two are compared in the acceptance
suite."""

import itertools
import math

import numpy as np
import pytest

from conftest import grid_points, per_pair_terms
from ratered import oracle
from ratered.envelope import BOTTOM
from ratered.errors import ConfigError
from ratered.oracle import (
    ConditionalSearchSpec,
    _feasible_chunks,
    compare_with_envelope,
    resolution_slack,
    single_message_reduction,
)
from ratered.probability import GridSpec, ProductPmf, binary_entropy, product_entropy
from ratered.target_functions import BUILTIN_NAMES, builtin_table
from test_lattice import SELECTOR3, SELECTOR4


class TestSearchSpec:
    def test_defaults(self):
        spec = ConditionalSearchSpec(k=3, search_step=0.05)
        assert spec.u1_cardinality == 3
        assert spec.n_search_steps == 20

    def test_rejects_non_reciprocal_step(self):
        with pytest.raises(ConfigError):
            ConditionalSearchSpec(k=1, search_step=0.3)

    def test_rejects_zero_cardinality(self):
        with pytest.raises(ConfigError):
            ConditionalSearchSpec(k=1, search_step=0.1, u1_cardinality=0)

    def test_step_messages(self):
        with pytest.raises(ConfigError,
                           match=r"^search_step 0\.3 is not the reciprocal of an integer$"):
            ConditionalSearchSpec(k=1, search_step=0.3)
        with pytest.raises(ConfigError,
                           match=r"^search_step must be in \(0, 1\], got 2\.0$"):
            ConditionalSearchSpec(k=1, search_step=2.0)
        assert ConditionalSearchSpec(k=1, search_step=0.04).n_search_steps == 25

    def test_rejects_search_too_large_to_build(self):
        # |U| = 8 at step 0.02 would list C(57, 7) conditional rows; the spec
        # refuses it from the row count alone
        with pytest.raises(ConfigError, match=(
                r"^u1_cardinality 8 at search_step 0\.02 needs 264,385,836 conditional "
                r"rows, 69,899,870,277,418,896 pairs and 970,825,052,493 bytes of tables "
                r"per point, over the 268,435,456-byte limit$")):
            ConditionalSearchSpec(k=1, search_step=0.02, u1_cardinality=8)
        with pytest.raises(ConfigError, match=r"316,251 conditional rows"):
            ConditionalSearchSpec(k=1, search_step=0.02, u1_cardinality=5)
        # one row, but an entry table of 10,001 x 10,001 cells
        with pytest.raises(ConfigError, match=r"needs 1 conditional rows, 1 pairs and "
                                              r"10,102,110,110 bytes"):
            ConditionalSearchSpec(k=1, search_step=1e-4, u1_cardinality=1)

    def test_table_bound_is_inclusive(self, monkeypatch):
        # step 0.02, |U| = 4: 23,426 rows, 9 bytes for each of 4 * 51 * 23,426
        # search-table and 101 for each of 51 * 51 entry-table cells
        table_bytes = 9 * 4 * 51 * math.comb(53, 3) + 101 * 51 * 51
        monkeypatch.setattr(oracle, "_TABLE_BYTES", table_bytes)
        ConditionalSearchSpec(k=1, search_step=0.02, u1_cardinality=4)
        monkeypatch.setattr(oracle, "_TABLE_BYTES", table_bytes - 1)
        with pytest.raises(ConfigError, match=r"23,426 conditional rows"):
            ConditionalSearchSpec(k=1, search_step=0.02, u1_cardinality=4)

    def test_rejects_bad_step_range(self):
        with pytest.raises(ConfigError):
            ConditionalSearchSpec(k=1, search_step=0.0)
        with pytest.raises(ConfigError):
            ConditionalSearchSpec(k=1, search_step=2.0)


class TestSingleMessageValues:
    def test_revealing_line_attains_zero(self, min3):
        spec = ConditionalSearchSpec(k=3, search_step=0.05)
        value = single_message_reduction(ProductPmf((1.0, 1.0, 0.5)), min3, spec)
        assert value == 0.0

    def test_center_is_infeasible(self, min3):
        spec = ConditionalSearchSpec(k=3, search_step=0.05)
        assert single_message_reduction(
            ProductPmf((0.5, 0.5, 0.5)), min3, spec
        ) == BOTTOM

    def test_constant_function_attains_full_entropy(self):
        f = builtin_table("constant", 3)
        spec = ConditionalSearchSpec(k=2, search_step=0.1)
        rng = np.random.default_rng(23)
        for _ in range(6):
            p = ProductPmf(tuple(rng.integers(0, 11, size=3) / 10))
            value = single_message_reduction(p, f, spec)
            assert value == pytest.approx(product_entropy(p), abs=1e-12)

    @pytest.mark.parametrize("pk", [1 - 2**-53, 1 - 2**-50], ids=["1-2^-53", "1-2^-50"])
    def test_finite_when_posterior_rounds_to_one(self, pk):
        # some posteriors round to exactly 1 here; h must read 0 there, not
        # 0 * log2(0) = NaN, which would make every pair lose the maximum
        value = single_message_reduction(
            ProductPmf((0.0, 0.0, pk)), builtin_table("constant", 3),
            ConditionalSearchSpec(k=3, search_step=0.02),
        )
        assert 0.0 <= value <= 1e-13

    def test_null_message_covers_zero_message_points(self, min3):
        # wherever no communication is needed at all, the search must find
        # at least the full joint entropy (and no more, by data processing)
        spec = ConditionalSearchSpec(k=3, search_step=0.1)
        for p in [(0.0, 0.7, 0.3), (0.4, 0.0, 1.0), (1.0, 1.0, 1.0)]:
            pmf = ProductPmf(p)
            value = single_message_reduction(pmf, min3, spec)
            assert value == pytest.approx(product_entropy(pmf), abs=1e-9)

    def test_monotone_in_auxiliary_cardinality(self, min3):
        values = [
            single_message_reduction(
                ProductPmf((1.0, 1.0, 0.4)),
                min3,
                ConditionalSearchSpec(k=3, search_step=0.1, u1_cardinality=c),
            )
            for c in (1, 2, 3, 4)
        ]
        assert values[0] == BOTTOM          # a silent node cannot help here
        assert values[1] == values[2] == values[3] == 0.0
        for lo, hi in zip(values, values[1:]):
            assert lo <= hi + 1e-12

    def test_dominated_by_joint_entropy(self, min3):
        spec = ConditionalSearchSpec(k=3, search_step=0.1)
        rng = np.random.default_rng(29)
        for _ in range(10):
            pmf = ProductPmf(tuple(rng.integers(0, 11, size=3) / 10))
            value = single_message_reduction(pmf, min3, spec)
            assert value <= product_entropy(pmf) + 1e-9

    def test_arity_mismatch(self, min3):
        spec = ConditionalSearchSpec(k=1, search_step=0.5)
        with pytest.raises(ValueError):
            single_message_reduction(ProductPmf((0.5, 0.5)), min3, spec)

    def test_node_out_of_range(self, min3):
        spec = ConditionalSearchSpec(k=4, search_step=0.5)
        with pytest.raises(ValueError):
            single_message_reduction(ProductPmf((0.5, 0.5, 0.5)), min3, spec)


def _same_bits(per_pair_oracle, pmf, f, spec):
    new = single_message_reduction(pmf, f, spec)
    ref = per_pair_oracle(pmf, f, spec)
    assert np.float64(new).view(np.uint64) == np.float64(ref).view(np.uint64), (
        pmf, spec, new, ref)
    return new


def _whole_matrix(chunks, n_rows):
    """Pair sums and feasibility of (first given0 row, sums, feasibility)
    slices, concatenated into given0 x given1 matrices; also which given0
    rows some slice holds and the longest slice."""
    sums = np.zeros((n_rows, n_rows))
    feasible = np.zeros((n_rows, n_rows), dtype=bool)
    covered = np.zeros(n_rows, dtype=bool)
    longest = 0
    for lo, total, ok in chunks:
        hi = lo + total.shape[0]
        assert total.shape == (hi - lo, n_rows) and not covered[lo:hi].any()
        covered[lo:hi] = True
        sums[lo:hi] = total
        feasible[lo:hi] = True if ok is None else ok
        longest = max(longest, hi - lo)
    return sums, feasible, covered, longest


def _mirror(rows):
    """For each conditional row, the index of the row with its entries 0
    and 1 swapped."""
    index = {tuple(row): i for i, row in enumerate(rows.tolist())}
    return np.array([index[(b, a, *rest)] for a, b, *rest in rows.tolist()])


class TestAgainstPerPairSearch:
    """The table-driven search returns the per-pair reference's bits."""

    # (search steps, u1_cardinality); the coarse-grid test cycles through them
    SPECS = [(4, 1), (4, 2), (4, 3), (4, 4), (10, 1), (10, 2), (10, 3)]

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_every_point_of_a_coarse_grid(self, name, per_pair_oracle):
        f = builtin_table(name, 3)
        grid = GridSpec.from_delta(3, 0.25)
        for i, (_index, pmf) in enumerate(grid_points(grid)):
            for k in (1, 2, 3):
                steps, parts = self.SPECS[(3 * i + k) % len(self.SPECS)]
                spec = ConditionalSearchSpec(k=k, search_step=1 / steps,
                                             u1_cardinality=parts)
                _same_bits(per_pair_oracle, pmf, f, spec)

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_four_message_values_at_step_tenth(self, name, per_pair_oracle):
        f = builtin_table(name, 3)
        for p in [(0.25, 0.5, 0.75), (1.0, 0.25, 0.5)]:
            for k in (1, 2, 3):
                spec = ConditionalSearchSpec(k=k, search_step=0.1, u1_cardinality=4)
                _same_bits(per_pair_oracle, ProductPmf(p), f, spec)

    @pytest.mark.parametrize("f, points", [
        (builtin_table("min", 2), [(0.3, 0.7), (0.0, 0.45), (0.8, 1.0)]),
        (builtin_table("parity", 2), [(0.3, 0.7), (0.5, 0.5)]),
        (builtin_table("min", 4), [(0.3, 0.6, 0.1, 0.8), (1.0, 1.0, 1.0, 0.35)]),
        (builtin_table("or", 4), [(0.0, 0.2, 0.9, 0.55)]),
        (SELECTOR3, [(0.3, 0.6, 0.1), (1.0, 0.4, 0.7), (0.0, 0.4, 0.7)]),
        (SELECTOR4, [(0.3, 0.6, 0.1, 0.8), (1.0, 1.0, 0.2, 0.6)]),
    ], ids=["min-m2", "parity-m2", "min-m4", "or-m4", "selector-m3", "selector-m4"])
    def test_spot_points(self, f, points, per_pair_oracle):
        for p in points:
            for k in range(1, f.m + 1):
                for steps, parts in [(10, 3), (5, 4), (2, 6), (3, 8)]:
                    spec = ConditionalSearchSpec(k=k, search_step=1 / steps,
                                                 u1_cardinality=parts)
                    _same_bits(per_pair_oracle, ProductPmf(p), f, spec)

    @pytest.mark.parametrize("name, p, k, steps, parts, temp_floats", [
        ("constant", (0.3, 0.6, 0.137), 3, 10, 3, None),
        ("constant", (0.3, 0.6, 0.71), 2, 5, 4, None),
        ("min", (0.0, 0.45, 0.3), 3, 10, 3, None),
        ("min", (1.0, 1.0, 0.5), 3, 50, 3, None),
        ("parity", (0.3, 0.0, 1.0), 1, 4, 3, None),
        ("constant", (0.2, 0.6, 0.3), 3, 4, 8, None),
        ("constant", (0.71, 0.6, 0.2), 1, 4, 9, None),
        ("constant", (0.3, 0.6, 0.71), 2, 10, 1, None),
        ("min", (1.0, 1.0, 0.5), 3, 10, 2, None),
        ("min", (0.0, 0.45, 0.3), 3, 10, 3, 100),
        ("min", (1.0, 1.0, 0.5), 3, 10, 4, 300),
        ("constant", (0.2, 0.6, 0.3), 3, 4, 8, 100),
        ("constant", (0.3, 0.6, 0.71), 2, 4, 5, None),
        ("min", (1.0, 1.0, 0.5), 3, 3, 7, None),
        ("constant", (0.3, 0.6, 0.71), 2, 4, 2, None),
        ("constant", (0.2, 0.6, 0.3), 3, 2, 16, None),
    ], ids=["constant-u3", "constant-u4", "min-u3", "min-step50", "parity-u3",
            "constant-u8", "constant-u9", "constant-u1", "min-u2", "min-u3-split",
            "min-u4-split", "constant-u8-split", "constant-u5", "min-u7", "constant-u2",
            "constant-u16"])
    def test_every_pair_sum_bitwise(self, name, p, k, steps, parts, temp_floats,
                                    per_pair_chunks, monkeypatch):
        # the maximum hides the summation order and a skipped row (dead
        # message values make many pairs tie at it), so the sum and the
        # feasibility of every pair are compared; a smaller temporary bound
        # cuts the search into more, shorter slices
        if temp_floats is not None:
            monkeypatch.setattr(oracle, "_TEMP_FLOATS", temp_floats)
        f = builtin_table(name, 3)
        pmf = ProductPmf(p)
        spec = ConditionalSearchSpec(k=k, search_step=1 / steps, u1_cardinality=parts)
        n_rows = math.comb(steps + parts - 1, parts - 1)
        got, got_feasible, covered, longest = _whole_matrix(
            _feasible_chunks(pmf, f, spec), n_rows)
        want, want_feasible, _, _ = _whole_matrix(
            per_pair_chunks(pmf, f, spec, every_chunk=True), n_rows)
        assert covered.any()
        assert np.array_equal(got_feasible[covered], want_feasible[covered])
        assert np.array_equal(got[covered].view(np.uint64), want[covered].view(np.uint64))
        # a row is left for its mirror, the pair with entries 0 and 1 of both
        # rows swapped, when its entry 0 is the greater: same bits and
        # feasibility, since a left fold's first addition commutes
        if parts >= 2:
            rows = oracle._stochastic_rows(steps, parts)
            assert (rows[covered, 0] <= rows[covered, 1]).all()
            mirror = _mirror(rows)
            assert np.array_equal(want[mirror][:, mirror].view(np.uint64),
                                  want.view(np.uint64))
            assert np.array_equal(want_feasible[mirror][:, mirror], want_feasible)
            covered |= covered[mirror]
        # a row is left out (with its mirror) only when none of its pairs is feasible
        assert covered[want_feasible.any(axis=1)].all()
        if temp_floats is not None:
            assert longest <= temp_floats // n_rows + 1 < steps + 1

    @pytest.mark.parametrize("parts, steps", [(1, 10), (2, 10), (3, 10), (4, 5), (5, 4),
                                              (6, 4), (7, 3)])
    def test_reference_fold_is_np_sum_below_eight_values(self, parts, steps,
                                                         per_pair_chunks):
        # np.sum along a last axis shorter than eight is a left fold, so the
        # reference's fold leaves its pair sums where they were at these |U|
        spec = ConditionalSearchSpec(k=2, search_step=1 / steps, u1_cardinality=parts)
        for name, p in [("constant", (0.3, 0.6, 0.71)), ("min", (0.0, 0.45, 0.3)),
                        ("parity", (0.2, 0.137, 0.9))]:
            f, pmf = builtin_table(name, 3), ProductPmf(p)
            for (_, terms, _), (_, folded, _) in zip(
                    per_pair_terms(pmf, f, spec, every_chunk=True),
                    per_pair_chunks(pmf, f, spec, every_chunk=True), strict=True):
                assert np.array_equal(np.sum(terms, axis=-1).view(np.uint64),
                                      folded.view(np.uint64))

    @pytest.mark.parametrize("name, index, feasible", [
        ("min", (5, 5, 5), False),
        ("min", (10, 10, 5), True),
        ("constant", (4, 6, 2), True),
    ], ids=["infeasible", "p1-p2-one", "constant"])
    def test_benchmark_resolution(self, name, index, feasible, per_pair_oracle):
        pmf = GridSpec.from_delta(3, 0.1).pmf_at(index)
        spec = ConditionalSearchSpec(k=3, search_step=0.02, u1_cardinality=3)
        value = _same_bits(per_pair_oracle, pmf, builtin_table(name, 3), spec)
        assert (value != BOTTOM) == feasible


def _closed_form(pmf, f, k, parts):
    """What the search must return, from the supports alone: BOTTOM when no
    pair of rows is feasible; base (every feasible pair sums to exactly 0)
    when some message value can be inadmissible; else base plus the
    largest pair sum, h(p_k) up to rounding.  As (kind, base, p_k)."""
    supports = [pmf.support(j) for j in range(f.m)]

    def constant(sk):
        points = itertools.product(*supports[: k - 1], sk, *supports[k:])
        return len({f(x) for x in points}) == 1

    ok0, ok1, ok01 = constant((0,)), constant((1,)), constant((0, 1))
    pk = pmf[k - 1]
    base = 0.0
    for j in range(f.m):
        if j != k - 1:
            base += binary_entropy(pmf[j])
    if ok01 or (pk == 0.0 and ok0) or (pk == 1.0 and ok1):
        return "every entry admissible", base, pk
    # with 0 < p_k < 1 a feasible pair puts given0 and given1 on disjoint
    # message values, those of given0 needing ok0 and those of given1 ok1
    if 0.0 < pk < 1.0 and ok0 and ok1 and parts >= 2:
        return "base", base, pk
    return "bottom", base, pk


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_closed_form_cross_check(name):
    # every (point, node) of the delta = 0.25 grid under one of four specs,
    # cycled, reaching the benchmark's step 0.02 where the per-pair
    # reference is too slow for more than a few points
    f = builtin_table(name, 3)
    specs = [(50, 3), (4, 1), (10, 2), (5, 4)]
    seen = set()
    for i, (_index, pmf) in enumerate(grid_points(GridSpec.from_delta(3, 0.25))):
        for k in (1, 2, 3):
            steps, parts = specs[(3 * i + k) % len(specs)]
            spec = ConditionalSearchSpec(k=k, search_step=1 / steps, u1_cardinality=parts)
            value = single_message_reduction(pmf, f, spec)
            kind, base, pk = _closed_form(pmf, f, k, parts)
            seen.add(kind)
            if kind == "bottom":
                assert value == BOTTOM, (pmf, k, spec)
            elif kind == "base":
                assert value == base, (pmf, k, spec)
            else:
                low = base + binary_entropy(pk)
                assert low <= value <= np.nextafter(low, np.inf), (pmf, k, spec, value, low)
    assert "every entry admissible" in seen


class TestCompareWithEnvelope:
    def test_contract_on_mixed_points(self, min3):
        grid = GridSpec.from_delta(3, 0.1)
        points = ((10, 10, 5), (5, 5, 5), (0, 3, 7), (2, 9, 0), (10, 10, 10))
        spec = ConditionalSearchSpec(k=3, search_step=0.05)
        report = compare_with_envelope(grid, min3, points, spec)
        assert report.within_contract
        for row in report.rows:
            assert row.feasibility_agrees
            assert -1e-9 <= row.gap <= report.slack

    def test_both_bottom_gap_is_zero(self, min3):
        grid = GridSpec.from_delta(3, 0.1)
        spec = ConditionalSearchSpec(k=3, search_step=0.1)
        report = compare_with_envelope(grid, min3, ((5, 5, 5),), spec)
        row = report.rows[0]
        assert not row.envelope_feasible and not row.oracle_feasible
        assert row.gap == 0.0

    @pytest.mark.parametrize("point, oracle_value, want", [
        ((0, 0, 0), BOTTOM, math.inf),     # only the envelope is feasible
        ((5, 5, 5), 1.0, -math.inf),       # only the oracle is feasible
    ], ids=["envelope-only", "oracle-only"])
    def test_feasibility_mismatch_gap_is_infinite(self, min3, monkeypatch, point,
                                                  oracle_value, want):
        monkeypatch.setattr(oracle, "single_message_reduction",
                            lambda *args: oracle_value)
        grid = GridSpec.from_delta(3, 0.1)
        spec = ConditionalSearchSpec(k=3, search_step=0.1)
        report = compare_with_envelope(grid, min3, (point,), spec)
        (row,) = report.rows
        assert row.envelope_feasible != row.oracle_feasible
        assert row.gap == want
        assert report.worst_gap == want
        assert not report.within_contract

    def test_constant_function_gaps_zero(self):
        f = builtin_table("constant", 3)
        grid = GridSpec.from_delta(3, 0.2)
        spec = ConditionalSearchSpec(k=1, search_step=0.2)
        points = ((0, 0, 0), (1, 2, 3), (5, 5, 5))
        report = compare_with_envelope(grid, f, points, spec)
        for row in report.rows:
            assert row.gap == pytest.approx(0.0, abs=1e-12)

    def test_point_off_grid_rejected(self, min3):
        grid = GridSpec.from_delta(3, 0.1)
        spec = ConditionalSearchSpec(k=3, search_step=0.1)
        with pytest.raises(ValueError):
            compare_with_envelope(grid, min3, ((0, 0, 11),), spec)

    def test_report_serializes(self, min3):
        grid = GridSpec.from_delta(3, 0.2)
        spec = ConditionalSearchSpec(k=3, search_step=0.2)
        report = compare_with_envelope(grid, min3, ((5, 5, 5), (0, 0, 0)), spec)
        payload = report.to_dict()
        # the key order of oracle_report.json
        assert list(payload) == ["k", "search_step", "u1_cardinality", "slack",
                                 "worst_gap", "within_contract", "rows"]
        assert list(payload["rows"][0]) == ["point", "envelope_value", "oracle_value",
                                            "gap", "envelope_feasible", "oracle_feasible"]
        assert payload["k"] == 3
        assert len(payload["rows"]) == 2
        assert payload["slack"] == resolution_slack(0.2, 3)


def test_resolution_slack_decreases_with_step():
    assert resolution_slack(0.01, 3) < resolution_slack(0.1, 3)
    assert resolution_slack(0.02, 3) > 0.0
