"""The brute-force searcher is the envelope's independent witness; these
tests pin its own behavior before the two are compared in the acceptance
suite."""

import math

import numpy as np
import pytest

from conftest import grid_points
from ratered.envelope import BOTTOM
from ratered.errors import ConfigError
from ratered.oracle import (
    ConditionalSearchSpec,
    _feasible_chunks,
    compare_with_envelope,
    resolution_slack,
    single_message_reduction,
)
from ratered.probability import GridSpec, ProductPmf, product_entropy
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

    @pytest.mark.parametrize("name, p, k, steps, parts", [
        ("constant", (0.3, 0.6, 0.137), 3, 10, 3),
        ("constant", (0.3, 0.6, 0.71), 2, 5, 4),
        ("min", (0.0, 0.45, 0.3), 3, 10, 3),
        ("min", (1.0, 1.0, 0.5), 3, 50, 3),
        ("parity", (0.3, 0.0, 1.0), 1, 4, 3),
        ("constant", (0.2, 0.6, 0.3), 3, 4, 8),
        ("constant", (0.71, 0.6, 0.2), 1, 4, 9),
    ], ids=["constant-u3", "constant-u4", "min-u3", "min-step50", "parity-u3",
            "constant-u8", "constant-u9"])
    def test_every_pair_sum_bitwise(self, name, p, k, steps, parts, per_pair_chunks):
        # the maximum hides the summation order (many pairs tie at it), so
        # every pair of every chunk is compared
        f = builtin_table(name, 3)
        pmf = ProductPmf(p)
        spec = ConditionalSearchSpec(k=k, search_step=1 / steps, u1_cardinality=parts)
        got = list(_feasible_chunks(pmf, f, spec))
        want = list(per_pair_chunks(pmf, f, spec))
        assert len(got) == len(want) > 0
        for (total, feasible), (sums, ref_feasible) in zip(got, want):
            assert np.array_equal(total.view(np.uint64), sums.view(np.uint64))
            if feasible is None:
                assert ref_feasible.all()
            else:
                assert np.array_equal(ref_feasible, feasible)

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
