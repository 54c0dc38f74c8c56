import dataclasses
import itertools
import math

import numpy as np
import pytest

from ratered import envelope
from ratered.certify import (
    _numpy_family_check,
    assess_optimality,
    check_membership,
    field_digest,
    lower_bound_from,
)
from ratered.envelope import BOTTOM
from ratered.errors import NotCertifiedError
from ratered.lattice import RateReductionField, initial_field, run, sweeps, zero_message_mask
from ratered.probability import GridSpec, ProductPmf, entropy_grid
from ratered.target_functions import BUILTIN_NAMES, FunctionTable, builtin_table

TOLS = (0.0, 1e-9, 1e-4, math.inf)
# x1 ? x2 : x3, which no cyclic shift of the inputs leaves unchanged
SELECTOR3 = FunctionTable(
    m=3,
    output_alphabet=(0, 1),
    table={x: x[1] if x[0] else x[2] for x in itertools.product((0, 1), repeat=3)},
)


def _bits(report):
    """Every report field, floats as their uint64 bit patterns."""
    return tuple(
        int(np.float64(v).view(np.uint64)) if isinstance(v, float) else v
        for v in dataclasses.astuple(report)
    )


@pytest.fixture(scope="module")
def grid05():
    return GridSpec.from_delta(3, 0.05)


@pytest.fixture(scope="module")
def entropy_field(grid05):
    return RateReductionField(grid05, entropy_grid(grid05))


class TestCheckMembership:
    def test_entropy_field_passes(self, entropy_field, min3):
        report = check_membership(entropy_field, min3, 1e-9)
        assert report.passed
        assert report.verdict == "pass"
        assert report.majorization_ok
        assert all(report.concavity_ok_per_axis)
        # the field IS the entropy, so the worst floor gap is exactly zero
        assert report.worst_majorization_gap == 0.0

    def test_zero_message_field_fails_on_support_gap(self, grid05, min3):
        """Lines through two point-mass marginals hit the zero-message set
        only at the ends, so the finite support has a hole in the middle."""
        report = check_membership(initial_field(grid05, min3), min3, 1e-9)
        assert not report.passed
        assert report.majorization_ok          # it equals the entropy on the set
        assert not any(report.concavity_ok_per_axis)
        assert report.worst_concavity_violation == math.inf
        assert report.concavity_location is not None

    def test_converged_max_field_passes(self, converged_run, min3):
        field = converged_run.bank.max_field()
        report = check_membership(field, min3, 1e-4)
        assert report.passed

    def test_last_swept_axis_is_exactly_concave(self, converged_run, min3):
        # field k was produced by an envelope along axis k: exact concavity
        # there; other axes only settle to within the convergence tolerance
        for k in (1, 2, 3):
            field = converged_run.bank.field_for(k)
            report = check_membership(field, min3, 1e-9)
            assert report.concavity_ok_per_axis[k - 1]

    def test_report_embeds_resolution(self, entropy_field, min3):
        report = check_membership(entropy_field, min3, 1e-6)
        assert report.tol == 1e-6
        assert report.delta == entropy_field.grid.delta
        assert report.m == 3
        assert report.n_steps == 20
        payload = report.to_dict()
        assert payload["verdict"] == "pass"
        assert payload["delta"] == 0.05

    def test_corruption_detected_and_located(self, converged_run, min3):
        data = converged_run.bank.max_data().copy()
        data[4, 9, 12] += 0.5
        bad = RateReductionField(converged_run.bank.grid, data)
        report = check_membership(bad, min3, 1e-4)
        assert not report.passed
        assert report.worst_concavity_violation >= 0.25
        loc = report.concavity_location
        assert max(abs(a - b) for a, b in zip(loc, (4, 9, 12))) <= 1

    def test_dip_violates_floor(self, grid05, min3):
        # push a zero-message-set point below the entropy: majorization fails
        h = entropy_grid(grid05)
        data = h.copy()
        data[0, 10, 10] -= 0.01
        report = check_membership(RateReductionField(grid05, data), min3, 1e-4)
        assert not report.majorization_ok
        assert report.majorization_location == (0, 10, 10)
        assert report.worst_majorization_gap == pytest.approx(0.01, abs=1e-12)

    def test_min_with_entropy_stays_in_family(self, converged_run, min3):
        """Clipping any member at the entropy ceiling keeps it a member:
        both pieces are concave along each axis and the floor is untouched."""
        grid = converged_run.bank.grid
        h = entropy_grid(grid)
        rng = np.random.default_rng(17)
        base = converged_run.bank.max_data()
        for _ in range(5):
            lifted = base + rng.uniform(0.0, 0.5)     # constant lift: still a member
            assert check_membership(
                RateReductionField(grid, lifted), min3, 1e-4
            ).passed
            clipped = np.minimum(lifted, h)
            assert check_membership(
                RateReductionField(grid, clipped), min3, 1e-4
            ).passed

    def test_tol_validation(self, entropy_field, min3):
        with pytest.raises(ValueError):
            check_membership(entropy_field, min3, -1.0)

    def test_arity_mismatch(self, entropy_field):
        with pytest.raises(ValueError):
            check_membership(entropy_field, builtin_table("min", 2), 1e-6)


class TestWholeArrayKernel:
    """check_membership against the per-line loop it replaced, bit for bit,
    on the compiled family check, envelope.compiled_family_check, which
    loads wherever the C compiler is on PATH.  TestWholeArrayKernelOnNumpy
    runs every test again on certify._numpy_family_check, the one a host
    without a compiler runs."""

    @pytest.fixture(autouse=True)
    def family_check(self, compiler):
        check = envelope.compiled_family_check()
        if check is None:
            pytest.fail(f"{compiler} is on PATH but the compiled family check did not load")
        return check

    @pytest.mark.parametrize("f, delta", [
        *[(builtin_table(n, m), d) for m, d in ((2, 0.1), (3, 0.1), (4, 0.25))
          for n in BUILTIN_NAMES],
        (SELECTOR3, 0.1),
    ], ids=[f"{n}-m{m}" for m in (2, 3, 4) for n in BUILTIN_NAMES] + ["selector-m3"])
    def test_history_fields_match_per_line_loop(self, f, delta, per_line_membership):
        grid = GridSpec.from_delta(f.m, delta)
        for bank, _ in sweeps(grid, f, 4, 1e-12):
            for field in (*bank.node_fields(), bank.max_field()):
                for tol in TOLS:
                    got = check_membership(field, f, tol)
                    assert _bits(got) == _bits(per_line_membership(field, f, tol))

    @pytest.mark.parametrize("tol", TOLS)
    def test_initial_fields_with_gaps_match(self, tol, per_line_membership):
        for f in (builtin_table("min", 3), builtin_table("parity", 3), SELECTOR3):
            field = initial_field(GridSpec.from_delta(3, 0.1), f)
            got = check_membership(field, f, tol)
            assert got.worst_concavity_violation == math.inf
            assert _bits(got) == _bits(per_line_membership(field, f, tol))

    @pytest.mark.parametrize("tol", TOLS)
    @pytest.mark.parametrize("m, n_steps", [(2, 9), (3, 6), (4, 4)])
    def test_random_fields_match(self, m, n_steps, tol, per_line_membership):
        grid = GridSpec(m, n_steps)
        f = builtin_table("constant", m)
        rng = np.random.default_rng(100 * m + n_steps)
        for trial in range(12):
            data = rng.normal(size=grid.shape)
            if trial % 3 == 1:
                data = np.round(data * 4.0) / 4.0              # exact ties
            data[rng.uniform(size=grid.shape) < rng.uniform(0.0, 0.6)] = BOTTOM
            lines = data.reshape(-1, grid.points_per_axis)
            lines[0] = BOTTOM                                  # all BOTTOM
            lines[1, :] = BOTTOM
            lines[1, 2] = 1.5                                  # one finite point
            lines[2, :] = BOTTOM
            lines[2, 3:5] = 0.25                               # two finite points
            field = RateReductionField(grid, data)
            got = check_membership(field, f, tol)
            assert _bits(got) == _bits(per_line_membership(field, f, tol))

    def test_overflow_to_nan_is_a_violation(self):
        """Rows [1e308]*3 + [10, 20]: the first interior second difference is
        inf - inf = NaN, which once hid the whole row (and its 1e308 defect
        at index 3) behind a pass.  The constant 1e308 columns overflow the
        same way, so axis 1 fails first and keeps the worst location."""
        grid = GridSpec(2, 4)
        data = np.tile([1e308, 1e308, 1e308, 10.0, 20.0], (5, 1))
        report = check_membership(
            RateReductionField(grid, data), builtin_table("constant", 2), 1e-4
        )
        assert report.majorization_ok
        assert report.concavity_ok_per_axis == (False, False)
        assert report.worst_concavity_violation == math.inf
        assert (report.concavity_axis, report.concavity_location) == (1, (1, 0))

    def test_rotated_views_match(self, min3, per_line_membership):
        """min's bank stores one field and hands out nodes 2 and 3 as
        rotated views, which the compiled check reads in place."""
        grid = GridSpec.from_delta(3, 0.1)
        bank = run(grid, min3, t_max=3, eps=1e-300).bank
        assert bank.period == 1
        for k in (2, 3):
            field = bank.field_for(k)
            assert not field.data.flags.c_contiguous
            for tol in TOLS:
                got = check_membership(field, min3, tol)
                assert _bits(got) == _bits(per_line_membership(field, min3, tol))

    @pytest.mark.parametrize("seed", range(3))
    def test_infinite_and_nan_entries_match(self, seed, min3, per_line_membership):
        """+inf and NaN are holes like BOTTOM, and the floor gap is +inf at
        each of them on the zero-message set."""
        grid = GridSpec(3, 6)
        rng = np.random.default_rng(seed)
        h = entropy_grid(grid)
        for trial in range(6):
            data = h - rng.uniform(-0.1, 0.3, size=grid.shape)
            if trial % 2:
                data = np.round(data * 4.0) / 4.0              # exact ties
            cells = rng.uniform(size=grid.shape) < rng.uniform(0.02, 0.3)
            data[cells] = rng.choice([BOTTOM, math.inf, math.nan], size=int(cells.sum()))
            field = RateReductionField(grid, data)
            for tol in TOLS:
                got = check_membership(field, min3, tol)
                assert _bits(got) == _bits(per_line_membership(field, min3, tol))

    def test_zero_defect_ties_take_the_first_location(self, min3, per_line_membership):
        """An affine field has the defect 0.0 at every interior index of every
        axis: the first axis keeps it, at the first index of its moved C
        order, its first line's index 1."""
        grid = GridSpec(3, 6)
        i = np.arange(7.0)
        data = np.add.outer(np.add.outer(i, 2.0 * i), 3.0 * i)
        report = check_membership(RateReductionField(grid, data), min3, 0.0)
        assert report.concavity_ok_per_axis == (True, True, True)
        assert (report.worst_concavity_violation, report.concavity_axis,
                report.concavity_location) == (0.0, 1, (1, 0, 0))
        want = per_line_membership(RateReductionField(grid, data), min3, 0.0)
        assert _bits(report) == _bits(want)

    def test_floor_ties_take_the_first_location(self, min3, per_line_membership):
        """The zero field's floor gap is h itself, whose largest value on the
        zero-message set, 2 bits, is reached at several points: the first in
        C order is reported."""
        grid = GridSpec(3, 6)
        field = RateReductionField(grid, np.zeros(grid.shape))
        h, mask = entropy_grid(grid), zero_message_mask(grid, min3)
        ties = np.argwhere(mask & (h == h[mask].max()))
        assert len(ties) > 1
        report = check_membership(field, min3, 1e-9)
        assert report.majorization_location == tuple(int(c) for c in ties[0])
        assert _bits(report) == _bits(per_line_membership(field, min3, 1e-9))

    @pytest.mark.parametrize("shape", [(13,), (4, 4, 4, 4)], ids=["m1", "m4"])
    def test_one_and_four_axes(self, family_check, per_line_concavity, shape):
        """The family check's own contract, which no grid bounds below two
        axes, against per_line_concavity line by line and the floor gap's
        first argmax."""
        rng = np.random.default_rng(len(shape))
        n = shape[-1]
        for trial in range(10):
            data = np.round(rng.normal(size=shape) * 4.0) / 4.0
            cells = rng.uniform(size=shape) < 0.1 * (trial % 3)
            data[cells] = rng.choice([BOTTOM, math.inf, math.nan, 1e308], size=int(cells.sum()))
            h = rng.normal(size=shape)
            mask = rng.uniform(size=shape) < 0.5
            mask.flat[-1] = True
            want = []
            for ax in range(len(shape)):
                best, at = BOTTOM, 0
                for r, line in enumerate(np.moveaxis(data, ax, -1).reshape(-1, n)):
                    violation, index = per_line_concavity(line)
                    if violation > best:
                        best, at = violation, r * n + index
                want.append((best, at))
            rho = data[mask]
            gaps = np.where(np.isfinite(rho), h[mask] - rho, np.inf)
            j = int(np.argmax(gaps))
            want.append((float(gaps[j]), int(np.flatnonzero(mask)[j])))
            axes, floor = family_check(data, h, mask)
            got = [*axes, floor]
            assert [(np.float64(v).tobytes(), at) for v, at in got] \
                == [(np.float64(v).tobytes(), at) for v, at in want]


class TestWholeArrayKernelOnNumpy(TestWholeArrayKernel):
    """Every family-check test again on certify._numpy_family_check."""

    @pytest.fixture(autouse=True)
    def family_check(self, numpy_kernel):
        assert envelope.compiled_family_check() is None
        return _numpy_family_check


class TestLowerBound:
    def test_entropy_field_gives_zero_everywhere(self, entropy_field, min3):
        report = check_membership(entropy_field, min3, 1e-9)
        for p in [(0.0, 0.0, 0.0), (0.5, 0.5, 0.5), (0.25, 1.0, 0.1)]:
            assert lower_bound_from(entropy_field, ProductPmf(p), report) == 0.0

    def test_center_bound_exceeds_output_entropy(self, converged_run, min3):
        # at the uniform center the sink must at least learn the function
        # value, a Bernoulli(1/8) bit: bound >= h2(1/8) up to tol
        field = converged_run.bank.max_field()
        report = check_membership(field, min3, 1e-4)
        bound = lower_bound_from(field, ProductPmf((0.5, 0.5, 0.5)), report)
        h_output = -(0.125 * math.log2(0.125) + 0.875 * math.log2(0.875))
        assert bound >= h_output - 1e-4
        assert bound < 3.0

    def test_uncertified_field_is_rejected(self, grid05, min3):
        field = initial_field(grid05, min3)
        report = check_membership(field, min3, 1e-9)
        assert not report.passed
        with pytest.raises(NotCertifiedError):
            lower_bound_from(field, ProductPmf((0.5, 0.5, 0.5)), report)

    def test_report_grid_mismatch_is_rejected(self, entropy_field, min3):
        small = GridSpec.from_delta(3, 0.5)
        small_field = RateReductionField(small, entropy_grid(small))
        small_report = check_membership(small_field, min3, 1e-9)
        with pytest.raises(NotCertifiedError):
            lower_bound_from(entropy_field, ProductPmf((0.5, 0.5, 0.5)), small_report)

    def test_off_grid_point_is_rejected(self, entropy_field, min3):
        report = check_membership(entropy_field, min3, 1e-9)
        with pytest.raises(ValueError):
            lower_bound_from(entropy_field, ProductPmf((0.51, 0.5, 0.5)), report)

    def test_report_for_other_data_on_the_same_grid_is_rejected(self, entropy_field, min3):
        report = check_membership(entropy_field, min3, 1e-9)
        assert report.passed
        data = entropy_field.data.copy()
        data[1, 1, 1] -= 0.25
        other = RateReductionField(entropy_field.grid, data)
        with pytest.raises(NotCertifiedError) as err:
            lower_bound_from(other, ProductPmf((0.5, 0.5, 0.5)), report)
        assert report.field_sha256 in str(err.value)
        assert field_digest(data) in str(err.value)
        assert field_digest(data) != report.field_sha256

    def test_bottom_value_maps_to_infinite_rate(self, grid05, min3, entropy_field):
        # convention check: a BOTTOM entry means the sum-rate bound is +inf.
        # No passing field has one (Z holds every corner of the cube and the
        # finite support is axis-convex), so the report is rebound by hand.
        report = check_membership(entropy_field, min3, 1e-9)
        holed = initial_field(grid05, min3)
        report = dataclasses.replace(report, field_sha256=field_digest(holed.data))
        assert lower_bound_from(holed, ProductPmf((0.5, 0.5, 0.5)), report) == math.inf


class TestAssessOptimality:
    def test_achieved_field_is_optimal_against_itself(self, converged_run, min3):
        field = converged_run.bank.max_field()
        verdict = assess_optimality(field, field, min3, 1e-4)
        assert verdict.status == "optimal within tol"
        assert verdict.worst_gap == 0.0

    def test_entropy_candidate_not_matching(self, converged_run, min3, entropy_field):
        achieved = converged_run.bank.max_field()
        verdict = assess_optimality(entropy_field, achieved, min3, 1e-4)
        assert verdict.status == "not matching"
        h_output = -(0.125 * math.log2(0.125) + 0.875 * math.log2(0.875))
        assert verdict.worst_gap >= h_output
        assert verdict.family_report.passed

    def test_zero_message_candidate_family_fail(self, converged_run, min3, grid05):
        achieved = converged_run.bank.max_field()
        verdict = assess_optimality(initial_field(grid05, min3), achieved, min3, 1e-4)
        assert verdict.status == "family-fail"

    def test_constant_function_entropy_is_optimal(self):
        grid = GridSpec.from_delta(3, 0.1)
        f = builtin_table("constant", 3)
        achieved = run(grid, f, t_max=5, eps=1e-6).bank.max_field()
        candidate = RateReductionField(grid, entropy_grid(grid))
        verdict = assess_optimality(candidate, achieved, f, 1e-9)
        assert verdict.status == "optimal within tol"
        assert verdict.worst_gap == 0.0

    def test_grid_mismatch_raises(self, converged_run, min3):
        small = GridSpec.from_delta(3, 0.5)
        candidate = RateReductionField(small, entropy_grid(small))
        with pytest.raises(ValueError):
            assess_optimality(candidate, converged_run.bank.max_field(), min3, 1e-4)

    def test_bottom_mismatch_is_infinite_gap(self, grid05, min3, converged_run):
        verdict = assess_optimality(
            converged_run.bank.max_field(), initial_field(grid05, min3), min3, 1e-4
        )
        assert verdict.status == "not matching"
        assert verdict.worst_gap == math.inf
