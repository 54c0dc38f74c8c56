import itertools
import math

import numpy as np
import pytest

from conftest import (
    computable_with_zero_messages,
    grid_points,
    sweep_history,
    upper_concave_envelope,
)
from ratered.envelope import BOTTOM
from ratered.lattice import (
    FieldBank,
    RateReductionField,
    bank_sup_delta,
    convexify_axes,
    cross_k_gap,
    entry_distance,
    initial_bank,
    initial_field,
    rotation_period,
    run,
    sum_rate_field,
    sup_delta,
    sweep_once,
    zero_message_mask,
)
from ratered.oracle import ConditionalSearchSpec, compare_with_envelope
from ratered.probability import GridSpec, entropy_grid, product_entropy
from ratered.target_functions import BUILTIN_NAMES, FunctionTable, builtin_table

# x1 ? x2 : x3, which no cyclic shift of the inputs leaves unchanged
SELECTOR3 = FunctionTable(
    m=3,
    output_alphabet=(0, 1),
    table={x: x[1] if x[0] else x[2] for x in itertools.product((0, 1), repeat=3)},
)
# x1 ? (x2 AND x3) : (x3 OR x4), which no permutation of the inputs leaves unchanged
SELECTOR4 = FunctionTable(
    m=4,
    output_alphabet=(0, 1),
    table={x: x[1] & x[2] if x[0] else x[2] | x[3]
           for x in itertools.product((0, 1), repeat=4)},
)
# (x1 AND x3) OR (x2 XOR x4): shifting the inputs by two leaves it unchanged,
# shifting by one does not
PERIOD2 = FunctionTable(
    m=4,
    output_alphabet=(0, 1),
    table={x: (x[0] & x[2]) | (x[1] ^ x[3])
           for x in itertools.product((0, 1), repeat=4)},
)


class TestZeroMessageField:
    @pytest.mark.parametrize("name", ["min", "max", "parity", "constant"])
    def test_mask_matches_scalar_predicate(self, name):
        grid = GridSpec.from_delta(3, 0.25)
        f = builtin_table(name, 3)
        mask = zero_message_mask(grid, f)
        for index, pmf in grid_points(grid):
            assert mask[index] == computable_with_zero_messages(f, pmf)

    def test_initial_values_entropy_or_bottom(self, min3):
        grid = GridSpec.from_delta(3, 0.2)
        field = initial_field(grid, min3)
        h = entropy_grid(grid)
        mask = zero_message_mask(grid, min3)
        assert np.array_equal(field.data[mask], h[mask])
        assert np.all(field.data[~mask] == BOTTOM)

    def test_arity_mismatch_raises(self, min3):
        with pytest.raises(ValueError):
            zero_message_mask(GridSpec.from_delta(2, 0.5), min3)

    def test_constant_function_everything_computable(self):
        grid = GridSpec.from_delta(2, 0.25)
        mask = zero_message_mask(grid, builtin_table("constant", 2))
        assert np.all(mask)


class TestSweepMechanics:
    def test_axis_convexify_matches_kernel_line_by_line(self, min3):
        grid = GridSpec.from_delta(3, 0.2)
        field = initial_field(grid, min3)
        (out,) = convexify_axes([(field, 2)])
        for i1 in range(grid.points_per_axis):
            for i3 in range(grid.points_per_axis):
                line = field.data[i1, :, i3]
                assert np.array_equal(out.data[i1, :, i3],
                                      upper_concave_envelope(line))

    def test_axis_out_of_range(self, min3):
        field = initial_field(GridSpec.from_delta(3, 0.5), min3)
        with pytest.raises(ValueError):
            convexify_axes([(field, 0)])
        with pytest.raises(ValueError):
            convexify_axes([(field, 4)])

    def test_sweep_reads_previous_snapshot(self, min3):
        """Every new field must come from the pre-sweep bank (synchronous
        update), not from fields already replaced during the sweep."""
        grid = GridSpec.from_delta(3, 0.25)
        bank = sweep_once(initial_bank(grid, min3))       # make fields differ
        new = sweep_once(bank)
        for k in (1, 2, 3):
            (expected,) = convexify_axes([(bank.field_for(k % 3 + 1), k)])
            assert np.array_equal(new.field_for(k).data, expected.data)
        assert new.tau == bank.tau + 1

    def test_symmetric_function_rotation_equivariance(self, min3):
        # MIN is permutation-symmetric and the node schedule is cyclic, so
        # node 2's field is node 1's field with coordinates rotated.
        grid = GridSpec.from_delta(3, 0.1)
        bank = initial_bank(grid, min3)
        for _ in range(3):
            bank = sweep_once(bank)
            a1 = bank.field_for(1).data
            assert np.array_equal(bank.field_for(2).data, np.transpose(a1, (2, 0, 1)))
            assert np.array_equal(bank.field_for(3).data, np.transpose(a1, (1, 2, 0)))


def _bits(a):
    return a.view(np.uint64)


def _least_period(data):
    """The least number of np.moveaxis(d, -1, 0) steps that gives data back
    bit for bit."""
    rotated = _bits(data)
    for d in range(1, data.ndim + 1):
        rotated = np.moveaxis(rotated, -1, 0)
        if np.array_equal(rotated, _bits(data)):
            return d


class TestRotatedSweep:
    CASES = [(name, m) for m in (2, 3, 4) for name in BUILTIN_NAMES]

    @pytest.mark.parametrize(
        "f", [builtin_table(n, m) for n, m in CASES] + [SELECTOR3, SELECTOR4, PERIOD2],
        ids=[f"{n}-m{m}" for n, m in CASES] + ["selector-m3", "selector-m4", "period2-m4"])
    def test_run_bitwise_equals_sweep_once_loop(self, f, per_node_sweep):
        grid = GridSpec.from_delta(f.m, 0.1)
        tracked = ((5, 5) + (3,) * (f.m - 2), (2,) + (7,) * (f.m - 1), (0,) * f.m)
        res = run(grid, f, t_max=6, eps=1e-12, tracked=tracked)
        history, _ = sweep_history(grid, f, 6, 1e-12)
        banks, deltas = sweep_history(grid, f, 6, 1e-12, per_node_sweep)

        assert res.bank.period == _least_period(banks[0].field_for(1).data)
        assert len(history) == len(banks) and res.t_stop == banks[-1].tau
        for got, want in zip(history + [res.bank], banks + banks[-1:]):
            assert got.tau == want.tau
            assert got.period == res.bank.period
            assert all(gf.data.flags.c_contiguous for gf in got.fields)
            for gf, wf in zip(got.node_fields(), want.node_fields()):
                assert np.array_equal(_bits(gf.data), _bits(wf.data))
        assert res.trace.sup_deltas == deltas
        assert res.cross_k_gap == cross_k_gap(banks[-1])
        for p, point in enumerate(tracked):
            per_k = [[b.field_for(k).value_at(point) for b in banks]
                     for k in range(1, f.m + 1)]
            assert res.trace.per_k[p] == per_k
            assert res.trace.max_series[p] == [max(v) for v in zip(*per_k)]

    # README's chain counts.  The joint entropy is summed in axis order, so a
    # cyclic table can still get m chains: the base of constant at m=3 and
    # of min at m=4 changes in the last ulp under a rotation.
    CHAIN_CASES = [
        (builtin_table(n, m), 0.1, 3 if (n, m) == ("constant", 3) else 1,
         f"{n}-m{m}-d0.1")
        for m in (2, 3) for n in BUILTIN_NAMES
    ] + [
        (builtin_table("min", 3), 0.05, 1, "min-m3"),
        (builtin_table("parity", 3), 0.05, 1, "parity-m3"),
        (builtin_table("min", 4), 0.1, 4, "min-m4"),
        (builtin_table("parity", 4), 0.1, 1, "parity-m4"),
        (SELECTOR3, 0.05, 3, "selector-m3"),
        (PERIOD2, 0.1, 2, "period2-m4"),
    ]

    @pytest.mark.parametrize("f, delta, chains", [c[:3] for c in CHAIN_CASES],
                             ids=[c[3] for c in CHAIN_CASES])
    def test_reduction_engages_only_on_invariant_data(self, f, delta, chains):
        res = run(GridSpec.from_delta(f.m, delta), f, t_max=0, eps=1e-6)
        assert res.bank.period == chains

    @pytest.mark.parametrize("f, period", [
        (builtin_table("min", 3), 1), (PERIOD2, 2), (SELECTOR3, 3),
    ], ids=["min-m3", "period2-m4", "selector-m3"])
    def test_bank_stores_one_field_per_period_node(self, f, period):
        bank = run(GridSpec.from_delta(f.m, 0.1), f, t_max=3, eps=1e-300).bank
        assert len(bank.fields) == bank.period == period
        for k in range(1, f.m + 1):
            stored = bank.fields[(k - 1) % period]
            if k <= period:
                assert bank.field_for(k) is stored
            else:
                assert np.shares_memory(bank.field_for(k).data, stored.data)
        for k in (0, f.m + 1):
            with pytest.raises(ValueError, match=f"node {k} outside 1..{f.m}"):
                bank.field_for(k)

    def test_invariance_is_bitwise(self):
        a = np.zeros((2, 2))
        assert rotation_period(a) == 1
        a[0, 1] = -0.0
        assert rotation_period(a) == 2
        b = np.zeros((2,) * 4)
        b[0, 1, 0, 1] = -0.0          # fixed by two rotations, not by one
        assert rotation_period(b) == 2
        b[0, 0, 0, 1] = -0.0
        assert rotation_period(b) == 4


class TestLockstepKernel:
    @pytest.mark.parametrize("f, delta, chains", [
        (builtin_table("min", 3), 0.05, 1),
        (SELECTOR4, 0.1, 4),
    ], ids=["min-m3-rotated", "selector-m4-chains"])
    def test_run_bitwise_equals_per_line_kernel(self, f, delta, chains, monkeypatch,
                                                 per_line_envelope):
        grid = GridSpec.from_delta(f.m, delta)
        got = run(grid, f, t_max=20, eps=1e-12)
        got_banks, _ = sweep_history(grid, f, 20, 1e-12)
        monkeypatch.setattr("ratered.lattice.envelope_batch", per_line_envelope)
        want = run(grid, f, t_max=20, eps=1e-12)
        want_banks, _ = sweep_history(grid, f, 20, 1e-12)
        assert got.bank.period == want.bank.period == chains
        assert len(got_banks) == len(want_banks) > 2
        for gb, wb in zip(got_banks + [got.bank], want_banks + [want.bank]):
            for gf, wf in zip(gb.node_fields(), wb.node_fields()):
                assert np.array_equal(_bits(gf.data), _bits(wf.data))
        assert _bits(np.array(got.trace.sup_deltas)).tolist() == \
            _bits(np.array(want.trace.sup_deltas)).tolist()
        assert _bits(np.array(got.cross_k_gap)) == _bits(np.array(want.cross_k_gap))


    @pytest.mark.parametrize("f, delta, chains", [
        (SELECTOR4, 0.1, 4),
        (PERIOD2, 0.1, 2),
    ], ids=["selector-m4", "period2-m4"])
    def test_one_kernel_call_per_sweep(self, f, delta, chains, monkeypatch):
        """Sweep 1 sends every line; each later sweep sends, in one call, the
        lines whose input bits changed since the sweep before, and makes no
        call when none did."""
        batches = _spy_kernel(monkeypatch)
        grid = GridSpec.from_delta(f.m, delta)
        res = run(grid, f, t_max=6, eps=1e-300)
        run_batches = batches[:]
        batches.clear()
        banks, _ = sweep_history(grid, f, 6, 1e-300)
        assert res.bank.period == chains
        length = grid.points_per_axis
        assert res.t_stop == banks[-1].tau == 6
        want = [chains * length ** (f.m - 1)] + [
            _changed_lines(prev, bank, chains)
            for prev, bank in zip(banks, banks[1:-1])
        ]
        assert run_batches == batches == [(n, length) for n in want if n]
        assert sum(want[1:]) < 5 * want[0]          # the reuse engages


def _spy_kernel(monkeypatch):
    """Record the shape of every batch that lattice sends to the kernel."""
    import ratered.lattice as lattice
    kernel = lattice.envelope_batch
    batches = []

    def counting(lines):
        batches.append(lines.shape)
        return kernel(lines)

    monkeypatch.setattr("ratered.lattice.envelope_batch", counting)
    return batches


def _changed_lines(prev, bank, chains):
    """Axis-k lines of node k's input (node k+1's field) whose bits differ
    between two consecutive banks, summed over the stored nodes."""
    m = bank.m
    total = 0
    for k in range(1, chains + 1):
        new, old = (np.moveaxis(_bits(b.field_for(k % m + 1).data), k - 1, -1)
                    for b in (bank, prev))
        total += int(np.count_nonzero(np.any(new != old, axis=-1)))
    return total


class TestUnchangedLineReuse:
    SENTINEL = 99.0

    def test_unchanged_lines_keep_the_stored_envelope(self, per_line_envelope):
        """Sentinels stored for lines whose input did not change come back
        as they are; every changed line gets its true envelope.

        A stored field is also the next node's input, so the sentinels go
        into a few unchanged lines only, and the input lines they cross
        count as changed."""
        grid = GridSpec.from_delta(4, 0.1)
        start = initial_bank(grid, SELECTOR4)
        bank = sweep_once(start)
        assert bank.period == 4
        for k in range(1, 5):
            source = start.field_for(k % 4 + 1)
            assert np.array_equal(_bits(bank.sources[k - 1].data), _bits(source.data))

        def lines(data, k):
            return np.moveaxis(data, k - 1, -1).reshape(-1, grid.points_per_axis)

        doctored = []
        for k, (stored, source) in enumerate(zip(bank.fields, bank.sources), 1):
            new = lines(_bits(bank.field_for(k % 4 + 1).data), k)
            unchanged = np.flatnonzero(np.all(new == lines(_bits(source.data), k), axis=1))
            data = stored.data.copy()
            moved = np.moveaxis(data, k - 1, -1)
            moved[np.unravel_index(unchanged[:3], moved.shape[:-1])] = self.SENTINEL
            doctored.append(RateReductionField(grid, data))
        doctored_bank = FieldBank(fields=tuple(doctored), tau=1, sources=bank.sources)
        got = sweep_once(doctored_bank)

        reused = changed = 0
        for k in range(1, 5):
            line_in = lines(doctored_bank.field_for(k % 4 + 1).data, k)
            same = np.all(_bits(line_in) == lines(_bits(bank.sources[k - 1].data), k),
                          axis=1)
            out = lines(got.fields[k - 1].data, k)
            stored = lines(doctored[k - 1].data, k)
            assert np.array_equal(_bits(out[same]), _bits(stored[same]))
            assert np.array_equal(_bits(out[~same]),
                                  _bits(per_line_envelope(line_in[~same])))
            reused += int(np.count_nonzero(np.all(out[same] == self.SENTINEL, axis=1)))
            changed += int(np.count_nonzero(~same))
        assert reused > 0 and changed > 0

    def test_signed_zero_and_last_ulp_count_as_changes(self, per_line_envelope):
        grid = GridSpec.from_delta(2, 0.25)
        rng = np.random.default_rng(3)
        field2 = rng.random((5, 5))
        field2[1, 2] = 0.0
        source = field2.copy()
        source[1, 2] = -0.0                                   # line 2 (axis 1)
        source[3, 4] = np.nextafter(field2[3, 4], np.inf)     # line 4
        stored = np.full((5, 5), self.SENTINEL)
        bank = FieldBank(
            fields=(RateReductionField(grid, stored), RateReductionField(grid, field2)),
            tau=1,
            sources=(RateReductionField(grid, source),
                     RateReductionField(grid, stored.copy())),
        )
        assert bank.period == 2
        new = sweep_once(bank)
        out = new.field_for(1).data
        assert np.all(out[:, [0, 1, 3]] == self.SENTINEL)
        want = per_line_envelope(np.ascontiguousarray(field2[:, [2, 4]].T))
        assert np.array_equal(_bits(out[:, [2, 4]].T), _bits(want))
        assert np.array_equal(new.field_for(2).data, field2)

    @pytest.mark.parametrize("f", [builtin_table("min", 3), SELECTOR4],
                             ids=["min-m3", "selector-m4"])
    def test_initial_bank_envelopes_every_line(self, f, monkeypatch):
        grid = GridSpec.from_delta(f.m, 0.25)
        bank = initial_bank(grid, f)
        assert bank.sources is None
        batches = _spy_kernel(monkeypatch)
        new = sweep_once(bank)
        lines = bank.period * grid.points_per_axis ** (f.m - 1)
        assert batches == [(lines, grid.points_per_axis)]
        for k, source in enumerate(new.sources, 1):
            stored = bank.field_for(k % f.m + 1)
            assert np.shares_memory(source.data, stored.data)

        # the oracle's envelope sweep starts from initial_bank too
        batches.clear()
        compare_with_envelope(grid, f, ((2,) * f.m,),
                              ConditionalSearchSpec(k=1, search_step=0.25))
        assert batches == [(lines, grid.points_per_axis)]

    def test_no_kernel_call_when_no_line_changed(self, monkeypatch):
        # the entropy is concave along every axis, so the first sweep
        # returns the constant function's field unchanged
        bank = sweep_once(initial_bank(GridSpec.from_delta(3, 0.25),
                                       builtin_table("constant", 3)))
        batches = _spy_kernel(monkeypatch)
        again = sweep_once(bank)
        assert batches == []
        for new, old in zip(again.fields, bank.fields):
            assert np.array_equal(_bits(new.data), _bits(old.data))


class TestSupDelta:
    def test_both_bottom_counts_zero(self):
        a = np.array([BOTTOM, 1.0])
        assert sup_delta(a, a.copy()) == 0.0

    def test_transition_counts_infinite(self):
        old = np.array([BOTTOM, 1.0])
        new = np.array([0.5, 1.0])
        assert sup_delta(new, old) == math.inf
        assert sup_delta(old, new) == math.inf

    def test_finite_difference(self):
        old = np.array([[0.0, 1.0], [2.0, BOTTOM]])
        new = np.array([[0.5, 1.0], [2.25, BOTTOM]])
        assert sup_delta(new, old) == 0.5

    def test_all_bottom(self):
        a = np.full(4, BOTTOM)
        assert sup_delta(a, a.copy()) == 0.0

    def test_entry_distance_per_entry(self):
        a = np.array([BOTTOM, BOTTOM, 1.0, 0.25, -3.0])
        b = np.array([BOTTOM, 2.0, BOTTOM, 1.0, -3.0])
        want = np.array([0.0, math.inf, math.inf, 0.75, 0.0])
        assert np.array_equal(entry_distance(a, b), want)
        assert np.array_equal(entry_distance(b, a), want)


class TestRun:
    def test_constant_function_stops_after_one_sweep(self):
        grid = GridSpec.from_delta(3, 0.1)
        f = builtin_table("constant", 3)
        res = run(grid, f, t_max=40, eps=1e-6)
        assert res.t_stop == 1
        assert res.stop_reason == "converged"
        h = entropy_grid(grid)
        for k in (1, 2, 3):
            assert np.array_equal(res.bank.field_for(k).data, h)
            assert np.all(sum_rate_field(res.bank.field_for(k)) == 0.0)

    def test_t_max_zero_returns_initial_bank(self, min3):
        grid = GridSpec.from_delta(3, 0.2)
        res = run(grid, min3, t_max=0, eps=1e-6)
        assert res.t_stop == 0
        assert res.stop_reason == "t_max"
        assert np.array_equal(res.bank.field_for(1).data,
                              initial_field(grid, min3).data)
        assert res.trace.sup_deltas == []

    def test_t_max_reached_reported(self, min3):
        res = run(GridSpec.from_delta(3, 0.1), min3, t_max=3, eps=1e-300)
        assert res.t_stop == 3
        assert res.stop_reason == "t_max"

    def test_parameter_validation(self, min3):
        grid = GridSpec.from_delta(3, 0.5)
        with pytest.raises(ValueError):
            run(grid, min3, t_max=-1, eps=1e-6)
        with pytest.raises(ValueError):
            run(grid, min3, t_max=3, eps=0.0)

    def test_trace_lengths(self, min3):
        grid = GridSpec.from_delta(3, 0.1)
        res = run(grid, min3, t_max=5, eps=1e-300,
                  tracked=((5, 5, 5), (0, 0, 0)))
        assert len(res.trace.sup_deltas) == res.t_stop == 5
        for pid in range(2):
            assert len(res.trace.max_series[pid]) == 6
            for k0 in range(3):
                assert len(res.trace.per_k[pid][k0]) == 6

    def test_tracked_corner_is_constant_entropy(self, min3):
        grid = GridSpec.from_delta(3, 0.1)
        res = run(grid, min3, t_max=5, eps=1e-300, tracked=((0, 7, 3),))
        h = product_entropy(grid.pmf_at((0, 7, 3)))
        assert res.trace.max_series[0] == [h] * 6

    def test_sup_delta_sequence_matches_banks(self, min3):
        grid = GridSpec.from_delta(3, 0.25)
        res = run(grid, min3, t_max=6, eps=1e-300)
        banks, _ = sweep_history(grid, min3, 6, 1e-300)
        assert res.t_stop == banks[-1].tau
        for t in range(1, res.t_stop + 1):
            expected = bank_sup_delta(banks[t], banks[t - 1])
            assert res.trace.sup_deltas[t - 1] == expected

    def test_monotone_chain_small_grid(self, min3):
        """Each envelope majorizes its input, so a field at sweep t dominates
        its source field (next node) at sweep t-1 pointwise."""
        banks, _ = sweep_history(GridSpec.from_delta(3, 0.25), min3, 10, 1e-300)
        for t in range(1, len(banks)):
            for k in (1, 2, 3):
                new = banks[t].field_for(k).data
                old = banks[t - 1].field_for(k % 3 + 1).data
                finite = np.isfinite(old)
                assert np.all(new[finite] >= old[finite] - 1e-12)

    def test_cross_k_gap_small_at_convergence(self, converged_run):
        assert converged_run.stop_reason == "converged"
        assert converged_run.cross_k_gap <= 3e-6
        assert cross_k_gap(converged_run.bank) == converged_run.cross_k_gap


class TestSumRate:
    def test_bottom_maps_to_infinite_rate(self, min3):
        grid = GridSpec.from_delta(3, 0.2)
        field = initial_field(grid, min3)
        rs = sum_rate_field(field)
        mask = zero_message_mask(grid, min3)
        assert np.all(rs[~mask] == math.inf)
        assert np.all(rs[mask] == 0.0)

    def test_entropy_minus_reduction(self, converged_run):
        field = converged_run.bank.field_for(3)
        rs = sum_rate_field(field)
        h = entropy_grid(field.grid)
        finite = np.isfinite(field.data)
        assert np.array_equal(rs[finite], (h - field.data)[finite])
