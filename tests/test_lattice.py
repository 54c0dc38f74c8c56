import itertools
import math

import numpy as np
import pytest

from conftest import (
    computable_with_zero_messages,
    grid_points,
    upper_concave_envelope,
)
from ratered import lattice
from ratered.envelope import BOTTOM
from ratered.lattice import (
    FieldBank,
    RateReductionField,
    bank_sup_delta,
    cross_k_gap,
    gap,
    initial_bank,
    initial_field,
    rotate_axes,
    rotation_period,
    run,
    sum_rate_field,
    sup_delta,
    sweep_once,
    sweeps,
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
    @pytest.mark.parametrize("f, n_steps", [
        *[pytest.param(builtin_table(name, 3), 4, id=name)
          for name in ["min", "max", "parity", "constant"]],
        pytest.param(PERIOD2, 4, id="period2-m4"),       # no cyclic symmetry of its table
        pytest.param(builtin_table("min", 3), 1, id="min-n1"),
        pytest.param(PERIOD2, 1, id="period2-m4-n1"),
    ])
    def test_mask_matches_scalar_predicate(self, f, n_steps):
        grid = GridSpec(m=f.m, n_steps=n_steps)
        mask = zero_message_mask(grid, f)
        assert mask.dtype == bool and mask.shape == grid.shape and mask.flags.c_contiguous
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
        # node 1, counted from 0, envelopes the lines along axis 1
        sweep = lattice.compiled_sweep() or lattice._numpy_sweep
        out = sweep([field.data] * 2, None, [field.data] * 2)[0][1]
        for i1 in range(grid.points_per_axis):
            for i3 in range(grid.points_per_axis):
                line = field.data[i1, :, i3]
                assert np.array_equal(out[i1, :, i3],
                                      upper_concave_envelope(line))

    def test_sweep_reads_previous_snapshot(self, min3, per_node_sweep):
        """Every new field must come from the pre-sweep bank (synchronous
        update), not from fields already replaced during the sweep."""
        grid = GridSpec.from_delta(3, 0.25)
        bank = sweep_once(initial_bank(grid, min3))       # make fields differ
        new = sweep_once(bank)
        expected = per_node_sweep(bank)
        for k in (1, 2, 3):
            assert np.array_equal(new.field_for(k).data, expected.field_for(k).data)
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
        history = [bank for bank, _ in sweeps(grid, f, 6, 1e-12)]
        # The reference, with a loop and stop rule of its own: every node
        # enveloped, each delta taken over every node.
        banks, deltas = [initial_bank(grid, f)], []
        for _ in range(6):
            banks.append(per_node_sweep(banks[-1]))
            deltas.append(max(sup_delta(n.data, o.data) for n, o in
                              zip(banks[-1].node_fields(), banks[-2].node_fields())))
            if deltas[-1] <= 1e-12:
                break

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
        assert res.trace.values == [
            [[b.field_for(k).value_at(point) for k in range(1, f.m + 1)] for point in tracked]
            for b in banks]
        for p, point in enumerate(tracked):
            assert res.trace.max_series[p] == [
                max(b.field_for(k).value_at(point) for k in range(1, f.m + 1)) for b in banks]

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
        (PERIOD2, 0.1, 2),
    ], ids=["min-m3-rotated", "selector-m4-chains", "period2-m4-chains"])
    def test_run_bitwise_equals_per_line_kernel(self, f, delta, chains, monkeypatch,
                                                 per_line_envelope, kernel):
        """Every bank and delta of the sweep loop run() consumes, and the
        last bank's cross_k_gap, on the kernel's sweep path against the
        numpy path with the per-line reference kernel.  Sweep 1 switches
        entries from BOTTOM to finite, so its delta is +inf."""
        grid = GridSpec.from_delta(f.m, delta)
        got = list(sweeps(grid, f, 20, 1e-12))
        _per_line_numpy_path(monkeypatch, per_line_envelope)
        want = list(sweeps(grid, f, 20, 1e-12))
        assert got[-1][0].period == want[-1][0].period == chains
        assert len(got) == len(want) > 2
        for (gb, _), (wb, _) in zip(got, want):
            for gf, wf in zip(gb.node_fields(), wb.node_fields()):
                assert np.array_equal(_bits(gf.data), _bits(wf.data))
        assert _bits(np.array([d for _, d in got[1:]])).tolist() == \
            _bits(np.array([d for _, d in want[1:]])).tolist()
        assert got[1][1] == math.inf and any(0.0 < d < math.inf for _, d in got[2:])
        assert _bits(np.array(cross_k_gap(got[-1][0]))) == \
            _bits(np.array(cross_k_gap(want[-1][0])))

    @pytest.mark.parametrize("period", [1, 3])
    def test_hand_built_bank_bitwise_equals_per_line_kernel(self, period, monkeypatch,
                                                            per_line_envelope, kernel):
        """Two sweeps of a bank without sources, whose fields hold holes,
        all-BOTTOM lines, ties and -0.0: the fields and the deltas the banks
        carry against the numpy path with the per-line reference kernel."""
        grid = GridSpec.from_delta(3, 0.2)
        rng = np.random.default_rng(period)
        fields = []
        for _ in range(period):
            data = np.round(rng.uniform(-1.0, 2.0, grid.shape) * 4.0) / 4.0
            data[rng.uniform(size=grid.shape) < 0.3] = BOTTOM
            data[2, :, 1] = BOTTOM
            data[0, 3] = -0.0
            fields.append(RateReductionField(grid, data))
        if period == 1:   # period 1 needs data that a rotation leaves unchanged
            data = fields[0].data
            fields = [RateReductionField(grid, np.maximum(
                np.maximum(data, rotate_axes(data, 1)), rotate_axes(data, 2)))]
        start = FieldBank(fields=tuple(fields), tau=0)

        def two_sweeps():
            first = sweep_once(start)
            return [first, sweep_once(first)]

        got = two_sweeps()
        _per_line_numpy_path(monkeypatch, per_line_envelope)
        want = two_sweeps()
        for gb, wb in zip(got, want):
            assert _bits(np.array(gb.delta)) == _bits(np.array(wb.delta))
            for gf, wf in zip(gb.node_fields(), wb.node_fields()):
                assert np.array_equal(_bits(gf.data), _bits(wf.data))
        assert got[0].delta == math.inf

    @pytest.mark.parametrize("f, delta, chains", [
        (SELECTOR4, 0.1, 4),
        (PERIOD2, 0.1, 2),
    ], ids=["selector-m4", "period2-m4"])
    def test_one_kernel_call_per_sweep(self, f, delta, chains, monkeypatch):
        """Sweep 1 envelopes every line; each later sweep envelopes only the
        lines whose input bits changed since the sweep before, in one call
        of the kernel's sweep.  The numpy sweep sends them to envelope_batch
        in one batch, and makes no call when no line changed."""
        grid = GridSpec.from_delta(f.m, delta)
        length = grid.points_per_axis
        for _ in _sweep_paths(monkeypatch):
            sent, batches = _spy_kernel(monkeypatch), _spy_batches(monkeypatch)
            banks = [bank for bank, _ in sweeps(grid, f, 6, 1e-300)]
            assert banks[-1].period == chains
            assert banks[-1].tau == 6
            want = [chains * length ** (f.m - 1)] + [
                _changed_lines(prev, bank, chains)
                for prev, bank in zip(banks, banks[1:-1])
            ]
            assert sent == want
            assert sum(want[1:]) < 5 * want[0]          # the reuse engages
        assert batches == [(n, length) for n in want if n]   # the numpy sweep ran last


def _sweep_paths(monkeypatch):
    """Runs the caller's loop body twice: on the sweep lattice picks in this
    process, then on the numpy sweep, forced."""
    yield
    monkeypatch.setattr(lattice, "compiled_sweep", lambda: None)
    yield


def _per_line_numpy_path(monkeypatch, per_line_envelope):
    """From here on, sweeps take the numpy path with the per-line reference
    kernel."""
    monkeypatch.setattr(lattice, "compiled_sweep", lambda: None)
    monkeypatch.setattr(lattice, "envelope_batch", per_line_envelope)


def _spy_kernel(monkeypatch):
    """Record the number of lines that every call of the sweep lattice
    calls reports enveloped."""
    sent = []
    sweep = lattice.compiled_sweep() or lattice._numpy_sweep

    def counting(*args):
        fields, delta, enveloped = sweep(*args)
        sent.append(enveloped)
        return fields, delta, enveloped

    monkeypatch.setattr(lattice, "compiled_sweep", lambda: counting)
    return sent


def _spy_batches(monkeypatch):
    """Record the shape of every batch lattice hands envelope_batch."""
    batches = []
    kernel = lattice.envelope_batch

    def counting(lines):
        batches.append(lines.shape)
        return kernel(lines)

    monkeypatch.setattr(lattice, "envelope_batch", counting)
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
        want = [bank.period * grid.points_per_axis ** (f.m - 1)]
        for _ in _sweep_paths(monkeypatch):
            sent = _spy_kernel(monkeypatch)
            new = sweep_once(bank)
            assert sent == want
            for k, source in enumerate(new.sources, 1):
                stored = bank.field_for(k % f.m + 1)
                assert np.shares_memory(source.data, stored.data)

            # the oracle's envelope sweep starts from initial_bank too
            sent.clear()
            compare_with_envelope(grid, f, ((2,) * f.m,),
                                  ConditionalSearchSpec(k=1, search_step=0.25))
            assert sent == want

    def test_no_kernel_call_when_no_line_changed(self, monkeypatch):
        # the entropy is concave along every axis, so the first sweep
        # returns the constant function's field unchanged
        bank = sweep_once(initial_bank(GridSpec.from_delta(3, 0.25),
                                       builtin_table("constant", 3)))
        for _ in _sweep_paths(monkeypatch):
            sent, batches = _spy_kernel(monkeypatch), _spy_batches(monkeypatch)
            again = sweep_once(bank)
            # no line enveloped, no envelope_batch call, and a delta of exactly 0
            assert (sent, batches) == ([0], [])
            assert _bits(np.array(again.delta)) == _bits(np.array(0.0))
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

    # One line swept alone against a stored line whose worst |gap| from the
    # envelope lies on one of the paths the compiled sweep writes by; every
    # other entry is 0 or a smaller finite gap.
    @pytest.mark.parametrize("line, stored, worst", [
        pytest.param([0.0, -1.0, 2.0, 3.0], [0.125, 1.5, 2.25, 3.125], 1,
                     id="interpolated-cell"),
        pytest.param([BOTTOM, 1.0, 2.0, BOTTOM], [BOTTOM, 1.125, 2.25, 0.5], 3,
                     id="finite-to-bottom"),
        pytest.param([1.0, 3.0, 2.0, BOTTOM], [1.125, 3.25, 2.5, BOTTOM], 2, id="last-vertex"),
        pytest.param([BOTTOM, 3.0, BOTTOM], [BOTTOM, 1.0, BOTTOM], 1, id="only-finite-cell"),
    ])
    def test_sweep_delta_on_each_path(self, kernel, per_line_envelope, line, stored, worst):
        line, stored = np.array(line), np.array(stored)
        sweep = lattice.compiled_sweep() or lattice._numpy_sweep
        (field,), delta, enveloped = sweep([line], None, [stored])
        assert np.array_equal(_bits(field), _bits(per_line_envelope(line[None])[0]))
        assert int(np.argmax(np.abs(gap(field, stored)))) == worst
        assert _bits(np.array(delta)) == _bits(np.array(sup_delta(field, stored)))
        assert enveloped == 1


class TestGap:
    A = np.array([BOTTOM, BOTTOM, 1.0, 0.25, -3.0])
    B = np.array([BOTTOM, 2.0, BOTTOM, 1.0, -3.0])
    WANT = np.array([0.0, -math.inf, math.inf, -0.75, 0.0])

    @pytest.fixture(autouse=True)
    def _raise_on_float_errors(self):
        with np.errstate(all="raise"):
            yield

    def test_per_entry(self):
        got = gap(self.A, self.B)
        assert got.dtype == np.float64
        assert np.array_equal(got, self.WANT)
        assert np.array_equal(got, -gap(self.B, self.A))
        assert np.array_equal(np.abs(got), [0.0, math.inf, math.inf, 0.75, 0.0])

    def test_scalars_and_lists(self):
        for a, b, want in zip(self.A, self.B, self.WANT):
            assert gap(float(a), float(b)) == want
            assert gap(float(a), float(b)).shape == ()
        assert np.array_equal(gap(self.A.tolist(), self.B.tolist()), self.WANT)
        assert gap([], []).shape == (0,)

    def test_broadcast(self):
        got = gap(self.A[:, None], self.B[None, :])
        assert got.shape == (5, 5)
        for i, a in enumerate(self.A):
            for j, b in enumerate(self.B):
                assert got[i, j] == gap(a, b)
        assert np.array_equal(gap(self.A, BOTTOM), [0.0, 0.0, math.inf, math.inf, math.inf])
        assert np.array_equal(gap(1.0, self.B), [math.inf, -1.0, math.inf, 0.0, 4.0])

    def test_nan_and_plus_inf_count_as_not_finite(self):
        assert np.array_equal(gap([math.nan, math.inf, math.nan], [1.0, 1.0, math.inf]),
                              [-math.inf, -math.inf, 0.0])


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
        assert len(res.trace.values) == 6
        assert all(len(row) == 2 and all(len(v) == 3 for v in row) for row in res.trace.values)
        for pid in range(2):
            assert len(res.trace.max_series[pid]) == 6

    def test_tracked_corner_is_constant_entropy(self, min3):
        grid = GridSpec.from_delta(3, 0.1)
        res = run(grid, min3, t_max=5, eps=1e-300, tracked=((0, 7, 3),))
        h = product_entropy(grid.pmf_at((0, 7, 3)))
        assert res.trace.max_series[0] == [h] * 6

    def test_monotone_chain_small_grid(self, min3):
        """Each envelope majorizes its input, so a field at sweep t dominates
        its source field (next node) at sweep t-1 pointwise."""
        banks = [bank for bank, _ in sweeps(GridSpec.from_delta(3, 0.25), min3, 10, 1e-300)]
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


class TestSweeps:
    """lattice.sweeps, the one sweep loop: what it yields and where it stops."""

    def test_t_max_zero_yields_the_initial_bank_alone(self, min3):
        grid = GridSpec.from_delta(3, 0.2)
        ((bank, delta),) = sweeps(grid, min3, 0, 1e-6)
        assert delta is None and bank.tau == 0
        assert np.array_equal(_bits(bank.field_for(1).data),
                              _bits(initial_field(grid, min3).data))

    def test_stops_right_after_a_delta_equal_to_eps(self, min3):
        grid = GridSpec.from_delta(3, 0.25)
        deltas = [d for _, d in sweeps(grid, min3, 8, 1e-300)][1:]
        eps = deltas[5]
        assert len(deltas) == 8 and min(deltas[:5]) > eps > 0.0
        got = list(sweeps(grid, min3, 8, eps))
        assert [d for _, d in got] == [None] + deltas[:6]
        assert got[-1][0].tau == 6
        res = run(grid, min3, t_max=8, eps=eps)
        assert (res.t_stop, res.stop_reason) == (6, "converged")
        # one ulp below the delta, the loop takes one more sweep
        assert len(list(sweeps(grid, min3, 8, np.nextafter(eps, 0.0)))) == 8

    def test_deltas_are_the_banks_and_run_trace_bit_for_bit(self, min3):
        """Each yielded delta is bank_sup_delta of its bank and the bank
        before, the sweep_once of that bank; run() records the same
        deltas, bit for bit, and stops at the last bank."""
        grid = GridSpec.from_delta(3, 0.25)
        got = list(sweeps(grid, min3, 6, 1e-300))
        res = run(grid, min3, t_max=6, eps=1e-300)
        assert len(got) == 7 and got[0][1] is None
        for (prev, _), (bank, delta) in zip(got, got[1:]):
            assert bank.tau == prev.tau + 1
            for gf, wf in zip(bank.fields, sweep_once(prev).fields):
                assert np.array_equal(_bits(gf.data), _bits(wf.data))
            assert _bits(np.array(delta)) == _bits(np.array(bank_sup_delta(bank, prev)))
        assert _bits(np.array([d for _, d in got[1:]])).tolist() == \
            _bits(np.array(res.trace.sup_deltas)).tolist()
        assert res.t_stop == got[-1][0].tau == 6


class TestSumRate:
    def test_bottom_maps_to_infinite_rate(self, min3):
        grid = GridSpec.from_delta(3, 0.2)
        field = initial_field(grid, min3)
        rs = sum_rate_field(field)
        mask = zero_message_mask(grid, min3)
        assert np.all(rs[~mask] == math.inf)
        assert np.all(rs[mask] == 0.0)

    def test_special_values_bit_for_bit(self):
        grid = GridSpec(m=2, n_steps=2)
        rho = np.array([[0.5, BOTTOM, math.inf], [math.nan, -0.0, 0.0],
                        [-1.25, 2.0, 5e-324]])
        h = entropy_grid(grid)
        want = np.where(np.isfinite(rho), h - rho, math.inf)
        got = sum_rate_field(RateReductionField(grid, rho))
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_entropy_minus_reduction(self, converged_run):
        field = converged_run.bank.field_for(3)
        rs = sum_rate_field(field)
        h = entropy_grid(field.grid)
        finite = np.isfinite(field.data)
        assert np.array_equal(rs[finite], (h - field.data)[finite])
