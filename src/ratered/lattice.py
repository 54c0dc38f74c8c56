"""Dense rate-reduction fields over the grid and the per-axis sweep loop.

One field holds the rate reduction (joint entropy minus minimum sum-rate,
in bits) at every grid pmf for one leading node k.  A sweep replaces every
field simultaneously, Jacobi style: the new field for node k is the old
field for node k+1 convexified along axis k, reading only the previous
bank.  Iterating drives every field toward the infinite-message limit from
below; the stopping rule is a sup-norm delta between consecutive fields of
the same node.  sweeps is the one loop over sweeps and the one copy of that
rule, and ConvergenceTrace.stop_reason names its outcome.

A bank stores the fields of nodes 1..d only, d being the rotation period
of the zero-message field.  Node k > d is node k - d with its axes rotated
d times (R^d), at every sweep (see sweep_once), so it is handed out as a
rotated view of a stored field and never materialised.

Near the fixed point most lines stop moving.  Each bank records the fields
its sweep read, and the next sweep envelopes only the lines whose input
bits changed since; every other line keeps its stored envelope, which is
bit-identical to enveloping it again (see sweep_once).  A sweep is one
call of the running kernel's sweep on the whole bank, which also returns
the sweep's sup-delta, so the banks are never compared a second time: one C
call per stored node on the compiled kernel, the changed lines of every
node in one envelope_batch batch on the numpy kernel (_numpy_sweep).  The
new bank carries its delta, and both kernels give the same bits.

BOTTOM (-inf) marks pmfs where computation is infeasible with the messages
granted so far; entries switch from BOTTOM to finite as mixtures fill in,
and such transitions count as infinite deltas so convergence is never
declared while the finite support is still growing.  Every difference
between two such values is gap's: 0 where neither side is finite, +inf or
-inf where only one is.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from .envelope import BOTTOM, compiled_sweep, envelope_batch
from .errors import ConfigError
from .probability import GridIndex, GridSpec, entropy_grid
from .target_functions import FunctionTable


@dataclass(frozen=True)
class RateReductionField:
    """One rate-reduction functional sampled on the full grid.

    data is a dense (N+1)^m float array; BOTTOM entries are -inf.
    """

    grid: GridSpec
    data: np.ndarray

    def value_at(self, index: GridIndex) -> float:
        return float(self.data[tuple(index)])


@dataclass(frozen=True)
class FieldBank:
    """The per-node fields of one sweep, sharing one grid and one iteration
    counter tau.

    Only nodes 1..period are stored, period being the zero-message field's
    rotation_period.  Every other node is a rotation of a stored one
    (sweep_once shows why that is exact), which field_for hands out as a
    view.

    sources, set only by sweep_once, holds for every stored node k the field
    whose axis-k lines fields[k-1] envelopes: the previous bank's
    field_for(k+1), the same object or view, never a copy.  The next sweep
    reuses the envelope of every line whose input has not changed since.
    initial_bank and hand-built banks have none, so their next sweep
    envelopes every line.

    delta, set only by sweep_once, is bank_sup_delta(this bank, the bank it
    was swept from), returned by the same sweep call as the fields on
    either kernel.  sweeps reads it.
    """

    fields: tuple[RateReductionField, ...]
    tau: int
    sources: tuple[RateReductionField, ...] | None = None
    delta: float | None = None

    @property
    def grid(self) -> GridSpec:
        return self.fields[0].grid

    @property
    def m(self) -> int:
        return self.grid.m

    @property
    def period(self) -> int:
        return len(self.fields)

    def field_for(self, k: int) -> RateReductionField:
        """Node k's field: stored for k <= period, else R^(d*q) of stored
        node k - d*q, with d = period and q = (k - 1) // d."""
        if not 1 <= k <= self.m:
            raise ValueError(f"node {k} outside 1..{self.m}")
        d = self.period
        if k <= d:
            return self.fields[k - 1]
        return RateReductionField(
            self.grid, rotate_axes(self.fields[(k - 1) % d].data, d * ((k - 1) // d))
        )

    def node_fields(self) -> list[RateReductionField]:
        """field_for(k) for every node k = 1..m."""
        return [self.field_for(k) for k in range(1, self.m + 1)]

    def max_data(self) -> np.ndarray:
        """Pointwise max over the per-node fields: the tightest achievable
        rate-reduction estimate the bank offers."""
        return functools.reduce(np.maximum, [f.data for f in self.node_fields()])

    def max_field(self) -> RateReductionField:
        return RateReductionField(self.grid, self.max_data())


@dataclass
class ConvergenceTrace:
    """One row per recorded bank, values[t][p][k-1] being node k's value at
    tracked point p after sweep t, plus the global sup deltas."""

    tracked_points: tuple[GridIndex, ...]
    values: list = field(default_factory=list)
    sup_deltas: list = field(default_factory=list)  # [t-1]: delta of sweep t

    def record(self, bank: FieldBank, delta: float | None) -> None:
        """Append bank's row, and delta unless it is None (the initial bank)."""
        fields = bank.node_fields()
        self.values.append([[f.value_at(point) for f in fields]
                            for point in self.tracked_points])
        if delta is not None:
            self.sup_deltas.append(delta)

    @property
    def max_series(self) -> list:
        """max_series[p][t]: the max over nodes of values[t][p]."""
        return [[max(row[p]) for row in self.values]
                for p in range(len(self.tracked_points))]

    def stop_reason(self, eps: float) -> str:
        """"converged" if the last recorded sweep's delta is at most eps (the
        stop rule of sweeps), else "t_max"."""
        return "converged" if self.sup_deltas and self.sup_deltas[-1] <= eps else "t_max"


@dataclass(frozen=True)
class RunResult:
    bank: FieldBank
    trace: ConvergenceTrace
    t_stop: int
    stop_reason: str          # "converged" or "t_max"
    cross_k_gap: float        # max over grid and node pairs at t_stop


def zero_message_mask(grid: GridSpec, f: FunctionTable) -> np.ndarray:
    """Boolean grid of pmfs needing no communication at all: those under
    which f is almost surely constant, i.e. H(f(X^m)) = 0.

    Whether f is constant on a product support depends only on each
    marginal's support class (={0}, ={1}, or full), read off the exact
    grid indices 0 and N, so the 3^m classes are scanned once and broadcast
    over the grid; results agree exactly with the per-point predicate
    (computable_with_zero_messages in tests/conftest.py).
    """
    if f.m != grid.m:
        raise ValueError(f"function arity {f.m} != grid m={grid.m}")
    supports = ((0,), (0, 1), (1,))
    ok = np.empty((3,) * grid.m, dtype=bool)
    for cats in itertools.product(range(3), repeat=grid.m):
        it = itertools.product(*(supports[c] for c in cats))
        first = f(next(it))
        ok[cats] = all(f(x) == first for x in it)

    n = grid.n_steps
    axis_cat = np.ones(n + 1, dtype=np.intp)
    axis_cat[0] = 0
    axis_cat[n] = 2
    return ok[np.ix_(*[axis_cat] * grid.m)]


def initial_field(grid: GridSpec, f: FunctionTable) -> RateReductionField:
    """The zero-message rate reduction: the full joint entropy wherever f is
    already almost surely constant, BOTTOM everywhere else."""
    mask = zero_message_mask(grid, f)
    data = np.where(mask, entropy_grid(grid), BOTTOM)
    return RateReductionField(grid=grid, data=data)


def initial_bank(grid: GridSpec, f: FunctionTable) -> FieldBank:
    """All m node fields start from the same zero-message field, so the
    bank stores it once per node of its rotation period."""
    base = initial_field(grid, f)
    return FieldBank(fields=(base,) * rotation_period(base.data), tau=0)


def rotate_axes(data: np.ndarray, times: int) -> np.ndarray:
    """R^times(data) as a view, where R(x) = np.moveaxis(x, -1, 0) moves
    every axis j to axis j+1 (mod m)."""
    m = data.ndim
    return np.transpose(data, [(a - times) % m for a in range(m)])


def rotation_period(data: np.ndarray) -> int:
    """The least d >= 1 with R^d(data) equal to data bit for bit (float64
    compared as bytes, so -0.0 != 0.0 and last-ulp differences count).
    R^m is the identity, so d exists and divides m."""
    bits = data.view(np.uint64)
    return next(
        d for d in range(1, data.ndim + 1)
        if np.array_equal(rotate_axes(bits, d), bits)
    )


def sweep_once(bank: FieldBank) -> FieldBank:
    """One synchronous sweep: new field k = old field (k+1 mod m)
    convexified along axis k, all reads taken from the previous bank.

    With d = bank.period, only nodes 1..d are enveloped; the new bank
    stores those d fields and hands out node k > d as F_k' = R^d(F_{k-d}')
    (field_for).  That is bit-identical to enveloping every node.  Suppose
    F_{k+d} = R^d(F_k) for every k (mod m), which holds at tau=0 since all
    fields equal the base and R^d(base) = base.  Then for k > d,
    F_k' = conv_k(F_{k+1}) = conv_k(R^d(F_{k+1-d})) = R^d(conv_{k-d}(F_{k+1-d}))
    = R^d(F_{k-d}'), because R^d carries axis k-d to axis k: the kernel
    sees the same lines (same values, each line enveloped independently),
    so every float is the same.  The new bank satisfies the relation again
    (d divides m, so it also holds across the wrap from node m to node 1),
    and by induction it holds at every sweep.

    Lines whose input has not changed are not enveloped again.  The new
    bank records each stored node's input F_{k+1} as its source.  On the
    next sweep, an axis-k line of the new F_{k+1} whose bits equal the same
    line of that source (compared as uint64, so -0.0 != 0.0 and last-ulp
    differences count) takes the same line of the stored F_k, and that is
    bit-identical to enveloping it.  F_k is, line by line, the envelope of
    its source: each of its lines either went through the kernel or was
    copied from the envelope of a bit-identical line, by induction over the
    sweeps.  The kernel is a deterministic function of each row alone, so
    equal rows get equal envelopes.  A bank without sources (initial_bank's,
    or a hand-built one) envelopes every line.

    The whole bank is one call of the sweep of the kernel that runs,
    compiled_sweep's or _numpy_sweep, on one contract (compiled_sweep's
    docstring).  It returns the new fields and the BOTTOM-aware sup-delta
    of each against the stored one, maxed over the stored nodes.  A reused
    line equals the stored field's line bit for bit, so it adds 0, and max
    is exact, so that delta is bank_sup_delta(new bank, bank) bit for bit.
    The new bank carries it as delta.
    """
    m = bank.m
    sources = tuple(bank.field_for(k % m + 1) for k in range(1, bank.period + 1))
    previous = None if bank.sources is None else [s.data for s in bank.sources]
    fields, delta, _ = (compiled_sweep() or _numpy_sweep)(
        [s.data for s in sources], previous, [f.data for f in bank.fields])
    return FieldBank(fields=tuple(RateReductionField(bank.grid, data) for data in fields),
                     tau=bank.tau + 1, sources=sources, delta=delta)


def _numpy_sweep(sources, previous, stored) -> tuple[tuple, float, int]:
    """The sweep of a whole bank on the numpy kernel, on compiled_sweep's
    contract.

    The lines that go to the kernel, those whose bits differ from the same
    line of previous (all of them where previous is None), are gathered
    node after node, with node k's axis k moved last, into one
    envelope_batch call, so every node's lines must have one length; there
    is no call when no line differs.  The envelopes are scattered back the
    same way into a copy of stored.  The kernel envelopes each row on its
    own, so every node gets the same floats as when it is enveloped alone.
    """
    moved = [np.moveaxis(source, k, -1) for k, source in enumerate(sources)]
    if previous is None:
        changed = [np.ones(lines.shape[:-1], dtype=bool) for lines in moved]
    else:
        changed = [np.any(source.view(np.uint64) != before.view(np.uint64), axis=k)
                   for k, (source, before) in enumerate(zip(sources, previous))]
    batch = np.concatenate([lines[rows] for lines, rows in zip(moved, changed)])
    if len(batch):
        batch = envelope_batch(batch)
    fields, start = [], 0
    for k, (old, rows) in enumerate(zip(stored, changed)):
        data = np.empty(old.shape) if previous is None else old.copy()
        stop = start + int(np.count_nonzero(rows))
        np.moveaxis(data, k, -1)[rows] = batch[start:stop]
        start = stop
        fields.append(data)
    return tuple(fields), max(map(sup_delta, fields, stored)), start


def gap(a, b) -> np.ndarray:
    """a - b elementwise as float64, for arrays, lists or scalars, with
    BOTTOM conventions: 0 where neither side is finite, +inf where only a
    is, -inf where only b is.  Only entries finite on both sides are
    subtracted, so no inf - inf is ever evaluated."""
    fin_a, fin_b = np.isfinite(a), np.isfinite(b)
    out = np.subtract(a, b, out=np.zeros(np.broadcast(a, b).shape), where=fin_a & fin_b)
    one = fin_a != fin_b
    if one.any():  # rare once the finite support stops growing
        np.copyto(out, np.where(fin_a, np.inf, -np.inf), where=one)
    return out


def sup_delta(new: np.ndarray, old: np.ndarray) -> float:
    """Sup-norm distance with BOTTOM conventions (see gap); 0 for empty
    arrays, as the compiled sweep's."""
    d = gap(new, old)
    return float(np.max(np.abs(d, out=d), initial=0.0))


def bank_sup_delta(new: FieldBank, old: FieldBank) -> float:
    """Max sup delta over the stored nodes of two banks of one period (a
    sweep keeps the period).  Node k > period is the same rotation of an
    earlier node in both banks, which permutes the compared entries without
    changing them."""
    return max(sup_delta(n.data, o.data) for n, o in zip(new.fields, old.fields))


def cross_k_gap(bank: FieldBank) -> float:
    """Max disagreement between node fields over the grid (BOTTOM-aware)."""
    worst = 0.0
    for a, b in itertools.combinations(bank.node_fields(), 2):
        worst = max(worst, sup_delta(a.data, b.data))
    return worst


def check_budget(t_max: int, eps: float) -> None:
    """Reject a sweep budget or stop threshold that run() cannot use."""
    if t_max < 0:
        raise ConfigError(f"t_max must be >= 0, got {t_max}")
    if not eps > 0.0:
        raise ConfigError(f"eps must be > 0, got {eps}")


def sweeps(grid: GridSpec, f: FunctionTable, t_max: int, eps: float):
    """The one sweep loop: yields (initial_bank, None), then (bank, delta)
    for each sweep, bank being sweep_once of the bank before and delta its
    bank_sup_delta against that bank (bank.delta).  It stops after t_max
    sweeps, or right after the first delta that is at most eps."""
    bank = initial_bank(grid, f)
    yield bank, None
    for _ in range(t_max):
        bank = sweep_once(bank)
        yield bank, bank.delta
        if bank.delta <= eps:
            return


def run(grid: GridSpec, f: FunctionTable, t_max: int, eps: float,
        tracked: tuple[GridIndex, ...] = ()) -> RunResult:
    """Record every bank of sweeps (the one sweep loop) at the tracked
    points, and name the stop by ConvergenceTrace.stop_reason.

    Non-convergence at t_max is a reported status, not an error.  Note the
    eps stop carries no guaranteed distance to the infinite-message limit:
    no convergence-rate bound is available, and the caveat travels with the
    result metadata downstream.
    """
    check_budget(t_max, eps)
    trace = ConvergenceTrace(tuple(tuple(p) for p in tracked))
    for bank, delta in sweeps(grid, f, t_max, eps):
        trace.record(bank, delta)
    return RunResult(bank, trace, bank.tau, trace.stop_reason(eps), cross_k_gap(bank))


def sum_rate_field(field_in: RateReductionField) -> np.ndarray:
    """Pointwise minimum sum-rate of a field: gap(h, rho), joint entropy h
    minus rate reduction rho.  h is finite, so BOTTOM (or any non-finite rho)
    maps to +inf: computation infeasible with these messages."""
    return gap(entropy_grid(field_in.grid), field_in.data)
