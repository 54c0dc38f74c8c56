"""Dense rate-reduction fields over the grid and the per-axis sweep loop.

One field holds the rate reduction (joint entropy minus minimum sum-rate,
in bits) at every grid pmf for one initial node k.  A sweep replaces every
field simultaneously, Jacobi style: the new field for node k is the old
field for node k+1 convexified along axis k, reading only the previous
bank.  Iterating drives every field toward the infinite-message limit from
below; the stopping rule is a sup-norm delta between consecutive fields of
the same node.

BOTTOM (-inf) marks pmfs where computation is infeasible with the messages
granted so far; entries switch from BOTTOM to finite as mixtures fill in,
and such transitions count as infinite deltas so convergence is never
declared while the finite support is still growing.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .envelope import BOTTOM, envelope_batch
from .probability import GridIndex, GridSpec, entropy_grid
from .target_functions import FunctionTable


@dataclass(frozen=True)
class RateReductionField:
    """One rate-reduction functional sampled on the full grid.

    data is a dense (N+1)^m float array; BOTTOM entries are -inf.  tau is
    the number of messages accounted for; k is the initial node the field
    belongs to (0 for the zero-message field, which is node-irrelevant).
    """

    grid: GridSpec
    data: np.ndarray
    tau: int
    k: int

    def value_at(self, index: GridIndex) -> float:
        return float(self.data[tuple(index)])


@dataclass(frozen=True)
class FieldBank:
    """The m per-node fields sharing one grid and one iteration counter."""

    fields: tuple[RateReductionField, ...]
    tau: int

    @property
    def grid(self) -> GridSpec:
        return self.fields[0].grid

    @property
    def m(self) -> int:
        return len(self.fields)

    def field_for(self, k: int) -> RateReductionField:
        return self.fields[k - 1]

    def max_data(self) -> np.ndarray:
        """Pointwise max over the per-node fields: the tightest achievable
        rate-reduction estimate the bank offers."""
        out = self.fields[0].data
        for f in self.fields[1:]:
            out = np.maximum(out, f.data)
        return out

    def max_field(self) -> RateReductionField:
        return RateReductionField(self.grid, self.max_data(), self.tau, 0)


@dataclass
class ConvergenceTrace:
    """Per-sweep values at tracked grid points, plus the global sup deltas."""

    tracked_points: tuple[GridIndex, ...]
    per_k: list          # per_k[p][k-1] = [value at tau=0, 1, ...]
    max_series: list     # max_series[p] = [max over k at tau=0, 1, ...]
    sup_deltas: list     # sup_deltas[t-1] = sup-norm delta of sweep t

    @classmethod
    def empty(cls, tracked: tuple[GridIndex, ...], m: int) -> "ConvergenceTrace":
        return cls(
            tracked_points=tuple(tuple(p) for p in tracked),
            per_k=[[[] for _ in range(m)] for _ in tracked],
            max_series=[[] for _ in tracked],
            sup_deltas=[],
        )

    def record(self, bank: FieldBank) -> None:
        for p, point in enumerate(self.tracked_points):
            values = [f.value_at(point) for f in bank.fields]
            for k0, v in enumerate(values):
                self.per_k[p][k0].append(v)
            self.max_series[p].append(max(values))


@dataclass(frozen=True)
class RunResult:
    bank: FieldBank
    trace: ConvergenceTrace
    t_stop: int
    stop_reason: str          # "converged" or "t_max"
    cross_k_gap: float        # max over grid and node pairs at t_stop
    envelope_chains: int      # envelope batches per sweep: 1 (rotated) or m
    history: tuple[FieldBank, ...] | None = None


def zero_message_mask(grid: GridSpec, f: FunctionTable) -> np.ndarray:
    """Boolean grid of pmfs needing no communication at all.

    Whether f is constant on a product support depends only on each
    marginal's support class (={0}, ={1}, or full), so the 3^m classes are
    scanned once and broadcast over the grid; results agree exactly with
    the per-point predicate.
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
    pattern = np.zeros(grid.shape, dtype=np.intp)
    for ax in range(grid.m):
        shape = [1] * grid.m
        shape[ax] = n + 1
        pattern = pattern * 3 + axis_cat.reshape(shape)
    return ok.reshape(-1)[pattern]


def initial_field(grid: GridSpec, f: FunctionTable) -> RateReductionField:
    """The zero-message rate reduction: the full joint entropy wherever f is
    already almost surely constant, BOTTOM everywhere else."""
    mask = zero_message_mask(grid, f)
    data = np.where(mask, entropy_grid(grid), BOTTOM)
    return RateReductionField(grid=grid, data=data, tau=0, k=0)


def initial_bank(grid: GridSpec, f: FunctionTable) -> FieldBank:
    """All m node fields start from the same zero-message field."""
    base = initial_field(grid, f)
    fields = tuple(
        RateReductionField(grid, base.data.copy(), 0, k)
        for k in range(1, grid.m + 1)
    )
    return FieldBank(fields=fields, tau=0)


def next_node(k: int, m: int) -> int:
    """Cyclic successor: the node that speaks after node k."""
    if not 1 <= k <= m:
        raise ValueError(f"node label {k} outside 1..{m}")
    return k + 1 if k < m else 1


def axis_convexify(
    field_in: RateReductionField, k: int, threads: int = 1
) -> RateReductionField:
    """Replace every 1D line along axis k by its upper concave envelope.

    Lines are independent; the result is bit-identical for any thread count.
    """
    grid = field_in.grid
    if not 1 <= k <= grid.m:
        raise ValueError(f"axis {k} outside 1..{grid.m}")
    ax = k - 1
    length = grid.points_per_axis
    moved = np.moveaxis(field_in.data, ax, -1)
    lines = np.ascontiguousarray(moved).reshape(-1, length)
    new_lines = envelope_batch(lines, threads=threads)
    new_data = np.ascontiguousarray(
        np.moveaxis(new_lines.reshape(moved.shape), -1, ax)
    )
    return RateReductionField(grid=grid, data=new_data, tau=field_in.tau + 1, k=k)


def sweep_once(bank: FieldBank, threads: int = 1) -> FieldBank:
    """One synchronous sweep: new field k = old field (k+1 mod m)
    convexified along axis k, all m reads taken from the previous bank."""
    m = bank.m
    new_fields = tuple(
        axis_convexify(bank.field_for(next_node(k, m)), k, threads=threads)
        for k in range(1, m + 1)
    )
    return FieldBank(fields=new_fields, tau=bank.tau + 1)


def rotate_axes(data: np.ndarray, times: int = 1) -> np.ndarray:
    """R^times(data) as a view, where R(d) = np.moveaxis(d, -1, 0) moves
    every axis j to axis j+1 (mod m)."""
    m = data.ndim
    return np.transpose(data, [(a - times) % m for a in range(m)])


def is_rotation_invariant(data: np.ndarray) -> bool:
    """True iff R(data) equals data bit for bit (float64 compared as bytes,
    so -0.0 != 0.0 and last-ulp differences count)."""
    bits = data.view(np.uint64)
    return np.array_equal(rotate_axes(bits), bits)


def rotated_sweep(bank: FieldBank, threads: int = 1) -> FieldBank:
    """sweep_once for a bank whose fields satisfy F_k = R^(k-1)(F_1).

    One envelope batch, F_1' = axis_convexify(R(F_1), 1), replaces m; the
    other nodes are its rotations F_k' = R^(k-1)(F_1'), materialised as
    contiguous arrays.  The result is bit-identical to sweep_once(bank):
    sweep_once computes F_k' = conv_k(F_{k+1}) = conv_k(R^k(F_1)), and since
    R^(k-1) carries axis 1 to axis k, conv_k(R^(k-1)(G)) = R^(k-1)(conv_1(G))
    with G = R(F_1); the kernel sees the same lines (same values, each line
    enveloped independently), so every float is the same.  The new bank keeps
    F_k' = R^(k-1)(F_1'), so by induction the relation holds at every sweep
    of a run whose zero-message field is invariant under R.
    """
    node1 = bank.field_for(1)
    first = axis_convexify(
        RateReductionField(node1.grid, rotate_axes(node1.data), node1.tau, node1.k),
        1,
        threads=threads,
    )
    fields = (first,) + tuple(
        RateReductionField(
            first.grid, np.ascontiguousarray(rotate_axes(first.data, k - 1)), first.tau, k
        )
        for k in range(2, bank.m + 1)
    )
    return FieldBank(fields=fields, tau=bank.tau + 1)


def sup_delta(new: np.ndarray, old: np.ndarray) -> float:
    """Sup-norm distance with BOTTOM conventions: both BOTTOM counts 0,
    a BOTTOM/finite transition counts +inf."""
    fin_new = np.isfinite(new)
    fin_old = np.isfinite(old)
    if np.any(fin_new != fin_old):
        return float("inf")
    both = fin_new & fin_old
    if not np.any(both):
        return 0.0
    return float(np.max(np.abs(new[both] - old[both])))


def bank_sup_delta(new: FieldBank, old: FieldBank) -> float:
    return max(
        sup_delta(nf.data, of.data) for nf, of in zip(new.fields, old.fields)
    )


def cross_k_gap(bank: FieldBank) -> float:
    """Max disagreement between node fields over the grid (BOTTOM-aware)."""
    worst = 0.0
    for a, b in itertools.combinations(bank.fields, 2):
        worst = max(worst, sup_delta(a.data, b.data))
    return worst


def run(
    grid: GridSpec,
    f: FunctionTable,
    t_max: int,
    eps: float,
    tracked: tuple[GridIndex, ...] = (),
    keep_history: bool = False,
    threads: int = 1,
) -> RunResult:
    """Iterate sweeps until the sup delta falls to eps or t_max is reached.

    Non-convergence at t_max is a reported status, not an error.  Note the
    eps stop carries no guaranteed distance to the infinite-message limit:
    no convergence-rate bound is available, and the caveat travels with the
    result metadata downstream.

    When the zero-message field is bitwise invariant under the axis rotation
    R, every sweep uses rotated_sweep (one envelope chain instead of m) and
    the per-node sup delta is computed once, since rotating both fields
    permutes the compared entries without changing them.  Fields, trace,
    sup deltas and cross-node gap are bit-identical to the sweep_once path.
    The check is on the data, not the truth table: entropy_grid sums the
    marginal entropies in axis order, so e.g. min at m=4, delta=0.1 has a
    cyclic table but a base that differs in the last ulp under R, and keeps
    m chains.
    """
    if t_max < 0:
        raise ValueError(f"t_max must be >= 0, got {t_max}")
    if not eps > 0.0:
        raise ValueError(f"eps must be > 0, got {eps}")

    bank = initial_bank(grid, f)
    trace = ConvergenceTrace.empty(tuple(tracked), grid.m)
    trace.record(bank)
    history = [bank] if keep_history else None
    rotated = is_rotation_invariant(bank.field_for(1).data)

    stop_reason = "t_max"
    for _ in range(t_max):
        if rotated:
            new_bank = rotated_sweep(bank, threads=threads)
            delta = sup_delta(new_bank.field_for(1).data, bank.field_for(1).data)
        else:
            new_bank = sweep_once(bank, threads=threads)
            delta = bank_sup_delta(new_bank, bank)
        trace.sup_deltas.append(delta)
        bank = new_bank
        trace.record(bank)
        if keep_history:
            history.append(bank)
        if delta <= eps:
            stop_reason = "converged"
            break

    return RunResult(
        bank=bank,
        trace=trace,
        t_stop=bank.tau,
        stop_reason=stop_reason,
        cross_k_gap=cross_k_gap(bank),
        envelope_chains=1 if rotated else grid.m,
        history=tuple(history) if history is not None else None,
    )


def sum_rate_field(field_in: RateReductionField) -> np.ndarray:
    """Pointwise minimum sum-rate: joint entropy minus rate reduction.

    BOTTOM maps to +inf (computation infeasible with these messages).
    """
    h = entropy_grid(field_in.grid)
    out = np.where(np.isfinite(field_in.data), h - field_in.data, float("inf"))
    return out
