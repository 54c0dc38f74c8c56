"""Brute-force single-message check, independent of the envelope machinery.

For one transmitting node with a binary alphabet, the best single message
is an arbitrary conditional from that coordinate to a small auxiliary
alphabet.  This module enumerates every row-stochastic 2 x |U| conditional
on a step-delta grid, keeps those that make the target almost surely
constant given every live message value, and maximizes the expected
posterior joint entropy.  Feasibility is decided combinatorially (constancy
of the target on the posterior's product support, with supports read off
exact zeros) — never by thresholding a conditional entropy.

Every pair of conditional rows (given X_k = 0, given X_k = 1) is searched,
up to its mirror: swapping entries 0 and 1 of both rows gives a pair of the
grid with the same terms and admissibility.  The terms are summed by a left
fold in message order, whose first addition commutes, so the mirror has the
same sum bits at every |U| >= 2 and only given0 rows with entry 0 <= entry 1
are summed.  A message value's term in a pair, and whether it keeps
the target constant, depend only on the pmf and on its entry pair
(given0[u], given1[u]) = (a/n, b/n), so they are tabled once per point.
Runs of given0 rows then read each value's terms as a view of its table
(`_feasible_chunks`), and a pair costs |U| additions.  Nothing here touches
the envelope code; agreement between the two is a genuine cross-check,
limited only by the search-grid resolution.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass
from functools import lru_cache

import numpy as np

from .envelope import BOTTOM
from .errors import ConfigError
from .lattice import gap, initial_bank, sweep_once
from .probability import GridIndex, GridSpec, ProductPmf, binary_entropy, reciprocal_steps
from .target_functions import FunctionTable

# floats per temporary of the search (1 MB) and bytes of one point's tables
_TEMP_FLOATS = 1 << 17
_TABLE_BYTES = 1 << 28
_ENTRY_BYTES = 101  # tracemalloc peak of _entry_tables per (a, b) entry


@dataclass(frozen=True)
class ConditionalSearchSpec:
    """Search space for the message conditional of one transmitting node.

    u1_cardinality of 3 (binary source alphabet plus one) already spans
    every achievable value; it is a knob so that monotonicity in the
    auxiliary alphabet size stays testable.  A search whose per-point tables
    (a float and a bool per message value, table row and conditional row,
    plus the entry tables) would pass _TABLE_BYTES is rejected before any
    row is built.
    """

    k: int
    search_step: float
    u1_cardinality: int = 3

    def __post_init__(self) -> None:
        if self.u1_cardinality < 1:
            raise ConfigError(f"u1_cardinality must be >= 1, got {self.u1_cardinality}")
        n, parts = self.n_search_steps, self.u1_cardinality
        rows = math.comb(n + parts - 1, parts - 1)
        table_bytes = 9 * parts * (n + 1) * rows + _ENTRY_BYTES * (n + 1) ** 2
        if table_bytes > _TABLE_BYTES:
            raise ConfigError(f"u1_cardinality {parts} at search_step {self.search_step:g} "
                              f"needs {rows:,} conditional rows, {rows * rows:,} pairs and "
                              f"{table_bytes:,} bytes of tables per point, over the "
                              f"{_TABLE_BYTES:,}-byte limit")

    @property
    def n_search_steps(self) -> int:
        return reciprocal_steps(self.search_step, "search_step must be in (0, 1], got {}",
                                "search_step {} is not the reciprocal of an integer")


@lru_cache(maxsize=None)
def _stochastic_rows(n_steps: int, parts: int) -> np.ndarray:
    """All compositions of n_steps into `parts` non-negative integers, in
    lexicographic order (deterministic tie-breaking downstream), read off
    the bar positions of stars and bars; row / n_steps is a probability row
    on the 1/n_steps grid.  Read-only: it is cached."""
    bars = list(itertools.combinations(range(n_steps + parts - 1), parts - 1))
    bars = np.array(bars, dtype=np.intp).reshape(len(bars), parts - 1)
    rows = np.diff(bars, prepend=-1, append=n_steps + parts - 1, axis=1) - 1
    rows.flags.writeable = False
    return rows


def _support_constancy(f: FunctionTable, p: ProductPmf, k: int) -> tuple[bool, bool, bool]:
    """Whether f is a.s. constant when coordinate k's support is {0}, {1},
    or {0,1}, with every other coordinate's support taken from p."""
    others = [p.support(j) for j in range(f.m) if j != k - 1]

    def constant_over(sk: tuple[int, ...]) -> bool:
        it = itertools.product(*others[: k - 1], sk, *others[k - 1 :])
        first = f(next(it))
        return all(f(x) == first for x in it)

    return constant_over((0,)), constant_over((1,)), constant_over((0, 1))


def _entry_tables(pk: float, n_steps: int,
                  constancy: tuple[bool, bool, bool]) -> tuple[np.ndarray, np.ndarray]:
    """Per message value u with given0[u] = a/n and given1[u] = b/n: its term
    P(U=u) h(P(X_k=1 | U=u)) and whether it is admissible (dead, or leaving f
    constant), as (n+1) x (n+1) tables indexed [a, b].  Each entry is the
    same elementwise float expression as evaluating that message value of
    one pair of conditional rows in full, so it is bitwise that value; h is
    taken as 0 wherever the rounded posterior is exactly 0 or 1."""
    ok0, ok1, ok01 = constancy
    entries = np.arange(n_steps + 1, dtype=np.float64) / float(n_steps)
    given0, given1 = np.meshgrid(entries, entries, indexing="ij")
    mass0 = (1.0 - pk) * given0
    mass1 = pk * given1
    p_u = mass0 + mass1
    live = p_u > 0.0
    post = np.divide(mass1, p_u, out=np.zeros_like(p_u), where=live)
    at_zero = mass1 == 0.0
    at_one = mass0 == 0.0
    u_ok = np.where(at_zero, ok0, np.where(at_one, ok1, ok01))
    # tested on the rounded posterior: with p_k within an ulp or so of 1 it
    # can round to 1 although mass0 > 0, and log2(1 - q) would give NaN
    interior = (post > 0.0) & (post < 1.0)
    h_post = np.zeros_like(post)
    q = post[interior]
    h_post[interior] = -(q * np.log2(q) + (1.0 - q) * np.log2(1.0 - q))
    return p_u * h_post, u_ok | ~live


def _feasible_chunks(p: ProductPmf, f: FunctionTable, spec: ConditionalSearchSpec):
    """Every (given0 row, given1 row) pair of the search grid, up to its
    mirror, by slices of consecutive given0 rows.  Yields, per slice holding
    a feasible pair, its first given0 row, each pair's summed message-value
    terms, shape (slice, rows), and which pairs are feasible (None when all
    are).  For |U| >= 2 only given0 rows with entry 0 <= entry 1 are
    summed: (j, n - j) for j <= n // 2, (head[0], j, rem - j) for j >=
    head[0], and whole runs with head[0] <= head[1].

    In lexicographic order, the rows sharing their first |U| - 2 entries
    form a run of rem + 1 rows whose entry |U| - 2 counts up 0..rem while
    the last counts down rem..0.  Over a run, the terms of each of the first
    |U| - 2 values are one table row, broadcast; value |U| - 2 reads the
    slice [0:rem + 1] and the last value the reversed slice [rem::-1].  Runs
    are cut into slices of _TEMP_FLOATS // rows + 1 given0 rows, so each
    temporary stays near 1 MB.  The terms are summed by a left fold in
    message order, so a pair and its mirror have the same sum bits.  The
    term tables are built at the first slice with a feasible pair.
    """
    n_steps, parts = spec.n_search_steps, spec.u1_cardinality
    term, admissible = _entry_tables(p[spec.k - 1], n_steps, _support_constancy(f, p, spec.k))

    # tables(t)[u][a, s]: t's entry for given0[u] = a/n and the u-th entry of
    # given1 row s; np.take keeps table rows contiguous (a fancy index does not)
    codes = _stochastic_rows(n_steps, parts)

    def tables(t):
        return [np.take(t, codes[:, u], axis=1) for u in range(parts)]

    oks, terms = (None if admissible.all() else tables(admissible)), None

    def views(table, head, rem, j0, j1):
        # the entries of given0 rows j0..j1-1 of the run (*head, j, rem - j)
        out = [table[u][a] for u, a in enumerate(head)]
        if parts > 1:
            out.append(table[parts - 2][j0:j1])
        out.append(table[parts - 1][rem - j1 + 1 : rem - j0 + 1][::-1])
        return out

    def fold(arrays, op):
        # left fold, in place once the result is an array of its own and full size
        acc = arrays[0]
        for a in arrays[1:]:
            acc = op(acc, a) if acc is arrays[0] or acc.ndim < a.ndim else op(acc, a, out=acc)
        return acc

    # each run as its shared entries and rem, in row order
    runs = _stochastic_rows(n_steps, parts - 1).tolist() if parts > 1 else [[n_steps]]
    span, lo = _TEMP_FLOATS // len(codes) + 1, 0
    for *head, rem in runs:
        length = rem + 1 if parts > 1 else 1
        start = head[0] if parts == 3 else 0
        stop = rem // 2 + 1 if parts == 2 else 0 if parts > 3 and head[1] < head[0] else length
        for j0 in range(start, stop, span):
            j1 = min(stop, j0 + span)
            feasible = None if oks is None else fold(views(oks, head, rem, j0, j1), np.logical_and)
            if feasible is not None and not feasible.any():
                continue
            terms = terms or tables(term)
            yield lo + j0, fold(views(terms, head, rem, j0, j1), np.add), feasible
        lo += length


def single_message_reduction(p: ProductPmf, f: FunctionTable,
                             spec: ConditionalSearchSpec) -> float:
    """Best rate reduction achievable with one message from node spec.k.

    Returns the maximal expected posterior joint entropy over all feasible
    searched conditionals, or BOTTOM when none makes f almost surely
    constant for every live message value.

    Every pair of conditional rows is evaluated, or read off its mirror, a
    pair with the same sum bits and feasibility (`_feasible_chunks`).  The
    entropy of the other coordinates, base, is added once, after the
    maximum: rounding to nearest is monotone, so fl(base + max S) equals
    max fl(base + S), the maximum over the feasible pairs of base plus the
    pair's sum, bit for bit.
    """
    m = f.m
    if p.m != m:
        raise ValueError(f"pmf arity {p.m} != function arity {m}")
    if not 1 <= spec.k <= m:
        raise ValueError(f"node {spec.k} outside 1..{m}")

    base = 0.0
    for j in range(m):
        if j != spec.k - 1:
            base += binary_entropy(p[j])
    best = BOTTOM  # max keeps it unless a chunk's maximum is greater, so never NaN
    for _, total, feasible in _feasible_chunks(p, f, spec):
        best = max(best, float(total.max() if feasible is None else
                               np.max(total, where=feasible, initial=BOTTOM)))
    return base + best


@dataclass(frozen=True)
class ComparisonRow:
    point: GridIndex
    envelope_value: float
    oracle_value: float
    gap: float
    envelope_feasible: bool
    oracle_feasible: bool

    @property
    def feasibility_agrees(self) -> bool:
        return self.envelope_feasible == self.oracle_feasible


@dataclass(frozen=True)
class ComparisonReport:
    k: int
    search_step: float
    u1_cardinality: int
    slack: float
    worst_gap: float
    within_contract: bool
    rows: tuple[ComparisonRow, ...]

    def to_dict(self) -> dict:
        return asdict(self)


def resolution_slack(search_step: float, m: int) -> float:
    """Allowance for the oracle searching conditionals only on its own grid:
    an entropy term for perturbed posteriors plus a linear mass term.  Coarse
    by design; observed gaps are asserted against far tighter bands in tests.
    """
    return binary_entropy(min(search_step, 0.5)) + m * search_step


def compare_with_envelope(grid: GridSpec, f: FunctionTable, points: tuple[GridIndex, ...],
                          spec: ConditionalSearchSpec) -> ComparisonReport:
    """Per-point gap between one envelope sweep of node spec.k and the
    brute-force search.

    gap = envelope - oracle by lattice.gap: two BOTTOM sides give 0.  Contract:
    every gap within [-1e-9, slack] and feasibility verdicts agree.
    """
    if f.m != grid.m:
        raise ValueError(f"function arity {f.m} != grid m={grid.m}")
    for pt in points:
        if len(pt) != grid.m or any(not 0 <= i <= grid.n_steps for i in pt):
            raise ValueError(f"point {pt} outside the grid")

    field = sweep_once(initial_bank(grid, f)).field_for(spec.k)
    slack = resolution_slack(spec.search_step, grid.m)

    envs = [field.value_at(pt) for pt in points]
    oras = [single_message_reduction(grid.pmf_at(pt), f, spec) for pt in points]
    rows = []
    worst = 0.0
    ok = True
    for pt, env, ora, diff in zip(points, envs, oras, gap(envs, oras).tolist()):
        env_feasible, ora_feasible = env != BOTTOM, ora != BOTTOM
        rows.append(ComparisonRow(tuple(pt), env, ora, diff, env_feasible, ora_feasible))
        if abs(diff) > abs(worst):
            worst = diff
        if not (-1e-9 <= diff <= slack) or env_feasible != ora_feasible:
            ok = False
    return ComparisonReport(spec.k, spec.search_step, spec.u1_cardinality, slack, worst,
                            ok, tuple(rows))
