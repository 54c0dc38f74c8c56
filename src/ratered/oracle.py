"""Brute-force single-message check, independent of the envelope machinery.

For one transmitting node with a binary alphabet, the best single message
is an arbitrary conditional from that coordinate to a small auxiliary
alphabet.  This module enumerates every row-stochastic 2 x |U| conditional
whose entries lie on a step-delta grid, keeps those that make the target
almost surely constant given every live message value, and maximizes the
expected posterior joint entropy.  Feasibility is decided combinatorially
(constancy of the target on the posterior's product support, with supports
read off exact zeros) — never by thresholding a conditional entropy.

Every pair of conditional rows (given X_k = 0, given X_k = 1) is still
searched; nothing is pruned.  What is shared is the per-message-value
arithmetic: the contribution of message value u to a pair, and whether u
keeps the target constant, depend only on the pmf and on the entry pair
(given0[u], given1[u]) = (a/n, b/n).  They are computed once per point on
the (n+1) x (n+1) entry table and gathered per pair, so each pair costs |U|
table lookups and additions instead of a full posterior evaluation.

Nothing here touches the envelope code path; agreement between the two is
a genuine cross-check, limited only by the search-grid resolution.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .envelope import BOTTOM
from .errors import ConfigError
from .lattice import initial_bank, sweep_once
from .probability import GridIndex, GridSpec, ProductPmf, binary_entropy, reciprocal_steps
from .target_functions import FunctionTable

# np.sum along a contiguous axis shorter than this is a left fold; from this
# length on numpy switches to its eight-accumulator pairwise summation.
_LEFT_FOLD_TERMS = 8


@dataclass(frozen=True)
class ConditionalSearchSpec:
    """Search space for the message conditional of one transmitting node.

    u1_cardinality of 3 (binary source alphabet plus one) already spans
    every achievable value; it is a knob so that monotonicity in the
    auxiliary alphabet size stays testable.
    """

    k: int
    search_step: float
    u1_cardinality: int = 3

    def __post_init__(self) -> None:
        if self.u1_cardinality < 1:
            raise ConfigError(
                f"u1_cardinality must be >= 1, got {self.u1_cardinality}"
            )
        self.n_search_steps  # raises ConfigError unless search_step is 1/N

    @property
    def n_search_steps(self) -> int:
        return reciprocal_steps(self.search_step, "search_step must be in (0, 1], got {}",
                                "search_step {} is not the reciprocal of an integer")


@lru_cache(maxsize=None)
def _stochastic_rows(n_steps: int, parts: int) -> np.ndarray:
    """All compositions of n_steps into `parts` non-negative integers, in
    lexicographic order (deterministic tie-breaking downstream); row / n_steps
    is a probability row on the 1/n_steps grid.  Read-only: it is cached."""

    def compositions(total: int, slots: int):
        if slots == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in compositions(total - first, slots - 1):
                yield (first,) + rest

    rows = np.array(list(compositions(n_steps, parts)), dtype=np.intp)
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


def _entry_tables(
    pk: float, n_steps: int, constancy: tuple[bool, bool, bool]
) -> tuple[np.ndarray, np.ndarray]:
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
    """Every (given0 row, given1 row) pair of the search grid, in chunks of
    given0 rows that keep each temporary near 1 MB.  Yields, per chunk that
    holds a feasible pair, the summed message-value terms of each pair,
    shape (chunk, rows), and which pairs are feasible (None when all are).

    A pair's |U| terms are gathered from the per-entry table and summed in
    the order np.sum uses along a length-|U| axis: a left fold
    ((t_0 + t_1) + t_2) + ... below eight terms, np.sum itself from there on.
    A pair is feasible when each of its message values is admissible.
    """
    k = spec.k
    n_steps, parts = spec.n_search_steps, spec.u1_cardinality
    term, admissible = _entry_tables(p[k - 1], n_steps, _support_constancy(f, p, k))

    # table[:, codes[:, u]][a, s] is the entry for given0[u] = a/n and the
    # u-th entry of given1 row s
    codes = _stochastic_rows(n_steps, parts)
    terms = [term[:, codes[:, u]] for u in range(parts)]
    oks = None if admissible.all() else [admissible[:, codes[:, u]] for u in range(parts)]

    n_rows = codes.shape[0]
    chunk = max(1, min(n_rows, (1 << 17) // max(n_rows, 1) + 1))
    for lo in range(0, n_rows, chunk):
        given0 = codes[lo : lo + chunk]
        feasible = None
        if oks is not None:
            feasible = oks[0][given0[:, 0]]
            for u in range(1, parts):
                feasible &= oks[u][given0[:, u]]
            if not feasible.any():
                continue
        if parts < _LEFT_FOLD_TERMS:
            total = terms[0][given0[:, 0]]
            for u in range(1, parts):
                total += terms[u][given0[:, u]]
        else:
            total = np.stack([terms[u][given0[:, u]] for u in range(parts)], axis=-1)
            total = np.sum(total, axis=-1)
        yield total, feasible


def single_message_reduction(
    p: ProductPmf, f: FunctionTable, spec: ConditionalSearchSpec
) -> float:
    """Best rate reduction achievable with one message from node spec.k.

    Returns the maximal expected posterior joint entropy over all feasible
    searched conditionals, or BOTTOM when none makes f almost surely
    constant for every live message value.

    Every pair of conditional rows is evaluated (`_feasible_chunks`).  The
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
    best = BOTTOM
    for total, feasible in _feasible_chunks(p, f, spec):
        cand = float(total.max() if feasible is None else total[feasible].max())
        if cand > best:
            best = cand
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
    rows: tuple[ComparisonRow, ...]
    k: int
    search_step: float
    u1_cardinality: int
    slack: float
    worst_gap: float
    within_contract: bool

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "search_step": self.search_step,
            "u1_cardinality": self.u1_cardinality,
            "slack": self.slack,
            "worst_gap": self.worst_gap,
            "within_contract": self.within_contract,
            "rows": [
                {
                    "point": list(r.point),
                    "envelope_value": r.envelope_value,
                    "oracle_value": r.oracle_value,
                    "gap": r.gap,
                    "envelope_feasible": r.envelope_feasible,
                    "oracle_feasible": r.oracle_feasible,
                }
                for r in self.rows
            ],
        }


def resolution_slack(search_step: float, m: int) -> float:
    """Allowance for the oracle searching conditionals only on its own grid:
    an entropy term for perturbed posteriors plus a linear mass term.  Coarse
    by design; observed gaps are asserted against far tighter bands in tests.
    """
    return binary_entropy(min(search_step, 0.5)) + m * search_step


def compare_with_envelope(
    grid: GridSpec,
    f: FunctionTable,
    k: int,
    points: tuple[GridIndex, ...],
    spec: ConditionalSearchSpec,
) -> ComparisonReport:
    """Per-point gap between one envelope sweep and the brute-force search.

    gap = envelope - oracle; two BOTTOM sides count as gap 0.  Contract:
    every gap within [-1e-9, slack] and feasibility verdicts agree.
    """
    if spec.k != k:
        raise ValueError(f"spec.k={spec.k} does not match k={k}")
    if f.m != grid.m:
        raise ValueError(f"function arity {f.m} != grid m={grid.m}")
    for pt in points:
        if len(pt) != grid.m or any(not 0 <= i <= grid.n_steps for i in pt):
            raise ValueError(f"point {pt} outside the grid")

    field = sweep_once(initial_bank(grid, f)).field_for(k)
    slack = resolution_slack(spec.search_step, grid.m)

    rows = []
    worst = 0.0
    ok = True
    for pt in points:
        env = field.value_at(pt)
        ora = single_message_reduction(grid.pmf_at(pt), f, spec)
        env_feasible = env != BOTTOM
        ora_feasible = ora != BOTTOM
        if not env_feasible and not ora_feasible:
            gap = 0.0
        elif env_feasible != ora_feasible:
            gap = float("inf") if env_feasible else float("-inf")
        else:
            gap = env - ora
        rows.append(
            ComparisonRow(
                point=tuple(pt),
                envelope_value=env,
                oracle_value=ora,
                gap=gap,
                envelope_feasible=env_feasible,
                oracle_feasible=ora_feasible,
            )
        )
        if abs(gap) > abs(worst):
            worst = gap
        if not (-1e-9 <= gap <= slack) or env_feasible != ora_feasible:
            ok = False
    return ComparisonReport(
        rows=tuple(rows),
        k=k,
        search_step=spec.search_step,
        u1_cardinality=spec.u1_cardinality,
        slack=slack,
        worst_gap=worst,
        within_contract=ok,
    )
