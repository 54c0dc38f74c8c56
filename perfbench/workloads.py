"""Benchmark workloads: the CLI calls each one makes, the work it does, and
the checks its outputs must pass.

The seed chooses only the tracked points and the random oracle points; the
program sees nothing but the generated argv and files.  The benchmark draws
the random oracle points itself, a fixed number from each class of
``oracle_point_class``: the search costs about 0.1 s at an infeasible point,
0.16 s at a feasible one where node 3's bit is known, and 0.3 s at the other
feasible points.  ``--n-random`` draws 0 to 5 feasible points in 10, which
moved the oracle's wall time by 25 % between seeds.

Every check compares either seed-independent facts against
``reference.json`` (recorded from the seed commit by ``record_reference.py``)
or one output against another output of the same iteration.  No whole JSON
file is ever digested: ``metadata.json`` carries ``elapsed_seconds`` and
``threads``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

ROUNDTRIP = "roundtrip-min3-d002"
CONVERGE = "converge-sel4-d01"
ORACLE = "oracle-min3-d01"
WORKLOADS = (ROUNDTRIP, CONVERGE, ORACLE)

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# Grid steps are 1/N; "tiny" keeps every code path at a size the self-test
# can afford.
SCALES = {
    "full": {"rt_steps": 50, "cv_steps": 10, "or_steps": 10, "or_search_steps": 50,
             "or_classes": (7, 1, 2)},
    "tiny": {"rt_steps": 4, "cv_steps": 4, "or_steps": 4, "or_search_steps": 4,
             "or_classes": (1, 1, 1)},
}
ROUNDTRIP_T_MAX = 12
CONVERGE_T_MAX = 200
N_TRACKED = 3
ORACLE_U1 = 3

# The ten points of acceptance test a08, as indices on the delta=0.1 grid.
A08_POINTS = ((10, 10, 5), (5, 5, 5), (0, 3, 7), (3, 0, 7), (10, 5, 3),
              (5, 10, 4), (2, 9, 0), (9, 9, 9), (10, 10, 10), (4, 6, 2))

FIELD_CSVS = ("field_k1.csv", "field_k2.csv", "field_k3.csv", "field_max.csv")


@dataclass(frozen=True)
class Plan:
    """One workload iteration: the argv of each CLI call and what to check."""

    name: str
    calls: tuple[tuple[str, ...], ...]
    out: Path
    steps: int                  # grid steps N per axis
    tracked: tuple[tuple[int, ...], ...]
    fixed_points: tuple[tuple[int, ...], ...] = ()
    random_points: tuple[tuple[int, ...], ...] = ()
    search_steps: int = 0


def _step(n: int) -> str:
    return repr(1.0 / n)


def _pmf(index, n: int) -> str:
    return ",".join(repr(i / n) for i in index)


def _track_args(tracked, n: int) -> list[str]:
    args: list[str] = []
    for index in tracked:
        args += ["--track", _pmf(index, n)]
    return args


def selector(x1: int, x2: int, x3: int, x4: int) -> int:
    """f = x1 ? (x2 AND x3) : (x3 OR x4)."""
    return (x2 & x3) if x1 else (x3 | x4)


def min3_feasible_after_node3(index, n: int) -> bool:
    """Whether one message from node 3 lets the sink compute min of three
    bits at grid index i/n: min is already constant if a source is a.s. 0,
    and node 3 can reveal its bit whenever the other two are a.s. 0 or both
    a.s. 1."""
    i1, i2, i3 = index
    return 0 in (i1, i2, i3) or (i1 == n and i2 == n)


def oracle_point_class(index, n: int) -> int:
    """0: infeasible; 1: feasible with p3 at 0 or 1; 2: feasible otherwise.

    The full-grid shares at delta = 0.1 are 990, 143 and 198 of 1331 points.
    """
    if not min3_feasible_after_node3(index, n):
        return 0
    return 1 if index[2] in (0, n) else 2


def write_selector_table(path: Path) -> None:
    """Write the converge workload's truth table, refusing it if any input
    permutation leaves it unchanged (the workload must bypass symmetry
    reductions)."""
    table = {x: selector(*x) for x in itertools.product((0, 1), repeat=4)}
    for perm in itertools.permutations(range(4)):
        if perm == (0, 1, 2, 3):
            continue
        if all(table[tuple(x[i] for i in perm)] == z for x, z in table.items()):
            raise ValueError(f"selector table is invariant under permutation {perm}")
    lines = ["arity m=4 alphabets=2,2,2,2 outputs=0,1"]
    lines += [f"{' '.join(map(str, x))} -> {z}" for x, z in table.items()]
    path.write_text("\n".join(lines) + "\n")


def make_plan(name: str, seed: int, scale: str, workdir: Path) -> Plan:
    """Build the CLI calls of one workload; writes any input file it needs."""
    s = SCALES[scale]
    rng = random.Random(f"{name}:{seed}")
    out = workdir / "out"
    if name == ROUNDTRIP:
        n = s["rt_steps"]
        tracked = tuple(tuple(rng.randint(0, n) for _ in range(3)) for _ in range(N_TRACKED))
        t_max = str(ROUNDTRIP_T_MAX)
        run = ("run", "--function", "min", "--m", "3", "--delta", _step(n),
               "--t-max", t_max, "--eps", "1e-300", *_track_args(tracked, n),
               "--slice", "p3=0", "--emit", "fields-csv,trace-csv,trace-svg,report-json",
               "-o", str(out))
        certify = ("certify", "--field", str(out / "field_max.csv"), "--function", "min",
                   "--t-max", t_max, "--eps", "1e-300", "-o", str(out))
        return Plan(name, (run, certify), out, n, tracked)
    if name == CONVERGE:
        n = s["cv_steps"]
        table = workdir / "selector4.txt"
        write_selector_table(table)
        tracked = tuple(tuple(rng.randint(0, n) for _ in range(4)) for _ in range(N_TRACKED))
        run = ("run", "--function", str(table), "--m", "4", "--delta", _step(n),
               "--eps", "1e-6", "--t-max", str(CONVERGE_T_MAX), *_track_args(tracked, n),
               "--emit", "trace-csv,report-json", "-o", str(out))
        return Plan(name, (run,), out, n, tracked)
    if name == ORACLE:
        n = s["or_steps"]
        fixed = tuple(tuple(round(i * n / 10) for i in p) for p in A08_POINTS)
        grid = list(itertools.product(range(n + 1), repeat=3))
        drawn = []
        for cls, count in enumerate(s["or_classes"]):
            drawn += rng.sample([p for p in grid if oracle_point_class(p, n) == cls], count)
        rng.shuffle(drawn)
        args = ["oracle-check", "--function", "min", "--m", "3", "--delta", _step(n),
                "--k", "3", "--search-step", _step(s["or_search_steps"]),
                "--u1-cardinality", str(ORACLE_U1)]
        for point in A08_POINTS:
            args += ["--point", _pmf(point, 10)]
        for point in drawn:
            args += ["--point", _pmf(point, n)]
        args += ["-o", str(out)]
        return Plan(name, (tuple(args),), out, n, (), fixed, tuple(drawn),
                    s["or_search_steps"])
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")


def work_per_iteration(plan: Plan, ref: dict) -> tuple[float, str]:
    """Work one iteration does, and what is counted.

    Run workloads count grid-point updates (points x m x sweeps, summed over
    the calls); the oracle counts searched pairs of conditional rows.
    """
    if plan.name == ROUNDTRIP:
        # run and certify each iterate the same number of sweeps
        return 2 * (plan.steps + 1) ** 3 * 3 * ref["t_stop"], "grid-point updates"
    if plan.name == CONVERGE:
        return (plan.steps + 1) ** 4 * 4 * ref["t_stop"], "grid-point updates"
    rows = math.comb(plan.search_steps + ORACLE_U1 - 1, ORACLE_U1 - 1)
    return (len(plan.fixed_points) + len(plan.random_points)) * rows**2, "conditional pairs"


def load_reference(scale: str) -> dict:
    return json.loads(REFERENCE_PATH.read_text())[scale]


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _last_max_rows(trace_csv: Path) -> dict[int, str]:
    """rho of the last 'max' row per point_id in a t,k,point_id,rho trace."""
    last: dict[int, str] = {}
    for line in trace_csv.read_text().splitlines()[1:]:
        _t, k, pid, rho = line.split(",")
        if k == "max":
            last[int(pid)] = rho
    return last


def _check_tracked(plan: Plan, meta: dict, problems: list[str]) -> None:
    snapped = [tuple(rec["snapped_index"]) for rec in meta["tracked"]]
    if snapped != list(plan.tracked):
        problems.append(f"tracked points snapped to {snapped}, expected {list(plan.tracked)}")


def _observe_roundtrip(plan: Plan, problems: list[str]) -> dict:
    out, n = plan.out, plan.steps
    meta = json.loads((out / "metadata.json").read_text())
    _check_tracked(plan, meta, problems)
    report = json.loads((out / "certify_report.json").read_text())
    membership, optimality = report["membership"], report["optimality"]

    field_rows = (out / "field_max.csv").read_text().splitlines()

    def field_cells(index) -> list[str]:
        flat = (index[0] * (n + 1) + index[1]) * (n + 1) + index[2]
        cells = field_rows[1 + flat].split(",")
        if tuple(int(c) for c in cells[:3]) != tuple(index):
            raise ValueError(f"field_max.csv is not in row-major order at {index}")
        return cells

    slice_rows = (out / "slice_p3_0.csv").read_text().splitlines()[1:]
    if len(slice_rows) != (n + 1) ** 2:
        problems.append(f"slice_p3_0.csv has {len(slice_rows)} rows, expected {(n + 1) ** 2}")
    for row in slice_rows:
        cells = row.split(",")
        f = field_cells((int(cells[0]), int(cells[1]), 0))
        if cells != [f[0], f[1], f[3], f[4], f[6], f[7]]:
            problems.append(f"slice row {row!r} disagrees with field_max.csv row {f}")
            break

    last = _last_max_rows(out / "trace.csv")
    for pid, index in enumerate(plan.tracked):
        if last.get(pid) != field_cells(index)[6]:
            problems.append(f"trace.csv last max of point {pid} is {last.get(pid)!r}, "
                            f"field_max.csv has {field_cells(index)[6]!r}")

    return {
        "t_stop": meta["t_stop"],
        "stop_reason": meta["stop_reason"],
        "field_sha256": {name: _sha256(out / name) for name in FIELD_CSVS},
        "certify": {
            "verdict": membership["verdict"],
            "status": optimality["status"],
            "concavity_axis": membership["concavity_axis"],
            "concavity_location": membership["concavity_location"],
            "majorization_location": membership["majorization_location"],
            "gap_location": optimality["gap_location"],
        },
    }


def _observe_converge(plan: Plan, problems: list[str]) -> dict:
    meta = json.loads((plan.out / "metadata.json").read_text())
    _check_tracked(plan, meta, problems)
    last = _last_max_rows(plan.out / "trace.csv")
    if sorted(last) != list(range(len(plan.tracked))):
        problems.append(f"trace.csv covers points {sorted(last)}")
    return {key: meta[key] for key in ("t_stop", "stop_reason", "sup_deltas", "cross_k_gap")}


def _observe_oracle(plan: Plan, problems: list[str]) -> dict:
    report = json.loads((plan.out / "oracle_report.json").read_text())
    rows = report["rows"]
    if not report["within_contract"]:
        problems.append(f"oracle outside contract: worst gap {report['worst_gap']}")
    points = plan.fixed_points + plan.random_points
    if [tuple(r["point"]) for r in rows] != list(points):
        problems.append("oracle report rows are not the requested points")
    for row in rows:
        expect = min3_feasible_after_node3(row["point"], plan.steps)
        if not row["envelope_feasible"] == row["oracle_feasible"] == expect:
            problems.append(f"feasibility at {row['point']}: envelope "
                            f"{row['envelope_feasible']}, oracle {row['oracle_feasible']}, "
                            f"expected {expect}")
    return {"fixed_feasible": [r["oracle_feasible"] for r in rows[: len(plan.fixed_points)]]}


_OBSERVERS = {ROUNDTRIP: _observe_roundtrip, CONVERGE: _observe_converge,
              ORACLE: _observe_oracle}


def observe(plan: Plan) -> tuple[dict, list[str]]:
    """Seed-independent facts of one iteration's outputs, plus the problems
    found by comparing its outputs with each other."""
    problems: list[str] = []
    try:
        facts = _OBSERVERS[plan.name](plan, problems)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return {}, [f"outputs unreadable: {type(exc).__name__}: {exc}"]
    return facts, problems


def check(plan: Plan, ref: dict) -> list[str]:
    """Every problem with one iteration's outputs; empty when correct."""
    facts, problems = observe(plan)
    for key, want in ref.items():
        got = facts.get(key)
        if got != want:
            problems.append(f"{key}: expected {str(want)[:200]}, got {str(got)[:200]}")
    return problems
