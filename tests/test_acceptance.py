"""Acceptance suite: one test per shipped guarantee, tolerances pinned.

Every expected value below is recomputed locally (closed forms, exhaustive
reference evaluators) rather than imported from the package, so a regression
in the library cannot silently move the goalposts.
"""

from __future__ import annotations

import math
import time

import numpy as np

from conftest import CENTER, upper_concave_envelope
from ratered import cli
from ratered.certify import check_membership
from ratered.envelope import BOTTOM
from ratered.lattice import (
    RateReductionField,
    initial_bank,
    initial_field,
    sum_rate_field,
    sweep_once,
)
from ratered.oracle import ConditionalSearchSpec, compare_with_envelope
from ratered.probability import GridSpec

TOL_EXACT = 1e-12
TOL_FIELD = 1e-9


def h2(p: float) -> float:
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def min3_zero_message(idx, n_steps) -> bool:
    """MIN of three bits needs no messages iff some input is surely 0 or
    all are surely 1 (the product pmf pins the output)."""
    return any(i == 0 for i in idx) or all(i == n_steps for i in idx)


def entropy_at(idx, n_steps) -> float:
    return sum(h2(i / n_steps) for i in idx)


def test_a01_zero_sweep_field_matches_direct_construction(min3):
    grid = GridSpec.from_delta(3, 0.05)
    assert grid.n_points == 9261

    started = time.perf_counter()
    field = initial_field(grid, min3)
    elapsed = time.perf_counter() - started

    n = grid.n_steps
    for idx in np.ndindex(grid.shape):
        got = field.data[idx]
        if min3_zero_message(idx, n):
            assert abs(got - entropy_at(idx, n)) <= TOL_EXACT, idx
        else:
            assert got == BOTTOM, idx
    assert elapsed < 1.0


def test_a02_one_sweep_reveal_line_is_exact(min3):
    grid = GridSpec.from_delta(3, 0.05)
    bank = sweep_once(initial_bank(grid, min3))
    field3 = bank.field_for(3)
    n = grid.n_steps

    line = field3.data[n, n, :]
    rates = sum_rate_field(field3)[n, n, :]
    for j in range(n + 1):
        assert abs(line[j] - 0.0) <= TOL_EXACT
        assert abs(rates[j] - h2(j / n)) <= TOL_EXACT


def test_a03_sweeps_never_lose_ground_across_node_cycle(history_run):
    banks = history_run
    assert len(banks) == 41
    m = banks[0].m
    for tau in range(1, len(banks)):
        for k in range(1, m + 1):
            new = banks[tau].field_for(k).data
            old = banks[tau - 1].field_for(k % m + 1).data
            mask = old != BOTTOM
            assert np.all(new[mask] >= old[mask] - TOL_EXACT), (tau, k)


def test_a04_entropy_ceiling_and_exactness_on_computable_points(history_run):
    grid = history_run[-1].grid
    n = grid.n_steps
    ceiling = np.zeros(grid.shape)
    feasible = np.zeros(grid.shape, dtype=bool)
    for idx in np.ndindex(grid.shape):
        ceiling[idx] = entropy_at(idx, n)
        feasible[idx] = min3_zero_message(idx, n)

    for tau, bank in enumerate(history_run):
        for k in range(1, bank.m + 1):
            data = bank.field_for(k).data
            assert np.all(data <= ceiling + TOL_FIELD), (tau, k)
            assert np.all(np.abs(data[feasible] - ceiling[feasible]) <= TOL_FIELD), (
                tau,
                k,
            )


def test_a05_finer_grids_trace_monotone_center_growth(delta_sweep_runs):
    results, elapsed = delta_sweep_runs
    assert elapsed < 60.0

    for delta, result in results.items():
        series = result.trace.max_series[0]
        if len(series) < 41:
            # stopped on an exact fixed point; the tail would be constant
            assert result.stop_reason == "converged", delta
            assert result.trace.sup_deltas[-1] == 0.0, delta
        for a, b in zip(series, series[1:]):
            assert b >= a, delta

    fine = results[0.02].trace.max_series[0]
    assert len(fine) == 41
    for t, (a, b) in enumerate(zip(fine, fine[1:])):
        if a == BOTTOM and b == BOTTOM:
            continue  # the envelope has not reached the center yet
        assert b - a > 1e-9, t


def test_a06_center_value_stays_below_revealing_bound(
    delta_sweep_runs, history_run
):
    # revealing two sources outright leaves h2(1/8) of the three bits
    bound = 3.0 - h2(0.125)
    assert abs(bound - 2.4564355568004035) <= TOL_EXACT

    finals = [r.trace.max_series[0][-1] for r in delta_sweep_runs[0].values()]
    last = history_run[-1]
    finals.append(last.max_data()[last.grid.snap(CENTER)])
    for value in finals:
        assert value <= bound + 1e-6


def test_a07_degenerate_third_source_slice_is_two_marginals(history_run):
    bank = history_run[-1]
    n = bank.grid.n_steps
    marginals = np.array(
        [[h2(i / n) + h2(j / n) for j in range(n + 1)] for i in range(n + 1)]
    )
    slices = [bank.field_for(k).data[:, :, 0] for k in range(1, bank.m + 1)]
    slices.append(bank.max_data()[:, :, 0])
    for sl in slices:
        assert np.max(np.abs(sl - marginals)) <= TOL_FIELD


def test_a08_brute_force_single_message_search_agrees(min3):
    grid = GridSpec.from_delta(3, 0.1)
    points = (
        (10, 10, 5),
        (5, 5, 5),
        (0, 3, 7),
        (3, 0, 7),
        (10, 5, 3),
        (5, 10, 4),
        (2, 9, 0),
        (9, 9, 9),
        (10, 10, 10),
        (4, 6, 2),
    )
    spec = ConditionalSearchSpec(k=3, search_step=0.02, u1_cardinality=3)
    report = compare_with_envelope(grid, min3, points, spec)

    assert len(report.rows) == 10
    for row in report.rows:
        assert row.feasibility_agrees, row
        if row.envelope_feasible:
            assert -1e-9 <= row.gap <= 0.05, row


def test_a09_certifier_accepts_converged_field_rejects_corruption(
    converged_run, min3
):
    field = converged_run.bank.max_field()
    assert check_membership(field, min3, tol=1e-4).passed

    rho0 = initial_field(field.grid, min3)
    assert not check_membership(rho0, min3, tol=1e-4).passed

    bumped = field.data.copy()
    bump_at = (7, 11, 5)
    bumped[bump_at] += 0.5
    corrupt = RateReductionField(grid=field.grid, data=bumped)
    report = check_membership(corrupt, min3, tol=1e-4)
    assert not report.passed
    assert not all(report.concavity_ok_per_axis)
    found = report.concavity_location
    assert max(abs(a - b) for a, b in zip(found, bump_at)) <= 1


def test_a10_csv_artifacts_identical_across_runs_and_per_line_kernel(
        tmp_path, monkeypatch, per_line_envelope):
    def run_into(name):
        code = cli.main([
            "run", "--function", "min", "--m", "3", "--delta", "0.05",
            "--t-max", "8", "--track", "0.5,0.5,0.5", "-o", str(tmp_path / name),
        ])
        assert code == 0
        return tmp_path / name

    first, again = run_into("first"), run_into("again")
    # the numpy sweep path, whose one kernel is envelope_batch
    monkeypatch.setattr("ratered.lattice.compiled_sweep", lambda: None)
    monkeypatch.setattr("ratered.lattice.envelope_batch", per_line_envelope)
    per_line = run_into("per_line")

    names = ["field_k1.csv", "field_k2.csv", "field_k3.csv",
             "field_max.csv", "trace.csv"]
    for name in names:
        reference = (first / name).read_bytes()
        assert (again / name).read_bytes() == reference, name
        assert (per_line / name).read_bytes() == reference, name


def test_a11_envelope_kernel_property_battery():
    def reference(values):
        n = len(values)
        finite = [i for i in range(n) if values[i] != BOTTOM]
        out = [BOTTOM] * n
        for i in range(n):
            best = BOTTOM
            for a in finite:
                if a > i:
                    continue
                for b in finite:
                    if b < i:
                        continue
                    if a == b:
                        cand = values[a]
                    else:
                        t = (i - a) / (b - a)
                        cand = values[a] * (1.0 - t) + values[b] * t
                    best = max(best, cand)
            out[i] = best
        return np.array(out)

    def close(x, y):
        if x == BOTTOM or y == BOTTOM:
            return x == y
        return abs(x - y) <= TOL_EXACT

    rng = np.random.default_rng(20260814)
    for _ in range(1000):
        n = int(rng.integers(2, 13))
        v = rng.uniform(-1.0, 2.0, size=n)
        v[rng.uniform(size=n) < 0.3] = BOTTOM
        env = upper_concave_envelope(v)

        # idempotent
        again = upper_concave_envelope(env)
        assert all(close(a, b) for a, b in zip(again, env))

        # majorizes the input
        finite = [i for i in range(n) if v[i] != BOTTOM]
        assert all(env[i] >= v[i] - TOL_EXACT for i in finite)

        # no concave majorant is beaten: build one and compare
        if finite:
            steps = np.sort(rng.normal(size=n - 1))[::-1]
            w = np.concatenate([[rng.normal()], steps]).cumsum()
            w += max(v[i] - w[i] for i in finite)
            assert all(
                env[i] <= w[i] + TOL_EXACT for i in range(n) if env[i] != BOTTOM
            )

        # monotone in the input
        u = v.copy()
        for i in range(n):
            if u[i] == BOTTOM:
                if rng.uniform() < 0.5:
                    u[i] = rng.uniform(-1.0, 2.0)
            else:
                u[i] += rng.uniform(0.0, 1.0)
        env_u = upper_concave_envelope(u)
        assert all(env[i] <= env_u[i] + TOL_EXACT for i in range(n))

        # agrees with the exhaustive two-point-mixture evaluation
        ref = reference(v)
        assert all(close(a, b) for a, b in zip(env, ref))
