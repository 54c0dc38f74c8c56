"""Command-line front end: run sweeps, certify fields, compare with the oracle.

A command writes its artifacts with fixed, cross-language-friendly
conventions: dense per-node field CSVs in the ratered.fieldcsv format (the
interface of record; identical configs give byte-identical CSVs), a
long-format trace CSV, JSON metadata and reports (non-finite floats as the
strings "inf", "-inf" and "nan"), and self-contained SVG line plots with no
plotting dependency.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import re
import sys
import time
from pathlib import Path

import numpy as np

from .certify import assess_optimality, check_tol
from .envelope import kernel_name
from .errors import ConfigError
from .fieldcsv import _fmt, _write_grid_csv, read_field_csv
from .lattice import ConvergenceTrace, FieldBank, check_budget, gap, run, sweeps
from .oracle import ConditionalSearchSpec, compare_with_envelope
# Unused here; kept because perfbench/tracer.py wraps ratered.cli.check_membership
# and ratered.cli.write_field_csv.
from .certify import check_membership  # noqa: F401
from .fieldcsv import write_field_csv  # noqa: F401
from .probability import GridIndex, GridSpec, entropy_grid
from .target_functions import BUILTIN_NAMES, FunctionTable, builtin_table, load_table

EMIT_CHOICES = ("fields-csv", "trace-csv", "trace-svg", "report-json")
DEFAULT_EMIT = ("fields-csv", "trace-csv", "report-json")

CONVERGENCE_CAVEAT = (
    "the eps stop certifies stability between consecutive sweeps only; "
    "no bound on the remaining distance to the many-message limit is implied, "
    "and a finer grid step can keep the values growing"
)

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
# stroke-dasharray per dash index; index 0 is a solid line (no attribute)
_DASHES = (None, "6,3", "2,2", "8,3,2,3")


def _jsonable(obj):
    """Recursively make a structure JSON-safe: numpy scalars to Python,
    non-finite floats to 'inf'/'-inf'/'nan' strings."""
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return _jsonable(obj.item())
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, float):
        if math.isfinite(obj):
            return obj
        if math.isnan(obj):
            return "nan"
        return "inf" if obj > 0 else "-inf"
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _write_json(path: Path, payload: dict) -> None:
    # UTF-8 whatever the locale, with text unescaped, so a file name that
    # argv could not decode keeps its bytes instead of turning into lone
    # surrogate escapes.
    path.write_text(json.dumps(_jsonable(payload), indent=2, ensure_ascii=False) + "\n",
                    encoding="utf-8", errors="surrogateescape")


def _resolve_function(name_or_path: str, m: int) -> FunctionTable:
    if name_or_path.lower() in BUILTIN_NAMES:
        return builtin_table(name_or_path, m)
    if Path(name_or_path).exists():
        f = load_table(name_or_path)
        if f.m != m:
            raise ConfigError(
                f"truth table {name_or_path} has arity {f.m}, expected m={m}"
            )
        return f
    raise ConfigError(
        f"unknown function {name_or_path!r}: not a builtin "
        f"{BUILTIN_NAMES} and not an existing file"
    )


def _parse_point(text: str, m: int) -> tuple[float, ...]:
    parts = text.split(",")
    if len(parts) != m:
        raise ConfigError(f"point {text!r} has {len(parts)} coordinates, expected {m}")
    try:
        values = tuple(float(s) for s in parts)
    except ValueError as exc:
        raise ConfigError(f"point {text!r}: {exc}") from None
    if any(not 0.0 <= v <= 1.0 for v in values):
        raise ConfigError(f"point {text!r} has coordinates outside [0, 1]")
    return values


def _parse_slice(text: str, m: int) -> tuple[int, float]:
    match = re.fullmatch(r"p(\d+)=([-+0-9.eE]+)", text)
    if not match:
        raise ConfigError(f"slice {text!r} must look like p3=0")
    axis = int(match.group(1))
    if not 1 <= axis <= m:
        raise ConfigError(f"slice axis {axis} outside 1..{m}")
    try:
        value = float(match.group(2))
    except ValueError:
        raise ConfigError(f"slice {text!r}: {match.group(2)!r} is not a number") from None
    if not 0.0 <= value <= 1.0:
        raise ConfigError(f"slice value {value} outside [0, 1]")
    return axis, value


def _trace_rows(trace: ConvergenceTrace, prefix: str = ""):
    """Long-format trace rows t,k,point_id,rho, each after prefix: per tau and
    tracked point, one row per node k, then one k='max' row."""
    for t, row in enumerate(trace.values):
        for pid, values in enumerate(row):
            for k, v in enumerate(values, 1):
                yield f"{prefix}{t},{k},{pid},{_fmt(v)}\n"
            yield f"{prefix}{t},max,{pid},{_fmt(max(values))}\n"


def write_trace_csv(path: Path, trace: ConvergenceTrace) -> None:
    """The tracked points' values per sweep, one _trace_rows row each."""
    path.write_text("t,k,point_id,rho\n" + "".join(_trace_rows(trace)))


# ---------------------------------------------------------------------------
# SVG plotting (hand-rolled: axes, polylines, legend)


def _svg_plot(path: Path, curves, title: str) -> None:
    """A plot of rate reduction against sweeps.  curves: list of (label, xs,
    ys, colour, dash), colour and dash indexing _PALETTE and _DASHES
    cyclically; BOTTOM entries break the polyline.  The title and curve
    labels are escaped as XML text (the title holds --function, which may be
    a file path)."""
    # Imported here: only the plots escape text, so the commands that draw
    # none do not load it.
    from html import escape

    title = escape(title, quote=False)
    width, height = 640, 420
    ml, mr, mt, mb = 60, 20, 40, 45
    pw, ph = width - ml - mr, height - mt - mb

    finite_x = [x for _, xs, ys, *_ in curves for x, y in zip(xs, ys) if math.isfinite(y)]
    finite_y = [y for _, xs, ys, *_ in curves for y in ys if math.isfinite(y)]
    x_lo, x_hi = (min(finite_x), max(finite_x)) if finite_x else (0.0, 1.0)
    y_lo, y_hi = (min(finite_y), max(finite_y)) if finite_y else (0.0, 1.0)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def sx(x: float) -> float:
        return ml + (x - x_lo) / (x_hi - x_lo) * pw

    def sy(y: float) -> float:
        return mt + ph - (y - y_lo) / (y_hi - y_lo) * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="22" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
        f'<line x1="{ml}" y1="{mt + ph}" x2="{ml + pw}" y2="{mt + ph}" stroke="black"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{mt + ph}" stroke="black"/>',
        f'<text x="{ml + pw / 2:.1f}" y="{height - 8}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">t (messages)</text>',
        f'<text x="16" y="{mt + ph / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 16 {mt + ph / 2:.1f})">rate reduction [bits]</text>',
    ]
    for i in range(5):
        fx = x_lo + (x_hi - x_lo) * i / 4
        fy = y_lo + (y_hi - y_lo) * i / 4
        parts.append(
            f'<line x1="{sx(fx):.1f}" y1="{mt + ph}" x2="{sx(fx):.1f}" '
            f'y2="{mt + ph + 4}" stroke="black"/>'
            f'<text x="{sx(fx):.1f}" y="{mt + ph + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="10">{fx:.3g}</text>'
        )
        parts.append(
            f'<line x1="{ml - 4}" y1="{sy(fy):.1f}" x2="{ml}" y2="{sy(fy):.1f}" '
            f'stroke="black"/>'
            f'<text x="{ml - 7}" y="{sy(fy) + 3:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="10">{fy:.3g}</text>'
        )
    for c_i, (label, xs, ys, colour, dash) in enumerate(curves):
        stroke = f'stroke="{_PALETTE[colour % len(_PALETTE)]}" stroke-width="1.5"'
        dasharray = _DASHES[dash % len(_DASHES)]
        if dasharray:
            stroke += f' stroke-dasharray="{dasharray}"'
        for finite, seg in itertools.groupby(zip(xs, ys), key=lambda xy: math.isfinite(xy[1])):
            if finite:
                points = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in seg)
                parts.append(f'<polyline points="{points}" fill="none" {stroke}/>')
        ly = mt + 14 + 16 * c_i
        parts.append(
            f'<line x1="{ml + 8}" y1="{ly - 4}" x2="{ml + 28}" y2="{ly - 4}" '
            f'{stroke}/>'
            f'<text x="{ml + 33}" y="{ly}" font-family="sans-serif" '
            f'font-size="11">{escape(label, quote=False)}</text>'
        )
    parts.append("</svg>")
    # UTF-8 whatever the locale, as the XML declares no encoding; a file name
    # in the title that argv could not decode keeps its bytes.
    path.write_text("\n".join(parts) + "\n", encoding="utf-8", errors="surrogateescape")


# ---------------------------------------------------------------------------
# subcommands


def _snap_record(grid: GridSpec, requested, idx: GridIndex) -> dict:
    return {
        "requested": requested,
        "snapped_index": list(idx),
        "snapped_pmf": [float(v) for v in grid.pmf_at(idx)],
    }


def _snap_tracked(grid: GridSpec, requested: list) -> tuple[list, list]:
    indices = [grid.snap(req) for req in requested]
    return indices, [_snap_record(grid, list(req), idx) for req, idx in zip(requested, indices)]


def _tracked_curves(grid: GridSpec, trace: ConvergenceTrace, style,
                    prefix: str = "") -> list:
    """_svg_plot curves of trace's tracked points, one per point i: its
    max-node series against t, labelled prefix and its snapped pmf, drawn in
    (colour, dash) style(i)."""
    return [(prefix + "p" + str(tuple(round(v, 6) for v in grid.pmf_at(idx))),
             list(range(len(series))), series, *style(i))
            for i, (idx, series) in enumerate(zip(trace.tracked_points, trace.max_series))]


def _output_dir(args: argparse.Namespace) -> Path:
    """--output-dir, created if missing: only once the options are checked."""
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_run(args: argparse.Namespace) -> int:
    emit = tuple(s for s in args.emit.split(",") if s)
    bad = [s for s in emit if s not in EMIT_CHOICES]
    if bad:
        raise ConfigError(f"unknown emit kinds {bad}; choose from {EMIT_CHOICES}")
    requested = [_parse_point(t, args.m) for t in args.track]
    grid = GridSpec.from_delta(args.m, args.delta)
    f = _resolve_function(args.function, args.m)
    tracked_idx, tracked_rec = _snap_tracked(grid, requested)
    slice_rec = None
    if args.slice_spec is not None:
        axis, value = _parse_slice(args.slice_spec, args.m)
        fixed = int(round(value * grid.n_steps))
        slice_rec = {"axis": axis, "requested": value, "snapped_index": fixed,
                     "snapped_value": float(grid.axis_values()[fixed])}

    started = time.perf_counter()
    result = run(grid, f, t_max=args.t_max, eps=args.eps, tracked=tuple(tracked_idx))
    elapsed = time.perf_counter() - started

    out = _output_dir(args)
    artifacts: list[str] = []
    h, rho_max = ((entropy_grid(grid), result.bank.max_data())
                  if "fields-csv" in emit or slice_rec is not None else (None, None))

    if "fields-csv" in emit:
        items = [(out / f"field_k{k}.csv", str(k), result.bank.field_for(k).data)
                 for k in range(1, args.m + 1)]
        items.append((out / "field_max.csv", "max", rho_max))
        _write_grid_csv(items, list(range(1, args.m + 1)), h, grid)
        artifacts += [path.name for path, _, _ in items]
    if "trace-csv" in emit and tracked_idx:
        write_trace_csv(out / "trace.csv", result.trace)
        artifacts.append("trace.csv")
    if "trace-svg" in emit and tracked_idx:
        _svg_plot(out / "trace.svg",
                  _tracked_curves(grid, result.trace, lambda i: (i, i // len(_PALETTE))),
                  f"rate reduction vs sweeps ({args.function}, delta={grid.delta:g})")
        artifacts.append("trace.svg")

    if slice_rec is not None:
        sl = (slice(None),) * (axis - 1) + (fixed,)
        name = f"slice_p{axis}_{slice_rec['snapped_value']:g}".replace(".", "p") + ".csv"
        _write_grid_csv([(out / name, "max", rho_max[sl])],
                        [j for j in range(1, args.m + 1) if j != axis],
                        h[sl], grid)
        artifacts.append(name)

    metadata = {
        "function": args.function,
        "m": args.m,
        "delta": grid.delta,
        "n_steps": grid.n_steps,
        "eps": args.eps,
        "t_max": args.t_max,
        "t_stop": result.t_stop,
        "stop_reason": result.stop_reason,
        "convergence_caveat": CONVERGENCE_CAVEAT,
        "sup_deltas": list(result.trace.sup_deltas),
        "cross_k_gap": result.cross_k_gap,
        "envelope_chains": result.bank.period,
        "envelope_kernel": kernel_name(),
        "tracked": tracked_rec,
        "slice": slice_rec,
        "elapsed_seconds": elapsed,
        "artifacts": artifacts,
    }
    _write_json(out / "metadata.json", metadata)

    print(
        f"run: {args.function} m={args.m} delta={grid.delta:g} -> "
        f"t_stop={result.t_stop} ({result.stop_reason}), "
        f"cross-node gap {result.cross_k_gap:.3g}, {elapsed:.2f}s"
    )
    for rec in tracked_rec:
        print(
            f"  tracked {rec['requested']} -> index {rec['snapped_index']} "
            f"= pmf {rec['snapped_pmf']}"
        )
    print(f"  wrote {', '.join(artifacts + ['metadata.json'])} in {out}")
    return 0


def cmd_certify(args: argparse.Namespace) -> int:
    check_tol(args.tol)
    check_budget(args.t_max, args.eps)
    parsed = read_field_csv(args.field)
    grid = parsed.grid
    if args.m is not None and args.m != grid.m:
        raise ConfigError(f"--m {args.m} does not match field CSV arity {grid.m}")
    if args.delta is not None:
        want = GridSpec.from_delta(grid.m, args.delta)
        if want.n_steps != grid.n_steps:
            raise ConfigError(
                f"--delta {args.delta} implies {want.n_steps} steps, "
                f"field CSV has {grid.n_steps}"
            )
    f = _resolve_function(args.function, grid.m)

    for bank, _ in sweeps(grid, f, args.t_max, args.eps):
        pass   # only the last bank is compared, so no trace is kept
    achieved = bank.max_field()
    optimality = assess_optimality(parsed, achieved, f, args.tol)
    membership = optimality.family_report

    out = _output_dir(args)
    payload = {
        "field": str(args.field),
        "function": args.function,
        "tol": args.tol,
        "envelope_kernel": kernel_name(),
        "membership": membership.to_dict(),
        "optimality": optimality.to_dict(),
    }
    _write_json(out / "certify_report.json", payload)

    print(f"certify: membership {membership.verdict}, optimality: {optimality.status}")
    if not membership.majorization_ok:
        print(
            f"  entropy-floor violation {membership.worst_majorization_gap:.6g} "
            f"at index {membership.majorization_location}"
        )
    if not all(membership.concavity_ok_per_axis):
        print(
            f"  concavity violation {membership.worst_concavity_violation:.6g} "
            f"along axis {membership.concavity_axis} "
            f"at index {membership.concavity_location}"
        )
    print(f"  wrote certify_report.json in {out}")
    return 0


def _worst_drop(series: list) -> float:
    """Largest drop beyond 1e-12 from a finite value to the next one, by
    lattice.gap (inf on a fall to BOTTOM); 0.0 when the series never drops."""
    prev, nxt = np.asarray(series[:-1], float), np.asarray(series[1:], float)
    return float(gap(prev, nxt)[nxt < prev - 1e-12].max(initial=0.0))


def _shared_max(bank: FieldBank, g: int) -> np.ndarray:
    """The max over nodes of bank at its grid points i/g, g dividing its
    n_steps; each node is sliced before the max, so only those are read."""
    at = (slice(None, None, bank.grid.n_steps // g),) * bank.m
    return functools.reduce(np.maximum, [f.data[at] for f in bank.node_fields()])


def cmd_sweep_delta(args: argparse.Namespace) -> int:
    try:
        deltas = [float(s) for s in args.deltas.split(",") if s]
    except ValueError as exc:
        raise ConfigError(f"bad --deltas {args.deltas!r}: {exc}") from None
    if not deltas:
        raise ConfigError("--deltas is empty")
    grids = [GridSpec.from_delta(args.m, delta) for delta in deltas]
    seen: dict[int, float] = {}
    for delta, grid in zip(deltas, grids):
        if grid.n_steps in seen:
            raise ConfigError(f"--deltas {seen[grid.n_steps]:g} and {delta:g} give "
                              f"the same grid ({grid.n_steps} steps)")
        seen[grid.n_steps] = delta
    check_budget(args.t_max, args.eps)
    requested = [_parse_point(t, args.m) for t in args.track]
    f = _resolve_function(args.function, args.m)

    out = _output_dir(args)
    snapped = [_snap_tracked(grid, requested) for grid in grids]
    traces = [ConvergenceTrace(tuple(idx)) for idx, _ in snapped]
    # Finer against coarser at equal t, at every grid point both hold: i/g,
    # g = gcd(N_c, N_f).  Reported, not asserted: only a nested pair (N_c
    # divides N_f) is predicted to have fine >= coarse.
    order = sorted(range(len(grids)), key=lambda i: grids[i].n_steps)
    pairs = [(c, fine, math.gcd(grids[c].n_steps, grids[fine].n_steps))
             for c, fine in zip(order, order[1:])]
    cross = [{"coarse_delta": deltas[c], "fine_delta": deltas[fine],
              "nested": g == grids[c].n_steps, "shared_points": (g + 1) ** args.m}
             for c, fine, g in pairs]
    runs = [sweeps(grid, f, args.t_max, args.eps) for grid in grids]
    for t, steps in enumerate(itertools.zip_longest(*runs)):
        for trace, step in zip(traces, steps):
            if step is not None:
                trace.record(*step)
        for entry, (c, fine, g) in zip(cross, pairs):
            if steps[c] is None or steps[fine] is None:
                continue
            d = gap(_shared_max(steps[c][0], g), _shared_max(steps[fine][0], g))
            at = int(np.argmax(d))      # the first maximum in C order
            if t == 0 or d.flat[at] > entry["max_coarse_minus_fine"]:
                entry.update(max_coarse_minus_fine=float(d.flat[at]), worst_t=t,
                             worst_pmf=[int(i) / g for i in np.unravel_index(at, d.shape)])

    rows: list[str] = []
    curves = []
    per_delta = []
    for d_i, (delta, grid, (_, tracked_rec), trace) in enumerate(
            zip(deltas, grids, snapped, traces)):
        rows.extend(_trace_rows(trace, f"{_fmt(delta)},"))
        curves += _tracked_curves(grid, trace, lambda i: (d_i, i), f"delta={delta:g} ")
        worst_drop = max(map(_worst_drop, trace.max_series), default=0.0)
        per_delta.append({"delta": delta, "t_stop": len(trace.values) - 1,
                          "stop_reason": trace.stop_reason(args.eps), "tracked": tracked_rec,
                          "monotone_nondecreasing": worst_drop == 0.0, "worst_drop": worst_drop})

    (out / "sweep_trace.csv").write_text("delta,t,k,point_id,rho\n" + "".join(rows))
    _svg_plot(out / "sweep_trace.svg", curves,
              f"rate reduction vs sweeps across grid steps ({args.function})")

    payload = {
        "function": args.function,
        "m": args.m,
        "deltas": deltas,
        "eps": args.eps,
        "t_max": args.t_max,
        "convergence_caveat": CONVERGENCE_CAVEAT,
        "per_delta": per_delta,
        "cross_delta": cross,
    }
    _write_json(out / "sweep_report.json", payload)

    failed = [d["delta"] for d in per_delta if not d["monotone_nondecreasing"]]
    for d in per_delta:
        print(
            f"sweep-delta: delta={d['delta']:g} t_stop={d['t_stop']} "
            f"({d['stop_reason']}) monotone={d['monotone_nondecreasing']}"
        )
    print(f"  wrote sweep_trace.csv, sweep_trace.svg, sweep_report.json in {out}")
    if failed:
        print(f"error: non-monotone trace for deltas {failed}", file=sys.stderr)
        return 2
    return 0


def cmd_oracle_check(args: argparse.Namespace) -> int:
    grid = GridSpec.from_delta(args.m, args.delta)
    f = _resolve_function(args.function, args.m)
    if not 1 <= args.k <= args.m:
        raise ConfigError(f"--k {args.k} outside 1..{args.m}")
    spec = ConditionalSearchSpec(
        k=args.k, search_step=args.search_step, u1_cardinality=args.u1_cardinality
    )
    if args.n_random < 0:
        raise ConfigError(f"--n-random {args.n_random} is negative")
    if args.n_random > grid.n_points:
        # More draws than grid points can only repeat searches.
        raise ConfigError(f"--n-random {args.n_random} exceeds the {grid.n_points:,} "
                          f"points of the grid")
    if args.seed < 0:
        raise ConfigError(f"--seed {args.seed} is negative")
    points, records = _snap_tracked(grid, [_parse_point(t, args.m) for t in args.point])
    records = [{"source": "point", **rec} for rec in records]
    if args.n_random:
        rng = np.random.default_rng(args.seed)
        draws = rng.integers(0, grid.n_steps + 1, size=(args.n_random, args.m))
        for row in draws:
            points.append(tuple(int(i) for i in row))
            records.append({"source": "random", **_snap_record(grid, None, points[-1])})
    if not points:
        raise ConfigError("oracle-check needs --point and/or --n-random")

    report = compare_with_envelope(grid, f, tuple(points), spec)

    out = _output_dir(args)
    _write_json(out / "oracle_report.json", {**report.to_dict(), "points": records})

    for row in report.rows:
        print(
            f"oracle-check: point {row.point} envelope={_fmt(row.envelope_value)} "
            f"oracle={_fmt(row.oracle_value)} gap={_fmt(row.gap)} "
            f"agree={row.feasibility_agrees}"
        )
    print(
        f"  worst gap {_fmt(report.worst_gap)}, slack {report.slack:.6g}, "
        f"within contract: {report.within_contract}"
    )
    print(f"  wrote oracle_report.json in {out}")
    return 0 if report.within_contract else 2


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ratered",
        description=(
            "Iterative computation of interactive function-computation "
            "sum-rates over product-pmf grids"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def function_option(p: argparse.ArgumentParser) -> None:
        p.add_argument("--function", required=True,
                       help=f"builtin {BUILTIN_NAMES} or a truth-table file")

    def output_option(p: argparse.ArgumentParser) -> None:
        p.add_argument("--output-dir", "-o", default=".", help="artifact directory")

    def common(p: argparse.ArgumentParser) -> None:
        function_option(p)
        p.add_argument("--m", type=int, required=True, help="number of sources")
        p.add_argument("--delta", type=float, required=True,
                       help="grid step (reciprocal of an integer)")
        output_option(p)

    def sweep_options(p: argparse.ArgumentParser) -> None:
        """Options of the commands that iterate lattice.sweeps."""
        p.add_argument("--t-max", type=int, default=40, help="sweep budget")
        p.add_argument("--eps", type=float, default=1e-6,
                       help="sup-norm stop threshold between sweeps")

    # Each handler is read from the module when main builds the parser, so a
    # wrapper installed on cli.cmd_* is the one called.
    p_run = sub.add_parser("run", help="iterate fields and export them")
    p_run.set_defaults(handler=cmd_run)
    common(p_run)
    sweep_options(p_run)
    p_run.add_argument("--track", action="append", default=[],
                       metavar="P1,P2,...", help="pmf to trace (repeatable)")
    p_run.add_argument("--emit", default=",".join(DEFAULT_EMIT),
                       help=f"comma list from {EMIT_CHOICES}; metadata.json is always "
                            "written, and report-json is accepted for compatibility")
    p_run.add_argument("--slice", dest="slice_spec", default=None,
                       metavar="pJ=V", help="also export one fixed-axis slice")

    p_cert = sub.add_parser("certify", help="family-check a field CSV")
    p_cert.set_defaults(handler=cmd_certify)
    p_cert.add_argument("--field", required=True, help="field CSV to certify")
    function_option(p_cert)
    p_cert.add_argument("--m", type=int, default=None,
                        help="expected arity (validated against the CSV)")
    p_cert.add_argument("--delta", type=float, default=None,
                        help="expected grid step (validated against the CSV)")
    p_cert.add_argument("--tol", type=float, default=1e-4)
    sweep_options(p_cert)
    output_option(p_cert)

    p_sweep = sub.add_parser("sweep-delta", help="overlay traces across grid steps")
    p_sweep.set_defaults(handler=cmd_sweep_delta)
    function_option(p_sweep)
    p_sweep.add_argument("--m", type=int, required=True)
    p_sweep.add_argument("--deltas", required=True, help="comma list, e.g. 0.1,0.05,0.02")
    p_sweep.add_argument("--track", action="append", default=[], metavar="P1,P2,...",
                         help="pmf whose trace to draw and check for monotonicity "
                              "(repeatable, optional)")
    sweep_options(p_sweep)
    output_option(p_sweep)

    p_oracle = sub.add_parser("oracle-check", help="brute-force one-message cross-check")
    p_oracle.set_defaults(handler=cmd_oracle_check)
    common(p_oracle)
    p_oracle.add_argument("--k", type=int, required=True, help="transmitting node")
    p_oracle.add_argument("--search-step", type=float, default=0.02,
                          help="conditional-search grid step")
    p_oracle.add_argument("--u1-cardinality", type=int, default=3,
                          help="message alphabet size |U|; a search whose per-point tables "
                               "pass 256 MiB (e.g. |U| >= 5 at step 0.02) exits 2")
    p_oracle.add_argument("--point", action="append", default=[],
                          metavar="P1,P2,...", help="pmf to check (repeatable)")
    p_oracle.add_argument("--n-random", type=int, default=0,
                          help="additionally sample this many grid points")
    p_oracle.add_argument("--seed", type=int, default=0)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ConfigError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
