"""Span tracer for the benchmark's traced run.

The tracer wraps the public functions of each ratered module at the names
their callers bind (``cli`` calls ``run`` through ``ratered.cli.run``,
``lattice`` calls ``envelope_batch`` through ``ratered.lattice.envelope_batch``,
and so on), records one span per call with the span that caused it, and
counts work at the same boundaries.  Nothing in ``src/`` is changed: the
wrappers are installed for one traced iteration and removed after it.

A name that no longer exists is reported as absent, and its metrics read 0.
Self time is a span's duration minus its child spans.  The tracer's own
bookkeeping after a call (counting array entries, reading file sizes) is
recorded as a ``trace.bookkeeping`` child of the calling span, so it is not
charged to any layer.  Bytes are computed from array and file sizes.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import statistics
import time
from collections import Counter, defaultdict

import numpy as np

# (metric, unit): every per-layer metric of a traced run, per traced
# iteration.  A metric of a layer the workload does not reach reads 0; so
# does a "_tail" with fewer than ten samples beyond its percentile.
LAYER_METRICS = (
    ("envelope.batch_s", "s"),
    ("envelope.calls", "count"),
    ("envelope.lines", "count"),
    ("envelope.ns_per_point", "ns"),
    ("envelope.live_line_frac", "frac"),
    ("lattice.sweeps", "count"),
    ("lattice.sweep_s_p50", "s"),
    ("lattice.sweep_s_tail", "s"),
    ("lattice.sweep_self_s", "s"),
    ("lattice.run_self_s", "s"),
    ("lattice.sup_delta_s", "s"),
    ("lattice.changed_frac", "frac"),
    ("lattice.copy_bytes", "B"),
    ("lattice.initial_bank_s", "s"),
    ("lattice.cross_k_gap_s", "s"),
    ("lattice.trace_record_s", "s"),
    ("lattice.bank_bytes", "B"),
    ("cli.write_field_csv_s", "s"),
    ("cli.field_csv_bytes", "B"),
    ("cli.write_field_csv_mb_per_s", "MB/s"),
    ("cli.write_trace_csv_s", "s"),
    ("cli.read_field_csv_s", "s"),
    ("cli.read_field_csv_mb_per_s", "MB/s"),
    ("cli.cmd_run_self_s", "s"),
    ("cli.cmd_certify_self_s", "s"),
    ("cli.cmd_oracle_check_self_s", "s"),
    ("certify.check_membership_s", "s"),
    ("certify.check_membership_calls", "count"),
    ("certify.lines_checked", "count"),
    ("certify.assess_optimality_self_s", "s"),
    ("oracle.search_s", "s"),
    ("oracle.points", "count"),
    ("oracle.point_s_p50", "s"),
    ("oracle.point_s_tail", "s"),
    ("oracle.ns_per_conditional", "ns"),
    ("oracle.feasible_frac", "frac"),
    ("oracle.envelope_sweep_s", "s"),
    ("oracle.compare_self_s", "s"),
    ("probability.entropy_grid_s", "s"),
    ("target_functions.load_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.bookkeeping_s", "s"),
    ("trace.absent_names", "count"),
)

TAIL_PERCENTILES = (99, 95, 90, 75)


# Hooks count work after a call: hook(counts, args, result).

def _count_envelope(counts, args, _out):
    lines = args[0]
    counts["envelope.lines"] += lines.shape[0]
    counts["envelope.points"] += lines.size
    finite_per_line = np.count_nonzero(np.isfinite(lines), axis=1)
    counts["envelope.live_lines"] += int(np.count_nonzero(finite_per_line >= 2))


def _count_sweep(counts, args, _out):
    # Layout copies of the seed code: every axis but the last is gathered
    # into contiguous lines and scattered back.
    for k, field in enumerate(args[0].fields):
        if not np.moveaxis(field.data, k, -1).flags.c_contiguous:
            counts["lattice.copy_bytes"] += 2 * field.data.nbytes


def _count_sup_delta(counts, args, _out):
    new, old = args[0], args[1]
    for nf, of in zip(new.fields, old.fields):
        counts["lattice.changed"] += int(np.count_nonzero(nf.data != of.data))
        counts["lattice.compared"] += nf.data.size


def _count_bank(counts, _args, out):
    nbytes = sum(f.data.nbytes for f in out.fields)
    counts["lattice.bank_bytes"] = max(counts["lattice.bank_bytes"], nbytes)


def _count_csv_write(counts, args, _out):
    counts["cli.field_csv_bytes"] += os.path.getsize(args[0])


def _count_csv_read(counts, args, _out):
    counts["cli.read_csv_bytes"] += os.path.getsize(args[0])


def _count_membership(counts, args, _out):
    shape = args[0].data.shape
    counts["certify.lines_checked"] += len(shape) * math.prod(shape) // shape[0]


def _count_search(counts, args, out):
    spec = args[2]
    rows = math.comb(spec.n_search_steps + spec.u1_cardinality - 1, spec.u1_cardinality - 1)
    counts["oracle.conditionals"] += rows * rows
    counts["oracle.feasible"] += out != float("-inf")


# (owner, attribute, span name, hook): the names callers bind in the seed code.
WRAPS = (
    ("ratered.cli", "cmd_run", "cli.cmd_run", None),
    ("ratered.cli", "cmd_certify", "cli.cmd_certify", None),
    ("ratered.cli", "cmd_oracle_check", "cli.cmd_oracle_check", None),
    ("ratered.cli", "write_field_csv", "cli.write_field_csv", _count_csv_write),
    ("ratered.cli", "read_field_csv", "cli.read_field_csv", _count_csv_read),
    ("ratered.cli", "write_trace_csv", "cli.write_trace_csv", None),
    ("ratered.cli", "run", "lattice.run", None),
    ("ratered.cli", "check_membership", "certify.check_membership", _count_membership),
    ("ratered.certify", "check_membership", "certify.check_membership", _count_membership),
    ("ratered.cli", "assess_optimality", "certify.assess_optimality", None),
    ("ratered.cli", "compare_with_envelope", "oracle.compare", None),
    ("ratered.oracle", "single_message_reduction", "oracle.search", _count_search),
    ("ratered.oracle", "initial_bank", "oracle.envelope_sweep", None),
    ("ratered.oracle", "sweep_once", "oracle.envelope_sweep", None),
    ("ratered.lattice", "initial_bank", "lattice.initial_bank", _count_bank),
    ("ratered.lattice", "sweep_once", "lattice.sweep", _count_sweep),
    ("ratered.lattice", "envelope_batch", "envelope.batch", _count_envelope),
    ("ratered.lattice", "bank_sup_delta", "lattice.sup_delta", _count_sup_delta),
    ("ratered.lattice", "cross_k_gap", "lattice.cross_k_gap", None),
    ("ratered.lattice:ConvergenceTrace", "record", "lattice.trace_record", None),
    ("ratered.lattice", "entropy_grid", "probability.entropy_grid", None),
    ("ratered.cli", "entropy_grid", "probability.entropy_grid", None),
    ("ratered.certify", "entropy_grid", "probability.entropy_grid", None),
    ("ratered.cli", "builtin_table", "target_functions.load", None),
    ("ratered.cli", "load_table", "target_functions.load", None),
)


def _owner(path: str):
    module, _, attr = path.partition(":")
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    return getattr(owner, attr, None) if attr else owner


class Tracer:
    """Spans and counts of one traced iteration."""

    def __init__(self) -> None:
        self.spans: list[list] = []        # [name, start, end, parent index]
        self.counts: defaultdict = defaultdict(float)
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._installed: list[tuple] = []

    def install(self) -> None:
        for owner_path, attr, name, hook in WRAPS:
            owner = _owner(owner_path)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.absent.append(f"{owner_path}.{attr}")
                continue
            setattr(owner, attr, self._wrap(original, name, hook))
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def _wrap(self, fn, name: str, hook):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            span = [name, 0.0, 0.0, parent]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                try:
                    hook(counts, args, out)
                except (AttributeError, TypeError, IndexError, ValueError, OSError):
                    counts["trace.hook_errors"] += 1
                spans.append(["trace.bookkeeping", span[2], time.perf_counter(), parent])
            return out

        return traced

    def iteration(self, wall: float) -> dict:
        """Per-iteration totals, plus the per-call durations that percentiles
        are pooled from."""
        durations = [end - start for _, start, end, _ in self.spans]
        children = [0.0] * len(self.spans)
        for (_, _, _, parent), d in zip(self.spans, durations):
            if parent >= 0:
                children[parent] += d
        total: defaultdict = defaultdict(float)
        own: defaultdict = defaultdict(float)
        calls: Counter = Counter()
        for (name, _, _, _), d, c in zip(self.spans, durations, children):
            total[name] += d
            own[name] += d - c
            calls[name] += 1
        c = self.counts

        def per(numerator, denominator, scale=1.0):
            return scale * numerator / denominator if denominator else 0.0

        self_sum = sum(own.values())
        return {
            "metrics": {
                "envelope.batch_s": total["envelope.batch"],
                "envelope.calls": calls["envelope.batch"],
                "envelope.lines": c["envelope.lines"],
                "envelope.ns_per_point": per(total["envelope.batch"], c["envelope.points"], 1e9),
                "envelope.live_line_frac": per(c["envelope.live_lines"], c["envelope.lines"]),
                "lattice.sweeps": calls["lattice.sweep"],
                "lattice.sweep_self_s": own["lattice.sweep"],
                "lattice.run_self_s": own["lattice.run"],
                "lattice.sup_delta_s": total["lattice.sup_delta"],
                "lattice.changed_frac": per(c["lattice.changed"], c["lattice.compared"]),
                "lattice.copy_bytes": c["lattice.copy_bytes"],
                "lattice.initial_bank_s": total["lattice.initial_bank"],
                "lattice.cross_k_gap_s": total["lattice.cross_k_gap"],
                "lattice.trace_record_s": total["lattice.trace_record"],
                "lattice.bank_bytes": c["lattice.bank_bytes"],
                "cli.write_field_csv_s": total["cli.write_field_csv"],
                "cli.field_csv_bytes": c["cli.field_csv_bytes"],
                "cli.write_field_csv_mb_per_s": per(
                    c["cli.field_csv_bytes"], total["cli.write_field_csv"], 1e-6),
                "cli.write_trace_csv_s": total["cli.write_trace_csv"],
                "cli.read_field_csv_s": total["cli.read_field_csv"],
                "cli.read_field_csv_mb_per_s": per(
                    c["cli.read_csv_bytes"], total["cli.read_field_csv"], 1e-6),
                "cli.cmd_run_self_s": own["cli.cmd_run"],
                "cli.cmd_certify_self_s": own["cli.cmd_certify"],
                "cli.cmd_oracle_check_self_s": own["cli.cmd_oracle_check"],
                "certify.check_membership_s": total["certify.check_membership"],
                "certify.check_membership_calls": calls["certify.check_membership"],
                "certify.lines_checked": c["certify.lines_checked"],
                "certify.assess_optimality_self_s": own["certify.assess_optimality"],
                "oracle.search_s": total["oracle.search"],
                "oracle.points": calls["oracle.search"],
                "oracle.ns_per_conditional": per(
                    total["oracle.search"], c["oracle.conditionals"], 1e9),
                "oracle.feasible_frac": per(c["oracle.feasible"], calls["oracle.search"]),
                "oracle.envelope_sweep_s": total["oracle.envelope_sweep"],
                "oracle.compare_self_s": own["oracle.compare"],
                "probability.entropy_grid_s": total["probability.entropy_grid"],
                "target_functions.load_s": total["target_functions.load"],
                "trace.wall_s": wall,
                "trace.unattributed_s": wall - self_sum,
                "trace.bookkeeping_s": total["trace.bookkeeping"],
                "trace.absent_names": len(self.absent),
            },
            "self_sum_s": self_sum,
            "hook_errors": int(c["trace.hook_errors"]),
            "sweep_s": [d for s, d in zip(self.spans, durations) if s[0] == "lattice.sweep"],
            "point_s": [d for s, d in zip(self.spans, durations) if s[0] == "oracle.search"],
        }


def tail(values: list[float]) -> tuple[float, str]:
    """The highest of TAIL_PERCENTILES with at least ten samples beyond it."""
    n = len(values)
    ordered = sorted(values)
    for q in TAIL_PERCENTILES:
        if n * (100 - q) / 100 >= 10:
            return ordered[math.ceil(q * n / 100) - 1], f"p{q} of {n}"
    return 0.0, f"not reported: {n} samples"


def summarize(traced: list[dict], traced_walls: list[float],
              untraced_walls: list[float]) -> tuple[dict, dict]:
    """Median of each per-iteration metric over the traced iterations, the
    pooled percentiles, and the tracing overhead: the median traced minus the
    median untraced wall time, both rescaled to the reference core speed."""
    metrics = {
        name: statistics.median(it["metrics"][name] for it in traced)
        for name in traced[0]["metrics"]
    }
    notes = {}
    for prefix, key in (("lattice.sweep_s", "sweep_s"), ("oracle.point_s", "point_s")):
        pooled = [d for it in traced for d in it[key]]
        metrics[prefix + "_p50"] = statistics.median(pooled) if pooled else 0.0
        metrics[prefix + "_tail"], notes[prefix + "_tail"] = tail(pooled)
    metrics["trace.overhead_s"] = (statistics.median(traced_walls)
                                   - statistics.median(untraced_walls))
    return metrics, notes
