#!/usr/bin/env python3
"""The ratered benchmark: one workload run, end to end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; it benchmarks the ``src/`` tree next to this directory.
Each run starts fresh single-threaded child interpreters (``child.py``): a
warm-up and several set-up probes, then one child that drives
``ratered.cli.main(argv)`` for S seconds and checks every output.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``, per-layer
metrics with ``--trace 1``).  Lines before it give every metric with its
unit, ``failed_frac``, and the machine facts and provenance.  The full record,
samples included, goes to ``.perfbench_run/results/`` under the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
RUN_DIR = ROOT / ".perfbench_run"

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("work_per_s", "1/s"), ("peak_rss_mb", "MB"))
SETUP_PROBES = 9
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def child_env(workdir: Path) -> dict:
    """Single-threaded BLAS/OpenMP, the checkout's sources, and no thread
    override for ratered itself."""
    env = {k: v for k, v in os.environ.items() if k != "RATERED_THREADS"}
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["TMPDIR"] = str(workdir)
    return env


def start_child(args: list[str], env: dict, timeout: float) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(CHILD), "--t0", repr(time.monotonic()), *args]
    return subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=timeout, check=True)


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def setup_probe(env: dict) -> tuple[float, float]:
    """One child start, timed raw and rescaled by the core speed that a probe
    thread here measures while the child runs on the same core.  (Timing the
    kernel just before and after the child instead left the spread of the
    rescaled times no narrower than that of the raw ones.)"""
    with speed.SpeedProbe(period=0.005) as probe:
        start = time.perf_counter()
        raw = float(start_child(["--setup-only"], env, 60).stdout)
        end = time.perf_counter()
    return raw, raw * probe.factor(start, end)


def end_to_end(setups: list[float], child: dict, timed: list[dict]) -> dict:
    """Times are rescaled to the reference core speed (see speed.py)."""
    walls = [s["norm_wall_s"] for s in timed if not s["traced"]]
    work = child["work_per_iteration"]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "work_per_s": statistics.median(work / w for w in walls),
        "peak_rss_mb": child["peak_rss_mb"],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=tuple(workloads.SCALES), default="full",
                        help="problem size; 'tiny' is for the self-test")
    args = parser.parse_args()
    began = time.monotonic()
    cpus = sorted(os.sched_getaffinity(0))
    # Every child inherits this single core, where the speed probe runs too.
    os.sched_setaffinity(0, {cpus[0]})

    if not (ROOT / "src" / "ratered" / "cli.py").is_file():
        print(f"error: no ratered sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workdir = RUN_DIR / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env = child_env(workdir)
    result_path = workdir / "child.json"
    try:
        start_child(["--setup-only"], env, 60)  # fills the bytecode cache
        probes = [setup_probe(env) for _ in range(SETUP_PROBES)]
        start_child(
            ["--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--scale", args.scale, "--workdir", str(workdir), "--result", str(result_path)],
            env, DEADLINE_S - (time.monotonic() - began),
        )
        child = json.loads(result_path.read_text())
    except (subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"error: benchmark child failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    samples = child["samples"]
    ok = [s for s in samples if not s["problems"]]
    failed = len(samples) - len(ok)
    # A failed iteration's timing is dropped; if every one failed, the
    # metrics fall back to all of them and the result is marked incorrect.
    timed = ok if any(not s["traced"] for s in ok) else samples
    e2e = end_to_end([norm for _, norm in probes], child, timed)
    raw_setup = statistics.median(raw for raw, _ in probes)
    raw_wall = statistics.median(s["wall_s"] for s in timed if not s["traced"])

    if args.trace:
        layers = child.get("layers") or {name: 0.0 for name, _ in tracer.LAYER_METRICS}
        units = dict(tracer.LAYER_METRICS)
        metrics = {name: {"value": layers[name], "unit": units[name]} for name in units}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}

    record = {
        "workload": args.workload,
        "provenance": {
            "nproc": len(cpus),
            "pinned_cpu": cpus[0],
            "cpu_model": cpu_model(),
            **child["versions"],
            "commit": git_commit(),
            "seed": args.seed,
            "seconds": args.seconds,
            "scale": args.scale,
            "tracing": bool(args.trace),
        },
        "end_to_end": e2e,
        "failed_frac": failed / len(samples),
        "work_unit": child["work_unit"],
        "layers": child.get("layers"),
        "layer_notes": child.get("layer_notes"),
        "absent": child.get("absent"),
        "raw_setup_s": raw_setup,
        "raw_wall_s": raw_wall,
        "setup_samples": probes,
        "samples": samples,
    }
    results = RUN_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    untraced = sum(not s["traced"] for s in timed)
    print(f"workload {args.workload}  seed {args.seed}  tracing {'on' if args.trace else 'off'}")
    print("provenance " + json.dumps(record["provenance"]))
    print(f"  setup_s      {e2e['setup_s']:.4f} s  (median of {len(probes)} child starts;"
          f" raw {raw_setup:.4f} s)")
    print(f"  wall_s       {e2e['wall_s']:.4f} s  (median of {untraced} untraced iterations;"
          f" raw {raw_wall:.4f} s)")
    print(f"  work_per_s   {e2e['work_per_s']:.4g} 1/s  ({child['work_unit']} per second)")
    print(f"  peak_rss_mb  {e2e['peak_rss_mb']:.1f} MB")
    print(f"  failed_frac  {record['failed_frac']:.4g} ratio  ({failed} of {len(samples)})")
    if args.trace:
        notes = child.get("layer_notes") or {}
        for name, unit in tracer.LAYER_METRICS:
            note = f"  ({notes[name]})" if name in notes else ""
            print(f"  {name:34s} {metrics[name]['value']:.6g} {unit}{note}")
        for name in child.get("absent") or []:
            print(f"  absent: {name}")
    print(json.dumps({"correct": failed == 0, "attempted": len(samples), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
