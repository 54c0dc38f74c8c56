"""Child process of the benchmark: one fresh, single-threaded interpreter
per workload run.

    python3 child.py --t0 T --setup-only
    python3 child.py --t0 T --workload NAME --seed N --seconds S --trace 0|1
                     --scale full|tiny --workdir DIR --result PATH

T is the parent's ``time.monotonic()`` just before it started this process,
so set-up time runs from child start until ``ratered`` and ``ratered.cli``
are imported; nothing else is imported first.  The workload then drives
``ratered.cli.main(argv)`` for S seconds while a speed probe samples the
core (see ``speed.py``), checks every iteration's outputs, and writes its
samples to PATH as JSON.
"""

import sys
import time

_T0 = float(sys.argv[sys.argv.index("--t0") + 1])
import ratered  # noqa: E402
import ratered.cli  # noqa: E402

SETUP_S = time.monotonic() - _T0

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402

import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def run_iteration(plan: workloads.Plan, ref: dict, traced: bool) -> dict:
    shutil.rmtree(plan.out, ignore_errors=True)
    spans = tracer.Tracer() if traced else None
    problems: list[str] = []
    if spans is not None:
        spans.install()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in plan.calls:
                code = ratered.cli.main(list(argv))
                if code != 0:
                    problems.append(f"ratered {argv[0]} exited with {code}")
    except Exception:  # a crash in the program fails this iteration only
        problems.append("ratered raised:\n" + traceback.format_exc())
    finally:
        end = time.perf_counter()
        if spans is not None:
            spans.uninstall()
    wall = end - start
    if not problems:
        problems = workloads.check(plan, ref)
    sample = {"wall_s": wall, "traced": traced, "problems": problems, "span": (start, end)}
    if spans is not None:
        sample["layers"] = layers = spans.iteration(wall)
        sample["absent"] = spans.absent
        if layers["self_sum_s"] > wall:
            problems.append(f"span self times {layers['self_sum_s']} exceed wall {wall}")
        if layers["hook_errors"]:
            problems.append(f"{layers['hook_errors']} tracer hooks failed")
    for problem in problems:
        print(f"{plan.name}: {problem}", file=sys.stderr)
    return sample


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--scale", choices=tuple(workloads.SCALES))
    parser.add_argument("--workdir")
    parser.add_argument("--result")
    args = parser.parse_args()
    if args.setup_only:
        print(repr(SETUP_S))
        return 0

    workdir = Path(args.workdir)
    plan = workloads.make_plan(args.workload, args.seed, args.scale, workdir)
    ref = workloads.load_reference(args.scale)[args.workload]
    work, work_unit = workloads.work_per_iteration(plan, ref)

    # Untraced runs time every iteration; traced runs alternate untraced and
    # traced iterations so the tracing overhead is measured in one process.
    samples = []
    started = time.perf_counter()
    with speed.SpeedProbe(period=0.01) as probe:
        while True:
            traced = bool(args.trace) and len(samples) % 2 == 1
            samples.append(run_iteration(plan, ref, traced))
            if time.perf_counter() - started >= args.seconds and (
                not args.trace or len(samples) >= 2
            ):
                break
    for sample in samples:
        sample["speed"] = probe.factor(*sample.pop("span"))
        sample["norm_wall_s"] = sample["wall_s"] * sample["speed"]

    result = {
        "setup_s": SETUP_S,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "work_per_iteration": work,
        "work_unit": work_unit,
        "samples": samples,
        "versions": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "ratered": ratered.__version__,
            "ratered_path": str(Path(ratered.__file__).parent),
        },
    }
    ok = [s for s in samples if not s["problems"]]
    traced_ok = [s["layers"] for s in ok if s["traced"]]
    untraced_ok = [s["norm_wall_s"] for s in ok if not s["traced"]]
    if args.trace and traced_ok and untraced_ok:
        traced_norm = [s["norm_wall_s"] for s in ok if s["traced"]]
        result["layers"], result["layer_notes"] = tracer.summarize(
            traced_ok, traced_norm, untraced_ok)
        result["absent"] = next(s["absent"] for s in ok if s["traced"])
    Path(args.result).write_text(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
