#!/usr/bin/env python3
"""Record reference.json: the seed-independent facts of every workload's
outputs at every scale (field CSV digests, certify verdict and locations,
stop data of the converge run, oracle feasibility of the a08 points).

    python3 perfbench/record_reference.py

Run it only on a commit whose outputs are known to be right.  Each workload
runs with two seeds, and the facts must agree between them.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import ratered.cli  # noqa: E402

import workloads  # noqa: E402


def main() -> int:
    workdir = ROOT / ".perfbench_run" / "record"
    reference: dict = {}
    for scale in workloads.SCALES:
        reference[scale] = {}
        for name in workloads.WORKLOADS:
            seen = []
            for seed in (0, 1):
                shutil.rmtree(workdir, ignore_errors=True)
                workdir.mkdir(parents=True)
                plan = workloads.make_plan(name, seed, scale, workdir)
                with contextlib.redirect_stdout(io.StringIO()):
                    codes = [ratered.cli.main(list(argv)) for argv in plan.calls]
                facts, problems = workloads.observe(plan)
                if any(codes) or problems:
                    print(f"{scale} {name} seed {seed}: exit codes {codes}, {problems}",
                          file=sys.stderr)
                    return 1
                seen.append(facts)
            if seen[0] != seen[1]:
                print(f"{scale} {name}: facts depend on the seed", file=sys.stderr)
                return 1
            reference[scale][name] = seen[0]
            print(f"{scale} {name}: {sorted(seen[0])}")
    shutil.rmtree(workdir, ignore_errors=True)
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
