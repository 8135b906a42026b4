"""Write bench/reference_seed0.json: each workload's outputs at the default
seed, which later runs at that seed must reproduce within
workloads.REFERENCE_TOL. Run once, at the commit that defines the reference:

    python3 bench/make_reference.py
"""

import json
import os
import shutil
import sys

from run import DEFAULT_SEED, REFERENCE, WORK, invoke
from workloads import WORKLOADS


def main() -> int:
    reference = {}
    workdir = WORK / f"reference-{os.getpid()}"
    try:
        for name, w in WORKLOADS.items():
            argv = w.argv(DEFAULT_SEED)
            rec = invoke(workdir / name, "plain", argv)
            data = w.read(workdir / name / "out")
            problems = w.invariants(data, argv) + rec.get("violations", [])
            if rec["returncode"] != 0 or problems:
                print(f"{name}: exit {rec['returncode']}, {problems}", file=sys.stderr)
                return 1
            reference[name] = w.reference_view(data)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    REFERENCE.write_text(json.dumps(reference) + "\n")
    print(f"wrote {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
