"""Regenerate digests.json: the output digests of each workload's canary
round (round 0 of seed 0).  Run it only on a commit whose outputs are known
to be right; every benchmark run compares against the file it writes.

Usage: python3 benchmark/freeze.py
"""

import json
import sys

import run
import worker


def main() -> int:
    tmp = run.ROOT / ".bench_tmp" / "freeze"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        frozen = {}
        for name in run.WORKLOADS:
            rep = run.worker(tmp, workload=name, seed=worker.CANARY_SEED, child=0, mode="canary")
            problems = rep["failures"] + run.smith_failures([rep])
            if problems:
                print("\n".join(problems), file=sys.stderr)
                return 1
            frozen[name] = rep["digests"]
    finally:
        run.remove_tmp(tmp)
    (run.HERE / "digests.json").write_text(json.dumps(frozen, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
