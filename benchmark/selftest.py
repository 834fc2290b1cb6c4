"""Self-test of the benchmark.

Usage, from the root of a checkout: python3 benchmark/selftest.py

Checks that
- the same seed gives identical inputs and output digests, and another seed
  gives other inputs (each canary round's labels spell out its inputs);
- the canary round of seed 0 still matches digests.json;
- every run prints exactly the metrics BENCHMARK.json names, with their
  units, and no operation fails, with tracing off and on;
- outside a gradedlie checkout the benchmark exits non-zero without a result.
Exits 0 when all hold.
"""

import json
import shutil
import subprocess
import sys

import run
import worker

SEED = 7


def canary(tmp, name, seed):
    rep = run.worker(tmp, workload=name, seed=seed, child=0, mode="canary")
    assert rep["failed"] == 0 and not run.smith_failures([rep]), rep["failures"]
    return rep["digests"]


def benchmark(*args, cwd=run.ROOT):
    return subprocess.run([sys.executable, "benchmark/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def check_result(proc, spec, label):
    assert proc.returncode == 0, f"{label}: exit {proc.returncode}: {proc.stderr[-1000:]}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, \
        f"{label}: {proc.stdout[-2000:]}"
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    wanted = {m["name"]: m["unit"] for m in spec}
    assert printed == wanted, f"{label}: printed {sorted(printed)} != named {sorted(wanted)}"


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS), spec["workloads"]
    names = list(run.WORKLOADS)
    frozen = json.loads((run.HERE / "digests.json").read_text())

    tmp = run.ROOT / ".bench_tmp" / "selftest"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        for name in names:
            first = canary(tmp, name, SEED)
            assert first == canary(tmp, name, SEED), f"{name}: seed {SEED} is not reproducible"
            assert first != canary(tmp, name, SEED + 1), f"{name}: the seed changes nothing"
            assert canary(tmp, name, worker.CANARY_SEED) == frozen[name], \
                f"{name}: outputs differ from digests.json"
            print(f"{name}: inputs and digests reproducible")

        for name in names:
            proc = benchmark("--workload", name, "--seed", str(SEED), "--seconds", "2",
                             "--trace", "0")
            check_result(proc, spec["end_to_end"], f"{name} --trace 0")
            print(f"{name}: end-to-end metrics complete, no failures")
        check_result(benchmark("--workload", names[0], "--seed", str(SEED), "--seconds", "2",
                               "--trace", "1"), spec["per_layer"], "--trace 1")
        print("traced run: per-layer metrics complete, no failures")

        bare = tmp / "bare"
        shutil.copytree(run.HERE, bare / "benchmark",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = benchmark("--workload", names[0], "--seed", "1", "--seconds", "1", cwd=bare)
        assert proc.returncode != 0 and not proc.stdout.strip(), "ran without a checkout"
        print("outside a checkout: refuses to run")
    finally:
        run.remove_tmp(tmp)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
