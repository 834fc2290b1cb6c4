"""The gradedlie benchmark.

Usage, from the root of a checkout:

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py for the exact rounds and input rules):
- envelope: normal forms, products and monomial bases in the strong
  enveloping algebra of sl2, sl3 (Z^2 root grading) and an S5-graded sum;
- witt: Lyndon bases, free monomial bases, Witt rank checks and the
  free-abelian degree lift on seven alphabets;
- structure: validation, centers, inner derivations, graded spans,
  universal groups, coarsenings and embeddings on gl_n/sl_n (n = 3, 4), the
  S5-graded sum and the shipped fixtures;
- cli: one fresh `gradedlie` process per command, replaying the golden
  transcripts and commands on generated algebra files.

BENCHMARK.json lists envelope and structure as the end-to-end workloads.
The run budget allows runs of about a minute for two workloads, or of 20 s
for all four; at 20 s witt's median latency and every time of cli spread by
a fifth or more across seeds (cli's times are wall times of child
processes, which the speed probe below does not follow).  witt and cli run
end to end on request, and every traced run covers all four.

Every workload is a closed loop with one client.  With --trace 0 a run
starts seven fresh worker processes: six only set up (three before and
three after the seventh), one sets up and then runs whole rounds of
operations for about S seconds of operation time, followed by the canary
round whose output digests are frozen in digests.json.  It prints the
end-to-end metrics: the median set-up time of the seven, operations per
second, median and 90th-percentile latency, and peak resident memory.

All times are scaled to a core of constant speed.  On a shared machine the
speed of a core changes by up to 1.7x within seconds and can stay changed
for minutes, as other tenants come and go, so that raw timings of one-minute
runs spread by more than a quarter.  The timed worker therefore also runs a
fixed probe that does not call gradedlie (worker.probe_s) every
PROBE_EVERY_S of operation time, and each latency is multiplied by
PROBE_NOMINAL_S over the mean of the probes on either side of it; each
set-up time is scaled by the median of three probes run right after it.  A
change to gradedlie changes the times and not the probe.

With --trace 1 a run gives the per-layer metrics:
it runs a fixed deck of rounds of every workload in a traced worker (a
module's metrics come from the workload that exercises it, see PER_LAYER),
the named workload's deck once more untraced for the tracing overhead, and
the group microbenchmarks.  The decks are fixed, not timed, so that the
counts repeat exactly; --seconds is not used.

Every output is checked (see oracles.py); the last line of standard output
is {"correct", "attempted", "failed", "metrics"}.  The run reads and writes
only inside the checkout, in .bench_tmp/, which it removes.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("envelope", "witt", "structure", "cli")
SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 170
# about the speed probe's time (worker.probe_s) on an undisturbed core of a 2.0 GHz
# Xeon; latencies are scaled to a core on which it takes this long
PROBE_NOMINAL_S = 0.003
# rounds in a traced deck, sized to a few seconds each untraced
TRACE_ROUNDS = {"envelope": 10, "witt": 1, "structure": 2, "cli": 1}

# per-layer metric -> (unit, workload whose traced deck gives it)
PER_LAYER = {}
for _fn, _stats, _owner in (
        ("groups.commute", ("calls", "self_s"), "envelope"),
        ("groups.generates_abelian_subgroup", ("calls", "self_s"), "envelope"),
        ("groups.GroupSpec.finite", ("self_s",), "envelope"),
        ("pbw.normalize", ("calls", "self_s", "terms_out"), "envelope"),
        ("pbw.su_mul", ("self_s",), "envelope"),
        ("pbw.pbw_basis", ("self_s", "monomials"), "envelope"),
        ("freelie.witt_check", ("self_s",), "witt"),
        ("freelie.lyndon_basis", ("self_s",), "witt"),
        ("freelie.free_monomial_basis", ("self_s",), "witt"),
        ("freelie.abelian_lift_check", ("self_s",), "witt"),
        ("linalg.rank", ("calls", "self_s", "cells"), "witt"),
        ("linalg.smith_normal_form", ("calls", "self_s", "cells"), "structure"),
        ("linalg.in_span", ("self_s",), "structure"),
        ("linalg.nullspace", ("self_s",), "structure"),
        ("linalg.independent_subset", ("self_s",), "structure"),
        ("liealg.validate", ("self_s",), "structure"),
        ("liealg.center", ("self_s",), "structure"),
        ("liealg.inner_derivations", ("self_s",), "structure"),
        ("liealg.is_graded_lie_subspace", ("self_s",), "structure"),
        ("unigroup.universal_presentation", ("self_s",), "structure"),
        ("unigroup.abelianize", ("self_s",), "structure"),
        ("unigroup.coarsening_check", ("self_s",), "structure"),
        ("algfile.load_algebra", ("self_s",), "cli"),
        ("algfile.parse_word", ("self_s",), "cli"),
        ("cli.main", ("self_s",), "cli")):
    for _stat in _stats:
        PER_LAYER[f"{_fn}.{_stat}"] = ("s" if _stat == "self_s" else "count", _owner)
for _backend in ("finite120", "free", "free_abelian", "free_product_cyclic"):
    for _prim in ("hash", "mul", "commute"):
        PER_LAYER[f"groups.{_prim}_us.{_backend}"] = ("us", "microbench")
PER_LAYER["cli.import_s"] = ("s", "cli")
PER_LAYER["cli.process_s"] = ("s", "cli")
PER_LAYER["trace.overhead_ratio"] = ("ratio", None)

END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
              "peak_rss_mib": "MiB"}


# a fixed hash seed makes set and dict orders, and so the work counted in a
# traced run, the same in every process
CHILD_ENV = dict(os.environ, PYTHONHASHSEED="0")


class ChildFailed(RuntimeError):
    pass


def spawn(script: str, *args: str) -> dict:
    """Run a benchmark script in a fresh interpreter; its last output line
    is a JSON report."""
    proc = subprocess.run([sys.executable, str(HERE / script), *args], cwd=ROOT, env=CHILD_ENV,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise ChildFailed(f"{script} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def worker(tmp: Path, **cfg) -> dict:
    return spawn("worker.py", json.dumps({"tmp": str(tmp), **cfg}))


def smith_failures(reports) -> list:
    """Check every claimed abelianization against the sympy oracle."""
    import oracles
    claims = {json.dumps([c["matrix"], c["description"]]): c
              for rep in reports for c in rep.get("deferred", [])}
    bad = []
    for claim in claims.values():
        want = oracles.describe_group(*oracles.smith_oracle(claim["matrix"]))
        if want != claim["description"]:
            bad.append(f"{claim['what']}: U_ab claimed {claim['description']}, oracle {want}")
    return bad


def digest_failures(workload: str, digests) -> list:
    frozen = json.loads((HERE / "digests.json").read_text())[workload]
    if digests == frozen:
        return []
    return [f"canary digests differ from digests.json ({len(digests)} vs {len(frozen)} outputs)"]


def quantile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def timed_run(args, tmp: Path):
    def setup_only(child):
        return worker(tmp, workload=args.workload, seed=args.seed, child=child, mode="setup")

    # set-up samples before and after the timed worker, so that they do not
    # all fall into one fast or slow phase of a shared machine
    half = SETUP_SAMPLES // 2
    setups = [setup_only(c) for c in range(1, half + 1)]
    main = worker(tmp, workload=args.workload, seed=args.seed, child=0, mode="timed",
                  seconds=args.seconds)
    setups += [setup_only(c) for c in range(half + 1, SETUP_SAMPLES)]
    problems = main["failures"] + smith_failures([main]) + digest_failures(
        args.workload, main["digests"])
    failed = main["failed"] + len(problems) - len(main["failures"])
    probes = main["probe_s"]
    lat = [x * PROBE_NOMINAL_S / p for x, p in zip(main["latencies"], probes)]
    p90 = quantile(lat, 90)
    print(f"{args.workload}: {main['rounds']} rounds, {len(lat)} timed operations, "
          f"{sum(x > p90 for x in lat)} beyond p90; speed probe median "
          f"{statistics.median(probes) * 1e3:.3f} ms; raw set-up samples "
          f"{[round(s['setup_s'], 4) for s in [main] + setups]}")
    metrics = {
        "setup_s": statistics.median(s["setup_s"] * PROBE_NOMINAL_S / s["setup_probe_s"]
                                     for s in [main] + setups),
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": quantile(lat, 50) * 1e3,
        "op_p90_ms": p90 * 1e3,
        "peak_rss_mib": main["peak_rss_mib"],
    }
    return problems, main["attempted"], failed, {k: (v, END_TO_END[k]) for k, v in metrics.items()}


def traced_run(args, tmp: Path):
    import tracing
    stats, decks, attempted, failed, problems = {}, {}, 0, 0, []
    cli_import, cli_process = [], []
    for w in WORKLOADS:
        deck = worker(tmp, workload=w, seed=args.seed, child=0, mode="deck",
                      rounds=TRACE_ROUNDS[w], trace=True)
        decks[w] = deck
        stats[w] = {}
        for path in deck["span_files"]:
            path = Path(path)
            tracing.merge(stats[w], tracing.self_times(path))
            if w == "cli":
                header, _ = tracing.load(path)
                cli_import.append(header["import_s"])
                cli_process.append(deck["walls"][str(path.with_suffix(""))] - header["main_s"])
    plain = worker(tmp, workload=args.workload, seed=args.seed, child=0, mode="deck",
                   rounds=TRACE_ROUNDS[args.workload])
    micro = spawn("microbench.py", str(args.seed))
    for rep in list(decks.values()) + [plain]:
        attempted += rep["attempted"]
        failed += rep["failed"]
        problems += rep["failures"]
    extra = smith_failures(list(decks.values()) + [plain])
    failed += len(extra)
    problems += extra
    print("traced decks: " + ", ".join(f"{w} {len(d['latencies'])} operations"
                                       for w, d in decks.items()))

    metrics = {}
    for name, (unit, owner) in PER_LAYER.items():
        if owner == "microbench":
            value = micro[name.split(".", 1)[1]]
        elif name == "cli.import_s":
            value = statistics.median(cli_import)
        elif name == "cli.process_s":
            value = statistics.median(cli_process)
        elif name == "trace.overhead_ratio":
            value = sum(decks[args.workload]["latencies"]) / sum(plain["latencies"])
        else:
            fn, stat = name.rsplit(".", 1)
            value = stats[owner].get(fn, {}).get(stat, 0)
        metrics[name] = (value, unit)
    return problems, attempted, failed, metrics


def remove_tmp(tmp: Path) -> None:
    """Remove a run's scratch directory, and .bench_tmp once it is empty."""
    shutil.rmtree(tmp, ignore_errors=True)
    try:
        tmp.parent.rmdir()
    except OSError:
        pass


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    missing = [p for p in ("src/gradedlie/__init__.py", "fixtures/golden")
               if not (ROOT / p).exists()]
    if missing:
        print(f"error: {ROOT} is not a gradedlie checkout (missing {', '.join(missing)})",
              file=sys.stderr)
        return 2

    tmp = ROOT / ".bench_tmp" / str(os.getpid())
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        run = traced_run if args.trace else timed_run
        problems, attempted, failed, metrics = run(args, tmp)
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        remove_tmp(tmp)
    for line in problems:
        print(f"FAILED {line}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
