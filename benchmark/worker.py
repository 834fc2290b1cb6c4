"""One fresh process running one workload; started by run.py.

Usage: python3 benchmark/worker.py '<json config>'

The config names the workload, seed and child index, and one mode:
- "setup": set up and stop, reporting only the set-up time;
- "timed": set up, then run whole rounds until about `seconds` of operation
  time, probing the core's speed between operations (see SpeedProbe), then
  run the canary round (seed 0) whose output digests are frozen;
- "deck": set up, then run exactly `rounds` rounds, traced when `trace` is
  set, dumping spans into `tmp`;
- "canary": run only the first round of `seed` and report its output
  digests (freeze.py and selftest.py use it).

The last line of standard output is a JSON report.  Set-up time runs from
the first statement of this file, before gradedlie is imported, to the
first timed operation.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(1, str(HERE.parent / "src"))

import inputs  # noqa: E402

CANARY_SEED = 0
# seconds of operation time between two speed probes in a timed run
PROBE_EVERY_S = 0.05


def probe_s() -> float:
    """Time a fixed piece of exact arithmetic and dict traffic, like
    gradedlie's inner loops but not calling it, so that a change to the
    library cannot change it: a reading of how fast the core runs now."""
    start = time.perf_counter()
    acc = {}
    for k in range(12):
        x = Fraction(1, 3)
        for i in range(60):
            x = x * Fraction(i + 1, i + 2) + 1
            acc[(i, k)] = x
    return time.perf_counter() - start


class SpeedProbe:
    """Runs probe_s every PROBE_EVERY_S seconds of operation time; an
    operation's probe time is the mean of the probes on either side of it."""

    def __init__(self):
        self.times, self.owner, self.since = [probe_s()], [], 0.0

    def after(self, latency: float) -> None:
        self.owner.append(len(self.times) - 1)
        self.since += latency
        if self.since >= PROBE_EVERY_S:
            self.times.append(probe_s())
            self.since = 0.0

    def per_op(self) -> list:
        self.times.append(probe_s())
        return [(self.times[i] + self.times[i + 1]) / 2 for i in self.owner]


def round_rng(seed, workload, child, r):
    return inputs.rng_for(seed, workload, child, "round", r)


def make(workload: str, tmp: Path, tag: str, trace_dir: Path = None):
    import workloads
    cls = workloads.WORKLOADS[workload]
    if workload == "cli":
        return cls(tmp / f"files-{tag}", trace_dir)
    return cls()


def run_ops(ops, report, digests=None, probe=None):
    """Time each operation, then check it (and digest its output) untimed."""
    clock = time.perf_counter
    spent = 0.0
    for op in ops:
        report["attempted"] += 1
        start = clock()
        try:
            out = op.run()
            error = None
        except Exception as exc:  # a raising operation is a failed operation
            out, error = None, exc
        lat = clock() - start
        spent += lat
        report["latencies"].append(lat)
        if probe is not None:
            probe.after(lat)
        if error is None:
            try:
                op.check(out)
                if digests is not None:
                    from workloads import digest
                    digests.append([op.label, digest(op.render(out))])
            except Exception as exc:
                error = exc
        if error is not None:
            report["failed"] += 1
            if len(report["failures"]) < 5:
                report["failures"].append(f"{op.label}: {type(error).__name__}: {error}")
    return spent


def canary_round(name: str, tmp: Path, seed: int, report: dict) -> None:
    """Run round 0 of `seed` on a fresh instance, digesting every output."""
    canary = make(name, tmp, f"canary{seed}")
    canary.setup(seed, 0)
    sub = {"attempted": 0, "failed": 0, "failures": [], "latencies": []}
    report["digests"] = []
    run_ops(canary.round(round_rng(seed, name, 0, 0)), sub, report["digests"])
    for key in ("attempted", "failed", "failures"):
        report[key] += sub[key]
    report.setdefault("deferred", []).extend(getattr(canary, "deferred", {}).values())


def main() -> int:
    cfg = json.loads(sys.argv[1])
    name, seed, child, tmp = cfg["workload"], cfg["seed"], cfg["child"], Path(cfg["tmp"])
    import gradedlie  # noqa: F401  (part of set-up time)

    if cfg["mode"] == "canary":
        report = {"attempted": 0, "failed": 0, "failures": []}
        canary_round(name, tmp, seed, report)
        print(json.dumps(report))
        return 0

    tracer = None
    trace_dir = None
    if cfg.get("trace"):
        if name == "cli":
            trace_dir = tmp / f"spans-{name}-{child}"
            trace_dir.mkdir(parents=True, exist_ok=True)
        else:
            import tracing
            tracer = tracing.Tracer()
            tracer.install()
    wl = make(name, tmp, str(child), trace_dir)
    wl.setup(seed, child)
    report = {"setup_s": time.perf_counter() - T0, "attempted": 0, "failed": 0,
              "failures": [], "latencies": []}
    # the core's speed just after set-up, for scaling the set-up time
    report["setup_probe_s"] = sorted(probe_s() for _ in range(3))[1]
    if cfg["mode"] == "setup":
        del report["latencies"]
        print(json.dumps(report))
        return 0

    if cfg["mode"] == "deck":
        for r in range(cfg["rounds"]):
            run_ops(wl.round(round_rng(seed, name, child, r)), report)
    else:
        elapsed, last, r = 0.0, 0.0, 0
        probe = SpeedProbe()
        # whole rounds keep the operation mix exact; stop when the next round
        # would more likely overshoot the budget than not
        while r == 0 or elapsed + last / 2 < cfg["seconds"]:
            last = run_ops(wl.round(round_rng(seed, name, child, r)), report, probe=probe)
            elapsed += last
            r += 1
        report["probe_s"] = probe.per_op()
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF)
    report["peak_rss_mib"] = usage.ru_maxrss / 1024
    report["rounds"] = cfg.get("rounds") or r

    report["deferred"] = list(getattr(wl, "deferred", {}).values())
    if cfg["mode"] == "timed":
        canary_round(name, tmp, CANARY_SEED, report)

    if tracer is not None:
        path = tmp / f"spans-{name}-{child}"
        tracer.dump(path)
        report["span_files"] = [str(path)]
    elif trace_dir is not None:
        report["span_files"] = [str(p) for p in sorted(trace_dir.glob("*.json"))]
        report["walls"] = wl.walls
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
