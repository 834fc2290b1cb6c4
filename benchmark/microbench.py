"""Per-backend costs of the group primitives, in microseconds per call.

Usage: python3 benchmark/microbench.py SEED

For each of the four backends -- the order-120 table of S5 (finite120),
the free group of rank 3, Z^3 and Z/2 * Z/3 * Z/4 -- times hash(g), g * h
and groups.commute(g, h) on seeded random elements, and prints one JSON
object {"hash_us.<backend>": ..., "mul_us.<backend>": ...,
"commute_us.<backend>": ...}.  Each figure is the median of several
blocks of calls.
"""

import json
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(1, str(HERE.parent / "src"))

import inputs  # noqa: E402
from gradedlie import groups  # noqa: E402

ELEMENTS = 64
BLOCKS = 7
BLOCK_S = 0.04


def backends(rng):
    s5 = groups.GroupSpec.finite(inputs.s5_group()["table"])
    free = groups.GroupSpec.free(3)
    fab = groups.GroupSpec.free_abelian(3)
    fpc = groups.GroupSpec.free_product_cyclic([2, 3, 4])

    def free_word():
        return " ".join(f"{'abc'[rng.randrange(3)]}^{rng.choice((1, -1, 2))}" for _ in range(6))

    return {
        "finite120": [s5.element(rng.randrange(120)) for _ in range(ELEMENTS)],
        "free": [free.parse(free_word()) for _ in range(ELEMENTS)],
        "free_abelian": [fab.parse([rng.randint(-5, 5) for _ in range(3)]) for _ in range(ELEMENTS)],
        "free_product_cyclic": [fpc.parse([[rng.randrange(3), rng.randint(1, 3)] for _ in range(4)])
                                for _ in range(ELEMENTS)],
    }


def per_call_us(fn, elems) -> float:
    """Median over blocks of the time per call; each block repeats passes
    over the element list for about BLOCK_S seconds."""
    pairs = list(zip(elems, elems[1:] + elems[:1]))
    samples = []
    for _ in range(BLOCKS):
        calls, start = 0, time.perf_counter()
        while True:
            for a, b in pairs:
                fn(a, b)
            calls += len(pairs)
            spent = time.perf_counter() - start
            if spent >= BLOCK_S:
                break
        samples.append(spent / calls * 1e6)
    return statistics.median(samples)


def main() -> int:
    rng = inputs.rng_for(int(sys.argv[1]), "microbench")
    out = {}
    for backend, elems in backends(rng).items():
        out[f"hash_us.{backend}"] = per_call_us(lambda a, b: hash(a), elems)
        out[f"mul_us.{backend}"] = per_call_us(lambda a, b: a * b, elems)
        out[f"commute_us.{backend}"] = per_call_us(groups.commute, elems)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
