"""A fixed reference job: the yardstick for host speed.

``run.py`` runs this between workload invocations and divides their wall
times by its wall time, so the end-to-end times it reports do not move when
a shared host speeds up or slows down. It imports nothing from histwalk and
does the same mix of work the workloads do: an interpreter start, the numpy
and click imports, a pure-Python loop, many small numpy draws with
cumulative sums, and one pass over arrays of tens of megabytes.

Prints one JSON object, the raw generator ceiling in draws per second of
``standard_normal`` and of ``random``, drawn in chunks of 2**17, the largest
chunk the simulator's engine draws.
"""

import json
import time

import click  # noqa: F401  (imported for its import cost, as the CLI does)
import numpy as np

BIG = 1 << 21
CHUNK = 1 << 17


def timed_rate(draw) -> float:
    draw(CHUNK)
    start = time.perf_counter()
    for _ in range(BIG // CHUNK):
        draw(CHUNK)
    return BIG / (time.perf_counter() - start)


def main() -> dict:
    total = 0
    table = {}
    for k in range(200_000):
        total += k
        table[k & 1023] = total
    rng = np.random.default_rng(0)
    for size in (64, 4096):
        for _ in range((BIG // 4) // size):
            np.cumsum(rng.standard_normal(size))
            np.cumsum(rng.random(size))
    rows = np.cumsum(rng.standard_normal(BIG * 2).reshape(-1, 64), axis=1)
    (rows[:, 32:] - rows[:, :32]).max(axis=1)
    return {"normal": timed_rate(rng.standard_normal), "uniform": timed_rate(rng.random)}


if __name__ == "__main__":
    print(json.dumps(main()))
