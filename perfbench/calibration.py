"""A fixed job apcover cannot change, used to measure how fast the host runs.

    python3 perfbench/calibration.py

It runs one part of each kind of work the workloads do and prints each part's
seconds as JSON. The part ``start`` (interpreter start and imports, including
numpy) is not printed: the parent takes it as the spawn-to-exit time minus the
printed parts. On a shared host these kinds of work speed up and slow down by
different amounts, so each workload is scaled by the parts that match it
(``workloads.REFERENCE``).
"""

import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# Median seconds of each part on the reference host (2 vCPU Intel Xeon,
# Python 3.11.7, numpy 2.4.6). Scaled times read as times on that host.
NOMINAL_S = {"start": 0.23, "bigint": 0.06, "small": 0.07, "stream": 0.075}

WINDOW_PRIMES = (2, 3, 5, 7, 11, 13)
STREAM_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23)


def bigint() -> None:
    """Big-integer multiply and int-to-str, as the sequence tables do."""
    sys.set_int_max_str_digits(0)
    str(3 ** 60_000 * 7 ** 30_000)


def window(n: int, offset: int, primes) -> np.ndarray:
    buf = np.zeros(n, np.uint8)
    for p in primes:
        buf[offset % p::p] += 1
    return np.bincount(buf, minlength=len(primes) + 1)


def small() -> None:
    """Many one-chunk sieves of a 30030-integer window, one thread."""
    for offset in range(500):
        window(30030, offset, WINDOW_PRIMES)


def stream() -> None:
    """1 Mi chunks on one thread per CPU, as a big-window sieve streams them."""
    with ThreadPoolExecutor(len(os.sched_getaffinity(0))) as pool:
        sum(pool.map(lambda lo: window(1 << 20, lo, STREAM_PRIMES), range(16)))


def main() -> None:
    parts = {}
    for name, part in (("bigint", bigint), ("small", small), ("stream", stream)):
        start = time.perf_counter()
        part()
        parts[name] = time.perf_counter() - start
    print(json.dumps(parts))


if __name__ == "__main__":
    main()
