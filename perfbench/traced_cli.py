"""Run one apcover CLI invocation with a span around each layer call.

    python perfbench/traced_cli.py ARGV...

The process has the same shape as ``python -m apcover ARGV...``: one fresh
interpreter, one ``apcover.cli.main(argv)`` call. Before the call it wraps
the public functions that ``apcover.cli`` and ``apcover.oracle`` look up by
name, so no file of the package changes. Spans stay in memory and are
written as one line on stderr, after ``MARKER``, when the invocation ends.
Each span is ``[id, parent, name, start_ns, end_ns, ints, bytes]``; parent
is -1 for a root span, and ``ints``/``bytes`` are set on sieve spans only.
"""

from __future__ import annotations

import functools
import json
import sys
import time

MARKER = "perfbench-spans "

# (attribute looked up by name in apcover.cli, span name)
CLI_CALLS = (
    ("validate_modulus_system", "core.validate"),
    ("first_primes", "counting.first_primes"),
    ("coverage_counts", "counting.coverage_counts"),
    ("exact_coverage_histogram", "counting.histogram"),
    ("oeis_a067549", "counting.sequence"),
    ("oeis_a005867", "counting.sequence"),
    ("available_det", "determinant.recurrence"),
    ("free_det", "determinant.recurrence"),
    ("det_bareiss", "determinant.bareiss"),
    ("det_laplace", "determinant.laplace"),
    ("residue_independence_check", "oracle.check"),
)


def sieve_work(system, *_args, **_kwargs) -> tuple[int, int]:
    """Integers one sieve call covers, and bytes its buffers must move.

    The bytes are computed from buffer sizes, not measured: one uint8 write
    per integer to clear the buffer, one read per integer to bin it, and a
    read plus a write for every member of every progression.
    """
    product = system.product
    hits = sum(-(-product // p) for p in system.moduli)
    return product, 2 * product + 2 * hits


class Tracer:
    """Spans of one invocation, kept in memory until it ends."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    def begin(self, name: str, ints: int = 0, nbytes: int = 0) -> list:
        parent = self._open[-1] if self._open else -1
        span = [len(self.spans), parent, name, time.perf_counter_ns(), 0, ints, nbytes]
        self.spans.append(span)
        self._open.append(span[0])
        return span

    def end(self, span: list) -> None:
        span[4] = time.perf_counter_ns()
        self._open.pop()

    def wrap(self, module, attr: str, name: str, work=None) -> None:
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(name, *(work(*args, **kwargs) if work else ()))
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(span)

        setattr(module, attr, traced)


def main(argv: list[str]) -> int:
    tracer = Tracer()
    span = tracer.begin("cli.import")
    import apcover.cli as cli
    import apcover.oracle as oracle
    tracer.end(span)

    for attr, name in CLI_CALLS:
        tracer.wrap(cli, attr, name)
    tracer.wrap(oracle, "coverage_counts", "counting.coverage_counts")
    tracer.wrap(oracle, "sieve_histogram", "oracle.sieve", sieve_work)

    span = tracer.begin("cli.main")
    try:
        code = cli.main(argv)
        sys.stdout.flush()
    finally:
        tracer.end(span)
        sys.stderr.write(MARKER + json.dumps(tracer.spans) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
