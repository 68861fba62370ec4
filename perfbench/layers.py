"""Per-layer metrics from the spans of traced invocations.

A span is ``[id, parent, name, start_ns, end_ns, ints, bytes]`` as written
by ``traced_cli.py``. A layer's self time is its span's duration minus the
durations of its direct children; spans of one invocation nest strictly,
because every wrapped call runs on the main thread.
"""

from __future__ import annotations

from collections import defaultdict

# Per-layer metric -> span name whose durations it sums over one pass.
SPAN_TOTALS = {
    "core.validate_ms": "core.validate",
    "counting.first_primes_ms": "counting.first_primes",
    "counting.coverage_counts_ms": "counting.coverage_counts",
    "counting.histogram_ms": "counting.histogram",
    "counting.sequence_ms": "counting.sequence",
    "determinant.recurrence_ms": "determinant.recurrence",
    "determinant.bareiss_ms": "determinant.bareiss",
    "determinant.laplace_ms": "determinant.laplace",
    "oracle.sieve_ms": "oracle.sieve",
}


def self_ns(spans: list[list]) -> dict[int, int]:
    """Span id -> its duration minus the durations of its direct children."""
    children: dict[int, int] = defaultdict(int)
    for span in spans:
        if span[1] >= 0:
            children[span[1]] += span[4] - span[3]
    return {span[0]: span[4] - span[3] - children[span[0]] for span in spans}


def span_ms(spans: list[list], name: str) -> float:
    """Total duration of the spans called ``name``, in ms."""
    return sum(s[4] - s[3] for s in spans if s[2] == name) / 1e6


def pass_metrics(invocations: list[tuple[list[list], int]]) -> dict[str, float]:
    """Layer totals over one pass: ``(spans, stdout bytes)`` per invocation."""
    total_ns: dict[str, int] = defaultdict(int)
    calls: dict[str, int] = defaultdict(int)
    self_total: dict[str, int] = defaultdict(int)
    ints = nbytes = out_bytes = 0
    for spans, out in invocations:
        out_bytes += out
        own = self_ns(spans)
        for span in spans:
            name = span[2]
            total_ns[name] += span[4] - span[3]
            calls[name] += 1
            self_total[name] += own[span[0]]
            ints += span[5]
            nbytes += span[6]
    metrics = {metric: total_ns[name] / 1e6 for metric, name in SPAN_TOTALS.items()}
    sieve_ns, sieve_calls = total_ns["oracle.sieve"], calls["oracle.sieve"]
    metrics.update({
        "cli.self_ms": self_total["cli.main"] / 1e6,
        "cli.out_bytes": out_bytes,
        "core.validate_calls": calls["core.validate"],
        "oracle.sieve_calls": sieve_calls,
        "oracle.ints_sieved": ints,
        "oracle.ints_per_s": ints / (sieve_ns / 1e9) if sieve_ns else 0.0,
        "oracle.per_call_us": sieve_ns / 1e3 / sieve_calls if sieve_calls else 0.0,
        "oracle.check_self_ms": self_total["oracle.check"] / 1e6,
        "oracle.computed_bytes": nbytes,
    })
    return metrics
