#!/usr/bin/env python3
"""apcover benchmark: runs the CLI as users do, one fresh process at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Closed loop with one client: each ``python -m apcover ARGV`` starts only
after the previous one has exited. A run repeats its workload's fixed argv
list (one pass) until ``--seconds`` have elapsed, and checks every
invocation's output against values the benchmark computes itself. It prints
a ``facts`` line, one ``metric NAME VALUE UNIT`` line per metric, and last a
JSON result line holding the metrics that BENCHMARK.json lists.

``--trace 0`` measures the end-to-end metrics with tracing off, and scales
its times to the reference host's speed by spawns of ``calibration.py``
spread over the same run (``host_scale``). Every child, probes included, is
started by ``launcher.py``.
``--trace 1`` runs each argv twice in a row, once untraced and once through
``traced_cli.py``, reports the per-layer metrics, and writes every span to
``perfbench/out/``.

Exit code 0: every invocation was correct. 1: a check failed (the result
line is still printed). 2: the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import selectors
import signal
import socket
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import calibration
import layers
import workloads
from expected import Checker, sieved
from traced_cli import MARKER

ROOT = Path(__file__).resolve().parent.parent
PROBE_ROUNDS = 16
SETUP = ("-c", "import apcover.cli")
INTERP = ("-c", "pass")
CALIBRATION = (str(ROOT / "perfbench" / "calibration.py"),)
RUN_LIMIT_S = 170.0
TAIL_BEYOND = 10


class SetupError(Exception):
    """The program under test cannot be started from this checkout."""


@dataclass
class Outcome:
    """One finished child process, spawn to exit."""

    argv: tuple[str, ...]
    seconds: float
    rss_kib: int
    out_bytes: int
    spans: list
    error: str | None


class Launcher:
    """The small process that starts every child, so that each child's max RSS
    is its own and not this process's (see launcher.py)."""

    def __init__(self, env: dict[str, str]) -> None:
        self.sock, theirs = socket.socketpair(socket.AF_UNIX, socket.SOCK_SEQPACKET)
        with theirs:
            self.proc = subprocess.Popen(
                [sys.executable, str(ROOT / "perfbench" / "launcher.py"), str(theirs.fileno())],
                cwd=ROOT, env=env, stdin=subprocess.DEVNULL, pass_fds=(theirs.fileno(),))

    def reply(self) -> dict:
        message = self.sock.recv(1 << 16)
        if not message:
            raise SetupError(f"the launcher exited with code {self.proc.wait()}")
        return json.loads(message)

    def spawn(self, cmd: list[str], deadline: float) -> tuple[float, int, int, bytes, bytes]:
        """Run ``cmd`` to its end: seconds, max RSS in KiB, exit code, stdout, stderr."""
        out_r, out_w = os.pipe()
        err_r, err_w = os.pipe()
        try:
            try:
                socket.send_fds(self.sock, [json.dumps({"cmd": cmd}).encode()], [out_w, err_w])
            finally:
                os.close(out_w)
                os.close(err_w)
            pid = self.reply()["pid"]
            try:
                out, err = _drain(out_r, err_r, deadline)
            except BaseException:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                self.reply()
                raise
        finally:
            os.close(out_r)
            os.close(err_r)
        done = self.reply()
        return done["seconds"], done["rss_kib"], done["exit_code"], out, err

    def close(self) -> None:
        self.sock.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


class Runner:
    """Starts one child at a time from the checkout and checks what it prints."""

    def __init__(self, checker: Checker, deadline: float) -> None:
        path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
        self.env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
        self.checker = checker
        self.deadline = deadline
        self.invocations = 0
        self.outcomes: list[Outcome] = []
        self.traces: list[tuple[int, tuple[str, ...], list]] = []
        self.launcher: Launcher | None = None

    def __enter__(self) -> "Runner":
        self.launcher = Launcher(self.env)
        return self

    def __exit__(self, *exc) -> None:
        self.launcher.close()

    def spawn(self, cmd: list[str]) -> tuple[float, int, int, bytes, bytes]:
        """Run ``cmd`` to its end: seconds, max RSS in KiB, exit code, stdout, stderr."""
        return self.launcher.spawn(cmd, max(self.deadline, time.perf_counter() + 1.0))

    def probe(self, args: tuple[str, ...]) -> dict[str, float]:
        """Spawn ``python ARGS``: its seconds as ``total``, and the parts it prints."""
        seconds, _, exit_code, out, err = self.spawn([sys.executable, *args])
        if exit_code != 0:
            raise SetupError(f"python {' '.join(args)} exited {exit_code}: "
                             f"{err.decode()[-400:]}")
        return {"total": seconds, **json.loads(out or b"{}")}

    def invoke(self, argv: tuple[str, ...], traced: bool) -> Outcome:
        self.invocations += 1
        if traced:
            cmd = [sys.executable, str(ROOT / "perfbench" / "traced_cli.py"), *argv]
        else:
            cmd = [sys.executable, "-m", "apcover", *argv]
        try:
            seconds, rss, exit_code, out, err = self.spawn(cmd)
        except TimeoutError:
            outcome = Outcome(argv, RUN_LIMIT_S, 0, 0, [], "killed at the run's time limit")
            self.outcomes.append(outcome)
            return outcome
        error = self.checker.check(argv, exit_code, out)
        spans: list = []
        if traced:
            lines = [line for line in err.decode(errors="replace").splitlines()
                     if line.startswith(MARKER)]
            if lines:
                spans = json.loads(lines[-1][len(MARKER):])
                self.traces.append((self.invocations, argv, spans))
            else:
                error = error or "traced child wrote no spans"
        if error:
            print(f"check failed: apcover {' '.join(argv)}: {error}", file=sys.stderr)
        outcome = Outcome(argv, seconds, rss, len(out), spans, error)
        self.outcomes.append(outcome)
        return outcome

    def passes(self, argvs, seconds: float, modes: tuple[bool, ...] = (False,),
               probes: tuple[tuple[str, ...], ...] = ()
               ) -> tuple[dict[bool, list[list[Outcome]]], dict[tuple, list[dict]]]:
        """Repeat the argv list for ``seconds`` of invocation time; at least once.

        Each argv runs once per mode (untraced, traced) back to back, so all
        modes see the same host speed. PROBE_ROUNDS rounds of one spawn of
        ``python ARGS`` per entry of ``probes`` are spread evenly over the
        passes; their time is not counted in ``seconds``. Returns the passes
        per mode and the probe results per entry.
        """
        done: dict[bool, list[list[Outcome]]] = {mode: [] for mode in modes}
        timed: dict[tuple, list[dict]] = {args: [] for args in probes}
        spent = 0.0
        rounds = 0

        def probe_round() -> None:
            for args in probes:
                timed[args].append(self.probe(args))

        while not done[modes[0]] or (spent < seconds and time.perf_counter() < self.deadline):
            for mode in modes:
                done[mode].append([])
            for argv in argvs:
                while probes and rounds < PROBE_ROUNDS and rounds * seconds <= (
                        PROBE_ROUNDS * spent):
                    probe_round()
                    rounds += 1
                for mode in modes:
                    outcome = self.invoke(argv, mode)
                    done[mode][-1].append(outcome)
                    spent += outcome.seconds
        while probes and rounds < PROBE_ROUNDS:
            probe_round()
            rounds += 1
        return done, timed

    def write_spans(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ["invocation", "id", "parent", "name", "start_ns", "end_ns", "ints", "bytes"]
        with path.open("w") as f:
            f.write(json.dumps({**header, "fields": fields}) + "\n")
            for invocation, argv, spans in self.traces:
                f.write(json.dumps({"invocation": invocation, "argv": argv}) + "\n")
                for span in spans:
                    f.write(json.dumps([invocation, *span]) + "\n")


def _drain(out_fd: int, err_fd: int, deadline: float) -> tuple[bytes, bytes]:
    """Read stdout and stderr together until both close."""
    chunks: dict[int, list[bytes]] = {out_fd: [], err_fd: []}
    with selectors.DefaultSelector() as sel:
        for fd in chunks:
            sel.register(fd, selectors.EVENT_READ)
        while sel.get_map():
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                raise TimeoutError
            for key, _ in sel.select(remaining):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fd].append(data)
                else:
                    sel.unregister(key.fd)
    return b"".join(chunks[out_fd]), b"".join(chunks[err_fd])


def tail(values_ms: list[float]) -> tuple[float, float] | None:
    """Highest percentile with TAIL_BEYOND samples beyond it, as (percentile, value).

    None when that percentile would not lie above the median.
    """
    ordered = sorted(values_ms)
    rank = len(ordered) - TAIL_BEYOND
    if rank <= len(ordered) / 2:
        return None
    return 100.0 * rank / len(ordered), ordered[rank - 1]


def peak_rss_mb(outcomes: list[Outcome]) -> float:
    """Largest, over the argvs, of the median max RSS of that argv's invocations.

    The median, because a multi-threaded sieve's peak varies from one
    invocation to the next with thread timing.
    """
    by_argv: dict[tuple[str, ...], list[int]] = {}
    for o in outcomes:
        by_argv.setdefault(o.argv, []).append(o.rss_kib)
    return max(statistics.median(rss) for rss in by_argv.values()) / 1024


def host_scale(samples: list[dict], weights: dict[str, float]) -> float:
    """Nominal over measured time of the calibration parts, in ``weights``' proportions.

    ``start`` is each calibration spawn's time minus the parts it printed.
    """
    measured = {part: statistics.median(
        s["total"] - sum(v for k, v in s.items() if k != "total") if part == "start"
        else s[part] for s in samples) for part in weights}
    return (sum(w * calibration.NOMINAL_S[part] for part, w in weights.items())
            / sum(w * measured[part] for part, w in weights.items()))


def end_to_end(runner: Runner, name: str, argvs, seconds: float) -> tuple[dict, list[str]]:
    """Untraced metrics, and notes on those BENCHMARK.json cannot list.

    Times are scaled to the reference host's speed by the calibration spawns
    of the same run (``host_scale``); the measured times are printed as
    ``raw.*``.
    """
    by_mode, probes = runner.passes(argvs, seconds, probes=(SETUP, CALIBRATION))
    passes = by_mode[False]
    outcomes = [o for p in passes for o in p]
    latencies = [o.seconds * 1e3 for o in outcomes]
    raw = {
        "setup_s": statistics.median(p["total"] for p in probes[SETUP]),
        "wall_s": statistics.median(sum(o.seconds for o in p) for p in passes),
        "latency_p50_ms": statistics.median(latencies),
    }
    setup_scale = host_scale(probes[CALIBRATION], {"start": 1})
    scale = host_scale(probes[CALIBRATION], workloads.REFERENCE[name])
    metrics = {
        "setup_s": raw["setup_s"] * setup_scale,
        "wall_s": raw["wall_s"] * scale,
        "latency_p50_ms": raw["latency_p50_ms"] * scale,
        "peak_rss_mb": peak_rss_mb(outcomes),
    }
    notes = [f"times: scaled by {scale:.4f} (setup_s by {setup_scale:.4f}) from the median "
             f"parts of {len(probes[CALIBRATION])} calibration spawns spread over the passes, "
             f"weighted {workloads.REFERENCE[name]}",
             f"setup_s: median of {len(probes[SETUP])} spawns of `import apcover.cli`, "
             "spread over the passes",
             f"wall_s: median of {len(passes)} passes of {len(argvs)} invocations"]
    tail_at = tail(latencies)
    if tail_at:
        metrics["latency_tail_ms"] = tail_at[1] * scale
        notes.append(f"latency_tail_ms: p{tail_at[0]:.1f} of {len(latencies)} invocations, "
                     f"{TAIL_BEYOND} beyond it")
    else:
        notes.append(f"latency_tail_ms: omitted, {len(latencies)} invocations leave no "
                     f"percentile above the median with {TAIL_BEYOND} beyond it")
    verify = [o for o in outcomes if o.argv[0] == "verify"]
    if verify:
        metrics["ints_per_s"] = (sum(sieved(o.argv) for o in verify)
                                 / sum(o.seconds for o in verify) / scale)
    else:
        notes.append("ints_per_s: omitted, the workload runs no verify")
    failed = sum(1 for o in runner.outcomes if o.error)
    metrics["error_rate"] = failed / len(runner.outcomes)
    metrics["host.scale"] = scale
    metrics.update({f"host.{part}_s": nominal / host_scale(probes[CALIBRATION], {part: 1})
                    for part, nominal in calibration.NOMINAL_S.items()})
    metrics.update({f"raw.{metric}": value for metric, value in raw.items()})
    return metrics, notes


def per_layer(runner: Runner, argvs, probes, seconds: float,
              threads: int) -> tuple[dict, list[str]]:
    """Traced metrics: span totals per pass, medians over passes."""
    by_mode, interp = runner.passes(argvs, seconds, modes=(False, True), probes=(INTERP,))
    plain, traced = by_mode[False], by_mode[True]
    rate_1t, rate_nt = (
        layers.pass_metrics([(runner.invoke(argv, traced=True).spans, 0)])["oracle.ints_per_s"]
        for argv in probes)
    per_pass = [layers.pass_metrics([(o.spans, o.out_bytes) for o in p]) for p in traced]
    # median_low keeps each count a count that some pass actually made.
    metrics = {name: statistics.median_low(m[name] for m in per_pass) for name in per_pass[0]}
    plain_wall = statistics.median(sum(o.seconds for o in p) for p in plain)
    traced_wall = statistics.median(sum(o.seconds for o in p) for p in traced)
    metrics.update({
        "cli.interp_ms": statistics.median(p["total"] for p in interp[INTERP]) * 1e3,
        "cli.import_ms": statistics.median(
            layers.span_ms(o.spans, "cli.import") for p in traced for o in p),
        "oracle.ints_per_s_1t": rate_1t,
        "oracle.ints_per_s_nt": rate_nt,
        "oracle.thread_efficiency": rate_nt / (rate_1t * threads) if rate_1t else 0.0,
        "trace.overhead_pct": 100.0 * (traced_wall / plain_wall - 1.0),
    })
    notes = [f"layer totals: median over {len(traced)} traced passes; overhead against "
             f"{len(plain)} untraced passes, each argv run untraced then traced",
             f"cli.interp_ms: median of {len(interp[INTERP])} spawns of `pass`, "
             "spread over the passes",
             f"thread probe: threads=1 vs threads={threads} on the first 9 primes",
             "oracle.computed_bytes: computed from buffer sizes, not measured"]
    return metrics, notes


def machine_facts(args: argparse.Namespace, cpus: int) -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "missing"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "cpus": cpus,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": _commit(),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str:
    """HEAD of the checkout, when the checkout is a git work tree of its own."""
    try:
        top, head = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True).stdout.splitlines()
    except (OSError, subprocess.SubprocessError, ValueError):
        return "unknown"
    return head if Path(top).resolve() == ROOT else "unknown"


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    start = time.perf_counter()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (ROOT / "src" / "apcover" / "cli.py").is_file():
        print(f"error: no src/apcover/cli.py under {ROOT}", file=sys.stderr)
        return 2
    cpus = len(os.sched_getaffinity(0))
    argvs = workloads.build(args.workload, args.seed, cpus)
    probes = [workloads.thread_probe(args.seed, n) for n in (1, cpus)] if args.trace else []
    runner = Runner(Checker(argvs + probes), deadline=start + RUN_LIMIT_S)
    facts = machine_facts(args, cpus)
    try:
        with runner:
            # Also fills the bytecode and page caches before anything is timed.
            _, _, exit_code, out, err = runner.spawn(
                [sys.executable, "-c", "import apcover.cli; print(apcover.cli.__file__)"])
            if exit_code != 0 or not Path(out.decode().strip()).is_relative_to(ROOT / "src"):
                raise SetupError(f"apcover.cli does not import from {ROOT / 'src'}: "
                                 f"{(out + err).decode()[-400:]}")
            if args.trace:
                metrics, notes = per_layer(runner, argvs, probes, args.seconds, cpus)
                listed = spec["per_layer"]
                runner.write_spans(ROOT / "perfbench" / "out" /
                                   f"spans-{args.workload}-seed{args.seed}.jsonl", facts)
            else:
                metrics, notes = end_to_end(runner, args.workload, argvs, args.seconds)
                listed = spec["end_to_end"]
    except (SetupError, TimeoutError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(latency_tail_ms="ms", ints_per_s="integers/s", error_rate="ratio")
    units.update({"host.scale": "ratio", "raw.setup_s": "s", "raw.wall_s": "s",
                  "raw.latency_p50_ms": "ms"})
    units.update({f"host.{part}_s": "s" for part in calibration.NOMINAL_S})
    print("facts " + json.dumps(facts))
    for name, value in metrics.items():
        print(f"metric {name} {value!r} {units[name]}")
    for note in notes:
        print(f"note {note}")
    failed = sum(1 for o in runner.outcomes if o.error)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(runner.outcomes),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in listed},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
