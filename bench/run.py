"""The ncdim benchmark: ``python3 bench/run.py --workload W --seed N --seconds S --trace 0|1``.

One client runs one op at a time (a closed loop) over the workload's deck
(see ``workloads.py``), repeating whole decks until ``--seconds`` have passed
and at least ``MIN_DECKS`` decks are done.  Every op is checked by ``oracle``;
an op fails on a wrong answer, an unexpected exit code or a timeout.

Latencies are scaled to a reference speed.  The machine this benchmark was
sized on runs the same code up to 2x faster or slower from minute to minute
(CPU time tracks wall time, so the cause is contention for the core, not
waiting).  A fixed piece of pure-Python work, ``reference_work``, is timed
every ``CALIBRATE_EVERY_S`` of op time; each op's latency is multiplied by
``REFERENCE_S`` over the mean of the reference times taken just before and
just after it.  An op cut off at its wall budget keeps its raw wall time,
since the budget is wall time.  Setup probes are scaled the same way.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced decks and prints the per-layer metrics of the traced
ones, with the tracing overhead measured between the two.  The last line of
stdout is the result as one JSON object; the line before it records the op
count, the tail percentile and every failed op.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import runtime  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 9
# Median time of reference_work on the machine the bounds were set on
# (2 vCPUs, Python 3.11); scaled latencies read as on that machine.
REFERENCE_S = 0.0117
CALIBRATE_EVERY_S = 0.2
# Grace a traced hostile child gets after SIGTERM to write its spans.
TERM_GRACE_S = 2.0
HOSTILE_CODES = (0, 2, 3)


_TOKEN = re.compile(r"(?P<ws>\s+)|(?P<nat>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[+\-*/^])")


def reference_work() -> int:
    """Fixed pure-Python work of the kinds ncdim does: tuples, dicts,
    Fractions, sets and sorting in a tight loop, then argument parsing, JSON,
    regular expressions and text formatting as a CLI call does them."""
    words = [(i % 7, i % 5, i % 3, i % 11) for i in range(1000)]
    totals: dict = {}
    for w in words:
        totals[w] = totals.get(w, 0) + Fraction(w[0] + 1, w[1] + 1)
    ordered = sorted(set(words), key=lambda w: (sum(w), w))
    names = [f"x{i}" for i in range(1, 9)]
    doc = {"variables": [{"name": x} for x in names],
           "relations": [f"{b}*{a} - 3/4*{a}*{b}" for a in names for b in names if a < b]}
    size = 0
    for _ in range(4):
        parser = argparse.ArgumentParser(prog="reference")
        sub = parser.add_subparsers(dest="command", required=True)
        for command in ("check", "report"):
            p = sub.add_parser(command)
            p.add_argument("file")
            p.add_argument("--format", choices=["json", "text"], default="json")
        args = parser.parse_args(["report", "f.json", "--format", "text"])
        back = json.loads(json.dumps(doc))
        tokens = [m.lastgroup for rel in back["relations"] for m in _TOKEN.finditer(rel)]
        out = io.StringIO()
        for rel, k in zip(back["relations"], range(len(tokens))):
            out.write(f"  {k:3d} {rel:>30s} {args.format}\n")
        size += len(out.getvalue())
    return len(totals) + len(ordered) + size


def time_reference() -> float:
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


class Calibration:
    """Reference timings interleaved with op latencies, in run order."""

    def __init__(self):
        self.samples: list[tuple[int, float]] = []  # (ops before it, seconds)
        self.latencies: list[float] = []
        self.scaled: list[bool] = []
        self._since = 0.0

    def before_op(self) -> None:
        if not self.samples or self._since >= CALIBRATE_EVERY_S:
            self.sample()

    def record(self, latency: float, scale: bool) -> None:
        self.latencies.append(latency)
        self.scaled.append(scale)
        self._since += latency

    def sample(self) -> None:
        self.samples.append((len(self.latencies), time_reference()))
        self._since = 0.0

    def scaled_latencies(self) -> list[float]:
        out = []
        k = 0
        for i, (latency, scale) in enumerate(zip(self.latencies, self.scaled)):
            while k + 1 < len(self.samples) and self.samples[k + 1][0] <= i:
                k += 1
            after = self.samples[min(k + 1, len(self.samples) - 1)][1]
            factor = REFERENCE_S / ((self.samples[k][1] + after) / 2)
            out.append(latency * factor if scale else latency)
        return out


class Runner:
    """Executes ops of one workload and records latency and outcome."""

    def __init__(self, ncdim):
        self.ncdim = ncdim
        self.tracer: spans.Tracer | None = None
        # peak resident memory (KB) of children that completed / were killed
        self.child_peak_kb = 0
        self.killed_peak_kb = 0

    def run(self, op, op_id) -> tuple[float, str | None]:
        """(latency in seconds, None or the reason the op failed)."""
        if self.tracer is not None:
            self.tracer.op_id = op_id
        return getattr(self, "_" + op.kind)(op)

    def _analyze(self, op):
        ncdim = self.ncdim
        start = time.perf_counter()
        try:
            report = ncdim.analyze(ncdim.load_presentation_data(json.loads(op.text)))
            data = ncdim.render_report(report, "json")
        except Exception as exc:  # any error is a failed op, the run goes on
            return time.perf_counter() - start, f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - start
        problem = oracle.check_report(json.loads(data), op.expect)
        if problem is None and "pbw_n" in op.expect and report.pbw is not True:
            problem = "PBW-type presentation not recognised as PBW"
        return latency, problem

    def _cli(self, op):
        out = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = runtime.call_cli(op.argv)
            except Exception as exc:  # an uncaught error is exit code 1
                code = f"1 ({type(exc).__name__}: {exc})"
        latency = time.perf_counter() - start
        return latency, oracle.check_cli(op.argv, code, out.getvalue(), op.expect)

    def _child(self, op):
        traced = self.tracer is not None
        command = [sys.executable, str(HERE / "child.py"), "1" if traced else "0", *op.argv]
        start = time.perf_counter()
        proc = subprocess.Popen(command, stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL, cwd=runtime.ROOT)
        timed_out = False
        try:
            out, _ = proc.communicate(timeout=workloads.HOSTILE_BUDGET_S)
        except subprocess.TimeoutExpired:
            timed_out = True
            self.killed_peak_kb = max(self.killed_peak_kb, _peak_kb(proc.pid))
            if traced:
                proc.terminate()
                try:
                    out, _ = proc.communicate(timeout=TERM_GRACE_S)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    out, _ = proc.communicate()
            else:
                proc.kill()
                out, _ = proc.communicate()
        latency = time.perf_counter() - start
        try:
            result = json.loads(out) if out.strip() else None
        except ValueError:  # killed while writing its result
            result = None
        if traced and result and "spans" in result:
            self.tracer.merge(result["spans"], result["counts"], self.tracer.op_id)
        if timed_out:
            return latency, "timeout"
        if result is None:
            return latency, f"child exited {proc.returncode} without a result"
        self.child_peak_kb = max(self.child_peak_kb, result["rss_kb"])
        problem = oracle.check_cli(op.argv, result["code"], result["stdout"],
                                   op.expect, HOSTILE_CODES)
        return latency, problem


def _peak_kb(pid: int) -> int:
    """Peak resident memory of a live child so far (VmHWM), 0 if unreadable."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def percentile(values, p: float) -> float:
    """Linear interpolation between closest ranks."""
    s = sorted(values)
    k = (len(s) - 1) * p / 100
    lo = math.floor(k)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (k - lo)


def tail_percentile(workload: str, deck_size: int) -> int:
    """Highest whole percentile with at least 10 ops above it in the smallest
    run the workload makes; fixed per workload."""
    n = workloads.MIN_DECKS[workload] * deck_size
    return math.floor(100 * (n - 11) / (n - 1))


def measure_setup(workload: str, seed: int) -> float:
    """Median wall time of fresh processes that import ncdim and build the
    deck, each scaled by the reference timings taken around it."""
    times = []
    before = time_reference()
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            check=True, cwd=runtime.ROOT, stdout=subprocess.DEVNULL,
        )
        elapsed = time.perf_counter() - start
        after = time_reference()
        times.append(elapsed * REFERENCE_S / ((before + after) / 2))
        before = after
    return statistics.median(times)


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 min_decks: int | None = None) -> dict:
    """Run whole decks and return the record of the run (see ``main``)."""
    ncdim = runtime.import_ncdim()
    ops = workloads.build(workload, seed)
    if min_decks is None:
        min_decks = workloads.MIN_DECKS[workload]
    if trace:
        min_decks = max(min_decks, 2)
    workdir = runtime.ROOT / ".bench_work" / f"{workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    runner = Runner(ncdim)
    tracer = spans.Tracer() if trace else None
    calibration = Calibration()
    deck_of: list[tuple[int, bool]] = []  # (deck, traced) per op run
    failures: dict[str, int] = {}
    wrong = 0
    try:
        workloads.materialize(ops, runtime.ROOT, workdir)
        started = time.perf_counter()
        decks = 0
        while decks < min_decks or time.perf_counter() - started < seconds:
            traced = trace and decks % 2 == 1
            if traced:
                runner.tracer = tracer
                tracer.install()
            try:
                for index, op in enumerate(ops):
                    calibration.before_op()
                    latency, problem = runner.run(op, f"{decks}:{index}")
                    calibration.record(latency, problem != "timeout")
                    deck_of.append((decks, traced))
                    if problem is not None:
                        key = f"{op.label}: {problem}"
                        failures[key] = failures.get(key, 0) + 1
                        wrong += problem != "timeout"
            finally:
                if traced:
                    tracer.uninstall()
                    runner.tracer = None
            decks += 1
        calibration.sample()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    scaled = calibration.scaled_latencies()
    attempted = decks * len(ops)
    failed = sum(failures.values())
    record = {
        "workload": workload, "seed": seed, "trace": int(trace),
        "decks": decks, "deck_size": len(ops), "failures": failures,
        "reference_s": statistics.median(t for _, t in calibration.samples),
        "raw_op_p50_ms": percentile(calibration.latencies, 50) * 1000,
    }
    if trace:
        deck_seconds = {False: {}, True: {}}
        for (deck, traced), latency in zip(deck_of, scaled):
            deck_seconds[traced][deck] = deck_seconds[traced].get(deck, 0.0) + latency
        overhead = (statistics.median(deck_seconds[True].values())
                    / statistics.median(deck_seconds[False].values()) - 1)
        traced_ops = sum(traced for _, traced in deck_of)
        metrics = spans.layer_metrics(tracer.spans, tracer.counts, traced_ops)
        metrics["tracing.overhead_share"] = (overhead, "share")
        out_dir = runtime.ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(out_dir / f"spans-{workload}-seed{seed}.jsonl")
        record["spans"] = len(tracer.spans)
    else:
        tail = tail_percentile(workload, len(ops))
        ok = attempted - failed
        self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "ops_per_s": (ok / sum(scaled), "1/s"),
            "op_p50_ms": (percentile(scaled, 50) * 1000, "ms"),
            "op_tail_ms": (percentile(scaled, tail) * 1000, "ms"),
            "ok_share": (ok / attempted, "share"),
            # A child killed at its budget is left out: its memory then shows
            # how far it got in the budget, which moves with the machine's
            # speed (80-110 MB for all-squares); the record line keeps it.
            "peak_rss_mb": (max(self_kb, runner.child_peak_kb) / 1024, "MB"),
            "setup_s": (measure_setup(workload, seed), "s"),
        }
        record["tail_percentile"] = tail
        record["killed_child_peak_mb"] = runner.killed_peak_kb / 1024
        record["samples"] = len(scaled)
    record["result"] = {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.DECKS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        runtime.import_ncdim()
        workloads.build(args.workload, args.seed)
        return 0
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    result = record.pop("result")
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
