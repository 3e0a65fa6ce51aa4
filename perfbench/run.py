#!/usr/bin/env python3
"""Layered benchmark of the assocarray command-line interface.

Usage, from the repository root:

    python3 perfbench/run.py --workload adj_certified --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # every workload, one process each
    python3 perfbench/run.py --smoke                     # self-test, then all workloads tiny

The benchmark drives the real CLI in-process through ``assocarray.cli.main``
as a closed loop with one caller: each call starts when the previous one has
returned and been checked.  Every call gets its own input, generated from
``--seed`` and written to a file under ``.perfbench/`` (a ``witness`` call
shares the table of the ``validate`` call before it); ``--output`` goes to a
file there too.  Going through the CLI keeps ``validate``'s choice of product
path (zero-skipping for certified algebras, the full fold otherwise) inside
what is measured.  Every call's exit code and output are compared, outside
the timed region, with references computed by ``reference.py`` without the
package; a mismatch counts as a failed call.

Workloads (see ``workloads.py``):

- ``adj_certified``: adjacency and reverse-adjacency of sparse multigraphs
  (2k vertex ids, 10k edges, 10% hyperedges, 5% parallel edges) over
  ``natural_arithmetic`` and ``max_min_strings``.  Zero-skipping path only.
- ``adj_lawless``: adjacency of small dense multigraphs (30 vertex ids, 110
  edges) over ``integer_ring``, ``max_plus_realzero`` and a copy of the
  right-annihilator test table.  Full-fold path only.
- ``criteria_tables``: ``validate`` on chain-lattice tables (lawful, checked
  exhaustively) and random tables (fail early) of 50 to 150 elements, with
  ``witness`` for each failing criterion; each run starts with ``validate``
  on ``powerset`` over 9 tokens (plus its criterion-2 witness) and on
  ``max_min_chain`` with 400 levels.
- ``doc_pipeline``: ``doc-adjacency`` on shared-words corpora of 50
  documents over a 100-word vocabulary; every fifth corpus has one word
  dropped from one entry, and exit 1 is the expected result for it.

End-to-end metrics (``--trace 0``), per workload, measured in a window of
``--seconds`` of wall time that holds the calls, their checks, every input
set-up after the first and the cold-start calls: ``setup_s`` (median time to
generate and write one batch of inputs, over every batch the run sets up:
one before the window, the rest inside it whenever the queue runs dry),
``calls_per_s`` (calls over the summed time of the calls alone),
``call_p50_ms`` (the median time of each kind of call, a kind being one
subcommand and algebra, or table kind and size, combined by the geometric
mean weighted by the share of calls), ``call_tail_ms`` (the highest
percentile with at least ten samples beyond it; the percentile and sample
count are printed), ``peak_rss_mb`` of the benchmark process, which runs
one workload only, and ``cold_call_ms``, the median time of a fresh
interpreter (``PYTHONPATH=src``) running one small call, with those calls
spread evenly over the window.

Every timing is reported at a reference machine speed.  A fixed piece of
pure-Python work from the benchmark's own reference code is timed a hundred
times across the window (see ``Calibration``), and each timing is scaled by
``CALIBRATION_REF_MS`` over the median of the three samples taken before
it.  On a shared virtual machine the speed of a vCPU can move by up to half
from one stretch of a few seconds to the next; scaled, the timings of a run
depend on the package rather than on when the run was made.  The measured wall times are printed beside the scaled ones.
Set-ups, calls and cold calls interleave over the whole window, and the
cyclic garbage collector runs before every timed call, set-up and
calibration sample, outside the timing, so that each starts from the same
heap whatever the check before it left.  The share of failed calls is
printed as ``fail_frac`` and reported as ``failed`` over ``attempted``.

Per-layer metrics (``--trace 1``) come from a separate run over a fixed job
list, so that operation counts repeat exactly for a seed: the list is run
once untraced and once under ``tracing.Tracer``; the ratio of the two call
rates is the tracing overhead.  Times are medians, over the calls that
entered a span, of the span's self time in that call; counts are means per
call.  Which layer metric should move which end-to-end metric:

- ``fileio.*``, ``graph.incidence_arrays.ms`` and ``array.matmul.skip.ms``:
  ``calls_per_s`` and ``call_p50_ms`` on ``adj_certified`` only.
- ``array.matmul.full.*``, the ``algebra.*`` counts and
  ``values.number_constructed``: the same two on ``adj_lawless`` and
  ``doc_pipeline``, and not on ``adj_certified``.
- ``criteria.*``: the same two on ``criteria_tables``; slightly on the
  ``adj_*`` workloads, where ``validate`` is a small share of a call.
- ``graph.check_word_consistency.ms``: ``peak_rss_mb`` and ``call_tail_ms``
  on ``doc_pipeline``.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import deque
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, replace
from pathlib import Path

import reference as ref
from workloads import WORKLOADS, Job, Workload, random_multigraph

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

COLD_CALLS = 15  # spread evenly over the measured window
CALIBRATIONS = 100  # calibration samples, spread evenly over the measured window
# Median time of one calibration sample on a 2-vCPU Intel Xeon VM at 2.1 GHz
# running Python 3.11; every timing is reported at this speed.
CALIBRATION_REF_MS = 6.0
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile

END_TO_END_UNITS = {
    "setup_s": "s", "calls_per_s": "1/s", "call_p50_ms": "ms", "call_tail_ms": "ms",
    "peak_rss_mb": "MB", "cold_call_ms": "ms",
}
TIMED_SPANS = (
    "cli.resolve_algebra", "fileio.parse_edge_list", "fileio.parse_set_triples",
    "fileio.parse_finite_algebra", "fileio.serialize_triples", "criteria.validate",
    "criteria.demonstrate", "graph.incidence_arrays", "graph.check_word_consistency",
    "graph.document_adjacency", "graph.adjacency_oracle", "array.from_triples",
    "array.transpose", "array.matmul.skip", "array.matmul.full",
)
NO_WAIT = ("wait time: none to report; every layer runs on the calling thread, "
           "and nothing waits on another thread, a queue or I/O")


@dataclass
class Outcome:
    ns: int
    rc: object  # exit code, or a traceback text when main raised
    out: str | None  # output file text, None when no file was written
    err: str
    stdout: str


def check(job: Job, got: Outcome) -> list[str]:
    """Everything wrong with one call's result; empty when it is correct."""
    want = job.expect()
    problems = []
    if got.rc != want.rc:
        problems.append(f"exit code {got.rc!r}, expected {want.rc}")
    if want.output is None:
        if got.out is not None:
            problems.append("wrote an output file, expected none")
    elif got.out != want.output:
        problems.append(_first_difference(got.out or "", want.output))
    elif want.extra is not None:
        problems += want.extra(got.out)
    if want.stderr_line is not None and want.stderr_line not in got.err.splitlines():
        problems.append(f"standard error lacks {want.stderr_line!r}")
    if got.stdout:
        problems.append("wrote to standard output")
    return problems


def _first_difference(got: str, want: str) -> str:
    g, w = got.splitlines(), want.splitlines()
    for n, (a, b) in enumerate(zip(g, w), start=1):
        if a != b:
            return f"output line {n} is {a[:80]!r}, expected {b[:80]!r}"
    return f"output has {len(g)} lines, expected {len(w)}"


class Tally:
    """Calls attempted and failed, with the first few problems kept."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.examples: list[str] = []

    def record(self, job: Job, got: Outcome) -> bool:
        self.attempted += 1
        problems = check(job, got)
        if problems:
            self.failed += 1
            if len(self.examples) < 5:
                self.examples.append(f"{' '.join(job.argv)}: {'; '.join(problems)}"[:600])
        return not problems


class Caller:
    """Runs jobs through ``cli.main`` in this process, one at a time."""

    def __init__(self, workdir: Path, tracer=None):
        from assocarray import cli

        self.main = cli.main
        self.out = workdir / "out.txt"
        self.tracer = tracer

    def call(self, job: Job) -> Outcome:
        argv = [*job.argv, "--output", str(self.out)]
        self.out.unlink(missing_ok=True)
        err, stdout = io.StringIO(), io.StringIO()
        with redirect_stderr(err), redirect_stdout(stdout):
            if self.tracer is not None:
                self.tracer.begin_call()
            gc.collect()
            start = time.perf_counter_ns()
            try:
                if self.tracer is None:
                    rc = self.main(argv)
                else:
                    rc = self.tracer.span("cli.main", self.main, argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception:  # a traceback is a failed call, not a failed benchmark
                rc = traceback.format_exc()
            ns = time.perf_counter_ns() - start
        out = self.out.read_text(encoding="utf-8") if self.out.exists() else None
        return Outcome(ns, rc, out, err.getvalue(), stdout.getvalue())


class JobStream:
    """Prefix jobs, then batches generated as the queue runs dry.

    One batch is set up before the first call, the others between calls;
    every set-up is timed into ``setup_seconds``.
    """

    def __init__(self, workload: Workload):
        self.workload = workload
        self.setup_seconds: list[float] = []
        self.pending: deque[Job] = deque(workload.prefix())
        self._set_up()

    def _set_up(self) -> None:
        gc.collect()
        start = time.perf_counter()
        jobs = self.workload.batch(len(self.setup_seconds))
        self.setup_seconds.append(time.perf_counter() - start)
        self.pending.extend(jobs)

    def __next__(self) -> Job:
        if not self.pending:
            self._set_up()
        return self.pending.popleft()


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) at the highest percentile with
    TAIL_BEYOND samples beyond it; the maximum when there are too few."""
    ordered = sorted(samples)
    index = len(ordered) - 1 - (TAIL_BEYOND if len(ordered) > TAIL_BEYOND else 0)
    return ordered[index], 100.0 * (index + 1) / len(ordered), len(ordered) - index - 1


def typical(samples: list[float], kinds: list[str]) -> float:
    """Median of each kind of call, combined by the geometric mean weighted
    by each kind's share of the calls.

    A workload mixes kinds of call whose times differ by up to 30 times;
    the median of the pooled samples then falls where one kind's times give
    way to another's, and moves by a large step when a few calls change
    sides.  Each kind's own median sits in the middle of its samples.
    """
    by_kind: dict[str, list[float]] = {}
    for kind, value in zip(kinds, samples):
        by_kind.setdefault(kind, []).append(value)
    return math.exp(sum(len(v) * math.log(statistics.median(v)) for v in by_kind.values()) / len(samples))


def mean_props(props: list[dict[str, float]]) -> dict[str, float]:
    keys = sorted({k for p in props for k in p})
    return {k: round(statistics.fmean(p[k] for p in props if k in p), 4) for k in keys}


class ColdCaller:
    """Fresh interpreters, each running one small call of the workload.

    ``PYTHONPATH=src`` stands in for an installed package.  The first call
    warms the file cache and is not kept.
    """

    CODE = "import sys; from assocarray.cli import main; sys.exit(main(sys.argv[1:]))"

    def __init__(self, tiny: Workload, workdir: Path, tally: Tally):
        self.tiny, self.tally = tiny, tally
        self.out = workdir / "cold_out.txt"
        self.env = {**os.environ, "PYTHONPATH": "src"}
        self.ms: list[float] = []
        self.calls = 0
        self()
        self.ms.clear()

    def __call__(self) -> None:
        job = self.tiny.batch(1000 + self.calls)[0]
        self.calls += 1
        self.out.unlink(missing_ok=True)
        start = time.perf_counter_ns()
        proc = subprocess.run([sys.executable, "-c", self.CODE, *job.argv, "--output", str(self.out)],
                              cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=120)
        ns = time.perf_counter_ns() - start
        text = self.out.read_text(encoding="utf-8") if self.out.exists() else None
        self.tally.record(job, Outcome(ns, proc.returncode, text, proc.stderr, proc.stdout))
        self.ms.append(ns / 1e6)


def run_one(args) -> int:
    cls = WORKLOADS[args.workload]
    workdir = OUT_DIR / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = cls(args.seed, workdir, tiny=args.tiny)
        tiny = cls(args.seed, workdir, tiny=True)
        tally = Tally()
        print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
              f"python={platform.python_version()} nproc={len(os.sched_getaffinity(0))} "
              f"seconds={args.seconds} tiny={args.tiny}")
        print("loop: closed, one caller, in-process cli.main; each call checked after it returns")
        warm = Caller(workdir)
        for job in [*tiny.prefix(), *tiny.batch(0)]:  # fills lazy caches before timing
            tally.record(job, warm.call(job))
        if args.trace:
            metrics = traced_run(args, workload, workdir, tally)
        else:
            metrics = timed_run(args, workload, tiny, workdir, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"fail_frac {tally.failed / tally.attempted:.6f} ({tally.failed} of {tally.attempted} calls)")
    for example in tally.examples:
        print(f"FAILED {example}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if tally.failed == 0 else 1


class Calibration:
    """A fixed piece of pure-Python work, timed through the measured window.

    The work is the benchmark's own reference product and serialization of
    one multigraph of 400 vertex ids and 2000 edges, the same for every seed
    and independent of the package, so no change to the package moves it;
    it does the kind of work the CLI does (dictionaries, tuples, small
    calls, string formatting) over a heap of some megabytes.  On a shared
    virtual machine the speed of a vCPU changes by tens of percent from one
    stretch of a few seconds to the next, and every timing moves with it.  ``factor`` compares the
    latest samples with ``CALIBRATION_REF_MS``, and each timing is scaled by
    the factor at the moment it was taken, which turns it into the time at
    the reference speed.  The raw timings are printed beside the scaled
    ones.  This assumes the package runs on the calling thread alone: work
    it left running on another thread would slow the calibration as well.
    """

    RECENT = 3  # samples behind the factor; a sample is due every window / CALIBRATIONS

    def __init__(self):
        self.alg = ref.natural()
        self.edges = random_multigraph(random.Random("calibration"), 400, 2000, lambda rng: rng.randint(1, 20))
        self.ms: list[float] = []
        for _ in range(self.RECENT):
            self()

    def __call__(self) -> None:
        gc.collect()
        start = time.perf_counter_ns()
        ref.triples_text(self.alg, ref.product_sparse(self.alg, self.edges))
        self.ms.append((time.perf_counter_ns() - start) / 1e6)

    def factor(self) -> float:
        """From a time measured now to the time at the reference speed."""
        return CALIBRATION_REF_MS / statistics.median(self.ms[-self.RECENT:])


def timed_run(args, workload, tiny, workdir, tally) -> dict:
    """Calls for ``args.seconds`` of wall time; cold call k is made once
    (k + 1/2) / COLD_CALLS of the window has passed, and calibration sample
    k once k / CALIBRATIONS has, so that the warm calls, the cold calls, the
    set-ups and the calibration all see the same machine."""
    calibration = Calibration()
    stream = JobStream(workload)
    caller = Caller(workdir)
    cold = ColdCaller(tiny, workdir, tally)
    # (measured time, calibration factor when it was measured); seconds for
    # set-ups, milliseconds for the rest
    setups = [(t, calibration.factor()) for t in stream.setup_seconds]
    calls, colds, kinds, props = [], [], [], []
    window = args.seconds
    start = time.perf_counter()
    while (elapsed := time.perf_counter() - start) < window or len(cold.ms) < COLD_CALLS:
        if len(cold.ms) < COLD_CALLS and elapsed >= (len(cold.ms) + 0.5) * window / COLD_CALLS:
            cold()
            colds.append((cold.ms[-1], calibration.factor()))
        elif elapsed >= len(calibration.ms) * window / CALIBRATIONS:
            calibration()
        else:
            set_up = len(stream.setup_seconds)
            job = next(stream)
            got = caller.call(job)
            factor = calibration.factor()
            setups += [(t, factor) for t in stream.setup_seconds[set_up:]]
            calls.append((got.ns / 1e6, factor))
            kinds.append(job.kind)
            props.append(job.props)  # not the job: its references hold the whole input
            tally.record(job, got)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"inputs (mean per call over {len(props)} calls): {json.dumps(mean_props(props))}")
    print(f"calibration: median {statistics.median(calibration.ms):.4f} ms over {len(calibration.ms)} "
          f"samples, reference {CALIBRATION_REF_MS} ms; every timing below is scaled by the reference "
          f"over the median of the {Calibration.RECENT} samples before it")

    def summary(scaled: bool) -> dict[str, float]:
        def times(pairs):
            return [t * factor if scaled else t for t, factor in pairs]

        call_ms = times(calls)
        return {
            "setup_s": statistics.median(times(setups)),
            "calls_per_s": len(call_ms) / (sum(call_ms) / 1e3),
            "call_p50_ms": typical(call_ms, kinds),
            "call_tail_ms": tail(call_ms)[0],
            "cold_call_ms": statistics.median(times(colds)),
        }

    measured = summary(scaled=False)
    tail_pct, beyond = tail([t for t, _ in calls])[1:]
    notes = {
        "setup_s": f"median of {len(setups)} set-ups of one batch of inputs",
        "calls_per_s": f"{len(calls)} calls, {window} s window",
        "call_p50_ms": "median per kind of call, geometric mean over kinds weighted by calls",
        "call_tail_ms": f"p{tail_pct:.1f} of {len(calls)} samples, {beyond} beyond",
        "cold_call_ms": f"median of {len(colds)} fresh interpreters, PYTHONPATH=src",
    }
    metrics = {**summary(scaled=True), "peak_rss_mb": peak_rss_mb}
    for name, value in metrics.items():
        unit = END_TO_END_UNITS[name]
        was = f" (measured {measured[name]:.6g} {unit})" if name in measured else ""
        print(f"{name} {value:.6g} {unit}{was}  {notes.get(name, '')}".rstrip())
    return {name: (value, END_TO_END_UNITS[name]) for name, value in metrics.items()}


def traced_run(args, workload, workdir, tally) -> dict:
    from tracing import Tracer

    jobs = [*workload.prefix(), *(j for b in range(workload.trace_batches) for j in workload.batch(b))]
    untraced = Caller(workdir)
    plain_ns = 0
    for job in jobs:
        got = untraced.call(job)
        plain_ns += got.ns
        tally.record(job, got)
    tracer = Tracer()
    traced = Caller(workdir, tracer)
    traced_ns, nonzero_exits, bytes_out = 0, 0, 0
    with tracer.installed():
        for job in jobs:
            got = traced.call(job)
            traced_ns += got.ns
            nonzero_exits += got.rc != 0
            bytes_out += len(got.out.encode()) if got.out is not None else 0
            tally.record(job, got)  # the check's oracle call is traced as well
    spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(spans_path)
    print(f"inputs (mean per call over {len(jobs)} calls): {json.dumps(mean_props([j.props for j in jobs]))}")
    n, ops = len(jobs), tracer.ops
    skip, full = "array.matmul.skip", "array.matmul.full"
    terms = ops["times", skip] + ops["times", full]
    zero_zero = ops["zero_zero", skip] + ops["zero_zero", full]
    metrics = {"cli.main.self_ms": (tracer.self_ms("cli.main"), "ms")}
    metrics.update({f"{span}.ms": (tracer.self_ms(span), "ms") for span in TIMED_SPANS})
    per_call = {
        "cli.exit_nonzero": nonzero_exits,
        "fileio.lines_in": ops["lines_in", ""],
        "fileio.bytes_out": bytes_out,
        "criteria.validate.plus_calls": ops["plus", "criteria.validate"],
        "criteria.validate.times_calls": ops["times", "criteria.validate"],
        "array.matmul.skip.calls": ops["calls", skip],
        "array.matmul.full.calls": ops["calls", full],
        "array.matmul.terms": terms,
        "array.matmul.zero_zero_terms": zero_zero,
        "algebra.plus_calls": sum(v for (what, _), v in ops.items() if what == "plus"),
        "algebra.times_calls": sum(v for (what, _), v in ops.items() if what == "times"),
        "algebra.contains_calls": ops["contains", ""],
        "values.number_constructed": ops["number", ""],
    }
    metrics.update({name: (total / n, "count/call") for name, total in per_call.items()})
    metrics["array.matmul.distinct_term_ratio"] = (1 - zero_zero / terms if terms else 1.0, "ratio")
    plain_rate, traced_rate = n / (plain_ns / 1e9), n / (traced_ns / 1e9)
    metrics["trace.calls_per_s_ratio"] = (traced_rate / plain_rate, "ratio")
    print(f"trace window: {n} calls, run untraced then traced; calls_per_s untraced "
          f"{plain_rate:.6g}, traced {traced_rate:.6g}")
    print(f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
    print(NO_WAIT)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    return metrics


# --- whole-suite modes ----------------------------------------------------------


def run_all(seed: int, seconds: int, trace: int, tiny: bool) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    combined, status = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}, 0
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(trace), *(["--tiny"] if tiny else [])]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        status = status or proc.returncode
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            combined["correct"] = False
            status = status or 1
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return status


def self_test(seed: int) -> int:
    """Show that the checks bite: corrupted results must count as failed."""
    workdir = OUT_DIR / f"work-selftest-{os.getpid()}"
    workdir.mkdir(parents=True)
    missed = 0
    try:
        caller = Caller(workdir)
        for name, cls in WORKLOADS.items():
            job = cls(seed, workdir, tiny=True).batch(0)[0]
            got = caller.call(job)
            tally = Tally()
            if not tally.record(job, got):
                print(f"self-test {name}: the real call failed: {tally.examples}")
                missed += 1
                continue
            lines = got.out.splitlines(keepends=True)
            mid = len(lines) // 2
            corrupted = {
                "one value changed": replace(got, out="".join(
                    lines[:mid] + [lines[mid].rstrip("\n") + "0\n"] + lines[mid + 1:])),
                "one line dropped": replace(got, out="".join(lines[:mid] + lines[mid + 1:])),
                "wrong exit code": replace(got, rc=got.rc + 1),
            }
            for label, bad in corrupted.items():
                caught = not tally.record(job, bad)
                missed += not caught
                print(f"self-test {name}: {label}: {'counted as failed' if caught else 'MISSED'}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 1 if missed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30, help="wall time measured per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for smoke runs")
    parser.add_argument("--smoke", action="store_true",
                        help="self-test, then every workload tiny, untraced and traced")
    args = parser.parse_args(argv)
    if not (SRC / "assocarray").is_dir():
        print(f"perfbench: no package source at {SRC / 'assocarray'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.smoke:
        status = self_test(args.seed)
        for trace in (0, 1):
            status = run_all(args.seed, 1, trace, tiny=True) or status
        print(f"smoke: {'PASS' if status == 0 else 'FAIL'}")
        return status
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace, args.tiny)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
