#!/usr/bin/env python3
"""starsolve benchmark: end-to-end and per-layer metrics on planted-truth corpora.

Run from the root of a checkout:

    python3 bench/run.py --workload solve-general --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
makes the separate traced run and reports the per-layer metrics. Every
metric is printed as ``name value unit``; the last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. The program is imported from ``src/`` of the checkout and runs
single-threaded in this process, apart from the fresh interpreters that
time set-up and peak memory. Scratch files live under ``.bench_work/`` and
are removed on exit. See ``bench/README.md`` for the workloads and metrics.

The corpus is cut into chunks. A round runs the command once on every
chunk, each time followed (end-to-end run) by the library call once per
row of the chunk, and then two fresh interpreters. Rounds repeat until
``--seconds`` have passed, at least three times. Each chunk's time and
each row's latency is the fastest of its rounds: load from outside the
process only ever adds time, and on a shared machine it comes in bursts
of seconds that a median over a few rounds does not remove.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from random import Random
from time import perf_counter, perf_counter_ns

import corpus
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# What the ``star-solve`` console script runs, then a report of the peak
# resident set of this process image on stderr. VmHWM is read rather than
# ru_maxrss, which also counts the benchmark process the child forked from.
ENTRY = """\
import sys
from starsolve.cli import main
try:
    code = main()
finally:
    with open("/proc/self/status") as status:
        kb = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
    print("peak_rss_kb", kb, file=sys.stderr)
sys.exit(code)
"""
MIN_ROUNDS = 3
SPAWNS_PER_ROUND = 2
SPAWN_TIMEOUT_S = 120.0
EXIT_ABORT = 1

# Triangles of the scale probe at unit scale: the 3-4-5 triangle at 120 deg,
# and planted line voltages (1, 2, 1.5) at phase differences (100, 130, 130).
PROBE_SCALES = (1e-200, 1e-160, 1e150, 1e160)
PROBE_GENERAL = ((1.0, 2.0, 1.5), (100.0, 130.0, 130.0))


def load_program() -> dict:
    """The starsolve modules the benchmark drives, imported from ``src/``."""
    if not (SRC / "starsolve" / "cli.py").is_file():
        sys.exit(f"bench: no starsolve sources at {SRC}; "
                 "run from the root of a starsolve checkout")
    sys.path.insert(0, str(SRC))
    from starsolve import circuit, cli, errors, records
    return {"cli": cli, "circuit": circuit, "records": records,
            "records.RowWriter": records.RowWriter, "errors": errors}


# =========================================================================
# Running the command
# =========================================================================

class Chunk:
    """Rows run through the command together, with their files."""

    def __init__(self, name: str, rows: list, workload: corpus.Workload,
                 work: Path):
        self.rows = rows
        self.input = work / f"{name}.{workload.fmt}"
        self.output = work / f"{name}.out"
        self.digest = ""
        corpus.write_input(str(self.input), workload, rows)


class Batch:
    """One workload's corpus on disk and the command that consumes it."""

    def __init__(self, program: dict, workload: corpus.Workload, rows: list,
                 work: Path):
        self.program = program
        self.workload = workload
        self.rows = rows
        self.whole = Chunk("whole", rows, workload, work)
        first_ok = next(row for row in rows if row.status == corpus.OK)
        self.one_row = Chunk("one_row", [first_ok], workload, work)
        self.chunks = [Chunk(f"chunk{start:06d}", rows[start:start + workload.chunk],
                             workload, work)
                       for start in range(0, len(rows), workload.chunk)]

    def expected_exit(self, chunk: Chunk) -> int:
        failures = any(row.status != corpus.OK for row in chunk.rows)
        return 2 if failures and self.workload.command == "solve" else 0

    def run(self, chunk: Chunk) -> tuple[float, int | None]:
        """Wall time and exit code of ``cli.main`` on the chunk, in this
        process; the exit code is None when an exception escaped."""
        with open(chunk.output, "w", newline="") as sink, \
                contextlib.redirect_stdout(sink):
            start = perf_counter()
            try:
                code = self.program["cli"].main([self.workload.command,
                                                 str(chunk.input)])
            except Exception:
                traceback.print_exc(file=sys.stderr)
                code = None
            elapsed = perf_counter() - start
        return elapsed, code

    def spawn(self, chunk: Chunk) -> tuple[float, float, int]:
        """Wall time, peak RSS (MB) and exit code of a fresh interpreter
        running the command on the chunk."""
        env = dict(os.environ, PYTHONPATH=str(SRC))
        with open(chunk.output, "w") as sink:
            start = perf_counter()
            proc = subprocess.run(
                [sys.executable, "-c", ENTRY, self.workload.command, str(chunk.input)],
                stdout=sink, stderr=subprocess.PIPE, text=True,
                cwd=chunk.input.parent, env=env, timeout=SPAWN_TIMEOUT_S)
            elapsed = perf_counter() - start
        peak_kb = [line.split()[1] for line in proc.stderr.splitlines()
                   if line.startswith("peak_rss_kb ")]
        peak_mb = float(peak_kb[-1]) / 1024.0 if peak_kb else math.nan
        return elapsed, peak_mb, proc.returncode

    def check(self, chunk: Chunk, code: int | None) -> dict[str, str]:
        """Messages, keyed by row id, for the chunk's rows whose output
        disagrees with planted truth. An aborted command fails every row."""
        if code is None or code == EXIT_ABORT:
            return {row.id: f"command aborted (exit {code})" for row in chunk.rows}
        try:
            if self.workload.command == "solve":
                errors = corpus.check_solve_output(str(chunk.output),
                                                   self.workload.fmt, chunk.rows)
            else:
                errors = corpus.check_verify_output(str(chunk.output), chunk.rows)
        except (ValueError, KeyError) as exc:
            return {row.id: f"unreadable output ({exc})" for row in chunk.rows}
        if code != self.expected_exit(chunk) and not errors:
            errors[f"{chunk.input.name} exit"] = \
                f"exit code {code}, expected {self.expected_exit(chunk)}"
        return errors

    def run_checked(self, chunk: Chunk, result: "Result") -> float:
        """Run the chunk; check its output in full the first time, and that
        it is byte-identical to that output every later time."""
        elapsed, code = self.run(chunk)
        digest = hashlib.sha256(chunk.output.read_bytes()).hexdigest()
        if not chunk.digest:
            chunk.digest = digest
            result.fail(self.check(chunk, code))
        elif digest != chunk.digest:
            result.fail(self.check(chunk, code) or
                        {chunk.input.name: "output changed between runs"})
        return elapsed

    def library_calls(self, chunk: Chunk) -> tuple:
        """(function, argument tuples): one library call per row."""
        from starsolve.config import residual_tolerance
        from starsolve.records import read_measurements, read_pairs
        cli = self.program["cli"]
        tol = residual_tolerance(None)
        with open(chunk.input, newline="") as f:
            if self.workload.command == "solve":
                return cli.solve_record, [(m, tol) for m in
                                          read_measurements(f, self.workload.fmt)]
            return cli.verify_record, [(m, s, tol) for m, s in
                                       read_pairs(f, self.workload.fmt)]


def percentile(sorted_values: list, q: float):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


class Result:
    """Correctness bookkeeping and the printed report. Errors are keyed by
    row id, so a row that fails several checks counts once."""

    def __init__(self, attempted: int):
        self.attempted = attempted
        self.errors: dict[str, str] = {}
        self.metrics: dict[str, dict] = {}

    def fail(self, errors: dict[str, str]) -> None:
        for key, msg in errors.items():
            self.errors.setdefault(key, msg)

    def add(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": value, "unit": unit}

    def emit(self) -> None:
        failed = min(len(self.errors), self.attempted)
        for key, msg in list(self.errors.items())[:20]:
            print(f"# DEFECT {key}: {msg}")
        if len(self.errors) > 20:
            print(f"# ... {len(self.errors) - 20} more")
        for name, m in self.metrics.items():
            print(f"{name:30s} {m['value']:>14.6g} {m['unit']}")
        print(json.dumps({"correct": not self.errors, "attempted": self.attempted,
                          "failed": failed, "metrics": self.metrics}))


def rounds(seconds: float):
    """Round numbers, until ``seconds`` have passed and MIN_ROUNDS are done."""
    deadline = perf_counter() + seconds
    done = 0
    while done < MIN_ROUNDS or perf_counter() < deadline:
        yield done
        done += 1


# =========================================================================
# End-to-end run (tracing off)
# =========================================================================

def run_timed(batch: Batch, seconds: float, result: Result) -> None:
    n = len(batch.rows)
    for chunk in batch.chunks:                 # warm-up, and the output check
        batch.run_checked(chunk, result)
    batch.spawn(batch.one_row)                 # warms the bytecode cache
    _, peak_rss_mb, code = batch.spawn(batch.whole)
    result.fail({key: f"fresh process: {msg}"
                 for key, msg in batch.check(batch.whole, code).items()})

    chunk_s = [[] for _ in batch.chunks]
    row_ns = [[] for _ in batch.rows]
    setup_s = []
    first_rows = [sum(len(c.rows) for c in batch.chunks[:i])
                  for i in range(len(batch.chunks))]
    order = list(range(len(batch.chunks)))
    shuffle = Random(0).shuffle
    for done in rounds(seconds):
        # Chunks run in a new order each round, each chunk's rows start at
        # another row, and the records are parsed afresh, so no row keeps
        # its place in time or in memory; load from outside that comes and
        # goes on a cycle does not hit the same rows in every round.
        shuffle(order)
        for c in order:
            chunk = batch.chunks[c]
            chunk_s[c].append(batch.run_checked(chunk, result))
            call, items = batch.library_calls(chunk)
            shift = done * 389 % len(items)
            for j in range(len(items)):        # closed loop, one row at a time
                k = (j + shift) % len(items)
                args = items[k]
                start = perf_counter_ns()
                call(*args)
                row_ns[first_rows[c] + k].append(perf_counter_ns() - start)
        for _ in range(SPAWNS_PER_ROUND):
            elapsed, _, code = batch.spawn(batch.one_row)
            if code != 0:
                result.fail({"one-row run": f"exited {code}"})
            setup_s.append(elapsed)

    latency = sorted(min(samples) for samples in row_ns)
    print(f"# {batch.workload.name}: {n} rows in {len(batch.chunks)} chunks, "
          f"{done + 1} rounds; latency over {n} rows x {done + 1} calls "
          f"(fastest per row); set-up over {len(setup_s)} fresh interpreters")
    result.add("records_per_s", n / sum(map(min, chunk_s)), "1/s")
    result.add("record_p50_us", percentile(latency, 50) / 1e3, "us")
    result.add("setup_s", statistics.median(setup_s), "s")
    result.add("peak_rss_mb", peak_rss_mb, "MB")
    result.add("correct_share", (n - min(len(result.errors), n)) / n, "ratio")


# =========================================================================
# Traced run (per-layer metrics)
# =========================================================================

TIMED_SPANS = ("records.parse", "records.write", "circuit.validate",
               "circuit.solve", "circuit.residual", "general.closed_form",
               "general.circles", "fermat.closed_form", "oracle.min_sum")


def run_traced(batch: Batch, seconds: float, result: Result) -> None:
    n = len(batch.rows)
    for chunk in batch.chunks:                 # warm-up, and the output check
        batch.run_checked(chunk, result)

    cost = spans.calibrate()
    summary = spans.Summary()
    untraced_s = [[] for _ in batch.chunks]
    traced_s = [[] for _ in batch.chunks]
    first: dict = {}
    for done in rounds(seconds):
        tracer = spans.Tracer()
        for c, chunk in enumerate(batch.chunks):
            untraced_s[c].append(batch.run_checked(chunk, result))
            with spans.traced(batch.program, tracer):
                traced_s[c].append(batch.run_checked(chunk, result))
        summary.add(spans.analyze(tracer.spans, cost))
        if not first:                          # counts of exactly one corpus pass
            first = {name: sum(1 for s in tracer.spans if s[0] == name)
                     for name in spans.SPAN_NAMES}
            first["iterations"] = tracer.min_sum_iterations

    for name in TIMED_SPANS:
        result.add(f"{name}_us", summary.self_us(name), "us")
        result.add(f"{name}_calls", first[name], "count")
    result.add("oracle.min_sum_iterations", first["iterations"], "count")
    for name in ("cli.solve_record", "cli.verify_record"):
        result.add(f"{name}_us", summary.inclusive_us(name), "us")
        result.add(f"{name}_calls", first[name], "count")
    per_row = sorted(summary.fastest_inclusive[f"cli.{batch.workload.command}_record"]
                     .values())
    result.add("cli.record_p99_us", percentile(per_row, 99) / 1e3, "us")

    untraced_ns = sum(map(sum, untraced_s)) * 1e9
    traced_ns = sum(map(sum, traced_s)) * 1e9
    layer_ns = dict.fromkeys(spans.LAYERS, 0.0)
    for name, total in summary.total_self.items():
        layer_ns[name.split(".")[0]] += total
    below_cli_ns = sum(v for layer, v in layer_ns.items() if layer != "cli")
    result.add("cli.glue_us", (untraced_ns - below_cli_ns) / (n * (done + 1)) / 1e3,
               "us")
    for layer in spans.LAYERS:
        share = (100.0 - 100.0 * below_cli_ns / traced_ns if layer == "cli"
                 else 100.0 * layer_ns[layer] / traced_ns)
        result.add(f"{layer}.share_pct", share, "%")

    for status, count in status_counts(batch).items():
        result.add(f"status.{status}", count, "count")
    result.add("verify.fail", verify_failures(batch), "count")
    result.add("trace.overhead_pct", 100.0 * (traced_ns / untraced_ns - 1.0), "%")
    rows, wrong, escaped = scale_probe(batch.program)
    result.add("probe.rows", rows, "count")
    result.add("probe.wrong", wrong, "count")
    result.add("probe.escaped", escaped, "count")
    print(f"# {batch.workload.name}: {n} rows in {len(batch.chunks)} chunks, "
          f"{done + 1} rounds; counts from the first round; tracing cost "
          f"{cost[0]:.0f} + {cost[1]:.0f} ns per span removed")


def status_counts(batch: Batch) -> dict[str, int]:
    """Rows by status: of the solve output, or of the verified input."""
    if batch.workload.command == "verify":
        return corpus.expected_status_counts(batch.rows)
    statuses = []
    for chunk in batch.chunks:
        with open(chunk.output, newline="") as f:
            if batch.workload.fmt == "jsonl":
                statuses += [json.loads(line).get("status") for line in f if line.strip()]
            else:
                statuses += [row.get("status") for row in csv.DictReader(f)]
    return {s: statuses.count(s) for s in corpus.STATUSES}


def verify_failures(batch: Batch) -> int:
    if batch.workload.command != "verify":
        return 0
    count = 0
    for chunk in batch.chunks:
        with open(chunk.output) as f:
            count += sum(1 for line in f if ": FAIL (" in line)
    return count


def fermat_distances(u: tuple[float, float, float]) -> tuple[float, float, float]:
    """120-deg line voltages from the area relations of the star point:
    S = sum of distances, S^2 = (a^2+b^2+c^2)/2 + 2*sqrt3*area,
    pairwise products P = 4*area/sqrt3, and d_i = (S^2 - P - u_i^2) / S."""
    a, b, c = u
    s = (a + b + c) / 2.0
    area = math.sqrt(s * (s - a) * (s - b) * (s - c))
    total_sq = (a * a + b * b + c * c) / 2.0 + 2.0 * math.sqrt(3.0) * area
    products = 4.0 * area / math.sqrt(3.0)
    total = math.sqrt(total_sq)
    return tuple((total_sq - products - x * x) / total for x in u)


def scale_probe(program: dict) -> tuple[int, int, int]:
    """Scaled copies of two triangles, one row at a time through
    ``cli.solve_record``: (rows, wrong answers, escaped exceptions).
    An escaped exception is one that is not a StarSolveError."""
    from starsolve.records import MeasurementRecord
    cli, errors = program["cli"], program["errors"]
    d, psi = PROBE_GENERAL
    cases = [((3.0, 4.0, 5.0), None, fermat_distances((3.0, 4.0, 5.0))),
             (corpus.forward_edges(d, psi), psi[:2], d)]
    tol = 1e-8
    rows = wrong = escaped = 0
    for u, angles, planted in cases:
        for k in PROBE_SCALES:
            rows += 1
            m = MeasurementRecord(f"probe-{rows}", *(x * k for x in u),
                                  *(angles or (None, None)))
            try:
                _, s = cli.solve_record(m, tol)
            except errors.StarSolveError as exc:
                wrong += 1
                print(f"# probe {u} x{k:g}: raised {exc!r}")
                continue
            except Exception as exc:
                escaped += 1
                print(f"# probe {u} x{k:g}: escaped {exc!r}")
                continue
            got = (s.u1p, s.u2p, s.u3p)
            if s.status != corpus.OK or not all(
                    g is not None and abs(g - w * k) <= corpus.VOLTAGE_REL_TOL * w * k
                    for g, w in zip(got, planted)):
                wrong += 1
                print(f"# probe {u} x{k:g}: {s.status} {got} ({s.diagnostics})")
    return rows, wrong, escaped


# =========================================================================
# Entry point
# =========================================================================

def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    program = load_program()
    workload = corpus.WORKLOADS[args.workload]
    rows = corpus.generate(workload, args.seed)
    result = Result(len(rows))
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as work:
        batch = Batch(program, workload, rows, Path(work))
        if args.trace:
            run_traced(batch, args.seconds, result)
        else:
            run_timed(batch, args.seconds, result)
    with contextlib.suppress(OSError):
        WORK.rmdir()
    result.emit()
    return 0


if __name__ == "__main__":
    sys.exit(main())
