"""star-solve: batch and one-shot star-circuit solving.

Subcommands::

    star-solve solve  <path|->  [--format csv|jsonl] [--tolerance REL]
    star-solve verify <path|->
    star-solve synth  --count N --seed S [--symmetric]

``-`` means standard input; results go to standard output. Records are
processed independently and in order: a bad record marks its output row
and the batch continues. Exit codes: 0 all records ok, 1 usage / I/O /
parse error, 2 at least one record failed.
"""

from __future__ import annotations

import argparse
import io
import math
import os
import sys
import traceback
from itertools import chain
from random import Random
from typing import Callable, Iterator, TextIO

from .circuit import (
    ALL_120,
    LineVoltages,
    PhaseToPhaseVoltages,
    solve_general_star,
    solve_symmetric_star,
    verify_solution,
)
from .config import residual_tolerance
from .errors import AngleAtLeast120, AngleOutOfRange, NotATriangle, StarSolveError
from .general import general_solve_by_circles, validate_angles
from .geometry import TriangleEdges
from .oracle import minimize_distance_sum, random_synthesis_spec, synthesize_triangle
from .records import (
    STATUS_ANGLE_GE_120,
    STATUS_INCONSISTENT,
    STATUS_INFEASIBLE,
    STATUS_INTERNAL_ERROR,
    STATUS_OK,
    MeasurementRecord,
    ParseError,
    RowWriter,
    SolutionRecord,
    combined_row,
    detect_format,
    format_for_path,
    read_measurements,
    read_pairs,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RECORD_FAILED = 2


# =========================================================================
# Per-record solving
# =========================================================================

def solve_record(m: MeasurementRecord, tolerance: float
                 ) -> tuple[MeasurementRecord, SolutionRecord]:
    """Solve one measurement; failures become a status, never an exception.

    The status comes from the kernel's own closure residuals. A distance
    or residual that is not finite becomes an ``internal_error`` row with
    empty voltages, so no output row carries a number verify cannot read.
    """
    try:
        u = PhaseToPhaseVoltages(m.u1, m.u2, m.u3)
        if m.has_angles:
            lv = solve_general_star(u, m.psi1, m.psi2)
        else:
            lv = solve_symmetric_star(u)
        values = (*lv.as_tuple(), *lv.residuals)
        if not all(map(math.isfinite, values)):
            return m, _failure(m, STATUS_INTERNAL_ERROR, _describe_non_finite(values))
        worst = max(lv.residuals)
        notes = list(lv.diagnostics)
        if worst <= tolerance:
            status = STATUS_OK
        else:
            status = STATUS_INFEASIBLE
            notes.append(f"closure residual {worst:.3e} "
                         f"exceeds tolerance {tolerance:g}")
        solution = SolutionRecord(m.id, lv.u1p, lv.u2p, lv.u3p,
                                  worst, status, "; ".join(notes))
    except AngleAtLeast120 as exc:
        solution = _failure(m, STATUS_ANGLE_GE_120, str(exc))
    except (NotATriangle, AngleOutOfRange) as exc:
        solution = _failure(m, STATUS_INCONSISTENT, str(exc))
    except StarSolveError as exc:
        solution = _failure(m, STATUS_INFEASIBLE, str(exc))
    except Exception as exc:  # one bad row must not end the batch
        solution = _failure(m, STATUS_INTERNAL_ERROR, _describe_internal(exc))
    return m, solution


def _failure(m: MeasurementRecord, status: str, message: str) -> SolutionRecord:
    return SolutionRecord(m.id, None, None, None, None, status, message)


def _describe_non_finite(values: tuple[float, ...]) -> str:
    """The non-finite ones among the three line voltages and three residuals."""
    names = ("u1p", "u2p", "u3p", "residual1", "residual2", "residual3")
    return "solver returned non-finite " + ", ".join(
        f"{name}={value!r}" for name, value in zip(names, values)
        if not math.isfinite(value))


def _describe_internal(exc: Exception) -> str:
    """Exception type, message and the innermost frame that raised it."""
    frame = traceback.extract_tb(exc.__traceback__)[-1]
    return (f"{type(exc).__name__}: {exc} (at {os.path.basename(frame.filename)}:"
            f"{frame.lineno} in {frame.name})")


def verify_record(m: MeasurementRecord, s: SolutionRecord | None,
                  tolerance: float) -> tuple[bool, str]:
    """Check one measurement/solution pair against independent machinery.

    Solved rows must pass the mesh-rule closure, agree with a fresh
    circle-intersection re-solve, and (for 120-deg rows) match the
    distance-sum minimum. Failure rows pass iff a re-solve reproduces the
    recorded failure status, unless that status is an internal error.
    """
    if s is None:
        return False, "row carries no solution fields"
    if not s.solved or s.u1p is None:
        _, fresh = solve_record(m, tolerance)
        if fresh.status == STATUS_INTERNAL_ERROR:
            return False, f"cross-check raised {fresh.diagnostics}"
        if fresh.status == s.status:
            return True, f"failure status {s.status!r} confirmed by re-solve"
        return False, (f"recorded status {s.status!r} but re-solve "
                       f"produced {fresh.status!r}")

    try:
        u = PhaseToPhaseVoltages(m.u1, m.u2, m.u3)
        angles = validate_angles(m.psi1, m.psi2) if m.has_angles else ALL_120
        lv = LineVoltages(s.u1p, s.u2p, s.u3p)

        report = verify_solution(u, lv, angles, tolerance)
        if not report.passed:
            return False, (f"closure residual {report.max_residual:.3e} "
                           f"exceeds tolerance {tolerance:g}")

        edges = u.to_edges()
        circle = general_solve_by_circles(edges, angles)
        # 1e-12 of the perimeter, which itself may exceed the float range.
        floor = math.ldexp(1e-12 * sum(edges.unit), edges.exponent)
        for name, given, recomputed in zip(("u1p", "u2p", "u3p"),
                                           lv.as_tuple(), circle.distances()):
            if abs(given - recomputed) > max(tolerance * max(given, recomputed), floor):
                return False, (f"{name}={given!r} disagrees with circle-path "
                               f"value {recomputed!r}")

        if angles == ALL_120:
            # Both sums over 2**k, k the edges' exponent: the sum itself may
            # exceed the float range, and dividing by 2**k changes no bit.
            k = edges.exponent
            minimized = minimize_distance_sum(TriangleEdges(*edges.unit))
            total = (math.ldexp(s.u1p, -k) + math.ldexp(s.u2p, -k)
                     + math.ldexp(s.u3p, -k))
            if abs(minimized.value - total) > 1e-6 * total:
                return False, (f"line-voltage sum {total:.9g} disagrees with "
                               f"minimized distance sum {minimized.value:.9g} "
                               f"(both over 2**{k})")
    except StarSolveError as exc:
        return False, f"cross-check raised: {exc}"
    except Exception as exc:  # one bad row must not end the batch
        return False, f"cross-check raised {_describe_internal(exc)}"
    return True, f"max residual {report.max_residual:.3e}"


# =========================================================================
# Stream plumbing
# =========================================================================

def _open_input(path: str) -> tuple[TextIO, Callable[[], object]]:
    """The input as UTF-8 text whatever the locale, lines split as the csv
    module expects, and what releases it: standard input is wrapped, not
    closed. A byte that is not UTF-8 decodes to a lone surrogate."""
    if path != "-":
        stream = open(path, encoding="utf-8", errors="surrogateescape", newline="")
        return stream, stream.close
    buffer = getattr(sys.stdin, "buffer", None)
    if buffer is None:
        return sys.stdin, lambda: None
    stream = io.TextIOWrapper(buffer, encoding="utf-8", errors="surrogateescape",
                              newline="")
    return stream, stream.detach


def _sniff(path: str, lines: Iterator[str]) -> tuple[Iterator[str], str]:
    """The lines, a leading byte-order mark removed, and their format."""
    first = next(lines, None)
    if first is None:
        return iter(()), "csv"
    first = first.removeprefix("\ufeff")
    return chain([first], lines), format_for_path(path) or detect_format(first)


def _run(path: str, tolerance: float | None,
         body: Callable[[Iterator[str], str, float], int]) -> int:
    """``body(lines, fmt, tolerance)`` over the input at ``path``; a bad
    tolerance, an unopenable input or a parse error is a usage error."""
    try:
        tolerance = residual_tolerance(tolerance)
        stream, release = _open_input(path)
    except (ValueError, OSError) as exc:
        print(f"star-solve: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return body(*_sniff(path, iter(stream)), tolerance)
    except ParseError as exc:
        print(f"star-solve: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        release()


# =========================================================================
# Subcommands
# =========================================================================

def cmd_solve(args: argparse.Namespace) -> int:
    def solve(lines: Iterator[str], in_fmt: str, tolerance: float) -> int:
        writer = RowWriter(sys.stdout, args.format or in_fmt)
        failed = 0
        for measurement in read_measurements(lines, in_fmt):
            _, solution = solve_record(measurement, tolerance)
            writer.write(combined_row(measurement, solution))
            if not solution.solved:
                failed += 1
        return EXIT_RECORD_FAILED if failed else EXIT_OK
    return _run(args.path, args.tolerance, solve)


def cmd_verify(args: argparse.Namespace) -> int:
    def verify(lines: Iterator[str], in_fmt: str, tolerance: float) -> int:
        total = failed = 0
        for measurement, solution in read_pairs(lines, in_fmt):
            total += 1
            passed, detail = verify_record(measurement, solution, tolerance)
            if not passed:
                failed += 1
            print(f"{measurement.id}: {'PASS' if passed else 'FAIL'} ({detail})")
        print(f"{total} records, {failed} failed")
        return EXIT_RECORD_FAILED if failed else EXIT_OK
    return _run(args.path, None, verify)


def cmd_synth(args: argparse.Namespace) -> int:
    if args.count < 1:
        print("star-solve: --count must be at least 1", file=sys.stderr)
        return EXIT_USAGE
    rng = Random(args.seed)
    writer = RowWriter(sys.stdout, "csv")
    for index in range(args.count):
        spec = random_synthesis_spec(rng, seed=args.seed, symmetric=args.symmetric)
        edges, expected = synthesize_triangle(spec)
        measurement = MeasurementRecord(
            id=f"synth-{args.seed}-{index:05d}",
            u1=edges.a, u2=edges.b, u3=edges.c,
            psi1=None if args.symmetric else spec.angles.psi_a,
            psi2=None if args.symmetric else spec.angles.psi_b,
        )
        planted = SolutionRecord(
            id=measurement.id,
            u1p=expected.a_prime, u2p=expected.b_prime, u3p=expected.c_prime,
            max_residual=expected.max_residual,
            status=STATUS_OK,
            diagnostics="planted ground truth",
        )
        writer.write(combined_row(measurement, planted))
    return EXIT_OK


# =========================================================================
# Argument parsing
# =========================================================================

class _Parser(argparse.ArgumentParser):
    # Spec'd exit codes reserve 2 for record failures; usage errors exit 1.
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="star-solve",
        description="Recover star-circuit line voltages from phase-to-phase "
                    "measurements.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser(
        "solve", help="solve each input record",
        description="Read measurement records (CSV or JSON lines), solve each, "
                    "and write records extended with line voltages and status. "
                    "Records without psi columns use the 120-degree formulas.")
    p_solve.add_argument("path", nargs="?", default="-",
                         help="input file, or - for stdin (default)")
    p_solve.add_argument("--format", choices=("csv", "jsonl"), default=None,
                         help="output format (default: mirror the input)")
    p_solve.add_argument("--tolerance", type=float, default=None, metavar="REL",
                         help="relative residual tolerance for status=ok, finite "
                              "and > 0 (default 1e-8, or STAR_SOLVE_TOLERANCE)")
    p_solve.set_defaults(func=cmd_solve)

    p_verify = sub.add_parser(
        "verify", help="verify measurement/solution pairs",
        description="Re-check each row's solution: mesh-rule closure, an "
                    "independent circle-intersection re-solve, and (for "
                    "120-degree rows) the distance-sum minimality oracle.")
    p_verify.add_argument("path", nargs="?", default="-",
                          help="input file, or - for stdin (default)")
    p_verify.set_defaults(func=cmd_verify)

    p_synth = sub.add_parser(
        "synth", help="generate synthetic records with planted ground truth",
        description="Emit solvable records built from planted line voltages; "
                    "deterministic for a fixed seed.")
    p_synth.add_argument("--count", type=int, required=True,
                         help="number of records to generate")
    p_synth.add_argument("--seed", type=int, default=0,
                         help="random seed (default 0)")
    p_synth.add_argument("--symmetric", action="store_true",
                         help="all phase differences 120 deg; psi columns left empty")
    p_synth.set_defaults(func=cmd_synth)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Downstream consumer (head, etc.) closed the pipe; die quietly.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
