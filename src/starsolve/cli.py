"""star-solve: batch and one-shot star-circuit solving.

Subcommands::

    star-solve solve  <path|->  [--format csv|jsonl] [--tolerance REL]
    star-solve verify <path|->
    star-solve synth  --count N --seed S [--symmetric]

``-`` means standard input; results go to standard output. Records are
processed independently and in order, a block of at most ``BLOCK_ROWS``
at a time: a bad record marks its output row and the batch continues.
Exit codes: 0 all records ok, 1 usage / I/O / parse error, 2 at least one
record failed.
"""

from __future__ import annotations

import argparse
import io
import math
import os
import sys
from itertools import chain, islice
from typing import Callable, Iterator, TextIO

from .config import EPS_ANG_DEG, residual_tolerance
from .errors import (
    AngleAtLeast120,
    AngleOutOfRange,
    DegenerateTriangle,
    NotATriangle,
    StarSolveError,
    UnresolvedConfiguration,
)
from .kernel import (
    ANGLES_120,
    AngleInvariants,
    EdgeInvariants,
    angle_invariants,
    check_claim,
    edge_invariants,
    line_voltage_kernel,
)
from .records import (
    MEASUREMENT_FIELDS,
    SOLUTION_FIELDS,
    STATUS_ANGLE_GE_120,
    STATUS_INCONSISTENT,
    STATUS_INFEASIBLE,
    STATUS_INTERNAL_ERROR,
    STATUS_OK,
    STATUS_UNRESOLVED,
    MeasurementRecord,
    ParseError,
    RowWriter,
    SolutionRecord,
    _new,
    detect_format,
    format_for_path,
    read_measurements,
    read_pairs,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RECORD_FAILED = 2

# Records a command reads before it answers them and writes the answers:
# each stage then runs over the block, which costs less per row than the
# three alternating row by row. The input of a terminal goes row by row.
BLOCK_ROWS = 64


# =========================================================================
# Per-record solving
# =========================================================================

def _invariants(m: MeasurementRecord) -> tuple[EdgeInvariants, AngleInvariants]:
    """The measurement validated, as the floats that a failure row's margin
    reads: the ``edge_invariants`` of its voltages and the ``angle_invariants``
    of its phase differences, or ``ANGLES_120`` when it has none; the solved
    paths of :func:`solve_record` and :func:`verify_record` inline the calls."""
    edges = edge_invariants(m.u1, m.u2, m.u3)
    if m.psi1 is None:
        return edges, ANGLES_120
    return edges, angle_invariants(m.psi1, m.psi2, 360.0 - m.psi1 - m.psi2)


def solve_record(m: MeasurementRecord, tolerance: float
                 ) -> tuple[MeasurementRecord, SolutionRecord]:
    """Solve one measurement; failures become a status, never an exception.

    The record is unpacked once and validated by the two calls of
    :func:`_invariants`, written out. The row then runs on plain floats
    through :func:`~starsolve.kernel.line_voltage_kernel`, which
    :func:`~starsolve.circuit.solve_general_star` and
    :func:`~starsolve.circuit.solve_symmetric_star` wrap, so both give the
    same voltages, residuals and notes. The kernel accepts the closure on
    ``tolerance``, so a row it returns is ``ok``; it is built as the
    readers build theirs, and its notes are joined only if there are any.
    A distance or residual that is not finite becomes an ``internal_error``
    row with empty voltages, so no output row carries a number verify
    cannot read.
    """
    rec_id, u1, u2, u3, psi1, psi2, _ = m
    try:
        edges = edge_invariants(u1, u2, u3)
        angles = (ANGLES_120 if psi1 is None
                  else angle_invariants(psi1, psi2, 360.0 - psi1 - psi2))
        (u1p, u2p, u3p), (r1, r2, r3), notes = line_voltage_kernel(edges, angles,
                                                                   tolerance)
        # A finite sum clears all six; an infinite one may be an overflow.
        if not math.isfinite(u1p + u2p + u3p + r1 + r2 + r3):
            values = (u1p, u2p, u3p, r1, r2, r3)
            if not all(map(math.isfinite, values)):
                return m, _failure(m, STATUS_INTERNAL_ERROR, _describe_non_finite(values))
        solution = _new(SolutionRecord, (rec_id, u1p, u2p, u3p, max(r1, r2, r3), STATUS_OK,
                                         "; ".join(notes) if notes else ""))
    except AngleAtLeast120 as exc:
        solution = _failure(m, STATUS_ANGLE_GE_120, str(exc))
    except (NotATriangle, AngleOutOfRange) as exc:
        solution = _failure(m, STATUS_INCONSISTENT, str(exc))
    except UnresolvedConfiguration as exc:
        solution = _failure(m, STATUS_UNRESOLVED, str(exc))
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
    import traceback  # only a failing row needs it
    frame = traceback.extract_tb(exc.__traceback__)[-1]
    return (f"{type(exc).__name__}: {exc} (at {os.path.basename(frame.filename)}:"
            f"{frame.lineno} in {frame.name})")


def _interior_margin(edges: EdgeInvariants, angles: AngleInvariants) -> float:
    """min(psi_i - vertex angle_i), in degrees: positive iff a point inside
    the triangle sees each edge under its angle (Euclid, Elements I.21 and
    III.21). Each vertex angle is atan2(Theta^2, b^2 + c^2 - a^2),
    cyclically, on the unit triangle: Theta^2 is four times the area."""
    _, _, (a2, b2, c2), theta_sq = edges
    spans = (b2 + c2 - a2, c2 + a2 - b2, a2 + b2 - c2)
    return min(psi - math.degrees(math.atan2(theta_sq, span))
               for psi, span in zip(angles[0], spans))


def verify_record(m: MeasurementRecord, s: SolutionRecord | None,
                  tolerance: float) -> tuple[bool, str]:
    """Check one measurement/solution pair against independent machinery.

    A solved row, at any angle, is validated as :func:`solve_record`
    validates it and passes :func:`~starsolve.kernel.check_claim`, the
    check of :func:`~starsolve.circuit.verify_solution`: the mesh-rule
    closure and a fresh circle-intersection re-solve. Failure rows pass iff
    a re-solve reproduces the recorded failure status, unless that status
    is an internal error, or says that no star point exists where
    :func:`_interior_margin` finds one by more than ``EPS_ANG_DEG``.
    """
    if s is None:
        return False, "row carries no solution fields"
    _, u1p, u2p, u3p, _, status, _ = s
    if status != STATUS_OK or u1p is None:
        _, fresh = solve_record(m, tolerance)
        if fresh.status == STATUS_INTERNAL_ERROR:
            return False, f"cross-check raised {fresh.diagnostics}"
        if fresh.status != status:
            return False, (f"recorded status {status!r} but re-solve "
                           f"produced {fresh.status!r}")
        if status in (STATUS_INFEASIBLE, STATUS_ANGLE_GE_120):
            try:
                margin = _interior_margin(*_invariants(m))
            except DegenerateTriangle:  # a short edge that squares to 0
                margin = -math.inf
            if margin > EPS_ANG_DEG:
                return False, (f"recorded status {status!r} but an interior "
                               f"point exists: angle margin {margin:.3e} deg")
        return True, f"failure status {status!r} confirmed by re-solve"

    _, u1, u2, u3, psi1, psi2, _ = m
    try:
        edges = edge_invariants(u1, u2, u3)
        angles = (ANGLES_120 if psi1 is None
                  else angle_invariants(psi1, psi2, 360.0 - psi1 - psi2))
        return check_claim(edges, angles, (u1p, u2p, u3p), tolerance)[:2]
    except StarSolveError as exc:
        return False, f"cross-check raised: {exc}"
    except Exception as exc:  # one bad row must not end the batch
        return False, f"cross-check raised {_describe_internal(exc)}"


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
    """The lines, a leading byte-order mark removed, and their format, told
    by the first line that is not blank. Blank lines stay in the stream, so
    the readers count them in their line numbers."""
    first = next(lines, None)
    if first is None:
        return iter(()), "csv"
    head = [first.removeprefix("\ufeff")]
    while not head[-1].strip() and (line := next(lines, None)) is not None:
        head.append(line)
    return chain(head, lines), format_for_path(path) or detect_format(head[-1])


def _run(path: str, tolerance: float | None,
         body: Callable[[Iterator[str], str, float, int], int]) -> int:
    """``body(lines, fmt, tolerance, block_rows)`` over the input at
    ``path``; a bad tolerance, an unopenable input or a parse error is a
    usage error."""
    try:
        tolerance = residual_tolerance(tolerance)
        stream, release = _open_input(path)
    except (ValueError, OSError) as exc:
        print(f"star-solve: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return body(*_sniff(path, iter(stream)), tolerance,
                    1 if stream.isatty() else BLOCK_ROWS)
    except ParseError as exc:
        print(f"star-solve: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        release()


def _blocks(records: Iterator, size: int) -> Iterator[list]:
    """The records in lists of at most ``size``. A parse error is raised
    after the list of the records read before it, so each is answered."""
    while True:
        block = []
        try:
            for record in islice(records, size):
                block.append(record)
        except ParseError:
            if block:
                yield block
            raise
        if not block:
            return
        yield block


# =========================================================================
# Subcommands
# =========================================================================

def cmd_solve(args: argparse.Namespace) -> int:
    def solve(lines: Iterator[str], in_fmt: str, tolerance: float,
              block_rows: int) -> int:
        write_solution = RowWriter(sys.stdout, args.format or in_fmt).write_solution
        failed = 0
        for block in _blocks(read_measurements(lines, in_fmt), block_rows):
            for measurement, solution in [solve_record(m, tolerance) for m in block]:
                write_solution(measurement, solution)
                if not solution.solved:
                    failed += 1
        return EXIT_RECORD_FAILED if failed else EXIT_OK
    return _run(args.path, args.tolerance, solve)


def cmd_verify(args: argparse.Namespace) -> int:
    def verify(lines: Iterator[str], in_fmt: str, tolerance: float,
               block_rows: int) -> int:
        write = sys.stdout.write
        total = failed = 0
        for block in _blocks(read_pairs(lines, in_fmt), block_rows):
            verdicts = [verify_record(m, s, tolerance) for m, s in block]
            for (measurement, _), (passed, detail) in zip(block, verdicts):
                total += 1
                if not passed:
                    failed += 1
                rec_id = measurement.id
                if not rec_id.isprintable():  # a line break would forge a verdict line
                    rec_id = repr(rec_id)
                write(f"{rec_id}: {'PASS' if passed else 'FAIL'} ({detail})\n")
        write(f"{total} records, {failed} failed\n")
        return EXIT_RECORD_FAILED if failed else EXIT_OK
    return _run(args.path, None, verify)


def cmd_synth(args: argparse.Namespace) -> int:
    if args.count < 1:
        print("star-solve: --count must be at least 1", file=sys.stderr)
        return EXIT_USAGE
    from random import Random  # only synth needs them

    from .oracle_kernel import planted_draw, planted_edges

    rng = Random(args.seed)
    write = sys.stdout.write
    # The golden file's format: every float at 12 significant digits. No
    # field holds a comma, a quote or a line break, so none is quoted.
    write(",".join(MEASUREMENT_FIELDS + SOLUTION_FIELDS) + "\n")
    for index in range(args.count):
        distances, psis = planted_draw(rng, args.symmetric)
        (a, b, c), residuals = planted_edges(distances, psis)
        a_p, b_p, c_p = distances
        psi_text = "," if args.symmetric else f"{psis[0]:.12g},{psis[1]:.12g}"
        write(f"synth-{args.seed}-{index:05d},{a:.12g},{b:.12g},{c:.12g},{psi_text},"
              f"{a_p:.12g},{b_p:.12g},{c_p:.12g},{max(residuals):.12g},"
              f"{STATUS_OK},planted ground truth\n")
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
                         help="relative closure-residual tolerance for status=ok, "
                              "finite and > 0 (default 1e-8, or STAR_SOLVE_TOLERANCE)")
    p_solve.set_defaults(func=cmd_solve)

    p_verify = sub.add_parser(
        "verify", help="verify measurement/solution pairs",
        description="Re-check each row's solution, at any angle: mesh-rule "
                    "closure and an independent circle-intersection re-solve. "
                    "The relative tolerance is STAR_SOLVE_TOLERANCE "
                    "(default 1e-8), as for solve without --tolerance.")
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


# Built by the first main() call and reused: parse_args keeps no state
# between calls, and a build costs about half a millisecond, more than
# ten verify rows.
_parser: argparse.ArgumentParser | None = None


def main(argv: list[str] | None = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Downstream consumer (head, etc.) closed the pipe; die quietly.
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
