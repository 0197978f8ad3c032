"""Seeded corpora with planted truth, and the check of outputs against it.

Every solvable row starts from planted line voltages (U1', U2', U3') and
phase differences (psi1, psi2, psi3); the phase-to-phase voltages follow
from this module's own law-of-cosines forward map,

    u1^2 = U2'^2 + U3'^2 - 2 U2' U3' cos(psi1), cyclically,

so nothing in the program under test (``star-solve synth`` or the oracle's
synthesizer) shapes the inputs. Planted failure rows keep a wide margin
from every boundary the solver tests, so their expected status is not in
doubt:

* ``triangle``: one voltage exceeds the sum of the other two by >= 10 %
  (status ``inconsistent``);
* ``psi_range``: psi1 lies in [190, 240] deg, outside (0, 180)
  (status ``inconsistent``);
* ``infeasible``: the phasor triangle has an angle of 140-160 deg at a
  vertex while the phase difference across from it is only 70-110 deg; an
  interior point sees each edge under a wider angle than the opposite
  vertex does, so no star point exists (status ``infeasible``);
* ``wide``: a 120-deg row whose phasor triangle has an angle of 130-160 deg
  (status ``angle_ge_120``).

Row counts per kind are fixed fractions of the corpus size, so status
counts are identical for every seed; the seed moves only the values.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from random import Random

OK = "ok"
INFEASIBLE = "infeasible"
INCONSISTENT = "inconsistent"
ANGLE_GE_120 = "angle_ge_120"
STATUSES = (OK, INFEASIBLE, INCONSISTENT, ANGLE_GE_120)

# Relative agreement required between a solved and a planted line voltage.
# Outputs carry 12 significant digits and the corpora avoid ill-conditioned
# shapes, so honest solves land near 1e-12.
VOLTAGE_REL_TOL = 1e-6

# Voltage magnitudes span mV to MV; the solvers are homogeneous of degree one.
LOG10_SCALE = (-3.0, 6.0)
# Planted line voltages stay within this factor of the row's scale.
DISTANCE_SPREAD = (0.3, 3.0)
# General phase differences stay this far inside (60, 180) deg.
PSI_RANGE = (70.0, 170.0)

_EPOCH = datetime(2024, 1, 1, tzinfo=timezone.utc)


@dataclass(frozen=True)
class Row:
    """One corpus row: the measurement, what a correct solve returns, and
    for planted-ok rows the line voltages."""

    id: str
    u: tuple[float, float, float]
    psi: tuple[float, float] | None
    status: str
    planted: tuple[float, float, float] | None
    kind: str
    meta: dict[str, str]


@dataclass(frozen=True)
class Workload:
    name: str
    command: str          # "solve" or "verify"
    fmt: str              # "csv" or "jsonl"
    rows: int             # corpus size
    chunk: int            # rows per timed command run
    mix: tuple[tuple[str, int], ...]   # (kind, rows per block of the mix)

    def kinds(self) -> list[str]:
        block = [kind for kind, n in self.mix for _ in range(n)]
        return [block[i % len(block)] for i in range(self.rows)]


WORKLOADS = {
    w.name: w for w in (
        Workload("solve-general", "solve", "csv", 6_000, 250,
                 (("general", 27), ("triangle", 1), ("psi_range", 1),
                  ("infeasible", 1))),
        Workload("solve-symmetric", "solve", "jsonl", 6_000, 250,
                 (("symmetric", 9), ("wide", 1))),
        Workload("verify-mixed", "verify", "csv", 2_000, 50,
                 (("general", 28), ("symmetric", 8), ("triangle", 1),
                  ("psi_range", 1), ("infeasible", 1), ("wide", 1))),
    )
}


# =========================================================================
# Forward map and row kinds
# =========================================================================

def forward_edges(d: tuple[float, float, float],
                  psi: tuple[float, float, float]) -> tuple[float, float, float]:
    """Phase-to-phase voltages of planted line voltages ``d`` at phase
    differences ``psi`` (degrees): u_i is the edge across from U_i'."""
    d1, d2, d3 = d
    c1, c2, c3 = (math.cos(math.radians(p)) for p in psi)
    return (math.sqrt(d2 * d2 + d3 * d3 - 2.0 * d2 * d3 * c1),
            math.sqrt(d3 * d3 + d1 * d1 - 2.0 * d3 * d1 * c2),
            math.sqrt(d1 * d1 + d2 * d2 - 2.0 * d1 * d2 * c3))


def _rotate(triple: tuple, r: int) -> tuple:
    return triple[r:] + triple[:r]


def _scale(rng: Random) -> float:
    return 10.0 ** rng.uniform(*LOG10_SCALE)


def _distances(rng: Random, scale: float) -> tuple[float, float, float]:
    lo, hi = (math.log(x) for x in DISTANCE_SPREAD)
    return tuple(scale * math.exp(rng.uniform(lo, hi)) for _ in range(3))


def _general_psi(rng: Random) -> tuple[float, float, float]:
    lo, hi = PSI_RANGE
    while True:
        p1, p2 = rng.uniform(lo, hi), rng.uniform(lo, hi)
        p3 = 360.0 - p1 - p2
        if lo <= p3 <= hi:
            return (p1, p2, p3)


def _wide_triangle(rng: Random, scale: float, angle_lo: float,
                   angle_hi: float) -> tuple[float, float, float]:
    """Edges (u1, u2, u3) with an angle in [angle_lo, angle_hi] deg at the
    vertex across from u1."""
    b, c = (scale * rng.uniform(0.5, 2.0) for _ in range(2))
    wide = math.radians(rng.uniform(angle_lo, angle_hi))
    return (math.sqrt(b * b + c * c - 2.0 * b * c * math.cos(wide)), b, c)


def _make_row(kind: str, rng: Random) -> tuple:
    """(u, psi or None, status, planted or None) for one row kind."""
    scale = _scale(rng)
    r = rng.randrange(3)
    if kind in ("general", "symmetric"):
        d = _distances(rng, scale)
        psi = _general_psi(rng) if kind == "general" else (120.0, 120.0, 120.0)
        u = forward_edges(d, psi)
        return u, (psi[:2] if kind == "general" else None), OK, d
    if kind == "triangle":
        u1, u2, u3 = _distances(rng, scale)
        long = (u2 + u3) * rng.uniform(1.1, 1.5)
        return _rotate((long, u2, u3), r), _general_psi(rng)[:2], INCONSISTENT, None
    if kind == "psi_range":
        u = forward_edges(_distances(rng, scale), _general_psi(rng))
        return u, (rng.uniform(190.0, 240.0), rng.uniform(40.0, 100.0)), \
            INCONSISTENT, None
    if kind == "infeasible":
        u = _wide_triangle(rng, scale, 140.0, 160.0)
        psi1 = rng.uniform(70.0, 110.0)
        psi2 = (360.0 - psi1) / 2.0 + rng.uniform(-20.0, 20.0)
        psi = (psi1, psi2, 360.0 - psi1 - psi2)
        u, psi = _rotate(u, r), _rotate(psi, r)
        return u, psi[:2], INFEASIBLE, None
    if kind == "wide":
        return _rotate(_wide_triangle(rng, scale, 130.0, 160.0), r), None, \
            ANGLE_GE_120, None
    raise ValueError(f"unknown row kind {kind!r}")


def generate(workload: Workload, seed: int) -> list[Row]:
    """The workload's corpus for ``seed``: fixed kind counts, shuffled order."""
    rng = Random(f"{workload.name}/{seed}")
    kinds = workload.kinds()
    rng.shuffle(kinds)
    corpus = []
    for i, kind in enumerate(kinds):
        u, psi, status, planted = _make_row(kind, rng)
        meta = {"timestamp": (_EPOCH + timedelta(seconds=15 * i)).isoformat(),
                "feeder": f"F{rng.randrange(1, 97):03d}"}
        corpus.append(Row(f"{workload.name}-{seed}-{i:06d}", u, psi, status,
                          planted, kind, meta))
    return corpus


# =========================================================================
# Writing inputs
# =========================================================================

INPUT_FIELDS = ("id", "u1", "u2", "u3", "psi1", "psi2", "timestamp", "feeder")
VERIFY_FIELDS = INPUT_FIELDS + ("u1p", "u2p", "u3p", "max_residual",
                                "status", "diagnostics")


def _measurement(row: Row) -> dict:
    psi1, psi2 = row.psi if row.psi else (None, None)
    return {"id": row.id, "u1": row.u[0], "u2": row.u[1], "u3": row.u[2],
            "psi1": psi1, "psi2": psi2, **row.meta}


def _verify_row(row: Row) -> dict:
    out = _measurement(row)
    d = row.planted or (None, None, None)
    out.update(u1p=d[0], u2p=d[1], u3p=d[2], max_residual=None,
               status=row.status,
               diagnostics="planted" if row.planted else "planted failure")
    return out


def write_input(path: str, workload: Workload, rows: list[Row]) -> None:
    """The command's input file. Floats keep every digit (``repr``)."""
    with open(path, "w", newline="") as f:
        if workload.fmt == "jsonl":
            for row in rows:
                obj = {k: v for k, v in _measurement(row).items() if v is not None}
                f.write(json.dumps(obj) + "\n")
            return
        verify = workload.command == "verify"
        fields = VERIFY_FIELDS if verify else INPUT_FIELDS
        writer = csv.DictWriter(f, fieldnames=fields, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            values = _verify_row(row) if verify else _measurement(row)
            writer.writerow({k: "" if v is None else repr(v) if isinstance(v, float)
                             else v for k, v in values.items()})


# =========================================================================
# Checking outputs against planted truth
# =========================================================================

def _close(got: float, want: float) -> bool:
    return abs(got - want) <= VOLTAGE_REL_TOL * abs(want)


def _solve_row_error(row: Row, out: dict) -> str | None:
    if str(out.get("id")) != row.id:
        return f"expected id {row.id}, got {out.get('id')!r}"
    status = out.get("status")
    if status != row.status:
        return f"status {status!r}, planted {row.status!r} ({out.get('diagnostics')})"
    for key, value in row.meta.items():
        if str(out.get(key)) != value:
            return f"metadata {key}={out.get(key)!r} not echoed as {value!r}"
    if row.planted is None:
        return None
    try:
        got = tuple(float(out[k]) for k in ("u1p", "u2p", "u3p"))
    except (KeyError, TypeError, ValueError):
        return "solved row lacks numeric u1p, u2p, u3p"
    if not all(_close(g, w) for g, w in zip(got, row.planted)):
        return f"line voltages {got} differ from planted {row.planted}"
    return None


def check_solve_output(path: str, fmt: str, rows: list[Row]) -> dict[str, str]:
    """A message per input row (keyed by id) whose solve output is missing or
    disagrees with planted truth, and one for surplus output."""
    with open(path, newline="") as f:
        if fmt == "jsonl":
            outputs = [json.loads(line) for line in f if line.strip()]
        else:
            outputs = list(csv.DictReader(f))
    errors = {}
    for i, row in enumerate(rows):
        msg = _solve_row_error(row, outputs[i]) if i < len(outputs) else "no output row"
        if msg:
            errors[row.id] = f"({row.kind}) {msg}"
    if len(outputs) > len(rows):
        errors[path] = f"{len(outputs)} output rows for {len(rows)} input rows"
    return errors


def check_verify_output(path: str, rows: list[Row]) -> dict[str, str]:
    """A message per input row (keyed by id) that verify did not PASS, and
    one for a wrong summary line."""
    with open(path) as f:
        lines = f.read().splitlines()
    errors = {}
    for i, row in enumerate(rows):
        line = lines[i] if i < len(lines) else "no verdict"
        if not line.startswith(f"{row.id}: PASS"):
            errors[row.id] = f"({row.kind}) verify said {line!r}"
    summary = f"{len(rows)} records, {len(errors)} failed"
    if lines[len(rows):] != [summary]:
        errors[path] = (f"expected the summary {summary!r} after {len(rows)} "
                        f"verdicts, got {lines[len(rows):]!r}")
    return errors


def expected_status_counts(rows: list[Row]) -> dict[str, int]:
    return {s: sum(1 for row in rows if row.status == s) for s in STATUSES}
