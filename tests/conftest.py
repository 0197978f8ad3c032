"""Shared test helpers: independent oracles and seeded instance generators."""

from __future__ import annotations

import math
from random import Random
from typing import TextIO

from starsolve import PhaseAngles, SynthesisSpec, TriangleEdges, synthesize_triangle
from starsolve.oracle import random_synthesis_spec
from starsolve.records import (
    MEASUREMENT_FIELDS,
    SOLUTION_FIELDS,
    MeasurementRecord,
    SolutionRecord,
)


def rel_err(value: float, expected: float, floor: float = 0.0) -> float:
    return abs(value - expected) / max(abs(expected), abs(value), floor, 1e-300)


def shoelace_area(p1, p2, p3) -> float:
    """Signed-area oracle from raw coordinates; independent of every solver."""
    (x1, y1), (x2, y2), (x3, y3) = p1, p2, p3
    return abs(x1 * (y2 - y3) + x2 * (y3 - y1) + x3 * (y1 - y2)) / 2.0


def combined_row(m: MeasurementRecord, s: SolutionRecord) -> dict:
    """The reference output row of a solved record: the measurement's
    fields, echoed for pipeline chaining, the solution's, then the
    metadata. ``RowWriter`` must write the bytes that ``json.dumps``
    writes, or that the csv module writes through :class:`LineFeedEnded`."""
    row = dict(zip(MEASUREMENT_FIELDS + SOLUTION_FIELDS, (*m[:6], *s[1:])))
    row.update(m.meta)
    return row


class LineFeedEnded:
    """Passes the csv writer's CRLF-ended lines on ended by LF alone, as
    ``RowWriter`` ends a CSV line. The writer quotes a field holding a bare
    CR only when CR is part of its line terminator; left unquoted, that CR
    would end the row for every reader."""

    def __init__(self, stream: TextIO):
        self._stream = stream

    def write(self, line: str) -> None:
        self._stream.write(line[:-2] + "\n")


def planted_fermat_instance(rng: Random, seed: int = 0):
    """A triangle with all interior angles < 120 deg plus its known solution."""
    spec = random_synthesis_spec(rng, seed=seed, symmetric=True)
    edges, expected = synthesize_triangle(spec)
    return edges, expected


def planted_general_instance(rng: Random, seed: int = 0):
    spec = random_synthesis_spec(rng, seed=seed, symmetric=False)
    edges, expected = synthesize_triangle(spec)
    return spec, edges, expected


def random_fermat_triangle(rng: Random) -> TriangleEdges:
    return planted_fermat_instance(rng)[0]


def distances_at_120(a_p: float, b_p: float, c_p: float) -> TriangleEdges:
    """Edges of the triangle whose 120-deg interior point has the given
    vertex distances; direct law-of-cosines evaluation, no solver code."""
    return TriangleEdges(
        math.sqrt(b_p * b_p + c_p * c_p + b_p * c_p),
        math.sqrt(c_p * c_p + a_p * a_p + c_p * a_p),
        math.sqrt(a_p * a_p + b_p * b_p + a_p * b_p),
    )


def angles_or_none() -> PhaseAngles:
    return PhaseAngles(120.0, 120.0, 120.0)


# Frozen forward-synthesis instance: distances (3, 4, 5), angles 120 deg.
# a^2 = 16 + 25 + 20 = 61, b^2 = 25 + 9 + 15 = 49, c^2 = 9 + 16 + 12 = 37.
E1_EDGES = TriangleEdges(math.sqrt(61.0), 7.0, math.sqrt(37.0))
E1_DISTANCES = (3.0, 4.0, 5.0)

# Frozen general instance: distances (3, 4, 5) seen under (110, 130, 120) deg.
E4_ANGLES = PhaseAngles(110.0, 130.0, 120.0)
E4_EDGES = synthesize_triangle(SynthesisSpec((3.0, 4.0, 5.0), E4_ANGLES))[0]
