"""The package's public names: all resolve, listed once and in order, to
the objects their modules define, and the helpers and exceptions that no
solve or verify path reached stay gone. The records and values a row passes
through cannot be changed once built."""

from __future__ import annotations

import importlib
import pkgutil
import sys

import pytest

import starsolve
from starsolve import (
    LineVoltages,
    PhaseAngles,
    PhaseToPhaseVoltages,
    PlaneVector,
    StarSolution,
    TriangleEdges,
)
from starsolve.circuit import ResidualReport
from starsolve.fermat import ALL_120
from starsolve.kernel import ANGLES_120
from starsolve.records import MeasurementRecord, SolutionRecord
from test_one_path import hexed

MODULES = tuple(module.name for module in pkgutil.iter_modules(starsolve.__path__))

# Removed once the constructions ran on plain floats, once the circle
# route reflected vertex C in the line of centres, and once the oracle
# started from geometry.point_position; nothing called them. The circle
# kernel lives on in tests/test_oracle.py as the circle route's reference.
# The four placements went when kernel.place and geometry.star_solution
# took over every position the library reports.
REMOVED = ("AmbiguousIntersection", "CircleData", "EPS_DEN_COEFF", "EPS_LEN",
           "FermatIntermediate", "GeneralIntermediate", "SingularConfiguration", "ZeroVector",
           "_EDGE_LABELS", "_trilaterate", "angle_between", "apex_position",
           "circle_intersections", "circumcircle_data", "fermat_apexes",
           "fermat_line_solution", "intersect_circles", "law_of_cosines_angle",
           "parse_measurement", "perp", "point_from_distances", "point_position",
           "solution_at_scale", "star_point_coefficients")


def test_every_exported_name_resolves():
    missing = [name for name in starsolve.__all__ if not hasattr(starsolve, name)]
    assert not missing


def test_exports_sorted_without_duplicates():
    assert starsolve.__all__ == sorted(set(starsolve.__all__))


@pytest.mark.parametrize("name", starsolve.__all__)
def test_exported_name_is_the_object_its_module_defines(name):
    value = getattr(starsolve, name)
    assert getattr(sys.modules[value.__module__], name) is value


def test_star_import_binds_exactly_the_exports():
    namespace: dict = {}
    exec("from starsolve import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(starsolve.__all__)
    assert set(starsolve.__all__) <= set(dir(starsolve))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'solve_everything'"):
        getattr(starsolve, "solve_everything")


def test_angles_120_are_all_120_as_floats():
    assert hexed(ALL_120.as_tuple()) == hexed(ANGLES_120[0]) == ((120.0).hex(),) * 3
    assert hexed(ALL_120.invariants) == hexed(ANGLES_120)


@pytest.mark.parametrize("module", ("",) + MODULES)
def test_removed_names_stay_removed(module):
    namespace = importlib.import_module(f"starsolve.{module}" if module else "starsolve")
    assert not [name for name in REMOVED if hasattr(namespace, name)]


@pytest.mark.parametrize("value, name", [
    (MeasurementRecord("m", 3.0, 4.0, 5.0), "u1"),
    (MeasurementRecord("m", 3.0, 4.0, 5.0), "meta"),
    (SolutionRecord("m", 1.0, 2.0, 3.0, 0.0, "ok"), "status"),
    (TriangleEdges(3.0, 4.0, 5.0), "a"),
    (TriangleEdges(3.0, 4.0, 5.0), "invariants"),
    (PhaseAngles(110.0, 130.0, 120.0), "psi_a"),
    (PhaseAngles(110.0, 130.0, 120.0), "invariants"),
    (LineVoltages(1.0, 2.0, 3.0), "u1p"),
    (LineVoltages(1.0, 2.0, 3.0), "residuals"),
    (PhaseToPhaseVoltages(3.0, 4.0, 5.0), "u1"),
    (StarSolution(1.0, 2.0, 3.0, PlaneVector(0.0, 0.0), (0.0, 0.0, 0.0)), "a_prime"),
    (PlaneVector(0.0, 0.0), "x"),
    (ResidualReport((0.0, 0.0, 0.0), 0.0, 1e-8, True), "passed"),
    (ResidualReport(residuals=(0.0, 0.0, 0.0), max_residual=0.0, tolerance=1e-8,
                    passed=True), "residuals"),
], ids=lambda item: type(item).__name__ if not isinstance(item, str) else item)
def test_fields_cannot_be_assigned(value, name):
    # Read first, outside the raises block: a missing name must fail here.
    current = getattr(value, name)
    with pytest.raises(AttributeError):
        setattr(value, name, current)
    with pytest.raises(AttributeError):
        setattr(value, "added", 0)
