"""The package's public names: all resolve, listed once and in order, and the
helpers and exceptions that no solve or verify path reached stay gone."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import starsolve

MODULES = tuple(module.name for module in pkgutil.iter_modules(starsolve.__path__))

# Removed once the constructions ran on plain floats, and once the circle
# route reflected vertex C in the line of centres; nothing called them.
REMOVED = ("AmbiguousIntersection", "CircleData", "EPS_DEN_COEFF", "EPS_LEN",
           "FermatIntermediate", "GeneralIntermediate", "SingularConfiguration", "ZeroVector",
           "_EDGE_LABELS", "angle_between", "circumcircle_data", "fermat_apexes",
           "fermat_line_solution", "intersect_circles", "law_of_cosines_angle",
           "perp", "star_point_coefficients")


def test_every_exported_name_resolves():
    missing = [name for name in starsolve.__all__ if not hasattr(starsolve, name)]
    assert not missing


def test_exports_sorted_without_duplicates():
    assert starsolve.__all__ == sorted(set(starsolve.__all__))


@pytest.mark.parametrize("module", ("",) + MODULES)
def test_removed_names_stay_removed(module):
    namespace = importlib.import_module(f"starsolve.{module}" if module else "starsolve")
    assert not [name for name in REMOVED if hasattr(namespace, name)]
