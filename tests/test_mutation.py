"""What each of verify's checks catches: a fixed-seed mutation test.

``verify`` checks a solved row by the law-of-cosines closure and by the
circle route, at any angle. At 120 deg it once ran a third check, the
distance-sum minimum of :func:`~starsolve.oracle.minimize_distance_sum`
compared with the claimed sum to 1e-6. A claim that closes all three
closure equations at 120 deg is already the Fermat point, and the sum is
stationary there, so the oracle can only see what the closure and the
circle route see first. This test measures that (DeMillo, Lipton and
Sayward, "Hints on Test Data Selection", IEEE Computer 11(4), 1978): it
plants rows, solves them, mutates what solve wrote, and computes each
check's verdict on each mutant.

Rows, from ``Random(SEED)``:
- at 120 deg: plants with distances 10**U(-3, 3); needles (1, 1, 10**-U(1,
  160)) in a random rotation; plants with one distance 10**-U(3, 9) of the
  others, so that a vertex angle is near 120 deg;
- general plants with angles in (60, 180) deg, and near-180-deg plants
  whose widest angle is 180 - 10**U(-3, log10 60) deg. For these only the
  closure and the circle route are compared.

Mutants of an ``ok`` row:
- claim mutants: a relative step s = +-10**U(-12, -1) applied to one
  distance, to all three, or to one distance as a shift of s times the
  largest;
- common-mode mutants: Theta^2, or at 120 deg the cotangents, scaled by
  1 + s through ``cli.edge_invariants`` and ``cli.ANGLES_120``, so that
  solve and the circle route share the defect, and the row solved again.

The oracle's verdict is the old one, from a cold start: at most
``MAX_ITER`` steps, and a refutation when the minimum and the claimed sum
differ by more than 1e-6 of the sum; ``NoConvergence`` is no verdict. Every
mutant the oracle refutes must FAIL ``verify_record``, and verify's verdict
must be the closure's and the circle route's together. Run with ``-s`` to
see the table of catches. About 1 s on a shared 2-vCPU VM with Python
3.11.
"""

from __future__ import annotations

import math
from collections import Counter
from random import Random

from starsolve import cli, oracle_kernel
from starsolve.config import RESIDUAL_TOL
from starsolve.errors import NoConvergence, StarSolveError
from starsolve.geometry import TriangleEdges
from starsolve.kernel import ANGLES_120, circle_distances, closure_defects
from starsolve.oracle import minimize_distance_sum
from starsolve.records import STATUS_OK, MeasurementRecord, SolutionRecord

SEED = 27
ROWS_PER_FAMILY = 1000
MAX_ITER = 50
CHECKS = ("closure", "circle", "oracle")


def planted_rows(rng: Random):
    """(family, edges, psis) for each family, ``ROWS_PER_FAMILY`` each;
    psis is None at 120 deg."""
    def at_120(distances):
        return oracle_kernel.planted_edges(distances, (120.0, 120.0, 120.0))[0]

    def rotated(triple):
        shift = rng.randrange(3)
        return triple[shift:] + triple[:shift]

    for _ in range(ROWS_PER_FAMILY):
        yield "plant-120", at_120(tuple(10.0 ** rng.uniform(-3, 3) for _ in range(3))), None
        yield "needle-120", rotated((1.0, 1.0, 10.0 ** -rng.uniform(1, 160))), None
        distances = [10.0 ** rng.uniform(-3, 3) for _ in range(3)]
        distances[rng.randrange(3)] *= 10.0 ** -rng.uniform(3, 9)
        yield "vertex-120", at_120(tuple(distances)), None
        distances, psis = oracle_kernel.planted_draw(rng)
        yield "general", oracle_kernel.planted_edges(distances, psis)[0], psis[:2]
        widest = 180.0 - 10.0 ** rng.uniform(-3, math.log10(60.0))
        rest = 360.0 - widest
        other = rng.uniform(max(1.0, rest - widest), min(widest, rest - 1.0))
        psis = rotated((widest, other, rest - other))
        distances = tuple(10.0 ** rng.uniform(-3, 3) for _ in range(3))
        yield "near-180", oracle_kernel.planted_edges(distances, psis)[0], psis[:2]


def step(rng: Random) -> float:
    return rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-12, -1)


def claim_mutant(rng: Random, claim: tuple) -> tuple[str, tuple]:
    kind = rng.choice(("one", "all", "shift"))
    s, i = step(rng), rng.randrange(3)
    if kind == "all":
        return kind, tuple(d * (1.0 + s) for d in claim)
    if kind == "one":
        return kind, tuple(d * (1.0 + s) if j == i else d for j, d in enumerate(claim))
    return kind, tuple(d + s * max(claim) if j == i else d for j, d in enumerate(claim))


def theta_scaled(edge_invariants, s: float):
    """``edge_invariants`` with Theta^2 scaled by 1 + s."""
    def scaled(*edges):
        k, unit, unit_sq, theta_sq = edge_invariants(*edges)
        return k, unit, unit_sq, theta_sq * (1.0 + s)
    return scaled


def verdicts(m: MeasurementRecord, claim: tuple, tolerance: float) -> dict:
    """Each check's verdict on the claim, True for a PASS, on the invariants
    that verify reads; None where the oracle gives none."""
    (k, unit, unit_sq, theta_sq), (psis, cot, cos) = cli._invariants(m)
    unit_claim = tuple(math.ldexp(d, -k) for d in claim)
    closure = max(closure_defects(unit_sq, cos, unit_claim)) <= tolerance
    try:
        ua, ub, uc = unit
        floor = 1e-12 * (ua + ub + uc)
        circle = all(abs(given - recomputed) <= max(floor, tolerance * max(given, recomputed))
                     for given, recomputed in zip(unit_claim, circle_distances(
                         unit, unit_sq, theta_sq, psis, cot)))
    except StarSolveError:
        circle = False
    oracle = None
    if m.psi1 is None:
        try:
            minimized = minimize_distance_sum(TriangleEdges(*unit), MAX_ITER).value
            total = sum(unit_claim)
            oracle = abs(minimized - total) <= 1e-6 * total
        except NoConvergence:
            pass
    return {"closure": closure, "circle": circle, "oracle": oracle}


def test_verify_fails_every_mutant_the_oracle_refutes(monkeypatch):
    rng = Random(SEED)
    table = Counter()

    def judge(m: MeasurementRecord, kind: str, claim: tuple) -> None:
        verdict = verdicts(m, claim, RESIDUAL_TOL)
        passed, detail = cli.verify_record(m, SolutionRecord(m.id, *claim, 0.0, STATUS_OK),
                                           RESIDUAL_TOL)
        assert passed == (verdict["closure"] and verdict["circle"]), (m, claim, detail)
        if verdict["oracle"] is False:
            assert not passed, (m, claim, detail)
        row = "120" if m.psi1 is None else "other", kind
        table[row, "mutants"] += 1
        failed = [name for name in CHECKS if verdict[name] is False]
        for name in failed:
            table[row, name] += 1
        if len(failed) == 1:
            table[row, "only " + failed[0]] += 1
        if m.psi1 is None and verdict["oracle"] is None:
            table[row, "oracle silent"] += 1

    for index, (family, edges, psis) in enumerate(planted_rows(rng)):
        m = MeasurementRecord(f"{family}-{index}", *edges, *(psis or (None, None)))
        _, solved = cli.solve_record(m, RESIDUAL_TOL)
        if solved.status != STATUS_OK:
            continue
        judge(m, *claim_mutant(rng, (solved.u1p, solved.u2p, solved.u3p)))

        # A common-mode defect: solve and the circle route read it alike.
        kind = "theta" if psis is not None or rng.random() < 0.5 else "cot"
        s = step(rng)
        with monkeypatch.context() as patch:
            if kind == "theta":
                patch.setattr(cli, "edge_invariants", theta_scaled(cli.edge_invariants, s))
            else:
                psis_120, cot, cos = ANGLES_120
                patch.setattr(cli, "ANGLES_120", (psis_120, tuple(c * (1.0 + s) for c in cot),
                                                  cos))
            _, mutant = cli.solve_record(m, RESIDUAL_TOL)
            if mutant.status == STATUS_OK:
                judge(m, kind, (mutant.u1p, mutant.u2p, mutant.u3p))

    columns = ("mutants", *CHECKS, *(f"only {name}" for name in CHECKS), "oracle silent")
    print(f"\nCatches by check (seed {SEED}, the oracle at most {MAX_ITER} steps):")
    print(f"{'rows':6}{'kind':6}" + "".join(f"{column:>14}" for column in columns))
    for row in sorted({key[0] for key in table}):
        print(f"{row[0]:6}{row[1]:6}" + "".join(f"{table[row, column]:>14}"
                                                for column in columns))
    # The sample reaches every kind of mutant, and the oracle refutes some.
    assert {key[0] for key in table} == {("120", "cot")} | {
        (rows, kind) for rows in ("120", "other") for kind in ("one", "all", "shift", "theta")}
    assert sum(table[key] for key in table if key[1] == "oracle") > 0
