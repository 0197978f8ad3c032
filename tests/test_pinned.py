"""Every pinned CLI output, each with the reason it is pinned.

Each stage runs ``python -m starsolve.cli`` in a child interpreter with every
warning an error, so a deprecation on the CLI path fails the Python version
that introduces it. Each stage's exit code is pinned, and no stage may write
to stderr. ``DIGESTS`` pins the sha256 of what pipelines over synth's
fixed-seed corpora and the fixtures in ``tests/data`` write: the bytes of
both writers, quoting, metadata, and every failure and FAIL text. ``ROWS``
pins rows found by hand: the status and diagnostics solve writes, verify's
verdict, and the PR or ROADMAP item that found the row. A row whose output
is a known defect says so and names the ROADMAP item that owns it; the
change that mends the defect updates the row.

To pin a row, add it to ``ROWS`` with today's output and where it was found.
To pin bytes, add the input to ``tests/data`` and its pipelines to
``DIGESTS``; a first stage that names a file there reads it.
"""

from __future__ import annotations

import functools
import hashlib
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import pytest

from conftest import cli_env
from starsolve.records import read_pairs

DATA = Path(__file__).resolve().parent / "data"


def star_solve(argv: str, data: bytes) -> tuple[int, bytes]:
    """Exit code and output of ``star-solve argv`` on ``data``; it must write
    nothing to stderr."""
    done = subprocess.run([sys.executable, "-m", "starsolve.cli", *argv.split()],
                          input=data, capture_output=True, env=cli_env(), timeout=120)
    assert done.stderr == b"", done.stderr.decode()
    return done.returncode, done.stdout


@functools.cache
def pipeline(stages: str) -> tuple[tuple[int, ...], bytes]:
    """Each stage's exit code, and the last one's output, of ``stages``
    joined by " | "; a ``.csv`` or ``.jsonl`` first stage is that fixture."""
    *before, last = stages.split(" | ")
    if last.endswith((".csv", ".jsonl")):
        return (), (DATA / last).read_bytes()
    codes, data = pipeline(" | ".join(before)) if before else ((), b"")
    code, out = star_solve(last, data)
    return codes + (code,), out


SYNTH = "synth --count 2000 --seed 7"
SAME_BYTES = ("synth writes the same bytes for a fixed seed on every Python version, and "
              "so do solve of them, as CSV and as JSON lines, and verify of either")
LOOSE = ("JSON lines that json.loads reads but that are not one object from the first "
         "character to the line feed: a leading space, CRLF, a blank line, a line of "
         "only a form feed, and no final line feed")
METADATA = ("metadata comes back in the bytes of the json and csv modules: non-ASCII "
            "text, a key holding a quote, an integer, a boolean and a null, and a "
            "'status' key is no metadata; verify reads either back alike")
QUOTED = ("an id with a comma and a doubled quote, a value with a line break and "
          "diagnostics with commas come back quoted in CSV and escaped in JSON lines, "
          "and verify reads either back alike")
CR = ("the writer quotes a metadata key holding a comma or a quote, a bare CR in an id "
      "or a value, and a comma in a value, and verify reads them back")
FAILURES = ("failure rows carry each diagnostics text: the triangle inequality, psi out "
            "of range, no star point, a star point at a terminal within the angle "
            "slack, wide at 120 deg, a zero line voltage, psi near 0 and 180 deg, a "
            "planted near-180-deg row near a vertex, scales 1e+-300; verify confirms "
            "each failure row and passes the ok rows")
FAIL_KINDS = ("each FAIL verdict of verify in its words: a closure over tolerance, a "
              "near-terminal claim that only the circle route refutes, a closure that "
              "overflows, a status the re-solve contradicts, an ok claim on no triangle")
# (stages, their exit codes, sha256 of the last one's output, why it is pinned)
DIGESTS = [
    (SYNTH, (0,), "6a725a59fe3a0a8f89f8121f0a8927bfff68b80566cb8d14fc69a88b7a62392e",
     SAME_BYTES),
    (SYNTH + " --symmetric", (0,),
     "19799f882afb082fee07bdaabb06f5d13e485db12f9b0658b5daffc839b4e683", SAME_BYTES),
    (SYNTH + " | solve -", (0, 0),
     "0bbaa9093f2e7d5e04812e4fb420bc51d2b8be5be5140c8647b3a225da75434a", SAME_BYTES),
    (SYNTH + " --symmetric | solve --format jsonl -", (0, 0),
     "8c069ea705f06794c9c1ea5cf3fe8f20611ad64542fe624627c2de915dcf13e9", SAME_BYTES),
    (SYNTH + " | solve - | verify -", (0, 0, 0),
     "9c2ba34874b7cabd0c27822e4537cc53014bf25a0c56a81f82af9d4b746dd8dc", SAME_BYTES),
    (SYNTH + " --symmetric | solve --format jsonl - | verify -", (0, 0, 0),
     "9d39143a25c76372596aae23786af4c32c046fc433bd473f360f86062bb4feb2", SAME_BYTES),
    ("loose.jsonl | solve --format jsonl -", (2,),
     "eaa62e054b10d22a67ce319fa09f4b7a5f790dad52c9d09508ff1554a47b8b1e", LOOSE),
    ("metadata.jsonl | solve --format jsonl -", (2,),
     "1051ff64561ac5a76991d9ffd02899b315056b832fdad480f8802185d99a516a", METADATA),
    ("metadata.jsonl | solve --format csv -", (2,),
     "926102cc320e1c202046f6dc3a679728d884a58153e29c3d52aabdc9e2ab4454", METADATA),
    ("metadata.jsonl | solve --format jsonl - | verify -", (2, 0),
     "d95cbc2b818d64989a7294036c7d3674abc050d205101072d33d0914169b80ac", METADATA),
    ("metadata.jsonl | solve --format csv - | verify -", (2, 0),
     "d95cbc2b818d64989a7294036c7d3674abc050d205101072d33d0914169b80ac", METADATA),
    ("quoted.csv | solve --format csv -", (2,),
     "621c740255828dff98ff2dd6d7dbda67eec7b8f734c9652387639c451112c03d", QUOTED),
    ("quoted.csv | solve --format jsonl -", (2,),
     "05f0d1603d82a98470403611e19c5f716c0b1f9c5077f6ef02c4effc4f727d39", QUOTED),
    ("quoted.csv | solve --format csv - | verify -", (2, 0),
     "679ac6418204d9a1abda0192c81f11a19267d24bbe75f39a67eaf69748a699c4", QUOTED),
    ("quoted.csv | solve --format jsonl - | verify -", (2, 0),
     "679ac6418204d9a1abda0192c81f11a19267d24bbe75f39a67eaf69748a699c4", QUOTED),
    ("carriage_return.csv | solve --format csv -", (2,),
     "0a6eb82ac70a81ab299f2fefb4e6bd734711e406c507276b4c340ddefa907a4d", CR),
    ("carriage_return.csv | solve --format csv - | verify -", (2, 0),
     "511d2ac7d1c80958850c678ecf787aa3b730888c0748a057472c78f685b4e02d", CR),
    ("failure_rows.csv | solve -", (2,),
     "78ee7c1725dbd3998cfe712f8c3177e7138aaa71fb4802bb392f6967cf53d4f4", FAILURES),
    ("failure_rows.csv | solve --format jsonl -", (2,),
     "e8b00c9d491d678d0ec2f4359035d1f1e0666b79e2b689dd352402d6fa10651a", FAILURES),
    ("failure_rows.csv | solve - | verify -", (2, 0),
     "a8f3bae25257f8fd51759979065f553ed3b584f0364c9440ddab61278f8036c3", FAILURES),
    ("failure_rows.csv | solve --format jsonl - | verify -", (2, 0),
     "a8f3bae25257f8fd51759979065f553ed3b584f0364c9440ddab61278f8036c3", FAILURES),
    ("fail_kinds.csv | verify -", (2,),
     "f76d3d60932e082c16662cfed59b728389b6cd424f2855288f0c01642a11e504", FAIL_KINDS),
]


@pytest.mark.parametrize("stages, exits, digest, why", DIGESTS, ids=[d[0] for d in DIGESTS])
def test_pinned_digest(stages, exits, digest, why):
    codes, out = pipeline(stages)
    assert (codes, hashlib.sha256(out).hexdigest()) == (exits, digest), why


class Row(NamedTuple):
    line: str  # a CSV row under MEASUREMENTS, a JSON line, or, with status None, a claim
    status: str | None  # what solve writes; None hands the claim to verify as it is
    diagnostics: str
    verdict: str  # verify's line for the row
    found: str  # where the row was found and what it showed; KNOWN DEFECT if wrong today


MEASUREMENTS = "id,u1,u2,u3,psi1,psi2\n"
CLAIMS = "id,u1,u2,u3,psi1,psi2,u1p,u2p,u3p,max_residual,status,diagnostics\n"
WIDE_C = ("phasor-triangle angle at vertex C is 143.61 deg (>= 120 deg); advisory "
          "vertex-clamped line voltages (1.0, 1.0, 0.0)")
AT_TERMINAL = ("u{}p is zero within tolerance: the load star point sits on a phase "
               "terminal; u{}p is zero within tolerance: the load star point sits on a "
               "phase terminal")
UNRESOLVED = ("closure residuals ({}) exceed 1e-08; the closed form does not reach the "
              "star point within tolerance")
CONFIRMED = "{}: PASS (failure status {!r} confirmed by re-solve)"
R15 = (95.3280037301223, 98.66903628441688, 3.3448837046922284, 2.7046665368394143,
       178.37393027680892)
R15_FOUND = "PR 8: echoed at 12 digits this row was another triangle, and verify FAILed it"
EXPLICIT_120 = "PR 7: explicit 120-deg angles decide as empty psi does"
NEAR_180 = ("test_boundary's near-180-deg property, which also checks that verify FAILs "
            "an infeasible or angle_ge_120 claim on the row: a closure miss and a "
            "barycentric test once wrote it infeasible, and verify confirmed that")

ROWS = {
    "explicit-120": Row("w,1,1,1.9,120,120", "angle_ge_120", WIDE_C,
                        CONFIRMED.format("w", "angle_ge_120"), EXPLICIT_120),
    "empty-psi-120": Row("w,1,1,1.9,,", "angle_ge_120", WIDE_C,
                         CONFIRMED.format("w", "angle_ge_120"), EXPLICIT_120),
    "r15-12-digits": Row(
        "r15,95.3280037301,98.6690362844,3.34488370469,2.70466653684,178.373930277", "ok", "",
        "r15: PASS (max residual 1.561e-13)",
        "PR 7: the circle route by the radical line missed this star point by 7e-7"),
    "r15-csv": Row("r15,%r,%r,%r,%r,%r" % R15, "ok", "", "r15: PASS (max residual 1.649e-13)",
                   R15_FOUND),
    "r15-jsonl": Row('{"id": "r15", "u1": %r, "u2": %r, "u3": %r, "psi1": %r, "psi2": %r}'
                     % R15, "ok", "", "r15: PASS (max residual 1.649e-13)", R15_FOUND),
    "collinear": Row(
        "c,3,4,1,106.6919676342695,179.999999999", "infeasible",
        "edges are collinear: no interior point", CONFIRMED.format("c", "infeasible"),
        "PR 18: the closure holds on collinear edges; an interior test divided by 0 area"),
    "past-the-denominator": Row(
        "d,0.6946369378478342,0.2613806362828738,0.5339632973299462,121.81054300537848,"
        "179.99999999999997", "unresolved", "distance denominator -3.074e-01 (unit "
        "triangle) is not positive; the closed form cannot resolve the star point",
        CONFIRMED.format("d", "unresolved"),
        "KNOWN DEFECT, ROADMAP item 5 (found in PR 30): psi2 a rounding below 180 deg, "
        "and the closed form's denominator < 0, though the circle route closes the row"),
    "near-a-vertex": Row(
        "r,1.0,0.999999999999995,1e-14,,", "ok", AT_TERMINAL.format(1, 2),
        "r: PASS (max residual 1.547e-14)",
        "PR 34 (former ROADMAP item 10): a barycentric gate divided u by the area 1e-14"),
    "needle-1e-18": Row(
        "n,1,1e-18,1,,", "ok", AT_TERMINAL.format(1, 3), "n: PASS (max residual 1.503e-15)",
        "PR 27: a 120-deg needle of ratio 1e18 solves ok, and one verify route passes it"),
    "forged-no-triangle": Row(
        "m,1,1,3,,,1,1,1,0,ok,", None, "",
        "m: FAIL (cross-check raised: edges (1.0, 1.0, 3.0) violate the triangle inequality)",
        "PR 11: an ok claim on edges that are no triangle"),
    "needle-1e-8": Row(
        "n,1,1,1e-8,,", "unresolved",
        UNRESOLVED.format("1.2212453270876722e-15, 1.2212453270876722e-15, "
                          "1.732050934109679e-08"),
        CONFIRMED.format("n", "unresolved"),
        "KNOWN DEFECT, ROADMAP item 5 (found in PR 11): a star point exists, but the closed "
        "form closes the short edge to 1.7e-8 only"),
    "subnormal-residual": Row(
        "t,1e-159,1,1,100,150", "unresolved",
        UNRESOLVED.format("1.9762455287444913e-05, 4.440892098500626e-16, "
                          "4.440892098500626e-16"),
        CONFIRMED.format("t", "unresolved"),
        "KNOWN DEFECT, ROADMAP item 4 (found in PR 27): subnormal rounding of z^2 decides "
        "the short edge's residual, though the distances match the reference"),
    "short-edge-squares-to-0": Row(
        "s,1,1,1e-162,,", "infeasible",
        "edges (1.0, 1.0, 1e-162): the shortest squares to 0 beside the longest",
        CONFIRMED.format("s", "infeasible"),
        "KNOWN DEFECT, ROADMAP item 4 (re-anchor at PR 30): infeasible claims no star "
        "point exists, which is false, and verify passes it"),
    "near-180-unresolved": Row(
        "a,117.45917376670758,0.4169475734378701,117.52180669988361,81.26441457577114,"
        "179.9940549532222", "unresolved",
        UNRESOLVED.format("2.0396824099344786e-08, 2.373138219996449e-12, "
                          "2.0386072337348164e-08"),
        CONFIRMED.format("a", "unresolved"),
        "KNOWN DEFECT, ROADMAP items 5 and 13 (found by " + NEAR_180 + "): a star point "
        "exists, but the closed form closes two edges to 2e-8 only, and verify passes it"),
    "near-180-ok": Row(
        "b,201.5186176131462,187.6304337638246,13.956097007978222,174.54597026760288,"
        "5.45582565892657", "ok", "", "b: PASS (max residual 5.586e-10)",
        "found by " + NEAR_180),
}


@pytest.mark.parametrize("row", ROWS.values(), ids=ROWS)
def test_hand_found_row(row):
    jsonl = row.line.startswith("{")
    header = "" if jsonl else MEASUREMENTS if row.status else CLAIMS
    data = (header + row.line + "\n").encode()
    if row.status is not None:
        code, data = star_solve("solve -", data)
        [(_, solution)] = read_pairs(data.decode().splitlines(keepends=True),
                                     "jsonl" if jsonl else "csv")
        assert (code, solution.status, solution.diagnostics) == (
            0 if row.status == "ok" else 2, row.status, row.diagnostics), row.found
    failed = " FAIL (" in row.verdict
    assert star_solve("verify -", data) == (
        2 * failed, f"{row.verdict}\n1 records, {int(failed)} failed\n".encode()), row.found
