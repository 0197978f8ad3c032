"""A fresh interpreter that imports ``starsolve.cli``, or solves, verifies
or synthesizes rows through it, loads only the float kernels: no value
type, no oracle module, and none of the standard-library modules that only
they or a failing row need. ``oracle_kernel``, synth's planted draw and
forward map, loads only for synth, which alone calls it; verify checks a
120-deg row as it checks any other.

Each case runs in its own interpreter, with every warning an error, and
compares ``sys.modules`` after the case with a snapshot taken before it,
so what the environment itself preloads does not count.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import cli_env

# Modules a solve never needs: the value types, the oracle and its float
# entries, and the standard-library modules that they or a failing row's
# traceback pull in.
NOT_ON_SOLVE = {"dataclasses", "inspect", "traceback", "random", "starsolve.oracle",
                "starsolve.oracle_kernel", "starsolve.geometry", "starsolve.general",
                "starsolve.fermat", "starsolve.circuit"}

GENERAL_CSV = "id,u1,u2,u3,psi1,psi2\nm,380,410,395,115,123\n"
SYMMETRIC_JSONL = '{"id": "m", "u1": 400, "u2": 400, "u3": 400}\n'
SYMMETRIC_SOLVED = ('{"id": "m", "u1": 400, "u2": 400, "u3": 400, '
                    '"u1p": 230.94010767585033, "u2p": 230.94010767585033, '
                    '"u3p": 230.94010767585033, "max_residual": 0, "status": "ok"}\n')

SCRIPT = """\
import io, sys
before = set(sys.modules)
{body}
sys.stderr.write(" ".join(sorted(set(sys.modules) - before)))
"""


def loaded_by(body: str) -> set[str]:
    """Modules a fresh interpreter loads while it runs ``body``."""
    proc = subprocess.run([sys.executable, "-c", SCRIPT.format(body=body)],
                          capture_output=True, text=True, env=cli_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stderr.split())


def run_main(argv: list[str], path: Path) -> str:
    """A script body that runs ``cli.main`` and requires exit code 0."""
    return ("from starsolve.cli import main\n"
            "sys.stdout = io.StringIO()\n"
            f"assert main({argv + [str(path)]!r}) == 0\n")


def test_import_loads_no_value_type_and_no_oracle():
    loaded = loaded_by("import starsolve.cli")
    assert "starsolve.kernel" in loaded
    assert not loaded & NOT_ON_SOLVE


@pytest.mark.parametrize("name, text", [("general.csv", GENERAL_CSV),
                                        ("symmetric.jsonl", SYMMETRIC_JSONL)],
                         ids=["general-csv", "symmetric-jsonl"])
def test_solve_loads_no_value_type_and_no_oracle(name, text, tmp_path):
    path = tmp_path / name
    path.write_text(text)
    assert not loaded_by(run_main(["solve"], path)) & NOT_ON_SOLVE


def test_bare_package_import_loads_submodules_on_first_use():
    loaded = loaded_by(
        "import starsolve\n"
        "assert 'starsolve.geometry' not in sys.modules\n"
        "for name in ('circuit', 'errors', 'fermat', 'general', 'geometry', 'oracle'):\n"
        "    assert getattr(starsolve, name) is sys.modules['starsolve.' + name]\n")
    assert {"starsolve.geometry", "starsolve.oracle"} <= loaded


def test_verify_of_a_120_deg_row_loads_no_value_type_and_no_oracle(tmp_path):
    path = tmp_path / "solved.jsonl"
    path.write_text(SYMMETRIC_SOLVED)
    loaded = loaded_by(run_main(["verify"], path))
    assert "starsolve.oracle_kernel" not in loaded
    assert not loaded & NOT_ON_SOLVE


@pytest.mark.parametrize("extra", [[], ["--symmetric"]], ids=["general", "symmetric"])
def test_synth_loads_no_value_type_and_no_oracle(extra):
    loaded = loaded_by("from starsolve.cli import main\n"
                       "sys.stdout = io.StringIO()\n"
                       f"assert main({['synth', '--count', '3', *extra]!r}) == 0\n")
    assert "starsolve.oracle_kernel" in loaded
    assert not loaded & NOT_ON_SOLVE - {"random", "starsolve.oracle_kernel"}
