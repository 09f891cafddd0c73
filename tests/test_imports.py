"""A one-shot cli process imports only the modules its command runs.

Each case runs ``adesurf.cli.run`` in a fresh interpreter and reports which
package modules were loaded; nothing at the package root imports a
submodule, so those are exactly the modules the command needed.  The
last test asks the same of names: every public one is used by the package
or the benchmark.
"""

import ast
import glob
import json
import os
import subprocess
import sys

import pytest

import adesurf

SRC = os.path.dirname(os.path.dirname(os.path.abspath(adesurf.__file__)))

# argv[1] is "block-sympy" or "-"; the rest is the cli command line
_PROBE = """
import contextlib, io, json, sys
if sys.argv[1] == "block-sympy":
    sys.modules["sympy"] = None  # any import of sympy now raises ImportError
import adesurf.cli
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = adesurf.cli.run(sys.argv[2:])
print(json.dumps({
    "code": code,
    "stdout": out.getvalue(),
    "adesurf": sorted(m for m in sys.modules if m.split(".")[0] == "adesurf"),
    "sympy": sorted(m for m, mod in sys.modules.items() if m.split(".")[0] == "sympy" and mod is not None),
}))
"""


def probe(argv, block_sympy=False):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, "block-sympy" if block_sympy else "-", *argv],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout)


def test_lines_loads_only_the_enumeration_modules():
    got = probe(["lines", "--kind", "p2", "--n", "6"])
    assert got["code"] == 0
    assert json.loads(got["stdout"])["count"] == 27
    # in particular none of localmodel, spectral, qpoly, transform, bundles or suite
    assert got["adesurf"] == [
        "adesurf",
        "adesurf._enumkernel",
        "adesurf._json",
        "adesurf._linalg",
        "adesurf.cli",
        "adesurf.errors",
        "adesurf.lattice",
        "adesurf.linesroots",
    ]


@pytest.mark.parametrize(
    "argv",
    [
        ["spectral", "sen", "--b2", "[0,1]", "--b4", "[1]", "--b6", "[0,1]", "--dL", "1"],
        ["spectral", "picard", "--n", "4"],
    ],
    ids=["sen", "picard"],
)
def test_spectral_commands_that_never_factor_skip_the_factoring_module(argv):
    got = probe(argv)
    assert got["code"] == 0
    assert "adesurf.qpoly" in got["adesurf"]
    assert "adesurf._zassenhaus" not in got["adesurf"]


def test_spectral_analyze_loads_the_factoring_module(tmp_path):
    cover = tmp_path / "cover.json"
    cover.write_text('{"n": 2, "coeffs": [[0, -1], []]}')
    got = probe(["spectral", "analyze", "--cover", str(cover)])
    assert got["code"] == 0
    assert "adesurf._zassenhaus" in got["adesurf"]


def test_schema_error_loads_no_domain_module():
    got = probe(["suite", "--name", "nope"])
    assert got["code"] == 1
    assert got["adesurf"] == ["adesurf", "adesurf._json", "adesurf.cli", "adesurf.errors"]


@pytest.mark.parametrize(
    "argv",
    [
        ["spectral", "analyze", "--cover", "COVER"],
        ["suite", "--name", "paper-checks"],
    ],
    ids=["spectral-analyze", "suite"],
)
def test_runs_without_sympy(tmp_path, argv):
    cover = tmp_path / "cover.json"
    # t^4 - 10 t^2 + 1 is left to factor, and splits mod every prime
    cover.write_text('{"n": 2, "coeffs": [["1", "0", "-10", "0", "1"], []]}')
    got = probe([str(cover) if a == "COVER" else a for a in argv], block_sympy=True)
    assert got["code"] == 0
    assert "error" not in json.loads(got["stdout"])
    assert got["sympy"] == []


# the benchmark traces these by name, as strings (perfbench/tracing.py)
_TRACE_TARGETS = {"qpoly.rational_roots", "qpoly.irreducible_factors"}


def test_every_public_name_is_used_by_the_package_or_the_benchmark():
    # a public function or class that only the tests call belongs in the
    # tests' oracles, not in the package
    package = sorted(glob.glob(os.path.join(SRC, "adesurf", "*.py")))
    bench = sorted(glob.glob(os.path.join(os.path.dirname(SRC), "perfbench", "*.py")))
    defined, used = set(), set()
    for path in package + bench:
        with open(path) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
        if path in package:
            module = os.path.basename(path)[:-3]
            defined |= {
                (module, node.name)
                for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
            }
    unused = {f"{module}.{name}" for module, name in defined if name not in used}
    assert sorted(unused - _TRACE_TARGETS) == []
