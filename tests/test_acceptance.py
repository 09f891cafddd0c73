"""Acceptance criteria, one test per criterion, all exact-valued.

Each criterion is defined once, as a check in ``adesurf.suite`` (the same
functions ``adesurf suite`` runs); these tests add the stated runtime
budgets, the CLI call and the brute-force oracle of criterion 1.  Each
test prints a single PASS/FAIL line (run pytest -s to see them all even
on success).
"""

import json
import time

from adesurf import suite
from adesurf.cli import run as cli_run
from adesurf.lattice import p2_blowup
from adesurf.linesroots import coefficient_bounds, enumerate_lines

from .oracles import brute_force_diag, diag_rows_for_class


def report(number: int, name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} ({name}) failed"


def timed(check, *args) -> tuple[dict, float]:
    t0 = time.time()
    result = check(*args)
    return result, time.time() - t0


def test_criterion_1_line_counts(capsys):
    t0 = time.time()
    code = cli_run(["lines", "--kind", "p2", "--n", "6"])
    ok = code == 0 and json.loads(capsys.readouterr().out)["count"] == 27

    ok &= suite.check_line_counts()["pass"]
    for n in range(1, 9):
        m = p2_blowup(n)
        bounds = coefficient_bounds(m, -1, [(m.K, -1)])
        wide = [2 * b + 1 for b in bounds]
        oracle = brute_force_diag(-1, wide, [diag_rows_for_class(m, m.K)], [-1])
        ok &= [c.coeffs for c in enumerate_lines(m)] == oracle

    elapsed = time.time() - t0
    ok &= elapsed < 10.0
    with capsys.disabled():
        report(1, f"line counts, oracle-checked, {elapsed:.1f}s", ok)


def test_criterion_2_root_data(capsys):
    result, elapsed = timed(suite.check_root_data)
    with capsys.disabled():
        report(2, f"root systems and orbits, {elapsed:.1f}s", result["pass"] and elapsed < 10.0)


def test_criterion_3_ext_index(capsys):
    result = suite.check_ext_dichotomy()
    with capsys.disabled():
        report(3, "ext profile dichotomy and index", result["pass"])


def test_criterion_4_boundary_degrees(capsys):
    result = suite.check_boundary_degrees()
    with capsys.disabled():
        report(4, "boundary degrees 0 after twist, 1 before", result["pass"])


def test_criterion_5_transform_compatibility(capsys):
    result, elapsed = timed(suite.check_transform_compat)
    detail = result["detail"]
    with capsys.disabled():
        report(
            5,
            f"transform matches fiberwise transform on {detail['trials']} data "
            f"({detail['forced_collisions']} collided), {elapsed:.1f}s",
            result["pass"] and elapsed < 30.0,
        )


def test_criterion_6_local_model_suite(capsys):
    result, elapsed = timed(suite.check_local_models, 8)
    with capsys.disabled():
        report(6, f"local-model suite at maxdeg 8, {elapsed:.1f}s", result["pass"] and elapsed < 60.0)


def test_criterion_7_spectral(capsys):
    result = suite.check_spectral()
    with capsys.disabled():
        report(7, "spectral discriminant and cover-degree bookkeeping", result["pass"])


def test_criterion_8_property_suites(capsys):
    result, elapsed = timed(suite.check_properties)
    with capsys.disabled():
        report(
            8,
            f"property suites ({result['detail']['cases_each']} cases each), {elapsed:.1f}s",
            result["pass"],
        )


def test_property_suites_fail_when_a_basis_monomial_is_lost(monkeypatch):
    # the graded-dimension check compares with a closed form, so a ring
    # basis that drops a monomial must fail it
    from adesurf.localmodel import TruncRing

    basis = TruncRing.basis
    monkeypatch.setattr(TruncRing, "basis", lambda self, d: basis(self, d)[1:])
    assert not suite.check_properties()["pass"]
