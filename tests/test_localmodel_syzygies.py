"""The central-fiber checks against the per-degree routes.

``_kernel_syzygy_checks`` checks sigma_1 = (z, x + y) and sigma_2 =
(x - y, -z) once, counts the syzygies of (z, x - y) in each degree up to 2
by rank and nullity, and reads every higher degree off free bases over
C[y, z].  ``tests/oracles.py`` keeps the block that runs every degree up
to maxdeg, and the route that finds every syzygy of every degree from a
nullspace and maps each to both charts; the reports must agree with both
field by field, on failing rings too.  Work-count guards pin that the
chart maps, the eliminations and the ring bases no longer grow with
maxdeg.
"""

import dataclasses

import pytest

from adesurf import localmodel as lm

from .oracles import nullspace_kernel_syzygy_checks, per_degree_kernel_syzygy_checks

MAXDEGS = [*range(17), 40]


def _fields(report):
    """Every field of a report, with the checks in the order they were recorded."""
    out = dataclasses.asdict(report)
    out["checks"] = list(report.checks.items())
    return out


def _oracle_report(monkeypatch, oracle, maxdeg):
    """verify_extension_chain(maxdeg) with the central-fiber block replaced by `oracle`."""
    with monkeypatch.context() as m:
        m.setattr(lm, "_kernel_syzygy_checks", oracle)
        return lm.verify_extension_chain(maxdeg)


@pytest.mark.parametrize("maxdeg", MAXDEGS)
def test_verify_extension_chain_matches_nullspace_route(monkeypatch, maxdeg):
    fast = lm.verify_extension_chain(maxdeg)
    slow = _oracle_report(monkeypatch, nullspace_kernel_syzygy_checks, maxdeg)
    assert _fields(fast) == _fields(slow)
    if maxdeg >= 1:
        assert fast.checks["syzygy_count_matches_kernel"]
        assert fast.checks["kernel_principal_on_charts"]


@pytest.mark.parametrize("maxdeg", MAXDEGS)
def test_verify_extension_chain_matches_per_degree_block(monkeypatch, maxdeg):
    fast = lm.verify_extension_chain(maxdeg)
    assert _fields(fast) == _fields(_oracle_report(monkeypatch, per_degree_kernel_syzygy_checks, maxdeg))
    assert fast.ok == (maxdeg >= 1)  # at maxdeg 0 "1 alone fails in degree 1" cannot be seen


def _cone():
    cone = lm.cone_ring(8)
    x, y, z = (cone.var(v) for v in "xyz")
    return cone, x, y, z


def test_generators_are_chart_proportional_syzygies():
    cone, x, y, z = _cone()
    lam = lm._CHART_RING.var("lambda")
    for h, g in ((z, x + y), (x - y, -z)):
        assert (h * z + g * (x - y)).is_zero()
        assert lm.to_chart(h, "A") == lam * lm.to_chart(g, "A")
        assert lm.to_chart(g, "B") == lam * lm.to_chart(h, "B")


def test_syzygy_rank_reaches_the_count_only_with_both_generators():
    cone, x, y, z = _cone()
    ideal = lm.GradedModule.over_full_ring(cone, (x - y, z))
    sigmas = ((z, x + y), (x - y, -z))
    for d in range(1, 9):
        count = 2 * len(cone.basis(d - 1)) - lm.rank(lm._vectors(cone, ideal.spanning_elements(d), d))
        assert lm._syzygy_rank(cone, sigmas, d) == count
        # sigma_1 alone, or with a multiple of itself, falls short from degree 2 on
        assert lm._syzygy_rank(cone, sigmas[:1], d) < count or d == 1
        assert lm._syzygy_rank(cone, (sigmas[0], (z * z, z * (x + y))), d) < count or d == 1


def test_wrong_chart_images_fail_the_principal_check(monkeypatch):
    monkeypatch.setitem(lm._CHART_IMAGES, "B", lm._chart_images(1))
    for maxdeg in (4, 8):
        report = lm.verify_extension_chain(maxdeg)
        assert not report.checks["kernel_principal_on_charts"]
        assert ("kernel_principal_on_charts", 2) in report.failures
        # a failure up to degree 2 runs every degree, as the per-degree block does
        assert ("kernel_principal_on_charts", maxdeg) in report.failures
        oracle = _oracle_report(monkeypatch, per_degree_kernel_syzygy_checks, maxdeg)
        assert _fields(report) == _fields(oracle)


@pytest.mark.parametrize("maxdeg", range(2, 13))
def test_chart_maps_do_not_grow_with_maxdeg(monkeypatch, maxdeg):
    calls = {"to_chart": 0, "nullspace": 0}
    to_chart, nullspace = lm.to_chart, lm.nullspace

    def counting_to_chart(*args):
        calls["to_chart"] += 1
        return to_chart(*args)

    def counting_nullspace(*args):
        calls["nullspace"] += 1
        return nullspace(*args)

    monkeypatch.setattr(lm, "to_chart", counting_to_chart)
    monkeypatch.setattr(lm, "nullspace", counting_nullspace)
    assert lm.verify_extension_chain(maxdeg).ok
    # sigma_1 and sigma_2 on two charts, and the line's two generators on two charts
    assert calls["to_chart"] == 2 * 2 * 2 + 2 * 2
    assert calls["nullspace"] <= min(maxdeg, 2) + 1


def test_ring_bases_do_not_grow_with_maxdeg(monkeypatch):
    basis = lm.TruncRing.basis
    tops = []
    for maxdeg in (3, 8, 1000):
        degrees = []

        def counting_basis(ring, d):
            degrees.append(d)
            return basis(ring, d)

        with monkeypatch.context() as m:
            m.setattr(lm.TruncRing, "basis", counting_basis)
            assert lm.verify_extension_chain(maxdeg).ok
        tops.append(max(degrees))
    assert tops == [2, 2, 2]


def test_dims_above_degree_two_are_the_free_closed_forms():
    maxdeg = 1000
    dims = lm.verify_extension_chain(maxdeg).dims
    degrees = range(1, maxdeg + 1)
    assert dims["fiber_module"] == [0] + [4 * d - 2 for d in degrees]
    assert dims["image"] == dims["ideal"] == [0] + [2 * d for d in degrees]
    assert dims["kernel"] == [0] + [2 * d - 2 for d in degrees]
