"""The central-fiber syzygy checks from two generators against the per-degree route.

``_kernel_syzygy_checks`` checks sigma_1 = (z, x + y) and sigma_2 =
(x - y, -z) once and counts the syzygies of (z, x - y) in each degree by
rank and nullity.  ``tests/oracles.py`` keeps the route that finds every
syzygy of every degree from a nullspace and maps each to both charts; the
two reports must agree field by field.  A work-count guard pins that the
chart maps no longer grow with maxdeg.
"""

import dataclasses

import pytest

from adesurf import localmodel as lm

from .oracles import nullspace_kernel_syzygy_checks


def _fields(report):
    """Every field of a report, with the checks in the order they were recorded."""
    out = dataclasses.asdict(report)
    out["checks"] = list(report.checks.items())
    return out


@pytest.mark.parametrize("maxdeg", range(13))
def test_verify_extension_chain_matches_nullspace_route(monkeypatch, maxdeg):
    fast = lm.verify_extension_chain(maxdeg)
    with monkeypatch.context() as m:
        m.setattr(lm, "_kernel_syzygy_checks", nullspace_kernel_syzygy_checks)
        slow = lm.verify_extension_chain(maxdeg)
    assert _fields(fast) == _fields(slow)
    if maxdeg >= 1:
        assert fast.checks["syzygy_count_matches_kernel"]
        assert fast.checks["kernel_principal_on_charts"]


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
    report = lm.verify_extension_chain(4)
    assert not report.checks["kernel_principal_on_charts"]
    assert ("kernel_principal_on_charts", 2) in report.failures


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
    assert calls["nullspace"] <= maxdeg + 1
