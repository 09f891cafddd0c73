"""Graded-ring answers with the sparse echelon against dense Fraction elimination.

Each query runs twice: as shipped, and with every elimination in
``adesurf.localmodel`` (``rank``, ``nullspace`` and ``Echelon``) replaced by
the dense oracles.  The two runs must agree field for field.
"""

import pytest

from adesurf import localmodel as lm
from adesurf._linalg import integer_row

from .oracles import DenseEchelon, dense_nullspace, dense_rank, dense_rows


@pytest.fixture
def dense(monkeypatch):
    """Call `fn` with localmodel running on the dense oracles; count their calls."""
    calls = []

    def dense_rank_of(mat):
        calls.append("rank")
        return dense_rank(dense_rows(mat))

    def dense_nullspace_of(mat, ncols):
        calls.append("nullspace")
        return [integer_row(v) for v in dense_nullspace(dense_rows(mat, ncols))]

    class CountingEchelon(DenseEchelon):
        def extend(self, rows):
            calls.append("echelon")
            return super().extend(rows)

    def run(fn, *args):
        with monkeypatch.context() as m:
            m.setattr(lm, "rank", dense_rank_of)
            m.setattr(lm, "nullspace", dense_nullspace_of)
            m.setattr(lm, "Echelon", CountingEchelon)
            return fn(*args)

    run.calls = calls
    return run


@pytest.mark.parametrize("maxdeg", range(8))
def test_verify_extension_chain_matches_dense(dense, maxdeg):
    fast = lm.verify_extension_chain(maxdeg)
    slow = dense(lm.verify_extension_chain, maxdeg)
    assert {"rank", "nullspace", "echelon"} <= set(dense.calls)
    assert fast == slow


def _rings(maxdeg):
    up = lm.conifold_ring(maxdeg)
    cone = lm.cone_ring(maxdeg)
    fib = lm.central_fiber_ring(maxdeg)
    return {
        "conifold": (up, *(up.var(v) for v in "xyzs")),
        "cone": (cone, *(cone.var(v) for v in "xyz"), None),
        "central_fiber": (fib, *(fib.var(v) for v in "xyzs")),
    }


def _queries(name, maxdeg):
    ring, x, y, z, s = _rings(maxdeg)[name]
    xyz = ("x", "y", "z")
    second = z if s is None else z + s
    ideal = lm.GradedModule.over_full_ring(ring, (x - y, second))
    whole = lm.GradedModule.over_full_ring(ring, (ring.const(1),))
    gens_whole = (ring.const(1),) if s is None else (ring.const(1), s)
    return [
        (lm.min_generator_profile, ring, (x - y, second), maxdeg),
        (lm.min_generator_profile, ring, (x - y,), maxdeg),
        (lm.min_generator_profile, ring, (x * x - y * z, x - y, second), maxdeg),
        (lm.check_generate, ring, ideal, (x - y, second), xyz, maxdeg),
        (lm.check_generate, ring, ideal, (x - y,), xyz, maxdeg),
        (lm.check_generate, ring, whole, gens_whole, xyz, maxdeg),
        (lm.check_free, ring, (x - y, second), xyz, maxdeg),
        (lm.check_free, ring, (x - y, x * (x - y)), xyz, maxdeg),
    ]


@pytest.mark.parametrize("name", ["conifold", "cone", "central_fiber"])
def test_module_queries_match_dense(dense, name):
    for fn, *args in _queries(name, 6):
        assert fn(*args) == dense(fn, *args), (name, fn.__name__)
    assert {"rank", "echelon"} <= set(dense.calls)
