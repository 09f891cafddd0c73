import random

import pytest

from adesurf.bundles import (
    ADJOINT,
    FUNDAMENTAL_A,
    VECTOR_D,
    EBundleClass,
    EMarking,
    FormalBundle,
    PointEntry,
    boundary_degree,
    build_tautological,
    check_su_constraint,
    restrict_to_boundary,
    twist,
)
from adesurf.errors import (
    AdesurfError,
    BoundaryRestrictionError,
    RepresentationMismatchError,
)
from adesurf.lattice import hirzebruch_blowup, p2_blowup


def test_fundamental_bundle():
    m = hirzebruch_blowup(3)
    w = build_tautological(m, FUNDAMENTAL_A)
    assert w.rank == 3
    assert [c.coeffs for c, _ in w.summands] == [m.exceptional(i).coeffs for i in (1, 2, 3)]


def test_vector_bundle():
    m = hirzebruch_blowup(2)
    w = build_tautological(m, VECTOR_D)
    assert w.rank == 4
    got = {c.coeffs for c, _ in w.summands}
    f = m.fiber_class
    want = {
        m.exceptional(1).coeffs,
        m.exceptional(2).coeffs,
        (f - m.exceptional(1)).coeffs,
        (f - m.exceptional(2)).coeffs,
    }
    assert got == want


def test_adjoint_bundle():
    m = hirzebruch_blowup(2)
    w = build_tautological(m, ADJOINT)
    assert w.rank == 3  # (n-1) zero classes plus n(n-1) roots
    coeffs = sorted(c.coeffs for c, _ in w.summands)
    alpha = m.exceptional(1) - m.exceptional(2)
    assert coeffs == sorted([m.zero().coeffs, alpha.coeffs, (-alpha).coeffs])


def test_adjoint_rank_formula():
    for n in (1, 2, 3, 5):
        w = build_tautological(hirzebruch_blowup(n), ADJOINT)
        assert w.rank == (n - 1) + n * (n - 1)


def test_rep_mismatch():
    with pytest.raises(RepresentationMismatchError):
        build_tautological(p2_blowup(6), FUNDAMENTAL_A)
    with pytest.raises(RepresentationMismatchError):
        build_tautological(hirzebruch_blowup(2), "spinor")


def test_twist_examples():
    m = hirzebruch_blowup(3)
    w = build_tautological(m, FUNDAMENTAL_A)
    tw = twist(w, -m.base_class)
    assert [c.coeffs for c, _ in tw.summands] == [
        (m.exceptional(i) - m.base_class).coeffs for i in (1, 2, 3)
    ]
    assert twist(w, m.zero()).summands == w.summands
    v = twist(build_tautological(m, VECTOR_D), -m.base_class)
    f, b = m.fiber_class, m.base_class
    assert (f - m.exceptional(1) - b).coeffs in {c.coeffs for c, _ in v.summands}


def test_c1_twist_identity():
    rng = random.Random(9)
    for _ in range(50):
        n = rng.randint(1, 6)
        m = hirzebruch_blowup(n)
        w = build_tautological(m, rng.choice([FUNDAMENTAL_A, VECTOR_D]))
        t = m.cls([rng.randint(-3, 3) for _ in range(m.rank)])
        assert twist(w, t).c1().coeffs == (w.c1() + w.rank * t).coeffs


def test_boundary_degree_examples():
    m = hirzebruch_blowup(4)
    assert boundary_degree(m, m.exceptional(2) - m.base_class) == 0
    assert boundary_degree(m, m.exceptional(2)) == 1
    assert boundary_degree(m, m.K) == -(8 - 4)


@pytest.mark.parametrize("n", range(1, 17))
def test_twisted_bundles_restrict_flat(n):
    m = hirzebruch_blowup(n)
    for rep in (FUNDAMENTAL_A, VECTOR_D):
        plain = build_tautological(m, rep)
        assert all(boundary_degree(m, c) == 1 for c, _ in plain.summands)
        flat = twist(plain, -m.base_class)
        assert all(boundary_degree(m, c) == 0 for c, _ in flat.summands)


def test_restrict_fundamental():
    m = hirzebruch_blowup(3)
    w = twist(build_tautological(m, FUNDAMENTAL_A), -m.base_class)
    marking = EMarking(order=720, points=((1, 10), (2, 20), (3, 30)))
    e = restrict_to_boundary(w, marking)
    assert [(p.point, p.mult, p.regular) for p in e.entries] == [
        (10, 1, False),
        (20, 1, False),
        (30, 1, False),
    ]


def test_restrict_vector_is_inversion_symmetric():
    m = hirzebruch_blowup(3)
    w = twist(build_tautological(m, VECTOR_D), -m.base_class)
    marking = EMarking(order=144, points=((1, 5), (2, 17), (3, 100)))
    e = restrict_to_boundary(w, marking)
    assert e.rank == 6
    # p and -p carry the same multiplicity
    counts = {}
    for entry in e.entries:
        counts[entry.point] = counts.get(entry.point, 0) + entry.mult
    assert all(counts.get(-p % e.order, 0) == m for p, m in counts.items())
    points = {p.point for p in e.entries}
    assert points == {5, 17, 100, 139, 127, 44}


def test_restrict_refuses_nonzero_degree():
    m = hirzebruch_blowup(2)
    w = build_tautological(m, FUNDAMENTAL_A)  # untwisted: degree one
    marking = EMarking(order=720, points=((1, 1), (2, 2)))
    with pytest.raises(BoundaryRestrictionError):
        restrict_to_boundary(w, marking)


def test_restrict_collision_regular_flag():
    from adesurf.bundles import FormalBundle

    m = hirzebruch_blowup(2)
    b = m.base_class
    # one filtration block, sub-object (deeper class) first
    bundle = FormalBundle(
        model=m,
        summands=(
            (m.exceptional(2) - b, 1),
            (m.exceptional(1) - b, 1),
        ),
    )
    marking = EMarking(order=720, points=((1, 44), (2, 44)))
    e = restrict_to_boundary(bundle, marking)
    assert e.entries == (PointEntry(point=44, mult=2, regular=True),)


def test_restrict_block_needs_single_point():
    from adesurf.bundles import FormalBundle

    m = hirzebruch_blowup(2)
    b = m.base_class
    bundle = FormalBundle(
        model=m,
        summands=((m.exceptional(2) - b, 1), (m.exceptional(1) - b, 1)),
    )
    marking = EMarking(order=720, points=((1, 3), (2, 44)))
    with pytest.raises(BoundaryRestrictionError):
        restrict_to_boundary(bundle, marking)


def test_restrict_needs_a_point_for_every_line_used():
    m = hirzebruch_blowup(3)
    w = twist(build_tautological(m, FUNDAMENTAL_A), -m.base_class)
    marking = EMarking(order=720, points=((1, 10), (3, 30)))
    with pytest.raises(AdesurfError, match="^marking has no point for l2$"):
        restrict_to_boundary(w, marking)


def test_restrict_checks_degree_before_marking():
    # l_2 is unmarked and of boundary degree one: the degree check wins
    m = hirzebruch_blowup(2)
    b = m.base_class
    bundle = twist(build_tautological(m, FUNDAMENTAL_A), -b)
    bundle = FormalBundle(model=m, summands=bundle.summands + ((m.exceptional(2), 0),))
    marking = EMarking(order=720, points=((1, 10),))
    with pytest.raises(BoundaryRestrictionError, match="has boundary degree 1"):
        restrict_to_boundary(bundle, marking)


def test_plain_repeated_points_merge_without_flag():
    m = hirzebruch_blowup(2)
    w = twist(build_tautological(m, FUNDAMENTAL_A), -m.base_class)
    marking = EMarking(order=720, points=((1, 7), (2, 7)))
    e = restrict_to_boundary(w, marking)
    assert e.entries == (PointEntry(point=7, mult=2, regular=False),)


def test_su_constraint():
    assert check_su_constraint((0, 0, 0), 12)
    assert check_su_constraint((5, 7), 12)
    assert not check_su_constraint((5, 6), 12)
    with pytest.raises(AdesurfError):
        check_su_constraint((1,), 0)


def test_ebundle_canonical_order():
    a = EBundleClass(order=12, entries=(PointEntry(5, 1, False), PointEntry(3, 2, True)))
    b = EBundleClass(order=12, entries=(PointEntry(3, 2, True), PointEntry(5, 1, False)))
    assert a == b
    assert a.rank == 3
