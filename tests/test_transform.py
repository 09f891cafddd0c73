import random

import pytest

from adesurf.bundles import restrict_to_boundary
from adesurf.divisors import CollisionConfig
from adesurf.errors import AdesurfError, CollisionConfigError
from adesurf.lattice import hirzebruch_blowup, p2_blowup
from adesurf.transform import (
    SpectralFiberDatum,
    check_restriction_compatibility,
    fm_classlevel,
    marking_for,
    required_collisions,
    transform,
)


def test_transform_distinct_points_minus_l0():
    m = hirzebruch_blowup(3)
    datum = SpectralFiberDatum(order=720, points=(3, 5, 7))
    res = transform(m, datum, "minus_l0")
    b = m.base_class
    want = [(m.exceptional(i) - b).coeffs for i in (1, 2, 3)]
    assert [c.coeffs for c, _ in res.bundle.summands] == want
    assert res.c1_fiber == 0
    assert res.summand_boundary_degrees == (0, 0, 0)
    assert res.base_twist_degree == 0


def test_transform_collision_block():
    m = hirzebruch_blowup(2)
    datum = SpectralFiberDatum(order=720, points=(5, 5))
    res = transform(m, datum, "minus_l0", collisions=required_collisions(datum))
    b = m.base_class
    # sub-object first: l_2 - l_0 then the quotient l_1 - l_0
    assert [(c.coeffs, g) for c, g in res.bundle.summands] == [
        ((m.exceptional(2) - b).coeffs, 1),
        ((m.exceptional(1) - b).coeffs, 1),
    ]
    ((point, mult, classes),) = res.collision_blocks
    assert (point, mult) == (5, 2)
    assert classes[0].coeffs == (m.exceptional(2) - b).coeffs


def test_transform_rank_one_raw():
    m = hirzebruch_blowup(1)
    datum = SpectralFiberDatum(order=12, points=(4,))
    res = transform(m, datum, "raw")
    assert [c.coeffs for c, _ in res.bundle.summands] == [m.exceptional(1).coeffs]
    assert res.summand_boundary_degrees == (1,)
    (entry,) = res.boundary.entries
    assert (entry.point, entry.degree) == (4, 1)


def test_transform_requires_collision_config():
    m = hirzebruch_blowup(2)
    datum = SpectralFiberDatum(order=720, points=(5, 5))
    with pytest.raises(CollisionConfigError):
        transform(m, datum, "minus_l0")


def test_transform_builds_no_collision_config(monkeypatch):
    m = hirzebruch_blowup(5)
    datum = SpectralFiberDatum(order=720, points=(7, 300, 7, 7, 300))
    collisions = required_collisions(datum)
    calls = []
    post_init = CollisionConfig.__post_init__
    monkeypatch.setattr(CollisionConfig, "__post_init__", lambda self: calls.append(self) or post_init(self))
    res = transform(m, datum, "full", collisions=collisions)
    assert calls == []
    assert [(p, mult) for p, mult, _ in res.collision_blocks] == [(7, 3), (300, 2)]


def test_transform_model_checks():
    datum = SpectralFiberDatum(order=12, points=(1, 2))
    with pytest.raises(AdesurfError):
        transform(p2_blowup(2), datum, "minus_l0")
    with pytest.raises(AdesurfError):
        transform(hirzebruch_blowup(3), datum, "minus_l0")
    for mode in ("sideways", "full_p", "FULL"):
        with pytest.raises(AdesurfError):
            transform(hirzebruch_blowup(2), datum, mode)


def test_full_twist_records_base_degree():
    m = hirzebruch_blowup(2)
    datum = SpectralFiberDatum(order=12, points=(1, 2), base_twist_degree=3)
    res = transform(m, datum, "full")
    assert res.base_twist_degree == 4
    assert transform(m, datum, "minus_l0").base_twist_degree == 3


def test_fm_classlevel():
    datum = SpectralFiberDatum(order=720, points=(3, 5, 7))
    fm = fm_classlevel(datum)
    assert [(p.point, p.mult, p.regular) for p in fm.entries] == [
        (3, 1, False),
        (5, 1, False),
        (7, 1, False),
    ]
    collided = fm_classlevel(SpectralFiberDatum(order=720, points=(5, 5)))
    assert [(p.point, p.mult, p.regular) for p in collided.entries] == [(5, 2, True)]
    empty = fm_classlevel(SpectralFiberDatum(order=720, points=()))
    assert empty.entries == ()


def test_det_class_of_block_is_sum_of_lines():
    m = hirzebruch_blowup(2)
    datum = SpectralFiberDatum(order=720, points=(9, 9))
    res = transform(m, datum, "raw", collisions=required_collisions(datum))
    c1 = res.bundle.c1()
    assert c1.coeffs == (m.exceptional(1) + m.exceptional(2)).coeffs


def test_restriction_compatibility_examples():
    assert check_restriction_compatibility(
        hirzebruch_blowup(3), SpectralFiberDatum(order=720, points=(3, 5, 7))
    )
    assert check_restriction_compatibility(
        hirzebruch_blowup(2), SpectralFiberDatum(order=720, points=(5, 5))
    )
    assert check_restriction_compatibility(
        hirzebruch_blowup(0), SpectralFiberDatum(order=720, points=())
    )


def test_restriction_compatibility_randomized():
    rng = random.Random(31)
    for k in range(400):
        if k % 4 == 0:
            n = rng.randint(2, 8)
            order = rng.choice([12, 60, 720])
            p = rng.randrange(order)
            reps = rng.randint(2, min(3, n))
            points = [p] * reps + [rng.randrange(order) for _ in range(n - reps)]
        else:
            n = rng.randint(0, 8)
            order = rng.choice([12, 60, 720])
            points = [rng.randrange(order) for _ in range(n)]
        datum = SpectralFiberDatum(order=order, points=tuple(points))
        assert check_restriction_compatibility(hirzebruch_blowup(n), datum)


@pytest.mark.parametrize("n", range(0, 17))
def test_transform_rank(n):
    rng = random.Random(n)
    order = 720
    points = tuple(rng.randrange(order) for _ in range(n))
    datum = SpectralFiberDatum(order=order, points=points)
    m = hirzebruch_blowup(n)
    res = transform(m, datum, "full", collisions=required_collisions(datum))
    assert res.bundle.rank == n
    assert all(d == 0 for d in res.summand_boundary_degrees)


def test_restricted_transform_equals_fm_via_bundles_path():
    # the two sides are computed through independent code paths
    m = hirzebruch_blowup(4)
    datum = SpectralFiberDatum(order=60, points=(7, 7, 13, 42))
    res = transform(m, datum, "full", collisions=required_collisions(datum))
    lhs = restrict_to_boundary(res.bundle, marking_for(datum))
    assert lhs == fm_classlevel(datum)
