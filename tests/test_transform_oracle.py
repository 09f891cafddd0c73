"""The class-level transform and the boundary restriction against their first versions.

``tests.oracles.two_pass_transform`` and ``blockwise_restrict_to_boundary``
are the two functions as the package first wrote them.  Every input here
must give equal results field by field, or the same exception type and
message, on both sides.
"""

import random
from dataclasses import fields

from hypothesis import given, settings
from hypothesis import strategies as st

from adesurf.bundles import EMarking, FormalBundle, restrict_to_boundary
from adesurf.divisors import CollisionConfig
from adesurf.errors import AdesurfError
from adesurf.lattice import hirzebruch_blowup
from adesurf.transform import (
    SpectralFiberDatum,
    TransformResult,
    check_restriction_compatibility,
    marking_for,
    required_collisions,
    transform,
)

from .oracles import blockwise_restrict_to_boundary, two_pass_transform

TWISTS = ("raw", "minus_l0", "full")


def outcome(fn, *args, **kwargs):
    try:
        return "ok", fn(*args, **kwargs)
    except AdesurfError as exc:
        return "error", type(exc), str(exc)


def assert_same_transform(got, want):
    assert got[0] == want[0]
    if got[0] == "ok":
        for f in fields(TransformResult):
            assert getattr(got[1], f.name) == getattr(want[1], f.name), f.name
    else:
        assert got == want


def assert_same_restriction(bundle, marking):
    assert outcome(restrict_to_boundary, bundle, marking) == outcome(
        blockwise_restrict_to_boundary, bundle, marking
    )


def collision_variants(datum, rng):
    """None, the forced pairs, a superset of them and the forced pairs minus one."""
    forced = required_collisions(datum).pairs
    chain = [(a, a + 1) for a in range(1, datum.n)]
    extra = [p for p in chain if p not in forced and rng.random() < 0.5]
    variants = [None, CollisionConfig(forced), CollisionConfig(tuple(sorted(forced + tuple(extra))))]
    if forced:
        drop = rng.randrange(len(forced))
        variants.append(CollisionConfig(forced[:drop] + forced[drop + 1 :]))
    return variants


def partial_marking(datum, rng):
    """The transform's marking with some l_i left out."""
    kept = tuple((i, p) for i, p in marking_for(datum).points if rng.random() < 0.7)
    return EMarking(order=datum.order, points=kept)


def compare_datum(datum, rng):
    model = hirzebruch_blowup(datum.n)
    for twist in TWISTS:
        for collisions in collision_variants(datum, rng):
            got = outcome(transform, model, datum, twist, collisions=collisions)
            assert_same_transform(got, outcome(two_pass_transform, model, datum, twist, collisions=collisions))
            if got[0] == "ok":
                assert_same_restriction(got[1].bundle, marking_for(datum))
                assert_same_restriction(got[1].bundle, partial_marking(datum, rng))


def suite_data(trials=1000):
    """The data of ``suite.check_transform_compat``, in its order."""
    rng = random.Random(20151023)
    for k in range(trials):
        order = rng.choice([12, 30, 144, 720])
        if k % 8 == 0:
            n = rng.randint(2, 7)
            p = rng.randrange(order)
            reps = rng.randint(2, min(3, n))
            points = [p] * reps + [rng.randrange(order) for _ in range(n - reps)]
        else:
            n = rng.randint(0, 7)
            points = [rng.randrange(order) for _ in range(n)]
        yield SpectralFiberDatum(order=order, points=tuple(points))


def test_suite_data_match_the_oracle():
    rng = random.Random(7)
    for datum in suite_data():
        compare_datum(datum, rng)
        assert check_restriction_compatibility(hirzebruch_blowup(datum.n), datum)


@st.composite
def data(draw):
    """n = 0..8 sheets in blocks of multiplicity 1..4, over Z/N with N = 2..720."""
    order = draw(st.integers(2, 720))
    points = []
    while len(points) < 8 and draw(st.booleans()):
        mult = draw(st.integers(1, min(4, 8 - len(points))))
        points += [draw(st.integers(0, order - 1))] * mult
    return SpectralFiberDatum(order=order, points=tuple(points), base_twist_degree=draw(st.integers(-2, 2)))


@settings(max_examples=300, deadline=None)
@given(datum=data(), seed=st.integers(0, 2**16))
def test_random_data_match_the_oracle(datum, seed):
    compare_datum(datum, random.Random(seed))


@st.composite
def bundles_and_markings(draw):
    """Hand-built bundles: interleaved and split blocks, stray degrees, partial markings."""
    n = draw(st.integers(1, 6))
    m = hirzebruch_blowup(n)
    b, f = m.base_class, m.fiber_class
    ls = [m.exceptional(i) for i in range(1, n + 1)]
    # flat pieces l_i - b, f - l_i - b, l_j - l_i, and the degree-one l_i
    pieces = [l - b for l in ls] + [f - l - b for l in ls] + [x - y for x in ls for y in ls] + ls
    summands = []
    for _ in range(draw(st.integers(0, 6))):
        cls = m.zero()
        for _ in range(draw(st.integers(1, 2))):
            cls = cls + draw(st.sampled_from(pieces))
        summands.append((cls, draw(st.integers(0, 3))))
    order = draw(st.integers(2, 720))
    marked = draw(st.lists(st.integers(1, n), unique=True))
    marking = EMarking(order=order, points=tuple((i, draw(st.integers(0, order - 1))) for i in marked))
    return FormalBundle(model=m, summands=tuple(summands)), marking


@settings(max_examples=400, deadline=None)
@given(case=bundles_and_markings())
def test_hand_built_bundles_match_the_oracle(case):
    assert_same_restriction(*case)


def test_interleaved_blocks_keep_the_block_order():
    # block 1 (summands 0 and 2) splits; block 2 between them has an unmarked l_3
    m = hirzebruch_blowup(3)
    b = m.base_class
    bundle = FormalBundle(
        model=m,
        summands=((m.exceptional(1) - b, 1), (m.exceptional(3) - b, 2), (m.exceptional(2) - b, 1)),
    )
    marking = EMarking(order=720, points=((1, 5), (2, 9)))
    got = outcome(restrict_to_boundary, bundle, marking)
    assert got[2].startswith("filtration block restricts to several distinct points")
    assert got == outcome(blockwise_restrict_to_boundary, bundle, marking)
