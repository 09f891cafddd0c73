import dataclasses
import random
from fractions import Fraction

import pytest

from adesurf.errors import AdesurfError, RingConstructionError
from adesurf.localmodel import (
    GradedModule,
    RingElement,
    TruncRing,
    base_ring,
    central_fiber_ring,
    check_free,
    check_generate,
    cone_ring,
    conifold_ring,
    exceptional_degree,
    min_generator_profile,
    pulled_back_ideal_generator,
    singular_locus_rank,
    to_chart,
    verify_extension_chain,
)

from .oracles import dense_rank, dense_rows, per_degree_kernel_syzygy_checks


def test_conifold_graded_dims():
    r = conifold_ring(8)
    assert r.graded_dim(0) == 1
    assert r.graded_dim(1) == 4
    assert r.graded_dim(2) == 9  # ten degree-2 monomials minus one relation
    # closed form: s-exponent 0 or 1
    for d in range(0, 9):
        free_part = (d + 2) * (d + 1) // 2
        s_part = (d + 1) * d // 2
        assert r.graded_dim(d) == free_part + s_part


def test_graded_dim_range_check():
    r = conifold_ring(4)
    with pytest.raises(AdesurfError):
        r.graded_dim(5)
    with pytest.raises(AdesurfError):
        r.graded_dim(-1)


def test_relation_validation():
    with pytest.raises(RingConstructionError):
        # right side contains the rewritten variable
        TruncRing([("x", 1)], [("x", 2, {(2,): 1})])
    with pytest.raises(RingConstructionError):
        # inhomogeneous relation
        TruncRing([("x", 1), ("y", 1)], [("x", 2, {(0, 1): 1})])
    with pytest.raises(RingConstructionError):
        # substitution cycle
        TruncRing(
            [("x", 1), ("y", 1)],
            [("x", 2, {(0, 2): 1}), ("y", 2, {(2, 0): 1})],
        )
    with pytest.raises(RingConstructionError):
        TruncRing([("x", 0)], [])


@pytest.mark.parametrize("var", [-1, "q", 5])
def test_relation_of_an_unknown_variable_is_refused(var):
    # -1 once indexed y from the end and rewrote y^2; "q" and 5 raised
    # ValueError and IndexError
    with pytest.raises(RingConstructionError, match="no variable"):
        TruncRing([("x", 1), ("y", 1)], [(var, 2, {})])


def test_normal_form_confluence_randomized():
    ring = TruncRing(
        [("x", 1), ("y", 1), ("z", 1), ("s", 1)],
        [
            ("s", 2, {(2, 0, 0, 0): 1, (0, 2, 0, 0): -1, (0, 0, 2, 0): 1}),
            ("x", 3, {(0, 3, 0, 0): 1, (0, 1, 2, 0): 2}),
        ],
        max_degree=12,
    )
    rng = random.Random(17)
    for _ in range(300):
        mono = tuple(rng.randint(0, 3) for _ in range(4))
        coeff = Fraction(rng.randint(-5, 5) or 1)
        reference = ring.reduce_terms({mono: coeff})
        shuffled = ring.reduce_terms({mono: coeff}, rng=rng)
        assert reference == shuffled


def test_graded_dim_stable_under_truncation_raise():
    small = conifold_ring(4)
    large = conifold_ring(12)
    for d in range(5):
        assert small.graded_dim(d) == large.graded_dim(d)


def test_element_arithmetic_and_normal_form():
    r = conifold_ring(6)
    x, y, z, s = (r.var(v) for v in "xyzs")
    assert (s * s).terms == (x * x - y * y + z * z).terms
    assert (s * s * s).terms == (s * (x * x - y * y + z * z)).terms
    assert ((x + y) * (x - y)).terms == (x * x - y * y).terms
    assert (x - x).is_zero()
    assert (2 * x).terms == (x + x).terms


def test_check_generate_pushforward():
    r = conifold_ring(8)
    s = r.var("s")
    whole = GradedModule.over_full_ring(r, (r.const(1),))
    res = check_generate(r, whole, (r.const(1), s), ("x", "y", "z"), 8)
    assert res.ok
    res1 = check_generate(r, whole, (r.const(1),), ("x", "y", "z"), 8)
    assert not res1.ok and res1.first_failure_degree == 1


def test_check_generate_ideal():
    r = conifold_ring(8)
    x, y, z, s = (r.var(v) for v in "xyzs")
    ideal = GradedModule.over_full_ring(r, (x - y, z + s))
    res = check_generate(r, ideal, (x - y, z + s), ("x", "y", "z"), 8)
    assert res.ok


def test_check_free():
    r = conifold_ring(8)
    x, y, z, s = (r.var(v) for v in "xyzs")
    assert check_free(r, (x - y, z + s), ("x", "y", "z"), 8).ok
    assert check_free(r, (r.const(1), s), ("x", "y", "z"), 8).ok
    dup = check_free(r, (x, x), ("x", "y", "z"), 4)
    assert not dup.ok and dup.first_failure_degree == 1


@pytest.mark.parametrize("over", [(7,), (-1,), ("q",), ("x", 4)])
def test_module_queries_refuse_unknown_variables(over):
    r = conifold_ring(4)
    x, y = r.var("x"), r.var("y")
    whole = GradedModule.over_full_ring(r, (r.const(1),))
    name = repr(over[-1])
    with pytest.raises(AdesurfError, match=f"no variable {name}"):
        check_free(r, (x - y,), over, 4)
    with pytest.raises(AdesurfError, match=f"no variable {name}"):
        check_generate(r, whole, (r.const(1),), over, 4)


def test_var_refuses_unknown_names():
    with pytest.raises(AdesurfError, match="no variable 'q'"):
        conifold_ring(4).var("q")


def test_min_generators_weil_vs_cartier():
    r = conifold_ring(8)
    x, y, z, s = (r.var(v) for v in "xyzs")
    # graded Nakayama: the number of generators at the origin is the sum of the profile
    assert sum(min_generator_profile(r, (x - y, z - s), 8)) == 2
    assert sum(min_generator_profile(r, (x - y,), 8)) == 1
    free = base_ring(6)
    assert sum(min_generator_profile(free, (free.var("x"),), 6)) == 1


def test_min_generator_profile_concentrated_in_degree_one():
    r = conifold_ring(8)
    x, y, z, s = (r.var(v) for v in "xyzs")
    assert min_generator_profile(r, (x - y, z - s), 8) == [0, 2] + [0] * 7
    assert min_generator_profile(r, (x - y,), 8) == [0, 1] + [0] * 7


def test_truncation_warning_fires_near_bound():
    # the warning looks for a generator in the top two degrees, or for none
    # at all: maxdeg 0 holds no generator, and the degree-1 generators fall
    # in that window at maxdeg 1 and 2
    for maxdeg in range(9):
        assert verify_extension_chain(maxdeg).truncation_warning is (maxdeg <= 2), maxdeg
    # at maxdeg 2 the degree-2 generator of (x*y,) sits in the top window
    free = base_ring(4)
    fx, fy = free.var("x"), free.var("y")
    profile = min_generator_profile(free, (fx * fy,), 2)
    assert profile == [0, 0, 1]  # a contribution right at the bound


def test_singular_locus_rank_examples():
    free = TruncRing([("x", 1), ("y", 1), ("z", 1), ("s", 1)], (), 6)
    x, y, z, s = (free.var(v) for v in "xyzs")
    rel = s * s - x * x + y * y - z * z
    assert singular_locus_rank([rel], (0, 0, 0, 0)) == 0
    assert singular_locus_rank([rel], (1, 0, 0, 1)) == 1
    uv = TruncRing([("u", 1), ("v", 2)], (), 6)
    quad = uv.var("u") ** 2 + uv.var("v")
    assert singular_locus_rank([quad], (0, 0)) == 1


def test_substitution_homomorphism():
    fiber = central_fiber_ring(6)
    cone = cone_ring(6)
    images = {v: cone.var(v) for v in "xyz"}
    images["s"] = cone.zero()
    fx, fs = fiber.var("x"), fiber.var("s")
    assert (fx * fx).map_to(cone, images).terms == (cone.var("y") ** 2 - cone.var("z") ** 2).terms
    assert (fs * fx).map_to(cone, images).is_zero()


def test_chart_maps_kill_surface_relation():
    b = base_ring(4)
    x, y, z = (b.var(v) for v in "xyz")
    rel = x * x - y * y + z * z
    assert to_chart(rel, "A").terms == {}
    assert to_chart(rel, "B").terms == {}


def test_chart_map_refuses_unknown_chart_and_variable():
    b = base_ring(4)
    x, y = b.var("x"), b.var("y")
    with pytest.raises(AdesurfError, match="'C'"):
        to_chart(x - y, "C")
    up = conifold_ring(4)
    with pytest.raises(AdesurfError, match="'s'"):
        to_chart(up.var("x") + up.var("s"), "A")
    assert to_chart(up.var("x") - up.var("y"), "A").terms == {(1, 2): -2}


def test_map_to_missing_image_names_the_variable():
    fiber, cone = central_fiber_ring(4), cone_ring(4)
    images = {v: cone.var(v) for v in "xyz"}
    with pytest.raises(AdesurfError, match="'s'"):
        (fiber.var("x") * fiber.var("s")).map_to(cone, images)
    images["s"] = base_ring(4).zero()
    with pytest.raises(AdesurfError, match="different rings"):
        fiber.var("s").map_to(cone, images)
    # a variable that no term uses needs no image
    del images["s"]
    assert (fiber.var("x") ** 2).map_to(cone, images) == cone.var("y") ** 2 - cone.var("z") ** 2


def test_chart_degrees():
    # exceptional curve self-intersection and the two line degrees
    assert exceptional_degree({(1, 0): Fraction(1)}, {(1, 0): Fraction(1)}) == -2
    assert exceptional_degree({(0, 1): Fraction(1)}, {(0, 0): Fraction(1)}) == 1
    b = base_ring(4)
    x, y, z = (b.var(v) for v in "xyz")
    ga = pulled_back_ideal_generator((x - y, z), "A")
    gb = pulled_back_ideal_generator((x - y, z), "B")
    assert exceptional_degree(ga, gb) == -1


def test_chart_degree_matches_lattice_pairing():
    # the same numbers from the Picard lattice of a blown-up model
    from adesurf.divisors import CollisionConfig
    from adesurf.lattice import hirzebruch_blowup

    m = hirzebruch_blowup(2)
    (c,) = CollisionConfig(((1, 2),)).induced_curves(m)
    l1, l2 = m.exceptional(1), m.exceptional(2)
    assert m.pair(l1, c) == 1
    assert m.pair(l2, c) == -1
    assert m.pair(c, c) == -2
    assert m.pair(l1 + l2, c) == 0


def test_verify_extension_chain():
    report = verify_extension_chain(6)
    assert report.ok, report.failures
    assert report.min_generators == {"universal_divisor": 2, "cartier_sum": 1}
    assert report.split_direct_sum == (-1, 1)
    assert report.split_pushforward == (0, 0)
    # dimension bookkeeping is additive in every degree
    for d in range(7):
        assert (
            report.dims["fiber_module"][d]
            == report.dims["image"][d] + report.dims["kernel"][d]
        )
        assert report.dims["image"][d] == report.dims["ideal"][d]


def test_kernel_checks_fail_when_a_relation_is_lost(monkeypatch):
    # the explicit kernel comes from the relations among the images; with
    # one relation dropped its rank falls short of dim F_2 - dim image
    from adesurf import localmodel

    nullspace = localmodel.nullspace
    monkeypatch.setattr(localmodel, "nullspace", lambda *a: nullspace(*a)[1:])
    report = verify_extension_chain(4)
    failed = {name for name, _ in report.failures}
    assert {"dimension_additivity", "kernel_dimension"} <= failed
    assert not report.checks["dimension_additivity"]
    assert not report.checks["kernel_dimension"]
    # the failure in degrees <= 2 sends every degree through the per-degree block
    assert ("kernel_dimension", 4) in report.failures
    monkeypatch.setattr(localmodel, "_kernel_syzygy_checks", per_degree_kernel_syzygy_checks)
    assert dataclasses.asdict(verify_extension_chain(4)) == dataclasses.asdict(report)


def test_graded_dim_against_exhaustive_reduction():
    # independent oracle: reduce *every* raw monomial of degree d and rank them
    import itertools

    from adesurf.localmodel import _vectors

    rng = random.Random(23)
    for _ in range(20):
        nv = rng.randint(2, 3)
        names = [("abc"[i], 1) for i in range(nv)]
        power = rng.randint(2, 3)
        # relation: first variable^power = random combination of the others
        rhs = {}
        for mono in itertools.product(range(power + 1), repeat=nv - 1):
            if sum(mono) == power and rng.random() < 0.7:
                rhs[(0,) + mono] = rng.randint(-2, 2)
        rhs = {m: c for m, c in rhs.items() if c}
        ring = TruncRing(names, [(0, power, rhs)], max_degree=6)
        for d in range(5):
            raw = [
                m
                for m in itertools.product(range(d + 1), repeat=nv)
                if sum(m) == d
            ]
            elements = [RingElement(ring, {m: Fraction(1)}) for m in raw]
            vecs = _vectors(ring, elements, d)
            from adesurf._linalg import rank

            assert (rank(vecs) if vecs else 0) == ring.graded_dim(d)


def test_weighted_cover_local_ring():
    # the double-point local ring of a cover: t of weight two, t = s^2
    ring = TruncRing([("t", 2), ("s", 1)], [("t", 1, {(0, 2): 1})], max_degree=8)
    t, s = ring.var("t"), ring.var("s")
    assert (t - s * s).is_zero()
    for d in range(9):
        assert ring.graded_dim(d) == 1  # only s^d survives elimination
    assert (t ** 3).terms == (s ** 6).terms


def test_relation_consistency_in_products():
    r = conifold_ring(8)
    x, y, z, s = (r.var(v) for v in "xyzs")
    rel = s * s - (x * x - y * y + z * z)
    assert rel.is_zero()
    for extra in (x, y * z, s, x * s):
        assert (rel * extra).is_zero()


def test_module_dims_stable():
    def module_dim(ring, deg):
        # dense oracle rank of the spanning elements' coordinates over the basis
        x, y, z, s = (ring.var(v) for v in "xyzs")
        index = {m: i for i, m in enumerate(ring.basis(deg))}
        module = GradedModule(ring, (x - y, z + s), (0, 1, 2))
        rows = [{index[m]: c for m, c in el.terms.items()} for el in module.spanning_elements(deg)]
        return dense_rank(dense_rows(rows, len(index)))

    for deg in range(5):
        assert module_dim(conifold_ring(5), deg) == module_dim(conifold_ring(10), deg)
