"""The graded checks' degree bound against the full-degree loops.

``check_generate`` stops at the degree ``_generation_bound`` proves
sufficient, ``min_generator_profile`` eliminates only in degrees that
hold a generator, and ``check_free`` skips its loop when one rank over the
coefficient subring proves freeness.  All three must answer exactly as
the loops in ``tests/oracles.py``, which eliminate in every degree up to
maxdeg.  ``_spanning_counts``, the Hilbert function of the free module
over the polynomial part of the coefficient subring, must equal the ring's
dimensions and the module's ranks wherever that rank settles freeness.
"""

import itertools
import sys
import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from adesurf import localmodel as lm

from .oracles import check_free_by_degree, full_check_generate, full_min_generator_profile, recursive_basis

MAXDEG = 10


def _monomials(weights, variables, degree):
    """Exponent tuples of the given degree supported on `variables`."""
    out = []
    for exps in itertools.product(*(range(degree // weights[v] + 1) for v in variables)):
        if sum(e * weights[v] for e, v in zip(exps, variables)) == degree:
            mon = [0] * len(weights)
            for e, v in zip(exps, variables):
                mon[v] = e
            out.append(tuple(mon))
    return out


@st.composite
def rings(draw):
    """A TruncRing in 2-4 variables of weight 1 or 2; some variables rewritten, caps 0-3.

    A relation of variable v uses only variables after v, which keeps the
    relations free of cycles; the last rewritten variable may be nilpotent.
    """
    n = draw(st.integers(2, 4))
    weights = draw(st.lists(st.integers(1, 2), min_size=n, max_size=n))
    relations = []
    for v in range(n):
        if not draw(st.booleans()):
            continue
        power = draw(st.integers(1, 4))
        mons = _monomials(weights, range(v + 1, n), power * weights[v])
        picked = draw(st.lists(st.sampled_from(mons), max_size=3, unique=True)) if mons else []
        rhs = {m: draw(st.integers(-2, 2).filter(bool)) for m in picked}
        relations.append((v, power, rhs))
    names = [(f"v{i}", w) for i, w in enumerate(weights)]
    return lm.TruncRing(names, relations, MAXDEG)


def _element(draw, ring, degrees):
    """A nonzero homogeneous element of a degree drawn from `degrees`, or None if none has one."""
    degrees = [d for d in degrees if ring.basis(d)]
    if not degrees:
        return None
    basis = ring.basis(draw(st.sampled_from(degrees)))
    mons = draw(st.lists(st.sampled_from(basis), min_size=1, max_size=3, unique=True))
    return lm.RingElement(ring, {m: draw(st.integers(-3, 3).filter(bool)) for m in mons}, reduced=True)


def _elements(draw, ring, degrees, max_size):
    els = [_element(draw, ring, degrees) for _ in range(draw(st.integers(1, max_size)))]
    return [e for e in els if e is not None]


def _target_generators(ring, gens, extra):
    """g * m for each target generator g and normal-form monomial m in `extra` of exponents <= 2, by degree."""
    ranges = [
        range(min(ring.relations[v].power, 3) if v in ring.relations else 3) for v in extra
    ]
    out = []
    for exps in itertools.product(*ranges):
        mon = [0] * ring.nvars
        for e, v in zip(exps, extra):
            mon[v] = e
        m = lm.RingElement(ring, {tuple(mon): 1}, reduced=True)
        out += [m * g for g in gens]
    return sorted((h for h in out if not h.is_zero()), key=lambda h: h.degree)


@st.composite
def generation_problems(draw):
    """(ring, target, candidate generators, candidate variables).

    The candidate's variables either keep every uncapped target variable,
    so that the bound often applies, or are any subset.  The candidate is
    random elements, the target's generators g * m over those variables,
    or the same less the one of top degree, which fails first at the
    bound when that generator is not in the span of the others.
    """
    ring = draw(rings())
    n = ring.nvars
    s_t = sorted(draw(st.sets(st.integers(0, n - 1))))
    if draw(st.booleans()):
        kept = [v for v in s_t if v in ring.relations and draw(st.booleans())]
        s_c = sorted(set(s_t) - set(kept))
    else:
        s_c = sorted(draw(st.sets(st.integers(0, n - 1))))
    gens = _elements(draw, ring, range(3), 2)
    target = lm.GradedModule(ring, tuple(gens), tuple(s_t))
    mode = draw(st.sampled_from(["random", "all", "drop_top"]))
    if mode == "random":
        cand = _elements(draw, ring, range(4), 3)
    else:
        extra = [v for v in s_t if v not in s_c]
        cand = _target_generators(ring, gens, extra)
        if mode == "drop_top":
            cand = cand[:-1]
    return ring, target, tuple(cand), tuple(s_c)


@settings(max_examples=150, deadline=None)
@given(generation_problems())
def test_check_generate_matches_full_loop(problem):
    ring, target, cand, over = problem
    full = full_check_generate(ring, target, cand, over, MAXDEG)
    first = full.first_failure_degree
    for maxdeg in range(MAXDEG + 1):
        # the full loop at maxdeg stops where the one at MAXDEG first fails
        want = full if first is not None and first <= maxdeg else lm.DegreeCheck(True, None)
        assert lm.check_generate(ring, target, cand, over, maxdeg) == want, maxdeg


@st.composite
def ideals(draw):
    ring = draw(rings())
    return ring, _elements(draw, ring, range(4), 3)


@settings(max_examples=100, deadline=None)
@given(ideals())
def test_min_generator_profile_matches_full_loop(problem):
    ring, gens = problem
    full = full_min_generator_profile(ring, gens, MAXDEG)
    for maxdeg in range(MAXDEG + 1):
        assert lm.min_generator_profile(ring, gens, maxdeg) == full[: maxdeg + 1]


def test_generation_fails_first_at_the_bound():
    # C[x, y, s]/(s^3 = x^3): the target is the ring, over C[x, y] its
    # generators are 1, s, s^2, and the bound is a = 2
    ring = lm.TruncRing([("x", 1), ("y", 1), ("s", 1)], [("s", 3, {(3, 0, 0): 1})], MAXDEG)
    s = ring.var("s")
    whole = lm.GradedModule.over_full_ring(ring, (ring.const(1),))
    candidate = lm.GradedModule(ring, (ring.const(1), s), (0, 1))
    assert lm._generation_bound(ring, whole, candidate) == 2
    got = lm.check_generate(ring, whole, (ring.const(1), s), ("x", "y"), MAXDEG)
    assert got == full_check_generate(ring, whole, (ring.const(1), s), ("x", "y"), MAXDEG)
    assert got == lm.DegreeCheck(False, 2)
    assert lm.check_generate(ring, whole, (ring.const(1), s, s * s), ("x", "y"), MAXDEG).ok


def test_generation_bound_conditions():
    ring = lm.conifold_ring(8)
    x, y, z, s = (ring.var(v) for v in "xyzs")
    whole = lm.GradedModule.over_full_ring(ring, (ring.const(1),))

    def bound(target, over):
        return lm._generation_bound(ring, target, lm.GradedModule(ring, (ring.const(1), s), over))

    assert bound(whole, (0, 1, 2)) == 1
    # y is not rewritten, so its powers are not capped over C[x, z]
    assert bound(whole, (0, 2)) is None
    # the candidate's s is rewritten into x, y, z outside its variables
    assert bound(lm.GradedModule(ring, (ring.const(1),), (3,)), (3,)) is None
    # the candidate has a variable the target lacks
    assert bound(lm.GradedModule(ring, (ring.const(1),), (0, 1)), (0, 1, 2)) is None


def _degrees_eliminated(monkeypatch, fn, *args):
    """Run fn(*args) and return its result and the degrees ``_vectors`` was called with."""
    degrees = []
    vectors = lm._vectors

    def counting(ring, elements, d):
        degrees.append(d)
        return vectors(ring, elements, d)

    with monkeypatch.context() as m:
        m.setattr(lm, "_vectors", counting)
        return fn(*args), degrees


def test_pruned_degrees(monkeypatch):
    ring = lm.conifold_ring(12)
    x, y, z, s = (ring.var(v) for v in "xyzs")
    xyz = ("x", "y", "z")
    whole = lm.GradedModule.over_full_ring(ring, (ring.const(1),))
    ideal = lm.GradedModule.over_full_ring(ring, (x - y, z + s))

    got, degrees = _degrees_eliminated(
        monkeypatch, lm.check_generate, ring, whole, (ring.const(1), s), xyz, 12
    )
    assert got.ok and max(degrees) <= 1
    got, degrees = _degrees_eliminated(
        monkeypatch, lm.check_generate, ring, ideal, (x - y, z + s), xyz, 12
    )
    assert got.ok and max(degrees) <= 2
    got, degrees = _degrees_eliminated(
        monkeypatch, lm.min_generator_profile, ring, (x - y, z - s), 12
    )
    assert got == [0, 2] + [0] * 11
    assert set(degrees) == {1}


def _weighted_ring():
    return lm.TruncRing(
        [("u", 1), ("v", 2), ("w", 1), ("t", 3)],
        [("v", 3, {(6, 0, 0, 0): 1, (0, 0, 3, 1): -2}), ("w", 2, {(2, 0, 0, 0): 1})],
        10,
    )


def _free_rings():
    """The four built-in rings and one weighted ring with a cube relation."""
    return [
        lm.conifold_ring(6), lm.cone_ring(6), lm.central_fiber_ring(6), lm.base_ring(6),
        _weighted_ring(),
    ]


@st.composite
def freeness_problems(draw):
    """(ring, 1-3 homogeneous generators of degree 0-2, non-empty coefficient variables, maxdeg 0-6)."""
    ring = draw(st.sampled_from(_free_rings()))
    gens = _elements(draw, ring, range(3), 3)
    over = tuple(sorted(draw(st.sets(st.integers(0, ring.nvars - 1), min_size=1))))
    return ring, gens, over, draw(st.integers(0, 6))


@settings(max_examples=200, deadline=None)
@given(freeness_problems())
def test_check_free_matches_full_loop(problem):
    ring, gens, over, maxdeg = problem
    assert lm.check_free(ring, gens, over, maxdeg) == check_free_by_degree(ring, gens, over, maxdeg)


def test_freeness_certificate_decides(monkeypatch):
    xyz = ("x", "y", "z")
    for ring in (lm.conifold_ring(12), lm.central_fiber_ring(12)):
        x, y, z, s = (ring.var(v) for v in "xyzs")
        got, degrees = _degrees_eliminated(monkeypatch, lm.check_free, ring, (x - y, z + s), xyz, 12)
        assert got.ok and degrees == []
    # on the cone, a domain, z * (x - y) - (x - y) * z = 0 is a relation in
    # degree 2: the certificate falls short and the loop finds that degree
    cone = lm.cone_ring(12)
    x, y, z = (cone.var(v) for v in "xyz")
    got, degrees = _degrees_eliminated(monkeypatch, lm.check_free, cone, (x - y, z), xyz, 12)
    assert got == lm.DegreeCheck(False, 2) and degrees == [0, 1, 2]
    # s alone is free in degree 1, but s * s = 0: the certificate must count
    # the multiples of s by the capped s, not just s itself
    fiber = lm.central_fiber_ring(12)
    s = fiber.var("s")
    want = check_free_by_degree(fiber, (s,), "xyzs", 12)
    assert want == lm.DegreeCheck(False, 2)
    assert lm.check_free(fiber, (s,), "xyzs", 12) == want


def test_freeness_certificate_work_stops_at_the_top_capped_degree(monkeypatch):
    # over x, y, z on the central fiber only x is capped (x^2 is rewritten),
    # so the certificate multiplies by 1 and x whatever maxdeg is
    fiber = lm.central_fiber_ring(8)
    x, y, z, s = (fiber.var(v) for v in "xyzs")
    subring_monomials = lm.TruncRing.subring_monomials
    for maxdeg in (8, 1000):
        degrees = []

        def counting(ring, coeff_vars, d):
            degrees.append(d)
            return subring_monomials(ring, coeff_vars, d)

        with monkeypatch.context() as m:
            m.setattr(lm.TruncRing, "subring_monomials", counting)
            assert lm.check_free(fiber, (x - y, z + s), "xyz", maxdeg).ok
        assert degrees == [0, 1, 0, 1]


def test_min_generator_profile_reads_generator_degrees_once(monkeypatch):
    ring = lm.conifold_ring(8)
    x, y, z, s = (ring.var(v) for v in "xyzs")
    degree = lm.RingElement.degree
    reads = []

    def counting(el):
        reads.append(el)
        return degree.fget(el)

    monkeypatch.setattr(lm.RingElement, "degree", property(counting))
    counts = []
    for maxdeg in (8, 10**4):
        reads.clear()
        profile = lm.min_generator_profile(ring, (x - y, z - s), maxdeg)
        assert profile == [0, 2] + [0] * (maxdeg - 1)
        counts.append(len(reads))
    assert counts[0] == counts[1]


@st.composite
def modules(draw):
    """A module over a random ring: 0-2 homogeneous generators of degree 0-2 over any coefficient variables."""
    ring = draw(rings())
    gens = _elements(draw, ring, range(3), 2)
    over = tuple(sorted(draw(st.sets(st.integers(0, ring.nvars - 1)))))
    return lm.GradedModule(ring, tuple(gens), over)


@settings(max_examples=100, deadline=None)
@given(modules())
def test_spanning_counts_are_dimensions_where_the_certificate_settles(module):
    ring = module.ring
    # the ring is the module on 1 over every variable, and the certificate settles it
    whole = lm.GradedModule.over_full_ring(ring, (ring.const(1),))
    assert lm._free_certificate(ring, whole, MAXDEG)
    assert lm._spanning_counts(ring, whole, MAXDEG) == [ring.graded_dim(d) for d in range(MAXDEG + 1)]
    counts = lm._spanning_counts(ring, module, MAXDEG)
    settled = lm._free_certificate(ring, module, MAXDEG)
    for d in range(MAXDEG + 1):
        span = module.spanning_elements(d)
        assert counts[d] == len(span)
        if settled:
            assert counts[d] == lm.rank(lm._vectors(ring, span, d))


def test_spanning_counts_of_the_fiber_sequence():
    # F_2 over x, y, z on the central fiber: free over C[y, z] on g and x g;
    # the ideal (x - y, z) over y, z on the cone: free on its generators
    fiber, cone = lm.central_fiber_ring(50), lm.cone_ring(50)
    x, y, z, s = (fiber.var(v) for v in "xyzs")
    f2 = lm.GradedModule(fiber, (x - y, z + s), (0, 1, 2))
    cx, cy, cz = (cone.var(v) for v in "xyz")
    ideal = lm.GradedModule(cone, (cx - cy, cz), (1, 2))
    assert lm._spanning_counts(fiber, f2, 50) == [0] + [4 * d - 2 for d in range(1, 51)]
    assert lm._spanning_counts(cone, ideal, 50) == [0] + [2 * d for d in range(1, 51)]
    assert lm.check_free(cone, (cx - cy, cz), "yz", 50).ok
    whole = lm.GradedModule.over_full_ring(cone, (cx - cy, cz))
    assert lm.check_generate(cone, whole, (cx - cy, cz), "yz", 50).ok


def test_basis_matches_recursion():
    rings = [
        lm.base_ring(10), lm.conifold_ring(10), lm.cone_ring(10), lm.central_fiber_ring(10),
        _weighted_ring(),
    ]
    for ring in rings:
        subsets = [()] + [tuple(c) for k in (1, 2, 3) for c in itertools.combinations(range(ring.nvars), k)]
        for d in range(11):
            want = recursive_basis(ring, d)
            assert ring.basis(d) == want
            for sub in subsets:
                assert ring.subring_monomials(sub, d) == [
                    m for m in want if all(e == 0 or i in sub for i, e in enumerate(m))
                ]


def _cone_shaped(max_degree):
    """A ring of the cone's shape, degrees (1, 1, 1) and x capped at 1, with another relation."""
    return lm.TruncRing([("a", 1), ("b", 1), ("c", 1)], [("a", 2, {(0, 1, 1): 3})], max_degree)


def test_rings_of_one_shape_share_their_basis():
    cone, other = lm.cone_ring(4), _cone_shaped(9)
    for d in range(10):
        assert cone.basis(d) is other.basis(d)
    # the normal forms follow each ring's own relation
    assert cone.normal_form((2, 0, 0)) == {(0, 2, 0): 1, (0, 0, 2): -1}
    assert other.normal_form((2, 0, 0)) == {(0, 1, 1): 3}
    assert cone.reduce_terms({(3, 1, 0): 1}) != other.reduce_terms({(3, 1, 0): 1})


def test_rings_of_other_shapes_do_not():
    cone = lm.cone_ring(8)
    others = [
        lm.base_ring(8),  # x uncapped
        lm.TruncRing([("x", 1), ("y", 1), ("z", 1)], [("x", 3, {})], 8),  # x capped at 2
        lm.TruncRing([("x", 1), ("y", 2), ("z", 1)], [("x", 2, {(0, 0, 2): 1})], 8),  # y of degree 2
    ]
    for ring in others:
        for d in range(2, 9):
            assert ring.basis(d) != cone.basis(d)
            assert ring.basis(d) == recursive_basis(ring, d)


def _twin(ring, max_degree):
    """A ring of the same shape as `ring`: each rewritten variable nilpotent of the same power."""
    names = list(zip(ring.var_names, ring.var_degrees))
    return lm.TruncRing(names, [(v, rel.power, {}) for v, rel in ring.relations.items()], max_degree)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_shared_bases_match_recursion_in_any_order(data):
    # rings built and queried in a drawn order, some sharing a shape with
    # rings of earlier examples in this process
    originals = data.draw(st.lists(rings(), min_size=1, max_size=4))
    built = originals + [_twin(r, data.draw(st.integers(0, MAXDEG))) for r in originals]
    order = data.draw(st.permutations(range(len(built))))
    degrees = data.draw(st.permutations(range(MAXDEG + 1)))
    for i in order:
        for d in degrees:
            assert built[i].basis(d) == recursive_basis(built[i], d)
    for ring, twin in zip(originals, built[len(originals):]):
        for d in degrees:
            assert twin.basis(d) is ring.basis(d)


def test_shared_bases_under_racing_threads():
    # more threads than cores, switching often, each building its own rings
    # of shapes no other test uses and asking for every degree at once
    shapes = [((1, 3, 2), ("a", 4)), ((2, 1, 3), ("b", 5)), ((3, 3, 1), ("c", 2))]
    errors = []

    def work():
        try:
            for degrees, (capped, power) in shapes:
                names = list(zip("abc", degrees))
                ring = lm.TruncRing(names, [(capped, power, {})], MAXDEG)
                for d in range(MAXDEG + 1):
                    if ring.basis(d) != recursive_basis(ring, d):
                        errors.append((degrees, d))
        except Exception as exc:  # reported below; a thread's exception is otherwise lost
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
