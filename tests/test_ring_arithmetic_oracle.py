"""Integer graded-ring arithmetic against the Fraction oracle.

The package keeps ring coefficients as ints where they are integral, sums
memoised monomial normal forms, and maps to the resolution charts by the
doubled images.  Here every spanning set that ``verify_extension_chain``
and the benchmark's graded checks build is recomputed on Fractions: the
coordinate rows must agree, and the chart images of a degree-d element
must be exactly 2^d times the true ones.  Hypothesis tests then pin that
no sum, product, power or map stores a zero coefficient and that results
in a ring with relations stay reduced.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adesurf import localmodel as lm

from .oracles import fraction_reduce, fraction_spanning_terms, fraction_to_chart


def half_ring(max_degree):
    """A conifold-like ring whose relation has coefficients 1/2 and 3/2."""
    return lm.TruncRing(
        [("x", 1), ("y", 1), ("z", 1), ("s", 1)],
        [("s", 2, {(2, 0, 0, 0): "1/2", (0, 2, 0, 0): -1, (0, 0, 2, 0): Fraction(3, 2)})],
        max_degree,
    )


RINGS = {
    "base": lm.base_ring,
    "conifold": lm.conifold_ring,
    "cone": lm.cone_ring,
    "central_fiber": lm.central_fiber_ring,
    "half": half_ring,
}


def _modules(name, maxdeg):
    """The ring, and (generators, coefficient variables, skip_units) of each spanning set built on it."""
    ring = RINGS[name](maxdeg)
    x, y, z = (ring.var(v) for v in "xyz")
    s = ring.var("s") if "s" in ring.var_names else None
    xyz = lm._var_indices(ring, "xyz")
    full = tuple(range(ring.nvars))
    one = ring.const(1)
    sets = [
        ((x - y, z), full, False),  # the cone ideal; pulled back to the charts
        ((x - y, z), full, True),
        ((x - y, z), xyz, False),
        ((z, x - y), xyz, False),  # syzygy columns of (z, x - y)
        ((x - y,), full, True),
        ((one,), full, False),
        ((one,), xyz, False),
    ]
    if s is not None:
        sets += [
            ((one, s), xyz, False),
            ((x - y, z + s), full, False),
            ((x - y, z + s), xyz, False),
            ((x - y, z - s), full, True),
        ]
    return ring, sets


def _chartable(ring, terms):
    return all(not e or ring.var_names[i] in "xyz" for mon in terms for i, e in enumerate(mon))


@pytest.mark.parametrize("name", sorted(RINGS))
def test_ring_arithmetic_matches_fraction_oracle(name):
    ring, sets = _modules(name, 8)
    charted = set()
    for gens, over, skip_units in sets:
        module = lm.GradedModule(ring, gens, over)
        for d in range(9):
            fast = module.spanning_elements(d, skip_units=skip_units)
            slow_terms = fraction_spanning_terms(ring, [g.terms for g in gens], over, d, skip_units)
            slow = [lm.RingElement(ring, t, reduced=True) for t in slow_terms]
            assert lm._vectors(ring, fast, d) == lm._vectors(ring, slow, d), (gens, d)
            for el, terms in zip(fast, slow_terms):
                key = frozenset(terms.items())
                if key in charted or not _chartable(ring, terms):
                    continue
                charted.add(key)
                for chart in "AB":
                    true = fraction_to_chart(terms, ring.var_names, chart)
                    assert lm.to_chart(el, chart).terms == {k: 2**d * v for k, v in true.items()}
    assert charted


def chain_ring(max_degree):
    """Two relations, one feeding the other, so normal forms compose."""
    return lm.TruncRing(
        [("x", 1), ("y", 1), ("z", 1), ("s", 1)],
        [
            ("s", 2, {(2, 0, 0, 0): 1, (0, 2, 0, 0): -1, (0, 0, 2, 0): "1/2"}),
            ("x", 3, {(0, 3, 0, 0): Fraction(2, 3), (0, 1, 2, 0): 2}),
        ],
        max_degree,
    )


@pytest.mark.parametrize("name", sorted(RINGS) + ["chain"])
def test_normal_forms_match_fraction_oracle(name):
    ring = chain_ring(8) if name == "chain" else RINGS[name](8)
    for mon in itertools.product(range(7), repeat=ring.nvars):
        if sum(mon) <= 8:
            assert ring.reduce_terms({mon: 3}) == fraction_reduce(ring, {mon: 3}), mon


def test_half_ring_mixes_ints_and_fractions():
    ring = half_ring(6)
    x, y, z, s = (ring.var(v) for v in "xyzs")
    coeffs = set((s * s * x).terms.values())
    assert coeffs == {Fraction(1, 2), -1, Fraction(3, 2)}
    assert {type(c) for c in (x * x - y).terms.values()} == {int}


def test_integer_rings_build_no_fraction(monkeypatch):
    built = []
    original = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    xyz = ("x", "y", "z")
    up = lm.conifold_ring(8)
    x, y, z, s = (up.var(v) for v in "xyzs")
    whole = lm.GradedModule.over_full_ring(up, (up.const(1),))
    ideal = lm.GradedModule.over_full_ring(up, (x - y, z + s))
    assert lm.check_generate(up, whole, (up.const(1), s), xyz, 8).ok
    assert lm.check_generate(up, ideal, (x - y, z + s), xyz, 8).ok
    assert lm.check_free(up, (x - y, z + s), xyz, 8).ok
    assert lm.min_generator_profile(up, (x - y, z - s), 8) == [0, 2] + [0] * 7
    assert lm.to_chart(x - y, "A").terms == {(1, 2): -2}

    cone = lm.cone_ring(8)
    x, y, z = (cone.var(v) for v in "xyz")
    ideal = lm.GradedModule.over_full_ring(cone, (x - y, z))
    assert lm.check_generate(cone, ideal, (x - y, z), xyz, 8).ok
    assert lm.check_free(cone, (x - y, z), xyz, 8).ok is False
    assert lm.min_generator_profile(cone, (x - y, z), 8) == [0, 2] + [0] * 7
    for g in ideal.spanning_elements(8):
        lm.to_chart(g, "A")
        lm.to_chart(g, "B")
    assert built == []


def _elements(ring, names=None, max_exp=3):
    """Random elements of `ring` supported on the named variables (all by default)."""
    names = names or ring.var_names
    exps = [st.integers(0, max_exp) if v in names else st.just(0) for v in ring.var_names]
    coeffs = st.integers(-3, 3) | st.fractions(-2, 2, max_denominator=3)
    return st.dictionaries(st.tuples(*exps), coeffs, max_size=4).map(
        lambda terms: lm.RingElement(ring, terms)
    )


def _stores_no_zero(el):
    return all(c != 0 for c in el.terms.values())


def _naive_map(el, target, images):
    """map_to by ring operations on whole elements: sum of c * prod image^e."""
    out = target.zero()
    for mon, coeff in el.terms.items():
        term = target.const(coeff)
        for name, e in zip(el.ring.var_names, mon):
            if e:
                term = term * images[name] ** e
        out = out + term
    return out


# built once: a strategy built inside a test body dominates its run time
_RINGS8 = {name: build(8) for name, build in RINGS.items()}
_ELEMENTS = {name: _elements(ring) for name, ring in _RINGS8.items()}
_FIBER, _CONE, _BASE = lm.central_fiber_ring(8), _RINGS8["cone"], _RINGS8["base"]
_FIBER_ELEMENTS = _elements(_FIBER, max_exp=2)
_XYZ_ELEMENTS = {ring: _elements(ring, "xyz") for ring in (_CONE, _BASE)}
_LINEAR_FORMS = st.fixed_dictionaries({v: _elements(_CONE, "xyz", max_exp=1) for v in "xyzs"})


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(sorted(RINGS)), data=st.data())
def test_arithmetic_stores_no_zero_and_stays_reduced(name, data):
    ring = _RINGS8[name]
    a, b = data.draw(_ELEMENTS[name]), data.draw(_ELEMENTS[name])
    k = data.draw(st.integers(-2, 2))
    results = [a + b, a - b, a - a, a * b, a * k, k - a, a ** data.draw(st.integers(0, 3))]
    for el in results:
        assert _stores_no_zero(el)
        assert ring.reduce_terms(el.terms) == el.terms


@settings(max_examples=120, deadline=None)
@given(f=_FIBER_ELEMENTS, linear=_LINEAR_FORMS, data=st.data())
def test_maps_store_no_zero(f, linear, data):
    to_cone = {"x": _CONE.var("x"), "y": _CONE.var("y"), "z": _CONE.var("z"), "s": _CONE.zero()}
    for images in (to_cone, linear):
        img = f.map_to(_CONE, images)
        assert _stores_no_zero(img)
        assert _CONE.reduce_terms(img.terms) == img.terms
        assert img == _naive_map(f, _CONE, images)
    # the chart maps are homomorphisms on the cone, where the images satisfy
    # the relation, and on the base ring; their results are not reduced again
    for ring, elements in _XYZ_ELEMENTS.items():
        a, b = data.draw(elements), data.draw(elements)
        for chart in "AB":
            ca, cb = lm.to_chart(a, chart), lm.to_chart(b, chart)
            for el in (ca, lm.to_chart(a - b, chart), lm.to_chart(a * b, chart)):
                assert _stores_no_zero(el)
            assert lm.to_chart(a - b, chart) == ca - cb
            assert lm.to_chart(a * b, chart) == ca * cb
