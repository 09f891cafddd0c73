"""Integer graded-ring arithmetic against the Fraction oracle.

The package keeps ring coefficients as ints where they are integral, sums
memoised monomial normal forms, and maps to the resolution charts by the
doubled images.  Here every spanning set that ``verify_extension_chain``
and the benchmark's graded checks build is recomputed on Fractions: the
coordinate rows must agree, and the chart images of a degree-d element
must be exactly 2^d times the true ones.
"""

import itertools
from fractions import Fraction

import pytest

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
                    assert lm.to_chart(el, chart) == {k: 2**d * v for k, v in true.items()}
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
    assert lm.to_chart(x - y, "A") == {(1, 2): -2}

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
