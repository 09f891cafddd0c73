import random
from fractions import Fraction
from functools import reduce
from math import lcm
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adesurf.qpoly import (
    QPoly,
    _derivative,
    _exact_quo,
    _gcd,
    factor_multiplicities,
    irreducible_factors,
    rational_roots,
    squarefree_int,
    u_derivative,
    u_resultant_prs,
    u_resultant_sylvester,
)

from .oracles import (
    euclid_gcd,
    q_divmod,
    q_monic,
    qpoly_of,
    sympy_factors,
    sympy_poly,
    sympy_resultant,
    sympy_sqf,
    yun_over_q,
)


def _rand_qpoly(rng, max_deg=3, span=4):
    """Integer coefficients in [-span, span], about a quarter of them divided by 2, 3 or 5."""
    return QPoly(tuple(
        Fraction(rng.randint(-span, span), rng.choice((2, 3, 5))) if rng.random() < 0.25
        else rng.randint(-span, span)
        for _ in range(rng.randint(1, max_deg + 1))
    ))


def _rand_int(rng, max_deg, span):
    """An integer polynomial in t of degree at most max_deg, as a list without trailing zeros."""
    return list(QPoly(tuple(rng.randint(-span, span) for _ in range(rng.randint(1, max_deg + 1)))).coeffs)


def _power(p, k):
    return reduce(mul, [p] * k, QPoly.one())


def _gcd_over_z(a, b):
    """The package's primitive PRS gcd of two QPolys, made monic."""
    if a.is_zero() and b.is_zero():
        return a
    return q_monic(QPoly(tuple(_gcd(list(a.primitive_int()), list(b.primitive_int())))))


def _stored_exactly(p):
    """Every integral coefficient is an int, every other one a Fraction."""
    return all(type(c) is int or (type(c) is Fraction and c.denominator != 1) for c in p.coeffs)


def test_gcd_divides_both():
    rng = random.Random(4)
    for _ in range(150):
        a, b, c = _rand_qpoly(rng), _rand_qpoly(rng), _rand_qpoly(rng, 2)
        if c.is_zero():
            continue
        g = _gcd_over_z(a * c, b * c)
        assert g == euclid_gcd(a * c, b * c)
        if g.is_zero():
            continue
        # the primitive gcd divides both primitive parts exactly over Z
        for h in (a * c, b * c):
            if not h.is_zero():
                _exact_quo(list(h.primitive_int()), list(g.primitive_int()))


def test_resultant_routes_agree_random():
    rng = random.Random(8)
    checked = 0
    for _ in range(250):
        n = rng.randint(1, 4)
        f = [_rand_int(rng, 2, 3) for _ in range(n)] + [[rng.choice((1, 2, -3))]]
        m = rng.randint(0, n)
        g = [_rand_int(rng, 2, 3) for _ in range(m)] + [[rng.randint(1, 3)]]
        assert u_resultant_sylvester(f, g) == u_resultant_prs(f, g)
        checked += 1
    assert checked == 250


def test_resultant_multiplicativity():
    # res(f*g, h) = res(f, h) * res(g, h) for monic f, g
    f = [[0, -1], [1]]          # u - t
    g = [[-2], [1]]             # u - 2
    h = [[0, 0, 1], [3], [1]]   # u^2 + 3u + t^2
    fg = [[0, 2], [-2, -1], [1]]
    for resultant in (u_resultant_sylvester, u_resultant_prs):
        lhs = QPoly(tuple(resultant(fg, h)))
        assert lhs == QPoly(tuple(resultant(f, h))) * QPoly(tuple(resultant(g, h)))


def test_resultant_detects_common_root():
    f = [[0, -1], [1]]  # u - t
    g = [[0, -2], [2]]  # 2(u - t)
    assert u_resultant_sylvester(f, g) == []
    assert u_resultant_prs(f, g) == []


def test_squarefree_decomposition():
    # 3 (t - 1)^2 (t + 2)
    assert squarefree_int([6, -9, 0, 3]) == [([2, 1], 1), ([-1, 1], 2)]


# one factor as in _FACTOR, with multiplicities up to 4 so that Yun's loop
# runs past the parts it finds
_SQF_FACTOR = st.tuples(
    st.lists(st.integers(-12, 12), min_size=1, max_size=3),
    st.integers(-6, 6).filter(bool),
    st.sampled_from((1, 2, 3, 4, 9)),
    st.integers(1, 4),
)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(_SQF_FACTOR, min_size=1, max_size=4),
    st.fractions(-40, 40, max_denominator=12).filter(bool),
)
def test_squarefree_over_z_matches_q_and_sympy(parts, content):
    p = QPoly.const(content)
    for low, lead, den, mult in parts:
        f = QPoly(tuple(Fraction(c, den) for c in low) + (Fraction(lead, den),))
        if p.degree + f.degree * mult <= 12:
            p = p * _power(f, mult)
    ints = squarefree_int(list(p.primitive_int()))
    # the integer route gives the primitive parts of the same polynomials
    assert [(q_monic(QPoly(tuple(g))), k) for g, k in ints] == yun_over_q(p) == sympy_sqf(p)
    assert all(g == list(QPoly(tuple(g)).primitive_int()) for g, _ in ints)


def test_rational_roots_with_multiplicity():
    x = QPoly.x()
    p = x * x * x * (x - QPoly.const(Fraction(1, 2))) * (x * x + QPoly.const(1))
    roots = rational_roots(p)
    assert roots == [(Fraction(0), 3), (Fraction(1, 2), 1)]


def test_irreducible_factors():
    x = QPoly.x()
    p = (x * x - QPoly.const(2)) * (x * x - QPoly.const(3))
    factors = irreducible_factors(p)
    assert [f.coeffs for f in factors] == [
        (Fraction(-3), Fraction(0), Fraction(1)),
        (Fraction(-2), Fraction(0), Fraction(1)),
    ]


# one factor: coefficients below the leading one, the leading coefficient,
# a common denominator, and a multiplicity
_FACTOR = st.tuples(
    st.lists(st.integers(-20, 20), min_size=1, max_size=4),
    st.integers(-9, 9).filter(bool),
    st.sampled_from((1, 2, 3, 5, 7)),
    st.sampled_from((1, 1, 1, 2, 3)),
)


@settings(max_examples=100, deadline=None)
@given(st.lists(_FACTOR, min_size=1, max_size=5))
def test_factoring_matches_sympy(parts):
    p = QPoly.one()
    for low, lead, den, mult in parts:
        f = QPoly(tuple(Fraction(c, den) for c in low) + (Fraction(lead, den),))
        if p.degree + f.degree * mult <= 12:
            p = p * _power(f, mult)
    want = sympy_factors(p)
    assert factor_multiplicities(p) == want
    assert irreducible_factors(p) == [f for f, _ in want]


@pytest.mark.parametrize(
    "coeffs, want",
    [
        # a constant near 10^18: no divisor search could find its roots
        ((1000000007000000049, 0, 1), [(1000000007000000049, 0, 1)]),
        # irreducible, but it splits mod every prime: every subset of the
        # modular factors is tried and refused
        ((1, 0, -10, 0, 1), [(1, 0, -10, 0, 1)]),
        # minimal polynomial of sqrt 2 + sqrt 3 + sqrt 5, the same at degree 8
        ((576, 0, -960, 0, 352, 0, -40, 0, 1), [(576, 0, -960, 0, 352, 0, -40, 0, 1)]),
        # t^12 - 1: six cyclotomic factors
        (
            (-1,) + (0,) * 11 + (1,),
            [(-1, 1), (1, 1), (1, -1, 1), (1, 0, 1), (1, 1, 1), (1, 0, -1, 0, 1)],
        ),
        # (6t^2 + 5t + 1)(10t^2 - 7t + 1): rational roots need the leading coefficient
        ((1, -2, -19, 8, 60), [(-1, 2), (-1, 5), (1, 2), (1, 3)]),
    ],
)
def test_factoring_pinned(coeffs, want):
    p = QPoly(tuple(Fraction(c) for c in coeffs))
    got = irreducible_factors(p)
    assert [tuple(int(c) for c in f.coeffs) for f in got] == want
    assert got == [f for f, _ in sympy_factors(p)]


def test_exact_div_raises_on_remainder():
    assert _exact_quo([2, 3, 1], [1, 1]) == [2, 1]
    assert _exact_quo([], [1, 1]) == []
    with pytest.raises(ArithmeticError):
        _exact_quo([1, 1], [0, 1])  # (t + 1) / t
    with pytest.raises(ArithmeticError):
        _exact_quo([1, 2], [2])  # the quotient is not over Z
    with pytest.raises(ArithmeticError):
        _exact_quo([1], [1, 1])  # the divisor has the larger degree


def test_eval_and_derivative():
    x = QPoly.x()
    p = x * x - QPoly.const(4)
    assert p(2) == 0
    assert p(Fraction(1, 2)) == Fraction(-15, 4)
    assert _derivative([-4, 0, 1]) == [0, 2]


def test_u_derivative():
    assert u_derivative([[0, -1], [], [1]]) == [[], [2]]  # u^2 - t
    assert u_derivative([[3, 1]]) == []


# coefficients mixing ints, integral Fractions such as Fraction(4, 2), and
# non-integral Fractions
_INT = st.integers(-9, 9)
_MIXED = st.one_of(_INT, _INT.map(Fraction), st.fractions(-9, 9, max_denominator=6))
_QPOLY = st.lists(_MIXED, max_size=5).map(lambda cs: QPoly(tuple(cs)))


@settings(max_examples=150, deadline=None)
@given(_QPOLY, _QPOLY, _MIXED)
def test_arithmetic_matches_sympy(a, b, x):
    sa, sb = sympy_poly(a), sympy_poly(b)
    results = [a + b, a - b, a * b, a * x]
    want = [sa + sb, sa - sb, sa * sb, sa * sympy_poly(QPoly((x,)))]
    assert results == list(map(qpoly_of, want))
    # the remainder of a by t - x is a(x)
    assert QPoly.const(a(x)) == qpoly_of(sa.rem(sympy_poly(QPoly((-x, 1)))))
    if not b.is_zero():
        gcd_ab = _gcd_over_z(a, b)
        results.append(gcd_ab)
        assert gcd_ab == euclid_gcd(a, b) == qpoly_of(sa.gcd(sb))
        # the oracle's division over Q, which the gcd oracle runs on
        assert q_divmod(a, b) == tuple(map(qpoly_of, sa.div(sb)))
        assert q_monic(b) == qpoly_of(sb.monic())
    assert all(map(_stored_exactly, results))


def _cover(draw, coeff, n):
    """A random monic polynomial of u-degree n with coefficients of t-degree at most 2."""
    return [QPoly(tuple(draw(st.lists(coeff, max_size=3)))) for _ in range(n)] + [QPoly.one()]


def _cleared(f):
    """(D*f with integer coefficients, D) for the lcm D of the denominators in f."""
    den = lcm(*(c.denominator for p in f for c in p.coeffs))
    return [[c.numerator * (den // c.denominator) for c in p.coeffs] for p in f], den


@pytest.mark.parametrize("coeff", [_INT, _MIXED], ids=["integer", "rational"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_resultants_match_sympy(coeff, data):
    # a rational cover goes in as D*f, which is an integer polynomial with
    # leading coefficient D; Res(D f, E h) = D^deg h E^deg f Res(f, h)
    f = _cover(data.draw, coeff, data.draw(st.integers(2, 4)))
    g = _cover(data.draw, coeff, data.draw(st.integers(1, 4)))
    for h in ([i * c for i, c in enumerate(f)][1:], g):
        (fz, d), (hz, e) = _cleared(f), _cleared(h)
        want = sympy_resultant(f, h) * (d ** (len(h) - 1) * e ** (len(f) - 1))
        assert u_resultant_sylvester(fz, hz) == list(want.coeffs)
        assert u_resultant_prs(fz, hz) == list(want.coeffs)


def test_integral_coefficients_are_stored_as_ints():
    p = QPoly((Fraction(4, 2), "3", 5, Fraction(1, 2), "-6/3", Fraction(0)))
    assert p.coeffs == (2, 3, 5, Fraction(1, 2), -2)
    assert [type(c) for c in p.coeffs] == [int, int, int, Fraction, int]
    # 1/2 t times 2 is t, and (t + 1/2)(t - 1/2) is t^2 - 1/4
    assert [type(c) for c in (QPoly((0, Fraction(1, 2))) * 2).coeffs] == [int, int]
    p = QPoly((Fraction(1, 2), 1)) * QPoly((Fraction(-1, 2), 1))
    assert [type(c) for c in p.coeffs] == [Fraction, int, int]
    assert type(QPoly((1, 1))(Fraction(6, 3))) is int
