import random

import pytest

from adesurf.errors import AdesurfError, BasisMismatchError, UnrelatedModelsError
from adesurf.lattice import (
    build_surface,
    change_basis,
    hirzebruch_blowup,
    p2_blowup,
    p2_presentation,
    pair,
)
from adesurf._linalg import signature_symmetric
from fractions import Fraction


def test_hirzebruch_canonical_class():
    m = hirzebruch_blowup(3)
    assert m.K.coeffs == (-2, -3, 1, 1, 1)
    assert m.labels == ("b", "f", "l1", "l2", "l3")


def test_hirzebruch_zero_blowups():
    m = hirzebruch_blowup(0)
    assert m.rank == 2
    assert m.pair(m.K, m.K) == 8


def test_p2_unblown():
    m = p2_blowup(0)
    assert m.rank == 1
    assert m.K.coeffs == (-3,)
    assert m.pair(m.K, m.K) == 9


@pytest.mark.parametrize("n", range(0, 11))
def test_gram_invariants_hirzebruch(n):
    m = hirzebruch_blowup(n)
    r = m.rank
    for i in range(r):
        for j in range(r):
            assert m.gram[i][j] == m.gram[j][i]
    assert m.pair(m.K, m.K) == 8 - n
    sig = signature_symmetric([[Fraction(v) for v in row] for row in m.gram])
    assert sig == (1, r - 1, 0)


@pytest.mark.parametrize("n", range(0, 11))
def test_gram_invariants_p2(n):
    m = p2_blowup(n)
    assert m.pair(m.K, m.K) == 9 - n
    sig = signature_symmetric([[Fraction(v) for v in row] for row in m.gram])
    assert sig == (1, m.rank - 1, 0)


def test_pair_examples():
    m = hirzebruch_blowup(3)
    l1 = m.exceptional(1)
    assert m.pair(l1, l1) == -1
    f = m.fiber_class
    assert m.pair(f, f) == 0
    assert m.pair(m.base_class, f) == 1
    p6 = p2_blowup(6)
    assert p6.pair(p6.K, p6.K) == 3


def test_pair_bilinear_symmetric_random():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(0, 8)
        m = hirzebruch_blowup(n) if rng.random() < 0.5 else p2_blowup(n)
        a = m.cls([rng.randint(-9, 9) for _ in range(m.rank)])
        b = m.cls([rng.randint(-9, 9) for _ in range(m.rank)])
        c = m.cls([rng.randint(-9, 9) for _ in range(m.rank)])
        k = rng.randint(-4, 4)
        assert m.pair(a, b) == m.pair(b, a)
        assert m.pair(a + c, b) == m.pair(a, b) + m.pair(c, b)
        assert m.pair(k * a, b) == k * m.pair(a, b)


def test_basis_mismatch_rejected():
    a = hirzebruch_blowup(2).exceptional(1)
    b = p2_blowup(2).exceptional(1)
    with pytest.raises(BasisMismatchError):
        pair(a, b)
    with pytest.raises(BasisMismatchError):
        a + b


def test_change_basis_dictionary():
    m = hirzebruch_blowup(3)
    c = p2_presentation(m)
    assert c.labels == ("h", "l0", "l1", "l2", "l3")
    f_img = change_basis(m, c, m.fiber_class)
    assert f_img.coeffs == (1, -1, 0, 0, 0)  # h - l0
    b_img = change_basis(m, c, m.base_class)
    assert b_img.coeffs == (0, 1, 0, 0, 0)  # l0
    k_img = change_basis(m, c, m.K)
    assert k_img.coeffs == c.K.coeffs  # K maps to K


@pytest.mark.parametrize("n", range(0, 8))
def test_change_basis_is_isometry(n):
    m = hirzebruch_blowup(n)
    c = p2_presentation(m)
    basis = [m.cls([int(i == j) for j in range(m.rank)]) for i in range(m.rank)]
    for x in basis:
        for y in basis:
            assert m.pair(x, y) == c.pair(change_basis(m, c, x), change_basis(m, c, y))
    # and the round trip is the identity
    for x in basis:
        back = change_basis(c, m, change_basis(m, c, x))
        assert back.coeffs == x.coeffs


def test_change_basis_unrelated_models():
    with pytest.raises(UnrelatedModelsError):
        change_basis(p2_blowup(3), hirzebruch_blowup(3), p2_blowup(3).K)


def test_build_surface_dispatch_and_bounds():
    assert build_surface("p2", 6).basis_id == "p2_blowup(6)"
    assert build_surface("hirzebruch", 2).basis_id == "hirzebruch_blowup(2)"
    with pytest.raises(AdesurfError):
        build_surface("p2", -1)
    with pytest.raises(AdesurfError):
        build_surface("p2", 65)
    for kind in ("quadric", "f1", "P2"):
        with pytest.raises(AdesurfError):
            build_surface(kind, 1)


def test_arbitrary_precision_coefficients():
    m = p2_blowup(2)
    big = 10 ** 40
    a = m.cls([big, -big, 1])
    b = m.cls([big, big, 0])
    assert m.pair(a, a) == big * big - big * big - 1
    assert m.pair(a, b) == big * big + big * big
    from adesurf.divisors import euler_char

    assert euler_char(m, a) == euler_char(m, m.K - a)  # no overflow anywhere


def _int_coeffs(classes):
    return all(type(c) is int for cls in classes for c in cls.coeffs)


def test_class_coefficients_are_ints_without_conversion():
    # LatticeClass stores what it is given; every producer must hand it ints
    from adesurf.divisors import EFFECTIVE, is_effective
    from adesurf.linesroots import enumerate_classes, enumerate_lines, enumerate_roots, weyl_orbit

    p8 = p2_blowup(8)
    datum = enumerate_roots(p8, ("K",))
    assert _int_coeffs(weyl_orbit(datum, p8.basis_class("h")))
    assert _int_coeffs(weyl_orbit(datum, p8.exceptional(1)))
    assert _int_coeffs(datum.roots + datum.simple_roots)
    hz = hirzebruch_blowup(4)
    assert _int_coeffs(enumerate_lines(hz) + enumerate_classes(hz, 0, [(hz.K, -2)]))
    assert _int_coeffs(enumerate_classes(p8, 1, [(p8.K, -3)], bound_margin=1))
    a, b = p8.K, p8.exceptional(2)
    assert _int_coeffs([a + b, a - b, -a, 3 * a, a * -2, p8.zero(), p8.cls(["2", 1.0] + [0] * 7)])
    c = p2_presentation(hz)
    assert _int_coeffs([change_basis(hz, c, hz.K), change_basis(c, hz, c.basis_class("h"))])
    res = is_effective(hz, None, -hz.K + hz.fiber_class)
    assert res.status == EFFECTIVE
    assert _int_coeffs(cls for cls, _ in res.certificate)
    assert all(type(m) is int for _, m in res.certificate)
