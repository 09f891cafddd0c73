import gc
import json
from collections import Counter
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import adesurf

from adesurf.errors import AdesurfError, DegreeDataError, NonReducedCoverError
from adesurf.lattice import hirzebruch_blowup, p2_blowup
from adesurf.qpoly import QPoly, _exact_quo, squarefree_int
from adesurf.spectral import (
    CoverPoly,
    branch_report,
    discriminant,
    fiber_picard,
    fiber_profile,
    sen_delta,
)

from .oracles import q_monic, sympy_factors, sympy_resultant, sympy_sqf, yun_over_q

T = QPoly.x()
ONE = QPoly.one()
ZERO = QPoly.zero()


def double_cover():
    return CoverPoly(2, (-T, ZERO))  # u^2 - t


def test_discriminant_double_cover():
    disc = discriminant(double_cover())
    assert disc(0) == 0
    assert disc(1) != 0
    assert disc.degree == 1  # 4t up to the sign convention


def test_discriminant_disjoint_sheets():
    cover = CoverPoly(2, (QPoly.const(-1), ZERO))  # u^2 - 1
    disc = discriminant(cover)
    assert disc.degree == 0 and not disc.is_zero()
    report = branch_report(cover)
    assert report.branch_points == ()


def test_discriminant_cubic():
    cover = CoverPoly(3, (2 * T, QPoly.const(-3), ZERO))  # u^3 - 3u + 2t
    disc = discriminant(cover)
    assert disc(1) == 0 and disc(-1) == 0 and disc(0) != 0


def test_discriminant_routes_agree():
    cover = CoverPoly(3, (2 * T, QPoly.const(-3), ZERO))
    a = discriminant(cover, method="sylvester")
    b = discriminant(cover, method="prs")
    assert a.coeffs == b.coeffs


def test_non_reduced_cover_rejected():
    # (u - t)^2 = u^2 - 2t u + t^2
    cover = CoverPoly(2, (T * T, -2 * T))
    with pytest.raises(NonReducedCoverError):
        discriminant(cover)


def test_fiber_profiles():
    c = double_cover()
    assert fiber_profile(c, 0) == (2,)
    assert fiber_profile(c, 1) == (1, 1)
    cubic = CoverPoly(3, (2 * T, QPoly.const(-3), ZERO))
    assert fiber_profile(cubic, 1) == (2, 1)
    assert fiber_profile(cubic, 0) == (1, 1, 1)
    # irrational simple roots still contribute 1s: u^2 - 2 at t = 1
    irr = CoverPoly(2, (QPoly.const(-2), ZERO))
    assert fiber_profile(irr, 1) == (1, 1)


def test_branch_report_profiles():
    report = branch_report(double_cover())
    assert report.branch_points == (Fraction(0),)
    assert report.ramification_profile == ((Fraction(0), (2,)),)
    assert report.nonrational_factors == ()


def test_branch_report_nonrational():
    # u^2 - (t^2 - 2)(t^2 - 3): branch where the quartic vanishes
    quartic = QPoly((Fraction(6), Fraction(0), Fraction(-5), Fraction(0), Fraction(1)))
    cover = CoverPoly(2, (-quartic, ZERO))
    report = branch_report(cover)
    assert report.branch_points == ()
    assert [f.coeffs for f in report.nonrational_factors] == [
        (Fraction(-3), Fraction(0), Fraction(1)),
        (Fraction(-2), Fraction(0), Fraction(1)),
    ]


def test_branch_consistency_profile_vs_disc():
    # every rational branch point has a repeated sheet and vice versa
    cover = CoverPoly(3, (2 * T, QPoly.const(-3), ZERO))
    report = branch_report(cover)
    disc = report.discriminant
    for t0, partition in report.ramification_profile:
        assert disc(t0) == 0
        assert max(partition) >= 2
    for t0 in (0, 2, Fraction(1, 2)):
        if disc(t0) != 0:
            assert max(fiber_profile(cover, t0)) == 1


def _cover(*coeffs):
    return CoverPoly(len(coeffs), tuple(QPoly(tuple(Fraction(c) for c in p)) for p in coeffs))


# covers u^n + ... as ascending coefficient lists of t, below the monic u^n
PROBE_COVERS = [
    ([-1, 0, 0, 0, 0, 1], []),  # u^2 - (t^5 - 1)
    ([-1, 0, 1], [0, 1], []),  # u^3 + t u + (t^2 - 1)
    ([1, 0, -10, 0, 1], []),  # u^2 + t^4 - 10 t^2 + 1
]


@pytest.mark.parametrize(
    "coeffs, points, nonrational",
    [
        (PROBE_COVERS[0], (1,), [(1, 1, 1, 1, 1)]),
        (PROBE_COVERS[1], (), [(27, 0, -54, 4, 27)]),
        (PROBE_COVERS[2], (), [(1, 0, -10, 0, 1)]),
    ],
)
def test_branch_report_probe_covers(coeffs, points, nonrational):
    report = branch_report(_cover(*coeffs))
    assert report.branch_points == tuple(Fraction(t) for t in points)
    assert [tuple(int(c) for c in f.coeffs) for f in report.nonrational_factors] == nonrational
    want = sympy_factors(report.discriminant)
    assert list(report.nonrational_factors) == [f for f, _ in want if f.degree >= 2]
    assert list(report.branch_multiplicities) == [m for f, m in want if f.degree == 1]


def _binomial():
    # u^5 - (t - 1)(t + 6)(t^2 + 1000000007)
    g = QPoly((-1, 1)) * QPoly((6, 1)) * QPoly((1000000007, 0, 1))
    return CoverPoly(5, (-g, ZERO, ZERO, ZERO, ZERO))


def test_branch_report_large_discriminant():
    # u^5 - (t - 1)(t + 6)(t^2 + 1000000007): the discriminant has degree
    # 16 and 144-bit coefficients, and what is left of it after its rational
    # roots, 5^5 (t^2 + 1000000007)^4, has 132-bit ones
    report = branch_report(_binomial())
    disc = report.discriminant
    assert max(abs(c.numerator) for c in disc.coeffs).bit_length() == 144
    assert report.branch_points == (Fraction(-6), Fraction(1))
    assert report.branch_multiplicities == (4, 4)
    assert [f.coeffs for f in report.nonrational_factors] == [(1000000007, 0, 1)]
    linear = QPoly((-1, 1)) * QPoly((6, 1))
    residual = QPoly(tuple(_exact_quo(list(disc.coeffs), list((linear * linear * linear * linear).coeffs))))
    assert max(abs(c.numerator) for c in residual.coeffs).bit_length() == 132
    assert sympy_factors(disc) == [
        (QPoly((-1, 1)), 4), (QPoly((6, 1)), 4), (QPoly((1000000007, 0, 1)), 4)
    ]
    assert [f for f, _ in sympy_factors(residual)] == list(report.nonrational_factors)


FIVE_SHEETS = [(1, 2), (3, -1), (0, 5), (-2, 1), (4, 3)]


def _five_sheets():
    # the product of u - (a + b t) over five sheets, as in the benchmark
    f = [ONE]
    for a, b in FIVE_SHEETS:
        f = [x - QPoly((a, b)) * y for x, y in zip([ZERO] + f, f + [ZERO])]
    return CoverPoly(5, tuple(f[:-1]))


@pytest.mark.parametrize("make_cover", [_five_sheets, _binomial], ids=["five-sheets", "binomial"])
@pytest.mark.parametrize("method", ["sylvester", "prs"])
def test_integer_cover_discriminant_builds_no_fraction(monkeypatch, make_cover, method):
    cover = make_cover()
    built = []
    original = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    disc = discriminant(cover, method=method)
    monkeypatch.undo()
    assert built == []
    assert {type(c) for c in disc.coeffs} == {int}


def _rational_sheets():
    # five sheets u = a + b t with a, b of denominators up to 5
    half, third = Fraction(1, 2), Fraction(1, 3)
    f = [ONE]
    for a, b in [(half, 2), (3, -third), (0, Fraction(5, 4)), (-2, 1), (Fraction(4, 5), 3 * half)]:
        f = [x - QPoly((a, b)) * y for x, y in zip([ZERO] + f, f + [ZERO])]
    return CoverPoly(5, tuple(f[:-1]))


@pytest.mark.parametrize("method", ["sylvester", "prs"])
def test_rational_cover_discriminant_builds_a_fraction_per_coefficient(monkeypatch, method):
    # the resultant runs over Z[t] on D F; only the final division by
    # D^(2n - 1) builds Fractions, one per coefficient that is not integral
    cover = _rational_sheets()
    built = []
    original = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    disc = discriminant(cover, method=method)
    monkeypatch.undo()
    assert disc.degree == 20
    assert 0 < len(built) <= disc.degree + 1
    assert len(built) == sum(type(c) is Fraction for c in disc.coeffs)


# cover coefficients: ints, integral Fractions and Fractions of denominators up to 6
_COEFF = st.one_of(st.integers(-9, 9), st.fractions(-9, 9, max_denominator=6))


@pytest.mark.parametrize("method", ["sylvester", "prs"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_discriminant_matches_sympy(method, data):
    n = data.draw(st.integers(1, 4))
    coeffs = tuple(QPoly(tuple(data.draw(st.lists(_COEFF, max_size=3)))) for _ in range(n))
    f = list(coeffs) + [ONE]
    want = sympy_resultant(f, [i * c for i, c in enumerate(f)][1:])
    if want.is_zero():
        with pytest.raises(NonReducedCoverError):
            discriminant(CoverPoly(n, coeffs), method=method)
    else:
        disc = discriminant(CoverPoly(n, coeffs), method=method)
        assert disc == want
        assert all(type(c) is int or c.denominator > 1 for c in disc.coeffs)


def test_integer_cover_fiber_profile_builds_no_fraction(monkeypatch):
    # the five sheets meet at t = 1/3, 1/2, 2/3, ..., three of them at -3: the
    # fibers there are specialised as q^D F(p/q, u) and split over Z
    cover = _five_sheets()
    points = branch_report(cover).branch_points
    assert any(t.denominator > 1 for t in points)
    built = []
    original = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    profiles = [fiber_profile(cover, t) for t in points]
    parts = squarefree_int(list(discriminant(cover).coeffs))
    monkeypatch.undo()
    assert built == []
    # the sheets through each point, grouped by their value there
    want = [tuple(sorted(Counter(a + b * t for a, b in FIVE_SHEETS).values(), reverse=True)) for t in points]
    assert profiles == want
    assert [(q_monic(QPoly(tuple(g))), k) for g, k in parts] == yun_over_q(discriminant(cover))


# a sheet u = a + b t of a cover through a chosen value at t0: sheets that
# share the value meet there
_SHEET = st.tuples(st.sampled_from((0, Fraction(1, 2), -3)), st.fractions(-4, 4, max_denominator=3))


@settings(max_examples=100, deadline=None)
@given(
    st.lists(_SHEET, min_size=1, max_size=4),
    st.lists(st.fractions(-9, 9, max_denominator=4), max_size=3),
    st.integers(-9, 9),
    st.integers(2, 7),
)
def test_fiber_profile_matches_q_route_and_sympy(sheets, quad, p, q):
    # the cover: the sheets times u^2 - c(t) with a random rational c
    t0 = Fraction(p, q)
    f = [ONE]
    for value, slope in sheets:
        root = QPoly((value - slope * t0, slope))
        f = [x - root * y for x, y in zip([ZERO] + f, f + [ZERO])]
    c = QPoly(tuple(quad))
    f = [x - c * y for x, y in zip([ZERO, ZERO] + f, f + [ZERO, ZERO])]
    cover = CoverPoly(len(f) - 1, tuple(f[:-1]))
    fiber = QPoly(tuple(coeff(t0) for coeff in f))

    def partition(parts):
        return tuple(sorted((k for g, k in parts for _ in range(g.degree)), reverse=True))

    assert fiber_profile(cover, t0) == partition(yun_over_q(fiber)) == partition(sympy_sqf(fiber))


def _python_calls(fn):
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    # finalizers of earlier tests' garbage would count too, so collect it
    # first and keep the collector off while counting
    gc.collect()
    gc.disable()
    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
        gc.enable()
    return calls


@pytest.mark.parametrize("coeffs", PROBE_COVERS)
def test_branch_report_makes_no_random_choice(coeffs):
    # a factoring step that drew random numbers would vary the call count
    cover = _cover(*coeffs)
    branch_report(cover)
    first, second = (_python_calls(lambda: branch_report(cover)) for _ in range(2))
    assert first == second


def test_spectral_analyze_independent_of_hash_seed(tmp_path):
    path = tmp_path / "cover.json"
    path.write_text(json.dumps({"n": 2, "coeffs": [["1", "0", "-10", "0", "1"], []]}))
    src = os.path.dirname(os.path.dirname(os.path.abspath(adesurf.__file__)))
    outs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
        proc = subprocess.run(
            [sys.executable, "-m", "adesurf.cli", "spectral", "analyze", "--cover", str(path)],
            env=env, capture_output=True, timeout=60, check=True,
        )
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["nonrational_factors"] == [
        {"coeffs": ["1/1", "0/1", "-10/1", "0/1", "1/1"]}
    ]


def test_sen_delta_perfect_square_degenerates():
    fam = sen_delta(ONE, T, T * T, {"d_L": 1})
    assert fam.delta.is_zero()
    assert fam.degenerate


def test_sen_delta_basic():
    fam = sen_delta(T, ONE, T, {"d_K": 1, "d_L": 1})
    assert fam.delta.coeffs == (Fraction(-1), Fraction(0), Fraction(1))
    assert not fam.degenerate


def test_sen_cover_degree_bookkeeping():
    for k in range(0, 5):
        fam = sen_delta(ONE, ONE, ONE, {"d_L": k})
        assert fam.cover_degree == 4 * k + 8


def test_sen_degree_data_validation():
    with pytest.raises(DegreeDataError):
        sen_delta(ONE, ONE, ONE, {"d_L": -1})
    with pytest.raises(DegreeDataError):
        sen_delta(ONE, ONE, ONE, {})
    with pytest.raises(DegreeDataError, match="d_L"):
        sen_delta(ONE, ONE, ONE, {"d_K": 2})


@pytest.mark.parametrize("n", range(1, 8))
def test_fiber_picard_blocks(n):
    m = hirzebruch_blowup(n)
    decomp = fiber_picard(m)
    assert decomp.root_rank == n - 1
    for alpha in decomp.root_block:
        assert m.pair(alpha, decomp.boundary) == 0
        assert m.pair(alpha, decomp.fiber) == 0
        assert m.pair(alpha, decomp.section) == 0


def test_fiber_picard_requires_hirzebruch():
    with pytest.raises(AdesurfError):
        fiber_picard(p2_blowup(3))


def test_cover_validation():
    with pytest.raises(AdesurfError):
        CoverPoly(0, ())
    with pytest.raises(AdesurfError):
        CoverPoly(2, (ZERO,))
