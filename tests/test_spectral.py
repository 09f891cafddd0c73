from fractions import Fraction

import pytest

from adesurf.errors import AdesurfError, DegreeDataError, NonReducedCoverError
from adesurf.lattice import hirzebruch_blowup, p2_blowup
from adesurf.qpoly import QPoly
from adesurf.spectral import (
    CoverPoly,
    branch_report,
    discriminant,
    fiber_picard,
    fiber_profile,
    sen_delta,
)

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
