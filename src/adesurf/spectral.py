"""Spectral covers of a one-parameter base: branch loci and family bookkeeping.

A cover is a monic polynomial F(t, u) = u^n + c_{n-1}(t) u^{n-1} + ... +
c_0(t) with exact rational coefficient polynomials.  Its discriminant is
the resultant of F and dF/du with respect to u, computed exactly over
Z[t] after clearing the denominators of F once; a zero discriminant
means the cover is globally non-reduced and is rejected.
Branch points are reported as exact rational roots, with the nonrational
part of the discriminant listed as irreducible factors rather than as
floating approximations.

The conic-bundle family of the D-type construction is tracked through
sen_delta: a quadric y^2 = b2 u^2 + 2 b4 uv + b6 v^2 degenerates over
Delta = b2*b6 - b4^2, and with the standard fiber-degree data (the
anticanonical degree 2 of a P^1 fiber and degree k for the twisting
bundle) the induced cover has degree 4k + 8 over the base.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul

from ._linalg import exact, rank
from .errors import AdesurfError, DegreeDataError, NonReducedCoverError
from .lattice import KIND_HIRZEBRUCH, LatticeClass, SurfaceModel
from .qpoly import (
    QPoly,
    factor_multiplicities,
    linear_roots,
    squarefree_int,
    u_derivative,
    u_resultant_prs,
    u_resultant_sylvester,
)


@dataclass(frozen=True)
class CoverPoly:
    """Monic degree-n cover of the base: u^n + sum_k coeffs[k](t) u^k."""

    n: int
    coeffs: tuple[QPoly, ...]

    def __post_init__(self):
        if self.n < 1:
            raise AdesurfError("cover degree must be at least 1")
        if len(self.coeffs) != self.n:
            raise AdesurfError(
                f"need {self.n} coefficient polynomials below the monic leading term, "
                f"got {len(self.coeffs)}"
            )

    def as_upoly(self) -> list[QPoly]:
        return list(self.coeffs) + [QPoly.one()]


def discriminant(cover: CoverPoly, method: str = "prs") -> QPoly:
    """Resultant of (F, dF/du) with respect to u; zero is a non-reduced cover.

    `method` picks the subresultant PRS ("prs") or the Sylvester
    determinant ("sylvester"); both give the same polynomial.  Both run
    over Z[t] on D*F, D the lcm of the denominators of F's coefficients:
    Res_u(D*F, D*dF/du) = D^(2n-1) Res_u(F, dF/du), and that quotient,
    which builds one Fraction per coefficient that is not integral, is
    the only division by D.  An integer cover has D = 1.
    """
    polys = cover.as_upoly()
    den = lcm(*(c.denominator for p in polys for c in p.coeffs))
    f = [[c.numerator * (den // c.denominator) for c in p.coeffs] for p in polys]
    df = u_derivative(f)
    if method == "sylvester":
        res = u_resultant_sylvester(f, df)
    elif method == "prs":
        res = u_resultant_prs(f, df)
    else:
        raise AdesurfError(f"unknown resultant method {method!r}")
    if not res:
        raise NonReducedCoverError("discriminant vanishes identically: non-reduced cover")
    scale = den ** (2 * cover.n - 1)
    return QPoly(tuple(c // scale if c % scale == 0 else Fraction(c, scale) for c in res))


def fiber_profile(cover: CoverPoly, t0) -> tuple[int, ...]:
    """Root-multiplicity partition of F(t0, u), descending.

    Multiplicity structure over the complex numbers is read off from the
    squarefree decomposition over Q: a squarefree factor of degree d at
    multiplicity m contributes d parts equal to m.  At t0 = p/q the work
    runs on q^D F(p/q, u), D the largest t-degree of a coefficient, which
    has integer coefficients when the cover does.
    """
    t0 = exact(t0)
    p, q = t0.numerator, t0.denominator
    polys = cover.as_upoly()
    top = max(c.degree for c in polys)
    weights = [p**j * q ** (top - j) for j in range(top + 1)]
    f = QPoly(tuple(sum(map(mul, c.coeffs, weights)) for c in polys)).primitive_int()
    parts: list[int] = []
    for g, mult in squarefree_int(list(f)):
        parts.extend([mult] * (len(g) - 1))
    if sum(parts) != cover.n:
        raise AdesurfError("squarefree decomposition lost degree; arithmetic bug")
    return tuple(sorted(parts, reverse=True))


@dataclass(frozen=True)
class BranchReport:
    discriminant: QPoly
    branch_points: tuple[Fraction, ...]
    branch_multiplicities: tuple[int, ...]
    ramification_profile: tuple[tuple[Fraction, tuple[int, ...]], ...]
    nonrational_factors: tuple[QPoly, ...]


def branch_report(cover: CoverPoly) -> BranchReport:
    """Discriminant, exact rational branch points, and ramification profiles."""
    disc = discriminant(cover)
    factors = factor_multiplicities(disc)
    roots = linear_roots(factors)
    points = tuple(r for r, _ in roots)
    mults = tuple(m for _, m in roots)
    profile = tuple((r, fiber_profile(cover, r)) for r, _ in roots)
    nonrational = tuple(f for f, _ in factors if f.degree >= 2)
    return BranchReport(
        discriminant=disc,
        branch_points=points,
        branch_multiplicities=mults,
        ramification_profile=profile,
        nonrational_factors=nonrational,
    )


@dataclass(frozen=True)
class SenFamily:
    b2: QPoly
    b4: QPoly
    b6: QPoly
    delta: QPoly
    fiber_degree_delta: int
    cover_degree: int
    degenerate: bool


def sen_delta(b2: QPoly, b4: QPoly, b6: QPoly, degree_data) -> SenFamily:
    """Delta = b2*b6 - b4^2 for the conic family, with degree bookkeeping.

    `degree_data` maps "d_L" (required) and "d_K" (default 2) to the
    fiber degrees of the inverse twisting bundle and of the inverse
    canonical bundle of the P^1-fibration (2 for an honest P^1 fiber).
    The b coefficients then have fiber degrees (2 d_K, d_K + d_L, 2 d_L).
    """
    if "d_L" not in degree_data:
        raise DegreeDataError("degree data missing field 'd_L'")
    d_k = int(degree_data.get("d_K", 2))
    d_l = int(degree_data["d_L"])
    if d_k < 0 or d_l < 0:
        raise DegreeDataError("fiber degrees must be non-negative")
    delta = b2 * b6 - b4 * b4
    fiber_degree = 2 * d_k + 2 * d_l
    # the double cover doubles the fiber degree of Delta
    cover_degree = 2 * fiber_degree
    return SenFamily(
        b2=b2,
        b4=b4,
        b6=b6,
        delta=delta,
        fiber_degree_delta=fiber_degree,
        cover_degree=cover_degree,
        degenerate=delta.is_zero(),
    )


@dataclass(frozen=True)
class FiberPicardDecomposition:
    """Root block plus the boundary/section/fiber block of a surface fiber."""

    root_block: tuple[LatticeClass, ...]
    boundary: LatticeClass
    section: LatticeClass
    fiber: LatticeClass

    @property
    def root_rank(self) -> int:
        return len(self.root_block)


def fiber_picard(model: SurfaceModel) -> FiberPicardDecomposition:
    """The non-mixing decomposition of a Hirzebruch fiber's lattice.

    Verifies against the Gram matrix that the root block is orthogonal to
    the boundary, section and fiber classes, and that all blocks together
    span the lattice over Q.
    """
    if model.kind != KIND_HIRZEBRUCH:
        raise AdesurfError("fiber decomposition is defined for Hirzebruch models")
    simple = tuple(
        model.exceptional(i) - model.exceptional(i + 1) for i in range(1, model.n)
    )
    e, b, f = model.E, model.base_class, model.fiber_class
    for alpha in simple:
        for other in (e, b, f):
            if model.pair(alpha, other) != 0:
                raise AdesurfError("root block fails orthogonality: Gram matrix corrupt")
    if rank([c.coeffs for c in simple + (e, b, f)]) != model.rank:
        raise AdesurfError("decomposition does not span the lattice")
    return FiberPicardDecomposition(root_block=simple, boundary=e, section=b, fiber=f)
