"""Tautological bundles as formal sums of classes, and their boundary data.

A FormalBundle is an ordered list of (class, extension_group) pairs; group
id 0 is a plain direct summand, while summands sharing a nonzero id form
one filtration block, listed sub-object first.  Restriction to the
boundary elliptic curve is modeled group-theoretically: the curve's
degree-zero Picard group is Z/N (N configurable, default 720), the
blowup points p_i are marked as residues, and a class restricts through
the additive rule

    l_i -> p_i,   b -> 0,   f -> 0,

so l_i - l_0 lands on p_i and f - l_i - l_0 on -p_i, matching the twisted
fundamental and vector configurations.  The rule is linear: a class
restricts to its dot product with the marking row (p_i at the position of
l_i, 0 elsewhere), taken mod N, just as its boundary degree is its dot
product with Gram * E.  Only degree-zero summands restrict; callers must
twist first.

Known limitation of the finite model: a small N relative to the number of
blowup points invites torsion artifacts (distinct points colliding mod N
and spurious inversion coincidences).  The default N = 720 keeps desk
examples collision-free unless a collision is asked for.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    AdesurfError,
    BoundaryRestrictionError,
    RepresentationMismatchError,
)
from .lattice import KIND_HIRZEBRUCH, LatticeClass, SurfaceModel, dot

FUNDAMENTAL_A = "fundamental_a"
VECTOR_D = "vector_d"
ADJOINT = "adjoint"


@dataclass(frozen=True)
class PointEntry:
    point: int
    mult: int
    regular: bool
    degree: int = 0


@dataclass(frozen=True)
class EBundleClass:
    """Multiset of boundary points with multiplicities and Jordan-block flags."""

    order: int
    entries: tuple[PointEntry, ...]

    def __post_init__(self):
        object.__setattr__(
            self,
            "entries",
            tuple(sorted(self.entries, key=lambda e: (e.point, not e.regular, e.mult, e.degree))),
        )

    @property
    def rank(self) -> int:
        return sum(e.mult for e in self.entries)


@dataclass(frozen=True)
class EMarking:
    """Assignment of blowup indices to group points: i -> p_i (p_0 fixed at 0)."""

    order: int
    points: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.order <= 0:
            raise AdesurfError("group order must be positive")
        object.__setattr__(
            self,
            "points",
            tuple(sorted((int(i), int(p) % self.order) for i, p in dict(self.points).items())),
        )


@dataclass(frozen=True)
class FormalBundle:
    model: SurfaceModel
    summands: tuple[tuple[LatticeClass, int], ...]

    def __post_init__(self):
        for cls, _gid in self.summands:
            if cls.basis_id != self.model.basis_id:
                raise AdesurfError("bundle summand from a different basis")

    @property
    def rank(self) -> int:
        return len(self.summands)

    def c1(self) -> LatticeClass:
        total = self.model.zero()
        for cls, _ in self.summands:
            total = total + cls
        return total

    def blocks(self) -> list[tuple[int, list[LatticeClass]]]:
        """Filtration blocks in order of first appearance; id 0 summands are singletons."""
        out: list[tuple[int, list[LatticeClass]]] = []
        index: dict[int, int] = {}
        for cls, gid in self.summands:
            if gid == 0:
                out.append((0, [cls]))
            elif gid in index:
                out[index[gid]][1].append(cls)
            else:
                index[gid] = len(out)
                out.append((gid, [cls]))
        return out


def build_tautological(model: SurfaceModel, rep: str) -> FormalBundle:
    """The tautological bundle of the named representation on a Hirzebruch model."""
    if model.kind != KIND_HIRZEBRUCH:
        raise RepresentationMismatchError(
            f"representation {rep!r} needs a Hirzebruch model, got {model.basis_id!r}"
        )
    n = model.n
    ls = [model.exceptional(i) for i in range(1, n + 1)]
    if rep == FUNDAMENTAL_A:
        summands = [(l, 0) for l in ls]
    elif rep == VECTOR_D:
        f = model.fiber_class
        summands = [(l, 0) for l in ls] + [(f - l, 0) for l in ls]
    elif rep == ADJOINT:
        from .linesroots import enumerate_roots

        datum = enumerate_roots(model, ("K", "f", "b"))
        summands = [(model.zero(), 0)] * max(n - 1, 0)
        summands += [(r, 0) for r in datum.roots]
    else:
        raise RepresentationMismatchError(f"unknown representation {rep!r}")
    return FormalBundle(model=model, summands=tuple(summands))


def twist(bundle: FormalBundle, by: LatticeClass) -> FormalBundle:
    """Tensor by a line bundle: shift every summand class, keep the grouping."""
    return FormalBundle(
        model=bundle.model,
        summands=tuple((cls + by, gid) for cls, gid in bundle.summands),
    )


def boundary_degree(model: SurfaceModel, cls: LatticeClass) -> int:
    """Degree of the restriction to the boundary anticanonical curve: cls * E."""
    model.check_basis(cls, model.E)
    return dot(cls.coeffs, model.e_row)


def restrict_to_boundary(bundle: FormalBundle, marking: EMarking) -> EBundleClass:
    """Restrict a degree-zero bundle to the boundary curve's group model."""
    model = bundle.model
    for cls, _ in bundle.summands:
        deg = boundary_degree(model, cls)
        if deg != 0:
            raise BoundaryRestrictionError(
                f"summand {cls.coeffs} has boundary degree {deg}; twist before restricting"
            )
    # l_i -> p_i and b, f, h -> 0: one dot product with the marking row
    marked = dict(marking.points)
    row = [0] * model.rank
    unmarked: list[tuple[int, int]] = []
    for j, i in model.exceptional_positions:
        if i in marked:
            row[j] = marked[i]
        else:
            unmarked.append((j, i))
    entries: list[PointEntry] = []
    plain: dict[int, int] = {}
    for gid, classes in bundle.blocks():
        points = set()
        for cls in classes:
            for j, i in unmarked:
                if cls.coeffs[j]:
                    raise AdesurfError(f"marking has no point for l{i}")
            points.add(dot(cls.coeffs, row) % marking.order)
        if len(points) != 1:
            raise BoundaryRestrictionError(
                "filtration block restricts to several distinct points; "
                "regular representatives require a single collision point"
            )
        p = points.pop()
        if gid == 0:
            plain[p] = plain.get(p, 0) + 1
        else:
            entries.append(PointEntry(point=p, mult=len(classes), regular=True))
    entries.extend(PointEntry(point=p, mult=m, regular=False) for p, m in plain.items())
    return EBundleClass(order=marking.order, entries=tuple(entries))


def check_su_constraint(points, order: int) -> bool:
    """sum(p_i) == n * p_0 == 0 in Z/N."""
    if order <= 0:
        raise AdesurfError("group order must be positive")
    return sum(int(p) for p in points) % order == 0
