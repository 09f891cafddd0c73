"""Class-level integral transform from spectral fiber data to bundles.

A spectral fiber datum is a multiset of boundary-group points, one per
sheet of the cover.  The transform assigns the exceptional class l_i to
the i-th sheet (sheets sorted by point value for determinism) and applies
the requested twist:

* ``raw``      -- summands l_i (the untwisted universal-divisor kernel);
* ``minus_l0`` -- summands l_i - l_0, flat along the boundary curve;
* ``full``     -- same classes as minus_l0, plus base-direction
  bookkeeping for the inverse canonical twist of the base (recorded as an
  integer tag, since the base is a curve here).

Sheets sharing a point become one filtration block: the regular
representative, listed sub-object first (deepest line class first), so a
double point at l_1, l_2 yields the block (l_2, l_1).  Restricting the
transform to the boundary and transforming the datum directly along the
elliptic fibers must agree, regular flags included; that comparison is
``check_restriction_compatibility`` and both sides are computed through
independent code paths.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bundles import (
    EBundleClass,
    EMarking,
    FormalBundle,
    PointEntry,
    boundary_degree,
    restrict_to_boundary,
)
from .divisors import CollisionConfig
from .errors import AdesurfError, CollisionConfigError
from .lattice import KIND_HIRZEBRUCH, LatticeClass, SurfaceModel

TWIST_RAW = "raw"
TWIST_MINUS_L0 = "minus_l0"
TWIST_FULL = "full"

_TWIST_MODES = (TWIST_RAW, TWIST_MINUS_L0, TWIST_FULL)


@dataclass(frozen=True)
class SpectralFiberDatum:
    """Sheet markings of one fiber of a spectral cover into Z/N."""

    order: int
    points: tuple[int, ...]
    base_twist_degree: int = 0

    def __post_init__(self):
        if self.order <= 0:
            raise AdesurfError("group order must be positive")
        pts = tuple(sorted(int(p) % self.order for p in self.points))
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return len(self.points)

    def point_blocks(self) -> list[tuple[int, int]]:
        """(point, multiplicity) in ascending point order."""
        blocks: list[tuple[int, int]] = []
        for p in self.points:
            if blocks and blocks[-1][0] == p:
                blocks[-1] = (p, blocks[-1][1] + 1)
            else:
                blocks.append((p, 1))
        return blocks


@dataclass(frozen=True)
class TransformResult:
    bundle: FormalBundle
    collision_blocks: tuple[tuple[int, int, tuple[LatticeClass, ...]], ...]
    c1_fiber: int
    boundary: EBundleClass
    summand_boundary_degrees: tuple[int, ...]
    base_twist_degree: int


def required_collisions(datum: SpectralFiberDatum) -> CollisionConfig:
    """The collision configuration forced by the datum's repeated points."""
    pairs = []
    idx = 1
    for _p, mult in datum.point_blocks():
        for a in range(idx, idx + mult - 1):
            pairs.append((a, a + 1))
        idx += mult
    return CollisionConfig(tuple(pairs))


def transform(
    model: SurfaceModel,
    datum: SpectralFiberDatum,
    twist_mode: str = TWIST_FULL,
    collisions: CollisionConfig | None = None,
) -> TransformResult:
    """Turn a spectral fiber datum into a formal bundle on the surface fiber.

    One walk over the datum's point blocks builds the summands, the
    collision blocks, the boundary degrees and the boundary class.  The
    collision check reads the forced pairs straight off the sorted points
    and builds no CollisionConfig.
    """
    if twist_mode not in _TWIST_MODES:
        raise AdesurfError(f"unknown twist mode {twist_mode!r}")
    if model.kind != KIND_HIRZEBRUCH:
        raise AdesurfError("the transform acts on A-type (Hirzebruch) surface fibers")
    if model.n != datum.n:
        raise AdesurfError(f"model has {model.n} exceptional classes, datum has {datum.n} sheets")

    # the forced pairs are (a, a + 1) for equal consecutive sorted points
    have = set(collisions.pairs) if collisions is not None else set()
    pts = datum.points
    missing = [
        (a, a + 1) for a in range(1, datum.n) if pts[a - 1] == pts[a] and (a, a + 1) not in have
    ]
    if missing:
        raise CollisionConfigError(
            f"datum has collided sheets but the model configuration lacks pairs {missing}; "
            "pass required_collisions(datum)"
        )

    shift = model.zero() if twist_mode == TWIST_RAW else -model.base_class
    summands: list[tuple[LatticeClass, int]] = []
    blocks_out = []
    degs: list[int] = []
    entries = []
    top = 0
    for p, mult in datum.point_blocks():
        # sub-object first: deepest line class leads the filtration
        classes = [model.exceptional(i) + shift for i in range(top + mult, top, -1)]
        top += mult
        gid = 0
        if mult >= 2:
            blocks_out.append((p, mult, tuple(classes)))
            gid = len(blocks_out)
        for c in classes:
            summands.append((c, gid))
            degs.append(boundary_degree(model, c))
        # a block's degree is the one its summands share
        entries.append(PointEntry(point=p, mult=mult, regular=mult >= 2, degree=degs[-1]))

    base_twist = datum.base_twist_degree + (1 if twist_mode == TWIST_FULL else 0)
    return TransformResult(
        bundle=FormalBundle(model=model, summands=tuple(summands)),
        collision_blocks=tuple(blocks_out),
        c1_fiber=sum(degs),
        boundary=EBundleClass(order=datum.order, entries=tuple(entries)),
        summand_boundary_degrees=tuple(degs),
        base_twist_degree=base_twist,
    )


def fm_classlevel(datum: SpectralFiberDatum) -> EBundleClass:
    """Transform along the elliptic fibers only: points with regular flags."""
    entries = tuple(
        PointEntry(point=p, mult=m, regular=m >= 2) for p, m in datum.point_blocks()
    )
    return EBundleClass(order=datum.order, entries=entries)


def marking_for(datum: SpectralFiberDatum) -> EMarking:
    """The sheet-to-line marking used by the transform: l_i -> i-th sorted point."""
    return EMarking(
        order=datum.order,
        points=tuple((i + 1, p) for i, p in enumerate(datum.points)),
    )


def check_restriction_compatibility(model: SurfaceModel, datum: SpectralFiberDatum) -> bool:
    """Restriction of the full transform equals the fiberwise transform.

    The left side goes through transform() and restrict_to_boundary(); the
    right side is fm_classlevel() straight from the datum.  Regular flags
    must match as well.
    """
    result = transform(model, datum, TWIST_FULL, collisions=required_collisions(datum))
    restricted = restrict_to_boundary(result.bundle, marking_for(datum))
    return restricted == fm_classlevel(datum)
