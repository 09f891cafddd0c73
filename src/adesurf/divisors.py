"""Euler characteristics, effectivity certificates, and ext profiles.

chi(O(D)) = 1 + (D*D - D*K)/2 on a rational surface; an odd D*D - D*K can
only come from a corrupted Gram matrix and is reported as such.

Effectivity is decided by peeling negative curves: the -2 curves l_j - l_i
of collided points and the lines pairing >= 0 with all of them.  If
D*E < 0, E is a fixed component of |D|, so D is effective exactly when
D - E is.  Peeling ends at D = 0 (effective), at -K*D < 0 or, in degree 8,
D*f < 0 (not effective: -K and the conic class f are nef), or at a nef
D != 0 (effective: h^0 >= chi >= 1 by Riemann-Roch).  This needs -K nef
and big; models with K*K < 1 raise EnumerationBoundError.  A certificate
lists the peeled curves, then removes each generator in turn as often as
that leaves an effective class, peeling again after each.  The generators
are the negative curves, h on the plane, f in degree 8 and -K in degree 1;
they generate the effective monoid (Batyrev-Popov).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations

from .errors import AdesurfError, BasisMismatchError, EnumerationBoundError, ParityViolationError
from .lattice import LatticeClass, SurfaceModel, dot
from .linesroots import enumerate_classes, enumerate_lines

EFFECTIVE = "effective"
NOT_EFFECTIVE = "not_effective"


@dataclass(frozen=True)
class CollisionConfig:
    """Pairs (i, j) of collided blowup points; each induces the -2 curve l_j - l_i."""

    pairs: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        pairs = tuple((int(i), int(j)) for i, j in self.pairs)
        object.__setattr__(self, "pairs", pairs)
        for i, j in pairs:
            if i == j:
                raise AdesurfError(f"collision pair ({i}, {j}) must involve two distinct points")
        # distinct irreducible -2 curves meet in 0 or 1, and l_j - l_i meets
        # l_b - l_a in [j = a] + [i = b] - [j = b] - [i = a]
        for (i, j), (a, b) in combinations(pairs, 2):
            if (meet := (j == a) + (i == b) - (j == b) - (i == a)) not in (0, 1):
                raise AdesurfError(
                    f"collision pairs {(i, j)} and {(a, b)} induce curves meeting in {meet}, "
                    "not 0 or 1"
                )
        # so each point has one successor at most; a cycle of curves sums to 0
        successor = dict(pairs)
        for start in successor:
            i = successor[start]
            while i in successor and i != start:
                i = successor[i]
            if i == start:
                raise AdesurfError(f"collision pairs {list(pairs)} form a cycle")

    def induced_curves(self, model: SurfaceModel) -> tuple[LatticeClass, ...]:
        curves = []
        for i, j in self.pairs:
            c = model.exceptional(j) - model.exceptional(i)
            if model.pair(c, c) != -2 or model.pair(c, model.K) != 0:
                raise AdesurfError(f"induced class for pair ({i}, {j}) is not a -2 curve")
            curves.append(c)
        return tuple(curves)


@dataclass(frozen=True)
class EffectivityResult:
    status: str
    certificate: tuple[tuple[LatticeClass, int], ...] | None = None
    nodes_used: int = 0

    def __bool__(self) -> bool:
        return self.status == EFFECTIVE


def euler_char(model: SurfaceModel, d: LatticeClass) -> int:
    """chi(O(D)) = 1 + (D*D - D*K)/2 on a rational surface."""
    dd = model.pair(d, d)
    dk = model.pair(d, model.K)
    if (dd - dk) % 2 != 0:
        raise ParityViolationError(
            f"D*D - D*K = {dd - dk} is odd for D = {d.coeffs}; Gram matrix is corrupt"
        )
    return 1 + (dd - dk) // 2


def _minus(a: tuple[int, ...], b: tuple[int, ...], k: int) -> tuple[int, ...]:
    return tuple(x - k * y for x, y in zip(a, b))


@cache
def _curves(model: SurfaceModel, collisions: CollisionConfig) -> tuple:
    """(negative, nef, generators) as coefficient tuples, once per configuration:
    (E, Gram*E, -E*E) per negative curve, Gram*c for each nef test class c,
    and the certificate generators."""
    degree = model.pair(model.K, model.K)
    if degree < 1:
        raise EnumerationBoundError(
            f"effectivity needs -K nef and big (K*K >= 1); {model.basis_id} has K*K = {degree}"
        )
    induced = list(collisions.induced_curves(model))
    negative = induced + [
        e for e in enumerate_lines(model) if all(model.pair(e, c) >= 0 for c in induced)
    ]
    extra = []
    if degree == 9:
        extra = [model.basis_class("h")]
    elif degree == 8:
        extra = enumerate_classes(model, 0, [(model.K, -2)])
    elif degree == 1:
        extra = [model.E]
    return (
        tuple((e.coeffs, model.pairing_row(e), -model.pair(e, e)) for e in negative),
        tuple(model.pairing_row(c) for c in [model.E] + (extra if degree == 8 else [])),
        tuple(c.coeffs for c in negative + extra),
    )


class _Peeler:
    """The peeling loop over one configuration's curves, counting its steps."""

    def __init__(self, negative, nef, generators):
        self.negative, self.nef, self.generators = negative, nef, generators
        self.steps = 0

    def peel(self, d: tuple[int, ...], terms: dict | None = None) -> tuple[bool, tuple[int, ...]]:
        """(effective, nef rest) of d.  A pass removes each negative curve E as
        often as D*E < 0 demands, counting it into terms when given; E meets
        the other curves non-negatively, so no pairing turns positive."""
        while any(d):
            if any(dot(d, w) < 0 for w in self.nef):
                return False, d
            start = d
            for e, w, s in self.negative:
                de = dot(d, w)
                if de < 0:
                    mult = -(de // s)
                    d = _minus(d, e, mult)
                    if terms is not None:
                        terms[e] = terms.get(e, 0) + mult
                    self.steps += 1
            if d == start:
                break
        return True, d

    def largest_multiple(self, d: tuple[int, ...], g: tuple[int, ...]) -> int:
        """The largest k >= 0 with d - k*g effective, by galloping search."""
        k, step = 0, 1
        while step:
            if self.peel(_minus(d, g, k + step))[0]:
                k, step = k + step, 2 * step
            else:
                step //= 2
        return k


def is_effective(
    model: SurfaceModel,
    collisions: CollisionConfig | None,
    d: LatticeClass,
) -> EffectivityResult:
    """Decide effectivity of d by negative-curve peeling, with a certificate."""
    if d.basis_id != model.basis_id:
        raise BasisMismatchError(f"class from {d.basis_id!r} given for {model.basis_id!r}")
    peeler = _Peeler(*_curves(model, collisions or CollisionConfig()))
    terms: dict[tuple[int, ...], int] = {}
    ok, rest = peeler.peel(d.coeffs, terms)
    if not ok:
        return EffectivityResult(NOT_EFFECTIVE, nodes_used=peeler.steps)
    # the rest only shrinks by effective classes, so a generator that no
    # longer fits never fits again: one pass over the generators suffices
    for g in peeler.generators:
        if not any(rest):
            break
        k = peeler.largest_multiple(rest, g)
        if k:
            terms[g] = terms.get(g, 0) + k
            _, rest = peeler.peel(_minus(rest, g, k), terms)
    if any(rest):
        raise AdesurfError(f"internal: nef class {rest} is no sum of the generators")
    cert = tuple((LatticeClass(c, model.basis_id), m) for c, m in terms.items())
    return EffectivityResult(EFFECTIVE, certificate=cert, nodes_used=peeler.steps)


@dataclass(frozen=True)
class ExtProfile:
    ext0: int
    ext1: int
    ext2: int
    index: int
    certificate: tuple[tuple[LatticeClass, int], ...] | None = None

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.ext0, self.ext1, self.ext2, self.index)


def ext_profile(
    model: SurfaceModel,
    collisions: CollisionConfig | None,
    l1: LatticeClass,
    l2: LatticeClass,
) -> ExtProfile:
    """Ext groups between O(l1) and O(l2) in the degeneration regime.

    Ext^2 vanishes on a rational surface; the index is deformation
    invariant and equals chi(O(l2 - l1)); h^0 of the difference is 0 or 1
    and is decided by the effectivity certificate.
    """
    diff = l2 - l1
    index = euler_char(model, diff)
    eff = is_effective(model, collisions, diff)
    ext0 = 1 if eff else 0
    ext2 = 0
    ext1 = ext0 + ext2 - index
    if ext1 < 0:
        raise AdesurfError(
            f"negative Ext^1 = {ext1}: classes ({l1.coeffs}, {l2.coeffs}) "
            "are outside the supported degeneration regime"
        )
    return ExtProfile(ext0, ext1, ext2, index, certificate=eff.certificate)
