"""Lines and roots on a surface model, with Weyl reflections and orbits.

Enumeration strategy.  Solutions of x*x = s with prescribed pairings
against a constraint set U live on a sphere inside an affine translate of
the orthogonal complement of U.  When that complement is negative
definite the sphere is finite, and Cauchy-Schwarz applied to the dual
basis vectors gives an explicit per-coordinate bound (computed exactly,
in integers over one common denominator, never guessed).  The box is then
swept by the kernel in ``_enumkernel``; a wider-margin sweep is what the
test oracles use.

Orthogonality sets: the A-type root system of a Hirzebruch model lives
orthogonal to {K, f, b}.  For the D-type configuration the defining
constraint set is inferred to be {K, f} (dropping b doubles the root
count to 2n(n-1) and yields the D_n diagram for n >= 4); callers choose
the set explicitly, so the inference is visible at every call site.

Positivity of roots is decided by a fixed generic functional: basis
coordinate j gets weight M^(rank-1-j), with M the smallest integer >= 2
leaving no root orthogonal to the functional.  Earlier exceptional
classes therefore count as "larger", which makes l_i - l_{i+1} the
simple roots in type A.  Simple roots are the positive roots that do not
split as a sum of two positive roots, ordered by descending functional
value.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial, gcd, isqrt, lcm
from operator import add, itemgetter, sub

from . import _enumkernel
from ._linalg import Echelon, signature_symmetric
from .errors import (
    AdesurfError,
    BasisMismatchError,
    EnumerationBoundError,
    OrbitCapExceededError,
)
from .lattice import (
    KIND_HIRZEBRUCH,
    LatticeClass,
    SurfaceModel,
    change_basis,
    dot,
    get_model,
    p2_presentation,
)


# ---------------------------------------------------------------------------
# diagonal presentation and coefficient bounds


def _diag_setup(model: SurfaceModel):
    """Return (enumeration model, to_diag) for a surface model.

    P^2 models already carry a diagonal Gram matrix.  Hirzebruch models are
    enumerated in their companion plane presentation; ``enumerate_classes``
    maps the solutions back.
    """
    if model.kind == KIND_HIRZEBRUCH:
        companion = p2_presentation(model)

        def fwd(c: LatticeClass) -> LatticeClass:
            return change_basis(model, companion, c)

        return companion, fwd
    return model, (lambda c: c)


def _sqrt_upper(num: int, den: int) -> tuple[int, int]:
    """An exact rational upper bound (p, q) for sqrt(num / den), den > 0.

    With num / den = a / b in lowest terms it is (isqrt(a * b) + 1) / b.
    """
    if num <= 0:
        return 0, 1
    g = gcd(num, den)
    a, b = num // g, den // g
    return isqrt(a * b) + 1, b


def coefficient_bounds(
    model: SurfaceModel,
    self_intersection: int,
    constraints: list[tuple[LatticeClass, int]],
) -> list[int] | None:
    """Per-coordinate box |x_i| <= B_i containing every solution.

    Works in the model's own (diagonal) coordinates; returns None when the
    linear constraints are provably unsatisfiable over Q.  Raises
    EnumerationBoundError when the residual lattice is not negative
    definite, in which case no finite box exists.
    """
    r = model.rank
    if any(model.gram[i][j] for i in range(r) for j in range(r) if i != j):
        raise AdesurfError(
            "coefficient bounds need a diagonal Gram matrix; "
            "enumerate Hirzebruch models through their plane presentation"
        )
    diag = [model.gram[i][i] for i in range(r)]

    # the targets are inconsistent exactly when the augmented rows put a
    # pivot in the target column; the constraints kept are the ones that
    # are independent of those before them
    consistency, independent = Echelon(), Echelon()
    u_vecs, u_rows, targets = [], [], []
    for u, t in constraints:
        consistency.add(u.coeffs + (t,))
        if independent.add(u.coeffs):
            u_vecs.append(u.coeffs)
            u_rows.append(model.pairing_row(u))
            targets.append(t)
    if r in consistency.rows:
        return None  # inconsistent targets: no solutions at all

    k = len(u_vecs)
    gram_u = [[dot(row, ub) for ub in u_vecs] for row in u_rows]
    if k:
        # U-perp is negative definite exactly when gram_U is nondegenerate and
        # carries all of the ambient form's positive directions.  With no
        # constraints an indefinite ambient form is refused per coordinate below.
        pos, _, zero = signature_symmetric(gram_u)
        if zero or pos != sum(1 for d in diag if d > 0):
            raise EnumerationBoundError(
                "enumeration bound exceeded: residual lattice is not negative definite"
            )
    # gram_U is nondegenerate, so [gram_U | I] reduces to [I | gram_U^-1];
    # over den, the lcm of the pivot entries, its rows are the ints inv = den * gram_U^-1
    inverse = Echelon()
    inverse.extend(row + [int(a == b) for b in range(k)] for a, row in enumerate(gram_u))
    rows = inverse.reduced()
    den = lcm(*(row[c] for c, row in rows))
    inv = [[row.get(k + b, 0) * (den // row[c]) for b in range(k)] for c, row in rows]

    # numerators over den: the norm gap q_y, and below, per coordinate, the
    # U-part x_u of a solution
    coeffs = [dot(row, targets) for row in inv]
    q_y = dot(coeffs, targets) - self_intersection * den
    if q_y < 0:
        return None  # sphere radius would be imaginary: empty

    bounds: list[int] = []
    for i in range(r):
        ui = [u[i] for u in u_vecs]
        x_u = dot(coeffs, ui)
        # -q_z is the squared norm of the U-perp part of the dual vector e_i / d_i:
        # 1/d_i - ui . gram_U^-1 . ui = (den - d_i * ui.inv.ui) / (d_i * den)
        q_z = diag[i] * dot(ui, [dot(row, ui) for row in inv]) - den
        if diag[i] < 0:
            q_z = -q_z  # keep the denominator |d_i| * den positive
        if q_z < 0:
            raise EnumerationBoundError("enumeration bound exceeded: projection not definite")
        # |x_i| <= |x_u| + sqrt(q_z * q_y) = |x_u| + p / q, rounded down
        p, q = _sqrt_upper(q_z * q_y, abs(diag[i]) * den * den)
        bounds.append((abs(x_u) * q + p * den) // (den * q))
    return bounds


def enumerate_classes(
    model: SurfaceModel,
    self_intersection: int,
    constraints: list[tuple[LatticeClass, int]],
    *,
    bound_margin: int = 0,
) -> list[LatticeClass]:
    """Complete list of classes with x*x = self_intersection and fixed pairings.

    bound_margin widens the proven box by that much per coordinate; it
    must be >= 0, since a narrower box could miss solutions.
    """
    if bound_margin < 0:
        raise AdesurfError(f"bound margin must be >= 0, got {bound_margin}")
    diag_model, fwd = _diag_setup(model)
    diag_constraints = [(fwd(u), t) for u, t in constraints]
    bounds = coefficient_bounds(diag_model, self_intersection, diag_constraints)
    if bounds is None:
        return []
    if bound_margin:
        bounds = [b + bound_margin for b in bounds]
    rows = [diag_model.pairing_row(u) for u, _ in diag_constraints]
    tgts = [t for _, t in diag_constraints]
    sols = _enumkernel.enumerate_diag(self_intersection, bounds, rows, tgts)
    if diag_model is not model:
        # the companion map of change_basis: (a_h, a_0, m..) -> (a_h + a_0) b + a_h f + m.l
        sols = [(v[0] + v[1], v[0]) + v[2:] for v in sols]
    basis = model.basis_id
    return [LatticeClass(v, basis) for v in sorted(sols)]


def enumerate_lines(
    model: SurfaceModel,
    fiber_value: int | None = None,
    *,
    bound_margin: int = 0,
) -> list[LatticeClass]:
    """All classes with x*x = x*K = -1, optionally with x*f prescribed."""
    constraints = [(model.K, -1)]
    if fiber_value is not None:
        if model.fiber_class is None:
            raise AdesurfError("fiber constraint requested on a model without a fiber class")
        constraints.append((model.fiber_class, fiber_value))
    return enumerate_classes(model, -1, constraints, bound_margin=bound_margin)


# ---------------------------------------------------------------------------
# root data


@dataclass(frozen=True)
class RootDatum:
    model: SurfaceModel
    roots: tuple[LatticeClass, ...]
    simple_roots: tuple[LatticeClass, ...]
    cartan: tuple[tuple[int, ...], ...]
    type_label: str
    # Gram * alpha_i for each simple root: x*alpha_i is dot(x, row i)
    pairing_rows: tuple[tuple[int, ...], ...]

    @property
    def rank(self) -> int:
        return len(self.simple_roots)


@dataclass(frozen=True)
class WeightVector:
    entries: tuple[int, ...]


def _positivity_functional(model: SurfaceModel, roots: list[LatticeClass]) -> list[int]:
    r = model.rank
    m = 2
    while True:
        phi = [m ** (r - 1 - j) for j in range(r)]
        if all(dot(phi, rt.coeffs) for rt in roots):
            return phi
        m += 1


def _simple_roots(model: SurfaceModel, roots: list[LatticeClass]) -> list[LatticeClass]:
    """Positive roots that are no sum of two positive roots, by descending height.

    The sweep goes up in height: a root is simple when subtracting each
    simple root found so far leaves no positive root.  This is exact
    because the (-2)-vectors of a negative-definite lattice form an ADE
    root system, where a positive root that is not simple stays positive
    after subtracting some simple root, and that simple root is lower.
    """
    if not roots:
        return []
    phi = _positivity_functional(model, roots)
    height = itemgetter(0)
    positive = sorted(
        ((h, rt) for rt in roots if (h := dot(phi, rt.coeffs)) > 0), key=height
    )
    pos_set = {rt.coeffs for _, rt in positive}
    simple: list[tuple[int, LatticeClass]] = []
    for h, rt in positive:
        x = rt.coeffs
        if not any(tuple(map(sub, x, s.coeffs)) in pos_set for _, s in simple):
            simple.append((h, rt))
    simple.sort(key=height, reverse=True)
    return [rt for _, rt in simple]


def _component_label(nodes: list[int], adj: dict[int, set[int]]) -> str:
    k = len(nodes)
    degs = {v: len(adj[v] & set(nodes)) for v in nodes}
    if any(d > 3 for d in degs.values()):
        return f"U{k}"
    branch = [v for v in nodes if degs[v] == 3]
    if not branch:
        return f"A{k}"  # path (or single node)
    if len(branch) > 1:
        return f"U{k}"
    b = branch[0]
    arms = []
    for start in adj[b] & set(nodes):
        length = 1
        prev, cur = b, start
        while True:
            nxt = [w for w in adj[cur] & set(nodes) if w != prev]
            if not nxt:
                break
            if len(nxt) > 1:
                return f"U{k}"
            prev, cur = cur, nxt[0]
            length += 1
        arms.append(length)
    arms.sort()
    if arms[0] == 1 and arms[1] == 1:
        return f"D{arms[2] + 3}"
    if arms[0] == 1 and arms[1] == 2 and arms[2] in (2, 3, 4):
        return f"E{arms[2] + 4}"
    return f"U{k}"


def _adjacency(cartan) -> dict[int, set[int]]:
    n = len(cartan)
    return {i: {j for j in range(n) if j != i and cartan[i][j]} for i in range(n)}


def _components(nodes, adj: dict[int, set[int]]) -> list[list[int]]:
    """Connected components of the diagram induced on nodes, each sorted."""
    left = set(nodes)
    comps = []
    for start in sorted(left):
        if start not in left:
            continue
        left.discard(start)
        comp, stack = [start], [start]
        while stack:
            for w in adj[stack.pop()] & left:
                left.discard(w)
                comp.append(w)
                stack.append(w)
        comps.append(sorted(comp))
    return comps


def _dynkin_label(cartan) -> str:
    if not cartan:
        return "A0"
    adj = _adjacency(cartan)
    return "x".join(sorted(_component_label(c, adj) for c in _components(range(len(cartan)), adj)))


_E_WEYL_ORDERS = {6: 51_840, 7: 2_903_040, 8: 696_729_600}


def _weyl_order(cartan, nodes) -> int:
    """Order of the Weyl group generated by the simple reflections on nodes."""
    adj = _adjacency(cartan)
    order = 1
    for comp in _components(nodes, adj):
        label = _component_label(comp, adj)
        kind, k = label[0], int(label[1:])
        if kind == "A":
            order *= factorial(k + 1)
        elif kind == "D":
            order *= 2 ** (k - 1) * factorial(k)
        elif kind == "E":
            order *= _E_WEYL_ORDERS[k]
        else:
            raise AdesurfError(f"no finite Weyl group for a diagram of type {label}")
    return order


_ORTHOGONALITY_NAMES = ("K", "f", "b")


def enumerate_roots(
    model: SurfaceModel,
    orthogonality_set=("K", "f", "b"),
    *,
    bound_margin: int = 0,
) -> RootDatum:
    """All x with x*x = -2 orthogonal to the named classes, as a root datum."""
    constraints: list[tuple[LatticeClass, int]] = []
    for name in orthogonality_set:
        if name not in _ORTHOGONALITY_NAMES:
            raise AdesurfError(f"orthogonality set may only contain K, f, b; got {name!r}")
        if name == "K":
            constraints.append((model.K, 0))
        elif name == "f":
            if model.fiber_class is None:
                raise AdesurfError("model has no fiber class f")
            constraints.append((model.fiber_class, 0))
        else:
            if model.base_class is None:
                raise AdesurfError("model has no base class b")
            constraints.append((model.base_class, 0))
    roots = enumerate_classes(model, -2, constraints, bound_margin=bound_margin)
    simple = _simple_roots(model, roots)
    rows = tuple(model.pairing_row(s) for s in simple)
    cartan = tuple(tuple(-dot(s.coeffs, row) for row in rows) for s in simple)
    return RootDatum(
        model=model,
        roots=tuple(roots),
        simple_roots=tuple(simple),
        cartan=cartan,
        type_label=_dynkin_label(cartan),
        pairing_rows=rows,
    )


# ---------------------------------------------------------------------------
# reflections, orbits, weights


def reflect(root: LatticeClass, cls: LatticeClass) -> LatticeClass:
    """Reflection of cls in a (-2)-class: cls + (cls*root) root."""
    model = get_model(root.basis_id)
    if model.pair(root, root) != -2:
        raise AdesurfError("reflection requires a root with self-intersection -2")
    return cls + model.pair(cls, root) * root


def _weights(datum: RootDatum, cls: LatticeClass) -> tuple[int, ...]:
    basis = datum.model.basis_id
    if cls.basis_id != basis:
        raise BasisMismatchError(
            f"pairing on {basis!r} got classes from {cls.basis_id!r} and {basis!r}"
        )
    x = cls.coeffs
    return tuple(dot(x, row) for row in datum.pairing_rows)


def _dominant(datum: RootDatum, cls: LatticeClass) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(weight, coefficients) of the orbit element with every weight entry <= 0.

    The simple reflection s_j sends x to x + w_j alpha_j and w to
    w - w_j cartan[j]; applying it where w_j is largest, while that is
    positive, ends after at most as many steps as there are positive roots.
    """
    w, x = _weights(datum, cls), cls.coeffs
    while w and max(w) > 0:
        wj = max(w)
        j = w.index(wj)
        x = tuple(map(add, x, [wj * a for a in datum.simple_roots[j].coeffs]))
        w = tuple(map(sub, w, [wj * c for c in datum.cartan[j]]))
    return w, x


def _stabiliser_index(datum: RootDatum, dominant_weight: tuple[int, ...]) -> int:
    """|W| / |W_lambda|; the stabiliser is parabolic on the zero entries."""
    zeros = [i for i, wi in enumerate(dominant_weight) if wi == 0]
    return _weyl_order(datum.cartan, range(datum.rank)) // _weyl_order(datum.cartan, zeros)


def weyl_orbit(datum: RootDatum, cls: LatticeClass, cap: int = 100_000) -> list[LatticeClass]:
    """Closure of {cls} under the simple reflections of the datum, sorted.

    The root lattice is negative definite, so an orbit element is fixed by
    its weight.  The orbit is enumerated down from its dominant element:
    s_j is applied only where w_j < 0, and a child is kept only when j is
    the smallest index with a positive weight entry in it (Snow's rule),
    which reaches every element exactly once.  The cap is checked against
    the exact size |W| / |W_lambda| before any enumeration.
    """
    if cap < 1:
        raise AdesurfError("orbit cap must be at least 1")
    w, x = _dominant(datum, cls)
    size = _stabiliser_index(datum, w)
    if size > cap:
        raise OrbitCapExceededError(f"orbit of size {size} exceeds cap {cap}")
    alphas = [a.coeffs for a in datum.simple_roots]
    found = [x]
    layer = [(w, x)]
    while layer:
        below = []
        for w, x in layer:
            for j, wj in enumerate(w):
                if wj >= 0:
                    continue
                w2 = tuple(map(sub, w, [wj * c for c in datum.cartan[j]]))
                if j and max(w2[:j]) > 0:
                    continue
                below.append((w2, tuple(map(add, x, [wj * a for a in alphas[j]]))))
        found.extend(x for _, x in below)
        layer = below
    found.sort()
    basis = datum.model.basis_id
    return [LatticeClass(c, basis) for c in found]


def weight_of(datum: RootDatum, cls: LatticeClass) -> WeightVector:
    """Pairings of cls against the simple roots, in datum order."""
    return WeightVector(_weights(datum, cls))
