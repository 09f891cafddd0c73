"""Independent oracles for the enumeration and linear-algebra tests.

``brute_force_diag`` is a plain recursive search over a coefficient box in
diagonal coordinates (+1, -1, ..., -1), sharing no code with the package
kernel.  Pruning is restricted to provable infeasibility (square budget,
linear reach, and a parity cut when every remaining linear coefficient is
odd), so the scan is exhaustive within the box.

``full_box_sweep`` is the package's kernel as it was before it learned to
sweep one representative per orbit of interchangeable coordinates: the
layer-by-layer sweep with the same three cuts over the whole box, whose
rows come out sorted because each layer is extended in ascending order.

``dense_coefficient_bounds`` computes the enumeration box with dense
Fraction algebra over the whole lattice: a nullspace definiteness test and
one linear solve per coordinate.

``dense_rank``, ``dense_nullspace`` and ``solve`` are plain Gaussian
elimination over dense Fraction rows through ``rref``, which is defined
here and shares no code with the package; the package's sparse integer
echelon is tested against them.  ``dense_rows`` turns the package's
sparse rows into dense ones, and ``DenseEchelon`` answers
``Echelon.extend`` by recounting the dense rank of every row it was given.

``pairwise_simple_roots`` reads simple roots straight off their definition:
positive roots that are no sum of two positive roots, found by testing
every pair.

``weyl_orbit_bfs`` closes a class under the simple reflections by a
breadth-first search with one global seen-set, pairing through
``SurfaceModel.pair``; the package's dominant-chamber descent is tested
against it.

``backtrack_effective`` decides whether a class is a non-negative integer
sum of an explicit generator list by a memoised backtracking search over
generator multiplicities, with a node cap.

``fraction_reduce``, ``fraction_mul``, ``fraction_spanning_terms`` and
``fraction_to_chart`` are graded-ring arithmetic on plain ``{monomial:
Fraction}`` dicts: a relation rewriting loop that recomputes every normal
form, products multiplied out term by term, and the resolution-chart maps
with their true images, which carry 1/2.  They read only a ring's
variables, relations and basis, so the package's integer arithmetic and
memoised normal forms are tested against them.

``euclid_gcd`` and ``yun_over_q`` are the squarefree decomposition over Q
as the package first computed it: Yun's algorithm with every gcd a monic
Euclid over Q, so every remainder is made monic by Fraction division.
Their long division ``q_divmod`` and ``q_monic`` run on Fractions here,
since the package divides only integer polynomials, exactly.  The
package's run over Z, with primitive PRS gcds, is tested against them.

``dense_pair`` pairs two classes through the whole dense Gram matrix of
their model, and ``dense_dual`` is the dense product Gram * c; the
package's pairing rows and pairings are tested against them.

``full_check_generate`` and ``full_min_generator_profile`` are the
graded checks as the package first ran them: every degree up to maxdeg
is eliminated, with no degree bound and no skipped degree.  The
package's bounded loops are tested against them.  ``check_free_by_degree``
is ``check_free`` with no freeness certificate: it eliminates every
degree up to maxdeg and reports the first dependent one.  ``recursive_basis``
lists a ring's normal-form monomials of one degree by the first
recursion, which copies its prefix list at every node.
``nullspace_kernel_syzygy_checks`` is the central-fiber block of
``verify_extension_chain`` as the package first ran it: in every degree
it finds each syzygy of (z, x - y) from a nullspace and maps it to both
resolution charts.  The package checks two generating syzygies once and
counts the rest by rank, and its reports are tested against this route.
``per_degree_kernel_syzygy_checks`` is that block as it ran before it
learned to stop at degree 2: the two generators checked once, then the
per-degree block in every degree up to maxdeg.  The package's reports,
whose dims above degree 2 come from free bases over C[y, z], are tested
against it too.

``sympy_poly`` and ``qpoly_of`` convert a QPoly to a ``sympy.Poly`` in t
over QQ and back, so the package's polynomial arithmetic can be tested
against sympy's.  ``sympy_resultant`` is the resultant in u of two
polynomials with QPoly coefficients, by ``sympy.resultant``.
``sympy_sqf`` is the squarefree decomposition by sympy's ``sqf_list``.
``sympy_inertia`` counts the inertia of a symmetric matrix from its exact
characteristic polynomial by Descartes' rule of signs.  The package's
congruence elimination is tested against it, and the dense bounds
oracle's definiteness test uses it.
``sympy_factors`` factors a polynomial over Q with sympy's ``factor_list``;
the package's own Zassenhaus factoring is tested against it.  sympy is
needed only here, and is imported on the first call.

``two_pass_transform`` and ``blockwise_restrict_to_boundary`` are the
class-level transform and the boundary restriction as the package first
wrote them.  The transform validates a rebuilt ``CollisionConfig`` and
walks the point blocks twice, reading each block's degree off a slice of
the summand degrees; the restriction looks up each l_i's point per class
through a marking row that keeps the unmarked l_i.  The package's single
walk and its dot product with the marking row are tested against them,
value for value and exception for exception.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import isqrt

from adesurf import localmodel as lm
from adesurf.bundles import EBundleClass, FormalBundle, PointEntry, boundary_degree
from adesurf.divisors import CollisionConfig
from adesurf.errors import (
    AdesurfError,
    BasisMismatchError,
    BoundaryRestrictionError,
    CollisionConfigError,
    EnumerationBoundError,
    OrbitCapExceededError,
)
from adesurf.lattice import KIND_HIRZEBRUCH, LatticeClass
from adesurf.linesroots import _positivity_functional
from adesurf.transform import TransformResult


def frac_matrix(rows):
    return [[Fraction(x) for x in row] for row in rows]


def rref(mat):
    """Dense reduced row-echelon form; returns (R, pivot column indices)."""
    m = [row[:] for row in mat]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot_row = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def dense_rank(mat) -> int:
    if not mat:
        return 0
    return len(rref(mat)[1])


def solve(a, b):
    """One solution of A x = b, or None when inconsistent.

    Free variables are set to zero, so the result is deterministic.
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    aug = [list(a[i]) + [Fraction(b[i])] for i in range(rows)]
    red, pivots = rref(aug)
    if cols in pivots:
        return None
    x = [Fraction(0)] * cols
    for i, c in enumerate(pivots):
        x[c] = red[i][cols]
    return x


def dense_nullspace(mat):
    """Basis of the right kernel of `mat`, one vector per free column."""
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    if rows == 0:
        return [[Fraction(int(i == j)) for j in range(cols)] for i in range(cols)]
    red, pivots = rref(mat)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -red[i][fc]
        basis.append(v)
    return basis


def dense_rows(rows, ncols=None):
    """Dense Fraction rows of dense or ``{column: value}`` rows.

    Sparse rows are padded to `ncols` columns, by default to just past the
    largest column any of them uses.
    """
    rows = list(rows)
    if ncols is None:
        ncols = max((max(r, default=-1) + 1 if isinstance(r, dict) else len(r) for r in rows), default=0)
    return [
        [Fraction(r.get(c, 0)) for c in range(ncols)] if isinstance(r, dict) else [Fraction(x) for x in r]
        for r in rows
    ]


class DenseEchelon:
    """Stand-in for ``adesurf._linalg.Echelon.extend`` built on ``dense_rank``."""

    def __init__(self):
        self.rows = []
        self.rank = 0

    def extend(self, rows):
        self.rows.extend(rows)
        before, self.rank = self.rank, dense_rank(dense_rows(self.rows))
        return self.rank - before


def brute_force_diag(s, bounds, rows, targets):
    """All integer vectors v in the box with v0^2 - sum v_i^2 = s, rows @ v = targets."""
    r = len(bounds)
    nrows = len(rows)
    sq_suffix = [0] * (r + 1)
    for i in range(r - 1, 0, -1):
        sq_suffix[i] = sq_suffix[i + 1] + bounds[i] * bounds[i]
    reach = [[0] * (r + 1) for _ in range(nrows)]
    odd_suffix = [[True] * (r + 1) for _ in range(nrows)]
    a2_suffix = [[0] * (r + 1) for _ in range(nrows)]
    for j in range(nrows):
        for i in range(r - 1, -1, -1):
            reach[j][i] = reach[j][i + 1] + abs(rows[j][i]) * bounds[i]
            odd_suffix[j][i] = odd_suffix[j][i + 1] and (rows[j][i] % 2 == 1)
            a2_suffix[j][i] = a2_suffix[j][i + 1] + rows[j][i] * rows[j][i]

    out = []
    v = [0] * r
    partial = [0] * nrows

    def rec(i, qrem):
        if i == r:
            if qrem == 0 and all(partial[j] == targets[j] for j in range(nrows)):
                out.append(tuple(v))
            return
        if i >= 1 and (qrem < 0 or qrem > sq_suffix[i]):
            return
        for j in range(nrows):
            need = targets[j] - partial[j]
            if need > reach[j][i] or -need > reach[j][i]:
                return
            if i >= 1:
                if odd_suffix[j][i] and (need - qrem) % 2 != 0:
                    return
                # Cauchy-Schwarz: (sum a_k v_k)^2 <= (sum a_k^2)(sum v_k^2)
                if need * need > a2_suffix[j][i] * qrem:
                    return
        b = bounds[i]
        if i >= 1:
            b = min(b, isqrt(qrem))  # val^2 must fit the remaining square budget
        for val in range(-b, b + 1):
            v[i] = val
            q2 = (qrem - val * val) if i >= 1 else (val * val - s)
            for j in range(nrows):
                partial[j] += rows[j][i] * val
            rec(i + 1, q2)
            for j in range(nrows):
                partial[j] -= rows[j][i] * val
        v[i] = 0

    rec(0, 0)
    return sorted(out)


def full_box_sweep(s, bounds, rows, targets):
    """All solutions in the box, sorted, by a layer sweep over every coordinate."""
    r = len(bounds)
    sq_cap = [0] * (r + 1)
    for i in range(r - 1, 0, -1):
        sq_cap[i] = sq_cap[i + 1] + bounds[i] * bounds[i]
    steps = []
    for i in range(r):
        tails = [
            (sum(abs(c) * b for c, b in zip(row[i + 1:], bounds[i + 1:])),
             sum(c * c for c in row[i + 1:]))
            for row in rows
        ]
        steps.append((tuple(row[i] for row in rows), tails))

    layer = [((), -s, tuple(targets))]
    for i, (col, tails) in enumerate(steps):
        cap = sq_cap[i + 1]
        sign = 1 if i == 0 else -1
        nxt = []
        for prefix, q, need in layer:
            b = bounds[0] if i == 0 else min(bounds[i], isqrt(q))
            for x in range(-b, b + 1):
                q2 = q + sign * x * x
                if q2 < 0 or q2 > cap:
                    continue
                need2 = tuple(n - c * x for n, c in zip(need, col))
                for n, (reach, sq) in zip(need2, tails):
                    if n > reach or -n > reach or n * n > sq * q2:
                        break
                else:
                    nxt.append((prefix + (x,), q2, need2))
        layer = nxt
    return [prefix for prefix, _, _ in layer]


def literal_box_scan(s, bounds, rows, targets):
    """No pruning at all; only usable for tiny ranks."""
    axes = [range(-b, b + 1) for b in bounds]
    out = []
    for v in itertools.product(*axes):
        q = v[0] * v[0] - sum(x * x for x in v[1:])
        if q != s:
            continue
        if all(sum(a * x for a, x in zip(row, v)) == t for row, t in zip(rows, targets)):
            out.append(v)
    return sorted(out)


def diag_rows_for_class(model, cls):
    """Constraint row for pair(cls, x) on a diagonal-Gram model."""
    return [model.gram[i][i] * cls.coeffs[i] for i in range(model.rank)]


def _is_negative_definite(gram) -> bool:
    n = len(gram)
    if n == 0:
        return True
    pos, neg, zero = sympy_inertia(gram)
    return neg == n and pos == 0 and zero == 0


def _sqrt_upper(x: Fraction) -> Fraction:
    if x <= 0:
        return Fraction(0)
    p, q = x.numerator, x.denominator
    return Fraction(isqrt(p * q) + 1, q)


def dense_coefficient_bounds(model, self_intersection, constraints):
    """Per-coordinate box |x_i| <= B_i, or None; same contract as coefficient_bounds."""
    r = model.rank
    if any(model.gram[i][j] for i in range(r) for j in range(r) if i != j):
        raise AdesurfError(
            "coefficient bounds need a diagonal Gram matrix; "
            "enumerate Hirzebruch models through their plane presentation"
        )
    gram = frac_matrix(model.gram)
    u_vecs = [[Fraction(c) for c in u.coeffs] for u, _ in constraints]
    targets = [Fraction(t) for _, t in constraints]

    if u_vecs:
        aug = [u_vecs[j] + [targets[j]] for j in range(len(u_vecs))]
        red, pivots = rref(aug)
        if r in pivots:
            return None
        keep_rows: list[int] = []
        seen = 0
        for j in range(len(u_vecs)):
            if dense_rank([u_vecs[i] for i in keep_rows + [j]]) > seen:
                keep_rows.append(j)
                seen += 1
        u_vecs = [u_vecs[j] for j in keep_rows]
        targets = [targets[j] for j in keep_rows]

    k = len(u_vecs)

    def g_apply(vec):
        return [sum(gram[i][j] * vec[j] for j in range(r)) for i in range(r)]

    def pair_q(a, b):
        return sum(a[i] * bi for i, bi in enumerate(g_apply(b)))

    gram_u = [[pair_q(u_vecs[i], u_vecs[j]) for j in range(k)] for i in range(k)]

    # with no constraints dense_nullspace([]) is empty, so this check is skipped
    forms = [g_apply(u) for u in u_vecs]
    kernel = dense_nullspace(forms) if forms else dense_nullspace([])
    if kernel:
        restricted = [[pair_q(a, b) for b in kernel] for a in kernel]
        if not _is_negative_definite(restricted):
            raise EnumerationBoundError(
                "enumeration bound exceeded: residual lattice is not negative definite"
            )

    if k:
        coeffs = solve(gram_u, targets)
        if coeffs is None:
            raise EnumerationBoundError(
                "enumeration bound exceeded: constraint span is degenerate for the pairing"
            )
        x_u = [sum(coeffs[j] * u_vecs[j][i] for j in range(k)) for i in range(r)]
    else:
        x_u = [Fraction(0)] * r

    q_y = pair_q(x_u, x_u) - self_intersection
    if q_y < 0:
        return None

    bounds: list[int] = []
    for i in range(r):
        w = [Fraction(0)] * r
        w[i] = Fraction(1) / gram[i][i]
        pu = [pair_q(u_vecs[j], w) for j in range(k)]
        if k:
            b = solve(gram_u, pu)
            if b is None:
                raise EnumerationBoundError("enumeration bound exceeded: degenerate projection")
            z_sq = pair_q(w, w) - sum(b[j] * pu[j] for j in range(k))
        else:
            z_sq = pair_q(w, w)
        q_z = -z_sq
        if q_z < 0:
            raise EnumerationBoundError("enumeration bound exceeded: projection not definite")
        radius = _sqrt_upper(q_z * q_y)
        hi = abs(x_u[i]) + radius
        bounds.append(int(hi))
    return bounds


def pairwise_simple_roots(model, roots):
    """Simple roots by descending height, each positive root tested against every other."""
    if not roots:
        return []
    phi = _positivity_functional(model, roots)

    def height(c):
        return sum(p * v for p, v in zip(phi, c.coeffs))

    positive = [rt for rt in roots if height(rt) > 0]
    pos_set = {rt.coeffs for rt in positive}
    simple = [
        rt
        for rt in positive
        if not any((rt - other).coeffs in pos_set for other in positive if other.coeffs != rt.coeffs)
    ]
    simple.sort(key=height, reverse=True)
    return simple


def weyl_orbit_bfs(datum, cls, cap=100_000):
    """Closure of {cls} under the simple reflections of the datum, sorted."""
    if cap < 1:
        raise AdesurfError("orbit cap must be at least 1")
    model = datum.model
    seen = {cls.coeffs}
    frontier = [cls]
    while frontier:
        nxt = []
        for x in frontier:
            for alpha in datum.simple_roots:
                y = x + model.pair(x, alpha) * alpha
                if y.coeffs not in seen:
                    seen.add(y.coeffs)
                    if len(seen) > cap:
                        raise OrbitCapExceededError(f"orbit exceeded cap {cap}")
                    nxt.append(y)
        frontier = nxt
    return sorted((LatticeClass(c, model.basis_id) for c in seen), key=lambda c: c.coeffs)


def backtrack_effective(model, generators, d, tilt, node_budget=20_000):
    """("effective", certificate), ("not_effective", None), or (None, None) past the cap.

    The certificate lists (generator, multiplicity) pairs summing to d.

    Generators are weighed by A = M*(-K) + tilt, with M the least integer
    making A*g >= 1 for every g; `tilt` must pair >= 1 with every generator
    orthogonal to K.  Each unit of multiplicity then uses up at least one
    unit of A*d, so the search is finite and exhaustive.
    """
    kd = [model.pair(model.E, g) for g in generators]
    td = [model.pair(tilt, g) for g in generators]
    if any(k < 0 or (k == 0 and t < 1) for k, t in zip(kd, td)):
        raise AdesurfError("oracle: tilt does not weigh every generator positively")
    big = max([1] + [-((t - 1) // k) for k, t in zip(kd, td) if k > 0])
    ample = big * model.E + tilt
    weights = [model.pair(ample, g) for g in generators]
    budget = model.pair(ample, d)
    if d.is_zero():
        return "effective", []
    if budget < 0:
        return "not_effective", None

    nodes = 0
    memo = {}

    def search(k, remaining, budget_left):
        nonlocal nodes
        if remaining.is_zero():
            return []
        if k == len(generators) or budget_left <= 0:
            return None
        key = (k, remaining.coeffs)
        if key in memo:
            return memo[key]
        nodes += 1
        if nodes > node_budget:
            raise _NodeCap
        w = weights[k]
        found = None
        for mult in range(budget_left // w, -1, -1):
            rest = search(k + 1, remaining - mult * generators[k], budget_left - mult * w)
            if rest is not None:
                found = ([(generators[k], mult)] if mult else []) + rest
                break
        memo[key] = found
        return found

    try:
        cert = search(0, d, budget)
    except _NodeCap:
        return None, None
    return ("not_effective", None) if cert is None else ("effective", cert)


class _NodeCap(Exception):
    pass


def fraction_reduce(ring, terms):
    """Normal form of `terms` on Fraction coefficients, rewriting the smallest reducible variable."""
    out = {}
    work = [(mon, Fraction(c)) for mon, c in terms.items()]
    while work:
        mon, coeff = work.pop()
        if coeff == 0:
            continue
        reducible = [v for v, rel in ring.relations.items() if mon[v] >= rel.power]
        if not reducible:
            new = out.get(mon, Fraction(0)) + coeff
            if new:
                out[mon] = new
            else:
                out.pop(mon, None)
            continue
        rel = ring.relations[min(reducible)]
        rest = list(mon)
        rest[rel.var] -= rel.power
        for rmon, rcoeff in rel.rhs:
            work.append((tuple(a + b for a, b in zip(rest, rmon)), coeff * Fraction(rcoeff)))
    return out


def fraction_mul(ring, a, b):
    """Normal form of the product of two term dicts."""
    prod = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            mon = tuple(x + y for x, y in zip(m1, m2))
            prod[mon] = prod.get(mon, Fraction(0)) + Fraction(c1) * Fraction(c2)
    return fraction_reduce(ring, prod)


def fraction_spanning_terms(ring, generators, coeff_vars, d, skip_units=False):
    """Terms of every (subring monomial) * generator of degree d, in ``spanning_elements`` order."""
    out = []
    for g in generators:
        rem = d - ring.monomial_degree(next(iter(g)))
        if rem < 0:
            continue
        for mon in ring.subring_monomials(coeff_vars, rem):
            if skip_units and not any(mon):
                continue
            out.append(fraction_mul(ring, {mon: Fraction(1)}, g))
    return out


_HALF = Fraction(1, 2)
_FRACTION_CHART_IMAGES = {
    "A": {
        "x": {(1, 0): _HALF, (1, 2): -_HALF},  # x = (w - w L2^2)/2
        "y": {(1, 0): _HALF, (1, 2): _HALF},  # y = (w + w L2^2)/2
        "z": {(1, 1): Fraction(1)},  # z = w L2
    },
    "B": {
        "x": {(1, 0): _HALF, (1, 2): -_HALF},  # x = (u - u L1^2)/2
        "y": {(1, 0): -_HALF, (1, 2): -_HALF},  # y = -(u + u L1^2)/2
        "z": {(1, 1): Fraction(-1)},  # z = -u L1
    },
}


def _chart_mul(a, b):
    out = {}
    for (i, j), c in a.items():
        for (k, l), e in b.items():
            key = (i + k, j + l)
            out[key] = out.get(key, Fraction(0)) + c * e
    return {k: v for k, v in out.items() if v}


def fraction_to_chart(terms, var_names, chart):
    """Image of a polynomial in x, y, z on resolution chart "A" or "B", on Fraction coefficients."""
    images = _FRACTION_CHART_IMAGES[chart]
    out = {}
    for mon, coeff in terms.items():
        term = {(0, 0): Fraction(coeff)}
        for name, e in zip(var_names, mon):
            for _ in range(e):
                term = _chart_mul(term, images[name])
        for k, v in term.items():
            out[k] = out.get(k, Fraction(0)) + v
    return {k: v for k, v in out.items() if v}


def sympy_poly(p):
    """A QPoly as a sympy.Poly in t over QQ."""
    import sympy

    coeffs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)]
    return sympy.Poly(coeffs or [0], sympy.Symbol("t"), domain="QQ")


def qpoly_of(poly):
    """A sympy.Poly in one variable over QQ as a QPoly."""
    from adesurf.qpoly import QPoly

    return QPoly(tuple(Fraction(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs())))


def sympy_resultant(f, g):
    """Resultant in u of two lists of QPoly coefficients (ascending powers of u), by sympy."""
    import sympy

    t, u = sympy.symbols("t u")

    def expr(h):
        return sum(sympy_poly(c).as_expr() * u**i for i, c in enumerate(h))

    return qpoly_of(sympy.Poly(sympy.resultant(expr(f), expr(g), u), t, domain="QQ"))


def sympy_inertia(gram):
    """(n_plus, n_minus, n_zero) of a symmetric matrix of ints/Fractions, by sympy.

    The characteristic polynomial of a real symmetric matrix has only real
    roots, so Descartes' rule of signs counts its positive roots exactly,
    and applied to p(-x) its negative ones; 0 is a root of the multiplicity
    of the lowest nonzero coefficient.  sympy's ``charpoly`` is exact on
    rational entries.
    """
    import sympy

    n = len(gram)
    mat = sympy.Matrix(n, n, lambda i, j: sympy.Rational(gram[i][j].numerator, gram[i][j].denominator))
    coeffs = list(reversed(mat.charpoly().all_coeffs()))  # ascending powers

    def sign_changes(cs):
        signs = [c > 0 for c in cs if c != 0]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    zero = next(i for i, c in enumerate(coeffs) if c != 0)
    return (
        sign_changes(coeffs),
        sign_changes([-c if i % 2 else c for i, c in enumerate(coeffs)]),
        zero,
    )


def sympy_sqf(p):
    """(monic squarefree part, multiplicity) pairs of a QPoly over Q by sympy, increasing in multiplicity."""
    _, parts = sympy_poly(p).sqf_list()
    return sorted(((q_monic(qpoly_of(g)), k) for g, k in parts), key=lambda gk: gk[1])


def sympy_factors(p):
    """(irreducible factor, multiplicity) pairs of a QPoly over Q, by sympy.

    Factors are integer-primitive with positive leading coefficient, as
    QPolys, sorted by (degree, coeffs).
    """
    import sympy

    from adesurf.qpoly import QPoly

    _, factors = sympy.factor_list(sympy_poly(p))
    out = [(QPoly(qpoly_of(fac).primitive_int()), mult) for fac, mult in factors]
    return sorted(out, key=lambda fm: (fm[0].degree, fm[0].coeffs))


def q_divmod(a, b):
    """Quotient and remainder over Q of two QPolys, b nonzero, by long division on Fractions."""
    from adesurf.qpoly import QPoly

    rem = [Fraction(c) for c in a.coeffs]
    db = len(b.coeffs) - 1
    quo = [Fraction(0)] * max(len(rem) - db, 0)
    for k in range(len(quo) - 1, -1, -1):
        quo[k] = rem[k + db] / b.coeffs[-1]
        for j, c in enumerate(b.coeffs):
            rem[k + j] -= quo[k] * c
    return QPoly(tuple(quo)), QPoly(tuple(rem))


def q_monic(p):
    """p divided by its leading coefficient; the zero polynomial stays zero."""
    from adesurf.qpoly import QPoly

    return QPoly(tuple(Fraction(c) / p.coeffs[-1] for c in p.coeffs)) if p.coeffs else p


def _q_exact_div(a, b):
    q, r = q_divmod(a, b)
    assert r.is_zero(), "division was not exact"
    return q


def _q_derivative(p):
    from adesurf.qpoly import QPoly

    return QPoly(tuple(i * c for i, c in enumerate(p.coeffs))[1:])


def euclid_gcd(a, b):
    """Monic gcd over Q of two QPolys, by Euclid's algorithm."""
    while not b.is_zero():
        a, b = b, q_divmod(a, b)[1]
    return q_monic(a)


def yun_over_q(p):
    """Yun's algorithm over Q: the nontrivial (g_i monic, i), increasing in i."""
    if p.is_zero() or p.degree == 0:
        return []
    p = q_monic(p)
    d = _q_derivative(p)
    g0 = euclid_gcd(p, d)
    w = _q_exact_div(p, g0)
    y = _q_exact_div(d, g0)
    out = []
    i = 1
    while w.degree > 0:
        z = y - _q_derivative(w)
        g = euclid_gcd(w, z)
        if g.degree > 0:
            out.append((g, i))
        w = _q_exact_div(w, g)
        y = _q_exact_div(z, g)
        i += 1
    return out


def dense_dual(model, c):
    """Gram * c over the whole dense Gram matrix."""
    return tuple(sum(g * x for g, x in zip(row, c.coeffs)) for row in model.gram)


def dense_pair(model, a, b):
    """a * b over the whole dense Gram matrix, refusing classes of another basis."""
    if a.basis_id != model.basis_id or b.basis_id != model.basis_id:
        raise BasisMismatchError(f"pairing on {model.basis_id!r} got {a.basis_id!r} and {b.basis_id!r}")
    return sum(x * y for x, y in zip(a.coeffs, dense_dual(model, b)))


def full_check_generate(ring, target, gens, over_vars, maxdeg):
    """``localmodel.check_generate`` run through every degree <= maxdeg."""
    candidate = lm.GradedModule(ring, tuple(gens), lm._var_indices(ring, over_vars))
    for d in range(maxdeg + 1):
        tvecs = lm._vectors(ring, target.spanning_elements(d), d)
        cvecs = lm._vectors(ring, candidate.spanning_elements(d), d)
        span = lm.Echelon()
        tdim = span.extend(tvecs)
        if tdim != lm.rank(cvecs) or span.extend(cvecs):
            return lm.DegreeCheck(False, d)
    return lm.DegreeCheck(True, None)


def full_min_generator_profile(ring, ideal_gens, maxdeg):
    """``localmodel.min_generator_profile`` with (mI)_d eliminated in every degree."""
    module = lm.GradedModule.over_full_ring(ring, tuple(ideal_gens))
    profile = []
    for d in range(maxdeg + 1):
        span = lm.Echelon()
        span.extend(lm._vectors(ring, module.spanning_elements(d, skip_units=True), d))
        units = [g for g in module.generators if g.degree == d]
        profile.append(span.extend(lm._vectors(ring, units, d)))
    return profile


def check_free_by_degree(ring, gens, over_vars, maxdeg):
    """``localmodel.check_free`` run through every degree <= maxdeg."""
    over = lm._var_indices(ring, over_vars)
    gens = tuple(gens)
    for g in gens:
        if g.is_zero():
            return lm.DegreeCheck(False, 0)
    module = lm.GradedModule(ring, gens, over)
    for d in range(maxdeg + 1):
        vecs = lm._vectors(ring, module.spanning_elements(d), d)
        if lm.rank(vecs) != len(vecs):
            return lm.DegreeCheck(False, d)
    return lm.DegreeCheck(True, None)


def nullspace_kernel_syzygy_checks(maxdeg, report):
    """``localmodel._kernel_syzygy_checks`` with every degree's syzygies found one by one.

    In each degree d >= 1 it multiplies every cone monomial of degree
    d - 1 by z and by x - y, takes the nullspace of those columns, rebuilds
    each syzygy (h, g) from it and maps h and g to both resolution charts.
    """
    fiber = lm.central_fiber_ring(maxdeg)
    cone = lm.cone_ring(maxdeg)
    fx, fy, fz, fs = (fiber.var(v) for v in "xyzs")
    cx, cy, cz = (cone.var(v) for v in "xyz")
    to_cone = {"x": cx, "y": cy, "z": cz, "s": cone.zero()}

    module = lm.GradedModule(fiber, (fx - fy, fz + fs), lm._var_indices(fiber, ("x", "y", "z")))
    ideal = lm.GradedModule.over_full_ring(cone, (cx - cy, cz))

    dims_f2, dims_img, dims_ker, dims_ideal = [], [], [], []
    cone_sub = lm._var_indices(cone, ("x", "y", "z"))
    free = lm.DegreeCheck(True, None)
    lam = lm._CHART_RING.var("lambda")

    for d in range(maxdeg + 1):
        span = module.spanning_elements(d)
        f2_dim = lm.rank(lm._vectors(fiber, span, d))
        if free.ok and f2_dim != len(span):
            free = lm.DegreeCheck(False, d)

        imaged = [el.map_to(cone, to_cone) for el in span]
        img_vecs = lm._vectors(cone, imaged, d)
        img_dim = lm.rank(img_vecs)

        ideal_span = lm.Echelon()
        ideal_dim = ideal_span.extend(lm._vectors(cone, ideal.spanning_elements(d), d))
        onto = img_dim == ideal_dim and not ideal_span.extend(img_vecs)
        report.record("fiber_restriction_onto_ideal", onto, d)

        ker_dim = f2_dim - img_dim
        kernel_elements = []
        for combo in lm.nullspace(lm._relation_rows(cone, imaged, d), len(imaged)):
            el = lm._combination(fiber, combo, span)
            if not el.is_zero():
                kernel_elements.append(el)
        kernel_ok = lm.rank(lm._vectors(fiber, kernel_elements, d)) == ker_dim
        report.record("dimension_additivity", kernel_ok, d)
        report.record("kernel_dimension", kernel_ok, d)

        s_index = fiber.var_names.index("s")
        all_s = all(all(mon[s_index] == 1 for mon in el.terms) for el in kernel_elements)
        report.record("kernel_is_s_multiple", all_s, d)

        if d >= 1:
            # a relation sum h_j z m_j + g_j (x - y) m_j gives the pair (h, g)
            mons = [
                lm.RingElement(cone, {m: 1}, reduced=True)
                for m in cone.subring_monomials(cone_sub, d - 1)
            ]
            pad = [cone.zero()] * len(mons)
            cols = [cz * m for m in mons] + [(cx - cy) * m for m in mons]
            syz_pairs = []
            for combo in lm.nullspace(lm._relation_rows(cone, cols, d), len(cols)):
                h = lm._combination(cone, combo, mons + pad)
                g = lm._combination(cone, combo, pad + mons)
                if not (h.is_zero() and g.is_zero()):
                    syz_pairs.append((h, g))
            report.record("syzygy_count_matches_kernel", len(syz_pairs) == ker_dim, d)
            proportional = all(
                lm.to_chart(h, "A") == lam * lm.to_chart(g, "A")
                and lm.to_chart(g, "B") == lam * lm.to_chart(h, "B")
                for h, g in syz_pairs
            )
            report.record("kernel_principal_on_charts", proportional, d)

        dims_f2.append(f2_dim)
        dims_img.append(img_dim)
        dims_ker.append(ker_dim)
        dims_ideal.append(ideal_dim)

    report.dims["fiber_module"] = dims_f2
    report.dims["image"] = dims_img
    report.dims["kernel"] = dims_ker
    report.dims["ideal"] = dims_ideal
    return free


def per_degree_kernel_syzygy_checks(maxdeg, report):
    """``localmodel._kernel_syzygy_checks`` with its per-degree block run in every degree <= maxdeg.

    The syzygies (h, g) of (z, x - y) on the cone, h z + g (x - y) = 0, are
    generated by sigma_1 = (z, x + y) and sigma_2 = (x - y, -z), the matrix
    factorisation of the A_1 point.  Both are checked once: each is a
    syzygy, and each satisfies h = lambda g on chart A and g = lambda h on
    chart B.  Those conditions are linear over the cone, since the chart
    maps are ring maps, so they pass to every syzygy the two generate.  In
    each degree d >= 1 the syzygies number 2 dim R_{d-1} - dim I_d by rank
    and nullity (I the ideal (x - y, z)); that count must equal the
    kernel's dimension, and the rows m sigma_i must reach it, which shows
    that sigma_1 and sigma_2 generate in degree d.
    """
    fiber = lm.central_fiber_ring(maxdeg)
    cone = lm.cone_ring(maxdeg)
    fx, fy, fz, fs = (fiber.var(v) for v in "xyzs")
    cx, cy, cz = (cone.var(v) for v in "xyz")
    to_cone = {"x": cx, "y": cy, "z": cz, "s": cone.zero()}

    gen1, gen2 = fx - fy, fz + fs  # the kernel-sheaf module F_2
    xyz = lm._var_indices(fiber, ("x", "y", "z"))
    module = lm.GradedModule(fiber, (gen1, gen2), xyz)
    ideal = lm.GradedModule.over_full_ring(cone, (cx - cy, cz))

    dims_f2, dims_img, dims_ker, dims_ideal = [], [], [], []
    # below its first dependent degree the spanning set of F_2 is a basis
    free = lm.check_free(fiber, (gen1, gen2), xyz, maxdeg)

    # upstairs factorization (f2, f3) = (L2 q, L1 q): chart A has L1 = 1 so
    # h = L2 * g there; chart B has L2 = 1 so g = L1 * h
    lam = lm._CHART_RING.var("lambda")
    sigmas = ((cz, cx + cy), (cx - cy, -cz))
    generators_ok = all(
        (h * cz + g * (cx - cy)).is_zero()
        and lm.to_chart(h, "A") == lam * lm.to_chart(g, "A")
        and lm.to_chart(g, "B") == lam * lm.to_chart(h, "B")
        for h, g in sigmas
    )

    for d in range(maxdeg + 1):
        span = module.spanning_elements(d)
        if free.ok or d < free.first_failure_degree:
            f2_dim = len(span)
        else:
            f2_dim = lm.rank(lm._vectors(fiber, span, d))

        imaged = [el.map_to(cone, to_cone) for el in span]
        img_vecs = lm._vectors(cone, imaged, d)
        img_dim = lm.rank(img_vecs)

        ideal_span = lm.Echelon()
        ideal_dim = ideal_span.extend(lm._vectors(cone, ideal.spanning_elements(d), d))

        # onto iff the image has the ideal's dimension and lies inside it
        onto = img_dim == ideal_dim and not ideal_span.extend(img_vecs)
        report.record("fiber_restriction_onto_ideal", onto, d)

        # explicit kernel: relations among the images as combinations of the
        # spanning set, less those already zero in F_2 (span redundancy); its
        # rank must be the rank count dim F_2 - dim image
        ker_dim = f2_dim - img_dim
        kernel_elements = []
        for combo in lm.nullspace(lm._relation_rows(cone, imaged, d), len(imaged)):
            el = lm._combination(fiber, combo, span)
            if not el.is_zero():
                kernel_elements.append(el)
        kvecs = lm._vectors(fiber, kernel_elements, d)
        kernel_ok = lm.rank(kvecs) == ker_dim
        report.record("dimension_additivity", kernel_ok, d)
        report.record("kernel_dimension", kernel_ok, d)

        # every kernel element is s * (polynomial in x, y, z)
        s_index = fiber.var_names.index("s")
        all_s = all(
            all(mon[s_index] == 1 for mon in el.terms) for el in kernel_elements
        )
        report.record("kernel_is_s_multiple", all_s, d)

        # syzygies of (z, x - y) downstairs match the kernel and are
        # proportional to (L2, L1) on the charts
        if d >= 1:
            syzygies = 2 * len(cone.basis(d - 1)) - ideal_dim
            report.record("syzygy_count_matches_kernel", syzygies == ker_dim, d)
            generated = lm._syzygy_rank(cone, sigmas, d) == syzygies
            report.record("kernel_principal_on_charts", generators_ok and generated, d)

        dims_f2.append(f2_dim)
        dims_img.append(img_dim)
        dims_ker.append(ker_dim)
        dims_ideal.append(ideal_dim)

    report.dims["fiber_module"] = dims_f2
    report.dims["image"] = dims_img
    report.dims["kernel"] = dims_ker
    report.dims["ideal"] = dims_ideal
    return free


def recursive_basis(ring, d):
    """Normal-form monomials of degree d, sorted, by a recursion over exponent prefixes."""
    if d < 0:
        return []
    out = []
    caps = [(ring.relations[v].power - 1) if v in ring.relations else None for v in range(ring.nvars)]

    def rec(i, remaining, prefix):
        if i == ring.nvars:
            if remaining == 0:
                out.append(tuple(prefix))
            return
        dv = ring.var_degrees[i]
        top = remaining // dv
        if caps[i] is not None:
            top = min(top, caps[i])
        for e in range(top + 1):
            rec(i + 1, remaining - e * dv, prefix + [e])

    rec(0, d, [])
    return sorted(out)


def _forced_collisions(datum):
    pairs = []
    idx = 1
    for _p, mult in datum.point_blocks():
        for a in range(idx, idx + mult - 1):
            pairs.append((a, a + 1))
        idx += mult
    return CollisionConfig(tuple(pairs))


def two_pass_transform(model, datum, twist_mode="full", collisions=None):
    """``transform.transform`` with a rebuilt collision configuration and two block walks."""
    if twist_mode not in ("raw", "minus_l0", "full"):
        raise AdesurfError(f"unknown twist mode {twist_mode!r}")
    if model.kind != KIND_HIRZEBRUCH:
        raise AdesurfError("the transform acts on A-type (Hirzebruch) surface fibers")
    if model.n != datum.n:
        raise AdesurfError(f"model has {model.n} exceptional classes, datum has {datum.n} sheets")

    needed = _forced_collisions(datum)
    if needed.pairs:
        have = set((collisions or CollisionConfig()).pairs)
        missing = [p for p in needed.pairs if p not in have]
        if missing:
            raise CollisionConfigError(
                f"datum has collided sheets but the model configuration lacks pairs {missing}; "
                "pass required_collisions(datum)"
            )

    shift = model.zero() if twist_mode == "raw" else -model.base_class
    point_blocks = datum.point_blocks()
    summands = []
    blocks_out = []
    idx = 1
    gid = 0
    for p, mult in point_blocks:
        classes = [model.exceptional(i) + shift for i in range(idx, idx + mult)]
        idx += mult
        if mult == 1:
            summands.append((classes[0], 0))
        else:
            gid += 1
            ordered = list(reversed(classes))
            summands.extend((c, gid) for c in ordered)
            blocks_out.append((p, mult, tuple(ordered)))

    bundle = FormalBundle(model=model, summands=tuple(summands))
    degs = tuple(boundary_degree(model, c) for c, _ in bundle.summands)

    entries = []
    cursor = 0
    for p, mult in point_blocks:
        block_degs = set(degs[cursor : cursor + mult])
        cursor += mult
        entries.append(
            PointEntry(point=p, mult=mult, regular=mult >= 2, degree=block_degs.pop() if block_degs else 0)
        )
    boundary = EBundleClass(order=datum.order, entries=tuple(entries))

    base_twist = datum.base_twist_degree + (1 if twist_mode == "full" else 0)
    return TransformResult(
        bundle=bundle,
        collision_blocks=tuple(blocks_out),
        c1_fiber=sum(degs),
        boundary=boundary,
        summand_boundary_degrees=degs,
        base_twist_degree=base_twist,
    )


def _blocks(bundle):
    out = []
    index = {}
    for cls, gid in bundle.summands:
        if gid == 0:
            out.append((0, [cls]))
        elif gid in index:
            out[index[gid]][1].append(cls)
        else:
            index[gid] = len(out)
            out.append((gid, [cls]))
    return out


def _restrict_class(cls, row, order):
    value = 0
    x = cls.coeffs
    for j, i, p in row:
        if x[j]:
            if p is None:
                raise AdesurfError(f"marking has no point for l{i}")
            value += x[j] * p
    return value % order


def blockwise_restrict_to_boundary(bundle, marking):
    """``bundles.restrict_to_boundary`` with a per-class lookup of each l_i's point."""
    model = bundle.model
    for cls, _ in bundle.summands:
        deg = boundary_degree(model, cls)
        if deg != 0:
            raise BoundaryRestrictionError(
                f"summand {cls.coeffs} has boundary degree {deg}; twist before restricting"
            )
    points = dict(marking.points)
    row = tuple((j, i, points.get(i)) for j, i in model.exceptional_positions)
    entries = []
    plain = {}
    for gid, classes in _blocks(bundle):
        points = {_restrict_class(c, row, marking.order) for c in classes}
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
