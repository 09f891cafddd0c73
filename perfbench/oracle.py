"""The benchmark's own lattice and polynomial arithmetic.

Every correctness check in the benchmark is computed here, from the
definitions, without calling the package under test.  Classes are plain
integer tuples in the package's documented bases:

* ``("p2", n)``: basis (h, l_1..l_n), h*h = 1, l_i*l_i = -1;
* ``("hz", n)``: basis (b, f, l_1..l_n), b*b = -1, b*f = 1, f*f = 0,
  l_i*l_i = -1.

Enumeration works in the plane presentation: a Hirzebruch class
(beta_b, beta_f, m_1..m_n) is the plane class beta_f*h + (beta_b -
beta_f)*l_0 + sum m_i*l_i on the plane blown up at n + 1 points.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, isqrt

LINE_COUNTS = {1: 1, 2: 3, 3: 6, 4: 10, 5: 16, 6: 27, 7: 56, 8: 240}
CONIC_COUNTS = {1: 1, 2: 2, 3: 3, 4: 5, 5: 10, 6: 27, 7: 126, 8: 2160}
E_ROOT_COUNTS = {3: 8, 4: 20, 5: 40, 6: 72, 7: 126, 8: 240}
E_TYPE_LABELS = {3: "A1xA2", 4: "A4", 5: "D5", 6: "E6", 7: "E7", 8: "E8"}


# ---------------------------------------------------------------------------
# models


def rank(model) -> int:
    kind, n = model
    return n + 1 if kind == "p2" else n + 2


def pair(model, x, y) -> int:
    kind, _n = model
    if kind == "p2":
        return x[0] * y[0] - sum(a * b for a, b in zip(x[1:], y[1:]))
    return (
        -x[0] * y[0] + x[0] * y[1] + x[1] * y[0]
        - sum(a * b for a, b in zip(x[2:], y[2:]))
    )


def canonical(model) -> tuple[int, ...]:
    kind, n = model
    if kind == "p2":
        return (-3,) + (1,) * n
    return (-2, -3) + (1,) * n


def fiber(model) -> tuple[int, ...]:
    return (0, 1) + (0,) * model[1]


def base(model) -> tuple[int, ...]:
    return (1, 0) + (0,) * model[1]


def unit(model, label: str) -> tuple[int, ...]:
    """Basis vector by label: 'h', 'b', 'f' or 'l<i>'."""
    kind, n = model
    labels = ["h"] if kind == "p2" else ["b", "f"]
    labels += [f"l{i}" for i in range(1, n + 1)]
    return tuple(int(lb == label) for lb in labels)


def add(*vs) -> tuple[int, ...]:
    return tuple(sum(c) for c in zip(*vs))


def scale(k: int, v) -> tuple[int, ...]:
    return tuple(k * c for c in v)


def sub(x, y) -> tuple[int, ...]:
    return tuple(a - b for a, b in zip(x, y))


def to_plane(model, x) -> tuple[int, ...]:
    if model[0] == "p2":
        return tuple(x)
    return (x[1], x[0] - x[1]) + tuple(x[2:])


def from_plane(model, v) -> tuple[int, ...]:
    if model[0] == "p2":
        return tuple(v)
    return (v[0] + v[1], v[0]) + tuple(v[2:])


def euler_char(model, d) -> int:
    """Riemann-Roch on a rational surface: 1 + (D*D - D*K)/2."""
    return 1 + (pair(model, d, d) - pair(model, d, canonical(model))) // 2


def reflect(model, x, root) -> tuple[int, ...]:
    return add(x, scale(pair(model, x, root), root))


def e_simple_roots(model) -> list[tuple[int, ...]]:
    """h - l1 - l2 - l3 and l_i - l_{i+1}, written in the model's basis."""
    kind, n = model
    k = n if kind == "p2" else n + 1
    plane = [(1, -1, -1, -1) + (0,) * (k - 3)] if k >= 3 else []
    for i in range(k - 1):
        v = [0] * (k + 1)
        v[1 + i], v[2 + i] = 1, -1
        plane.append(tuple(v))
    return [from_plane(model, v) for v in plane]


def closed_under(model, classes, roots) -> bool:
    s = set(classes)
    return all(reflect(model, x, r) in s for x in s for r in roots)


def orbit(model, start, roots) -> set[tuple[int, ...]]:
    seen = {tuple(start)}
    frontier = [tuple(start)]
    while frontier:
        nxt = []
        for x in frontier:
            for r in roots:
                y = reflect(model, x, r)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


# ---------------------------------------------------------------------------
# exhaustive solver


def solve(model, self_intersection: int, constraints) -> list[tuple[int, ...]]:
    """All classes x with x*x = s and x*u = t for each (u, t), sorted.

    The constraints must include the canonical class, and on a plane
    blown up at nine points also the fiber class.  Runs in the plane
    presentation x = d*h + sum a_i*l_i, so x*u = d*u_h - sum a_i*u_i; for
    each d the a_i lie on a sphere of radius^2 d^2 - s and are found by a
    recursive scan with Cauchy-Schwarz pruning.
    """
    planes = [(to_plane(model, u), t) for u, t in constraints]
    k = len(planes[0][0]) - 1
    kt = [t for (u, t) in planes if u == to_plane(model, canonical(model))]
    ft = [t for (u, t) in planes if model[0] == "hz" and u == to_plane(model, fiber(model))]
    if not kt or (k >= 9 and not ft):
        raise ValueError("solver needs K, and f as well on nine blowups")

    def feasible(d):
        # K*x = -3d - sum a; Cauchy-Schwarz on sum a against sum a^2 = d^2 - s.
        # With f*x = d + a_0 = c fixed, the same bound on a_1..a_k.  Both
        # regions are convex in d, so infeasibility at +-61 bounds the scan.
        q = d * d - self_intersection
        if q < 0 or (3 * d + kt[0]) ** 2 > k * q:
            return False
        if ft:
            a0 = ft[0] - d
            q1 = q - a0 * a0
            return q1 >= 0 and (3 * d + kt[0] + a0) ** 2 <= (k - 1) * q1
        return True

    if feasible(61) or feasible(-61):
        raise ValueError("solver scan range does not bound the solutions")
    out = []
    for d in range(-60, 61):
        if not feasible(d):
            continue
        q = d * d - self_intersection
        rows = [[-c for c in u[1:]] for u, _ in planes]
        need = [t - u[0] * d for u, t in planes]
        norms = [[0] * (k + 1) for _ in rows]
        for j, row in enumerate(rows):
            for i in range(k - 1, -1, -1):
                norms[j][i] = norms[j][i + 1] + row[i] * row[i]
        a = [0] * k

        def rec(i, qrem, need):
            if i == k:
                if qrem == 0 and not any(need):
                    out.append(from_plane(model, (d,) + tuple(a)))
                return
            for j in range(len(rows)):
                if need[j] * need[j] > norms[j][i] * qrem:
                    return
            b = isqrt(qrem)
            for val in range(-b, b + 1):
                a[i] = val
                rec(i + 1, qrem - val * val, [need[j] - rows[j][i] * val for j in range(len(rows))])
            a[i] = 0

        rec(0, q, need)
    return sorted(out)


def lines(model, fiber_value=None):
    cons = [(canonical(model), -1)]
    if fiber_value is not None:
        cons.append((fiber(model), fiber_value))
    return solve(model, -1, cons)


def conics(model):
    return solve(model, 0, [(canonical(model), -2)])


def roots(model, orth):
    named = {"K": canonical, "f": fiber, "b": base}
    return solve(model, -2, [(named[o](model), 0) for o in orth])


# ---------------------------------------------------------------------------
# small exact linear algebra


def matrix_rank(rows) -> int:
    m = [[Fraction(x) for x in row] for row in rows if any(row)]
    r = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c] / m[r][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def hilbert_polynomial_ring(nvars: int, d: int) -> int:
    return comb(d + nvars - 1, nvars - 1)


# ---------------------------------------------------------------------------
# univariate polynomials over Q as ascending Fraction lists


def ptrim(p):
    p = [Fraction(c) for c in p]
    while p and p[-1] == 0:
        p.pop()
    return p


def pmul(p, q):
    if not p or not q:
        return []
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return ptrim(out)


def padd(p, q):
    n = max(len(p), len(q))
    return ptrim([(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n)])


def pscale(k, p):
    return ptrim([Fraction(k) * c for c in p])


def ppow(p, e):
    out = [Fraction(1)]
    for _ in range(e):
        out = pmul(out, p)
    return out


def peval(p, x) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def pprod(ps):
    out = [Fraction(1)]
    for p in ps:
        out = pmul(out, p)
    return out


def sheet_cover(sheets):
    """u-coefficients (ascending, monic top dropped) of prod (u - p_i(t))."""
    up = [[Fraction(1)]]
    for p in sheets:
        new = [[] for _ in range(len(up) + 1)]
        for i, c in enumerate(up):
            new[i + 1] = padd(new[i + 1], c)
            new[i] = padd(new[i], pscale(-1, pmul(c, p)))
        up = new
    return up[:-1]


def sheet_resultant(sheets):
    """Res_u(F, dF/du) for F = prod (u - p_i): (-1)^(n(n-1)/2) prod_{i<j} (p_i - p_j)^2."""
    n = len(sheets)
    diffs = [padd(sheets[i], pscale(-1, sheets[j])) for i in range(n) for j in range(i + 1, n)]
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return pscale(sign, pprod([pmul(d, d) for d in diffs]))


def binomial_resultant(n, g):
    """Res_u(F, dF/du) for F = u^n - g(t): prod_i n r_i^(n-1) = n^n (prod_i r_i)^(n-1).

    The roots r_i of u^n - g have product (-1)^(n+1) g.
    """
    prod_roots = pscale((-1) ** (n + 1), g)
    return pscale(n ** n, ppow(prod_roots, n - 1))
