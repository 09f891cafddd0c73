"""Exact univariate polynomials over Q, plus polynomials in u over Q[t].

QPoly is a dense immutable coefficient tuple (ascending powers) of
Fractions.  The bivariate layer needed for spectral covers is kept as
plain lists of QPoly coefficients (ascending powers of u) manipulated by
the u_* functions; covers are monic in u so nothing fancier is needed.

Two independent resultant routes are provided on purpose:

* ``u_resultant_sylvester`` -- determinant of the Sylvester matrix over
  Q[t], computed fraction-free (Bareiss, exact divisions only);
* ``u_resultant_prs`` -- the subresultant pseudo-remainder sequence.

They are cross-checked against each other in the test suite.

Factoring over Q (``irreducible_factors``) is Zassenhaus' method over Z on
each part of the squarefree decomposition: Berlekamp's algorithm modulo a
small prime, Hensel lifting, and recombination of the modular factors.
It makes no random choice, so equal inputs take equal steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd as int_gcd, isqrt


def _trim(coeffs: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    k = len(coeffs)
    while k > 0 and coeffs[k - 1] == 0:
        k -= 1
    return coeffs[:k]


@dataclass(frozen=True)
class QPoly:
    coeffs: tuple[Fraction, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _trim(tuple(Fraction(c) for c in self.coeffs)))

    # -- constructors ------------------------------------------------------
    @staticmethod
    def const(c) -> "QPoly":
        return QPoly((Fraction(c),))

    @staticmethod
    def zero() -> "QPoly":
        return QPoly(())

    @staticmethod
    def one() -> "QPoly":
        return QPoly((Fraction(1),))

    @staticmethod
    def x() -> "QPoly":
        return QPoly((Fraction(0), Fraction(1)))

    # -- basic structure ----------------------------------------------------
    @property
    def degree(self) -> int:
        """Degree; the zero polynomial gets -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def lc(self) -> Fraction:
        if self.is_zero():
            raise ZeroDivisionError("leading coefficient of the zero polynomial")
        return self.coeffs[-1]

    def __call__(self, x) -> Fraction:
        x = Fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    # -- ring operations -----------------------------------------------------
    def __add__(self, other: "QPoly") -> "QPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return QPoly(tuple(out))

    def __neg__(self) -> "QPoly":
        return QPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "QPoly") -> "QPoly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return QPoly(tuple(Fraction(other) * c for c in self.coeffs))
        if self.is_zero() or other.is_zero():
            return QPoly(())
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return QPoly(tuple(out))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "QPoly":
        if k < 0:
            raise ValueError("negative power")
        out = QPoly.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def divmod(self, other: "QPoly") -> tuple["QPoly", "QPoly"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return QPoly(()), self
        quo = [Fraction(0)] * (dq + 1)
        olc = other.lc()
        for k in range(dq, -1, -1):
            if len(rem) < len(other.coeffs) + k:
                continue
            c = rem[len(other.coeffs) + k - 1] / olc
            if c == 0:
                continue
            quo[k] = c
            for j, oc in enumerate(other.coeffs):
                rem[j + k] -= c * oc
        return QPoly(tuple(quo)), QPoly(tuple(rem))

    def exact_div(self, other: "QPoly") -> "QPoly":
        q, r = self.divmod(other)
        if not r.is_zero():
            raise ArithmeticError("division was not exact")
        return q

    def derivative(self) -> "QPoly":
        return QPoly(tuple(Fraction(i) * c for i, c in enumerate(self.coeffs) if i))

    def monic(self) -> "QPoly":
        if self.is_zero():
            return self
        lc = self.lc()
        return QPoly(tuple(c / lc for c in self.coeffs))

    # -- number-theoretic helpers -------------------------------------------
    def primitive_int(self) -> tuple[int, ...]:
        """Integer-primitive version with positive leading coefficient."""
        if self.is_zero():
            return ()
        den = 1
        for c in self.coeffs:
            den = den * c.denominator // int_gcd(den, c.denominator)
        ints = [int(c * den) for c in self.coeffs]
        g = 0
        for v in ints:
            g = int_gcd(g, abs(v))
        ints = [v // g for v in ints]
        if ints[-1] < 0:
            ints = [-v for v in ints]
        return tuple(ints)

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*t" if c != 1 else "t")
            else:
                parts.append(f"{c}*t^{i}" if c != 1 else f"t^{i}")
        return " + ".join(parts)


def qpoly_gcd(a: QPoly, b: QPoly) -> QPoly:
    """Monic gcd over Q."""
    while not b.is_zero():
        a, b = b, a.divmod(b)[1]
    return a.monic() if not a.is_zero() else a


def squarefree_decomposition(p: QPoly) -> list[tuple[QPoly, int]]:
    """Yun's algorithm: p = c * prod g_i^i with the g_i squarefree, coprime.

    Returns the nontrivial (g_i monic, i) pairs in increasing multiplicity.
    """
    if p.is_zero() or p.degree == 0:
        return []
    p = p.monic()
    d = p.derivative()
    g0 = qpoly_gcd(p, d)
    w = p.exact_div(g0)
    y = d.exact_div(g0)
    out: list[tuple[QPoly, int]] = []
    i = 1
    while w.degree > 0:
        z = y - w.derivative()
        g = qpoly_gcd(w, z)  # monic; equals 1 when nothing has multiplicity i
        if g.degree > 0:
            out.append((g, i))
        w = w.exact_div(g)
        y = z.exact_div(g)
        i += 1
    return out


def factor_multiplicities(p: QPoly) -> list[tuple[QPoly, int]]:
    """Irreducible factors over Q with their multiplicities, sorted by (degree, coeffs).

    Each part of the squarefree decomposition is factored once; the parts
    are coprime, so no factor is listed twice.
    """
    out = [(f, mult) for g, mult in squarefree_decomposition(p) for f in irreducible_factors(g)]
    return sorted(out, key=lambda fm: (fm[0].degree, fm[0].coeffs))


def rational_roots(p: QPoly) -> list[tuple[Fraction, int]]:
    """Rational roots with multiplicities, ascending by root: the linear factors over Q."""
    return linear_roots(factor_multiplicities(p))


def linear_roots(factors: list[tuple[QPoly, int]]) -> list[tuple[Fraction, int]]:
    """(root, multiplicity) of the linear factors in a factor_multiplicities list, ascending."""
    return sorted((-f.coeffs[0] / f.coeffs[1], mult) for f, mult in factors if f.degree == 1)


# ---------------------------------------------------------------------------
# polynomials in u with QPoly coefficients (ascending powers of u)

UPoly = list  # list[QPoly]


def u_trim(f: UPoly) -> UPoly:
    k = len(f)
    while k > 0 and f[k - 1].is_zero():
        k -= 1
    return f[:k]


def u_degree(f: UPoly) -> int:
    f = u_trim(f)
    return len(f) - 1


def u_lc(f: UPoly) -> QPoly:
    f = u_trim(f)
    if not f:
        raise ZeroDivisionError("leading coefficient of zero")
    return f[-1]


def u_scale(f: UPoly, c: QPoly) -> UPoly:
    return u_trim([c * a for a in f])


def u_sub(f: UPoly, g: UPoly) -> UPoly:
    out = [QPoly.zero()] * max(len(f), len(g))
    for i, a in enumerate(f):
        out[i] = out[i] + a
    for i, b in enumerate(g):
        out[i] = out[i] - b
    return u_trim(out)


def u_shift(f: UPoly, k: int) -> UPoly:
    return u_trim([QPoly.zero()] * k + list(f))


def u_derivative(f: UPoly) -> UPoly:
    return u_trim([QPoly.const(i) * c for i, c in enumerate(f)][1:])


def u_exact_div_scalar(f: UPoly, c: QPoly) -> UPoly:
    return u_trim([a.exact_div(c) for a in f])


def u_prem(a: UPoly, b: UPoly) -> UPoly:
    """Pseudo-remainder: rem(lc(b)^(deg a - deg b + 1) * a, b) over Q[t]."""
    da, db = u_degree(a), u_degree(b)
    if db < 0:
        raise ZeroDivisionError("pseudo-division by zero")
    if da < db:
        return u_trim(list(a))
    lb = u_lc(b)
    r = list(a)
    e = da - db + 1
    while True:
        dr = u_degree(r)
        if dr < db or dr < 0:
            break
        lr = u_lc(r)
        r = u_sub(u_scale(r, lb), u_scale(u_shift(b, dr - db), lr))
        e -= 1
    return u_trim(u_scale(r, lb ** e))


def u_resultant_sylvester(f: UPoly, g: UPoly) -> QPoly:
    """Resultant with respect to u via the Sylvester determinant (Bareiss)."""
    f, g = u_trim(list(f)), u_trim(list(g))
    n, m = u_degree(f), u_degree(g)
    if n < 0 or m < 0:
        return QPoly.zero()
    if n == 0 and m == 0:
        return QPoly.one()
    if n == 0:
        return f[0] ** m
    if m == 0:
        return g[0] ** n
    size = n + m
    fd = [f[n - i] if 0 <= n - i < len(f) else QPoly.zero() for i in range(n + 1)]
    gd = [g[m - i] if 0 <= m - i < len(g) else QPoly.zero() for i in range(m + 1)]
    mat = []
    for r in range(m):
        row = [QPoly.zero()] * size
        for i, c in enumerate(fd):
            row[r + i] = c
        mat.append(row)
    for r in range(n):
        row = [QPoly.zero()] * size
        for i, c in enumerate(gd):
            row[r + i] = c
        mat.append(row)
    # fraction-free Bareiss elimination
    sign = 1
    prev = QPoly.one()
    for k in range(size - 1):
        if mat[k][k].is_zero():
            swap = None
            for i in range(k + 1, size):
                if not mat[i][k].is_zero():
                    swap = i
                    break
            if swap is None:
                return QPoly.zero()
            mat[k], mat[swap] = mat[swap], mat[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                num = mat[i][j] * mat[k][k] - mat[i][k] * mat[k][j]
                mat[i][j] = num.exact_div(prev)
            mat[i][k] = QPoly.zero()
        prev = mat[k][k]
    det = mat[size - 1][size - 1]
    return det if sign == 1 else -det


def u_resultant_prs(f: UPoly, g: UPoly) -> QPoly:
    """Resultant via the subresultant pseudo-remainder sequence."""
    a, b = u_trim(list(f)), u_trim(list(g))
    da, db = u_degree(a), u_degree(b)
    if da < 0 or db < 0:
        return QPoly.zero()
    s = 1
    if da < db:
        a, b = b, a
        da, db = db, da
        if (da % 2) == 1 and (db % 2) == 1:
            s = -s
    if db == 0:
        return (b[0] ** da) * (1 if s == 1 else -1)
    gg = QPoly.one()
    hh = QPoly.one()
    while True:
        da, db = u_degree(a), u_degree(b)
        delta = da - db
        if (da % 2) == 1 and (db % 2) == 1:
            s = -s
        r = u_prem(a, b)
        a = b
        b = u_exact_div_scalar(r, gg * hh ** delta) if r else []
        gg = u_lc(a)
        if delta == 0:
            pass  # h unchanged
        elif delta == 1:
            hh = gg
        else:
            hh = (gg ** delta).exact_div(hh ** (delta - 1))
        if not b:
            return QPoly.zero()
        if u_degree(b) == 0:
            dA = u_degree(a)
            num = b[0] ** dA
            if dA <= 1:
                res = num * (hh ** (1 - dA))
            else:
                res = num.exact_div(hh ** (dA - 1))
            return res if s == 1 else -res


def irreducible_factors(p: QPoly) -> list[QPoly]:
    """Irreducible factors over Q, integer-primitive, sorted by (degree, coeffs).

    Each part of the squarefree decomposition is factored over Z by
    Zassenhaus' method, which makes no random choice.  Every factor has a
    positive leading coefficient.  Multiplicities are dropped; callers
    wanting them use factor_multiplicities.
    """
    out = [
        QPoly(tuple(f))
        for g, _ in squarefree_decomposition(p)
        for f in _factor_squarefree(list(g.primitive_int()))
    ]
    return sorted(out, key=lambda q: (q.degree, q.coeffs))


# ---------------------------------------------------------------------------
# factoring over Z (von zur Gathen and Gerhard, Modern Computer Algebra,
# ch. 14-16).  Integer polynomials are lists of ints in ascending powers;
# reduced modulo m, their coefficients lie in [0, m) with no trailing zeros.


def _mod(a: list[int], m: int) -> list[int]:
    out = [c % m for c in a]
    while out and not out[-1]:
        out.pop()
    return out


def _add(a: list[int], b: list[int]) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return out


def _sub(a: list[int], b: list[int]) -> list[int]:
    return _add(a, [-c for c in b])


def _mul(a: list[int], b: list[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _divmod_mod(a: list[int], b: list[int], m: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder modulo m; lc(b) must be a unit mod m."""
    rem = list(a)
    db = len(b) - 1
    inv = pow(b[-1], -1, m)
    quo = [0] * max(len(rem) - db, 0)
    for k in range(len(quo) - 1, -1, -1):
        c = rem[k + db] * inv % m
        quo[k] = c
        if c:
            for j in range(db):
                rem[k + j] -= c * b[j]
    return _mod(quo, m), _mod(rem[:db], m)


def _monic_mod(a: list[int], m: int) -> list[int]:
    inv = pow(a[-1], -1, m)
    return _mod([c * inv for c in a], m)


def _gf_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic gcd over F_p."""
    while b:
        a, b = b, _divmod_mod(a, b, p)[1]
    return _monic_mod(a, p)


def _gf_bezout(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """s, t with s a + t b = 1 over F_p, for coprime a and b."""
    r0, r1, s0, s1, t0, t1 = a, b, [1], [], [], [1]
    while r1:
        q, r = _divmod_mod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _mod(_sub(s0, _mul(q, s1)), p)
        t0, t1 = t1, _mod(_sub(t0, _mul(q, t1)), p)
    inv = pow(r0[0], -1, p)  # the gcd is a nonzero constant
    return _mod([c * inv for c in s0], p), _mod([c * inv for c in t0], p)


def _gf_nullspace(mat: list[list[int]], p: int) -> list[list[int]]:
    """Basis of {v : mat v = 0} over F_p, one vector per free column, in column order."""
    rows = [list(r) for r in mat]
    ncols = len(rows[0])
    pivots: list[int] = []
    for col in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][col], -1, p)
        rows[r] = [x * inv % p for x in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[col]:
                c = row[col]
                rows[i] = [(x - c * y) % p for x, y in zip(row, rows[r])]
        pivots.append(col)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        v = [0] * ncols
        v[free] = 1
        for r, col in enumerate(pivots):
            v[col] = -rows[r][free] % p
        basis.append(v)
    return basis


def _berlekamp(f: list[int], p: int) -> list[list[int]]:
    """Monic irreducible factors over F_p of a monic squarefree f (Berlekamp)."""
    n = len(f) - 1
    xp, base, e = [1], [0, 1], p
    while e:
        if e & 1:
            xp = _divmod_mod(_mul(xp, base), f, p)[1]
        e >>= 1
        if e:
            base = _divmod_mod(_mul(base, base), f, p)[1]
    # row i of Q - I is x^(i p) - x^i mod f.  A g of degree < n satisfies
    # g^p = g mod f exactly when its coefficient vector is in the left kernel
    # of Q - I; the kernel's dimension is the number of irreducible factors,
    # and gcd(f, g - s) over s in F_p splits f.
    rows, power = [], [1]
    for i in range(n):
        row = power + [0] * (n - len(power))
        row[i] -= 1
        rows.append([c % p for c in row])
        power = _divmod_mod(_mul(power, xp), f, p)[1]
    kernel = _gf_nullspace([list(col) for col in zip(*rows)], p)
    factors = [f]
    for v in kernel[1:]:  # kernel[0] is the constant 1
        if len(factors) == len(kernel):
            break
        split = []
        for g in factors:
            for s in range(p):
                if len(g) <= 2:
                    break
                h = _gf_gcd(g, _mod(_sub(v, [s]), p), p)
                if len(h) == len(g):
                    break
                if len(h) > 1:
                    split.append(h)
                    g = _divmod_mod(g, h, p)[0]
            split.append(g)
        factors = split
    return factors


def _hensel_step(f, g, h, s, t, m):
    """From f = g h and s g + t h = 1 mod m, h monic, the same mod m^2 (MCA 14.30)."""
    mm = m * m
    e = _mod(_sub(f, _mul(g, h)), mm)
    q, r = _divmod_mod(_mul(s, e), h, mm)
    g = _mod(_add(g, _add(_mul(t, e), _mul(q, g))), mm)
    h = _mod(_add(h, r), mm)
    b = _mod(_sub(_add(_mul(s, g), _mul(t, h)), [1]), mm)
    c, d = _divmod_mod(_mul(s, b), h, mm)
    s = _mod(_sub(s, d), mm)
    t = _mod(_sub(t, _add(_mul(t, b), _mul(c, g))), mm)
    return g, h, s, t


def _hensel_lift(f: list[int], factors: list[list[int]], p: int, m: int) -> list[list[int]]:
    """Monic g_i = factors[i] mod p with f = lc(f) prod g_i mod m, for m = p^(2^k).

    The factors are lifted down a balanced tree (MCA 15.17): f = g h with g
    carrying the first half and lc(f), h the second half.
    """
    if len(factors) == 1:
        return [_monic_mod(f, m)]
    k = len(factors) // 2
    g, h = _mod([f[-1]], p), [1]
    for a in factors[:k]:
        g = _mod(_mul(g, a), p)
    for a in factors[k:]:
        h = _mod(_mul(h, a), p)
    s, t = _gf_bezout(g, h, p)
    q = p
    while q < m:
        g, h, s, t = _hensel_step(f, g, h, s, t, q)
        q *= q
    return _hensel_lift(g, factors[:k], p, m) + _hensel_lift(h, factors[k:], p, m)


def _primitive(a: list[int]) -> list[int]:
    g = 0
    for c in a:
        g = int_gcd(g, c)
    if a[-1] < 0:
        g = -g
    return [c // g for c in a]


def _factor_squarefree(f: list[int]) -> list[list[int]]:
    """Irreducible factors over Z of a squarefree primitive f with lc(f) > 0 (MCA 15.19).

    The prime is the smallest one that divides neither lc(f) nor the
    discriminant, so f mod p is squarefree of full degree.  Its factors
    mod p are lifted past 2 B, where B = sqrt(n+1) 2^n |f|_max lc(f)
    bounds |g|_1 |h|_1 for every g h = lc(f) f* with f* | f.  Subsets of
    the lifted factors are tried in a fixed order, smallest first: a subset
    is a true factor when the product of the 1-norms of b prod(subset) and
    b prod(rest), taken in the symmetric range mod p^k, is at most B.
    """
    n = len(f) - 1
    if n == 1:
        return [f]
    p = 1
    while True:
        p += 1
        if any(p % d == 0 for d in range(2, isqrt(p) + 1)) or f[-1] % p == 0:
            continue
        fp = _monic_mod(f, p)
        if len(_gf_gcd(fp, _mod([i * c for i, c in enumerate(fp)][1:], p), p)) == 1:
            break
    modular = _berlekamp(fp, p)
    if len(modular) == 1:
        return [f]
    bound = (isqrt(n + 1) + 1) * 2 ** n * max(abs(c) for c in f) * f[-1]
    m = p
    while m <= 2 * bound:
        m *= m
    lifted = _hensel_lift(f, modular, p, m)

    def scaled(b, indices):
        acc = [b]
        for i in indices:
            acc = _mod(_mul(acc, lifted[i]), m)
        return [c - m if 2 * c > m else c for c in acc]

    out = []
    s = 1
    while 2 * s <= len(lifted):
        b = f[-1]
        for subset in combinations(range(len(lifted)), s):
            g = scaled(b, subset)
            # g(0) h(0) = b f(0) for a true factor g
            if f[0] and (not g[0] or b * f[0] % g[0]):
                continue
            rest = [i for i in range(len(lifted)) if i not in subset]
            h = scaled(b, rest)
            if sum(map(abs, g)) * sum(map(abs, h)) <= bound:
                out.append(_primitive(g))
                f = _primitive(h)
                lifted = [lifted[i] for i in rest]
                break
        else:
            s += 1
    out.append(f)
    return out
