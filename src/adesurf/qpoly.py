"""Exact univariate polynomials over Q, plus polynomials in u over Q[t].

QPoly is a dense immutable coefficient tuple (ascending powers) of exact
rationals: each integral coefficient is a Python int and only the others
are Fractions, so integer polynomials are handled on ints throughout.
``1 == Fraction(1)`` with equal hashes, so equality and sorting do not see
the difference.  The bivariate layer needed for spectral covers is kept
as plain lists of QPoly coefficients (ascending powers of u) manipulated
by the u_* functions; covers are monic in u so nothing fancier is needed.

Two independent resultant routes are provided on purpose:

* ``u_resultant_sylvester`` -- determinant of the Sylvester matrix over
  Q[t], computed fraction-free (Bareiss, exact divisions only);
* ``u_resultant_prs`` -- the subresultant pseudo-remainder sequence.

Over Z[t] both divide only exactly (Brown and Traub, J. ACM 18, 1971), so
an integer cover's discriminant builds no Fraction.

They are cross-checked against each other in the test suite.

The squarefree decomposition is Yun's algorithm on the primitive integer
part of a polynomial (Yun, SYMSAC 1976), with gcds by the primitive PRS
(Brown, J. ACM 18, 1971) and quotients by exact integer division, so it
builds no Fraction either.  Factoring over Q (``factor_multiplicities``)
hands each of its integer parts to Zassenhaus' method over Z, which lives
in ``_zassenhaus`` and is imported on the first factoring call.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd as int_gcd, lcm

from ._linalg import Coeff, exact


def _trim(coeffs: tuple[Coeff, ...]) -> tuple[Coeff, ...]:
    k = len(coeffs)
    while k > 0 and coeffs[k - 1] == 0:
        k -= 1
    return coeffs[:k]


def _div(a: Coeff, b: Coeff) -> Coeff:
    """a / b as an exact rational: an int when both are ints and b divides a."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        if not r:
            return q
    return exact(Fraction(a, b))


@dataclass(frozen=True)
class QPoly:
    coeffs: tuple[Coeff, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _trim(tuple(map(exact, self.coeffs))))

    # -- constructors ------------------------------------------------------
    @staticmethod
    def const(c) -> "QPoly":
        return QPoly((c,))

    @staticmethod
    def zero() -> "QPoly":
        return QPoly(())

    @staticmethod
    def one() -> "QPoly":
        return QPoly((1,))

    @staticmethod
    def x() -> "QPoly":
        return QPoly((0, 1))

    # -- basic structure ----------------------------------------------------
    @property
    def degree(self) -> int:
        """Degree; the zero polynomial gets -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def lc(self) -> Coeff:
        if self.is_zero():
            raise ZeroDivisionError("leading coefficient of the zero polynomial")
        return self.coeffs[-1]

    def __call__(self, x) -> Coeff:
        x = exact(x)
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    # -- ring operations -----------------------------------------------------
    def __add__(self, other: "QPoly") -> "QPoly":
        return QPoly(_add(self.coeffs, other.coeffs))

    def __neg__(self) -> "QPoly":
        return QPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "QPoly") -> "QPoly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return QPoly(tuple(other * c for c in self.coeffs))
        return QPoly(_mul(self.coeffs, other.coeffs))

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
        quo = [0] * (dq + 1)
        olc = other.lc()
        for k in range(dq, -1, -1):
            if len(rem) < len(other.coeffs) + k:
                continue
            c = _div(rem[len(other.coeffs) + k - 1], olc)
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
        return QPoly(_derivative(self.coeffs))

    def monic(self) -> "QPoly":
        if self.is_zero():
            return self
        lc = self.lc()
        return QPoly(tuple(_div(c, lc) for c in self.coeffs))

    # -- number-theoretic helpers -------------------------------------------
    def primitive_int(self) -> tuple[int, ...]:
        """Integer-primitive version with positive leading coefficient."""
        if self.is_zero():
            return ()
        den = lcm(*(c.denominator for c in self.coeffs))
        return tuple(_primitive([c.numerator * (den // c.denominator) for c in self.coeffs]))

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


# ---------------------------------------------------------------------------
# integer polynomials: lists of ints in ascending powers, no trailing zeros.
# _add, _mul and _derivative also serve QPoly's coefficient tuples, whose
# entries may be Fractions.


def _add(a: list[int], b: list[int]) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return out


def _mul(a: list[int], b: list[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _sub(a: list[int], b: list[int]) -> list[int]:
    out = a + [0] * (len(b) - len(a)) if len(a) < len(b) else list(a)
    for i, c in enumerate(b):
        out[i] -= c
    while out and not out[-1]:
        out.pop()
    return out


def _derivative(a: list[int]) -> list[int]:
    return [i * c for i, c in enumerate(a)][1:]


def _primitive(a: list[int]) -> list[int]:
    """a divided by its content, with positive leading coefficient; a is nonzero."""
    g = 0
    for c in a:
        g = int_gcd(g, c)
    if a[-1] < 0:
        g = -g
    return [c // g for c in a]


def _pseudo_rem(a: list[int], b: list[int]) -> list[int]:
    """A nonzero integer multiple of the remainder of a by b over Q."""
    r = list(a)
    db = len(b) - 1
    lb = b[-1]
    while len(r) > db:
        c = r[-1]
        if c:
            # lc(b) r - c t^k b cancels the top term; dividing lc(b) and c by
            # their gcd first keeps the multiple small
            g = int_gcd(c, lb)
            m, c = lb // g, c // g
            k = len(r) - 1 - db
            r = [m * x for x in r]
            for j in range(db):
                r[k + j] -= c * b[j]
        r.pop()
    while r and not r[-1]:
        r.pop()
    return r


def _gcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd over Z of a and b, not both zero, by the primitive PRS (Brown 1971)."""
    while b:
        a, b = b, _pseudo_rem(a, b)
        if b:
            b = _primitive(b)
    return _primitive(a)


def _exact_quo(a: list[int], b: list[int]) -> list[int]:
    """a / b for a primitive b dividing a over Q; the quotient is then over Z."""
    rem = list(a)
    db = len(b) - 1
    lb = b[-1]
    quo = [0] * (len(a) - db)
    for k in range(len(quo) - 1, -1, -1):
        c, r = divmod(rem[k + db], lb)
        if r:
            raise ArithmeticError("division was not exact")
        quo[k] = c
        if c:
            for j in range(db):
                rem[k + j] -= c * b[j]
    if any(rem[:db]):
        raise ArithmeticError("division was not exact")
    return quo


def squarefree_int(f: list[int]) -> list[tuple[list[int], int]]:
    """Yun's algorithm over Z: f = c * prod g_i^i with the g_i squarefree and coprime.

    Returns the (g_i, i) with deg g_i > 0 in increasing multiplicity, each
    g_i primitive with a positive leading coefficient.  Every gcd is a
    primitive PRS and every quotient an exact division over Z (Gauss's
    lemma), so no rational number is built.
    """
    if len(f) < 2:
        return []
    d = _derivative(f)
    g0 = _gcd(f, d)
    w, y = _exact_quo(f, g0), _exact_quo(d, g0)
    out = []
    i = 1
    while len(w) > 1:
        z = _sub(y, _derivative(w))
        g = _gcd(w, z)  # 1 when nothing has multiplicity i
        if len(g) > 1:
            out.append((g, i))
        w, y = _exact_quo(w, g), _exact_quo(z, g)
        i += 1
    return out


def squarefree_decomposition(p: QPoly) -> list[tuple[QPoly, int]]:
    """Yun's algorithm: p = c * prod g_i^i with the g_i squarefree, coprime.

    Returns the nontrivial (g_i monic, i) pairs in increasing multiplicity.
    The work runs over Z on the primitive integer part of p.
    """
    return [(QPoly(tuple(g)).monic(), i) for g, i in squarefree_int(list(p.primitive_int()))]


def factor_multiplicities(p: QPoly) -> list[tuple[QPoly, int]]:
    """Irreducible factors over Q with their multiplicities, sorted by (degree, coeffs).

    Each part of the squarefree decomposition over Z is factored once by
    Zassenhaus' method, which makes no random choice.  Every factor is
    integer-primitive with a positive leading coefficient.  The parts are
    coprime, so no factor is listed twice.
    """
    from ._zassenhaus import _factor_squarefree

    out = [
        (QPoly(tuple(f)), mult)
        for g, mult in squarefree_int(list(p.primitive_int()))
        for f in _factor_squarefree(g)
    ]
    return sorted(out, key=lambda fm: (fm[0].degree, fm[0].coeffs))


def irreducible_factors(p: QPoly) -> list[QPoly]:
    """The factors of factor_multiplicities(p) without their multiplicities."""
    return [f for f, _ in factor_multiplicities(p)]


def rational_roots(p: QPoly) -> list[tuple[Fraction, int]]:
    """Rational roots with multiplicities, ascending by root: the linear factors over Q."""
    return linear_roots(factor_multiplicities(p))


def linear_roots(factors: list[tuple[QPoly, int]]) -> list[tuple[Fraction, int]]:
    """(root, multiplicity) of the linear factors in a factor_multiplicities list, ascending."""
    return sorted((Fraction(-f.coeffs[0], f.coeffs[1]), mult) for f, mult in factors if f.degree == 1)


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
