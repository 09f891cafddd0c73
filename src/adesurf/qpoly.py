"""Exact univariate polynomials over Q, plus polynomials in u over Z[t].

QPoly is a dense immutable coefficient tuple (ascending powers) of exact
rationals: each integral coefficient is a Python int and only the others
are Fractions.  ``1 == Fraction(1)`` with equal hashes, so equality and
sorting do not see the difference.  QPoly is the value at the edges --
parsed, printed, evaluated, added and multiplied -- and every division
runs on integer polynomials: lists of ints in ascending powers, which
``primitive_int`` hands over.

The bivariate layer needed for spectral covers is a list (ascending
powers of u) of such integer polynomials in t.  Two independent
resultant routes are provided on purpose, and the test suite checks each
against the other:

* ``u_resultant_sylvester`` -- determinant of the Sylvester matrix over
  Z[t], computed fraction-free (Bareiss, Math. Comp. 22, 1968);
* ``u_resultant_prs`` -- the subresultant pseudo-remainder sequence
  (Brown and Traub, J. ACM 18, 1971).

Both divide only exactly over Z[t], so ``_exact_quo`` is their only
division and they build no Fraction.

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
# _add and _mul also serve QPoly's coefficient tuples, whose entries may be
# Fractions.


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
    """a / b when the quotient is over Z, as it is for a primitive b dividing a over Q."""
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
# polynomials in u over Z[t]: lists (ascending powers of u) of integer
# polynomials in t, with no zero leading coefficient


def _pow(a: list[int], k: int) -> list[int]:
    out = [1]
    for _ in range(k):
        out = _mul(out, a)
    return out


def u_derivative(f: list[list[int]]) -> list[list[int]]:
    return [[i * c for c in a] for i, a in enumerate(f)][1:]


def u_prem(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    """Pseudo-remainder rem(lc(b)^(deg a - deg b + 1) * a, b) over Z[t], for deg a >= deg b >= 0."""
    db = len(b) - 1
    lb = b[-1]
    r = list(a)
    e = len(a) - db
    while len(r) > db:
        lr = r.pop()
        k = len(r) - db
        r = [_mul(c, lb) for c in r]
        for j in range(db):
            r[k + j] = _sub(r[k + j], _mul(lr, b[j]))
        while r and not r[-1]:
            r.pop()
        e -= 1
    scale = _pow(lb, e)
    return [_mul(c, scale) for c in r]


def u_resultant_sylvester(f: list[list[int]], g: list[list[int]]) -> list[int]:
    """Resultant with respect to u via the Sylvester determinant (Bareiss)."""
    n, m = len(f) - 1, len(g) - 1
    if n < 0 or m < 0:
        return []
    if n == 0:
        return _pow(f[0], m)
    if m == 0:
        return _pow(g[0], n)
    size = n + m
    mat = [[[]] * r + f[::-1] + [[]] * (m - 1 - r) for r in range(m)]
    mat += [[[]] * r + g[::-1] + [[]] * (n - 1 - r) for r in range(n)]
    # fraction-free Bareiss elimination: every quotient by prev is exact over Z[t]
    sign = 1
    prev = [1]
    for k in range(size - 1):
        if not mat[k][k]:
            swap = next((i for i in range(k + 1, size) if mat[i][k]), None)
            if swap is None:
                return []
            mat[k], mat[swap] = mat[swap], mat[k]
            sign = -sign
        top = mat[k]
        pivot = top[k]
        for row in mat[k + 1:]:
            lead = row[k]
            for j in range(k + 1, size):
                row[j] = _exact_quo(_sub(_mul(row[j], pivot), _mul(lead, top[j])), prev)
        prev = pivot
    det = mat[-1][-1]
    return det if sign == 1 else [-c for c in det]


def u_resultant_prs(f: list[list[int]], g: list[list[int]]) -> list[int]:
    """Resultant via the subresultant pseudo-remainder sequence; every quotient is exact over Z[t]."""
    a, b = f, g
    if not a or not b:
        return []
    s = 1
    if len(a) < len(b):
        a, b = b, a
        if len(a) % 2 == 0 and len(b) % 2 == 0:  # both degrees odd
            s = -s
    if len(b) == 1:
        res = _pow(b[0], len(a) - 1)
        return res if s == 1 else [-c for c in res]
    gg = hh = [1]
    while True:
        da, db = len(a) - 1, len(b) - 1
        delta = da - db
        if da % 2 and db % 2:
            s = -s
        r = u_prem(a, b)
        if not r:
            return []
        a = b
        quo = _mul(gg, _pow(hh, delta))
        b = [_exact_quo(c, quo) for c in r]
        gg = a[-1]
        if delta == 1:
            hh = gg
        elif delta > 1:
            hh = _exact_quo(_pow(gg, delta), _pow(hh, delta - 1))
        if len(b) == 1:
            res = _exact_quo(_pow(b[0], db), _pow(hh, db - 1))
            return res if s == 1 else [-c for c in res]
