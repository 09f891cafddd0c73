"""Exact linear algebra: one sparse, fraction-free incremental echelon.

Rank and kernel questions go through ``Echelon``, which keeps integer rows
as ``{column: value}`` dicts and eliminates in the manner of Bareiss's
integer-preserving elimination (Bareiss, Math. Comp. 22, 1968): each step
replaces a row by ``b * row - a * pivot`` with ``a, b`` coprime and then
divides out the row's content, so no rational number is built while
reducing.  The graded pieces of ``localmodel`` produce rows that are a
monomial times a generator, a handful of nonzeros out of tens or hundreds
of columns, so the sparse form does work proportional to those nonzeros.
``Echelon.add`` is the one place where such a row becomes integral; the
ring arithmetic runs on ints, so for the built-in rings ``integer_row``
only drops zeros.  Back-substitution (``Echelon.reduced``) and the kernel
(``nullspace``) stay in integers too and hand back primitive integer rows,
so rank and kernel questions on integer rows build no Fraction.

``linesroots.coefficient_bounds`` uses the same echelon to drop dependent
constraints, to detect inconsistent targets and to invert a Gram matrix
of at most 3x3: it puts the reduced rows over one common denominator, the
lcm of their pivot entries, and computes the box in integers from there.
``signature_symmetric`` counts the inertia of a symmetric matrix by
congruence, which no echelon of its rows gives; its one quotient is an
exact Fraction.

``exact`` is the one rule by which the graded-ring engine and ``qpoly``
store a rational coefficient: an int when it is integral, else a Fraction.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

Coeff = int | Fraction
SparseRow = dict[int, int]


def exact(c) -> Coeff:
    """`c` as an exact rational: an int when it is integral, else a Fraction.

    Arithmetic then runs on Python ints wherever the input is integral;
    ``1 == Fraction(1)`` with equal hashes, so mixed values compare as before.
    """
    if type(c) is int:
        return c
    if isinstance(c, int):
        return int(c)
    if not isinstance(c, Fraction):
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def integer_row(row) -> SparseRow:
    """A dense or ``{column: value}`` row of ints/Fractions as a sparse int row.

    The denominators are cleared once, by their lcm; scaling a row by a
    positive constant changes neither its span nor its kernel.  A row of
    ints only loses its zeros.
    """
    items = row.items() if isinstance(row, dict) else enumerate(row)
    out = {c: v for c, v in items if v}
    if all(type(v) is int for v in out.values()):
        return out
    den = lcm(*(v.denominator for v in out.values()))
    return {c: v.numerator * (den // v.denominator) for c, v in out.items()}


def _cancel(r: SparseRow, p: SparseRow, c: int) -> SparseRow:
    """``b * r - a * p`` with ``a / b = r[c] / p[c]`` in lowest terms, made primitive.

    Column c drops out.  `p[c]` must be positive; `r` belongs to the caller
    and may be changed in place.
    """
    a, b = r[c], p[c]
    g = gcd(a, b)
    a, b = a // g, b // g
    if b != 1:
        r = {k: b * v for k, v in r.items()}
    for k, v in p.items():
        nv = r.get(k, 0) - a * v
        if nv:
            r[k] = nv
        else:
            del r[k]
    g = gcd(*r.values())
    return {k: v // g for k, v in r.items()} if g > 1 else r


class Echelon:
    """Incremental row echelon of integer rows, one stored row per pivot.

    Each stored row is primitive (its entries have gcd 1), has a positive
    leading entry, and its leading column is its pivot; no two stored rows
    share a pivot, so they are linearly independent.
    """

    __slots__ = ("rows",)

    def __init__(self):
        self.rows: dict[int, SparseRow] = {}  # pivot column -> row

    def __len__(self) -> int:
        return len(self.rows)

    def add(self, row) -> bool:
        """Reduce `row` against the pivots; store it and return True if it is independent."""
        r = integer_row(row)
        rows = self.rows
        while r:
            c = min(r)
            p = rows.get(c)
            if p is None:
                if r[c] < 0:
                    r = {k: -v for k, v in r.items()}
                rows[c] = r
                return True
            r = _cancel(r, p, c)
        return False

    def extend(self, rows) -> int:
        """Add each row in turn; the number that were independent."""
        return sum(self.add(row) for row in rows)

    def reduced(self) -> list[tuple[int, SparseRow]]:
        """The reduced row-echelon form as (pivot column, row) pairs by pivot.

        Each row is back-substituted in integers and returned as it is:
        primitive, with a positive pivot entry and no entry in another
        pivot column.  The rational reduced row is the row divided by its
        pivot entry.
        """
        order = sorted(self.rows)
        rows = {c: dict(self.rows[c]) for c in order}
        for i in range(len(order) - 1, -1, -1):
            pc = order[i]
            for qc in order[:i]:
                if rows[qc].get(pc):
                    rows[qc] = _cancel(rows[qc], rows[pc], pc)
        return [(c, rows[c]) for c in order]


def rank(mat) -> int:
    """Rank of a matrix given as dense or sparse rows of ints/Fractions."""
    return Echelon().extend(mat)


def nullspace(mat, ncols: int) -> list[SparseRow]:
    """Basis of the right kernel of `mat`, a matrix with `ncols` columns.

    There is one primitive integer row ``{column: value}`` per free column,
    in column order: positive at its free column, zero at the others, and
    a multiple of minus the reduced rows' entries at the pivots.  The
    reduced form is unique, so the basis is too.
    """
    ech = Echelon()
    ech.extend(mat)
    red = ech.reduced()
    basis = []
    for fc in range(ncols):
        if fc in ech.rows:
            continue
        # the rational vector is 1 at fc and -row[fc] / row[pc] at each pivot
        hits = [(pc, row[pc], row[fc]) for pc, row in red if fc in row]
        den = lcm(*(p for _, p, _ in hits))
        v = {pc: -f * (den // p) for pc, p, f in hits}
        v[fc] = den
        g = gcd(*v.values())
        basis.append({c: v[c] // g for c in sorted(v)})
    return basis


def signature_symmetric(gram) -> tuple[int, int, int]:
    """Sylvester signature (n_plus, n_minus, n_zero) of a symmetric matrix.

    The rows may hold ints or Fractions.  Uses congruence elimination; when
    a diagonal entry vanishes but its row does not, a hyperbolic row/column
    addition makes it usable.  Each elimination factor is an exact
    Fraction, built only for a nonzero entry.
    """
    m = [list(row) for row in gram]
    n = len(m)
    pos = neg = zero = 0
    used = [False] * n
    for _ in range(n):
        k = None
        for i in range(n):
            if not used[i] and m[i][i] != 0:
                k = i
                break
        if k is None:
            # look for an off-diagonal entry to build a nonzero diagonal
            found = None
            for i in range(n):
                if used[i]:
                    continue
                for j in range(n):
                    if not used[j] and j != i and m[i][j] != 0:
                        found = (i, j)
                        break
                if found:
                    break
            if found is None:
                zero += sum(1 for i in range(n) if not used[i])
                break
            i, j = found
            # congruence: e_i -> e_i + e_j
            for c in range(n):
                m[i][c] += m[j][c]
            for r in range(n):
                m[r][i] += m[r][j]
            k = i
        d = m[k][k]
        if d > 0:
            pos += 1
        else:
            neg += 1
        for i in range(n):
            if i == k or used[i]:
                continue
            if m[i][k]:
                f = Fraction(m[i][k], d)
                for c in range(n):
                    m[i][c] -= f * m[k][c]
                for r in range(n):
                    m[r][i] -= f * m[r][k]
        used[k] = True
    return pos, neg, zero
