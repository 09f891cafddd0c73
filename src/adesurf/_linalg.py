"""Small exact linear-algebra helpers over Fraction.

Everything here works on lists of lists of Fractions and is sized for
desk-scale lattices and graded pieces (dimensions in the tens to low
hundreds), so plain Gaussian elimination is the right tool.
"""

from __future__ import annotations

from fractions import Fraction

Matrix = list[list[Fraction]]


def frac_matrix(rows) -> Matrix:
    return [[Fraction(x) for x in row] for row in rows]


def rref(mat: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row-echelon form; returns (R, pivot column indices)."""
    m = [row[:] for row in mat]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot_row = None
        for i in range(r, rows):
            if m[i][c] != 0:
                pivot_row = i
                break
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


def rank(mat: Matrix) -> int:
    if not mat:
        return 0
    return len(rref(mat)[1])


def solve(a: Matrix, b: list[Fraction]) -> list[Fraction] | None:
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


def nullspace(mat: Matrix) -> list[list[Fraction]]:
    """Basis of the right kernel of `mat` (deterministic order)."""
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


def signature_symmetric(gram: Matrix) -> tuple[int, int, int]:
    """Sylvester signature (n_plus, n_minus, n_zero) of a symmetric matrix.

    Uses congruence elimination; when a diagonal entry vanishes but its row
    does not, a hyperbolic row/column addition makes it usable.
    """
    m = [row[:] for row in gram]
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
            f = m[i][k] / d
            if f != 0:
                for c in range(n):
                    m[i][c] -= f * m[k][c]
                for r in range(n):
                    m[r][i] -= f * m[r][k]
        used[k] = True
    return pos, neg, zero

