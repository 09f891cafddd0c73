"""Factoring over Z by Zassenhaus' method, for ``qpoly.factor_multiplicities``.

Berlekamp's algorithm modulo a small prime, Hensel lifting, and
recombination of the modular factors (von zur Gathen and Gerhard, Modern
Computer Algebra, ch. 14-16).  Integer polynomials are lists of ints in
ascending powers; reduced modulo m, their coefficients lie in [0, m) with
no trailing zeros.  It makes no random choice, so equal inputs take equal
steps.  ``qpoly`` imports this module on the first factoring call, so a
process that never factors does not compile it.
"""

from __future__ import annotations

from itertools import combinations
from math import isqrt

from .qpoly import _add, _mul, _primitive, _sub


def _mod(a: list[int], m: int) -> list[int]:
    out = [c % m for c in a]
    while out and not out[-1]:
        out.pop()
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
