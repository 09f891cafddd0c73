"""Bounded integer-vector enumeration kernel.

This is the hot numeric path behind line and root enumeration.  The problem
is always posed in a diagonalized basis: find every integer vector v with

    v_0^2 - v_1^2 - ... - v_{r-1}^2 == s,
    A @ v == targets          (a few integer linear constraints),
    |v_i| <= bounds[i].

The sweep extends partial assignments one coordinate at a time, in exact
Python ints.  A partial row carries its remaining square budget
q_rem = v_0^2 - s - (v_1^2 + ... + v_i^2), which the unassigned coordinates
must use up exactly, and for each constraint the value still needed from
them.  Three cuts keep the layers small:

* each coordinate i >= 1 ranges over |v_i| <= min(bounds[i], isqrt(q_rem));
* linear reach: |need| <= sum over unassigned k of |a_k| * bounds[k];
* Cauchy-Schwarz: need^2 <= (sum over unassigned k of a_k^2) * q_rem.

At full depth the reach and the budget are zero, so every surviving row
solves the system exactly.  Rows are extended in ascending order from a
sorted layer, so the result comes out lexicographically sorted.

``check_int64_safety`` keeps its historical name; it is the work limit on
rank, box size and constraint ranges, refused before any sweep starts.
"""

from __future__ import annotations

from math import isqrt

from .errors import EnumerationBoundError

_MAX_RANK = 66
_MAX_BOUND = 1 << 20
_MAX_LAYER_ROWS = 30_000_000


def check_int64_safety(s: int, bounds, a_matrix, targets) -> None:
    r = len(bounds)
    if r == 0 or r > _MAX_RANK:
        raise EnumerationBoundError(f"enumeration bound exceeded: rank {r}")
    if any(b < 0 or b > _MAX_BOUND for b in bounds):
        raise EnumerationBoundError("enumeration bound exceeded: coefficient box too large")
    sq = sum(int(b) * int(b) for b in bounds)
    if sq > 1 << 50:
        raise EnumerationBoundError("enumeration bound exceeded: square budget too large")
    if abs(int(s)) > 1 << 50:
        raise EnumerationBoundError("enumeration bound exceeded: self-intersection target")
    for row, t in zip(a_matrix, targets):
        reach = sum(abs(int(c)) * int(b) for c, b in zip(row, bounds))
        if reach > 1 << 50 or abs(int(t)) > 1 << 50:
            raise EnumerationBoundError("enumeration bound exceeded: linear constraint range")


def enumerate_diag(
    s: int,
    bounds: list[int],
    a_matrix: list[list[int]],
    targets: list[int],
) -> list[tuple[int, ...]]:
    """All integer vectors in the box solving the quadratic/linear system.

    Returns lexicographically sorted tuples of ints.
    """
    check_int64_safety(s, bounds, a_matrix, targets)
    r = len(bounds)
    # square budget of the unassigned coordinates i.. (coordinate 0 is the + sign)
    sq_cap = [0] * (r + 1)
    for i in range(r - 1, 0, -1):
        sq_cap[i] = sq_cap[i + 1] + bounds[i] * bounds[i]
    # per depth: (column of A, [(reach, sum of squares) of the tail] per row)
    steps = []
    for i in range(r):
        tails = [
            (sum(abs(c) * b for c, b in zip(row[i + 1:], bounds[i + 1:])),
             sum(c * c for c in row[i + 1:]))
            for row in a_matrix
        ]
        steps.append((tuple(row[i] for row in a_matrix), tails))

    layer = [((), -s, tuple(targets))]
    for i, (col, tails) in enumerate(steps):
        cap = sq_cap[i + 1]
        sign = 1 if i == 0 else -1
        candidates = 0
        nxt = []
        for prefix, q, need in layer:
            b = bounds[0] if i == 0 else min(bounds[i], isqrt(q))
            candidates += 2 * b + 1
            if candidates > _MAX_LAYER_ROWS:
                raise EnumerationBoundError("enumeration bound exceeded: layer too large")
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
