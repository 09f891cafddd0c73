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
solves the system exactly.

Coordinates i >= 1 with the same bound and the same column in every
constraint row can be swapped for each other without changing the
equation, the constraints or the box.  Inside each maximal run of such
adjacent coordinates the sweep keeps only non-increasing rows: x_i is
capped at x_{i-1} when the two are in the same run.  Every solution is a
permutation within the runs of exactly one such representative, and the
three cuts are necessary conditions, so they pass the representative
whenever they pass a solution.  Each representative is then expanded into
its distinct permutations within the runs, and the result is sorted once.
On the dP8 conics, 15 representatives stand for 2160 classes.

``check_work_limits`` bounds rank, box size and constraint ranges, and
refuses a system past them before any sweep starts.
``_MAX_LAYER_ROWS`` caps both the candidates of one layer and the number
of solutions the representatives expand into, counted before any
permutation is built.
"""

from __future__ import annotations

from itertools import groupby
from math import factorial, isqrt

from .errors import EnumerationBoundError

_MAX_RANK = 66
_MAX_BOUND = 1 << 20
_MAX_LAYER_ROWS = 30_000_000


def check_work_limits(s: int, bounds, a_matrix, targets) -> None:
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


def _arrangement_count(seg: tuple[int, ...]) -> int:
    """Number of distinct permutations of a non-increasing tuple (a multinomial)."""
    n = factorial(len(seg))
    for _, equal in groupby(seg):
        n //= factorial(len(tuple(equal)))
    return n


def _arrangements(seg: tuple[int, ...], memo: dict) -> list[tuple[int, ...]]:
    """Every distinct permutation of a non-increasing tuple, each once."""
    if len(seg) <= 1:
        return [seg]
    out = memo.get(seg)
    if out is None:
        out = []
        for k, x in enumerate(seg):
            if k and seg[k - 1] == x:
                continue
            out.extend((x,) + t for t in _arrangements(seg[:k] + seg[k + 1:], memo))
        memo[seg] = out
    return out


def enumerate_diag(
    s: int,
    bounds: list[int],
    a_matrix: list[list[int]],
    targets: list[int],
) -> list[tuple[int, ...]]:
    """All integer vectors in the box solving the quadratic/linear system.

    Returns lexicographically sorted tuples of ints.
    """
    check_work_limits(s, bounds, a_matrix, targets)
    r = len(bounds)
    # square budget of the unassigned coordinates i.. (coordinate 0 is the + sign)
    sq_cap = [0] * (r + 1)
    for i in range(r - 1, 0, -1):
        sq_cap[i] = sq_cap[i + 1] + bounds[i] * bounds[i]
    # per depth: (column of A, [(reach, sum of squares) of the tail] per row,
    # whether the coordinate is interchangeable with the one before it)
    steps = []
    for i in range(r):
        tails = [
            (sum(abs(c) * b for c, b in zip(row[i + 1:], bounds[i + 1:])),
             sum(c * c for c in row[i + 1:]))
            for row in a_matrix
        ]
        col = tuple(row[i] for row in a_matrix)
        tied = i >= 2 and bounds[i] == bounds[i - 1] and col == steps[-1][0]
        steps.append((col, tails, tied))
    # maximal runs of interchangeable coordinates, as (start, stop) slices
    runs = []
    for i, (_, _, tied) in enumerate(steps):
        if tied:
            if runs and runs[-1][1] == i:
                runs[-1] = (runs[-1][0], i + 1)
            else:
                runs.append((i - 1, i + 1))

    layer = [((), -s, tuple(targets))]
    for i, (col, tails, tied) in enumerate(steps):
        cap = sq_cap[i + 1]
        sign = 1 if i == 0 else -1
        candidates = 0
        nxt = []
        for prefix, q, need in layer:
            b = bounds[0] if i == 0 else min(bounds[i], isqrt(q))
            top = min(b, prefix[-1]) if tied else b
            if top < -b:
                continue
            candidates += top + b + 1
            if candidates > _MAX_LAYER_ROWS:
                raise EnumerationBoundError("enumeration bound exceeded: layer too large")
            for x in range(-b, top + 1):
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
    reps = [prefix for prefix, _, _ in layer]
    expanded = 0
    for v in reps:
        count = 1
        for lo, hi in runs:
            count *= _arrangement_count(v[lo:hi])
        expanded += count
        if expanded > _MAX_LAYER_ROWS:
            raise EnumerationBoundError("enumeration bound exceeded: layer too large")
    memo: dict = {}
    out = []
    for v in reps:
        rows = [()]
        pos = 0
        for lo, hi in runs:
            head = v[pos:lo]
            rows = [row + head + p for row in rows for p in _arrangements(v[lo:hi], memo)]
            pos = hi
        tail = v[pos:]
        out.extend(row + tail for row in rows)
    out.sort()
    return out
