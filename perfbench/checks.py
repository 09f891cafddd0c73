"""Correctness checkers.  Each takes plain data and returns None or a problem.

The expected values come from ``oracle`` (computed from the definitions)
or from properties the method must have; nothing here compares against a
stored copy of the program's output.
"""

from __future__ import annotations

from fractions import Fraction

import oracle as O


def _lattice_problems(model, classes, s, constraints):
    if len(set(classes)) != len(classes):
        return "duplicate classes"
    if list(classes) != sorted(classes):
        return "classes not in canonical order"
    for x in classes:
        if len(x) != O.rank(model) or O.pair(model, x, x) != s:
            return f"{x} has self-intersection {O.pair(model, x, x)}, want {s}"
        for u, t in constraints:
            if O.pair(model, x, u) != t:
                return f"{x} pairs {O.pair(model, x, u)} with {u}, want {t}"
    if list(classes) != O.solve(model, s, constraints):
        return f"{len(classes)} classes differ from the exhaustive solution set"
    return None


def check_lines(model, fiber_value, classes):
    cons = [(O.canonical(model), -1)]
    if fiber_value is not None:
        cons.append((O.fiber(model), fiber_value))
    else:
        k = model[1] + (1 if model[0] == "hz" else 0)
        if len(classes) != O.LINE_COUNTS[k]:
            return f"{len(classes)} lines, want {O.LINE_COUNTS[k]}"
        if not O.closed_under(model, classes, O.e_simple_roots(model)):
            return "line set not closed under the simple reflections"
    return _lattice_problems(model, classes, -1, cons)


def check_conics(model, classes):
    if len(classes) != O.CONIC_COUNTS[model[1]]:
        return f"{len(classes)} conic classes, want {O.CONIC_COUNTS[model[1]]}"
    return _lattice_problems(model, classes, 0, [(O.canonical(model), -2)])


def root_expectation(model, orth):
    """(count, type label, rank) of the root system orthogonal to `orth`."""
    kind, n = model
    if orth == "K":
        return O.E_ROOT_COUNTS[n], O.E_TYPE_LABELS[n], n
    if orth == "Kfb":
        return n * (n - 1), f"A{n - 1}", n - 1
    label = {2: "A1xA1", 3: "A3"}.get(n, f"D{n}")
    return 2 * n * (n - 1), label, n


def check_roots(model, orth, datum):
    roots, simple, cartan, label = datum
    count, want_label, want_rank = root_expectation(model, orth)
    if len(roots) != count:
        return f"{len(roots)} roots, want {count}"
    if label != want_label:
        return f"type {label}, want {want_label}"
    named = {"K": O.canonical, "f": O.fiber, "b": O.base}
    problem = _lattice_problems(model, roots, -2, [(named[o](model), 0) for o in orth])
    if problem:
        return problem
    if len(simple) != want_rank or not set(simple) <= set(roots):
        return f"{len(simple)} simple roots, want {want_rank} roots"
    want_cartan = [[-O.pair(model, a, b) for b in simple] for a in simple]
    if [list(r) for r in cartan] != want_cartan:
        return "Cartan matrix does not match the simple roots"
    reached = set()
    for a in simple:
        reached |= O.orbit(model, a, simple)
    if reached != set(roots):
        return "simple reflections of the simple roots do not give every root"
    return None


# ---------------------------------------------------------------------------
# graded ring


def check_degree_check(got, want):
    return None if tuple(got) == tuple(want) else f"check returned {got}, want {want}"


def check_profile(profile, maxdeg, linear_gens):
    """Ideal generated by linear forms: I/mI sits in degree 1, of dim = their rank."""
    want = [0, O.matrix_rank(linear_gens)] + [0] * (maxdeg - 1)
    return None if list(profile) == want else f"profile {profile}, want {want}"


def verify_dims(maxdeg):
    """Closed forms on the cone x^2 = y^2 - z^2 (Hilbert function 2d + 1)."""
    def series(f):
        return [0] + [f(d) for d in range(1, maxdeg + 1)]
    return {
        "ideal": series(lambda d: 2 * d),
        "image": series(lambda d: 2 * d),
        "kernel": series(lambda d: 2 * d - 2),
        "fiber_module": series(lambda d: 4 * d - 2),
    }


def check_verify(report, maxdeg):
    if report["maxdeg"] != maxdeg:
        return f"maxdeg {report['maxdeg']}, want {maxdeg}"
    if not report["checks"] or not all(report["checks"].values()) or report["failures"]:
        return f"failed checks {report['failures']}"
    if report["truncation_warning"]:
        return "truncation warning raised"
    if report["min_generators"] != {"universal_divisor": 2, "cartier_sum": 1}:
        return f"min_generators {report['min_generators']}"
    if tuple(report["split_direct_sum"]) != (-1, 1) or tuple(report["split_pushforward"]) != (0, 0):
        return f"splits {report['split_direct_sum']} / {report['split_pushforward']}"
    want = verify_dims(maxdeg)
    got = {k: list(v) for k, v in report["dims"].items()}
    return None if got == want else f"dims {got}, want {want}"


# ---------------------------------------------------------------------------
# class-level calculations


def curves(model, collision_pairs):
    """The benchmark's own irreducible curves: lines, -2 curves, and f."""
    out = set(O.lines(model))
    for i, j in collision_pairs:
        out.add(O.sub(O.unit(model, f"l{j}"), O.unit(model, f"l{i}")))
    if model[0] == "hz":
        out.add(O.fiber(model))
    return out


def check_effective(model, collision_pairs, target, truth, got):
    status, cert = got
    if not truth:
        return None if status == "not_effective" else f"status {status}, want not_effective"
    if status != "effective":
        return f"status {status}, want effective"
    allowed = curves(model, collision_pairs)
    total = (0,) * O.rank(model)
    for cls, mult in cert:
        if cls not in allowed or mult < 1:
            return f"certificate term {mult} x {cls} is not a curve"
        total = O.add(total, O.scale(mult, cls))
    return None if total == tuple(target) else f"certificate sums to {total}, not {tuple(target)}"


def check_ext(model, collision_pairs, l1, l2, truth, got):
    """got = (ext0, ext1, ext2, index, certificate)."""
    diff = O.sub(l2, l1)
    ext0, ext1, ext2, index, cert = got
    if index != O.euler_char(model, diff):
        return f"index {index}, Riemann-Roch gives {O.euler_char(model, diff)}"
    if (ext0, ext2) != (int(truth), 0) or ext1 != ext0 + ext2 - index:
        return f"ext profile {(ext0, ext1, ext2, index)}"
    if truth:
        return check_effective(model, collision_pairs, diff, True, ("effective", cert))
    return None


def datum_boundary(order, points):
    """Boundary class of a spectral datum: one entry per distinct point."""
    pts = sorted(p % order for p in points)
    return [(p, pts.count(p), pts.count(p) >= 2, 0) for p in sorted(set(pts))]


def check_transform(n, order, points, got):
    summands, degrees, restricted = got
    model = ("hz", n)
    want = sorted(O.sub(O.unit(model, f"l{i}"), O.base(model)) for i in range(1, n + 1))
    if sorted(summands) != want:
        return f"summands {summands}, want l_i - b"
    if any(degrees):
        return f"full-twist boundary degrees {degrees}"
    want_r = datum_boundary(order, points)
    return None if list(restricted) == want_r else f"restriction {restricted}, want {want_r}"


def check_orbit(got, want):
    if len(set(got)) != len(got):
        return "duplicate orbit classes"
    return None if set(got) == set(want) else f"orbit of size {len(got)}, want {len(want)}"


def check_weights(model, simple, cls, weights):
    for a in simple:
        if O.pair(model, a, a) != -2 or O.pair(model, a, O.canonical(model)) != 0:
            return f"simple root {a} is not a root"
    want = [O.pair(model, cls, a) for a in simple]
    return None if list(weights) == want else f"weights {weights}, want {want}"


# ---------------------------------------------------------------------------
# spectral covers


def check_polynomial(got, want):
    got = O.ptrim(got)
    return None if got == O.ptrim(want) else f"polynomial {got}, want {want}"


def sheet_branching(sheets):
    """Branch points, multiplicities and fiber partitions of prod (u - p_i(t))."""
    mult = {}
    n = len(sheets)
    for i in range(n):
        for j in range(i + 1, n):
            (ai, bi), (aj, bj) = sheets[i], sheets[j]
            if bi != bj:
                t0 = Fraction(aj - ai, bi - bj)
                mult[t0] = mult.get(t0, 0) + 2
    profiles = {}
    for t0 in mult:
        values = [a + b * t0 for a, b in sheets]
        profiles[t0] = tuple(sorted((values.count(v) for v in set(values)), reverse=True))
    return mult, profiles


def check_branch(got, want):
    """got/want = (disc, points, mults, profiles, nonrational) as plain lists."""
    disc, points, mults, profiles, nonrational = got
    problem = check_polynomial(disc, want[0])
    if problem:
        return problem
    if any(O.peval(disc, p) != 0 for p in points):
        return "discriminant does not vanish at a reported branch point"
    labels = ("branch points", "multiplicities", "ramification profiles", "nonrational factors")
    for label, g, w in zip(labels, got[1:], want[1:]):
        if list(g) != list(w):
            return f"{label} {g}, want {w}"
    return None
