"""Operation lists of the in-process workloads: enum, graded and classcalc.

An operation is a list of items; an item is (call, canon, check).  The
operation's timed work is running every item's call.  After the timed
phase each result is turned into plain data by ``canon`` and judged by
``check`` (see checks.py).  Calls look the package's functions up through
their module objects at call time, so the traced run's wrappers see them.

Heavy inputs are fixed: their cost spans two orders of magnitude, and the
known faults must fail in the same operations whatever the seed.  The
seed orders the operations and draws the inputs of the cheap batches
(spectral data, orbit start classes, weight classes).
"""

from __future__ import annotations

import importlib
import random
from dataclasses import dataclass, field
from fractions import Fraction

import checks as C
import oracle as O

MODULES = ("lattice", "linesroots", "divisors", "bundles", "transform", "spectral", "qpoly", "localmodel")


@dataclass
class Op:
    name: str
    items: list
    fault: str | None = None  # known program fault this operation exercises


@dataclass
class Workload:
    ops: list
    warmups: list = field(default_factory=list)


def load_modules():
    return {name: importlib.import_module(f"adesurf.{name}") for name in MODULES}


def classes(res):
    return [c.coeffs for c in res]


# ---------------------------------------------------------------------------
# enum


def build_enum(m, rng):
    lr, L = m["linesroots"], m["lattice"]
    model = {"p2": L.p2_blowup, "hz": L.hirzebruch_blowup}

    def lines_item(kind, n, fv=None, margin=0):
        mod = model[kind](n)
        return (
            lambda: lr.enumerate_lines(mod, fv, bound_margin=margin),
            classes,
            lambda got: C.check_lines((kind, n), fv, got),
        )

    def conics_item(n):
        mod = model["p2"](n)
        return (
            lambda: lr.enumerate_classes(mod, 0, [(mod.K, -2)]),
            classes,
            lambda got: C.check_conics(("p2", n), got),
        )

    def roots_item(kind, n, orth, margin=0):
        mod = model[kind](n)
        return (
            lambda: lr.enumerate_roots(mod, tuple(orth), bound_margin=margin),
            lambda d: (classes(d.roots), classes(d.simple_roots), d.cartan, d.type_label),
            lambda got: C.check_roots((kind, n), orth, got),
        )

    ops = [
        Op("lines p2(1..3)", [lines_item("p2", n) for n in (1, 2, 3)]),
        Op("conics p2(1..3)", [conics_item(n) for n in (1, 2, 3)]),
    ]
    ops += [Op(f"lines p2({n})", [lines_item("p2", n)]) for n in range(4, 9)]
    ops += [Op(f"conics p2({n})", [conics_item(n)]) for n in range(4, 9)]
    for n in range(1, 8):
        for fv in (None, 0, 1):
            ops.append(Op(f"lines hz({n}) f={fv}", [lines_item("hz", n, fv)]))
    ops += [Op(f"roots A hz({n})", [roots_item("hz", n, "Kfb")]) for n in range(2, 8)]
    ops += [Op(f"roots D hz({n})", [roots_item("hz", n, "Kf")]) for n in range(2, 9)]
    ops += [Op(f"roots E p2({n})", [roots_item("p2", n, "K")]) for n in range(3, 9)]
    for kind, n, fv, margin in (("p2", 6, None, 2), ("p2", 7, None, 2), ("p2", 8, None, 1),
                                ("p2", 8, None, 2), ("hz", 6, 0, 2)):
        ops.append(Op(f"lines {kind}({n}) f={fv} margin {margin}",
                      [lines_item(kind, n, fv, margin)]))
    ops.append(Op("roots E p2(7) margin 1", [roots_item("p2", 7, "K", 1)]))
    warmups = [lines_item("p2", 2), conics_item(2), roots_item("hz", 3, "Kf"), lines_item("p2", 3, None, 1)]
    return Workload(ops, warmups)


# ---------------------------------------------------------------------------
# graded


def build_graded(m, rng):
    lm = m["localmodel"]
    xyz = ("x", "y", "z")

    def conifold(d):
        up = lm.conifold_ring(d)
        return (up,) + tuple(up.var(v) for v in "xyzs")

    def gen_conifold(d, with_s):
        up, x, y, z, s = conifold(d)
        whole = lm.GradedModule.over_full_ring(up, (up.const(1),))
        gens = (up.const(1), s) if with_s else (up.const(1),)
        return lm.check_generate(up, whole, gens, xyz, d)

    def gen_conifold_ideal(d):
        up, x, y, z, s = conifold(d)
        ideal = lm.GradedModule.over_full_ring(up, (x - y, z + s))
        return lm.check_generate(up, ideal, (x - y, z + s), xyz, d)

    def free_conifold(d):
        up, x, y, z, s = conifold(d)
        return lm.check_free(up, (x - y, z + s), xyz, d)

    def free_central(d):
        fib = lm.central_fiber_ring(d)
        x, y, z, s = (fib.var(v) for v in "xyzs")
        return lm.check_free(fib, (x - y, z + s), xyz, d)

    def gen_cone(d):
        cone = lm.cone_ring(d)
        x, y, z = (cone.var(v) for v in "xyz")
        ideal = lm.GradedModule.over_full_ring(cone, (x - y, z))
        return lm.check_generate(cone, ideal, (x - y, z), xyz, d)

    def mingen_conifold(d, cartier):
        up, x, y, z, s = conifold(d)
        return lm.min_generator_profile(up, (x - y,) if cartier else (x - y, z - s), d)

    def mingen_cone(d):
        cone = lm.cone_ring(d)
        x, y, z = (cone.var(v) for v in "xyz")
        return lm.min_generator_profile(cone, (x - y, z), d)

    def degree_item(fn, d, want):
        return (lambda: fn(d), lambda r: (r.ok, r.first_failure_degree),
                lambda got: C.check_degree_check(got, want))

    def profile_item(fn, d, gens):
        return (lambda: fn(d), list, lambda got: C.check_profile(got, d, gens))

    def verify_item(d):
        return (
            lambda: lm.verify_extension_chain(d),
            lambda r: {
                "maxdeg": r.maxdeg, "checks": dict(r.checks), "failures": list(r.failures),
                "truncation_warning": r.truncation_warning, "min_generators": dict(r.min_generators),
                "split_direct_sum": r.split_direct_sum, "split_pushforward": r.split_pushforward,
                "dims": dict(r.dims),
            },
            lambda got: C.check_verify(got, d),
        )

    ok = (True, None)
    weil = [(1, -1, 0, 0), (0, 0, 1, -1)]
    cartier = [(1, -1, 0, 0)]
    cone_gens = [(1, -1, 0), (0, 0, 1)]
    cases = [
        ("generate conifold by 1, s", lambda d: degree_item(lambda e: gen_conifold(e, True), d, ok)),
        ("generate conifold ideal", lambda d: degree_item(gen_conifold_ideal, d, ok)),
        ("free conifold ideal", lambda d: degree_item(free_conifold, d, ok)),
        ("free central fiber", lambda d: degree_item(free_central, d, ok)),
        ("generate cone ideal", lambda d: degree_item(gen_cone, d, ok)),
        ("min generators Weil", lambda d: profile_item(lambda e: mingen_conifold(e, False), d, weil)),
        ("min generators Cartier", lambda d: profile_item(lambda e: mingen_conifold(e, True), d, cartier)),
        ("min generators cone", lambda d: profile_item(mingen_cone, d, cone_gens)),
    ]
    ops = [Op(f"{name} d={d}", [item(d)]) for name, item in cases for d in range(3, 9)]
    # s is not a C[x,y,z]-multiple of 1, so 1 alone fails in degree 1
    alone = [degree_item(lambda e: gen_conifold(e, False), d, (False, 1)) for d in range(3, 9)]
    ops.append(Op("generate conifold by 1 alone d=3..8", alone))
    ops += [Op(f"verify_extension_chain({d})", [verify_item(d)]) for d in range(4, 9)]
    warmups = [item(3) for _name, item in cases] + [alone[0], verify_item(3)]
    return Workload(ops, warmups)


# ---------------------------------------------------------------------------
# classcalc


def plane_curve(model, name):
    """Curves by name: 'L12' = h - l1 - l2, 'E3' = l3, 'C12' = l2 - l1, 'Q' = 2h - l1..l5."""
    n = model[1]
    if name == "Q":
        return (2,) + (-1,) * 5 + (0,) * (n - 5)
    if name[0] == "L":
        return O.sub(O.sub(O.unit(model, "h"), O.unit(model, f"l{name[1]}")), O.unit(model, f"l{name[2]}"))
    if name[0] == "E":
        return O.unit(model, f"l{name[1]}")
    return O.sub(O.unit(model, f"l{name[2]}"), O.unit(model, f"l{name[1]}"))


# -K on dP_n and h as sums of lines (h = L12 + E1 + E2)
ANTI = {
    3: "L12 L13 L23 E1 E2 E3",
    4: "L12 L12 L34 E1 E2",
    5: "L12 L34 L15 E1",
    6: "L12 L34 L56",
}
H = "L12 E1 E2"

# (n, terms, collision pairs); every target is effective by construction
EFFECTIVE_TARGETS = [
    (3, f"{ANTI[3]} {ANTI[3]}", ()),
    (3, f"{H} {H} L12 E2", ()),
    (3, f"{ANTI[3]} {H}", ()),
    (4, ANTI[4], ()),
    (4, ANTI[4], ((1, 2),)),
    (4, f"{ANTI[4]} C12", ((1, 2),)),
    (4, f"{H} {H}", ()),
    (4, f"L12 {H}", ()),
    (4, f"{ANTI[4]} {H}", ()),
    (4, f"{H} {H} L12 E2", ()),
    (4, f"{ANTI[4]} {ANTI[4]}", ()),
    (5, ANTI[5], ()),
    (5, ANTI[5], ((1, 2),)),
    (5, f"{ANTI[5]} C12", ((1, 2),)),
    (5, f"{H} {H}", ()),
    (5, f"L12 {H}", ()),
    (5, f"{ANTI[5]} {H}", ()),
    (6, ANTI[6], ()),
    (6, ANTI[6], ((1, 2),)),
    (6, f"{ANTI[6]} C12", ((1, 2),)),
    (6, H, ()),
    (6, f"L12 {H}", ()),
    (6, f"{H} {H}", ()),
]

# Binomial covers u^n - (t - a)(t - b)(t^2 + c): branch points a, b with
# multiplicity n - 1, and t^2 + c left over as a nonrational factor.
# The rational-root search divides by every integer up to sqrt(|a*b*c|).
BINOMIAL_COVERS = [(2, 3, -5, 274_877_906_837), (3, 2, 7, 137_438_953_447), (4, -3, 4, 68_719_476_731),
                   (5, 1, -6, 1_000_000_007)]
# Covers split into sheets u = a + b t; branch points where two sheets meet.
SHEET_COVERS = [
    [(1, 2), (3, -1)],
    [(1, 2), (3, -1), (0, 5)],
    [(1, 2), (3, -1), (0, 5), (-2, 1)],
    [(1, 2), (3, -1), (0, 5), (-2, 1), (4, 3)],
]


def binomial_expectation(n, a, b, c):
    g = O.pprod([[Fraction(-a), 1], [Fraction(-b), 1], [Fraction(c), 0, 1]])
    points = sorted([Fraction(a), Fraction(b)])
    return g, (O.binomial_resultant(n, g), points, [n - 1] * 2, [(n,)] * 2, [[c, 0, 1]])


def sheet_expectation(sheets):
    polys = [[Fraction(a), Fraction(b)] for a, b in sheets]
    mult, profiles = C.sheet_branching(sheets)
    points = sorted(mult)
    return O.sheet_cover(polys), (O.sheet_resultant(polys), points, [mult[p] for p in points],
                                  [profiles[p] for p in points], [])


def build_classcalc(m, rng):
    L, dv, lr, bd, tr, sp, qp = (m[k] for k in ("lattice", "divisors", "linesroots", "bundles",
                                                "transform", "spectral", "qpoly"))
    P, Hz = L.p2_blowup, L.hirzebruch_blowup

    def lib_model(model):
        return (P if model[0] == "p2" else Hz)(model[1])

    def eff_item(model, target, pairs, truth):
        mod = lib_model(model)
        coll = dv.CollisionConfig(pairs)
        return (
            lambda: dv.is_effective(mod, coll, mod.cls(target)),
            lambda r: (r.status, [(c.coeffs, k) for c, k in (r.certificate or ())]),
            lambda got: C.check_effective(model, pairs, target, truth, got),
        )

    def ext_item(model, l1, l2, pairs, truth):
        mod = lib_model(model)
        coll = dv.CollisionConfig(pairs)
        return (
            lambda: dv.ext_profile(mod, coll, mod.cls(l1), mod.cls(l2)),
            lambda r: r.as_tuple() + ([(c.coeffs, k) for c, k in (r.certificate or ())],),
            lambda got: C.check_ext(model, pairs, l1, l2, truth, got),
        )

    ops = []
    for n, terms, pairs in EFFECTIVE_TARGETS:
        model = ("p2", n)
        target = O.add(*(plane_curve(model, t) for t in terms.split()))
        ops.append(Op(f"effective dP{n} {target} {pairs}", [eff_item(model, target, pairs, True)]))

    hz_items = []
    for n in range(2, 7):
        model = ("hz", n)
        f, l1, l2 = O.fiber(model), O.unit(model, "l1"), O.unit(model, "l2")
        for target, pairs in ((f, ()), (O.add(f, l1), ()), (O.add(f, f, l1, l2), ()),
                              (O.add(f, O.sub(l2, l1)), ((1, 2),))):
            hz_items.append(eff_item(model, target, pairs, True))
    ops.append(Op("effective sums of l_i, f on hz(2..6)", hz_items))

    neg_items = []
    for model in [("p2", n) for n in range(3, 7)] + [("hz", n) for n in range(2, 7)]:
        h_or_f = O.unit(model, "h") if model[0] == "p2" else O.fiber(model)
        l1 = O.unit(model, "l1")
        for target in (O.canonical(model), O.sub(l1, h_or_f), O.sub(h_or_f, O.scale(4, l1))):
            # -K is nef on these surfaces, so -K.D < 0 rules D out
            assert O.pair(model, O.scale(-1, O.canonical(model)), target) < 0
            neg_items.append(eff_item(model, target, (), False))
    ops.append(Op("not effective: -K.D < 0", neg_items))

    ext_items = []
    for model in [("hz", n) for n in range(2, 7)] + [("p2", n) for n in range(3, 7)]:
        n = model[1]
        for i, j in ((1, 2), (n - 1, n)):
            li, lj = O.unit(model, f"l{i}"), O.unit(model, f"l{j}")
            # l_j - l_i is the collision's -2 curve; without it, a nonzero class
            # with -K.D = 0 is not effective since -K is ample
            ext_items.append(ext_item(model, li, lj, ((i, j),), True))
            ext_items.append(ext_item(model, li, lj, (), False))
            ext_items.append(ext_item(model, lj, li, ((i, j),), False))
    ops.append(Op("ext dichotomy on hz(2..6), dP3..dP6", ext_items))

    # F-eff: curves outside the configured generators (b, f - l_i, the conic
    # through five points) are reported not effective
    feff = []
    for n in range(2, 7):
        model = ("hz", n)
        b, l1 = O.base(model), O.unit(model, "l1")
        feff.append(eff_item(model, b, (), True))
        feff.append(eff_item(model, O.sub(O.fiber(model), l1), (), True))
        feff.append(ext_item(model, l1, O.add(b, l1), (), True))
    feff.append(eff_item(("p2", 6), plane_curve(("p2", 6), "Q"), (), True))
    ops.append(Op("F-eff: b, f - l1, conic through five points", feff, fault="F-eff"))

    # transform and restriction on seeded spectral data
    def transform_item(n, order, points):
        mod = Hz(n)

        def call():
            datum = tr.SpectralFiberDatum(order=order, points=tuple(points))
            res = tr.transform(mod, datum, "full", collisions=tr.required_collisions(datum))
            marking = bd.EMarking(order=order, points=tuple(
                (i + 1, p) for i, p in enumerate(sorted(q % order for q in points))))
            return res, bd.restrict_to_boundary(res.bundle, marking)

        return (
            call,
            lambda r: ([c.coeffs for c, _ in r[0].bundle.summands], list(r[0].summand_boundary_degrees),
                       [(e.point, e.mult, e.regular, e.degree) for e in r[1].entries]),
            lambda got: C.check_transform(n, order, points, got),
        )

    # the median falls among these cheap seeded batches: 20 transform
    # batches, 20 weight batches and 20 pairs of E6 and E7 orbits
    for k in range(20):
        items = []
        for _ in range(30):
            n = rng.randint(2, 6)
            points = [rng.randrange(720) for _ in range(n)]
            if rng.random() < 0.4:
                points[rng.randrange(1, n)] = points[0]  # collided sheets
            items.append(transform_item(n, 720, points))
        ops.append(Op(f"transform + restrict batch {k}", items))

    # Weyl orbits and weights
    data = {("hz", n): lr.enumerate_roots(Hz(n), ("K", "f", "b")) for n in range(2, 8)}
    data.update({("p2", n): lr.enumerate_roots(P(n), ("K",)) for n in (6, 7, 8)})

    def orbit_item(model, start, want):
        datum = data[model]
        mod = lib_model(model)
        return (lambda: lr.weyl_orbit(datum, mod.cls(start)), classes, lambda got: C.check_orbit(got, want))

    a_items = []
    for n in range(2, 8):
        model = ("hz", n)
        b = O.base(model)
        want = [O.sub(O.unit(model, f"l{i}"), b) for i in range(1, n + 1)]
        a_items.append(orbit_item(model, O.sub(O.unit(model, "l1"), b), want))
    ops.append(Op("orbits of l1 - b under A(n-1)", a_items))
    line_sets = {n: O.lines(("p2", n)) for n in (6, 7, 8)}
    for k in range(20):
        ops.append(Op(f"orbits of a line under E6, E7 #{k}",
                      [orbit_item(("p2", n), rng.choice(line_sets[n]), line_sets[n]) for n in (6, 7)]))
    ops.append(Op("orbit of a line under E8", [orbit_item(("p2", 8), rng.choice(line_sets[8]), line_sets[8])]))

    def weight_item(model, cls):
        datum = data[model]
        mod = lib_model(model)
        return (
            lambda: (datum.simple_roots, lr.weight_of(datum, mod.cls(cls))),
            lambda r: (classes(r[0]), list(r[1].entries)),
            lambda got: C.check_weights(model, got[0], cls, got[1]),
        )

    for k in range(20):
        w_items = []
        for _ in range(60):
            model = ("p2", rng.choice((6, 7, 8)))
            w_items.append(weight_item(model, tuple(rng.randint(-6, 6) for _ in range(O.rank(model)))))
        ops.append(Op(f"weights of random classes on E6, E7, E8 #{k}", w_items))

    # spectral covers
    def cover(u_coeffs):
        return sp.CoverPoly(len(u_coeffs), tuple(qp.QPoly(tuple(c)) for c in u_coeffs))

    def disc_item(u_coeffs, method, want):
        cov = cover(u_coeffs)
        return (lambda: sp.discriminant(cov, method), lambda r: list(r.coeffs),
                lambda got: C.check_polynomial(got, want))

    def branch_item(u_coeffs, want):
        cov = cover(u_coeffs)
        return (
            lambda: sp.branch_report(cov),
            lambda r: (list(r.discriminant.coeffs), list(r.branch_points), list(r.branch_multiplicities),
                       [tuple(p) for _, p in r.ramification_profile],
                       [[int(c) for c in f.coeffs] for f in r.nonrational_factors]),
            lambda got: C.check_branch(got, want),
        )

    binomial, sheet = [], []
    for n, a, b, c in BINOMIAL_COVERS:
        g, want = binomial_expectation(n, a, b, c)
        binomial.append((f"u^{n} - g, c={c}", [O.pscale(-1, g)] + [[]] * (n - 1), want))
    for sheets in SHEET_COVERS:
        sheet.append((f"{len(sheets)} sheets",) + sheet_expectation(sheets))
    for family, covers in (("u^n - g, n=2..5", binomial), ("2..5 sheets", sheet)):
        for method in ("sylvester", "prs"):
            ops.append(Op(f"discriminants {method}: {family}",
                          [disc_item(u, method, want[0]) for _label, u, want in covers]))
    for label, u_coeffs, want in binomial + sheet[2:]:
        ops.append(Op(f"branch report {label}", [branch_item(u_coeffs, want)]))
    ops.append(Op("branch reports 2, 3 sheets", [branch_item(u, want) for _label, u, want in sheet[:2]]))

    # the small binomial cover leaves t^2 + 7 to factor, so the lazy sympy
    # import happens here
    _g, small_want = binomial_expectation(2, 1, 2, 7)
    small_u = [O.pscale(-1, _g), []]
    warmups = [
        eff_item(("p2", 3), O.add(*(plane_curve(("p2", 3), t) for t in ANTI[3].split())), (), True),
        ext_items[0], hz_items[0], transform_item(3, 720, [1, 1, 5]), a_items[0], w_items[0],
        disc_item(small_u, "sylvester", small_want[0]), disc_item(small_u, "prs", small_want[0]),
        branch_item(small_u, small_want),
    ]
    return Workload(ops, warmups)


BUILDERS = {"enum": build_enum, "graded": build_graded, "classcalc": build_classcalc}


def build(name, seed, modules):
    rng = random.Random(seed)
    wl = BUILDERS[name](modules, rng)
    rng.shuffle(wl.ops)
    return wl
