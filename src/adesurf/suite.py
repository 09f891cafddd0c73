"""The paper-checks suite: every headline claim as one machine check.

Each ``check_*`` function below is the only definition of its claim: its
samples, seeds and expected values live here.  ``adesurf suite --name
paper-checks`` aggregates them into one report, and the acceptance tests
(``tests/test_acceptance.py``) call the same functions under their runtime
budgets.  Every check returns ``{"name", "pass", "detail"}`` with a
deterministic, JSON-ready detail (no timings).
"""

from __future__ import annotations

import random
from fractions import Fraction

from .bundles import FUNDAMENTAL_A, VECTOR_D, boundary_degree, build_tautological, twist
from .divisors import CollisionConfig, euler_char, ext_profile
from .lattice import hirzebruch_blowup, p2_blowup
from .linesroots import enumerate_lines, enumerate_roots, reflect, weyl_orbit
from .localmodel import TruncRing, verify_extension_chain
from .qpoly import QPoly
from .spectral import CoverPoly, discriminant, fiber_profile, sen_delta
from .transform import SpectralFiberDatum, check_restriction_compatibility

LINE_COUNTS = {1: 1, 2: 3, 3: 6, 4: 10, 5: 16, 6: 27, 7: 56, 8: 240}

# parts (a)-(d) of verify_extension_chain that the local-model claim names
_LOCAL_MODEL_CHECKS = (
    "pushforward_generators",
    "ideal_generated_over_base",
    "ideal_free_rank_two",
    "weil_not_cartier",
    "dimension_additivity",
)


def check_line_counts() -> dict:
    counts = {n: len(enumerate_lines(p2_blowup(n))) for n in range(1, 9)}
    return {
        "name": "line_counts_p2_1_to_8",
        "pass": counts == LINE_COUNTS,
        "detail": counts,
    }


def check_root_data() -> dict:
    ok = True
    details = {}
    for n in range(2, 11):
        m = hirzebruch_blowup(n)
        datum = enumerate_roots(m, ("K", "f", "b"))
        want = [(m.exceptional(i) - m.exceptional(i + 1)).coeffs for i in range(1, n)]
        ok = ok and (
            datum.type_label == f"A{n - 1}"
            and len(datum.roots) == n * (n - 1)
            and [a.coeffs for a in datum.simple_roots] == want
        )
        details[n] = datum.type_label
    e6 = enumerate_roots(p2_blowup(6), ("K",))
    ok = ok and len(e6.roots) == 72 and e6.type_label == "E6"
    details["e6_count"] = len(e6.roots)
    for n in range(1, 9):
        m = hirzebruch_blowup(n)
        datum = enumerate_roots(m, ("K", "f", "b"))
        orbit = weyl_orbit(datum, m.exceptional(1) - m.base_class)
        ok = ok and len(orbit) == n
    return {"name": "root_data_and_orbits", "pass": ok, "detail": details}


def check_ext_dichotomy() -> dict:
    m = hirzebruch_blowup(2)
    l1, l2 = m.exceptional(1), m.exceptional(2)
    with_c = ext_profile(m, CollisionConfig(((1, 2),)), l1, l2).as_tuple()
    without = ext_profile(m, None, l1, l2).as_tuple()
    chi = euler_char(m, l2 - l1)
    ok = with_c == (1, 1, 0, 0) and without == (0, 0, 0, 0) and chi == 0
    return {
        "name": "ext_index_dichotomy",
        "pass": ok,
        "detail": {"collided": with_c, "generic": without, "chi": chi},
    }


def check_boundary_degrees() -> dict:
    ok = True
    for n in range(1, 17):
        m = hirzebruch_blowup(n)
        for rep in (FUNDAMENTAL_A, VECTOR_D):
            plain = build_tautological(m, rep)
            ok = ok and all(boundary_degree(m, c) == 1 for c, _ in plain.summands)
            flat = twist(plain, -m.base_class)
            ok = ok and all(boundary_degree(m, c) == 0 for c, _ in flat.summands)
    return {"name": "boundary_degrees", "pass": ok, "detail": {"n_max": 16}}


def check_transform_compat(trials: int = 1000) -> dict:
    """Every eighth datum forces a double or triple collision."""
    rng = random.Random(20151023)
    collided = 0
    good = 0
    for k in range(trials):
        order = rng.choice([12, 30, 144, 720])
        if k % 8 == 0:
            n = rng.randint(2, 7)
            p = rng.randrange(order)
            reps = rng.randint(2, min(3, n))
            points = [p] * reps + [rng.randrange(order) for _ in range(n - reps)]
            collided += 1
        else:
            n = rng.randint(0, 7)
            points = [rng.randrange(order) for _ in range(n)]
        datum = SpectralFiberDatum(order=order, points=tuple(points))
        good += check_restriction_compatibility(hirzebruch_blowup(n), datum)
    want_collided = min(100, max(1, trials // 8))
    return {
        "name": "transform_restriction_compatibility",
        "pass": good == trials and collided >= want_collided,
        "detail": {"trials": trials, "passed": good, "forced_collisions": collided},
    }


def check_local_models(maxdeg: int = 8) -> dict:
    report = verify_extension_chain(maxdeg)
    ok = (
        report.ok
        and all(report.checks.get(name) for name in _LOCAL_MODEL_CHECKS)
        and report.split_direct_sum == (-1, 1)
        and report.split_pushforward == (0, 0)
    )
    return {
        "name": "local_model_suite",
        "pass": ok,
        "detail": {
            "maxdeg": maxdeg,
            "min_generators": report.min_generators,
            "split_direct_sum": list(report.split_direct_sum or ()),
            "split_pushforward": list(report.split_pushforward or ()),
            "failures": [list(f) for f in report.failures],
        },
    }


def check_spectral() -> dict:
    cover = CoverPoly(2, (-QPoly.x(), QPoly.zero()))
    disc = discriminant(cover)
    profile = fiber_profile(cover, 0)
    # u^2 - t branches exactly at t = 0
    branch_ok = disc(0) == 0 and disc(1) != 0 and disc.degree == 1 and profile == (2,)
    degree_ok = all(
        sen_delta(QPoly.one(), QPoly.one(), QPoly.one(), {"d_L": k}).cover_degree == 4 * k + 8
        for k in range(0, 6)
    )
    return {
        "name": "spectral_branch_and_degrees",
        "pass": branch_ok and degree_ok,
        "detail": {"disc": str(disc), "profile_at_0": list(profile)},
    }


def check_properties() -> dict:
    cases = 500
    rng = random.Random(4242)
    ok = True

    # reflection preserves the pairing
    m = p2_blowup(6)
    roots = enumerate_roots(m, ("K",)).roots
    for _ in range(cases):
        alpha = roots[rng.randrange(len(roots))]
        a = m.cls([rng.randint(-6, 6) for _ in range(m.rank)])
        b = m.cls([rng.randint(-6, 6) for _ in range(m.rank)])
        if m.pair(reflect(alpha, a), reflect(alpha, b)) != m.pair(a, b):
            ok = False

    # Serre symmetry of the Euler characteristic
    for _ in range(cases):
        n = rng.randint(0, 7)
        mm = hirzebruch_blowup(n) if rng.random() < 0.5 else p2_blowup(n)
        d = mm.cls([rng.randint(-6, 6) for _ in range(mm.rank)])
        if euler_char(mm, d) != euler_char(mm, mm.K - d):
            ok = False

    # normal-form confluence under randomized reduction order
    ring = TruncRing(
        [("x", 1), ("y", 1), ("z", 1), ("s", 1)],
        [
            ("s", 2, {(2, 0, 0, 0): 1, (0, 2, 0, 0): -1, (0, 0, 2, 0): 1}),
            ("x", 3, {(0, 3, 0, 0): 1, (0, 1, 2, 0): 2}),
        ],
        max_degree=12,
    )
    for _ in range(cases):
        mono = tuple(rng.randint(0, 3) for _ in range(4))
        terms = {mono: Fraction(rng.randint(-4, 4) or 1)}
        if ring.reduce_terms(terms) != ring.reduce_terms(terms, rng=rng):
            ok = False

    # graded dimensions of C[a, b]/(a^power) count the a^e b^k with e < power
    # and e + deg_b k = d
    for _ in range(cases):
        deg_b = rng.randint(1, 2)
        power = rng.randint(2, 4)
        d = rng.randint(0, 6)
        ring = TruncRing([("a", 1), ("b", deg_b)], [("a", power, {})], max_degree=6)
        if ring.graded_dim(d) != sum((d - e) % deg_b == 0 for e in range(min(power - 1, d) + 1)):
            ok = False

    return {"name": "property_suites", "pass": ok, "detail": {"cases_each": cases}}


def run_suite(trials: int = 1000, maxdeg: int = 8) -> dict:
    """Run the aggregated checks; the payload is deterministic (no timings)."""
    results = [
        check_line_counts(),
        check_root_data(),
        check_ext_dichotomy(),
        check_boundary_degrees(),
        check_transform_compat(trials),
        check_local_models(maxdeg),
        check_spectral(),
        check_properties(),
    ]
    return {
        "suite": "paper-checks",
        "all_pass": all(r["pass"] for r in results),
        "results": results,
    }
