"""Every checker accepts a right answer and rejects a corrupted one.

    python3 -m pytest perfbench/test_checks.py

The right answers come from the benchmark's own oracle, so these tests do
not need the package under test.
"""

from fractions import Fraction

import checks as C
import cliwork
import oracle as O
import workloads as W

P6, P8, HZ4 = ("p2", 6), ("p2", 8), ("hz", 4)


def test_lines():
    good = O.lines(P8)
    assert len(good) == 240 and C.check_lines(P8, None, good) is None
    assert C.check_lines(P8, None, good[:-1])  # 239 lines
    assert C.check_lines(P8, None, good[:1] + good[:-1])  # a duplicate
    assert C.check_lines(P8, None, list(reversed(good)))
    bent = list(good)
    bent[5] = (bent[5][0] + 1,) + bent[5][1:]
    assert C.check_lines(P8, None, bent)
    cons = O.lines(HZ4, 1)
    assert C.check_lines(HZ4, 1, cons) is None
    assert C.check_lines(HZ4, 1, cons[1:])
    assert C.check_lines(HZ4, 0, cons)


def test_conics():
    good = O.conics(("p2", 7))
    assert len(good) == 126 and C.check_conics(("p2", 7), good) is None
    assert C.check_conics(("p2", 7), sorted(good[1:] + [O.lines(("p2", 7))[0]]))


def e6_datum():
    simple = O.e_simple_roots(P6)
    cartan = [[-O.pair(P6, a, b) for b in simple] for a in simple]
    return O.roots(P6, "K"), simple, cartan, "E6"


def test_roots():
    roots, simple, cartan, label = e6_datum()
    assert C.check_roots(P6, "K", (roots, simple, cartan, label)) is None
    assert C.check_roots(P6, "K", (roots[1:], simple, cartan, label))
    assert C.check_roots(P6, "K", (roots, simple, cartan, "D6"))
    assert C.check_roots(P6, "K", (roots, simple[1:], cartan, label))
    wrong = [row[:] for row in cartan]
    wrong[0][1] += 1
    assert C.check_roots(P6, "K", (roots, simple, wrong, label))
    a_roots = O.roots(HZ4, "Kfb")
    a_simple = [O.sub(O.unit(HZ4, f"l{i}"), O.unit(HZ4, f"l{i + 1}")) for i in (1, 2, 3)]
    a_cartan = [[-O.pair(HZ4, a, b) for b in a_simple] for a in a_simple]
    assert C.check_roots(HZ4, "Kfb", (a_roots, a_simple, a_cartan, "A3")) is None
    # simple roots that are roots but do not generate the system
    assert C.check_roots(HZ4, "Kfb", (a_roots, [a_simple[0], a_simple[1], a_simple[0]], a_cartan, "A3"))


def good_report(d):
    return {
        "maxdeg": d, "checks": {"pushforward_generators": True}, "failures": [],
        "truncation_warning": False, "min_generators": {"universal_divisor": 2, "cartier_sum": 1},
        "split_direct_sum": (-1, 1), "split_pushforward": (0, 0), "dims": C.verify_dims(d),
    }


def test_verify():
    assert C.verify_dims(3) == {"ideal": [0, 2, 4, 6], "image": [0, 2, 4, 6], "kernel": [0, 0, 2, 4],
                                "fiber_module": [0, 2, 6, 10]}
    assert C.check_verify(good_report(5), 5) is None
    off = good_report(5)
    off["dims"]["ideal"][3] += 1  # an ideal dimension off by one
    assert C.check_verify(off, 5)
    for key, value in (("truncation_warning", True), ("min_generators", {"universal_divisor": 1, "cartier_sum": 1}),
                       ("split_pushforward", (-1, 1)), ("checks", {"x": False}), ("checks", {})):
        bad = good_report(4)
        bad[key] = value
        assert C.check_verify(bad, 4), key


def test_degree_checks_and_profiles():
    assert C.check_degree_check((True, None), (True, None)) is None
    assert C.check_degree_check((False, 1), (True, None))
    weil = [(1, -1, 0, 0), (0, 0, 1, -1)]
    assert C.check_profile([0, 2, 0, 0], 3, weil) is None
    assert C.check_profile([0, 1, 0, 0], 3, weil)
    assert C.check_profile([0, 2, 0, 1], 3, weil)


def test_effectivity_and_ext():
    target = O.add(*(W.plane_curve(P6, t) for t in W.ANTI[6].split()))
    cert = [(W.plane_curve(P6, t), 1) for t in W.ANTI[6].split()]
    assert C.check_effective(P6, (), target, True, ("effective", cert)) is None
    assert C.check_effective(P6, (), target, True, ("effective", cert[1:]))  # does not sum to the target
    assert C.check_effective(P6, (), target, True, ("effective", [(target, 1)]))  # -K is not a curve
    assert C.check_effective(P6, (), target, True, ("not_effective", []))
    assert C.check_effective(P6, (), O.canonical(P6), False, ("effective", []))
    l1, l2 = O.unit(HZ4, "l1"), O.unit(HZ4, "l2")
    curve = [(O.sub(l2, l1), 1)]
    assert C.check_ext(HZ4, ((1, 2),), l1, l2, True, (1, 1, 0, 0, curve)) is None
    assert C.check_ext(HZ4, (), l1, l2, False, (0, 0, 0, 0, [])) is None
    assert C.check_ext(HZ4, ((1, 2),), l1, l2, True, (1, 1, 0, 1, curve))  # index is not Riemann-Roch
    assert C.check_ext(HZ4, ((1, 2),), l1, l2, True, (0, 0, 0, 0, []))
    b = O.base(("hz", 2))
    assert C.check_ext(("hz", 2), (), O.unit(("hz", 2), "l1"), O.add(b, O.unit(("hz", 2), "l1")), True,
                       (1, 0, 0, 1, [(b, 1)])) is None


def test_transform_orbits_weights():
    hz3 = ("hz", 3)
    summands = [O.sub(O.unit(hz3, f"l{i}"), O.base(hz3)) for i in (1, 2, 3)]
    good = (summands, [0, 0, 0], [(5, 2, True, 0), (9, 1, False, 0)])
    assert C.check_transform(3, 720, [9, 5, 5], good) is None
    assert C.check_transform(3, 720, [9, 5, 5], (summands, [0, 0, 0], [(5, 2, False, 0), (9, 1, False, 0)]))
    assert C.check_transform(3, 720, [9, 5, 5], (summands, [0, 1, 0], good[2]))
    lines = O.lines(P6)
    assert C.check_orbit(lines, lines) is None and C.check_orbit(lines[1:], lines)
    simple = O.e_simple_roots(P6)
    cls = (3, -1, 0, 2, 0, 0, 1)
    weights = [O.pair(P6, cls, a) for a in simple]
    assert C.check_weights(P6, simple, cls, weights) is None
    assert C.check_weights(P6, simple, cls, weights[:-1] + [weights[-1] + 1])


def test_spectral():
    g, want = W.binomial_expectation(3, 2, 7, 11)
    assert C.check_branch(want, want) is None
    disc = list(want[0])
    disc[0] += 1
    assert C.check_polynomial(disc, want[0])
    assert C.check_branch((disc,) + want[1:], want)
    assert C.check_branch((want[0], want[1][:1], want[2][:1], want[3][:1], want[4]), want)
    assert C.check_branch(want[:4] + ([],), want)
    _u, sheet_want = W.sheet_expectation([(1, 2), (3, -1), (0, 5)])
    assert sheet_want[1] == [Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)]
    assert C.check_branch(sheet_want, sheet_want) is None


def test_cli_documents():
    check = cliwork.checking(lambda d: None if d["chi"] == 2 else "wrong chi")
    assert check((0, '{"chi":2}\n')) is None
    assert check((0, '{"chi":3}\n'))
    assert check((1, '{"chi":2}\n'))
    suite = cliwork.checking(lambda d: None if "error" in d else "no error", want_code=1)
    assert suite((1, '{"error":{"type":"ValueError","message":"unknown suite"}}\n')) is None
    assert suite((1, ""))  # a traceback on stderr and nothing on stdout
