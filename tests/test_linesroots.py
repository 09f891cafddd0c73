import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adesurf import _enumkernel
from adesurf._enumkernel import enumerate_diag
from adesurf.errors import (
    AdesurfError,
    BasisMismatchError,
    EnumerationBoundError,
    OrbitCapExceededError,
)
from adesurf.lattice import (
    build_surface,
    change_basis,
    hirzebruch_blowup,
    p2_blowup,
    p2_presentation,
)
from adesurf.linesroots import (
    coefficient_bounds,
    enumerate_classes,
    enumerate_lines,
    enumerate_roots,
    reflect,
    weight_of,
    weyl_orbit,
)
from adesurf.suite import LINE_COUNTS

from .oracles import (
    brute_force_diag,
    dense_coefficient_bounds,
    diag_rows_for_class,
    full_box_sweep,
    literal_box_scan,
    pairwise_simple_roots,
    weyl_orbit_bfs,
)


def _orbit_at_cap(datum, cls, size):
    """The orbit under the cap `size`, after checking that the cap size - 1 is refused.

    weyl_orbit computes the orbit size before it enumerates, so this pins
    that size through the public cap.
    """
    if size > 1:
        with pytest.raises(OrbitCapExceededError, match=f"orbit of size {size} exceeds"):
            weyl_orbit(datum, cls, cap=size - 1)
    return weyl_orbit(datum, cls, cap=size)


def test_twenty_seven_lines():
    assert len(enumerate_lines(p2_blowup(6))) == 27


def test_no_lines_on_plane():
    assert enumerate_lines(p2_blowup(0)) == []


@pytest.mark.parametrize("n", range(1, 9))
def test_line_counts_match_closed_form(n):
    assert len(enumerate_lines(p2_blowup(n))) == LINE_COUNTS[n]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_lines_against_literal_box_oracle(n):
    m = p2_blowup(n)
    rows = [diag_rows_for_class(m, m.K)]
    bounds = coefficient_bounds(m, -1, [(m.K, -1)])
    wide = [b + 2 for b in bounds]
    expected = literal_box_scan(-1, wide, rows, [-1])
    got = [c.coeffs for c in enumerate_lines(m)]
    assert got == expected


@pytest.mark.parametrize("n", range(1, 9))
def test_lines_against_pruned_oracle_wider_bounds(n):
    m = p2_blowup(n)
    rows = [diag_rows_for_class(m, m.K)]
    bounds = coefficient_bounds(m, -1, [(m.K, -1)])
    wide = [2 * b + 1 for b in bounds]
    expected = brute_force_diag(-1, wide, rows, [-1])
    got = [c.coeffs for c in enumerate_lines(m)]
    assert got == expected


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_dn_line_configuration(n):
    m = hirzebruch_blowup(n)
    lines = enumerate_lines(m, fiber_value=0)
    want = sorted(
        [m.exceptional(i).coeffs for i in range(1, n + 1)]
        + [(m.fiber_class - m.exceptional(i)).coeffs for i in range(1, n + 1)]
    )
    assert [c.coeffs for c in lines] == want
    assert len(lines) == 2 * n


@pytest.mark.parametrize("n", range(2, 11))
def test_a_type_roots(n):
    m = hirzebruch_blowup(n)
    datum = enumerate_roots(m, ("K", "f", "b"))
    assert len(datum.roots) == n * (n - 1)
    assert datum.type_label == f"A{n - 1}"
    want = [(m.exceptional(i) - m.exceptional(i + 1)).coeffs for i in range(1, n)]
    assert [a.coeffs for a in datum.simple_roots] == want


def test_e6_roots():
    datum = enumerate_roots(p2_blowup(6), ("K",))
    assert len(datum.roots) == 72
    assert datum.type_label == "E6"
    assert len(datum.simple_roots) == 6


def test_e_series_counts():
    assert len(enumerate_roots(p2_blowup(7), ("K",)).roots) == 126
    assert len(enumerate_roots(p2_blowup(8), ("K",)).roots) == 240
    assert enumerate_roots(p2_blowup(7), ("K",)).type_label == "E7"
    assert enumerate_roots(p2_blowup(8), ("K",)).type_label == "E8"


@pytest.mark.parametrize("n", range(2, 9))
def test_d_type_roots(n):
    datum = enumerate_roots(hirzebruch_blowup(n), ("K", "f"))
    assert len(datum.roots) == 2 * n * (n - 1)
    expected = {2: "A1xA1", 3: "A3"}.get(n, f"D{n}")
    assert datum.type_label == expected


def test_orthogonality_accepts_only_names():
    m = hirzebruch_blowup(3)
    with pytest.raises(AdesurfError):
        enumerate_roots(m, ("K", "E"))
    with pytest.raises(AdesurfError):
        enumerate_roots(p2_blowup(3), ("K", "f"))
    with pytest.raises(AdesurfError):
        enumerate_roots(m, ("K", m.fiber_class))


def test_no_roots_small():
    datum = enumerate_roots(hirzebruch_blowup(1), ("K", "f", "b"))
    assert datum.roots == ()
    assert datum.type_label == "A0"


def test_coefficient_bounds_refuse_nondiagonal_gram():
    m = hirzebruch_blowup(2)
    with pytest.raises(AdesurfError):
        coefficient_bounds(m, -1, [(m.K, -1)])


def test_d_roots_against_oracle():
    m = hirzebruch_blowup(5)
    comp = p2_presentation(m)
    k = change_basis(m, comp, m.K)
    f = change_basis(m, comp, m.fiber_class)
    rows = [diag_rows_for_class(comp, k), diag_rows_for_class(comp, f)]
    bounds = coefficient_bounds(comp, -2, [(k, 0), (f, 0)])
    wide = [2 * b + 1 for b in bounds]
    oracle = brute_force_diag(-2, wide, rows, [0, 0])
    datum = enumerate_roots(m, ("K", "f"))
    assert len(datum.roots) == len(oracle) == 2 * 5 * 4


def test_roots_against_oracle_e6():
    m = p2_blowup(6)
    rows = [diag_rows_for_class(m, m.K)]
    bounds = coefficient_bounds(m, -2, [(m.K, 0)])
    wide = [2 * b + 1 for b in bounds]
    expected = brute_force_diag(-2, wide, rows, [0])
    got = [c.coeffs for c in enumerate_roots(m, ("K",)).roots]
    assert got == expected


def test_root_sets_closed_under_negation_and_reflection():
    for args in ((hirzebruch_blowup(4), ("K", "f", "b")), (p2_blowup(6), ("K",))):
        model, orth = args
        datum = enumerate_roots(model, orth)
        coeffs = {r.coeffs for r in datum.roots}
        for r in datum.roots:
            assert (-r).coeffs in coeffs
            for alpha in datum.simple_roots:
                assert reflect(alpha, r).coeffs in coeffs


@pytest.mark.parametrize(
    "kind, n", [("p2", n) for n in range(9)] + [("hirzebruch", n) for n in range(11)]
)
def test_simple_roots_match_pairwise_oracle(kind, n):
    if kind == "p2":
        model, orth = p2_blowup(n), ("K",)
    else:
        model, orth = hirzebruch_blowup(n), ("K", "f", "b")
    datum = enumerate_roots(model, orth)
    want = pairwise_simple_roots(model, list(datum.roots))
    assert [a.coeffs for a in datum.simple_roots] == [a.coeffs for a in want]


def test_cartan_matrix_a3():
    datum = enumerate_roots(hirzebruch_blowup(4), ("K", "f", "b"))
    assert datum.cartan == ((2, -1, 0), (-1, 2, -1), (0, -1, 2))


def test_reflection_examples():
    m = hirzebruch_blowup(3)
    l1, l2 = m.exceptional(1), m.exceptional(2)
    alpha = l1 - l2
    assert reflect(alpha, l1).coeffs == l2.coeffs
    assert reflect(alpha, alpha).coeffs == (-alpha).coeffs
    f = m.fiber_class
    assert reflect(alpha, f).coeffs == f.coeffs  # orthogonal class is fixed
    with pytest.raises(AdesurfError):
        reflect(l1, l2)  # l1 is not a root


def test_reflection_preserves_pairing_on_basis():
    m = p2_blowup(6)
    datum = enumerate_roots(m, ("K",))
    basis = [m.cls([int(i == j) for j in range(m.rank)]) for i in range(m.rank)]
    for alpha in datum.simple_roots:
        for x in basis:
            for y in basis:
                assert m.pair(reflect(alpha, x), reflect(alpha, y)) == m.pair(x, y)


@pytest.mark.parametrize("n", range(1, 9))
def test_orbit_of_l1_minus_l0(n):
    m = hirzebruch_blowup(n)
    datum = enumerate_roots(m, ("K", "f", "b"))
    start = m.exceptional(1) - m.base_class
    orbit = _orbit_at_cap(datum, start, n)
    want = sorted((m.exceptional(i) - m.base_class).coeffs for i in range(1, n + 1))
    assert [c.coeffs for c in orbit] == want


def test_orbit_of_root_is_full_root_set():
    m = hirzebruch_blowup(4)
    datum = enumerate_roots(m, ("K", "f", "b"))
    orbit = weyl_orbit(datum, datum.simple_roots[0])
    assert [c.coeffs for c in orbit] == [r.coeffs for r in datum.roots]


def test_orbit_of_zero():
    m = hirzebruch_blowup(3)
    datum = enumerate_roots(m, ("K", "f", "b"))
    orbit = weyl_orbit(datum, m.zero())
    assert len(orbit) == 1


def test_orbit_cap():
    m = p2_blowup(6)
    datum = enumerate_roots(m, ("K",))
    with pytest.raises(OrbitCapExceededError):
        weyl_orbit(datum, m.exceptional(1), cap=3)


def test_weights_a_type():
    n = 4
    m = hirzebruch_blowup(n)
    datum = enumerate_roots(m, ("K", "f", "b"))
    for i in range(1, n + 1):
        w = weight_of(datum, m.exceptional(i)).entries
        expected = tuple(
            -1 if j == i else (1 if j == i - 1 else 0) for j in range(1, n)
        )
        assert w == expected
    assert weight_of(datum, m.K).entries == (0,) * (n - 1)


def test_e6_line_weights_single_orbit():
    m = p2_blowup(6)
    datum = enumerate_roots(m, ("K",))
    lines = enumerate_lines(m)
    orbit = weyl_orbit(datum, lines[0], cap=100)
    assert sorted(c.coeffs for c in orbit) == [c.coeffs for c in lines]


def test_dn_weights_negate():
    n = 4
    m = hirzebruch_blowup(n)
    datum = enumerate_roots(m, ("K", "f"))
    for i in range(1, n + 1):
        w_plus = weight_of(datum, m.exceptional(i)).entries
        w_minus = weight_of(datum, m.fiber_class - m.exceptional(i)).entries
        assert tuple(-x for x in w_plus) == w_minus


def _coeffs(classes):
    return [c.coeffs for c in classes]


# The breadth-first oracle costs about 0.1 ms per class, and a random class
# on E7 can have 362 880 of them, so random starts stay on the models below,
# with coefficients in [-2, 2]; p2(7) and p2(8) get fixed starts only.  The
# number of examples per model shrinks with its mean orbit size (E6: about
# 2 800 classes, D7: about 8 600 and at most 40 320).
_ORBIT_MODELS = [
    ("p2", 3, ("K",), 20),
    ("p2", 4, ("K",), 20),
    ("p2", 5, ("K",), 8),
    ("p2", 6, ("K",), 3),
    *[("hirzebruch", n, ("K", "f", "b"), 20) for n in range(2, 6)],
    ("hirzebruch", 6, ("K", "f", "b"), 15),
    ("hirzebruch", 7, ("K", "f", "b"), 8),
    *[("hirzebruch", n, ("K", "f"), 20) for n in range(2, 5)],
    ("hirzebruch", 5, ("K", "f"), 8),
    ("hirzebruch", 6, ("K", "f"), 3),
    ("hirzebruch", 7, ("K", "f"), 2),
]


@pytest.mark.parametrize(
    "kind, n, orth, examples",
    [pytest.param(*case, id=f"{case[0]}{case[1]}-{''.join(case[2])}") for case in _ORBIT_MODELS],
)
def test_orbit_matches_bfs_oracle(kind, n, orth, examples):
    datum = enumerate_roots(build_surface(kind, n), orth)
    rank = datum.model.rank

    @settings(max_examples=examples, deadline=None)
    @given(st.lists(st.integers(-2, 2), min_size=rank, max_size=rank))
    def check(coeffs):
        cls = datum.model.cls(coeffs)
        want = weyl_orbit_bfs(datum, cls, cap=10**6)
        assert _coeffs(_orbit_at_cap(datum, cls, len(want))) == _coeffs(want)

    check()


@pytest.mark.parametrize("n", [7, 8])
def test_e7_e8_orbits_match_bfs_oracle(n):
    m = p2_blowup(n)
    datum = enumerate_roots(m, ("K",))
    lines = enumerate_lines(m)
    # the lines form one orbit, so the oracle runs once and every line starts
    want = _coeffs(weyl_orbit_bfs(datum, lines[0]))
    assert want == _coeffs(lines)
    for line in lines:
        assert _coeffs(_orbit_at_cap(datum, line, len(want))) == want
    root = datum.simple_roots[-1]
    starts = [(root, len(datum.roots))] + ([(m.basis_class("h"), 576)] if n == 7 else [])
    for cls, size in starts:
        assert _coeffs(_orbit_at_cap(datum, cls, size)) == _coeffs(weyl_orbit_bfs(datum, cls))
    assert _coeffs(weyl_orbit(datum, root)) == _coeffs(datum.roots)


@pytest.mark.parametrize("n, size", [(6, 27), (7, 56), (8, 240)])
def test_line_orbit_sizes(n, size):
    m = p2_blowup(n)
    datum = enumerate_roots(m, ("K",))
    line = enumerate_lines(m)[-1]
    assert len(_orbit_at_cap(datum, line, size)) == size


def test_orbit_of_h_on_dp8():
    m = p2_blowup(8)
    datum = enumerate_roots(m, ("K",))
    h = m.basis_class("h")
    orbit = _orbit_at_cap(datum, h, 17_280)
    assert len(orbit) == 17_280
    assert all(m.pair(x, x) == 1 and m.pair(x, m.K) == -3 for x in orbit)
    # independently: the classes with x*x = 1 and x*K = -3 are the orbit of h
    # and the 240 classes -3K + 2 alpha, one for each root alpha
    every = set(_coeffs(enumerate_classes(m, 1, [(m.K, -3)])))
    assert len(every) == 17_520
    rest = {(-3 * m.K + 2 * alpha).coeffs for alpha in datum.roots}
    assert set(_coeffs(orbit)) <= every
    assert every - set(_coeffs(orbit)) == rest


def test_orbit_cap_is_checked_before_enumeration():
    m = p2_blowup(8)
    datum = enumerate_roots(m, ("K",))
    h = m.basis_class("h")
    tracemalloc.start()
    try:
        with pytest.raises(OrbitCapExceededError, match="17280"):
            weyl_orbit(datum, h, cap=10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 200_000  # the orbit itself takes megabytes
    with pytest.raises(OrbitCapExceededError, match="17280"):
        weyl_orbit(datum, h, cap=17_279)
    assert len(weyl_orbit(datum, h, cap=17_280)) == 17_280


def test_orbit_and_weights_refuse_another_basis():
    datum = enumerate_roots(p2_blowup(6), ("K",))
    other = p2_blowup(5).basis_class("h")
    with pytest.raises(BasisMismatchError):
        weyl_orbit(datum, other)
    with pytest.raises(BasisMismatchError):
        weight_of(datum, other)


def test_weights_match_pairings():
    m = p2_blowup(8)
    datum = enumerate_roots(m, ("K",))
    for x in enumerate_lines(m)[::7] + [m.K, m.basis_class("h")]:
        want = tuple(m.pair(x, a) for a in datum.simple_roots)
        assert weight_of(datum, x).entries == want


def test_unbounded_enumeration_refused():
    # constraining only against f leaves an indefinite residual lattice
    m = hirzebruch_blowup(3)
    with pytest.raises(AdesurfError):
        enumerate_classes(m, -2, [(m.fiber_class, 0)])


def test_kernel_refuses_oversized_boxes():
    from adesurf._enumkernel import check_work_limits

    with pytest.raises(EnumerationBoundError):
        check_work_limits(-1, [1 << 21], [], [])
    with pytest.raises(EnumerationBoundError):
        check_work_limits(-1, [3] * 70, [], [])
    with pytest.raises(EnumerationBoundError):
        check_work_limits(1 << 55, [3], [], [])
    check_work_limits(-1, [7, 3, 3], [[1, 1, 1]], [0])  # sane input passes


def test_inconsistent_constraints_yield_empty():
    m = hirzebruch_blowup(0)
    # K = -2b - 3f makes x*K determined by x*b, x*f; demand the impossible
    got = enumerate_classes(
        m, -1, [(m.K, 5), (m.base_class, 0), (m.fiber_class, 0)]
    )
    assert got == []


@st.composite
def diag_systems(draw, max_rank):
    r = draw(st.integers(1, max_rank))
    bounds = draw(st.lists(st.integers(0, 4), min_size=r, max_size=r))
    m = draw(st.integers(0, 2))
    row = st.lists(st.integers(-3, 3), min_size=r, max_size=r)
    rows = draw(st.lists(row, min_size=m, max_size=m))
    targets = draw(st.lists(st.integers(-4, 4), min_size=m, max_size=m))
    s = draw(st.integers(-4, 4))
    return s, bounds, rows, targets


@settings(max_examples=300, deadline=None)
@given(diag_systems(max_rank=5))
def test_kernel_matches_brute_force(system):
    assert enumerate_diag(*system) == brute_force_diag(*system)


@settings(max_examples=150, deadline=None)
@given(diag_systems(max_rank=3))
def test_kernel_matches_literal_box_scan(system):
    assert enumerate_diag(*system) == literal_box_scan(*system)


@st.composite
def diag_systems_with_runs(draw):
    """Systems whose coordinates i >= 1 come in runs of 1-4 interchangeable ones.

    Inside a run every coordinate has the same bound and the same column in
    every constraint row; neighbouring runs that happen to agree merge.
    """
    m = draw(st.integers(0, 2))
    column = st.lists(st.integers(-2, 2), min_size=m, max_size=m)
    bounds, cols = [draw(st.integers(0, 3))], [draw(column)]
    for length in draw(st.lists(st.integers(1, 4), min_size=1, max_size=3).filter(lambda ls: sum(ls) <= 8)):
        b, c = draw(st.integers(0, 2)), draw(column)
        bounds += [b] * length
        cols += [c] * length
    rows = [[c[j] for c in cols] for j in range(m)]
    targets = draw(st.lists(st.integers(-4, 4), min_size=m, max_size=m))
    s = draw(st.integers(-5, 3))
    return s, bounds, rows, targets


@settings(max_examples=300, deadline=None)
@given(diag_systems_with_runs())
def test_kernel_matches_oracles_on_interchangeable_runs(system):
    got = enumerate_diag(*system)
    assert got == full_box_sweep(*system)
    assert got == brute_force_diag(*system)


@pytest.mark.parametrize("margin", [0, 2])
def test_pruned_layers_fit_small_row_budget(monkeypatch, margin):
    # without the Cauchy-Schwarz cut the largest dP8 layer has ~6e5 candidate
    # rows at margin 0 and ~9e6 at margin 2
    monkeypatch.setattr(_enumkernel, "_MAX_LAYER_ROWS", 5000)
    assert len(enumerate_lines(p2_blowup(8), bound_margin=margin)) == 240


def test_layer_guard_refuses(monkeypatch):
    monkeypatch.setattr(_enumkernel, "_MAX_LAYER_ROWS", 50)
    with pytest.raises(EnumerationBoundError, match="layer too large"):
        enumerate_lines(p2_blowup(8))


def test_layer_guard_counts_the_expanded_solutions(monkeypatch):
    # the dP8 sweeps visit at most a few hundred candidates per layer, but the
    # 15 conic representatives expand into 2160 classes
    m = p2_blowup(8)
    monkeypatch.setattr(_enumkernel, "_MAX_LAYER_ROWS", 1000)
    assert len(enumerate_lines(m)) == 240
    with pytest.raises(EnumerationBoundError, match="layer too large"):
        enumerate_classes(m, 0, [(m.K, -2)])
    monkeypatch.setattr(_enumkernel, "_MAX_LAYER_ROWS", 2160)
    assert len(enumerate_classes(m, 0, [(m.K, -2)])) == 2160


def _outcome(fn, *args):
    try:
        return fn(*args)
    except AdesurfError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("kind", ["p2", "hirzebruch"])
@pytest.mark.parametrize("n", range(9))
def test_coefficient_bounds_match_dense_oracle(kind, n):
    if kind == "p2":
        model = p2_blowup(n)
        named = {"K": model.K}
    else:
        source = hirzebruch_blowup(n)
        model = p2_presentation(source)
        named = {
            name: change_basis(source, model, c)
            for name, c in (("K", source.K), ("f", source.fiber_class), ("b", source.base_class))
        }
    sets = [names for names in ("", "K", "Kf", "Kfb", "f") if all(c in named for c in names)]
    cases = [[(named[c], t) for c in names] for names in sets for t in (-1, 0, 1)]
    # dependent constraint sets, with consistent and inconsistent targets
    k = named["K"]
    cases += [[(k, a), (k, b)] for a, b in ((-1, -1), (0, 0), (-1, 0), (1, -1))]
    cases += [[(k, a), (k * 2, b)] for a, b in ((-1, -2), (0, 0), (1, 2), (-1, -1), (0, 1))]
    if "f" in named:
        f = named["f"]
        cases += [
            [(f, a), (k, b), (f + k, c)]
            for a, b, c in ((0, -1, -1), (1, -2, -1), (1, 0, 1), (0, -1, 0), (1, -2, 1))
        ]
    for s in (-2, -1, 0):
        for cons in cases:
            want = _outcome(dense_coefficient_bounds, model, s, cons)
            got = _outcome(coefficient_bounds, model, s, cons)
            assert got == want, (s, [(c.coeffs, t) for c, t in cons])


def test_indefinite_residual_lattice_is_refused():
    # the constraints' Gram matrix [[-13, -8, -7], [-8, -5, -5], [-7, -5, -10]] has
    # inertia (0, 2, 1); a count with float quotients read (1, 2, 0), called the
    # residual lattice definite and returned [] although (3, -2, -2, 1) solves it
    m = p2_blowup(3)
    cons = [(m.cls((0, 0, 2, 3)), 1), (m.cls((0, 0, 1, 2)), 0), (m.cls((3, -3, -1, 3)), -2)]
    x = m.cls((3, -2, -2, 1))
    assert m.pair(x, x) == 0 and all(m.pair(x, u) == t for u, t in cons)
    with pytest.raises(EnumerationBoundError, match="not negative definite"):
        dense_coefficient_bounds(m, 0, cons)
    with pytest.raises(EnumerationBoundError, match="not negative definite"):
        enumerate_classes(m, 0, cons)


def test_negative_margin_is_refused():
    m = p2_blowup(6)
    with pytest.raises(AdesurfError, match="margin"):
        enumerate_lines(m, bound_margin=-1)
    with pytest.raises(AdesurfError, match="margin"):
        enumerate_roots(m, ("K",), bound_margin=-1)
    with pytest.raises(AdesurfError, match="margin"):
        enumerate_classes(m, 0, [(m.K, -2)], bound_margin=-1)


@pytest.mark.parametrize("margin", [0, 1, 2])
def test_margins_keep_their_answers(margin):
    m = p2_blowup(6)
    assert len(enumerate_lines(m, bound_margin=margin)) == 27
    datum = enumerate_roots(m, ("K",), bound_margin=margin)
    assert (len(datum.roots), datum.type_label) == (72, "E6")
    assert len(enumerate_classes(m, 0, [(m.K, -2)], bound_margin=margin)) == 27
