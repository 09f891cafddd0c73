import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adesurf.divisors import (
    EFFECTIVE,
    NOT_EFFECTIVE,
    CollisionConfig,
    euler_char,
    ext_profile,
    is_effective,
)
from adesurf.errors import (
    AdesurfError,
    BasisMismatchError,
    EnumerationBoundError,
    ParityViolationError,
)
from adesurf.lattice import LatticeClass, SurfaceModel, hirzebruch_blowup, p2_blowup
from adesurf.linesroots import enumerate_classes, enumerate_lines

from .oracles import backtrack_effective


def test_euler_char_examples():
    m = hirzebruch_blowup(2)
    assert euler_char(m, m.zero()) == 1
    d = m.exceptional(2) - m.exceptional(1)
    assert euler_char(m, d) == 0
    p6 = p2_blowup(6)
    assert euler_char(p6, -p6.K) == 4


def test_serre_symmetry_random():
    rng = random.Random(3)
    for _ in range(300):
        n = rng.randint(0, 7)
        m = hirzebruch_blowup(n) if rng.random() < 0.5 else p2_blowup(n)
        d = m.cls([rng.randint(-6, 6) for _ in range(m.rank)])
        assert euler_char(m, d) == euler_char(m, m.K - d)


def test_parity_violation_signals_gram_bug():
    # a deliberately corrupt model: D*D odd while D*K = 0 breaks parity
    bad = SurfaceModel(
        kind="p2_blowup",
        n=0,
        basis_id="corrupt",
        labels=("h",),
        gram=((1,),),
        K=LatticeClass((0,), "corrupt"),
        E=LatticeClass((0,), "corrupt"),
        fiber_class=None,
        base_class=None,
    )
    with pytest.raises(ParityViolationError):
        euler_char(bad, LatticeClass((1,), "corrupt"))


def test_collision_config_induced_curves():
    m = hirzebruch_blowup(3)
    cfg = CollisionConfig(((1, 2),))
    (c,) = cfg.induced_curves(m)
    assert c.coeffs == (m.exceptional(2) - m.exceptional(1)).coeffs
    assert m.pair(c, c) == -2
    assert m.pair(c, m.K) == 0
    with pytest.raises(AdesurfError):
        CollisionConfig(((1, 1),))


@pytest.mark.parametrize(
    "pairs, meeting",
    [(((1, 2), (2, 1)), "meeting in 2"), (((1, 2), (1, 3)), "meeting in -1"),
     (((1, 2), (1, 2)), "meeting in -2"), (((1, 2), (2, 3), (3, 1)), "form a cycle")],
    ids=["reversed", "shared_point", "repeated", "cycle"],
)
def test_collision_config_rejects_non_curves(pairs, meeting):
    m = p2_blowup(4)
    with pytest.raises(AdesurfError, match=meeting):
        CollisionConfig(pairs).induced_curves(m)
    with pytest.raises(AdesurfError, match=meeting):
        is_effective(m, CollisionConfig(pairs), -m.K)


def test_collision_chain_is_accepted():
    m = p2_blowup(4)
    curves = CollisionConfig(((1, 2), (2, 3), (3, 4))).induced_curves(m)
    assert [m.pair(a, b) for a, b in zip(curves, curves[1:])] == [1, 1]
    # l3 meets l3 - l2 negatively, so it is reducible and must not be peeled
    c1, c2, _ = curves
    res = is_effective(m, CollisionConfig(((1, 2), (2, 3))), 2 * (c1 + c2))
    assert res.certificate == ((c1, 2), (c2, 2))


def test_effectivity_generator():
    m = hirzebruch_blowup(2)
    res = is_effective(m, None, m.exceptional(1))
    assert res.status == EFFECTIVE
    assert res.certificate == ((m.exceptional(1), 1),)
    with pytest.raises(BasisMismatchError):
        is_effective(m, None, hirzebruch_blowup(3).exceptional(1))


def test_effectivity_zero_class():
    m = hirzebruch_blowup(2)
    res = is_effective(m, None, m.zero())
    assert res.status == EFFECTIVE
    assert res.certificate == ()


def test_effectivity_dichotomy_on_difference():
    m = hirzebruch_blowup(2)
    d = m.exceptional(2) - m.exceptional(1)
    assert is_effective(m, None, d).status == NOT_EFFECTIVE
    res = is_effective(m, CollisionConfig(((1, 2),)), d)
    assert res.status == EFFECTIVE
    ((cls, mult),) = res.certificate
    assert mult == 1 and cls.coeffs == d.coeffs


def test_certificate_reproduces_class():
    rng = random.Random(5)
    m = p2_blowup(4)
    h = m.basis_class("h")
    excs = [m.exceptional(i) for i in range(1, 5)]
    gens = excs + [h - excs[i] - excs[j] for i in range(4) for j in range(i + 1, 4)]
    for _ in range(60):
        target = m.zero()
        for g in gens:
            target = target + rng.randint(0, 2) * g
        res = is_effective(m, None, target)
        assert res.status == EFFECTIVE
        rebuilt = m.zero()
        for cls, mult in res.certificate:
            rebuilt = rebuilt + mult * cls
        assert rebuilt.coeffs == target.coeffs


@pytest.mark.parametrize("n", range(2, 7))
def test_curves_outside_old_generators_are_effective(n):
    m = hirzebruch_blowup(n)
    b, f, l1 = m.base_class, m.fiber_class, m.exceptional(1)
    for d in (b, f - l1):
        res = is_effective(m, None, d)
        assert res.status == EFFECTIVE and bool(res)
        assert res.certificate == ((d, 1),)
    prof = ext_profile(m, None, l1, b + l1)
    assert prof.as_tuple() == (1, 0, 0, 1)
    assert prof.certificate == ((b, 1),)


def test_conic_and_plane_class_are_effective():
    m = p2_blowup(6)
    conic = 2 * m.basis_class("h") - sum((m.exceptional(i) for i in range(1, 6)), m.zero())
    assert is_effective(m, None, conic).certificate == ((conic, 1),)
    p = p2_blowup(0)
    h = p.basis_class("h")
    assert is_effective(p, None, 3 * h).certificate == ((h, 3),)
    assert is_effective(p, None, -h).status == NOT_EFFECTIVE


def test_degree_eight_uses_the_fiber_class():
    for m in (hirzebruch_blowup(0), p2_blowup(1)):
        (f,) = enumerate_classes(m, 0, [(m.K, -2)])
        (e,) = enumerate_lines(m)
        assert is_effective(m, None, 2 * f + e).certificate == ((e, 1), (f, 2))
        assert is_effective(m, None, f - e).status == NOT_EFFECTIVE  # -K.D = 1 but D.f < 0


def test_degree_one_uses_minus_k():
    m = p2_blowup(8)
    assert is_effective(m, None, m.E).certificate == ((m.E, 1),)  # -K - E is a root, not a curve
    assert is_effective(m, None, -m.K - m.exceptional(8)).status == NOT_EFFECTIVE


def test_large_class_work_grows_linearly():
    # a peel pass removes every negative curve at once and each generator is
    # taken with its largest multiple; -1000K costs 21961 peel steps
    m = p2_blowup(6)
    d = -1000 * m.K
    res = is_effective(m, None, d)
    assert res.status == EFFECTIVE and res.nodes_used < 25_000
    rebuilt = m.zero()
    for cls, mult in res.certificate:
        rebuilt = rebuilt + mult * cls
    assert rebuilt.coeffs == d.coeffs


@pytest.mark.parametrize(
    "model", [p2_blowup(9), hirzebruch_blowup(8), p2_blowup(12)], ids=["p2_9", "hz_8", "p2_12"]
)
def test_effectivity_needs_positive_degree(model):
    kk = model.pair(model.K, model.K)
    with pytest.raises(EnumerationBoundError, match=f"K\\*K = {kk}"):
        is_effective(model, None, model.E)
    with pytest.raises(EnumerationBoundError):
        ext_profile(model, None, model.exceptional(1), model.exceptional(1))


_ORACLE_CASES = [
    (kind, n, pairs)
    for kind, ns in (("p2", range(3, 9)), ("hz", range(2, 8)))
    for n in ns
    for pairs in [(), ((1, 2),), ((1, 2), (2, 3))]
    if not pairs or pairs[-1][1] <= n
]


def _oracle_case(kind, n, pairs):
    """Model, collisions, full generator list and oracle tilt for one case."""
    m = p2_blowup(n) if kind == "p2" else hirzebruch_blowup(n)
    cfg = CollisionConfig(pairs)
    gens = list(cfg.induced_curves(m)) + enumerate_lines(m)
    if m.pair(m.K, m.K) == 1:
        gens.append(m.E)
    depth = {}
    for i, j in pairs:
        depth[j] = depth.get(i, 0) + 1
    tilt = m.zero()
    for j, k in depth.items():
        tilt = tilt - k * m.exceptional(j)
    return m, cfg, gens, tilt


def _listed_curves(m, cfg):
    """Every class a certificate may use: negative curves and the extra generators."""
    listed = {c.coeffs for c in cfg.induced_curves(m)} | {e.coeffs for e in enumerate_lines(m)}
    degree = m.pair(m.K, m.K)
    if degree == 9:
        listed.add(m.basis_class("h").coeffs)
    if degree == 8:
        listed |= {f.coeffs for f in enumerate_classes(m, 0, [(m.K, -2)])}
    if degree == 1:
        listed.add(m.E.coeffs)
    return listed


@settings(max_examples=120, deadline=None)
@given(case=st.sampled_from(_ORACLE_CASES), data=st.data())
def test_peeling_matches_backtracking_oracle(case, data):
    m, cfg, gens, tilt = _oracle_case(*case)
    d = m.cls(data.draw(st.lists(st.integers(-3, 3), min_size=m.rank, max_size=m.rank)))
    res = is_effective(m, cfg, d)
    status, _ = backtrack_effective(m, gens, d, tilt, node_budget=5000)
    if status is not None:
        assert res.status == status
    if res.status == EFFECTIVE:
        listed = _listed_curves(m, cfg)
        rebuilt = m.zero()
        for cls, mult in res.certificate:
            assert cls.coeffs in listed and mult >= 1
            rebuilt = rebuilt + mult * cls
        assert rebuilt.coeffs == d.coeffs
    else:
        assert res.certificate is None


def test_ext_profile_collision():
    m = hirzebruch_blowup(2)
    l1, l2 = m.exceptional(1), m.exceptional(2)
    prof = ext_profile(m, CollisionConfig(((1, 2),)), l1, l2)
    assert prof.as_tuple() == (1, 1, 0, 0)


def test_ext_profile_generic_points():
    m = hirzebruch_blowup(2)
    prof = ext_profile(m, None, m.exceptional(1), m.exceptional(2))
    assert prof.as_tuple() == (0, 0, 0, 0)


def test_ext_profile_self():
    m = hirzebruch_blowup(2)
    prof = ext_profile(m, None, m.exceptional(1), m.exceptional(1))
    assert prof.as_tuple() == (1, 0, 0, 1)


def test_ext_profile_index_consistency():
    m = hirzebruch_blowup(3)
    cfg = CollisionConfig(((1, 2), (2, 3)))
    for i in range(1, 4):
        for j in range(1, 4):
            prof = ext_profile(m, cfg, m.exceptional(i), m.exceptional(j))
            assert prof.index == prof.ext0 - prof.ext1 + prof.ext2
