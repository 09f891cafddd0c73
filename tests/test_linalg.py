"""The sparse integer echelon against dense Fraction elimination, and exact inertia."""

import ast
from fractions import Fraction
from math import gcd
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import adesurf
from adesurf._linalg import Echelon, integer_row, nullspace, rank, signature_symmetric

from .oracles import dense_nullspace, dense_rank, dense_rows, sympy_inertia

_HUGE = 10**30

_VALUES = {
    "int": st.integers(-5, 5).filter(bool),
    "rational": st.fractions(-10, 10, max_denominator=12).filter(bool),
    "huge": st.builds(
        lambda sign, k, q: Fraction(sign * (_HUGE + k), q),
        st.sampled_from([1, -1]),
        st.integers(-1000, 1000),
        st.sampled_from([1, 1, 7, _HUGE + 3]),
    ),
}


@st.composite
def sparse_matrices(draw):
    """(ncols, rows): up to 12x12, with zero, repeated and combined rows mixed in."""
    ncols = draw(st.integers(0, 12))
    nrows = draw(st.integers(0, 12))
    value = _VALUES[draw(st.sampled_from(sorted(_VALUES)))]
    rows = []
    for _ in range(nrows):
        how = draw(st.sampled_from(["fresh", "fresh", "fresh", "zero", "copy", "sum"])) if rows else "fresh"
        if how == "zero" or ncols == 0:
            row = {}
        elif how == "fresh":
            row = draw(st.dictionaries(st.integers(0, ncols - 1), value, max_size=min(ncols, 4)))
        elif how == "copy":
            row = dict(draw(st.sampled_from(rows)))
        else:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            ca, cb = draw(value), draw(value)
            row = {c: ca * a.get(c, 0) + cb * b.get(c, 0) for c in set(a) | set(b)}
            row = {c: v for c, v in row.items() if v}
        rows.append(row)
    return ncols, rows


def _identity(n):
    return [{i: 1} for i in range(n)]


def _integer_kernel(dense):
    """The dense oracle's kernel basis, each vector scaled to a primitive integer row."""
    return [integer_row(v) for v in dense_nullspace(dense)]


@settings(max_examples=200, deadline=None)
@given(case=sparse_matrices())
def test_rank_and_kernel_match_dense_oracle(case):
    ncols, rows = case
    before = [dict(r) for r in rows]
    dense = dense_rows(rows, ncols)
    want_rank = dense_rank(dense)
    want_kernel = _integer_kernel(dense) if dense else _identity(ncols)
    assert rank(rows) == want_rank
    assert rank(dense) == want_rank
    kernel = nullspace(rows, ncols)
    assert kernel == want_kernel
    for v in kernel:
        assert all(type(x) is int for x in v.values())
        assert list(v) == sorted(v)
        assert gcd(*v.values()) == 1
    if dense:
        assert nullspace(dense, ncols) == want_kernel
    assert rows == before  # the caller's rows are not modified


@settings(max_examples=200, deadline=None)
@given(case=sparse_matrices())
def test_add_is_false_exactly_on_dependent_rows(case):
    ncols, rows = case
    ranks = [dense_rank(dense_rows(rows[:i], ncols)) for i in range(len(rows) + 1)]
    ech = Echelon()
    for i, row in enumerate(rows):
        assert ech.add(row) is (ranks[i + 1] > ranks[i])
        assert len(ech) == ranks[i + 1]


@settings(max_examples=50, deadline=None)
@given(case=sparse_matrices())
def test_integer_row_keeps_the_line(case):
    """integer_row scales by a positive constant and drops zeros."""
    _, rows = case
    for row in rows:
        ints = integer_row(row)
        assert set(ints) == {c for c, v in row.items() if v}
        assert all(type(v) is int for v in ints.values())
        if row:
            c = min(row)
            scale = Fraction(ints[c]) / row[c]
            assert scale > 0
            assert all(ints[k] == scale * v for k, v in row.items())


def test_empty_and_zero_column_matrices():
    assert rank([]) == 0
    assert nullspace([], 0) == _integer_kernel([]) == []
    assert nullspace([], 3) == _identity(3)
    assert rank([[], []]) == 0
    assert nullspace([[], []], 0) == _integer_kernel([[], []]) == []
    assert rank([{}, {}]) == 0
    assert nullspace([{}, {}], 2) == _identity(2)


def test_forward_elimination_builds_no_fraction(monkeypatch):
    rows = [
        [Fraction(1, 2), 3, 0, Fraction(-5, 7)],
        [2, 0, Fraction(1, 3), 1],
        [Fraction(5, 2), 3, Fraction(1, 3), Fraction(2, 7)],
        {1: _HUGE, 3: Fraction(_HUGE + 1, 9)},
    ]
    built = []
    original = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    ech = Echelon()
    assert [ech.add(row) for row in rows] == [True, True, False, True]
    assert ech.reduced() == [
        (0, {0: 21 * _HUGE // 2, 3: -22 * _HUGE - 7}),
        (1, {1: 9 * _HUGE, 3: _HUGE + 1}),
        (2, {2: 7 * _HUGE // 4, 3: 109 * _HUGE // 4 + 7}),
    ]
    assert nullspace(rows, 4) == [{0: 132 * _HUGE + 42, 1: -7 * _HUGE - 7, 2: -981 * _HUGE - 252, 3: 63 * _HUGE}]
    assert nullspace([[2, 4, 0, 6], [0, 3, 3, 0]], 4) == [{0: 2, 1: -1, 2: 1}, {0: -3, 3: 1}]
    assert built == []


def test_signature_is_exact_on_int_matrices():
    # the last pivot is -12 + 3/4 * 16 = 0; with float quotients it came out -1.8e-15, giving (1, 2, 0)
    assert signature_symmetric([[3, 7, -3], [7, -5, 9], [-3, 9, -9]]) == (1, 1, 1)
    assert signature_symmetric(((3, 7, -3), (7, -5, 9), (-3, 9, -9))) == (1, 1, 1)


@st.composite
def symmetric_matrices(draw):
    """Symmetric matrices up to 8x8: int, rational, zero-diagonal, or a low-rank sum of +-v v^T."""
    n = draw(st.integers(0, 8))
    kind = draw(st.sampled_from(["int", "rational", "zero-diagonal", "low-rank"]))
    if kind == "low-rank":
        vecs = draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), max_size=n))
        signs = [draw(st.sampled_from([1, -1])) for _ in vecs]
        return [[sum(s * v[i] * v[j] for s, v in zip(signs, vecs)) for j in range(n)] for i in range(n)]
    value = st.fractions(-5, 5, max_denominator=7) if kind == "rational" else st.integers(-9, 9)
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if i != j or kind != "zero-diagonal":
                m[i][j] = m[j][i] = draw(value)
    return m


@settings(max_examples=200, deadline=None)
@given(gram=symmetric_matrices())
def test_signature_matches_charpoly_oracle(gram):
    before = [list(row) for row in gram]
    assert signature_symmetric(gram) == sympy_inertia(gram)
    assert gram == before  # the caller's matrix is not modified


def test_package_has_no_true_division():
    """Every quotient in the package is exact: Fraction(a, b), or // and divmod with a remainder check."""
    src = Path(adesurf.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
