"""The sparse integer echelon against dense Fraction elimination."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from adesurf._linalg import Echelon, integer_row, nullspace, rank

from .oracles import dense_nullspace, dense_rank, dense_rows

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
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


@settings(max_examples=200, deadline=None)
@given(case=sparse_matrices())
def test_rank_and_kernel_match_dense_oracle(case):
    ncols, rows = case
    before = [dict(r) for r in rows]
    dense = dense_rows(rows, ncols)
    want_rank = dense_rank(dense)
    want_kernel = dense_nullspace(dense) if dense else _identity(ncols)
    assert rank(rows) == want_rank
    assert rank(dense) == want_rank
    assert nullspace(rows, ncols) == want_kernel
    if dense:
        assert nullspace(dense, ncols) == dense_nullspace(dense)
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
    assert nullspace([], 0) == dense_nullspace([]) == []
    assert nullspace([], 3) == _identity(3)
    assert rank([[], []]) == 0
    assert nullspace([[], []], 0) == dense_nullspace([[], []]) == []
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
    assert built == []
