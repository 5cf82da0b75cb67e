"""Sparse echelon kernel against the dense elimination oracle."""

import builtins
import fractions
from fractions import Fraction

import oracle_exact as oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mta import exact
from mta.exact import Echelon, dense, sparse

entry = st.integers(min_value=-3, max_value=3)


def solve(rows, b, n):
    """exact.solve_linear on the dense system rows x = b in n unknowns,
    its solution made dense again."""
    x = exact.solve_linear([sparse(list(r) + [c]) for r, c in zip(rows, b)], n)
    return None if x is None else dense(x, n)


def oracle_solve(rows, b, n):
    """oracle.solve_linear, which reads the number of unknowns off the
    first row, so a system without rows gets the zero solution here."""
    return oracle.solve_linear(rows, b) if rows else [0] * n


@st.composite
def matrices(draw):
    """Small integer matrices padded with duplicate, zero and dependent rows,
    in a drawn order."""
    ncols = draw(st.integers(min_value=1, max_value=6))
    row = st.lists(entry, min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, max_size=6))
    extras = draw(
        st.lists(
            st.tuples(st.sampled_from(["dup", "zero", "comb"]), st.integers(0, 99), st.integers(0, 99), entry),
            max_size=4,
        )
    )
    for kind, i, j, c in extras:
        if kind == "zero" or not rows:
            rows.append([0] * ncols)
        elif kind == "dup":
            rows.append(list(rows[i % len(rows)]))
        else:
            r, s = rows[i % len(rows)], rows[j % len(rows)]
            rows.append([x + c * y for x, y in zip(r, s)])
    order = draw(st.permutations(range(len(rows))))
    return ncols, [rows[k] for k in order]


@settings(max_examples=300, deadline=None)
@given(matrices(), st.lists(entry, min_size=6, max_size=6), st.lists(entry, min_size=12, max_size=12))
def test_kernel_matches_dense_rref(mat, vec, rhs):
    ncols, rows = mat
    v = vec[:ncols]
    expected = oracle.rref(rows)
    assert exact.rref(rows) == expected
    ech = Echelon(map(sparse, rows))
    assert ([dense(row, ncols) for row in ech.basis()], sorted(ech.rows)) == expected
    assert len(Echelon(map(sparse, rows))) == oracle.rank(rows)
    red, pivots = expected
    residual = oracle.reduce_vector(red, pivots, v)
    assert dense(Echelon(map(sparse, rows)).reduce(sparse(v)), ncols) == residual
    assert exact.reduce_vector(red, pivots, v) == residual
    b = rhs[: len(rows)]
    assert solve(rows, b, ncols) == oracle_solve(rows, b, ncols)
    # a right-hand side in the column space is always consistent
    b = [sum(x * y for x, y in zip(r, v)) for r in rows]
    x = solve(rows, b, ncols)
    assert x is not None and x == oracle_solve(rows, b, ncols)


def test_solve_linear_inconsistent():
    assert exact.solve_linear([{0: 1, 1: 1, 2: 1}, {0: 2, 1: 2, 2: 3}], 2) is None
    assert oracle.solve_linear([[1, 1], [2, 2]], [1, 3]) is None
    assert exact.solve_linear([{0: 1, 1: 1, 2: 1}, {0: 2, 1: 2, 2: 2}], 2) == {0: 1}
    # a zero row with a nonzero right-hand side
    assert exact.solve_linear([{0: 1}, {1: 5}], 1) is None


@settings(max_examples=100, deadline=None)
@given(st.lists(entry, max_size=5))
def test_solve_linear_with_zero_unknowns(b):
    """With no unknowns a system is consistent exactly when b is zero, and
    its one solution is the empty vector."""
    rows = [[] for _ in b]
    assert solve(rows, b, 0) == oracle.solve_linear(rows, b)
    assert (exact.solve_linear([sparse([c]) for c in b], 0) is None) == any(b)


def test_echelon_add_reports_dependence():
    ech = Echelon()
    assert ech.add({0: Fraction(2), 2: Fraction(4)})
    assert not ech.add({0: Fraction(1), 2: Fraction(2)})
    assert not ech.add({})
    assert ech.add({1: Fraction(3), 2: Fraction(1)})
    assert ech.basis() == [{0: 1, 2: 2}, {1: 1, 2: Fraction(1, 3)}]
    assert ech.reduce({0: Fraction(1), 1: Fraction(1), 2: Fraction(1)}) == {2: Fraction(-4, 3)}


def _normal(values) -> bool:
    """Every value is an exact scalar in normal form: an int when integral,
    else a Fraction with a denominator; never a float."""
    return all(type(x) is int or (type(x) is Fraction and x.denominator != 1) for x in values)


nonunit = st.sampled_from([-7, -5, -3, -2, 2, 3, 5, 7])


@st.composite
def nonunit_pivot_rows(draw):
    """Integer matrices whose rows are scaled by non-unit factors of either
    sign, so elimination meets non-unit and negative pivots."""
    ncols = draw(st.integers(min_value=1, max_value=5))
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), min_size=1, max_size=5))
    scales = draw(st.lists(nonunit, min_size=len(rows), max_size=len(rows)))
    return ncols, [[s * x for x in r] for s, r in zip(scales, rows)]


@settings(max_examples=300, deadline=None)
@given(nonunit_pivot_rows(), st.lists(st.integers(-9, 9), min_size=5, max_size=5))
def test_integer_kernel_is_exact_and_normal(mat, rhs):
    ncols, rows = mat
    ech = Echelon(map(sparse, rows))
    assert ([dense(row, ncols) for row in ech.basis()], sorted(ech.rows)) == oracle.rref(rows)
    assert all(_normal(row.values()) for row in ech.rows.values())
    reduced, pivots = exact.rref(rows)
    assert (reduced, pivots) == oracle.rref(rows)
    assert all(_normal(row) for row in reduced)
    b = rhs[: len(rows)]
    x = exact.solve_linear([sparse(r + [c]) for r, c in zip(rows, b)], ncols)
    assert (x if x is None else dense(x, ncols)) == oracle_solve(rows, b, ncols)
    assert x is None or _normal(x.values())


# factors that give rows non-unit pivots of either sign, contents above
# 2**64 and denominators, the last two also above 2**64
row_scale = st.sampled_from([1, -1, 2, -6, 35, 2**64 + 13, -(3**41), Fraction(1, 6), Fraction(-7, 2**65 + 1)])


@st.composite
def echelon_scripts(draw):
    """A column count and a list of Echelon calls (op, dense row): rows are
    small integer rows or combinations of earlier ones, each times a drawn
    factor, so a call meets rows inside and outside the span."""
    ncols = draw(st.integers(min_value=1, max_value=6))
    small = st.lists(entry, min_size=ncols, max_size=ncols)
    ops = st.sampled_from(["add", "add", "contains", "reduce", "basis", "len"])
    script, made = [], []
    for _ in range(draw(st.integers(min_value=1, max_value=9))):
        if made and draw(st.booleans()):
            r, s = draw(st.sampled_from(made)), draw(st.sampled_from(made))
            c = draw(st.sampled_from([1, -2, Fraction(3, 4)]))
            row = [x + c * y for x, y in zip(r, s)]
        else:
            row = draw(small)
        row = [draw(row_scale) * x for x in row]
        made.append(row)
        script.append((draw(ops), row))
    return ncols, script


def _raw(row) -> dict:
    """A dense row as a sparse one, its values as drawn: Fraction(2) stays a
    Fraction, as an input row may hold it."""
    return {j: x for j, x in enumerate(row) if x}


@settings(max_examples=300, deadline=None)
@given(echelon_scripts())
def test_integer_echelon_matches_dense_oracle(script):
    """add, contains, reduce, basis, rows, pivots and len, called in any
    order, agree with the dense Fraction elimination of the rows added so
    far, and every value they return is an exact scalar in normal form."""
    ncols, calls = script
    ech, added = Echelon(), []
    for op, row in calls:
        red, pivots = oracle.rref(added)
        if op == "add":
            grew = oracle.rank(added + [row]) > len(red)
            assert ech.add(_raw(row)) == grew
            added += [row] * grew
        elif op == "contains":
            assert ech.contains(_raw(row)) == (oracle.rank(added + [row]) == len(red))
        elif op == "reduce":
            residual = ech.reduce(_raw(row))
            assert dense(residual, ncols) == oracle.reduce_vector(red, pivots, row)
            assert _normal(residual.values())
        elif op == "basis":
            basis = ech.basis()
            assert [dense(r, ncols) for r in basis] == red
            assert ech.rows == dict(zip(pivots, basis)) and sorted(ech.pivots) == pivots
            assert all(_normal(r.values()) for r in basis)
        assert len(ech) == oracle.rank(added)


@settings(max_examples=200, deadline=None)
@given(
    nonunit_pivot_rows(),
    st.lists(row_scale, min_size=5, max_size=5),
    st.lists(st.integers(-9, 9), min_size=5, max_size=5),
)
def test_solve_linear_and_solvable_match_dense_oracle(mat, scales, rhs):
    """On systems whose rows carry non-unit, big and fractional factors,
    solve_linear gives the oracle's canonical solution and solvable says
    whether there is one."""
    ncols, rows = mat
    rows = [[s * x for x in r] for s, r in zip(scales, rows)]
    b = rhs[: len(rows)]
    system = [_raw(r + [c]) for r, c in zip(rows, b)]
    expected = oracle_solve(rows, b, ncols)
    x = exact.solve_linear(system, ncols)
    assert (x if x is None else dense(x, ncols)) == expected
    assert x is None or _normal(x.values())
    assert exact.solvable(system, ncols) == (expected is not None)


def test_scalar_normal_form():
    assert exact.scalar(Fraction(6, 3)) == 2 and type(exact.scalar(Fraction(6, 3))) is int
    assert exact.scalar("-4/6") == Fraction(-2, 3)
    assert type(exact.scalar(True)) is int
    assert type(exact.parse_frac("10/5")) is int and exact.parse_frac("10/5") == 2
    assert exact.parse_frac("0.25") == Fraction(1, 4)
    for x in (0, 7, -12, Fraction(7), Fraction(-3, 4), 10**40):
        assert exact.frac_str(x) == str(Fraction(x))
    assert exact.frac_str(exact.parse_frac("-3/4")) == "-3/4"


def test_floats_are_rejected():
    for fn in (exact.scalar, exact.parse_frac, exact.frac_str):
        with pytest.raises(TypeError):
            fn(0.5)
        with pytest.raises(TypeError):
            fn(2.0)
    with pytest.raises(ValueError):
        exact.parse_frac("1e10000000")


def _parse_frac_reference(s):
    """parse_frac without its plain-integer fast path: exponent refusal,
    then the Fraction reader."""
    if "e" in s or "E" in s:
        raise ValueError(s)
    return exact.scalar(Fraction(s))


def _outcome(fn, s):
    try:
        value = fn(s)
    except Exception as exc:  # noqa: BLE001 - the exception type is compared
        return type(exc)
    return type(value), value


@given(
    st.one_of(
        st.from_regex(r"[+-]?[0-9]{1,30}", fullmatch=True),
        st.text(alphabet="0123456789+-_/. eE\t٣８", max_size=12),
        st.builds(
            "".join,
            st.tuples(
                st.sampled_from(["", " ", "\t"]),
                st.sampled_from(["", "+", "-", "+-", "--"]),
                st.text(alphabet="0123456789", min_size=1, max_size=30),
                st.sampled_from(["", "_0", "/7", "/00", ".5", "e2", "٣", " "]),
            ),
        ),
    )
)
@settings(max_examples=400, deadline=None)
def test_parse_frac_fast_path_matches_fraction_reader(s):
    """Signs, leading zeros, surrounding space, 1_0, non-ASCII digits, p/q,
    decimals and exponents: the same value and type, or the same exception
    type, as the Fraction reader."""
    assert _outcome(exact.parse_frac, s) == _outcome(_parse_frac_reference, s)


def test_parse_frac_plain_integers():
    for s in ("0", "-0", "+7", "007", "-0012", "1" * 60):
        assert type(exact.parse_frac(s)) is int
        assert exact.parse_frac(s) == Fraction(s)
    for s in ("1_0", " 1", "1 ", "٣", "+-1", "1/1", "1.0"):
        assert _outcome(exact.parse_frac, s) == _outcome(_parse_frac_reference, s)


def test_fraction_is_bound_once_and_hot_calls_import_nothing(monkeypatch):
    """exact binds fractions.Fraction on the first value with a denominator;
    after that, scalar on a Fraction and reading the reduced rows of
    non-unit pivots run no import statement."""
    assert exact.scalar("3/6") == Fraction(1, 2)
    assert exact.Fraction is fractions.Fraction
    imports = []
    real = builtins.__import__
    monkeypatch.setattr(builtins, "__import__", lambda *a, **k: imports.append(a[0]) or real(*a, **k))
    x = Fraction(3, 7)
    for _ in range(1000):
        assert exact.scalar(x) is x
    ech = Echelon([{0: 2, 1: 1}, {1: 3, 2: 1}])
    assert ech.rows == {0: {0: 1, 2: Fraction(-1, 6)}, 1: {1: 1, 2: Fraction(1, 3)}}
    assert imports == []


def test_integer_rows_make_no_fraction(monkeypatch):
    """On integer rows with non-unit pivots, add, contains, len, pivots,
    solvable and a residual without denominators never reach the Fraction
    loader; the first reduced row with a denominator does."""

    def refuse():
        raise AssertionError("a Fraction was made")

    monkeypatch.setattr(exact, "Fraction", None)
    monkeypatch.setattr(exact, "_load_fraction", refuse)
    rows = [{0: 2, 1: 4, 2: 6, 3: 1}, {1: 3, 2: 1}, {0: 4, 1: 2 * 3**45, 3: 5}]
    ech = Echelon(rows)
    assert len(ech) == 3 and sorted(ech.pivots) == [0, 1, 2]
    assert not ech.add({0: 6, 1: 4 + 2 * 3**45, 2: 6, 3: 6})
    assert ech.contains({0: 2 * 7, 1: 4 * 7, 2: 6 * 7, 3: 7}) and not ech.contains({3: 1})
    assert ech.reduce({0: 2, 1: 4, 2: 6, 3: 1}) == {}
    assert exact.solvable([{0: 2, 1: 4}, {0: 3, 1: 6}], 1) and not exact.solvable([{0: 2, 1: 4}, {0: 3, 1: 5}], 1)
    with pytest.raises(AssertionError, match="a Fraction was made"):
        ech.basis()
