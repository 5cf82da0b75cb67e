"""Sparse echelon kernel against the dense elimination oracle."""

from fractions import Fraction

import oracle_exact as oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mta import exact
from mta.exact import Echelon, dense, sparse

entry = st.integers(min_value=-3, max_value=3)


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
    assert Echelon(map(sparse, rows)).dense(ncols) == expected
    assert exact.rank(rows) == oracle.rank(rows)
    red, pivots = expected
    residual = oracle.reduce_vector(red, pivots, v)
    assert dense(Echelon(map(sparse, rows)).reduce(sparse(v)), ncols) == residual
    assert exact.reduce_vector(red, pivots, v) == residual
    b = rhs[: len(rows)]
    assert exact.solve_linear(rows, b) == oracle.solve_linear(rows, b)
    # a right-hand side in the column space is always consistent
    b = [sum(x * y for x, y in zip(r, v)) for r in rows]
    x = exact.solve_linear(rows, b)
    assert x is not None and x == oracle.solve_linear(rows, b)
    square = [r[: len(rows)] + [0] * (len(rows) - ncols) for r in rows]
    assert exact.invert_matrix(square) == oracle.invert_matrix(square)


def test_solve_linear_inconsistent():
    assert exact.solve_linear([[1, 1], [2, 2]], [1, 3]) is None
    assert oracle.solve_linear([[1, 1], [2, 2]], [1, 3]) is None
    assert exact.solve_linear([[1, 1], [2, 2]], [1, 2]) == [Fraction(1), Fraction(0)]


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
    assert ech.dense(ncols) == oracle.rref(rows)
    assert all(_normal(row.values()) for row in ech.rows.values())
    reduced, pivots = exact.rref(rows)
    assert (reduced, pivots) == oracle.rref(rows)
    assert all(_normal(row) for row in reduced)
    b = rhs[: len(rows)]
    x = exact.solve_linear(rows, b)
    assert x == oracle.solve_linear(rows, b)
    assert x is None or _normal(x)
    square = [r[: len(rows)] + [0] * (len(rows) - ncols) for r in rows]
    inv = exact.invert_matrix(square)
    assert inv == oracle.invert_matrix(square)
    assert inv is None or all(_normal(row) for row in inv)


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
