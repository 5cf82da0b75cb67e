"""Sparse echelon kernel against the dense elimination oracle."""

from fractions import Fraction

import oracle_exact as oracle
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
