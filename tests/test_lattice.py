"""Even lattices: dual cosets, conformal weights, graded dimensions."""

import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
import oracle_exact as oracle
from oracle_exact import coset_norms as oracle_coset_norms
from oracle_exact import det as oracle_det
from oracle_exact import leading_minors_positive
from test_lattice_golden import GRAMS as GOLDEN_GRAMS

from mta.lattice import (
    EvenLattice,
    _completion,
    _search,
    conformal_weight,
    coset_norms,
    count_norm_layer,
    dual_cosets,
    graded_dims,
    gram_rows,
    parse_gram_text,
)

Z8 = EvenLattice.from_rows([[8]])

TWO_CIRCLES = EvenLattice.from_rows([[2, 0], [0, 2]])

E8 = EvenLattice.from_rows(
    [
        [2, -1, 0, 0, 0, 0, 0, 0],
        [-1, 2, -1, 0, 0, 0, 0, 0],
        [0, -1, 2, -1, 0, 0, 0, 0],
        [0, 0, -1, 2, -1, 0, 0, 0],
        [0, 0, 0, -1, 2, -1, 0, -1],
        [0, 0, 0, 0, -1, 2, -1, 0],
        [0, 0, 0, 0, 0, -1, 2, 0],
        [0, 0, 0, 0, -1, 0, 0, 2],
    ]
)


def test_rank_and_determinant():
    assert Z8.rank == 1 and Z8.determinant() == 8
    assert TWO_CIRCLES.determinant() == 4
    assert E8.determinant() == 1


def test_coset_count_equals_determinant():
    for lattice in (Z8, TWO_CIRCLES):
        assert len(dual_cosets(lattice)) == lattice.determinant()


def test_unimodular_lattice_has_single_coset():
    cosets = dual_cosets(E8)
    assert len(cosets) == 1
    assert cosets[0].vector == tuple([Fraction(0)] * 8)


def test_zero_coset_comes_first():
    for lattice in (Z8, TWO_CIRCLES):
        assert all(x == 0 for x in dual_cosets(lattice)[0].vector)


def test_coset_vectors_are_dual_and_reduced():
    for lattice in (Z8, TWO_CIRCLES):
        for rep in dual_cosets(lattice):
            assert lattice.is_dual_vector(rep.vector)
            assert all(0 <= x < 1 for x in rep.vector)


def test_weight_table_determinant_eight():
    cosets = dual_cosets(Z8)
    weights = [conformal_weight(Z8, c.vector) for c in cosets]
    expect = ["0", "1/16", "1/4", "9/16", "1", "9/16", "1/4", "1/16"]
    assert weights == [Fraction(w) for w in expect]


def test_graded_dims_determinant_eight():
    cosets = dual_cosets(Z8)
    # the zero coset: one vacuum, one oscillator state at level 1
    assert graded_dims(Z8, cosets[0].vector, 2) == [1, 1, 2]
    # the half-shift coset has two vectors of minimal norm
    assert graded_dims(Z8, cosets[4].vector, 0) == [2]
    assert graded_dims(Z8, cosets[1].vector, 3) == [1, 1, 2, 4]


def test_norm_layers_match_graded_data():
    assert count_norm_layer(Z8, [Fraction(1, 2)], Fraction(1)) == 2
    assert count_norm_layer(Z8, [Fraction(0)], Fraction(4)) == 2
    assert count_norm_layer(Z8, [Fraction(0)], Fraction(1)) == 0


def test_two_circles_graded_dims():
    zero = dual_cosets(TWO_CIRCLES)[0].vector
    # level 1 counts two oscillators plus the four vectors of norm 1
    assert graded_dims(TWO_CIRCLES, zero, 3) == [1, 6, 17, 38]


def test_coset_norms_enumeration():
    layers = coset_norms(Z8, [Fraction(0)], Fraction(4))
    assert ((0,), Fraction(0)) in layers
    assert ((1,), Fraction(4)) in layers and ((-1,), Fraction(4)) in layers
    assert len(layers) == 3


def test_weight_invariant_under_lattice_shift():
    for rep in dual_cosets(TWO_CIRCLES):
        shifted = [x + e for x, e in zip(rep.vector, (1, -2))]
        assert conformal_weight(TWO_CIRCLES, shifted) == conformal_weight(
            TWO_CIRCLES, rep.vector
        )


def test_weight_invariant_under_negation():
    for lattice in (Z8, TWO_CIRCLES):
        for rep in dual_cosets(lattice):
            neg = [-x for x in rep.vector]
            assert conformal_weight(lattice, neg) == conformal_weight(lattice, rep.vector)


def test_norm_values():
    assert Z8.norm([Fraction(1)]) == 4
    assert TWO_CIRCLES.norm([Fraction(1), Fraction(1)]) == 2
    assert E8.norm([Fraction(1)] + [Fraction(0)] * 7) == 1


def test_gram_validation():
    with pytest.raises(ValueError, match="symmetric"):
        EvenLattice.from_rows([[2, 1], [0, 2]])
    with pytest.raises(ValueError, match="even"):
        EvenLattice.from_rows([[3]])
    with pytest.raises(ValueError, match="positive definite"):
        EvenLattice.from_rows([[-2]])
    with pytest.raises(ValueError, match="positive definite"):
        EvenLattice.from_rows([[2, 4], [4, 2]])
    with pytest.raises(ValueError, match="square"):
        EvenLattice.from_rows([[2, 0]])
    # entries must have type int: no truncated float, converted string or bool
    for rows in ([[2.9]], [["4"]], [[2, False], [False, 2]], [[Fraction(2)]]):
        with pytest.raises(ValueError, match="gram entries must be integers"):
            EvenLattice.from_rows(rows)


def test_parse_gram_text():
    lattice = parse_gram_text("2\n2 0\n0 4\n")
    assert lattice.rank == 2
    assert lattice.determinant() == 8
    # gram_rows only reads the file: a matrix EvenLattice rejects still parses
    assert gram_rows("2\n2 0\n0 4\n") == [[2, 0], [0, 4]]
    assert gram_rows("2\n1 5\n0 -4\n") == [[1, 5], [0, -4]]
    with pytest.raises(ValueError, match="symmetric"):
        parse_gram_text("2\n1 5\n0 -4\n")
    with pytest.raises(ValueError, match="rank alone"):
        parse_gram_text("2 2\n")
    with pytest.raises(ValueError, match="rows"):
        parse_gram_text("2\n2 0\n")
    with pytest.raises(ValueError, match="empty"):
        parse_gram_text("   \n")
    # every integer is ASCII [+-]?[0-9]+, the rank included
    assert parse_gram_text("+1\n+8\n").gram == ((8,),)
    for token in ("8_0", "\u0668", "\uff18", "8.0", "0x8", "+-8"):
        with pytest.raises(ValueError, match="not an integer"):
            parse_gram_text(f"1\n{token}\n")
        with pytest.raises(ValueError, match="not an integer"):
            parse_gram_text(f"{token}\n8\n")


def test_rejects_non_dual_vector():
    with pytest.raises(ValueError, match="integrally"):
        coset_norms(Z8, [Fraction(1, 3)], Fraction(1))


def test_rejects_vectors_of_the_wrong_length():
    for call in (
        lambda x: TWO_CIRCLES.norm(x),
        lambda x: TWO_CIRCLES.is_dual_vector(x),
        lambda x: coset_norms(TWO_CIRCLES, x, 4),
        lambda x: conformal_weight(TWO_CIRCLES, x),
        lambda x: graded_dims(TWO_CIRCLES, x, 2),
    ):
        for x in ([Fraction(1, 2)], [0, 0, 0]):
            with pytest.raises(ValueError, match="coset vector has wrong length"):
                call(x)


diag_st = st.lists(st.sampled_from([2, 4, 6]), min_size=1, max_size=2)


@settings(max_examples=15, deadline=None)
@given(diag_st)
def test_diagonal_lattice_invariants(diag):
    lattice = EvenLattice.from_rows(
        [[diag[i] if i == j else 0 for j in range(len(diag))] for i in range(len(diag))]
    )
    cosets = dual_cosets(lattice)
    det = 1
    for x in diag:
        det *= x
    assert len(cosets) == det
    for rep in cosets:
        w = conformal_weight(lattice, rep.vector)
        assert w >= 0
        assert w <= lattice.norm(rep.vector)
        dims = graded_dims(lattice, rep.vector, 1)
        assert len(dims) == 2 and dims[0] >= 1


A4_GRAM = ((2, -1, 0, 0), (-1, 2, -1, 0), (0, -1, 2, -1), (0, 0, -1, 2))
D4_GRAM = ((2, -1, 0, 0), (-1, 2, -1, -1), (0, -1, 2, 0), (0, -1, 0, 2))


@st.composite
def even_grams(draw):
    n = draw(st.integers(1, 3))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = draw(st.sampled_from([2, 4, 6, 8]))
        for j in range(i):
            rows[i][j] = rows[j][i] = draw(st.integers(-3, 3))
    return tuple(tuple(r) for r in rows)


@settings(max_examples=25, deadline=None)
@given(even_grams())
@example(((8,),))
@example(A4_GRAM)
@example(D4_GRAM)
def test_coset_norms_match_fraction_oracle(gram):
    try:
        lattice = EvenLattice(gram)
    except ValueError:  # not positive definite
        assume(False)
    assume(lattice.determinant() <= 16)
    for rep in dual_cosets(lattice):
        for lam in (rep.vector, tuple(-x for x in rep.vector)):
            base = lattice.norm(lam)
            for extra in (0, Fraction(7, 3), 12):
                bound = base + extra
                assert coset_norms(lattice, lam, bound) == oracle_coset_norms(lattice, lam, bound)
    assert coset_norms(lattice, rep.vector, -1) == oracle_coset_norms(lattice, rep.vector, -1) == []


@st.composite
def symmetric_even_grams(draw):
    # entries in -6..6, so many draws are indefinite or singular; half the
    # draws are diagonally heavier, so that many are definite too
    n = draw(st.integers(1, 4))
    heavy = draw(st.booleans())
    diagonal = range(2, 7, 2) if heavy else range(-6, 7, 2)
    off = 2 if heavy else 6
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = draw(st.sampled_from(diagonal))
        for j in range(i):
            rows[i][j] = rows[j][i] = draw(st.integers(-off, off))
    return rows


@settings(max_examples=300, deadline=None)
@given(symmetric_even_grams())
@example([[2, 2], [2, 2]])
@example([[0]])
@example([list(row) for row in A4_GRAM])
@example([list(row) for row in D4_GRAM])
def test_definiteness_and_determinant_match_leading_minors(rows):
    if leading_minors_positive(rows):
        assert EvenLattice.from_rows(rows).determinant() == oracle_det(rows)
    else:
        with pytest.raises(ValueError, match="positive definite"):
            EvenLattice.from_rows(rows)


def test_singular_and_list_built_grams():
    with pytest.raises(ValueError, match="gram matrix must be positive definite"):
        EvenLattice.from_rows([[2, 2], [2, 2]])
    lattice = EvenLattice([[2, 1], [1, 2]])
    assert lattice.determinant() == 3
    assert len(dual_cosets(lattice)) == 3


def test_square_completion_runs_once_per_gram():
    _completion.cache_clear()
    lattice = EvenLattice(A4_GRAM)
    assert lattice.determinant() == 5
    for rep in dual_cosets(lattice):
        for _ in range(2):
            conformal_weight(lattice, rep.vector)
            coset_norms(lattice, rep.vector, 3)
        graded_dims(lattice, rep.vector, 2)
    assert EvenLattice.from_rows(A4_GRAM).determinant() == 5
    info = _completion.cache_info()
    assert info.misses == 1 and info.hits > 10


@settings(max_examples=300, deadline=None)
@given(symmetric_even_grams())
@example([[2, 2], [2, 2]])
@example([[0]])
@example([list(row) for row in A4_GRAM])
@example([list(row) for row in D4_GRAM])
def test_completion_matches_fraction_square_completion(rows):
    gram = tuple(map(tuple, rows))
    try:
        d, r = oracle.square_completion(gram)
    except ValueError:
        with pytest.raises(ValueError, match="gram matrix must be positive definite"):
            _completion(gram)
        return
    p, u = _completion(gram)
    n = len(gram)
    assert p[0] == 1 and len(p) == n + 1
    for i in range(n):
        assert d[i] == Fraction(p[i + 1], p[i])
        assert u[i][i] == p[i + 1]
        assert all(u[i][j] == 0 for j in range(i))
        assert all(r[i][j] == Fraction(u[i][j], p[i + 1]) for j in range(i + 1, n))


@settings(max_examples=25, deadline=None)
@given(even_grams())
@example(((8,),))
@example(A4_GRAM)
@example(D4_GRAM)
def test_weights_and_graded_dims_match_fraction_oracle(gram):
    try:
        lattice = EvenLattice(gram)
    except ValueError:  # not positive definite
        assume(False)
    assume(lattice.determinant() <= 16)
    for rep in dual_cosets(lattice):
        for lam in (rep.vector, tuple(-x for x in rep.vector)):
            assert conformal_weight(lattice, lam) == oracle.conformal_weight(lattice, lam)
            # the oracle's level j does not depend on n_max >= j
            expected = oracle.graded_dims(lattice, lam, 6)
            for n_max in range(7):
                assert graded_dims(lattice, lam, n_max) == expected[: n_max + 1]


denominators = st.sampled_from([1, 2, 3, 4, 6, 8, 12])


@settings(max_examples=200, deadline=None)
@given(even_grams(), st.lists(st.integers(-30, 30), min_size=3, max_size=3), denominators)
def test_norm_and_duality_match_fraction_oracle(gram, numerators, den):
    try:
        lattice = EvenLattice(gram)
    except ValueError:  # not positive definite
        assume(False)
    x = [Fraction(k, den) for k in numerators[: lattice.rank]]
    assert lattice.norm(x) == oracle.norm(gram, x)
    assert lattice.is_dual_vector(x) == oracle.is_dual_vector(gram, x)


# z8, A4 and D4, then every Gram matrix of the lattice golden
STREAMED_GRAMS = {"z8": ((8,),), "a4": A4_GRAM, "d4": D4_GRAM, **GOLDEN_GRAMS}


@pytest.mark.parametrize("name", sorted(STREAMED_GRAMS))
def test_visited_search_matches_the_materialized_search(name):
    # the search hands each point to a visitor; the oracle builds the list
    # of every point first and reads it, as the library did
    lattice = EvenLattice.from_rows(STREAMED_GRAMS[name])
    for rep in dual_cosets(lattice):
        for lam in (rep.vector, tuple(-x for x in rep.vector)):
            base = lattice.norm(lam)
            for bound in (-1, 0, base, base + Fraction(7, 3), base + 6):
                assert coset_norms(lattice, lam, bound) == oracle.materialized_coset_norms(
                    lattice, lam, bound
                )
            weight = conformal_weight(lattice, lam)
            assert weight == oracle.materialized_conformal_weight(lattice, lam)
            for j in (-1, weight - Fraction(1, 2), *(weight + k for k in range(6))):
                assert count_norm_layer(lattice, lam, j) == oracle.materialized_count_norm_layer(
                    lattice, lam, j
                )
            assert graded_dims(lattice, lam, 10) == oracle.materialized_graded_dims(lattice, lam, 10)


@pytest.mark.parametrize("name", sorted(STREAMED_GRAMS))
def test_search_hands_the_visitor_one_live_point(name):
    # the visitor gets the search's own e, overwritten in place, in
    # coordinate order: one list object for the whole search, and read at
    # each visit it is the point the materialized search lists there.  The
    # lists are kept alive, so a fresh list per visit cannot reuse an id.
    lattice = EvenLattice.from_rows(STREAMED_GRAMS[name])
    for rep in dual_cosets(lattice):
        lam = rep.vector
        bound = lattice.norm(lam) + 4
        seen, points = [], []

        def visit(e, q):
            seen.append(e)
            points.append((tuple(e), q))

        scale = _search(lattice, lam, bound, visit)
        assert (scale, points) == oracle.materialized_search(lattice, lam, bound)
        assert len(points) > 1
        assert len({id(e) for e in seen}) == 1


def test_graded_dims_holds_no_point_list():
    # A4, coset 1, level 100 visits 89 700 points: the materialized search
    # peaks at 12.3 MiB under tracemalloc, the visited one at 25 KiB
    lattice = EvenLattice(A4_GRAM)
    lam = dual_cosets(lattice)[1].vector
    conformal_weight(lattice, lam)  # the completion is cached outside the trace
    tracemalloc.start()
    try:
        dims = graded_dims(lattice, lam, 100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dims[:5] == [5, 50, 220, 820, 2525]
    assert peak < 256 * 1024, peak
