"""Free-boson engine: commutators, normal ordering, pairings, identities."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mta.heisenberg import (
    Mode,
    ModeElement,
    NormalWord,
    ZhuPolynomial,
    commutator,
    pairing,
    pairing_matrix,
    rank_certificate,
    star_to_zhu,
    strong_identity,
    strong_identity_from_json,
    strong_identity_to_json,
    u_element,
    ubar_element,
    verify_strong_identity,
)
from mta.partitions import (
    LabeledPartition,
    enumerate_labeled_partitions,
    symmetry_factor,
)


def test_commutator_values():
    assert commutator(Mode(1, 2), Mode(1, -2)) == 2
    assert commutator(Mode(1, -3), Mode(1, 3)) == -3
    assert commutator(Mode(1, 2), Mode(2, -2)) == 0
    assert commutator(Mode(1, 2), Mode(1, -1)) == 0
    assert commutator(Mode(1, 0), Mode(1, 0)) == 0


def test_commutator_rejects_bad_generator():
    with pytest.raises(ValueError):
        commutator(Mode(0, 1), Mode(1, -1))


def test_mode_degree_is_negated_exponent():
    assert Mode(1, -3).degree == 3
    assert Mode(2, 2).degree == -2
    assert Mode(1, 0).degree == 0


def test_normal_ordering_single_contraction():
    # H t^1 then H t^-1 reorders to the normal word plus the contraction term
    elem = ModeElement.from_modes(1, [Mode(1, 1), Mode(1, -1)])
    expected = ModeElement.from_word(
        1, NormalWord.build(creators=(Mode(1, -1),), annihilators=(Mode(1, 1),))
    ) + ModeElement.unit(1)
    assert elem == expected


def test_normal_ordering_already_ordered():
    word = NormalWord.build(creators=(Mode(1, -2),), annihilators=(Mode(1, 1),))
    elem = ModeElement.from_modes(1, word.mode_sequence())
    assert elem == ModeElement.from_word(1, word)


def test_multiply_degree_additivity():
    a = ModeElement.from_modes(1, [Mode(1, -2)])
    b = ModeElement.from_modes(1, [Mode(1, -1), Mode(1, 1)])
    assert (a * b).degree() == a.degree() + b.degree()


def test_mixed_degree_raises():
    elem = ModeElement.from_modes(1, [Mode(1, -1)]) + ModeElement.unit(1)
    assert not elem.is_homogeneous()
    with pytest.raises(ValueError):
        elem.degree()


def test_word_validation():
    with pytest.raises(ValueError):
        NormalWord(creators=(Mode(1, 1),), zeros=(), annihilators=())
    with pytest.raises(ValueError):
        NormalWord(creators=(), zeros=(), annihilators=(Mode(1, -1),))
    with pytest.raises(ValueError):
        ModeElement.from_modes(1, [Mode(2, -1)])


def test_element_json_round_trip():
    elem = ModeElement.from_modes(2, [Mode(1, 1), Mode(2, -2), Mode(1, 0)])
    data = elem.to_json()
    assert ModeElement.from_json(2, data) == elem


def test_element_json_merges_repeated_words():
    # repeated words add up, zero coefficients and cancelling sums drop out,
    # and an integral sum is stored as int
    word = {"creators": [[1, -1]], "zeros": [1], "annihilators": []}
    other = {"creators": [], "zeros": [], "annihilators": [[1, 2]]}
    data = [{**word, "coeff": c} for c in ("1/2", "0", "1/2")]
    data += [{**other, "coeff": c} for c in ("3", "-3")]
    elem = ModeElement.from_json(1, data)
    assert elem == ModeElement.from_modes(1, [Mode(1, -1), Mode(1, 0)])
    assert [type(c) for c in elem.terms.values()] == [int]
    assert ModeElement.from_json(1, [{**word, "coeff": "0"}]).is_zero()


def test_pairing_is_diagonal_with_symmetry_factors():
    sigma = LabeledPartition.of((2, 1))
    tau = LabeledPartition.of((3,))
    same = pairing(sigma, sigma)
    assert same.is_constant() and same.constant_value() == symmetry_factor(sigma)
    cross = pairing(sigma, tau)
    assert cross.is_zero()


def test_pairing_matrix_rank1_degree3():
    labels, matrix = pairing_matrix(1, 3)
    assert [repr(lp) for lp in labels] == ["({3})", "({2,1})", "({1,1,1})"]
    diag = [matrix[i][i].constant_value() for i in range(3)]
    assert diag == [3, 2, 6]
    for i in range(3):
        for j in range(3):
            if i != j:
                assert matrix[i][j].is_zero()


def test_strong_identity_coefficients_rank1_degree3():
    terms = strong_identity(1, 3)
    coeffs = {repr(lp): c for lp, c in terms}
    assert coeffs == {
        "({3})": Fraction(1, 3),
        "({2,1})": Fraction(1, 2),
        "({1,1,1})": Fraction(1, 6),
    }


def test_strong_identity_degree_zero():
    terms = strong_identity(2, 0)
    assert len(terms) == 1
    lp, coeff = terms[0]
    assert lp.weight() == 0 and coeff == 1


def test_strong_identity_json_round_trip():
    terms = strong_identity(2, 2)
    data = strong_identity_to_json(terms)
    assert strong_identity_from_json(data) == terms


def test_verify_strong_identity_rank1():
    for d in range(7):
        report = verify_strong_identity(1, d)
        assert report.ok, f"degree {d}: {report.mismatches}"


def test_verify_strong_identity_rank2():
    for d in range(5):
        report = verify_strong_identity(2, d)
        assert report.ok, f"degree {d}: {report.mismatches}"


def test_rank_certificate():
    cert = rank_certificate(1, 3)
    assert cert.count == 3
    assert cert.diagonal == [3, 2, 6]
    assert cert.independent
    cert2 = rank_certificate(2, 2)
    assert cert2.count == 5
    assert cert2.independent


def test_star_drops_annihilator_words():
    word = NormalWord.build(
        creators=(Mode(1, -1),), annihilators=(Mode(1, 1),)
    )
    elem = ModeElement.from_word(1, word) + ModeElement.unit(1).scale(Fraction(3, 2))
    poly = star_to_zhu(elem)
    assert poly == ZhuPolynomial.constant(1, Fraction(3, 2))


def test_star_requires_degree_zero():
    with pytest.raises(ValueError):
        star_to_zhu(ModeElement.from_modes(1, [Mode(1, -2)]))


def test_star_is_ring_map_on_zero_mode_words():
    h1 = ModeElement.from_modes(2, [Mode(1, 0)])
    h2 = ModeElement.from_modes(2, [Mode(2, 0)])
    a = h1 * h1 + h2.scale(2)
    b = h2 * h1 - ModeElement.unit(2)
    assert star_to_zhu(a * b) == star_to_zhu(a) * star_to_zhu(b)
    assert star_to_zhu(a + b) == star_to_zhu(a) + star_to_zhu(b)


def test_u_and_ubar_degrees():
    lp = LabeledPartition.of((2, 1), (1,))
    u = u_element(lp)
    ubar = ubar_element(lp)
    assert u.degree() == 4
    assert ubar.degree() == -4


def test_pairing_rejects_rank_mismatch():
    with pytest.raises(ValueError):
        pairing(LabeledPartition.of((1,)), LabeledPartition.of((1,), ()))


# per class: an element of rank 1, one of rank 2, and a key bad at rank 1
COMBINATIONS = {
    "mode": (
        ModeElement.from_modes(1, [Mode(1, -1), Mode(1, 2)]),
        ModeElement.from_modes(2, [Mode(2, 0)]),
        NormalWord.build(zeros=[2]),
    ),
    "zhu": (
        ZhuPolynomial(1, {(0,): 3, (2,): Fraction(-1, 2)}),
        ZhuPolynomial.constant(2, 1),
        (-1,),
    ),
}


@pytest.mark.parametrize("x, _, bad", COMBINATIONS.values(), ids=COMBINATIONS.keys())
def test_a_bad_key_is_refused_whatever_its_coefficient(x, _, bad):
    for c in (1, 0, Fraction(0)):
        with pytest.raises(ValueError):
            type(x)(1, {bad: c})


@pytest.mark.parametrize("x, y, _", COMBINATIONS.values(), ids=COMBINATIONS.keys())
def test_sum_difference_and_product_need_one_rank(x, y, _):
    for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
        for a, b in ((x, y), (y, x)):
            with pytest.raises(ValueError, match="rank mismatch"):
                op(a, b)


@pytest.mark.parametrize("x, y, _", COMBINATIONS.values(), ids=COMBINATIONS.keys())
def test_times_a_scalar_is_scale(x, y, _):
    for el in (x, y):
        for c in (0, 1, -3, Fraction(2, 3), "5/7"):
            assert el * c == c * el == el.scale(c)
        assert (el * 0).is_zero()
        assert el - el == el * 0
        assert -el == el.scale(-1)


mode_st = st.builds(
    Mode,
    st.integers(min_value=1, max_value=2),
    st.integers(min_value=-3, max_value=3),
)
word_st = st.lists(mode_st, min_size=0, max_size=3)


@settings(max_examples=40, deadline=None)
@given(word_st, word_st, word_st)
def test_multiplication_associativity(w1, w2, w3):
    a = ModeElement.from_modes(2, w1)
    b = ModeElement.from_modes(2, w2)
    c = ModeElement.from_modes(2, w3)
    assert (a * b) * c == a * (b * c)


@settings(max_examples=40, deadline=None)
@given(word_st, word_st)
def test_degree_additivity_property(w1, w2):
    a = ModeElement.from_modes(2, w1)
    b = ModeElement.from_modes(2, w2)
    prod = a * b
    if not prod.is_zero():
        assert prod.degree() == a.degree() + b.degree()


@settings(max_examples=30, deadline=None)
@given(word_st, word_st, word_st)
def test_distributivity(w1, w2, w3):
    a = ModeElement.from_modes(2, w1)
    b = ModeElement.from_modes(2, w2)
    c = ModeElement.from_modes(2, w3)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=20, deadline=None)
@given(
    st.integers(min_value=1, max_value=2),
    st.integers(min_value=0, max_value=4),
)
def test_identity_pairs_to_one_property(n, d):
    # the strong identity pairs each basis label back to itself with weight 1
    terms = strong_identity(n, d)
    for tau in enumerate_labeled_partitions(n, d):
        total = ZhuPolynomial.zero(n)
        for sigma, coeff in terms:
            total = total + pairing(sigma, tau) * coeff
        assert total.is_constant() and total.constant_value() == 1
