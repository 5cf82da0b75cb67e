"""Closed-form word product against the worklist oracle, and the
corner-projected product against star_to_zhu of the full product."""

from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle_normal_order import oracle_element

from mta.heisenberg import (
    Mode,
    ModeElement,
    NormalWord,
    corner_product,
    multiply,
    pairing,
    pairing_matrix,
    star_to_zhu,
    u_element,
    ubar_element,
)
from mta.partitions import (
    LabeledPartition,
    enumerate_labeled_partitions,
    labeled_partition_count,
)


def _normal_words(rank, exps, max_len):
    modes = [Mode(g, a) for g in range(1, rank + 1) for a in exps]
    words = set()
    for k in range(max_len + 1):
        for combo in combinations_with_replacement(modes, k):
            words.add(
                NormalWord.build(
                    [m for m in combo if m.exp < 0],
                    [m.gen for m in combo if m.exp == 0],
                    [m for m in combo if m.exp > 0],
                )
            )
    return sorted(words, key=NormalWord.sort_key)


def test_multiply_matches_oracle_exhaustively():
    # rank-1 words are the generator-1 words of rank 2, so rank 2 covers both
    words = _normal_words(2, range(-2, 3), 3)
    assert len(words) == 286
    elements = [ModeElement.from_word(2, w) for w in words]
    for w1, a in zip(words, elements):
        for w2, b in zip(words, elements):
            want = oracle_element(2, w1.mode_sequence() + w2.mode_sequence())
            assert multiply(a, b) == want, (w1, w2)


@st.composite
def rank_and_sequences(draw, count):
    rank = draw(st.integers(min_value=1, max_value=3))
    mode = st.builds(
        Mode, st.integers(min_value=1, max_value=rank), st.integers(min_value=-3, max_value=3)
    )
    return rank, [draw(st.lists(mode, max_size=6)) for _ in range(count)]


@settings(max_examples=150, deadline=None)
@given(rank_and_sequences(2))
def test_multiply_and_from_modes_match_oracle(case):
    rank, (s1, s2) = case
    a = oracle_element(rank, s1)
    assert ModeElement.from_modes(rank, s1) == a
    assert multiply(a, oracle_element(rank, s2)) == oracle_element(rank, s1 + s2)


@settings(max_examples=60, deadline=None)
@given(rank_and_sequences(6))
def test_associativity_of_sums(case):
    rank, seqs = case
    a, b, c = (
        ModeElement.from_modes(rank, seqs[i]) + ModeElement.from_modes(rank, seqs[i + 1], 2)
        for i in (0, 2, 4)
    )
    assert (a * b) * c == a * (b * c)


def _corner_oracle(a, b):
    """The corner image the long way: every Wick term, then star_to_zhu."""
    try:
        return star_to_zhu(multiply(a, b))
    except ValueError as exc:
        return f"ValueError: {exc}"


def _corner(a, b):
    try:
        return corner_product(a, b)
    except ValueError as exc:
        return f"ValueError: {exc}"


def test_pairing_matrix_matches_oracle_exhaustively():
    cases = [
        (n, d)
        for n in range(1, 5)
        for d in range(12)
        if labeled_partition_count(n, d) <= 51
    ]
    assert (1, 7) in cases and (3, 4) in cases and (4, 4) not in cases
    for n, d in cases:
        labels, matrix = pairing_matrix(n, d)
        for sigma, row in zip(labels, matrix):
            for tau, value in zip(labels, row):
                want = star_to_zhu(multiply(ubar_element(sigma), u_element(tau)))
                assert value == want, (n, d, sigma, tau)
                assert pairing(sigma, tau) == want


def test_corner_product_of_sums_matches_oracle():
    # many word pairs land on the same monomial, with signs that cancel
    for n, d in [(1, 4), (2, 3), (3, 2)]:
        labels = enumerate_labeled_partitions(n, d)
        h = ModeElement.from_modes(n, [Mode(n, 0)])
        a = ModeElement(n)
        b = ModeElement(n)
        for i, lp in enumerate(labels):
            a = a + ubar_element(lp).scale(i + 1)
            b = b + u_element(lp).scale((-1) ** i)
        a = a + ubar_element(labels[0]) * h
        b = b + h * u_element(labels[-1])
        value = corner_product(a, b)
        assert value == star_to_zhu(multiply(a, b))
        assert len(value.terms) == 2
        s0, s1 = (lp.symmetry_factor() for lp in labels[:2])
        a = ubar_element(labels[0]).scale(s1) - ubar_element(labels[1]).scale(s0)
        b = u_element(labels[0]) + u_element(labels[1])
        assert corner_product(a, b).is_zero()
        assert star_to_zhu(multiply(a, b)).is_zero()


@st.composite
def element_pairs(draw):
    """Two elements with zero modes and mixed words, often of opposite degree.

    A summand of b is often the mirror of one of a's mode sequences, so
    annihilators of a meet matching creators of b.  Each summand may come
    with the same modes in another order subtracted, so leading words
    cancel and only contraction terms remain.
    """
    rank = draw(st.integers(min_value=1, max_value=2))
    mode = st.builds(
        Mode, st.integers(min_value=1, max_value=rank), st.integers(min_value=-2, max_value=2)
    )
    coeff = st.sampled_from([1, -1, 2, Fraction(-3, 2)])

    def element(mirrors):
        total, seqs = ModeElement(rank), []
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            if mirrors and draw(st.booleans()):
                seq = [Mode(m.gen, -m.exp) for m in reversed(draw(st.sampled_from(mirrors)))]
            else:
                seq = draw(st.lists(mode, max_size=4))
            c = draw(coeff)
            total = total + ModeElement.from_modes(rank, seq, c)
            if draw(st.booleans()):
                total = total - ModeElement.from_modes(rank, draw(st.permutations(seq)), c)
            seqs.append(seq)
        return total, seqs

    a, seqs = element(None)
    b, _ = element(seqs)
    if a.terms and draw(st.booleans()):
        # one degree of a against the opposite degree of b: a degree-0 product
        delta = draw(st.sampled_from(sorted({w.degree() for w in a.terms})))
        a = ModeElement(rank, {w: c for w, c in a.terms.items() if w.degree() == delta})
        b = ModeElement(rank, {w: c for w, c in b.terms.items() if w.degree() == -delta})
    return a, b


@settings(max_examples=300, deadline=None)
@given(element_pairs())
def test_corner_product_matches_oracle(pair):
    a, b = pair
    assert _corner(a, b) == _corner_oracle(a, b)


def test_corner_product_rejects_nonzero_degree_like_the_oracle():
    two, one = LabeledPartition.of((2,)), LabeledPartition.of((1,))
    mixed = ubar_element(two) + ubar_element(one)
    cases = [
        (ubar_element(two), u_element(one)),
        (u_element(one), u_element(one)),
        (mixed, u_element(two)),
        (ModeElement.from_modes(1, [Mode(1, 0), Mode(1, -1)]), ModeElement.unit(1)),
    ]
    for a, b in cases:
        with pytest.raises(ValueError) as want:
            star_to_zhu(multiply(a, b))
        with pytest.raises(ValueError) as got:
            corner_product(a, b)
        assert str(got.value) == str(want.value)
    with pytest.raises(ValueError):
        pairing(two, one)
