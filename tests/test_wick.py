"""Closed-form word product against the worklist oracle."""

from itertools import combinations_with_replacement

from hypothesis import given, settings
from hypothesis import strategies as st
from oracle_normal_order import oracle_element

from mta.heisenberg import Mode, ModeElement, NormalWord, multiply


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
