"""Slow, obviously correct normal ordering, kept as a differential oracle.

This is the worklist engine the library used before the closed-form
product: adjacent transpositions, one commutator term per swap.  Tests
compare `multiply` and `ModeElement.from_modes` against it.
"""

from fractions import Fraction

from mta.heisenberg import Mode, ModeElement, NormalWord, commutator


def _category(m: Mode) -> int:
    # creator 0, zero mode 1, annihilator 2
    if m.exp < 0:
        return 0
    return 1 if m.exp == 0 else 2


def _normal_order(seq: tuple[Mode, ...]) -> dict[NormalWord, Fraction]:
    """Reduce an arbitrary mode sequence to normal-ordered words.

    Worklist of adjacent transpositions: the first out-of-block-order pair is
    swapped (coefficient unchanged) and, when the commutator is nonzero, the
    contracted word with both modes removed is added.  Identical in-flight
    sequences are merged, which keeps the state count polynomial in practice.
    """
    one = Fraction(1)
    frontier: dict[tuple[Mode, ...], Fraction] = {seq: one}
    done: dict[NormalWord, Fraction] = {}
    while frontier:
        word, coeff = frontier.popitem()
        idx = None
        for i in range(len(word) - 1):
            if _category(word[i]) > _category(word[i + 1]):
                idx = i
                break
        if idx is None:
            w = NormalWord.build(
                [m for m in word if m.exp < 0],
                [m.gen for m in word if m.exp == 0],
                [m for m in word if m.exp > 0],
            )
            tot = done.get(w, 0) + coeff
            if tot:
                done[w] = tot
            else:
                done.pop(w, None)
            continue
        x, y = word[idx], word[idx + 1]
        swapped = word[:idx] + (y, x) + word[idx + 2 :]
        tot = frontier.get(swapped, 0) + coeff
        if tot:
            frontier[swapped] = tot
        else:
            frontier.pop(swapped, None)
        c = commutator(x, y)
        if c:
            contracted = word[:idx] + word[idx + 2 :]
            tot = frontier.get(contracted, 0) + coeff * c
            if tot:
                frontier[contracted] = tot
            else:
                frontier.pop(contracted, None)
    return done


def oracle_element(rank: int, modes) -> ModeElement:
    """The normal-ordered form of a mode sequence, by the worklist."""
    return ModeElement(rank, _normal_order(tuple(modes)))
