"""Partition combinatorics: counts, enumeration order, symmetry factors."""

import json
from itertools import combinations_with_replacement, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mta.partitions import (
    LabeledPartition,
    Partition,
    _labeled_partitions,
    enumerate_labeled_partitions,
    enumerate_partitions,
    labeled_partition_count,
    partition_count,
    symmetry_factor,
)

# first eleven values of the classical partition counting function
PARTITION_COUNTS = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]

# rank-2 labeled counts, the convolution of the sequence above with itself
LABELED_COUNTS_RANK2 = [1, 2, 5, 10, 20, 36, 65, 110, 185, 300, 481]


def brute_force_partitions(m):
    """Independent oracle: filter weakly decreasing tuples of total m."""
    if m == 0:
        return [()]
    found = []
    for k in range(1, m + 1):
        for combo in combinations_with_replacement(range(1, m + 1), k):
            if sum(combo) == m:
                found.append(tuple(sorted(combo, reverse=True)))
    return sorted(set(found))


def test_partition_counts_match_known_sequence():
    for m, expected in enumerate(PARTITION_COUNTS):
        assert partition_count(m) == expected


def test_partition_counts_match_brute_force():
    for m in range(9):
        assert partition_count(m) == len(brute_force_partitions(m))
        got = sorted(p.parts for p in enumerate_partitions(m))
        assert got == brute_force_partitions(m)


def product_labeled_partitions(n, m):
    """Independent oracle: the product of per-slot partitions over every
    choice of slot weights, kept when the weights sum to m, sorted by the
    documented order.  Slot by slot, the key is the slot's weight
    descending, then its parts descending lexicographic; no partition is
    a proper prefix of another of the same weight, so negated parts
    compare that way."""
    labels = [
        slots
        for weights in product(range(m + 1), repeat=n)
        if sum(weights) == m
        for slots in product(*(brute_force_partitions(w) for w in weights))
    ]
    return sorted(labels, key=lambda slots: [(-sum(s), [-x for x in s]) for s in slots])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_lazy_enumerator_matches_the_product_oracle(n):
    """_labeled_partitions yields the oracle's labels in its order for every
    weight m <= 8, as enumerate_labeled_partitions lists them, and builds
    each weight's partitions once: the labels share p(0) + ... + p(m)
    Partition objects."""
    for m in range(9):
        labels = list(_labeled_partitions(n, m))
        assert [lp.to_json() for lp in labels] == [list(map(list, s)) for s in product_labeled_partitions(n, m)]
        assert labels == enumerate_labeled_partitions(n, m)
        shared = {id(s) for lp in labels for s in lp.slots}
        assert len(shared) == sum(partition_count(w) for w in range(m + 1) if n > 1 or w == m)


def test_labeled_counts_are_convolutions():
    for m, expected in enumerate(LABELED_COUNTS_RANK2):
        assert labeled_partition_count(2, m) == expected
    for n in (1, 2, 3):
        for m in range(9):
            conv = sum(
                partition_count(k) * labeled_partition_count(n - 1, m - k)
                for k in range(m + 1)
            ) if n > 1 else partition_count(m)
            assert labeled_partition_count(n, m) == conv


def test_labeled_count_edge_cases():
    assert labeled_partition_count(1, 0) == 1
    assert labeled_partition_count(3, 0) == 1
    assert labeled_partition_count(2, 1) == 2


def test_generating_function_identity():
    # [q^m] of the finite product over k <= m of 1/(1 - q^k) equals p(m)
    n_max = 12
    coeffs = [1] + [0] * n_max
    for k in range(1, n_max + 1):
        for m in range(k, n_max + 1):
            coeffs[m] += coeffs[m - k]
    for m in range(n_max + 1):
        assert coeffs[m] == partition_count(m)


def test_enumeration_order_rank_one():
    got = [repr(p) for p in enumerate_partitions(4)]
    assert got == ["{4}", "{3,1}", "{2,2}", "{2,1,1}", "{1,1,1,1}"]


def test_enumeration_order_rank_two():
    got = [repr(lp) for lp in enumerate_labeled_partitions(2, 2)]
    assert got == ["({2}|{})", "({1,1}|{})", "({1}|{1})", "({}|{2})", "({}|{1,1})"]


def test_enumeration_is_deterministic():
    first = enumerate_labeled_partitions(3, 4)
    second = enumerate_labeled_partitions(3, 4)
    assert first == second
    assert len(first) == labeled_partition_count(3, 4)
    assert len(set(first)) == len(first)


def test_symmetry_factor_values():
    assert Partition.of(2, 1).symmetry_factor() == 2
    assert Partition.of(1, 1, 1).symmetry_factor() == 6
    assert Partition.of(2, 2, 1).symmetry_factor() == 8
    assert Partition.of().symmetry_factor() == 1
    lp = LabeledPartition.of((2, 1), (1, 1))
    assert symmetry_factor(lp) == 2 * 2


def test_symmetry_factor_formula():
    for p in enumerate_partitions(7):
        mult = p.multiplicities()
        expected = 1
        for part, count in mult.items():
            for i in range(1, count + 1):
                expected *= part * i
        assert p.symmetry_factor() == expected


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((0,))
    with pytest.raises(ValueError):
        Partition((-1,))


def test_labeled_partition_weight_and_rank():
    lp = LabeledPartition.of((3, 1), (), (2,))
    assert lp.rank == 3
    assert lp.weight() == 6


def test_json_round_trip():
    for lp in enumerate_labeled_partitions(2, 4):
        data = lp.to_json()
        assert lp == LabeledPartition.from_json(data)
        assert json.loads(json.dumps(data)) == data


@given(st.integers(min_value=0, max_value=20))
def test_counts_are_nonnegative_and_monotone_in_rank(m):
    assert partition_count(m) >= 1
    assert labeled_partition_count(1, m) == partition_count(m)
    assert labeled_partition_count(2, m) >= labeled_partition_count(1, m)


@settings(max_examples=30)
@given(st.integers(min_value=1, max_value=3), st.integers(min_value=0, max_value=7))
def test_enumeration_agrees_with_count(n, m):
    items = enumerate_labeled_partitions(n, m)
    assert len(items) == labeled_partition_count(n, m)
    for lp in items:
        assert lp.rank == n
        assert lp.weight() == m
