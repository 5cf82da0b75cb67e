"""Integer partitions and n-slot labeled partitions.

A partition is a finite non-increasing tuple of positive parts.  A labeled
partition assigns one partition to each of n slots; these index the creation
monomials of the rank-n free boson, so their counts give the graded
dimensions of its degree-zero-generated modules.  Enumeration is in a fixed
deterministic order (descending lexicographic on part lists, first slot
weight descending across slots) so serialized output is byte-reproducible.
"""

from __future__ import annotations

from math import factorial

from ._frozen import Frozen
from .exact import strict_int


class Partition(Frozen):
    """Non-increasing tuple of positive integer parts."""

    __slots__ = ("parts",)

    def __init__(self, parts: tuple[int, ...] = ()):
        object.__setattr__(self, "parts", parts)
        for p in self.parts:
            if type(p) is not int or p < 1:
                raise ValueError(f"parts must be positive integers, got {p!r}")
        if any(self.parts[i] < self.parts[i + 1] for i in range(len(self.parts) - 1)):
            raise ValueError(f"parts must be non-increasing, got {self.parts}")

    @classmethod
    def of(cls, *parts: int) -> "Partition":
        """Build from parts in any order."""
        return cls(tuple(sorted(parts, reverse=True)))

    def weight(self) -> int:
        return sum(self.parts)

    def multiplicities(self) -> dict[int, int]:
        """Map part value -> multiplicity."""
        out: dict[int, int] = {}
        for p in self.parts:
            out[p] = out.get(p, 0) + 1
        return out

    def symmetry_factor(self) -> int:
        """prod over part values l of l^m * m! where m is the multiplicity.

        Counts the full contractions of the associated creation monomial
        against its mirrored annihilation monomial, each weighted by the
        mode commutator value l.
        """
        out = 1
        for ell, m in self.multiplicities().items():
            out *= ell**m * factorial(m)
        return out

    def __len__(self) -> int:
        return len(self.parts)

    def __repr__(self) -> str:
        return "{" + ",".join(str(p) for p in self.parts) + "}"


class LabeledPartition(Frozen):
    """One partition per slot; slot count is the rank."""

    __slots__ = ("slots",)

    def __init__(self, slots: tuple[Partition, ...]):
        object.__setattr__(self, "slots", slots)
        if len(self.slots) < 1:
            raise ValueError("need at least one slot")

    @classmethod
    def of(cls, *slot_parts) -> "LabeledPartition":
        return cls(tuple(Partition.of(*s) for s in slot_parts))

    @property
    def rank(self) -> int:
        return len(self.slots)

    def weight(self) -> int:
        return sum(s.weight() for s in self.slots)

    def symmetry_factor(self) -> int:
        out = 1
        for s in self.slots:
            out *= s.symmetry_factor()
        return out

    def to_json(self) -> list[list[int]]:
        return [list(s.parts) for s in self.slots]

    @classmethod
    def from_json(cls, data) -> "LabeledPartition":
        return cls(tuple(Partition(tuple(s)) for s in data))

    def __repr__(self) -> str:
        return "(" + "|".join(repr(s) for s in self.slots) + ")"


def symmetry_factor(lp: LabeledPartition) -> int:
    return lp.symmetry_factor()


def _part_tuples(m: int, cap: int):
    # descending lexicographic: largest first part first
    if m == 0:
        yield ()
        return
    for first in range(min(m, cap), 0, -1):
        for rest in _part_tuples(m - first, first):
            yield (first,) + rest


def enumerate_partitions(m: int) -> list[Partition]:
    """All partitions of m, descending lexicographic on part lists."""
    if m < 0:
        raise ValueError("weight must be nonnegative")
    return [Partition(t) for t in _part_tuples(m, m)]


def _check_rank_weight(n: int, m: int) -> None:
    """Rank and weight are read strictly: a bool or a float raises TypeError
    (and would otherwise be echoed back as given)."""
    if strict_int(n) < 1:
        raise ValueError("rank must be positive")
    if strict_int(m) < 0:
        raise ValueError("weight must be nonnegative")


def labeled_partition_counts(n: int, m: int) -> list[int]:
    """Numbers of n-slot labeled partitions of each weight 0..m.

    These are the coefficients of prod_k (1 - q^k)^-n truncated at q^m,
    built bottom-up one factor 1/(1 - q^k) at a time: c[j] += c[j - k],
    n times for each k <= m, so O(n m^2) integer additions.
    """
    _check_rank_weight(n, m)
    c = [1] + [0] * m
    for k in range(1, m + 1):
        for _ in range(n):
            for j in range(k, m + 1):
                c[j] += c[j - k]
    return c


def partition_count(m: int) -> int:
    return labeled_partition_count(1, m)


def labeled_partition_count(n: int, m: int) -> int:
    """Number of n-slot labeled partitions of total weight m."""
    return labeled_partition_counts(n, m)[m]


def enumerate_labeled_partitions(n: int, m: int) -> list[LabeledPartition]:
    """All n-slot labeled partitions of weight m, first slot weight descending."""
    return list(_labeled_partitions(n, m))


def _labeled_partitions(n: int, m: int):
    """The n-slot labeled partitions of weight m, yielded one at a time in
    the order of enumerate_labeled_partitions: first slot weight descending,
    then the first slot's partitions in the order of enumerate_partitions,
    then the other slots in this order recursively.  Each Partition is
    built once and shared by every label that holds it, so a reader that
    drops each label before the next holds at most p(0) + ... + p(m)
    partitions, never the whole enumeration.  Rank and weight are checked
    when the first label is read."""
    _check_rank_weight(n, m)
    if n == 1:
        for p in enumerate_partitions(m):
            yield LabeledPartition((p,))
        return
    by_weight = [enumerate_partitions(w) for w in range(m + 1)]

    def slots(k: int, left: int):
        # the k-slot tuples of total weight left
        if k == 1:
            for p in by_weight[left]:
                yield (p,)
            return
        for w in range(left, -1, -1):
            for head in by_weight[w]:
                for tail in slots(k - 1, left - w):
                    yield (head,) + tail

    for s in slots(n, m):
        yield LabeledPartition(s)
