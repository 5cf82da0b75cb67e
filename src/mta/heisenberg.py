"""Exact normal-ordering engine for the rank-n free-boson mode algebra.

Modes H_i t^a (generator index 1 <= i <= n, exponent a in Z) satisfy

    [H_i t^a, H_j t^b] = a * delta_{i,j} * delta_{a+b,0}

with the central charge parameter fixed at 1, and deg(H_i t^a) = -a.
Elements are finite rational combinations of normal-ordered words: creators
(a < 0) on the left, central zero modes (a = 0) in the middle, annihilators
(a > 0) on the right.  The product of two normal words (C1 Z1 A1)(C2 Z2 A2)
is in closed form: zero modes are central and modes inside a block commute,
so only A1 meets C2, and it does so one bucket (generator, |exponent|) at a
time.  A bucket with m annihilators H t^a on the left and k creators H t^-a
on the right contributes, by Wick's theorem, sum_j C(m,j) C(k,j) j! a^j
times the word with j of each removed; buckets combine as a Cartesian
product.  Arbitrary mode sequences are a fold of this product.

Reducing a degree-0 element modulo words that end in an annihilator lands in
the polynomial ring Q[h_1..h_n] generated by the zero modes; that quotient
is the degree-0 corner algebra all higher structure is measured against.
The corner image of a product keeps only the fully contracted term of each
pair of words, so corner_product computes that term alone; pairings of
annihilation against creation monomials are corner products.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import comb, perm
from typing import NamedTuple

from .exact import frac_str, parse_frac, scalar
from .partitions import (
    LabeledPartition,
    enumerate_labeled_partitions,
    labeled_partition_count,
)


class Mode(NamedTuple):
    """Single mode H_gen t^exp."""

    gen: int
    exp: int

    @property
    def degree(self) -> int:
        return -self.exp

    def __repr__(self) -> str:
        return f"H{self.gen}t{self.exp}"


def commutator(m1: Mode, m2: Mode) -> int:
    """Exact scalar [m1, m2]; nonzero only for matching generator and
    opposite exponents."""
    if m1.gen < 1 or m2.gen < 1:
        raise ValueError("generator indices start at 1")
    if m1.gen == m2.gen and m1.exp + m2.exp == 0:
        return m1.exp
    return 0


def _block_key(m: Mode):
    return (m.gen, -abs(m.exp))


@dataclass(frozen=True)
class NormalWord:
    """Block-ordered word: creators, zero modes, annihilators.

    Within the creator and annihilator blocks modes are sorted by generator
    index then by |exponent| non-increasing; zero modes are kept as a sorted
    multiset of generator indices.  All modes inside a block commute, so the
    sort is a free canonicalization.
    """

    creators: tuple[Mode, ...] = ()
    zeros: tuple[int, ...] = ()
    annihilators: tuple[Mode, ...] = ()

    def __post_init__(self):
        if any(m.exp >= 0 for m in self.creators):
            raise ValueError("creators must have negative exponent")
        if any(m.exp <= 0 for m in self.annihilators):
            raise ValueError("annihilators must have positive exponent")

    @classmethod
    def build(cls, creators=(), zeros=(), annihilators=()) -> "NormalWord":
        return cls(
            tuple(sorted(creators, key=_block_key)),
            tuple(sorted(zeros)),
            tuple(sorted(annihilators, key=_block_key)),
        )

    def degree(self) -> int:
        return -sum(m.exp for m in self.creators) - sum(m.exp for m in self.annihilators)

    def mode_sequence(self) -> tuple[Mode, ...]:
        return self.creators + tuple(Mode(g, 0) for g in self.zeros) + self.annihilators

    def sort_key(self):
        return (self.creators, self.zeros, self.annihilators)

    def __repr__(self) -> str:
        seq = self.mode_sequence()
        return "1" if not seq else "*".join(repr(m) for m in seq)


def _wick_coefficient(i: int, k: int, j: int, a: int) -> int:
    """Weight of j contractions between i annihilators H t^a and k creators
    H t^-a: C(i,j) C(k,j) j! = perm(i,j) C(k,j) ways, each worth a."""
    return perm(i, j) * comb(k, j) * a**j


def _word_product(w1: NormalWord, w2: NormalWord) -> dict[NormalWord, int]:
    """w1 * w2 as an integer combination of normal words.

    Each bucket of w1's annihilators against w2's matching creators makes
    j contractions with weight _wick_coefficient.  Distinct choices leave
    distinct words, so no two terms merge.
    """
    cre = Counter(w2.creators)
    ann = Counter(m for m in w1.annihilators if Mode(m.gen, -m.exp) in cre)
    ann_rest = tuple(m for m in w1.annihilators if m not in ann) + w2.annihilators
    cre_rest = w1.creators + tuple(c for c in w2.creators if Mode(c.gen, -c.exp) not in ann)
    options = []
    for m, i in ann.items():
        c = Mode(m.gen, -m.exp)
        k = cre[c]
        options.append(
            [
                (_wick_coefficient(i, k, j, m.exp), (m,) * (i - j), (c,) * (k - j))
                for j in range(min(i, k) + 1)
            ]
        )
    zeros = w1.zeros + w2.zeros
    out = {}
    for choice in product(*options):
        coeff, anns, cres = 1, ann_rest, cre_rest
        for factor, left_ann, left_cre in choice:
            coeff *= factor
            anns += left_ann
            cres += left_cre
        out[NormalWord.build(cres, zeros, anns)] = coeff
    return out


class ModeElement:
    """Finite rational combination of normal-ordered words of fixed rank;
    coefficients are stored as exact scalars (see exact.scalar)."""

    __slots__ = ("rank", "terms")

    def __init__(self, rank: int, terms: dict | None = None):
        if rank < 1:
            raise ValueError("rank must be positive")
        self.rank = rank
        self.terms: dict[NormalWord, int | Fraction] = {}
        if terms:
            for w, c in terms.items():
                c = scalar(c)
                if c:
                    self._check_word(w)
                    self.terms[w] = c

    def _check_word(self, w: NormalWord):
        for m in w.mode_sequence():
            if not 1 <= m.gen <= self.rank:
                raise ValueError(f"generator {m.gen} out of range for rank {self.rank}")

    @classmethod
    def unit(cls, rank: int) -> "ModeElement":
        return cls(rank, {NormalWord(): 1})

    @classmethod
    def from_word(cls, rank: int, word: NormalWord, coeff=1) -> "ModeElement":
        return cls(rank, {word: coeff})

    @classmethod
    def from_modes(cls, rank: int, modes, coeff=1) -> "ModeElement":
        """Normal-order an arbitrary mode sequence: a fold of multiply."""
        el = cls(rank, {NormalWord(): coeff})
        for m in modes:
            word = NormalWord.build(
                [m] if m.exp < 0 else (), [m.gen] if m.exp == 0 else (), [m] if m.exp > 0 else ()
            )
            el = multiply(el, cls(rank, {word: 1}))
        return el

    def is_zero(self) -> bool:
        return not self.terms

    def is_homogeneous(self) -> bool:
        degs = {w.degree() for w in self.terms}
        return len(degs) <= 1

    def degree(self) -> int:
        """Common degree of all words; 0 for the zero element."""
        degs = sorted({w.degree() for w in self.terms})
        if not degs:
            return 0
        if len(degs) > 1:
            raise ValueError(f"element mixes degrees {degs}")
        return degs[0]

    def _require_same_rank(self, other: "ModeElement"):
        if self.rank != other.rank:
            raise ValueError(f"rank mismatch: {self.rank} vs {other.rank}")

    def __add__(self, other: "ModeElement") -> "ModeElement":
        self._require_same_rank(other)
        terms = dict(self.terms)
        for w, c in other.terms.items():
            tot = terms.get(w, 0) + c
            if tot:
                terms[w] = tot
            else:
                terms.pop(w, None)
        return ModeElement(self.rank, terms)

    def __neg__(self) -> "ModeElement":
        return ModeElement(self.rank, {w: -c for w, c in self.terms.items()})

    def __sub__(self, other: "ModeElement") -> "ModeElement":
        return self + (-other)

    def scale(self, c) -> "ModeElement":
        c = scalar(c)
        return ModeElement(self.rank, {w: c * x for w, x in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, ModeElement):
            return multiply(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ModeElement)
            and self.rank == other.rank
            and self.terms == other.terms
        )

    def sorted_terms(self) -> list[tuple[NormalWord, int | Fraction]]:
        return sorted(self.terms.items(), key=lambda t: t[0].sort_key())

    def to_json(self) -> list[dict]:
        out = []
        for w, c in self.sorted_terms():
            out.append(
                {
                    "coeff": frac_str(c),
                    "creators": [[m.gen, m.exp] for m in w.creators],
                    "zeros": list(w.zeros),
                    "annihilators": [[m.gen, m.exp] for m in w.annihilators],
                }
            )
        return out

    @classmethod
    def from_json(cls, rank: int, data) -> "ModeElement":
        el = cls(rank)
        for term in data:
            w = NormalWord.build(
                [Mode(g, a) for g, a in term["creators"]],
                [int(g) for g in term["zeros"]],
                [Mode(g, a) for g, a in term["annihilators"]],
            )
            c = parse_frac(term["coeff"])
            tot = scalar(el.terms.get(w, 0) + c)
            if tot:
                el.terms[w] = tot
            else:
                el.terms.pop(w, None)
        for w in el.terms:
            el._check_word(w)
        return el

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = [f"({frac_str(c)})*{w!r}" for w, c in self.sorted_terms()]
        return " + ".join(bits)


def multiply(a: ModeElement, b: ModeElement) -> ModeElement:
    """Product in the mode algebra, fully normal-ordered."""
    a._require_same_rank(b)
    out: dict[NormalWord, int | Fraction] = {}
    for w1, c1 in a.terms.items():
        for w2, c2 in b.terms.items():
            c12 = c1 * c2
            for w, k in _word_product(w1, w2).items():
                out[w] = out.get(w, 0) + c12 * k
    return ModeElement(a.rank, out)


def u_element(lp: LabeledPartition) -> ModeElement:
    """Creation monomial: slot i of weight parts l gives creators H_i t^-l."""
    creators = [Mode(i + 1, -p) for i, s in enumerate(lp.slots) for p in s.parts]
    return ModeElement(lp.rank, {NormalWord.build(creators=creators): 1})


def ubar_element(lp: LabeledPartition) -> ModeElement:
    """Mirrored annihilation monomial of u_element."""
    ann = [Mode(i + 1, p) for i, s in enumerate(lp.slots) for p in s.parts]
    return ModeElement(lp.rank, {NormalWord.build(annihilators=ann): 1})


class ZhuPolynomial:
    """Element of the degree-0 corner algebra Q[h_1..h_n].

    Coefficients map exponent tuples (length = rank) to exact scalars.
    The empty monomial is 1.
    """

    __slots__ = ("rank", "coeffs")

    def __init__(self, rank: int, coeffs: dict | None = None):
        if rank < 1:
            raise ValueError("rank must be positive")
        self.rank = rank
        self.coeffs: dict[tuple[int, ...], int | Fraction] = {}
        if coeffs:
            for e, c in coeffs.items():
                c = scalar(c)
                if len(e) != rank or any(x < 0 for x in e):
                    raise ValueError(f"bad exponent tuple {e}")
                if c:
                    self.coeffs[tuple(e)] = c

    @classmethod
    def constant(cls, rank: int, c) -> "ZhuPolynomial":
        return cls(rank, {(0,) * rank: c})

    @classmethod
    def zero(cls, rank: int) -> "ZhuPolynomial":
        return cls(rank)

    @classmethod
    def generator(cls, rank: int, i: int) -> "ZhuPolynomial":
        """The zero-mode generator h_i (1-indexed)."""
        e = [0] * rank
        e[i - 1] = 1
        return cls(rank, {tuple(e): 1})

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_constant(self) -> bool:
        return all(all(x == 0 for x in e) for e in self.coeffs)

    def constant_value(self) -> int | Fraction:
        if not self.is_constant():
            raise ValueError(f"not a constant: {self!r}")
        return self.coeffs.get((0,) * self.rank, 0)

    def __add__(self, other: "ZhuPolynomial") -> "ZhuPolynomial":
        if self.rank != other.rank:
            raise ValueError("rank mismatch")
        coeffs = dict(self.coeffs)
        for e, c in other.coeffs.items():
            tot = coeffs.get(e, 0) + c
            if tot:
                coeffs[e] = tot
            else:
                coeffs.pop(e, None)
        return ZhuPolynomial(self.rank, coeffs)

    def __neg__(self) -> "ZhuPolynomial":
        return ZhuPolynomial(self.rank, {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, ZhuPolynomial):
            other = scalar(other)
            return ZhuPolynomial(self.rank, {e: other * c for e, c in self.coeffs.items()})
        if self.rank != other.rank:
            raise ValueError("rank mismatch")
        coeffs: dict[tuple[int, ...], int | Fraction] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                tot = coeffs.get(e, 0) + c1 * c2
                if tot:
                    coeffs[e] = tot
                else:
                    coeffs.pop(e, None)
        return ZhuPolynomial(self.rank, coeffs)

    def __rmul__(self, other):
        return self * other

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ZhuPolynomial)
            and self.rank == other.rank
            and self.coeffs == other.coeffs
        )

    def evaluate(self, point) -> int | Fraction:
        """Exact value at a rational point (length = rank)."""
        pt = [scalar(x) for x in point]
        if len(pt) != self.rank:
            raise ValueError("evaluation point has wrong length")
        total = 0
        for e, c in self.coeffs.items():
            v = c
            for x, k in zip(pt, e):
                v *= x**k
            total += v
        return scalar(total)

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        bits = []
        for e, c in sorted(self.coeffs.items()):
            mono = "*".join(f"h{i + 1}^{k}" if k > 1 else f"h{i + 1}" for i, k in enumerate(e) if k)
            bits.append(f"{frac_str(c)}" + (f"*{mono}" if mono else ""))
        return " + ".join(bits)


_NOT_DEGREE_ZERO = "element must be homogeneous of degree 0"
_LEFTOVER_CREATOR = "degree-0 word without annihilators has no creators"


def _zero_mode_exponents(rank: int, zeros) -> tuple[int, ...]:
    e = [0] * rank
    for g in zeros:
        e[g - 1] += 1
    return tuple(e)


def star_to_zhu(el: ModeElement) -> ZhuPolynomial:
    """Image of a homogeneous degree-0 element in the corner Q[h_1..h_n].

    Words containing an annihilator die; the surviving words of a degree-0
    element are pure zero-mode words and map to the matching monomials.
    """
    if {w.degree() for w in el.terms} - {0}:
        raise ValueError(_NOT_DEGREE_ZERO)
    coeffs = {}
    for w, c in el.terms.items():
        if w.annihilators:
            continue
        if w.creators:
            raise AssertionError(_LEFTOVER_CREATOR)
        coeffs[_zero_mode_exponents(el.rank, w.zeros)] = c  # distinct words, distinct monomials
    return ZhuPolynomial(el.rank, coeffs)


def corner_product(a: ModeElement, b: ModeElement) -> ZhuPolynomial:
    """star_to_zhu(multiply(a, b)), building only the words that survive.

    Of the Wick terms of (C1 Z1 A1)(C2 Z2 A2) only the one without
    annihilators reaches the corner: A2 is empty and every annihilator
    bucket of A1 (i modes) is fully contracted against k >= i matching
    creators of C2, with weight _wick_coefficient(i, k, i, a) per bucket
    and zero modes Z1 + Z2.  Word pairs whose degrees do not add to 0 are
    multiplied out in full, and must cancel, exactly as star_to_zhu asks of
    the whole product.
    """
    a._require_same_rank(b)
    return _corner_product(a.rank, _corner_terms(a), _corner_terms(b))


def _corner_terms(el: ModeElement):
    """The terms of el with what _corner_product reads of each word: its
    degree, its annihilator buckets as (matching creator, count, exponent)
    and its creator counts."""
    return [
        (
            w,
            c,
            w.degree(),
            [(Mode(m.gen, -m.exp), i, m.exp) for m, i in Counter(w.annihilators).items()],
            Counter(w.creators),
        )
        for w, c in el.terms.items()
    ]


def _corner_product(rank: int, a_terms, b_terms) -> ZhuPolynomial:
    """corner_product on the _corner_terms of its two factors."""
    coeffs: dict[tuple[int, ...], int | Fraction] = {}
    off_degree: dict[NormalWord, int | Fraction] = {}
    for w1, c1, d1, buckets, _ in a_terms:
        for w2, c2, d2, _, cre in b_terms:
            if d1 + d2:
                for w, k in _word_product(w1, w2).items():
                    off_degree[w] = off_degree.get(w, 0) + c1 * c2 * k
                continue
            if w2.annihilators:
                continue
            weight = 1
            for mirror, i, exp in buckets:
                k = cre[mirror]
                if k < i:
                    break
                weight *= _wick_coefficient(i, k, i, exp)
            else:
                if w1.creators or len(w2.creators) != len(w1.annihilators):
                    raise AssertionError(_LEFTOVER_CREATOR)
                e = _zero_mode_exponents(rank, w1.zeros + w2.zeros)
                coeffs[e] = coeffs.get(e, 0) + c1 * c2 * weight
    if any(off_degree.values()):
        raise ValueError(_NOT_DEGREE_ZERO)
    return ZhuPolynomial(rank, coeffs)


def pairing(sigma: LabeledPartition, tau: LabeledPartition) -> ZhuPolynomial:
    """Corner image of ubar(sigma) * u(tau), the fully contracted Wick term;
    requires equal rank and weight."""
    if sigma.rank != tau.rank:
        raise ValueError("rank mismatch")
    if sigma.weight() != tau.weight():
        raise ValueError("weight mismatch")
    return corner_product(ubar_element(sigma), u_element(tau))


def pairing_matrix(n: int, d: int):
    """All pairings on weight-d labeled partitions.

    Builds ubar(sigma) and u(tau) once per label, and analyses each word
    (degree, buckets) once per side, then fills the matrix with
    corner_product.  Returns (labels, matrix of ZhuPolynomial), rows indexed
    by sigma.
    """
    labels = enumerate_labeled_partitions(n, d)
    ubars = [_corner_terms(ubar_element(s)) for s in labels]
    us = [_corner_terms(u_element(t)) for t in labels]
    return labels, [[_corner_product(n, x, y) for y in us] for x in ubars]


def strong_identity(n: int, d: int) -> list[tuple[LabeledPartition, int | Fraction]]:
    """Degree-d strong identity: sum over weight-d labeled partitions of
    u(sigma) (x) ubar(sigma) weighted by 1/symmetry_factor(sigma)."""
    if d < 0:
        raise ValueError("degree must be nonnegative")
    return [
        (lp, scalar(Fraction(1, lp.symmetry_factor())))
        for lp in enumerate_labeled_partitions(n, d)
    ]


def strong_identity_to_json(terms) -> list[dict]:
    return [{"partition": lp.to_json(), "coeff": frac_str(c)} for lp, c in terms]


def strong_identity_from_json(data) -> list[tuple[LabeledPartition, int | Fraction]]:
    return [(LabeledPartition.from_json(t["partition"]), parse_frac(t["coeff"])) for t in data]


@dataclass
class IdentityReport:
    """Outcome of checking the degree-d identity through the pairing matrix.

    The identity acts correctly on one side iff the pairing matrix is the
    diagonal of symmetry factors; by mirror symmetry of the words the same
    matrix certifies the action on the other side.
    """

    rank: int
    degree: int
    ok: bool
    labels: list[LabeledPartition]
    expected_diagonal: list[int]
    matrix: list[list[ZhuPolynomial]]
    mismatches: list[tuple[int, int]] = field(default_factory=list)

    def to_json(self) -> dict:
        k = len(self.labels)
        return {
            "rank": self.rank,
            "degree": self.degree,
            "ok": self.ok,
            "size": k,
            "labels": [lp.to_json() for lp in self.labels],
            "expected_diagonal": list(self.expected_diagonal),
            "matrix": [
                [
                    frac_str(self.matrix[i][j].constant_value())
                    if self.matrix[i][j].is_constant()
                    else repr(self.matrix[i][j])
                    for j in range(k)
                ]
                for i in range(k)
            ],
            "mismatches": [list(m) for m in self.mismatches],
        }


def verify_strong_identity(n: int, d: int) -> IdentityReport:
    """Check pairing(sigma, tau) == symmetry_factor(sigma) * delta(sigma, tau)
    for all weight-d labeled partitions."""
    labels, matrix = pairing_matrix(n, d)
    expected = [lp.symmetry_factor() for lp in labels]
    zero = ZhuPolynomial.zero(n)
    mismatches = []
    for i in range(len(labels)):
        for j in range(len(labels)):
            want = ZhuPolynomial.constant(n, expected[i]) if i == j else zero
            if matrix[i][j] != want:
                mismatches.append((i, j))
    return IdentityReport(
        rank=n,
        degree=d,
        ok=not mismatches,
        labels=labels,
        expected_diagonal=expected,
        matrix=matrix,
        mismatches=mismatches,
    )


@dataclass
class RankCertificate:
    """Certified dimension of the weight-d creation-monomial space.

    A diagonal pairing matrix with nonzero diagonal entries shows the
    spanning monomials are independent, so the count is the dimension.
    """

    rank: int
    degree: int
    count: int
    diagonal: list[int]
    independent: bool

    def to_json(self) -> dict:
        return {
            "rank": self.rank,
            "degree": self.degree,
            "count": self.count,
            "diagonal": list(self.diagonal),
            "independent": self.independent,
        }


def rank_certificate(n: int, d: int) -> RankCertificate:
    report = verify_strong_identity(n, d)
    count = labeled_partition_count(n, d)
    if count != len(report.labels):
        raise AssertionError("enumeration disagrees with counting")
    return RankCertificate(
        rank=n,
        degree=d,
        count=count,
        diagonal=report.expected_diagonal,
        independent=report.ok and all(x != 0 for x in report.expected_diagonal),
    )
