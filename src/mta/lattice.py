"""Even positive-definite lattices and their graded module dimensions.

A lattice is presented by an integer Gram matrix on the standard basis.
Its one exact square completion, computed once per matrix, gives
definiteness (every pivot positive, by Sylvester's criterion), the
determinant (the product of the pivots) and a Fincke-Pohst-style search
over lattice points for the minimal norm of a coset and its norm layers,
scaled by one common denominator so that the search runs in integers.  Dual
cosets are enumerated through an integer diagonalization of the Gram
matrix.  No floating point enters anywhere.  Graded dimensions multiply
the coset's norm-layer series (rational exponents sharing the coset's
denominator) by the rank-th power of the partition series and shift by the
minimal norm.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import floor, isqrt, lcm, prod

from ._frozen import Frozen
from .exact import invert_matrix
from .partitions import labeled_partition_counts

HALF = Fraction(1, 2)


class EvenLattice(Frozen):
    """Positive-definite integer Gram matrix with even diagonal."""

    __slots__ = ("gram",)

    def __init__(self, gram: tuple[tuple[int, ...], ...]):
        object.__setattr__(self, "gram", gram)
        g = self.gram
        n = len(g)
        if n == 0:
            raise ValueError("rank must be positive")
        if any(len(row) != n for row in g):
            raise ValueError("gram matrix must be square")
        if any(not isinstance(x, int) for row in g for x in row):
            raise ValueError("gram entries must be integers")
        if any(g[i][j] != g[j][i] for i in range(n) for j in range(n)):
            raise ValueError("gram matrix must be symmetric")
        if any(g[i][i] % 2 for i in range(n)):
            raise ValueError("diagonal entries must be even")
        _ldl(g)

    @classmethod
    def from_rows(cls, rows) -> "EvenLattice":
        return cls(tuple(tuple(int(x) for x in row) for row in rows))

    @property
    def rank(self) -> int:
        return len(self.gram)

    def determinant(self) -> int:
        d = prod(_ldl(self.gram)[0])
        if d.denominator != 1:
            raise RuntimeError(f"determinant of an integer gram matrix came out as {d}")
        return int(d)

    def norm(self, x) -> Fraction:
        """Half the Gram square of a rational vector."""
        x = [Fraction(v) for v in x]
        total = Fraction(0)
        for i, row in enumerate(self.gram):
            if x[i]:
                total += x[i] * sum(row[j] * x[j] for j in range(self.rank) if x[j])
        return HALF * total

    def is_dual_vector(self, x) -> bool:
        """True when pairing against every basis vector is integral."""
        x = [Fraction(v) for v in x]
        for row in self.gram:
            if sum(row[j] * x[j] for j in range(self.rank)).denominator != 1:
                return False
        return True


class CosetRep(Frozen):
    """Dual coset representative, reduced into the unit box."""

    __slots__ = ("index", "vector")

    def __init__(self, index: int, vector: tuple[Fraction, ...]):
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "vector", vector)


def parse_gram_text(text: str) -> EvenLattice:
    """First line: rank; then rank rows of rank integers."""
    tokens_by_line = [line.split() for line in text.splitlines() if line.strip()]
    if not tokens_by_line:
        raise ValueError("empty gram description")
    head = tokens_by_line[0]
    if len(head) != 1:
        raise ValueError("first line must hold the rank alone")
    n = int(head[0])
    rows = tokens_by_line[1:]
    if len(rows) != n or any(len(r) != n for r in rows):
        raise ValueError(f"expected {n} rows of {n} integers")
    return EvenLattice.from_rows([[int(x) for x in r] for r in rows])


def load_gram(path) -> EvenLattice:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_gram_text(fh.read())


def _smith_diagonalize(mat):
    """Integer diagonalization m = s_inv @ diag @ t_inv with unimodular
    transforms; returns (diagonal entries, s_inv).  Column transforms are
    not tracked since only the row side enters coset enumeration."""
    m = [list(row) for row in mat]
    n = len(m)
    sinv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        m[i], m[j] = m[j], m[i]
        for r in range(n):
            sinv[r][i], sinv[r][j] = sinv[r][j], sinv[r][i]

    def add_row(i, j, c):
        # row_i += c * row_j ; inverse transform folds into column j
        m[i] = [x + c * y for x, y in zip(m[i], m[j])]
        for r in range(n):
            sinv[r][j] -= c * sinv[r][i]

    def negate_row(i):
        m[i] = [-x for x in m[i]]
        for r in range(n):
            sinv[r][i] = -sinv[r][i]

    def swap_cols(i, j):
        for row in m:
            row[i], row[j] = row[j], row[i]

    def add_col(i, j, c):
        for row in m:
            row[i] += c * row[j]

    for pos in range(n):
        while True:
            best = None
            for i in range(pos, n):
                for j in range(pos, n):
                    if m[i][j] and (best is None or abs(m[i][j]) < abs(m[best[0]][best[1]])):
                        best = (i, j)
            if best is None:
                break
            if best[0] != pos:
                swap_rows(pos, best[0])
            if best[1] != pos:
                swap_cols(pos, best[1])
            piv = m[pos][pos]
            dirty = False
            for r in range(pos + 1, n):
                if m[r][pos]:
                    add_row(r, pos, -(m[r][pos] // piv))
                    if m[r][pos]:
                        dirty = True
            for c in range(pos + 1, n):
                if m[pos][c]:
                    add_col(c, pos, -(m[pos][c] // piv))
                    if m[pos][c]:
                        dirty = True
            if not dirty:
                break
        if m[pos][pos] < 0:
            negate_row(pos)
    return [m[i][i] for i in range(n)], sinv


def dual_cosets(lattice: EvenLattice) -> list[CosetRep]:
    """All classes of dual vectors modulo the lattice, deterministically
    ordered with the zero class first; representatives live in [0,1)^rank."""
    n = lattice.rank
    diag, sinv = _smith_diagonalize(lattice.gram)
    count = prod(diag)
    if count != lattice.determinant():
        raise RuntimeError(f"Smith diagonal {diag} disagrees with the determinant")
    ginv = invert_matrix([list(map(Fraction, row)) for row in lattice.gram])
    reps = []
    for k in product(*map(range, diag)):
        v = [sum(sinv[r][c] * k[c] for c in range(n)) for r in range(n)]
        lam = [sum(ginv[r][c] * v[c] for c in range(n)) for r in range(n)]
        reps.append(tuple(x - floor(x) for x in lam))
    if len(reps) != count or len(set(reps)) != count:
        raise RuntimeError(f"expected {count} distinct coset representatives")
    if reps[0] != (Fraction(0),) * n:
        raise RuntimeError("the zero class is not the first coset")
    for lam in reps:
        if not lattice.is_dual_vector(lam):
            raise RuntimeError("coset representative is not a dual vector")
    return [CosetRep(i, lam) for i, lam in enumerate(reps)]


def _ldl(gram):
    """Exact square completion of a symmetric matrix: returns (d, r) with
    x^T gram x = sum_i d_i (x_i + sum_{j>i} r_ij x_j)^2.

    The pivot d_k is the k-th leading minor over the (k-1)-th, so a pivot
    that is not positive means the matrix is not positive definite, and
    ValueError is raised.  Cached per matrix, keyed by the rows as tuples."""
    return _square_completion(tuple(map(tuple, gram)))


@lru_cache
def _square_completion(gram):
    n = len(gram)
    a = [[Fraction(gram[i][j]) for j in range(n)] for i in range(n)]
    d = [Fraction(0)] * n
    r = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        d[i] = a[i][i]
        if d[i] <= 0:
            raise ValueError("gram matrix must be positive definite")
        for j in range(i + 1, n):
            r[i][j] = a[i][j] / d[i]
        for p in range(i + 1, n):
            for q in range(i + 1, n):
                a[p][q] -= d[i] * r[i][p] * r[i][q]
    return tuple(d), tuple(map(tuple, r))


def coset_norms(lattice: EvenLattice, lam, bound) -> list[tuple[tuple[int, ...], Fraction]]:
    """All lattice shifts e with norm(lam + e) <= bound, with exact norms.

    The search runs in integers.  With x = lam + e, the square completion
    2 norm(x) = sum_i d_i (x_i + sum_{j>i} r_ij x_j)^2 and D a common
    denominator of lam, d and r, the scaled coordinates X_j = D x_j and
    centred values T_i = D^2 (x_i + sum_{j>i} r_ij x_j) are integers, and
    2 D^5 norm(x) = sum_i (D d_i) T_i^2.  Shifts come out in the order of the
    recursion from the last coordinate down, each coordinate ascending over
    exactly the integers its remaining budget admits; a Fraction is built
    only for each norm returned.
    """
    lam = [Fraction(x) for x in lam]
    if len(lam) != lattice.rank:
        raise ValueError("coset vector has wrong length")
    if not lattice.is_dual_vector(lam):
        raise ValueError("coset vector does not pair integrally with the lattice")
    n = lattice.rank
    d, r = _ldl(lattice.gram)
    den = lcm(
        *(x.denominator for x in lam),
        *(x.denominator for x in d),
        *(r[i][j].denominator for i in range(n) for j in range(i + 1, n)),
    )
    lam_s = [int(x * den) for x in lam]
    d_s = [int(x * den) for x in d]
    r_s = [[int(x * den) for x in row] for row in r]
    step = den * den
    scale = 2 * den**5
    top = floor(Fraction(bound) * scale)
    out = []
    norms: dict[int, Fraction] = {}

    def rec(i, coords, xs, partial):
        if i < 0:
            q = norms.get(partial)
            if q is None:
                q = norms[partial] = Fraction(partial, scale)
            out.append((tuple(reversed(coords)), q))
            return
        rho = den * lam_s[i] + sum(r_s[i][j] * xs[j] for j in range(i + 1, n))
        budget = top - partial
        # (D d_i) T^2 <= budget  <=>  |T| <= isqrt(budget // (D d_i)), T = D^2 k + rho
        s = isqrt(budget // d_s[i])
        for k in range(-((s + rho) // step), (s - rho) // step + 1):
            t = step * k + rho
            xs[i] = den * k + lam_s[i]
            rec(i - 1, coords + [k], xs, partial + d_s[i] * t * t)

    if top >= 0:
        rec(n - 1, [], [0] * n, 0)
    return out


def conformal_weight(lattice: EvenLattice, lam) -> Fraction:
    """Minimal norm over the coset lam + lattice."""
    base = lattice.norm(lam)
    points = coset_norms(lattice, lam, base)
    return min(q for _, q in points)


def count_norm_layer(lattice: EvenLattice, lam, j) -> int:
    """Number of coset vectors of norm exactly j."""
    j = Fraction(j)
    if j < 0:
        return 0
    return sum(1 for _, q in coset_norms(lattice, lam, j) if q == j)


def graded_dims(lattice: EvenLattice, lam, n_max: int) -> list[int]:
    """Graded dimensions of the coset module, levels 0..n_max.

    The norm-layer series of the coset (exponents in the coset's fractional
    congruence class) is multiplied by the rank-th power of the partition
    series and shifted down by the minimal norm; the surviving exponents are
    the integers 0..n_max.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    lam = [Fraction(x) for x in lam]
    a = conformal_weight(lattice, lam)
    theta = Counter(q for _, q in coset_norms(lattice, lam, a + n_max))
    osc = labeled_partition_counts(lattice.rank, n_max)
    shifted: dict[Fraction, int] = {}
    for q, cq in theta.items():
        for m, cm in enumerate(osc):
            e = q + m - a
            if e <= n_max:
                shifted[e] = shifted.get(e, 0) + cq * cm
    for e, c in shifted.items():
        if c and e.denominator != 1:
            raise ArithmeticError("norm layer not congruent to the minimal norm")
    return [shifted.get(Fraction(m), 0) for m in range(n_max + 1)]
