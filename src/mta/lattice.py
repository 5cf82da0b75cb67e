"""Even positive-definite lattices and their graded module dimensions.

A lattice is presented by an integer Gram matrix G on the standard basis.
Its one fraction-free square completion (Bareiss elimination), computed
once per matrix, gives the leading minors p and integer rows u with
x^T G x = sum_i (u_i . x)^2 / (p_i p_{i+1}): definiteness (every minor
positive, by Sylvester's criterion), the determinant (the last minor) and a
Fincke-Pohst-style search over the lattice points of a coset, run in
integers.  Dual cosets are enumerated through an integer diagonalization
U G V of the Gram matrix.  A rational vector enters integer arithmetic as
its common denominator and numerators.  No floating point enters anywhere.
Graded dimensions count the coset's points by integer level above the
minimal norm and multiply by the rank-th power of the partition series.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import islice, product
from math import floor, isqrt, lcm, prod
from operator import mul

from ._frozen import Frozen
from .exact import parse_int
from .partitions import labeled_partition_counts


class EvenLattice(Frozen):
    """Positive-definite integer Gram matrix with even diagonal."""

    __slots__ = ("gram",)

    def __init__(self, gram):
        g = tuple(map(tuple, gram))
        object.__setattr__(self, "gram", g)
        n = len(g)
        if n == 0:
            raise ValueError("rank must be positive")
        if any(len(row) != n for row in g):
            raise ValueError("gram matrix must be square")
        if any(type(x) is not int for row in g for x in row):
            raise ValueError("gram entries must be integers")
        if any(g[i][j] != g[j][i] for i in range(n) for j in range(n)):
            raise ValueError("gram matrix must be symmetric")
        if any(g[i][i] % 2 for i in range(n)):
            raise ValueError("diagonal entries must be even")
        _completion(g)

    @classmethod
    def from_rows(cls, rows) -> "EvenLattice":
        return cls(rows)

    @property
    def rank(self) -> int:
        return len(self.gram)

    def determinant(self) -> int:
        return _completion(self.gram)[0][-1]

    def _numerators(self, x) -> tuple[int, list[int]]:
        """(m, w) for a rational vector x of length rank: its least common
        denominator m and the integers w = m x."""
        x = [Fraction(v) for v in x]
        if len(x) != self.rank:
            raise ValueError("coset vector has wrong length")
        m = lcm(*(v.denominator for v in x))
        return m, [v.numerator * (m // v.denominator) for v in x]

    def norm(self, x) -> Fraction:
        """Half the Gram square of a rational vector."""
        m, w = self._numerators(x)
        return Fraction(sum(a * _dot(row, w) for a, row in zip(w, self.gram)), 2 * m * m)

    def is_dual_vector(self, x) -> bool:
        """True when pairing against every basis vector is integral."""
        m, w = self._numerators(x)
        return all(_dot(row, w) % m == 0 for row in self.gram)


class CosetRep(Frozen):
    """Dual coset representative, reduced into the unit box."""

    __slots__ = ("index", "vector")

    def __init__(self, index: int, vector: tuple[Fraction, ...]):
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "vector", vector)


def _gram_header(chunks):
    """(rank, lines): the rank read off the first nonblank line of a gram
    file, and an iterator over the lines after it.

    chunks is an iterable of text pieces that each end at a line break: an
    open file, read one line at a time, or [text].  Each piece is split as
    str.splitlines splits, so both give the same lines, and nothing past
    the rank line is read, so a caller can bound the rank first.
    """
    lines = (line for chunk in chunks for line in chunk.splitlines())
    head = next((line.split() for line in lines if line.strip()), None)
    if head is None:
        raise ValueError("empty gram description")
    if len(head) != 1:
        raise ValueError("first line must hold the rank alone")
    return parse_int(head[0]), lines


def _gram_rows(n: int, lines) -> list[list[int]]:
    """The n rows of n integers that follow a gram file's rank line.  At
    most n + 1 nonblank lines are read: one more row than n is enough to
    refuse the file."""
    rows = [line.split() for line in islice((x for x in lines if x.strip()), n + 1)]
    if len(rows) != n or any(len(r) != n for r in rows):
        raise ValueError(f"expected {n} rows of {n} integers")
    return [[parse_int(x) for x in r] for r in rows]


def gram_rows(text: str) -> list[list[int]]:
    """The rows of a gram file: first line the rank, then rank rows of rank
    integers.  Nothing is factored, so a caller can bound the rank first."""
    return _gram_rows(*_gram_header([text]))


def parse_gram_text(text: str) -> EvenLattice:
    return EvenLattice(gram_rows(text))


def load_gram(path) -> EvenLattice:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_gram_text(fh.read())


def _dot(a, b) -> int:
    return sum(map(mul, a, b))


@lru_cache
def _completion(gram):
    """Fraction-free square completion of a symmetric integer matrix.

    Returns (p, u): the leading minors p (p[0] = 1, p[n] the determinant)
    and integer upper rows u with u[i][i] = p[i+1], so that
    x^T gram x = sum_i (u_i . x)^2 / (p[i] p[i+1]).  A minor that is not
    positive means the matrix is not positive definite, and ValueError is
    raised.  Cached per matrix, keyed by the rows as tuples."""
    n = len(gram)
    a = [list(row) for row in gram]
    p = [1]
    for k in range(n):
        if a[k][k] <= 0:
            raise ValueError("gram matrix must be positive definite")
        p.append(a[k][k])
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                q, rem = divmod(p[k + 1] * a[i][j] - a[i][k] * a[k][j], p[k])
                if rem:
                    raise RuntimeError(f"Bareiss step {k} left a remainder at ({i}, {j})")
                a[i][j] = q
    u = tuple(tuple(0 if j < i else a[i][j] for j in range(n)) for i in range(n))
    return tuple(p), u


def _smith_diagonalize(mat):
    """Integer diagonalization U mat V = diag with unimodular U and V;
    returns (diagonal entries, V).  Row transforms are not tracked since
    only the column side enters coset enumeration."""
    m = [list(row) for row in mat]
    n = len(m)
    v = [[int(i == j) for j in range(n)] for i in range(n)]
    for pos in range(n):
        while True:
            # the first entry of least absolute value in row-major order
            pivots = [(abs(m[i][j]), i, j) for i in range(pos, n) for j in range(pos, n) if m[i][j]]
            if not pivots:
                break
            _, i, j = min(pivots)
            m[pos], m[i] = m[i], m[pos]
            for row in m + v:
                row[pos], row[j] = row[j], row[pos]
            piv = m[pos][pos]
            for r in range(pos + 1, n):
                q = m[r][pos] // piv
                m[r] = [x - q * y for x, y in zip(m[r], m[pos])]
            for c in range(pos + 1, n):
                q = m[pos][c] // piv
                for row in m + v:
                    row[c] -= q * row[pos]
            if not any(m[pos][pos + 1 :] + [m[r][pos] for r in range(pos + 1, n)]):
                break
        if m[pos][pos] < 0:
            m[pos] = [-x for x in m[pos]]
    return [m[i][i] for i in range(n)], v


def dual_cosets(lattice: EvenLattice) -> list[CosetRep]:
    """All classes of dual vectors modulo the lattice, deterministically
    ordered with the zero class first; representatives live in [0,1)^rank.

    With U G V = diag, the class of k in the box of diag is V diag^-1 k
    reduced mod 1, computed over the common denominator D of diag."""
    n = lattice.rank
    diag, v = _smith_diagonalize(lattice.gram)
    count = prod(diag)
    if count != lattice.determinant():
        raise RuntimeError(f"Smith diagonal {diag} disagrees with the determinant")
    den = lcm(*diag)
    scaled = [[row[c] * (den // diag[c]) for c in range(n)] for row in v]
    reps = [
        tuple(Fraction(_dot(row, k) % den, den) for row in scaled)
        for k in product(*map(range, diag))
    ]
    if len(reps) != count or len(set(reps)) != count:
        raise RuntimeError(f"expected {count} distinct coset representatives")
    if reps[0] != (Fraction(0),) * n:
        raise RuntimeError("the zero class is not the first coset")
    for lam in reps:
        if not lattice.is_dual_vector(lam):
            raise RuntimeError("coset representative is not a dual vector")
    return [CosetRep(i, lam) for i, lam in enumerate(reps)]


def _search(lattice: EvenLattice, lam, bound, visit) -> int:
    """Hand every lattice shift e with norm(lam + e) <= bound to visit, and
    return S.

    visit(e, q) gets q = S norm(lam + e) and e itself: one list of rank
    ints, live and read only, which the search overwrites in place as it
    moves on.  No list of points is built.  The search runs in integers.
    With m the common denominator of lam, w = m lam, X = m (lam + e) and
    T_i = u_i . X, the completion gives S norm(lam + e) = sum_i c_i T_i^2
    for P = lcm_i p_i p_{i+1}, c_i = P / (p_i p_{i+1}) and S = 2 m^2 P.
    Shifts come in the order of the recursion from the last coordinate
    down, each coordinate ascending over exactly the integers its remaining
    budget admits.
    """
    if not lattice.is_dual_vector(lam):
        raise ValueError("coset vector does not pair integrally with the lattice")
    n = lattice.rank
    m, w = lattice._numerators(lam)
    p, u = _completion(lattice.gram)
    big = lcm(*(p[i] * p[i + 1] for i in range(n)))
    c = [big // (p[i] * p[i + 1]) for i in range(n)]
    scale = 2 * m * m * big
    top = floor(Fraction(bound) * scale)
    base = [_dot(row, w) for row in u]
    e = [0] * n

    def rec(i, partial):
        if i < 0:
            visit(e, partial)
            return
        # T = u_i . w + m u_ii e_i + m sum_{j>i} u_ij e_j = step e_i + rho
        step = p[i + 1] * m
        rho = base[i] + m * sum(u[i][j] * e[j] for j in range(i + 1, n))
        # c_i T^2 <= budget  <=>  |T| <= isqrt(budget // c_i)
        s = isqrt((top - partial) // c[i])
        for k in range(-((s + rho) // step), (s - rho) // step + 1):
            t = step * k + rho
            e[i] = k
            rec(i - 1, partial + c[i] * t * t)

    if top >= 0:
        rec(n - 1, 0)
    return scale


def _norm_counts(lattice: EvenLattice, lam, bound) -> tuple[int, dict[int, int]]:
    """(S, {q: number of shifts}) over the shifts e of _search, with
    q = S norm(lam + e); one entry per distinct norm, no entry per point."""
    counts: dict[int, int] = {}

    def visit(_e, q):
        counts[q] = counts.get(q, 0) + 1

    return _search(lattice, lam, bound, visit), counts


def coset_norms(lattice: EvenLattice, lam, bound) -> list[tuple[tuple[int, ...], Fraction]]:
    """All lattice shifts e with norm(lam + e) <= bound, with exact norms,
    in the order of _search; one Fraction is built per distinct norm."""
    points = []
    values: dict[int, int] = {}  # one int object per distinct value, shared by its points

    def visit(e, q):
        points.append((tuple(e), values.setdefault(q, q)))

    scale = _search(lattice, lam, bound, visit)
    norms = {q: Fraction(q, scale) for q in values}
    return [(e, norms[q]) for e, q in points]


def conformal_weight(lattice: EvenLattice, lam) -> Fraction:
    """Minimal norm over the coset lam + lattice."""
    scale, counts = _norm_counts(lattice, lam, lattice.norm(lam))
    return Fraction(min(counts), scale)


def count_norm_layer(lattice: EvenLattice, lam, j) -> int:
    """Number of coset vectors of norm exactly j."""
    j = Fraction(j)
    if j < 0:
        return 0
    scale, counts = _norm_counts(lattice, lam, j)
    # a Fraction equal to an int hashes as that int
    return counts.get(j * scale, 0)


def graded_dims(lattice: EvenLattice, lam, n_max: int) -> list[int]:
    """Graded dimensions of the coset module, levels 0..n_max.

    The coset's points are counted by norm, each norm is read as a level,
    its excess over the minimal norm (an integer, since the lattice is even
    and lam is dual), and the level counts are multiplied by the rank-th
    power of the partition series.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    a = conformal_weight(lattice, lam)
    scale, counts = _norm_counts(lattice, lam, a + n_max)
    low = a.numerator * (scale // a.denominator)
    theta = [0] * (n_max + 1)
    for q, k in counts.items():
        level, rem = divmod(q - low, scale)
        if rem:
            raise ArithmeticError("norm layer not congruent to the minimal norm")
        theta[level] += k
    osc = labeled_partition_counts(lattice.rank, n_max)
    return [sum(theta[i] * osc[j - i] for i in range(j + 1)) for j in range(n_max + 1)]
