"""Exact scalars and a sparse echelon kernel over the rationals.

Dense vectors are lists of fractions.Fraction and matrices are lists of row
vectors.  Linear algebra runs on one kernel, Echelon: sparse rows
(dict column -> Fraction, zeros never stored) kept in fully reduced row
echelon form and grown one row at a time, so a redundant spanning row costs
one reduction and is then dropped.  The pivot of a row is its lowest nonzero
column; a reduced echelon form with that rule is unique for its row span, so
reduced bases are canonical and byte-reproducible whatever the order of the
spanning vectors.  No floating point is used anywhere.
"""

from __future__ import annotations

from fractions import Fraction

F0 = Fraction(0)
F1 = Fraction(1)


def frac_str(x) -> str:
    """Render an exact scalar as 'p' or 'p/q'."""
    return str(Fraction(x))


def parse_frac(s: str) -> Fraction:
    return Fraction(s)


def fzeros(n: int) -> list[Fraction]:
    return [F0] * n


def unit_vector(n: int, i: int) -> list[Fraction]:
    v = [F0] * n
    v[i] = F1
    return v


def vec_is_zero(v) -> bool:
    return all(a == 0 for a in v)


def sparse(v) -> dict[int, Fraction]:
    """The nonzero coordinates of a dense vector."""
    out = {}
    for j, x in enumerate(v):
        if x:
            if type(x) is not Fraction:
                x = Fraction(x)
                if not x:
                    continue
            out[j] = x
    return out


def dense(v: dict, n: int) -> list[Fraction]:
    """The length-n dense vector with the given nonzero coordinates."""
    out = [F0] * n
    for j, x in v.items():
        out[j] = x
    return out


def add_multiple(v: dict, c, row: dict) -> None:
    """v += c * row in place on sparse vectors, dropping entries that cancel;
    c must be nonzero."""
    for j, y in row.items():
        x = v.get(j)
        if x is None:
            v[j] = c * y
        else:
            x += c * y
            if x:
                v[j] = x
            else:
                del v[j]


class Echelon:
    """Fully reduced row echelon form of a growing span of sparse rows.

    rows maps each pivot column to its row; a row is 1 at its own pivot,
    0 at every other pivot, and 0 left of its pivot.
    """

    def __init__(self, rows=()):
        self.rows: dict[int, dict[int, Fraction]] = {}
        for row in rows:
            self.add(row)

    def __len__(self) -> int:
        return len(self.rows)

    def reduce(self, row: dict) -> dict[int, Fraction]:
        """Canonical residual of a sparse row modulo the span; empty iff the
        row lies in the span."""
        v = {j: x for j, x in row.items() if x}
        rows = self.rows
        # stored rows vanish at every other pivot, so one pass suffices
        for p in [j for j in v if j in rows]:
            add_multiple(v, -v[p], rows[p])
        return v

    def add(self, row: dict) -> bool:
        """Extend the span by a sparse row; False when it was already inside."""
        v = self.reduce(row)
        if not v:
            return False
        p = min(v)
        c = v[p]
        if c != 1:
            inv = F1 / c
            v = {j: x * inv for j, x in v.items()}
        for other in self.rows.values():
            c = other.get(p)
            if c is not None:
                add_multiple(other, -c, v)
        self.rows[p] = v
        return True

    def basis(self):
        """The sparse reduced rows in increasing pivot order."""
        return [self.rows[p] for p in sorted(self.rows)]

    def dense(self, ncols: int):
        """(reduced rows as dense vectors, pivot columns), pivots ascending."""
        pivots = sorted(self.rows)
        return [dense(self.rows[p], ncols) for p in pivots], pivots


def rref(rows):
    """Reduced row echelon form.

    Returns (reduced nonzero rows, pivot column indices).  The input is not
    modified.  The output is canonical for a given row span regardless of
    the order of the spanning vectors.
    """
    rows = list(rows)
    ncols = len(rows[0]) if rows else 0
    return Echelon(map(sparse, rows)).dense(ncols)


def rank(rows) -> int:
    return len(Echelon(map(sparse, rows)))


def reduce_vector(basis_rows, pivots, v):
    """Eliminate the pivot coordinates of v against a reduced basis."""
    v = list(map(Fraction, v))
    for row, p in zip(basis_rows, pivots):
        c = v[p]
        if c != 0:
            v = [x - c * y for x, y in zip(v, row)]
    return v


def solve_linear(a_rows, b):
    """One exact solution x of A x = b, or None when inconsistent.

    Free variables are set to zero, so the returned solution is canonical.
    """
    m = len(a_rows)
    n = len(a_rows[0]) if m else 0
    ech = Echelon(sparse(list(a_rows[i]) + [b[i]]) for i in range(m))
    if n in ech.rows:
        return None
    x = [F0] * n
    for p, row in ech.rows.items():
        x[p] = row.get(n, F0)
    return x


def invert_matrix(m):
    """Exact inverse of a square matrix; None when singular."""
    n = len(m)
    ech = Echelon(sparse(list(m[i]) + unit_vector(n, i)) for i in range(n))
    if any(i not in ech.rows for i in range(n)):
        return None
    return [[ech.rows[i].get(n + j, F0) for j in range(n)] for i in range(n)]
