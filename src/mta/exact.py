"""Exact scalars and a sparse echelon kernel over the rationals.

An exact scalar is a Python int when it is integral and a fractions.Fraction
otherwise; scalar() is the one normaliser, and it rejects float.  Keeping
integral values as int runs the common case (integer structure constants,
Wick weights, unit pivots) in C integer arithmetic, while a value with a
denominator stays exact.  Every division keeps a Fraction operand, so no
float can appear.

Dense vectors are lists of exact scalars and matrices are lists of row
vectors.  Linear algebra runs on one kernel, Echelon: sparse rows
(dict column -> scalar, zeros never stored) kept in fully reduced row
echelon form and grown one row at a time, so a redundant spanning row costs
one reduction and is then dropped.  The pivot of a row is its lowest nonzero
column; a reduced echelon form with that rule is unique for its row span, so
reduced bases are canonical and byte-reproducible whatever the order of the
spanning vectors.  No floating point is used anywhere.
"""

from __future__ import annotations

from fractions import Fraction

F0 = 0
F1 = 1


def scalar(x):
    """x as an exact scalar: an int when integral, else a Fraction.

    Accepts ints, Fractions, other rationals and the text forms Fraction
    parses; raises TypeError on float, which would not be exact.
    """
    if type(x) is int:
        return x
    if isinstance(x, float):
        raise TypeError(f"float {x!r} is not an exact scalar")
    if type(x) is not Fraction:
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def frac_str(x) -> str:
    """Render an exact scalar as 'p' or 'p/q'."""
    return str(scalar(x))


def parse_frac(s: str):
    """Read 'p', 'p/q' or a decimal as an exact scalar.

    Exponent notation is refused: a few characters such as '1e10000000'
    would denote an integer of ten million digits.
    """
    if isinstance(s, str) and ("e" in s or "E" in s):
        raise ValueError(f"exponent notation is not accepted in an exact scalar: {s!r}")
    return scalar(s)


def fzeros(n: int) -> list[int]:
    return [F0] * n


def unit_vector(n: int, i: int) -> list[int]:
    v = [F0] * n
    v[i] = F1
    return v


def vec_is_zero(v) -> bool:
    return all(a == 0 for a in v)


def sparse(v) -> dict:
    """The nonzero coordinates of a dense vector, as exact scalars."""
    out = {}
    for j, x in enumerate(v):
        if x:
            out[j] = x if type(x) is int else scalar(x)
    return out


def dense(v: dict, n: int) -> list:
    """The length-n dense vector with the given nonzero coordinates."""
    out = [F0] * n
    for j, x in v.items():
        out[j] = x
    return out


def add_multiple(v: dict, c, row: dict) -> None:
    """v += c * row in place on sparse vectors, dropping entries that cancel
    and storing integral results as int; c must be nonzero."""
    for j, y in row.items():
        x = v.get(j)
        x = c * y if x is None else x + c * y
        if type(x) is not int and x.denominator == 1:
            x = x.numerator
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
        self.rows: dict[int, dict] = {}
        for row in rows:
            self.add(row)

    def __len__(self) -> int:
        return len(self.rows)

    def reduce(self, row: dict) -> dict:
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
            inv = Fraction(1, c)  # 1 / c on two ints would be a float
            v = {j: scalar(x * inv) for j, x in v.items()}
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
    v = list(map(scalar, v))
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
