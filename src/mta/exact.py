"""Exact scalars and a sparse echelon kernel over the rationals.

An exact scalar is a Python int when it is integral and a fractions.Fraction
otherwise; scalar() is the one normaliser, and it rejects float.  Keeping
integral values as int runs the common case (integer structure constants,
Wick weights, unit pivots) in C integer arithmetic, while a value with a
denominator stays exact.  Every division keeps a Fraction operand, so no
float can appear.  fractions is imported on the first value with a
denominator (a non-integral text or rational given to scalar, or a division
by a pivot other than 1 in Echelon.add), not with this module: importing it
loads decimal and numbers too, which an integral computation never needs.

Vectors are sparse: dicts column -> exact scalar, zeros never stored
(sparse and dense convert from and to lists).  Linear algebra runs on one
kernel, Echelon: sparse rows kept in fully reduced row echelon form and
grown one row at a time, so a redundant spanning row costs one reduction and
is then dropped.  The pivot of a row is its lowest nonzero column; a reduced
echelon form with that rule is unique for its row span, so
reduced bases are canonical and byte-reproducible whatever the order of the
spanning vectors.  No floating point is used anywhere.
"""

from __future__ import annotations

import re

# fractions.Fraction once _load_fraction has run; a global, not an import in
# each function, so a hot call pays one global lookup
Fraction = None


def _load_fraction():
    """Bind and return fractions.Fraction."""
    global Fraction
    from fractions import Fraction

    return Fraction


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
        x = (Fraction or _load_fraction())(x)
    return x.numerator if x.denominator == 1 else x


def frac_str(x) -> str:
    """Render an exact scalar as 'p' or 'p/q'."""
    return str(scalar(x))


_INT_TEXT = re.compile(r"[+-]?[0-9]+")


def parse_frac(s: str):
    """Read 'p', 'p/q' or a decimal as an exact scalar.

    Exponent notation is refused: a few characters such as '1e10000000'
    would denote an integer of ten million digits.  Text that is ASCII
    [+-]?[0-9]+, the common case, goes straight to int(); every other
    form takes the Fraction path, so the value is the same either way.
    """
    if isinstance(s, str) and _INT_TEXT.fullmatch(s):
        return int(s)
    if isinstance(s, str) and ("e" in s or "E" in s):
        raise ValueError(f"exponent notation is not accepted in an exact scalar: {s!r}")
    return scalar(s)


def parse_int(text: str) -> int:
    """Read an integer written as ASCII [+-]?[0-9]+; raises ValueError on
    anything else, such as '8_0', non-ASCII digits or surrounding space,
    which int() would accept."""
    if not _INT_TEXT.fullmatch(text):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def strict_int(x) -> int:
    """x itself when it is an int, as an index or a size must be; raises
    TypeError on anything else (a float, a bool, a numeric string), which
    int() would truncate or convert."""
    if type(x) is not int:
        raise TypeError(f"expected an integer, got {x!r}")
    return x


def sparse(v) -> dict:
    """The nonzero coordinates of a dense vector, as exact scalars."""
    out = {}
    for j, x in enumerate(v):
        if x:
            out[j] = x if type(x) is int else scalar(x)
    return out


def dense(v: dict, n: int) -> list:
    """The length-n dense vector with the given nonzero coordinates."""
    out = [0] * n
    for j, x in v.items():
        out[j] = x
    return out


def add_multiple(v: dict, c, row: dict) -> None:
    """v += c * row in place on sparse vectors, dropping entries that cancel
    and storing integral results as int."""
    for j, y in row.items():
        x = v.get(j)
        x = c * y if x is None else x + c * y
        if type(x) is not int and x.denominator == 1:
            x = x.numerator
        if x:
            v[j] = x
        else:
            v.pop(j, None)


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
            inv = (Fraction or _load_fraction())(1, c)  # 1 / c on two ints would be a float
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


def rref(rows):
    """Reduced row echelon form.

    Returns (reduced nonzero rows, pivot column indices).  The input is not
    modified.  The output is canonical for a given row span regardless of
    the order of the spanning vectors.
    """
    rows = list(rows)
    ncols = len(rows[0]) if rows else 0
    ech = Echelon(map(sparse, rows))
    return [dense(row, ncols) for row in ech.basis()], sorted(ech.rows)


def reduce_vector(basis_rows, pivots, v):
    """Eliminate the pivot coordinates of v against a reduced basis: dense
    rows, each 1 at its own pivot and 0 at the others, as rref returns
    them.  Echelon.reduce on those rows, as a dense vector."""
    ech = Echelon()
    ech.rows = {p: sparse(row) for row, p in zip(basis_rows, pivots)}
    return dense(ech.reduce(sparse(v)), len(v))


def solve_linear(rows, n: int):
    """One exact solution x of A x = b as a sparse vector, or None when
    inconsistent.  Each sparse row holds a row of A in columns 0..n-1 and
    its entry of b in column n.

    Free variables are set to zero, so the returned solution is canonical.
    """
    ech = Echelon(rows)
    if n in ech.rows:
        return None
    return {p: row[n] for p, row in ech.rows.items() if n in row}
