"""Exact scalars and a sparse echelon kernel over the rationals.

An exact scalar is a Python int when it is integral and a fractions.Fraction
otherwise; scalar() is the one normaliser, and it rejects float.  Keeping
integral values as int runs the common case (integer structure constants,
Wick weights) in C integer arithmetic, while a value with a denominator
stays exact.  Every division keeps a Fraction operand or is an exact
integer division, so no float can appear.  fractions is imported on the
first value with a denominator (a non-integral text or rational given to
scalar, or a reduced row or residual that has one), not with this module:
importing it loads decimal and numbers too, which an integral computation
never needs.

Vectors are sparse: dicts column -> exact scalar, zeros never stored
(sparse and dense convert from and to lists).  Linear algebra runs on one
kernel, Echelon: sparse rows kept in fully reduced row echelon form and
grown one row at a time, so a redundant spanning row costs one reduction and
is then dropped.  Echelon holds its rows as primitive integer vectors and
eliminates by integer cross-multiplication, so membership, rank and pivots
make no Fraction even when a pivot is not 1.  The pivot of a row is its
lowest nonzero column; a reduced echelon form with that rule is unique for
its row span, so the reduced bases it returns are canonical and
byte-reproducible whatever the order of the spanning vectors.  No floating
point is used anywhere.
"""

from __future__ import annotations

import re
from math import gcd, lcm

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


def _integral(row: dict):
    """(v, s): v the nonzero entries of a sparse row times s, the lcm of
    their denominators, so that every value of v is an int; a new dict."""
    denominators = [x.denominator for x in row.values() if type(x) is not int]
    if not denominators:
        return {j: x for j, x in row.items() if x}, 1
    s = lcm(*denominators)
    return {j: x.numerator * (s // x.denominator) for j, x in row.items() if x}, s


def quotient(x: int, s: int):
    """x / s for ints x and s > 0, as an exact scalar."""
    q, r = divmod(x, s)
    return (Fraction or _load_fraction())(x, s) if r else q


class Echelon:
    """Fully reduced row echelon form of a growing span of sparse rows,
    kept in integers.

    Each row is held as a primitive integer vector (its entries have gcd
    1), positive at its own pivot, 0 at every other pivot and 0 left of
    its pivot.  A row with denominators is scaled by their lcm as it
    enters; rows are eliminated by integer cross-multiplication and the
    content is divided out, after E. H. Bareiss (Math. Comp. 22, 1968).
    So add, contains, len and pivots never make a Fraction.

    A vector of the span that vanishes at every pivot but p is a multiple
    of the held row of p, so that row divided by its pivot value is the
    row of the reduced echelon form, which is unique for the span.  rows,
    basis and reduce return those reduced rows, 1 at the pivot: each is
    made as it is read, and none is kept.
    """

    def __init__(self, rows=()):
        self._rows: dict[int, dict] = {}  # pivot -> primitive integer row
        for row in rows:
            self.add(row)

    def __len__(self) -> int:
        return len(self._rows)

    @property
    def pivots(self):
        """The pivot columns, a live view in the order they were added."""
        return self._rows.keys()

    def _residual(self, row: dict):
        """(v, s): an int vector v and an int s > 0 with v / s the canonical
        residual of row.  Every held row r vanishes at the other pivots, so
        the residual is row minus (row[p] / r[p]) r over the pivots p that
        row meets, and one scale, the lcm of the denominators of those
        factors, makes every step integral."""
        v, s = _integral(row)
        rows = self._rows
        hits = [p for p in v if p in rows]
        scale = 1
        for p in hits:
            b = rows[p][p]
            if b != 1:
                scale = lcm(scale, b // gcd(v[p], b))
        if scale != 1:
            v = {j: x * scale for j, x in v.items()}
            s *= scale
        for p in hits:
            r = rows[p]
            c = v[p] // r[p]
            for j, y in r.items():
                x = v.get(j, 0) - c * y
                if x:
                    v[j] = x
                else:
                    del v[j]
        return v, s

    def contains(self, row: dict) -> bool:
        """Whether a sparse row lies in the span."""
        return not self._residual(row)[0]

    def reduce(self, row: dict) -> dict:
        """Canonical residual of a sparse row modulo the span, in exact
        scalars; empty iff the row lies in the span."""
        v, s = self._residual(row)
        return v if s == 1 else {j: quotient(x, s) for j, x in v.items()}

    def add(self, row: dict) -> bool:
        """Extend the span by a sparse row; False when it was already inside."""
        v, _ = self._residual(row)
        if not v:
            return False
        p = min(v)
        g = gcd(*v.values())
        if v[p] < 0:
            g = -g
        if g != 1:
            v = {j: x // g for j, x in v.items()}
        a = v[p]
        rows = self._rows
        for q, other in rows.items():
            c = other.get(p)
            if c is None:
                continue
            # a * other - c * v, divided by gcd(a, c), vanishes at p and
            # keeps the positive sign of other at q
            g = gcd(a, c)
            m, c = a // g, c // g
            new = {j: m * x for j, x in other.items()}
            for j, y in v.items():
                x = new.get(j, 0) - c * y
                if x:
                    new[j] = x
                else:
                    del new[j]
            g = gcd(*new.values())
            rows[q] = new if g == 1 else {j: x // g for j, x in new.items()}
        rows[p] = v
        return True

    def _reduced_row(self, p: int) -> dict:
        row = self._rows[p]
        b = row[p]
        return row if b == 1 else {j: quotient(x, b) for j, x in row.items()}

    @property
    def rows(self) -> dict:
        """{pivot: reduced row}, pivots in the order they were added; a row
        is 1 at its own pivot, 0 at every other pivot, and 0 left of its
        pivot."""
        return {p: self._reduced_row(p) for p in self._rows}

    def basis(self):
        """The sparse reduced rows in increasing pivot order."""
        return [self._reduced_row(p) for p in sorted(self._rows)]


def rref(rows):
    """Reduced row echelon form.

    Returns (reduced nonzero rows, pivot column indices).  The input is not
    modified.  The output is canonical for a given row span regardless of
    the order of the spanning vectors.
    """
    rows = list(rows)
    ncols = len(rows[0]) if rows else 0
    ech = Echelon(map(sparse, rows))
    return [dense(row, ncols) for row in ech.basis()], sorted(ech.pivots)


def reduce_vector(basis_rows, pivots, v):
    """Eliminate the pivot coordinates of v against a reduced basis: dense
    rows, each 1 at its own pivot and 0 at the others, as rref returns
    them with their pivots.  Echelon.reduce against the span of those
    rows, which fixes the pivots, as a dense vector."""
    return dense(Echelon(map(sparse, basis_rows)).reduce(sparse(v)), len(v))


def solvable(rows, n: int) -> bool:
    """Whether the system of solve_linear has a solution: its right-hand
    column n is not a pivot of the span of its rows."""
    return n not in Echelon(rows).pivots


def solve_linear(rows, n: int):
    """One exact solution x of A x = b as a sparse vector, or None when
    inconsistent.  Each sparse row holds a row of A in columns 0..n-1 and
    its entry of b in column n.

    Free variables are set to zero, so the returned solution is canonical.
    """
    ech = Echelon(rows)
    if n in ech.pivots:
        return None
    return {p: row[n] for p, row in ech.rows.items() if n in row}
