"""Finite-dimensional bigraded corner algebras over exact rationals.

An algebra here is a (D+1)x(D+1) grid of components; the product couples
component (i,j) with component (j,k) into component (i,k) through structure
constants, and products with mismatched inner index vanish identically.  The
corner component (0,0) is the unital base algebra A.  This module provides:

  * an exhaustive axiom validator, the one place the axioms are checked
    (corner unit, unital corner actions on the edge components,
    associativity, and bijectivity of the balanced product map
    component(d,0) (x)_A component(0,d) -> component(d,d)),
  * balanced tensor products of finite-dimensional module presentations,
    each held, as every algebra here is, as a product table, so a component
    module is its component's own table,
  * the degree-d zig-zag algebra component(0,d) (x)_{component(d,d)}
    component(d,0) of a validated algebra, with its product and reduction to A,
  * search for the degree-d strong identity, i.e. the element of
    component(d,d) that acts as the identity on component(0,d) from the
    right and on component(d,0) from the left,
  * central-idempotent splitting along a unital ideal of A,
  * the inverse pair of functors exchanging degree-d modules with modules
    over the degree-d corner ideal of A,
  * two families of concrete models, built by one matrix-unit builder:
    component (i,j) holds the matrix units E_rc of each block, and
    E_rc E_st = <c, s> E_rt for a pairing <,> of the level-j units.  The
    identity pairing gives block matrix algebras; the Wick pairing of
    weight-j monomials, evaluated exactly at a rational point of the zero
    modes, gives truncations of the free-boson mode algebra.

Two shortcuts rest on a generating set S of basis elements (_generators).
Associativity is checked by Light's test (Clifford and Preston, The
Algebraic Theory of Semigroups I, 1961, section 1.2): the elements s with
(x s) y = x (s y) for all x, y form a subspace closed under products, since
for a, b in it (x(ab))y = ((xa)b)y = (xa)(by) = x(a(by)) = x((ab)y), so it
is enough that every s in S passes.  The argument uses no unit and no
associativity, so the test is exact on any algebra, and every algebra here
is checked by it: the components of p for the validator, zigzag and the
Morita functors, and the algebra of Algebra.is_associative, such as a
zig-zag algebra.  When a generator fails, the check runs again over every
middle factor and names the first failing triple.  Each of these runs is
one call of one kernel, _first_nonassociative, over the quadruples of
components it concerns, and so is the descent of the product map
component(d,0) (x)_A component(0,d) -> component(d,d): the map sends the
balancing relation R_b(u, v) = (u b) (x) v - u (x) (b v) to (ub)v - u(bv),
and it is linear, so it kills the span of the relations iff every basis
triple of components (d,0), (0,0), (0,d) associates.  Once associativity
holds the map descends at every degree.  Every such check is one call of
_first_failure, which runs the generators and the kernel on the tables
scaled to ints by the common denominator of their structure constants:
both sides of (ab)c = a(bc) scale alike, so every verdict and every
failing triple is the same as in Fractions.
The module axiom (x s).w = x.(s.w) of a module presentation given from
outside is checked the same way, on generators s of an associative B: the
s that satisfy it for all x and w form a subspace closed under products,
since for s, s' in it
(x(ss')).w = ((xs)s').w = (xs).(s'.w) = x.(s.(s'.w)) = x.((ss').w).

The Morita context gives an explicit inverse of each product map, and
with it a quotient M (x)_B N is read off in the map's target instead of
being reduced by its balancing relations R.  Let phi be a linear map on
the plain tensors with phi(R) = 0, and psi a linear map back with
psi(phi(m (x) n)) = m (x) n modulo R for every pure tensor.  Then the
kernel of phi is exactly R.  So f is a pivot of the reduced relations
(pivot = lowest column) iff e_f lies in R + span(e_j : j > f), iff
phi(e_f) lies in span(phi(e_j) : j > f): the free columns are the f where
phi(e_f) is independent of every later phi(e_j), and the canonical residual
of x is sum_f c_f e_f over them, where phi(x) = sum_f c_f phi(e_f).  Each
use needs p associative (then phi kills R) and one element e:

  * the edge quotients (_edge_quotient), validate_peirce at (x, y) =
    (d, 0) and zigzag at (0, d): M = component(x,y), N = component(y,x),
    B = component(y,y), phi(m (x) n) = mn.  For e = sum_i v_i u_i in the
    span of the products, a left identity on component(x,y),
    psi(z) = sum_i v_i (x) u_i z gives sum_i v_i (u_i m) (x) n
    = e m (x) n = m (x) n, as u_i m lies in B.  The quotient is then the
    image of phi, and at (d, 0) the product map is bijective iff the
    quotient has dimension dims[d][d].
  * the Morita functors (_functor), (x, y) = (0, d) forward and (d, 0)
    backward: M = component(x,y), N = W a left module over
    B = component(y,y), phi(m (x) w) = (s -> (sm).w), one copy of W per s
    in a set S of basis elements of component(y,x) with e = sum_i m_i s_i,
    s_i in S (_spanning_slots).  When e is a left identity on
    component(x,y), psi(g) = sum_i m_i (x) g(s_i) gives
    sum_i m_i (s_i m) (x) w = e m (x) w = m (x) w.  Forward, e is eps, the
    unit of Z_d; backward, e is the strong identity and W is a module W0
    over Z_d extended to A through a -> eps a.  phi kills R when W is
    honest: (s(mb)).w = (sm).(b.w).  The extended W0 is honest iff W0 is,
    as eps is central, so (ab).w and a.(b.w) both act as eps a eps b =
    eps ab; and the forward module of any W is honest.

Each certificate is exact and only sufficient: when one fails, the
balancing relations are built and reduced as before, so every result is
the same either way.
"""

from __future__ import annotations

import itertools
from math import lcm
from operator import itemgetter

from .exact import (
    Echelon,
    add_multiple,
    dense,
    frac_str,
    parse_frac,
    quotient,
    scalar,
    solvable,
    solve_linear,
    sparse,
    strict_int,
)


class Subspace:
    """Subspace of a component's coordinate space, held in reduced echelon
    form so equal subspaces compare equal.  Vectors are sparse: basis lists
    the reduced rows, pivots ascending."""

    def __init__(self, component, ambient_dim: int, vectors=()):
        self.component = component
        self.ambient_dim = ambient_dim
        self._echelon = Echelon()
        for v in vectors:
            if any(not 0 <= j < ambient_dim for j in v):
                raise ValueError("spanning vector leaves the ambient space")
            self._echelon.add(v)
        self.basis = self._echelon.basis()
        self.pivots = sorted(self._echelon.pivots)
        self._slot = {p: s for s, p in enumerate(self.pivots)}

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, v: dict) -> bool:
        return self._echelon.contains(v)

    def coords_of(self, v: dict):
        """Sparse coordinates of v in the reduced basis; None when v is
        outside."""
        return self._coords(v) if self.contains(v) else None

    def _coords(self, v: dict) -> dict:
        """coords_of a v known to lie inside, read at the pivots."""
        slot = self._slot
        return {slot[p]: scalar(v[p]) for p in sorted(v) if p in slot and v[p]}

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.component == other.component
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __repr__(self) -> str:
        return f"Subspace(component={self.component}, dim={self.dim}/{self.ambient_dim})"


class Algebra:
    """Plain structure-constant algebra: cells[(x, y)] is the sparse product
    {t: coeff} of basis elements x and y, and a missing pair multiplies to
    zero; the cells may be a PeirceAlgebra product table, so they are read
    only."""

    def __init__(self, dim: int, cells: dict):
        self.dim = dim
        self.cells = cells

    def is_associative(self) -> bool:
        """Light's test (module docstring), as for every algebra here."""
        return _first_failure({(0, 0, 0): self.cells}, [(0, 0, 0, 0)], [[self.dim]], [(0, 0)]) is None


def _map_constants(tables: dict, f) -> None:
    """Replace each structure constant x of product tables by f(x) in
    place, once per cell object, as a cell may be shared across tables."""
    seen = set()
    for table in tables.values():
        for cell in table.values():
            if id(cell) not in seen:
                seen.add(id(cell))
                for c, x in cell.items():
                    cell[c] = f(x)


# A scaled constant is as long as the common denominator, while a Fraction
# sum stays near the length of the denominators it meets.  On a dense dims
# [[8]] corner the full associativity scan took 0.5 s in Fractions, and
# 0.17 s in ints with 20-digit denominators and a 1 014-bit common
# denominator, 1.2 s at 3 875 bits (0.17 and 0.52 s at 1 322 and 2 633
# bits with 100-digit denominators), so a longer one stays in Fractions.
_MAX_SCALE_BITS = 1024


def _first_failure(tables: dict, quads, dims=None, components=None):
    """_first_nonassociative over the given quadruples, every middle
    factor checked, or, given dims and components, only the middle factors
    that _generators(tables, dims, components) keeps (Light's test).

    Both run with every structure constant of tables times s, the lcm of
    their denominators, so in ints; the constants are scaled in place and
    restored after, so no second copy of the tables is held.  An s of 1
    changes nothing, and one over _MAX_SCALE_BITS bits is not applied.
    (ab)c and a(bc) both scale by s**2, so the kernel returns the same on
    the scaled tables, and the products of the generators span the same
    spaces, so the same generators are kept."""
    s = lcm(
        *{
            x.denominator
            for table in tables.values()
            for cell in table.values()
            for x in cell.values()
            if type(x) is not int
        }
    )
    scaled = s != 1 and s.bit_length() <= _MAX_SCALE_BITS
    if scaled:
        _map_constants(tables, lambda x: x.numerator * (s // x.denominator))
    try:
        middle = None if dims is None else _generators(tables, dims, components)
        return _first_nonassociative(tables, quads, middle)
    finally:
        if scaled:
            _map_constants(tables, lambda x: quotient(x, s))


def _bilinear(table: dict, x: dict, y: dict) -> dict:
    """The sparse product of sparse vectors x and y through the product
    table {(a, b): cell}, a missing pair contributing zero."""
    out: dict = {}
    for a, ca in x.items():
        for b, cb in y.items():
            cell = table.get((a, b))
            if cell:
                add_multiple(out, ca * cb, cell)
    return out


def _by_factor(table: dict, pos: int) -> dict:
    """A product table {(u, v): cell} grouped as {u: {v: cell}} (pos 0) or
    as {v: {u: cell}} (pos 1)."""
    out: dict = {}
    for key, cell in table.items():
        out.setdefault(key[pos], {})[key[1 - pos]] = cell
    return out


def _quadruples(tables: dict, max_degree: int):
    """The (i, j, k, l) with table (i,j,k) or table (j,k,l) present, in
    sorted order: on every other quadruple (ab)c and a(bc) are both zero,
    so a scan over these finds the first failure of a scan over all of
    them.  At most 2 (D+1) per table, however large D is; made one (i, j)
    at a time."""
    r = range(max_degree + 1)
    ks: dict = {}  # (i, j) -> [k with table (i,j,k)]
    kls: dict = {}  # j -> [(k, l) with table (j,k,l)]
    for x, y, z in tables:
        ks.setdefault((x, y), []).append(z)
        kls.setdefault(x, []).append((y, z))
    for i in r:
        for j in r:
            block = {(k, l) for k in ks.get((i, j), ()) for l in r}
            block.update(kls.get(j, ()))
            for k, l in sorted(block):
                yield i, j, k, l


def _first_nonassociative(tables: dict, quads, middle=None):
    """The first (i, j, k, l, a, b, c) with (ab)c != a(bc), over the given
    quadruples (i, j, k, l) in their order and each one's triples in
    (a, b, c) order, or None.

    tables maps (i, j, k) to the product table {(a, b): cell} of component
    (i,j) by component (j,k); a missing table or pair multiplies to zero.
    Both trilinear tensors are built from the stored cells only, and a
    triple missing from both sides is zero on both, so every basis triple
    is checked.  middle, when given, maps (j, k) to the basis elements b of
    component (j,k) to check, a generating set for Light's test (see the
    module docstring); a component it leaves out is not checked.  Both
    tensors are held for one middle element b at a time, and a quadruple's
    failure is the smallest failing triple over all its b.

    A table's keys are grouped by factor when a quadruple first needs
    them, so the cost follows the quadruples given, and a grouping is kept
    only for the quadruples that read it: tables (i,j,.) grouped by their
    second factor until (i, j) changes, tables (i,.,.) grouped by their
    first factor until i changes, and the rows of (j,k,l) of the middle
    elements of (j,k) alone for the whole scan.  Given in sorted order, as
    _quadruples gives them, each table is grouped once per block.  A
    quadruple whose (j,k) has no middle element is skipped.
    """
    none: dict = {}
    block = None
    by_second: dict = {}  # (i,j,k) -> {b: [(a, b), ...]}, for the current (i, j)
    by_first: dict = {}  # (i,k,l) -> {x: [(x, c), ...]}, for the current i
    rows: dict = {}  # (j,k,l) -> {b: [(b, c), ...]}, b in middle[(j, k)] only
    kept = None if middle is None else {jk: set(bs) for jk, bs in middle.items()}

    def group(memo, ijk, pos, keep=None):
        # {factor: [key, ...]}: lists of the keys the table holds already
        # cost far less than dicts of its cells
        grouped = memo.get(ijk)
        if grouped is None:
            grouped = memo[ijk] = {}
            for key in tables.get(ijk, none):
                if keep is None or key[pos] in keep:
                    grouped.setdefault(key[pos], []).append(key)
        return grouped

    for i, j, k, l in quads:
        if kept is not None and not kept.get((j, k)):
            continue  # no middle element to check
        if block != (i, j):
            if block is None or block[0] != i:
                by_first = {}
            block, by_second = (i, j), {}
        ab = group(by_second, (i, j, k), 1)
        ay = group(by_second, (i, j, l), 1)
        xc = group(by_first, (i, k, l), 0)
        bc = group(rows, (j, k, l), 0, None if kept is None else kept[(j, k)])
        t_ijk, t_ikl = tables.get((i, j, k), none), tables.get((i, k, l), none)
        t_jkl, t_ijl = tables.get((j, k, l), none), tables.get((i, j, l), none)
        first = None
        for b in (ab.keys() | bc.keys()) if middle is None else middle.get((j, k), ()):
            left: dict = {}  # {(a, c): (ab)c} for this b
            right: dict = {}  # {(a, c): a(bc)}
            for ab_key in ab.get(b, ()):
                a = ab_key[0]
                for x, cx in t_ijk[ab_key].items():
                    for xc_key in xc.get(x, ()):
                        add_multiple(left.setdefault((a, xc_key[1]), {}), cx, t_ikl[xc_key])
            for bc_key in bc.get(b, ()):
                c = bc_key[1]
                for y, cy in t_jkl[bc_key].items():
                    for ay_key in ay.get(y, ()):
                        add_multiple(right.setdefault((ay_key[0], c), {}), cy, t_ijl[ay_key])
            bad = [t for t in left.keys() | right.keys() if left.get(t, none) != right.get(t, none)]
            if bad:
                a, c = min(bad)
                first = min(first or (a, b, c), (a, b, c))
        if first:
            return (i, j, k, l, *first)
    return None


class ModuleRep:
    """Module presented by its product table, as an Algebra is.

    On side='left' table[(b, w)] is the sparse image b.e_w of module basis
    element w under algebra basis element b; on side='right' table[(w, b)]
    is e_w.b.  A missing pair maps to zero.  The table may be a PeirceAlgebra
    product table, so it is read only.
    """

    def __init__(self, algebra: Algebra, dim: int, table: dict, side: str = "left"):
        self.algebra = algebra
        self.dim = dim
        self.table = table
        self.side = side
        if self.side not in ("left", "right"):
            raise ValueError("side must be 'left' or 'right'")
        b_pos = 0 if side == "left" else 1
        for key, img in table.items():
            b, w = key[b_pos], key[1 - b_pos]
            if not 0 <= b < algebra.dim or any(not 0 <= j < dim for j in (w, *img)):
                raise ValueError("action map has wrong shape")

    def apply(self, x: dict, w: dict) -> dict:
        """The sparse image of module vector w under algebra element x."""
        if self.side == "left":
            return _bilinear(self.table, x, w)
        return _bilinear(self.table, w, x)


class TensorQuotient:
    """Quotient of a plain tensor product of coordinate spaces by balancing
    relations, with a canonical projection and pure-tensor lifts.

    Ambient vectors are sparse dicts keyed by u * dim_right + v for the pure
    tensor e_u (x) e_v.  The quotient coordinates are the free (non-pivot)
    columns of the reduced relations, and a vector projects to its
    canonical residual read off on those columns, as a sparse vector of
    quotient coordinates.

    The relations are held in an Echelon, or, when a certificate shows that
    a map phi kills exactly the relations (module docstring), not at all:
    images[f] is then phi(e_f), target_dim bounds its keys, relations is
    None, and the inverse that project reads is built on the first call.
    """

    def __init__(
        self, dim_left: int, dim_right: int, relations: Echelon | None, images=None, target_dim=0
    ):
        self.dim_left = dim_left
        self.dim_right = dim_right
        self.ambient_dim = dim_left * dim_right
        self.relations = relations
        self._images = images
        self._target_dim = target_dim
        self._inverse = None
        if relations is not None:
            pivots = relations.pivots
            self.free = [i for i in range(self.ambient_dim) if i not in pivots]
        else:
            self.free = _image_basis(images)
        self._coord = {f: q for q, f in enumerate(self.free)}

    @property
    def dim(self) -> int:
        return len(self.free)

    def project(self, ambient_vec: dict) -> dict:
        coord = self._coord
        if self.relations is not None:
            # the residual vanishes at every pivot, so each key is free
            return {coord[f]: x for f, x in self.relations.reduce(ambient_vec).items()}
        # phi(x) lies in the span of the phi(e_f), f free: its coordinates
        # there are read off at the pivots of that span (see _image_inverse)
        if self._inverse is None:
            self._inverse = _image_inverse(self._images, self.free, self._target_dim)
        image: dict = {}
        for f, x in ambient_vec.items():
            if f in self._images:
                add_multiple(image, x, self._images[f])
        out: dict = {}
        for t, y in image.items():
            if t in self._inverse:
                add_multiple(out, y, self._inverse[t])
        return {coord[f]: out[f] for f in sorted(out)}

    def project_tensor(self, x: dict, y: dict):
        """project of x (x) y, for sparse coordinate vectors x of the left
        factor and y of the right factor."""
        n = self.dim_right
        return self.project({u * n + v: cu * cv for u, cu in x.items() for v, cv in y.items()})

    def lift_pair(self, q: int) -> tuple[int, int]:
        """The pure tensor basis pair representing quotient coordinate q."""
        return divmod(self.free[q], self.dim_right)


def _image_basis(images: dict) -> list:
    """The free columns, ascending, of a TensorQuotient read through phi,
    images[f] being phi(e_f): f is free when phi(e_f) is independent of
    every phi(e_j) with j > f."""
    span = Echelon()
    free = [f for f in sorted(images, reverse=True) if span.add(images[f])]
    free.reverse()
    return free


def _image_inverse(images: dict, free: list, target_dim: int) -> dict:
    """{t: {f: c}}: y = sum_f c_f phi(e_f) over the free f has c_f = sum
    over the pivots t of y[t] inverse[t][f], for images[f] = phi(e_f) with
    keys below target_dim.  The rows phi(e_f) + e_(target_dim + f) over
    free f are independent below target_dim, so in reduced echelon form
    their pivots lie there, and inverse[t][f] is entry target_dim + f of
    the row of t."""
    tagged = Echelon({**images[f], target_dim + f: 1} for f in free)
    return {
        t: {j - target_dim: x for j, x in row.items() if j >= target_dim}
        for t, row in tagged.rows.items()
    }


def _left_action(q: TensorQuotient, n: int, act) -> dict:
    """{(t, qq): image}, t < n, of t acting on the quotient q through its
    left factor: t sends the pure tensor e_u (x) e_w to act(t, u) (x) e_w,
    act(t, u) being a sparse vector of the left factor; zero images are
    left out, and the keys come in (t, qq) order.

    The quotient basis runs in (u, w) order, so act(t, u) is made once per
    t and u, and a zero one is projected not at all."""
    pairs = [q.lift_pair(qq) for qq in range(q.dim)]
    table = {}
    for t in range(n):
        last = None
        for qq, (u, w) in enumerate(pairs):
            if u != last:
                last, x = u, act(t, u)
            if x and (img := q.project_tensor(x, {w: 1})):
                table[(t, qq)] = img
    return table


def _spanning_slots(table: dict, x: dict):
    """The slots y, ascending, that a greedy pass keeps until x lies in the
    span of the cells table[(t, y)] of the kept y; None when x lies outside
    the span of every cell."""
    span = Echelon()
    slots = []
    for y, cells in sorted(_by_factor(table, 1).items()):
        if span.contains(x):
            break
        grew = [span.add(cell) for cell in cells.values()]
        if any(grew):
            slots.append(y)
    return slots if span.contains(x) else None


def _action_images(pairs: dict, slots: list, w_mod: ModuleRep) -> dict:
    """{x * n + w: phi(e_x (x) e_w)} over nonzero images, where n = w_mod.dim,
    phi(e_x (x) e_w) = (s -> (e_s e_x).e_w) over the given slots s, the i-th
    slot a copy of the left module w_mod at keys i * n, and pairs is the
    product table {(s, x): e_s e_x}."""
    n = w_mod.dim
    at = {s: i * n for i, s in enumerate(slots)}
    by_element = _by_factor(w_mod.table, 0)  # {b: {w: b.e_w}}
    images: dict = {}
    none: dict = {}
    for (s, x), cell in pairs.items():
        if s not in at:
            continue
        for b, c in cell.items():
            for w, img in by_element.get(b, none).items():
                add_multiple(images.setdefault(x * n + w, {}), c, {at[s] + t: y for t, y in img.items()})
    return {f: v for f, v in images.items() if v}


def _require_same_algebra(m_rep: ModuleRep, n_rep: ModuleRep) -> None:
    if m_rep.algebra.dim != n_rep.algebra.dim or m_rep.algebra.cells != n_rep.algebra.cells:
        raise ValueError("modules are not over the same algebra")


def balanced_tensor(m_rep: ModuleRep, n_rep: ModuleRep) -> TensorQuotient:
    """M (x)_B N for a right module M and a left module N over the same B.

    Relations are R_b(u, v) = (e_u.b) (x) e_v - e_u (x) (b.e_v) for every
    basis element b of B and every basis pair (u, v); each is reduced as it
    is made and dropped when it lies in the span so far, and one whose two
    action columns are both empty is zero and is skipped.
    """
    if m_rep.side != "right" or n_rep.side != "left":
        raise ValueError("need a right module and a left module")
    _require_same_algebra(m_rep, n_rep)
    m, n = m_rep.dim, n_rep.dim
    relations = Echelon()
    none: dict = {}
    for b in range(m_rep.algebra.dim):
        for u in range(m):
            m_col = m_rep.table.get((u, b), none)
            for v in range(n):
                n_col = n_rep.table.get((b, v), none)
                if not m_col and not n_col:
                    continue
                rel = {p * n + v: x for p, x in m_col.items()}
                for q, y in n_col.items():
                    rel[u * n + q] = rel.get(u * n + q, 0) - y
                relations.add(rel)
    return TensorQuotient(m, n, relations)


class PeirceAlgebra:
    """Structure-constant presentation of a bigraded corner algebra.

    dims[i][j] is the dimension of component (i,j) for 0 <= i,j <= D; the
    sparse entry list carries (i, j, k, a, b, c, coeff) meaning that basis
    element a of component (i,j) times basis element b of component (j,k)
    contains basis element c of component (i,k) with the given coefficient.
    unit0 holds the coordinates of the unit of the corner component (0,0).
    Coefficients and unit0 are stored as exact scalars (see exact.scalar);
    max_degree, dims and the six indices of an entry must be ints.

    The product tables _prod[(i, j, k)] = {(a, b): cell} are read only:
    equal one-term cells {c: v} are one object, shared across tables, so a
    cell written in place would change every product that shares it.  Equal
    keys (a, b) are one object across tables too.  Both are shared as the
    entries are stored: the first term of a cell takes the shared {c: v},
    and a later term copies it before writing, so no unshared copy of the
    tables is ever built.
    """

    def __init__(self, max_degree: int, dims, entries, unit0):
        if strict_int(max_degree) < 0:
            raise ValueError("max_degree must be nonnegative")
        self.max_degree = max_degree
        self.dims = [[strict_int(x) for x in row] for row in dims]
        if len(self.dims) != max_degree + 1 or any(
            len(row) != max_degree + 1 for row in self.dims
        ):
            raise ValueError("dims must be a (D+1) x (D+1) grid")
        if any(x < 0 for row in self.dims for x in row):
            raise ValueError("dims must be nonnegative")
        self._prod: dict[tuple[int, int, int], dict[tuple[int, int], dict]] = {}
        # equal one-term cells {c: v} and equal (a, b) keys are one object
        # each, shared as they are stored; wider cells stay apart, as keying
        # them by their items costs more than sharing them saves
        terms: dict = {}  # (c, v) -> the shared cell {c: v}
        keys: dict = {}  # (a, b) -> the shared key
        for *index, coeff in entries:
            i, j, k, a, b, c = map(strict_int, index)
            if not (0 <= i <= max_degree and 0 <= j <= max_degree and 0 <= k <= max_degree):
                raise ValueError(f"component index out of range in entry {(i, j, k)}")
            if not (0 <= a < self.dims[i][j] and 0 <= b < self.dims[j][k] and 0 <= c < self.dims[i][k]):
                raise ValueError(f"basis index out of range in entry {(i, j, k, a, b, c)}")
            coeff = scalar(coeff)
            if not coeff:
                continue
            table = self._prod.setdefault((i, j, k), {})
            cell = table.get((a, b))
            if cell is None:
                # the first term takes the shared one-term cell
                cell = terms.get((c, coeff))
                if cell is None:
                    cell = terms[(c, coeff)] = {c: coeff}
                table[keys.setdefault((a, b), (a, b))] = cell
                continue
            if len(cell) == 1:
                cell = table[(a, b)] = dict(cell)  # a shared cell is copied before it is written
            add_multiple(cell, coeff, {c: 1})
            if len(cell) == 1:
                table[(a, b)] = terms.setdefault(next(iter(cell.items())), cell)
        self.unit0 = [scalar(x) for x in unit0]
        if len(self.unit0) != self.dims[0][0]:
            raise ValueError("unit0 has wrong length")
        self.block_dims = None  # set by matrix_model
        self._associative = None  # set by _associative, which runs Light's test once

    def mul(self, i: int, j: int, k: int, x, y):
        """Bilinear product component(i,j) x component(j,k) -> component(i,k)
        on dense coordinate lists."""
        return dense(self.product(i, j, k, sparse(x), sparse(y)), self.dims[i][k])

    def product(self, i: int, j: int, k: int, x: dict, y: dict) -> dict:
        """mul on sparse coordinate dicts."""
        table = self._prod.get((i, j, k))
        return _bilinear(table, x, y) if table else {}

    def cell(self, i, j, k, a, b) -> dict:
        """Sparse product of basis element a of (i,j) and b of (j,k); read only."""
        return self._prod.get((i, j, k), {}).get((a, b), {})

    def mul_basis(self, i, j, k, a, b):
        """cell as a dense coordinate list."""
        return dense(self.cell(i, j, k, a, b), self.dims[i][k])

    def entries(self):
        """Deterministically ordered sparse entry list."""
        out = []
        for (i, j, k) in sorted(self._prod):
            table = self._prod[(i, j, k)]
            for (a, b) in sorted(table):
                for c in sorted(table[(a, b)]):
                    out.append((i, j, k, a, b, c, table[(a, b)][c]))
        return out

    def diagonal_algebra(self, d: int) -> Algebra:
        """component(d,d) as an Algebra; d = 0 gives the corner."""
        return Algebra(dim=self.dims[d][d], cells=self._prod.get((d, d, d), {}))

    def to_json_dict(self) -> dict:
        return {
            "max_degree": self.max_degree,
            "dims": [list(row) for row in self.dims],
            "products": [
                {"i": i, "j": j, "k": k, "a": a, "b": b, "c": c, "coeff": frac_str(v)}
                for (i, j, k, a, b, c, v) in self.entries()
            ],
            "unit0": [frac_str(x) for x in self.unit0],
        }

    @classmethod
    def from_json_dict(cls, data) -> "PeirceAlgebra":
        """The algebra of a to_json_dict dict, which is left as it is.
        Products are read one at a time as the constructor stores them, with
        no list of entries."""
        products = data["products"]
        read = itemgetter(*_ENTRY_KEYS)

        def entry(e):
            *index, coeff = read(e)
            return (*index, parse_frac(coeff))

        try:
            return cls(
                data["max_degree"],
                data["dims"],
                map(entry, products),
                [parse_frac(x) for x in data["unit0"]],
            )
        except (KeyError, TypeError, ValueError, ZeroDivisionError):
            # a file with several faults names an unreadable product first,
            # as when every product was read before anything else
            for e in products:
                entry(e)
            raise


# the keys of a product object of an algebra file, in the order it is written
_ENTRY_KEYS = ("i", "j", "k", "a", "b", "c", "coeff")


def _digits(x) -> int:
    """Digits in one coefficient or unit0 value of an algebra file, as it
    is written there."""
    return sum(map(str.isdigit, str(x)))


class _Tally:
    """The sizes of an algebra file, fed the (i, j, k, a, b, c, coeff) of
    each product as written, by the stream and the whole read alike.
    sizes(unit0) is (products, work, the most digits in one coefficient or
    unit0 value), work the multiply-adds of _first_nonassociative with no
    middle: it chains the output x = (i, k, c) of each product to every
    product with x as left factor, for (ab)c, or as right factor, for
    a(bc), so it sums outputs times factors over x."""

    def __init__(self):
        self.digits = 0
        # dicts, as a Counter counts slower: its __missing__ runs in Python
        self._outputs, self._factors = {}, {}

    def add(self, entry) -> None:
        i, j, k, a, b, c, coeff = entry
        outputs, factors = self._outputs, self._factors
        outputs[i, k, c] = outputs.get((i, k, c), 0) + 1
        factors[i, j, a] = factors.get((i, j, a), 0) + 1
        factors[j, k, b] = factors.get((j, k, b), 0) + 1
        if type(coeff) is not str or len(coeff) > self.digits:
            self.digits = max(self.digits, _digits(coeff))

    def sizes(self, unit0) -> tuple:
        products = sum(self._outputs.values())  # one output each
        work = sum(n * self._factors.get(key, 0) for key, n in self._outputs.items())
        return products, work, max([self.digits, *map(_digits, unit0)])


def _file_sizes(data) -> tuple:
    """(dims, products, work, digits) of an algebra file read whole: its
    dims as ints and _Tally's sizes, each product dict fed to it as the
    stream feeds a streamed one.  KeyError, TypeError, ValueError or
    IndexError on a malformed file."""
    dims = [[strict_int(x) for x in row] for row in data["dims"]]
    tally = _Tally()
    for entry in map(itemgetter(*_ENTRY_KEYS), data["products"]):
        tally.add(entry)
    return dims, *tally.sizes(data["unit0"])


# characters of an algebra file _stream_algebra reads at a time
_CHUNK = 8192
_TOP_KEYS = ("max_degree", "dims", "products", "unit0")


class _NotStreamed(Exception):
    """Raised inside _stream_algebra on text it does not take."""


class _Chunks:
    """The text of a file open as text, read _CHUNK characters at a time;
    what is read and not yet taken is text[pos:]."""

    def __init__(self, fh):
        from json import JSONDecoder
        from json.decoder import WHITESPACE

        self._fh = fh
        # json.load's own scanner: (value, end) of the value at an index,
        # StopIteration when none starts there
        self._scan = JSONDecoder().scan_once
        self._space = WHITESPACE.match
        self.text = ""
        self.pos = 0

    def _read(self, size: int = 0) -> bool:
        """Read max(size, _CHUNK) more characters; False at the end of the
        file.  The text taken is dropped first, so the old text, the chunk
        and the joined text are never held together."""
        self.text = self.text[self.pos :]
        self.pos = 0
        chunk = self._fh.read(max(size, _CHUNK))
        self.text += chunk
        return bool(chunk)

    def peek(self) -> str:
        """The next character past JSON whitespace, not taken; "" at the end
        of the file."""
        while True:
            self.pos = self._space(self.text, self.pos).end()
            if self.pos < len(self.text):
                return self.text[self.pos]
            if not self._read():
                return ""

    def take(self) -> str:
        """peek, and the character taken."""
        c = self.text[self.pos : self.pos + 1]
        if not c or c in " \t\n\r":
            c = self.peek()
        self.pos += len(c)
        return c

    def value(self):
        """The next JSON value, decoded as json.load decodes it.  A value
        that fails to decode, or ends where the text read ends (a number
        may go on), is decoded again once as much text again as it has so
        far is read, so a value costs time linear in its length whatever
        the chunks it spans."""
        while True:
            self.pos = self._space(self.text, self.pos).end()
            try:
                value, end = self._scan(self.text, self.pos)
            except (StopIteration, ValueError):
                end = None
            if end is not None and end < len(self.text):
                self.pos = end
                return value
            if not self._read(len(self.text) - self.pos):
                if end is None:
                    raise _NotStreamed
                self.pos = end
                return value


def _stream_algebra(fh, max_products):
    """(algebra, (products, work, digits)) of the algebra file open as text
    on fh, read _CHUNK characters at a time with each product object
    decoded on its own and handed to the PeirceAlgebra constructor as it
    stores the products, so neither the text nor a list of the products is
    ever whole.  The tallies are _Tally's, always over the whole file.  The
    algebra is the one from_json_dict builds from the same file, but for a
    file of more than max_products products (unless it is None): the
    constructor is handed only the first max_products, and the rest are
    read and tallied only, so the caller refuses the file on its tallies.

    None, once reading has stopped, for every other file: anything but one
    JSON object with each of _TOP_KEYS once, max_degree and dims before
    products, and only whitespace after it; text that fh cannot decode or
    that is not JSON; and anything the constructor refuses.  The caller
    reads such a file whole instead."""
    text = _Chunks(fh)
    head: dict = {}
    tally = _Tally()

    def entries():
        if text.peek() == "]":
            text.take()
            return
        read = itemgetter(*_ENTRY_KEYS)
        for n in itertools.count(1):
            entry = read(text.value())
            tally.add(entry)
            if max_products is None or n <= max_products:
                i, j, k, a, b, c, coeff = entry
                yield i, j, k, a, b, c, parse_frac(coeff)
            after = text.take()
            if after == "]":
                return
            if after != ",":
                raise _NotStreamed

    def unit0():
        # what follows products: unit0 unless read before, the end of the
        # object and the end of the file
        after = text.take()
        if after == "," and "unit0" not in head:
            if text.value() != "unit0" or text.take() != ":":
                raise _NotStreamed
            head["unit0"] = text.value()
            after = text.take()
        values = head.get("unit0")
        if after != "}" or text.peek() or type(values) is not list:
            raise _NotStreamed
        yield from map(parse_frac, values)

    try:
        if text.take() != "{":
            return None
        while True:
            key = text.value()
            if key not in _TOP_KEYS or key in head or text.take() != ":":
                return None
            if key == "products":
                break
            head[key] = text.value()
            if text.take() != ",":
                return None
        if "max_degree" not in head or "dims" not in head or text.take() != "[":
            return None
        # unit0 follows products in the files the library writes, so the
        # constructor reads it only once it has stored every product
        p = PeirceAlgebra(head["max_degree"], head["dims"], entries(), unit0())
    except (_NotStreamed, ValueError, TypeError, KeyError, IndexError, ArithmeticError, RecursionError):
        return None
    return p, tally.sizes(head["unit0"])


class PeirceReport:
    def __init__(
        self, ok: bool, first_violation: str | None, axioms: dict, details: dict | None = None
    ):
        self.ok = ok
        self.first_violation = first_violation
        self.axioms = axioms
        self.details = {} if details is None else details

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "first_violation": self.first_violation,
            "axioms": dict(self.axioms),
            "details": dict(self.details),
        }


def _require_degree(p: PeirceAlgebra, d: int) -> None:
    """ValueError unless 0 <= d <= p.max_degree: a negative d would index
    the components from the end."""
    if not 0 <= d <= p.max_degree:
        raise ValueError(f"degree {d} out of range 0..{p.max_degree}")


def _component_module(p: PeirceAlgebra, alg: Algebra, i: int, j: int, side: str) -> ModuleRep:
    """component(i,j) as a module over a diagonal algebra: over component(j,j)
    acting from the right, or over component(i,i) acting from the left.
    Its table is the component's own product table."""
    ijk = (i, j, j) if side == "right" else (i, i, j)
    return ModuleRep(alg, p.dims[i][j], p._prod.get(ijk, {}), side=side)


def _generators(tables: dict, dims, components) -> dict:
    """{(i, j): [b, ...]}: basis elements e_b of each given component (i,j),
    ascending, that together generate the given components, for product
    tables as _first_nonassociative reads them and dims[i][j] the
    dimension of component (i,j).

    Walks the components in sorted order and each one's basis in order,
    keeping e_b when it lies outside U, the span of the kept elements
    closed under multiplication by a kept element on either side, with
    products among the given components only.  U is held as one Echelon
    per component until that component is full.  For an associative
    algebra U is the subalgebra the kept elements generate; in general it
    lies inside that subalgebra, which can only keep more elements.  Either
    way every element of the given components is a combination of products
    built one kept factor at a time.
    """
    components = sorted(components)
    spans = {c: Echelon() for c in components}
    room = {(i, j): dims[i][j] for i, j in components}  # codimension of U
    elems: dict = {c: [] for c in components}  # the vectors added to spans
    kept: dict = {c: [] for c in components}  # e_b of every kept b

    def products(i, j, y, lefts, rights):
        """Nonzero products of (i,j) by (j,y) elements, tagged (i, y)."""
        table = tables.get((i, j, y))
        if not room.get((i, y)) or not table:
            return []
        return [(i, y, w) for x in lefts for z in rights if (w := _bilinear(table, x, z))]

    for i, j in components:
        for b in range(dims[i][j]):
            if not room[(i, j)]:
                break
            e = {b: 1}
            if spans[(i, j)].contains(e):
                continue
            kept[(i, j)].append(e)
            # e_b itself, then every element of U times e_b on either side
            queue = [(i, j, e)]
            for (x, y), vecs in elems.items():
                if y == i:
                    queue += products(x, i, j, vecs, [e])
                if x == j:
                    queue += products(i, j, y, [e], vecs)
            while queue:
                x, y, v = queue.pop()
                if not room[(x, y)] or not spans[(x, y)].add(v):
                    continue
                room[(x, y)] -= 1
                if not room[(x, y)]:
                    del spans[(x, y)]  # full: nothing is added or tested again
                elems[(x, y)].append(v)
                for (s, t), gens in kept.items():
                    if s == y:
                        queue += products(x, y, t, [v], gens)
                    if t == x:
                        queue += products(s, x, y, gens, [v])
    return {c: [b for e in es for b in e] for c, es in kept.items()}


def _associative(p: PeirceAlgebra) -> bool:
    """Light's test on every component of p, run once per algebra: the
    validator, zigzag and both Morita functors read it."""
    if p._associative is None:
        quads = _quadruples(p._prod, p.max_degree)
        components = itertools.product(range(p.max_degree + 1), repeat=2)
        p._associative = _first_failure(p._prod, quads, p.dims, components) is None
    return p._associative


def _associativity_failure(p: PeirceAlgebra):
    """Where associativity first fails, as the (i, j, k, l, a, b, c) of the
    full call, in (i,j,k,l) then (a,b,c) order; None when Light's test
    passes."""
    if _associative(p):
        return None
    return _first_failure(p._prod, _quadruples(p._prod, p.max_degree))


def _descends(p: PeirceAlgebra, d: int) -> bool:
    """Whether components (d,0), (0,0), (0,d) associate: the kernel on
    (d,0,0,d) alone, on the tables it reads."""
    read = {ijk: p._prod[ijk] for ijk in ((d, 0, 0), (d, 0, d), (0, 0, d)) if ijk in p._prod}
    return _first_failure(read, [(d, 0, 0, d)]) is None


def _first_unfixed(p: PeirceAlgebra, i: int, j: int, left=None, right=None):
    """Smallest basis element b of component(i,j) with left*b != b or
    b*right != b, or None when every b is fixed.  left is a sparse element
    of component(i,i) and right one of component(j,j); None skips a side."""
    for b in range(p.dims[i][j]):
        e = {b: 1}
        if (left is not None and p.product(i, i, j, left, e) != e) or (
            right is not None and p.product(i, j, j, e, right) != e
        ):
            return b
    return None


def _edge_quotient(p: PeirceAlgebra, x: int, y: int) -> TensorQuotient:
    """component(x,y) (x)_{component(y,y)} component(y,x), read through
    phi(u (x) v) = uv when p is associative and some e in the span of the
    phi(e_f) is a left identity on component(x,y) (module docstring), and
    otherwise built by balanced_tensor from the two component modules."""
    m, n = p.dims[x][y], p.dims[y][x]
    if _associative(p):
        images = {u * n + v: cell for (u, v), cell in p._prod.get((x, y, x), {}).items() if cell}
        q = TensorQuotient(m, n, None, images, p.dims[x][x])
        # e = sum_s c_s z_s over the basis z_s = phi(e_f), f free, of the span
        table = {}
        for s, f in enumerate(q.free):
            for w in range(m):
                img = p.product(x, x, y, images[f], {w: 1})
                if img:
                    table[(s, w)] = img
        if solvable(_identity_rows([(table, m, "left")], q.dim), q.dim):
            return q
    diag = p.diagonal_algebra(y)
    m_rep = _component_module(p, diag, x, y, "right")
    return balanced_tensor(m_rep, _component_module(p, diag, y, x, "left"))


def _image_rank(p: PeirceAlgebra, d: int, q: TensorQuotient) -> int:
    """Rank of the products u v in component(d,d) of the pure tensors
    u (x) v that represent the coordinates of q, a quotient of
    component(d,0) (x) component(0,d)."""
    return len(Echelon(p.cell(d, 0, d, *q.lift_pair(qq)) for qq in range(q.dim)))


def validate_peirce(p: PeirceAlgebra) -> PeirceReport:
    """Exhaustive check of the axioms on basis elements.

    Order of verdicts: grading (structural for this presentation), corner
    unit, unital corner actions on the edge components, associativity over
    all composable basis triples, then bijectivity of the balanced product
    map at every degree.  Associativity compares the trilinear tensors
    (ab)c and a(bc) built from the stored structure constants, first with
    the middle factor b restricted to a generating set (Light's test, proved
    in the module docstring).  If a generator fails, the check runs over
    every triple and the report names its first failing triple.

    The product map at degree d sends the balancing relation R_b(u, v) to
    (ub)v - u(bv), so it descends to the balanced tensor iff components
    (d,0), (0,0), (0,d) associate (module docstring).  When associativity
    holds it descends.  When associativity fails, the full scan has found
    every quadruple before its failing one associative, so (d,0,0,d) is
    scanned only when it comes after, and no relation is built when it
    fails.  Once the map descends, degree 0 is read off the corner unit
    when that passes: R_b(a, 1) = ab (x) 1 - a (x) b, so every tensor x of
    A (x)_A A is mu(x) (x) 1, and c -> c (x) 1 inverts the product map mu,
    as mu(c (x) 1) = c.  Every other degree builds its quotient by
    _edge_quotient, and the free pure tensors of the quotient must map onto
    a basis of the target.  When the quotient is read through the product
    map, their products are independent by construction, so only their
    number is compared; a balanced quotient's products are ranked.
    """
    axioms: dict[str, bool] = {}
    details: dict[str, str] = {}
    d_max = p.max_degree

    # grading: the entry format only admits inner-index-matched products
    axioms["grading"] = True
    details["grading"] = "product tensor is indexed by matched inner indices"

    unit = sparse(p.unit0)
    b = _first_unfixed(p, 0, 0, unit, unit)
    if b is not None:
        details["corner-unit"] = f"unit0 fails on corner basis element {b}"
    axioms["corner-unit"] = b is None

    unital = None
    for i in range(d_max + 1):
        if _first_unfixed(p, i, 0, right=unit) is not None:
            unital = f"right unit action fails on component ({i},0)"
        elif _first_unfixed(p, 0, i, left=unit) is not None:
            unital = f"left unit action fails on component (0,{i})"
        else:
            continue
        details["corner-modules-unital"] = unital
        break
    axioms["corner-modules-unital"] = unital is None

    failure = _associativity_failure(p)
    axioms["associativity"] = failure is None
    if failure is not None:
        i, j, k, l, a, b, c = failure
        details["associativity"] = (
            f"fails on basis triple a={a},b={b},c={c} of components ({i},{j}),({j},{k}),({k},{l})"
        )

    for d in range(d_max + 1):
        # the product map kills the balancing relations iff components
        # (d,0), (0,0), (0,d) associate, as they do once associativity holds
        # and as every quadruple before the full scan's failing one does
        quad = (d, 0, 0, d)
        descends = failure is None or quad < failure[:4] or (quad != failure[:4] and _descends(p, d))
        if not descends:
            details["tensor-factorization"] = f"product map does not descend at degree {d}"
            break
        if d == 0 and axioms["corner-unit"]:
            continue  # c -> c (x) unit0 inverts the product map (docstring)
        q = _edge_quotient(p, d, 0)
        target = p.dims[d][d]
        # a quotient read through the product map has q.dim independent
        # images by construction (_image_basis); a balanced one is ranked
        rk = q.dim if q.relations is None else _image_rank(p, d, q)
        if not (q.dim == target and rk == target):
            details["tensor-factorization"] = (
                f"degree {d}: quotient dim {q.dim}, image rank {rk}, target dim {target}"
            )
            break
    axioms["tensor-factorization"] = "tensor-factorization" not in details

    order = ["grading", "corner-unit", "corner-modules-unital", "associativity", "tensor-factorization"]
    first = next((name for name in order if not axioms[name]), None)
    return PeirceReport(ok=first is None, first_violation=first, axioms=axioms, details=details)


class ZigZag:
    """Degree-d zig-zag algebra with its reduction to the corner.

    space is component(0,d) (x)_{component(d,d)} component(d,0); product
    holds the sparse cells {(q1, q2): {q: coeff}} of (a1 (x) a2) o (b1 (x) b2)
    = (a1*a2*b1) (x) b2, zero cells left out, and star[q] is the sparse
    corner image a1*a2 of the q-th basis element.  A product of None is
    built from parent on first read: `peirce zigzag` never reads it.
    """

    def __init__(
        self, parent: PeirceAlgebra, degree: int, space: TensorQuotient, product: dict | None, star: list
    ):
        self.parent = parent
        self.degree = degree
        self.space = space
        self._product = product
        self.star = star

    @property
    def product(self) -> dict:
        if self._product is None:
            p, d, q = self.parent, self.degree, self.space
            pairs = [q.lift_pair(qq) for qq in range(q.dim)]
            # (e_u1 (x) e_v1) o (e_u2 (x) e_v2) = (e_u1 * (e_v1 * e_u2)) (x) e_v2
            self._product = _left_action(
                q, q.dim, lambda q1, u2: p.product(0, d, d, {pairs[q1][0]: 1}, p.cell(d, 0, d, pairs[q1][1], u2))
            )
        return self._product

    @property
    def dim(self) -> int:
        return self.space.dim

    def as_algebra(self) -> Algebra:
        return Algebra(dim=self.dim, cells=self.product)

    def star_image(self) -> Subspace:
        return Subspace((0, 0), self.parent.dims[0][0], self.star)


def zigzag(p: PeirceAlgebra, d: int) -> ZigZag:
    """Degree-d zig-zag algebra of an algebra that passes validate_peirce,
    read off on the pure tensors of the quotient basis.  Associativity makes
    that well defined: a relation r = (m.b) (x) n - m (x) (b.n) has corner
    image (mb)n - m(bn) = 0 and r o (x (x) y) = ((mb)(nx) - m((bn)x)) (x) y
    = 0, while (x (x) y) o r is itself a relation.  The quotient is built
    by _edge_quotient.

    The star images of the quotient basis span the corner ideal Z_d, so
    the CLI prints the rank of star as dim Z_d.  Star kills the relations
    (above), every pure tensor is a combination of the quotient basis
    modulo the relations, and Z_d is spanned by the star images uv of the
    pure tensors u (x) v.

    The same associativity proves the two verdicts that
    action_through_A_check and Algebra.is_associative compute on the
    result, so the CLI prints them without running either.  Take pure
    tensors q1 = u1 (x) v1 and q2 = u2 (x) v2 of the quotient basis.  The
    left route star(q1).u2 = (u1v1)u2 = u1(v1u2), by quadruple (0,d,0,d),
    is the left factor of q1 o q2.  The right route v1.star(q2) =
    v1(u2v2) = (v1u2)v2, by quadruple (d,0,d,0), and with b = v1u2 in
    component(d,d), u1 (x) bv2 differs from u1b (x) v2 by the relation
    R_b(u1, v2), which the quotient kills.  So all three agree and the
    check has no failures.  The ambient product (x (x) y) o (x' (x) y') =
    x(yx') (x) y' is associative as p is, and the relations form an ideal
    (above), so the product induced on the quotient is associative.  Both
    arguments use only that the quotient kills the relations, so they hold
    for the certified quotient and the balanced one alike."""
    _require_degree(p, d)
    q = _edge_quotient(p, 0, d)
    star = [dict(p.cell(0, d, 0, *q.lift_pair(qq))) for qq in range(q.dim)]
    return ZigZag(parent=p, degree=d, space=q, product=None, star=star)


class CheckReport:
    def __init__(self, ok: bool, checked: int, failures: list | None = None):
        self.ok = ok
        self.checked = checked
        self.failures = [] if failures is None else failures

    def to_json(self) -> dict:
        return {"ok": self.ok, "checked": self.checked, "failures": list(self.failures)}


def action_through_A_check(z: ZigZag) -> CheckReport:
    """The zig-zag product of two elements must agree with the corner image
    of either factor acting on the other through the corner actions."""
    p, d, q, stars = z.parent, z.degree, z.space, z.star
    # left corner action of star(q1) on q2
    left = _left_action(q, z.dim, lambda q1, u2: p.product(0, 0, d, stars[q1], {u2: 1}))
    failures = []
    none: dict = {}
    for q1 in range(z.dim):
        u1, v1 = q.lift_pair(q1)
        for q2, star in enumerate(stars):
            # right corner action of star(q2) on q1, not projected when zero
            right = q.project_tensor({u1: 1}, p.product(d, 0, 0, {v1: 1}, star)) if star else none
            if not (right == z.product.get((q1, q2), none) == left.get((q1, q2), none)):
                failures.append((q1, q2))
    return CheckReport(ok=not failures, checked=z.dim**2, failures=failures)


def _identity_on(modules, n: int):
    """The canonical element x = sum_s x_s e_s of an n-dimensional algebra
    that fixes every basis vector of every given module over it, as a
    sparse vector (free unknowns zero, see exact.solve_linear), or None
    when there is none; modules as _identity_rows reads them."""
    return solve_linear(_identity_rows(modules, n), n)


def _identity_rows(modules, n: int) -> list:
    """The rows of the linear system of _identity_on, unknowns x_s in
    columns 0..n-1 and the right-hand side in column n.  Each module is a
    (table, dim, side) triple, its product table read as ModuleRep.table
    is."""
    rows = []
    for table, dim, side in modules:
        left = side == "left"
        for w in range(dim):
            # sum_s x_s (e_s acting on e_w) = e_w, one row per coordinate
            system: dict = {}
            for s in range(n):
                for r, c in table.get((s, w) if left else (w, s), {}).items():
                    system.setdefault(r, {})[s] = c
            system.setdefault(w, {})[n] = 1
            rows += system.values()
    return rows


def find_strong_identity(p: PeirceAlgebra, d: int):
    """Element of component(d,d) acting as the identity on component(0,d)
    from the right and on component(d,0) from the left, as a sparse vector;
    None when no such element exists.  When both edge components vanish the
    zero element {} is returned (the degree-d corner is then forced to be
    the zero ring)."""
    _require_degree(p, d)
    if p.dims[0][d] == 0 and p.dims[d][0] == 0:
        return {}
    right, left = p._prod.get((0, d, d), {}), p._prod.get((d, d, 0), {})
    x = _identity_on([(right, p.dims[0][d], "right"), (left, p.dims[d][0], "left")], p.dims[d][d])
    if x is None:
        return None
    if d != 0:
        _check_corner_square_identity(p, d, x)
    return x


def _check_corner_square_identity(p: PeirceAlgebra, d: int, x: dict):
    """The combined element (unit0, x) must be a two-sided identity of the
    four-component subalgebra spanned by components (0,0), (0,d), (d,0) and
    (d,d).  This holds automatically once the axioms do; a failure means the
    input was not an honest bigraded corner algebra."""
    unit = sparse(p.unit0)
    for i, j, left, right, message in (
        (0, 0, unit, unit, "corner unit fails inside the square subalgebra"),
        (0, d, unit, x, "identity fails on component (0,d)"),
        (d, 0, x, unit, "identity fails on component (d,0)"),
        (d, d, x, x, "identity fails on component (d,d)"),
    ):
        if _first_unfixed(p, i, j, left, right) is not None:
            raise ArithmeticError(message)


def zd_ideal(p: PeirceAlgebra, d: int) -> Subspace:
    """Corner ideal spanned by products component(0,d) * component(d,0)."""
    _require_degree(p, d)
    vecs = [
        p.cell(0, d, 0, u, v)
        for u in range(p.dims[0][d])
        for v in range(p.dims[d][0])
    ]
    return Subspace((0, 0), p.dims[0][0], vecs)


class IdealSplit:
    """Central-idempotent decomposition of the corner along a unital ideal;
    epsilon is the sparse unit of the ideal."""

    def __init__(
        self,
        epsilon: dict,
        ideal: Subspace,
        complement: Subspace,
        idempotent_ideal: bool,
        checks: dict,
    ):
        self.epsilon = epsilon
        self.ideal = ideal
        self.complement = complement
        self.idempotent_ideal = idempotent_ideal
        self.checks = checks

    @property
    def ok(self) -> bool:
        return all(self.checks.values())

    def to_json(self) -> dict:
        return {
            "epsilon": [frac_str(x) for x in dense(self.epsilon, self.ideal.ambient_dim)],
            "ideal_dim": self.ideal.dim,
            "complement_dim": self.complement.dim,
            "idempotent_ideal": self.idempotent_ideal,
            "checks": dict(self.checks),
        }


def ideal_unit_and_split(p: PeirceAlgebra, ideal: Subspace):
    """Internal unit of a two-sided corner ideal plus the induced splitting.

    Solves eps * z = z * eps = z over the ideal; when solvable the unit is a
    central idempotent of the corner and the corner splits as the product of
    the ideal and the ideal generated by unit0 - eps, with vanishing cross
    products (so structure constants are block diagonal in the split basis).
    Returns None when the ideal has no internal unit.  Raises when the input
    subspace, which _ideal_unit takes as two-sided, is not a two-sided ideal.

    On an associative corner every check holds once eps exists, so the CLI
    prints the split without making it.  eps is idempotent as eps lies in
    the ideal, which it fixes.  For a in A, a eps and eps a lie in the
    ideal, so a eps = eps (a eps) and eps a = (eps a) eps: both equal
    eps a eps, and eps is central.  An x = y(1 - eps) in the ideal has
    x = x eps = y(eps - eps^2) = 0, and every a is a eps + a(1 - eps), so A
    is the direct sum of the ideal and A(1 - eps).  The cross products
    vanish: z a(1 - eps) = za - za eps = 0 as za lies in the ideal, and
    a(1 - eps) z = a(1 - eps) eps z = 0 likewise.
    """
    _require_two_sided(p, ideal)
    eps, _ = _ideal_unit(p, ideal)
    if eps is None:
        return None
    n0 = p.dims[0][0]

    def mul(x: dict, y: dict) -> dict:
        return p.product(0, 0, 0, x, y)

    zs = ideal.basis
    units = [{a: 1} for a in range(n0)]
    eta = sparse(p.unit0)
    add_multiple(eta, -1, eps)
    checks = {}
    checks["epsilon_idempotent"] = mul(eps, eps) == eps
    checks["epsilon_central"] = all(mul(eps, ea) == mul(ea, eps) for ea in units)
    complement = Subspace((0, 0), n0, [mul(ea, eta) for ea in units])
    checks["direct_sum"] = (
        ideal.dim + complement.dim == n0 and len(Echelon(zs + complement.basis)) == n0
    )
    checks["cross_products_vanish"] = all(
        not mul(z, w) and not mul(w, z) for z in zs for w in complement.basis
    )
    # every z in the ideal is eps * z, a product of two of its elements
    return IdealSplit(
        epsilon=eps,
        ideal=ideal,
        complement=complement,
        idempotent_ideal=True,
        checks=checks,
    )


def _require_two_sided(p: PeirceAlgebra, ideal: Subspace) -> None:
    """Raise unless ideal is a two-sided ideal of the corner component,
    holding a * z and z * a for each corner basis a and ideal basis z."""
    n0 = p.dims[0][0]
    if ideal.component != (0, 0) or ideal.ambient_dim != n0:
        raise ValueError("ideal must live in the corner component")
    inside = ideal.contains
    for a in range(n0):
        for z in ideal.basis:
            if not inside(p.product(0, 0, 0, {a: 1}, z)) or not inside(p.product(0, 0, 0, z, {a: 1})):
                raise ValueError("subspace is not a two-sided ideal")


def _ideal_unit(p: PeirceAlgebra, ideal: Subspace):
    """(eps, alg): the internal unit eps of a two-sided corner ideal as a
    sparse vector, None when it has none, and alg the ideal as an algebra
    (_zd_algebra).  Not checked: Z_d = zd_ideal(p, d) of an associative p
    is two-sided, as a(uv) = (au)v and (uv)a = u(va) for a in (0,0), u in
    (0,d), v in (d,0); other subspaces pass _require_two_sided first."""
    # eps = sum_s x_s z_s with eps * z = z * eps = z for every basis z: the
    # identity of the ideal's algebra acting on itself from both sides
    alg = _zd_algebra(p, ideal)
    sol = _identity_on([(alg.cells, alg.dim, side) for side in ("left", "right")], alg.dim)
    if sol is None:
        return None, alg
    eps: dict = {}
    for s, c in sol.items():
        add_multiple(eps, c, ideal.basis[s])
    return eps, alg


def _zd_algebra(p: PeirceAlgebra, ideal: Subspace) -> Algebra:
    """A two-sided corner ideal as an algebra in its own reduced basis; it
    holds each z_a z_b, being two-sided, so coordinates are read at pivots."""
    cells = {}
    for a, za in enumerate(ideal.basis):
        for b, zb in enumerate(ideal.basis):
            coords = ideal._coords(p.product(0, 0, 0, za, zb))
            if coords:
                cells[(a, b)] = coords
    return Algebra(dim=ideal.dim, cells=cells)


def regular_module(p: PeirceAlgebra, d: int) -> ModuleRep:
    """component(d,d) acting on itself from the left."""
    _require_degree(p, d)
    return _component_module(p, p.diagonal_algebra(d), d, d, "left")


def _require_morita_setup(p: PeirceAlgebra, d: int):
    sid = find_strong_identity(p, d)
    if sid is None:
        raise ValueError(f"no strong identity at degree {d}")
    ideal = zd_ideal(p, d)
    # two-sided by associativity (_ideal_unit); the CLI validates it first
    if not _associative(p):
        _require_two_sided(p, ideal)
    eps, alg = _ideal_unit(p, ideal)
    if eps is None:
        raise ValueError(f"degree-{d} corner ideal has no internal unit")
    return sid, ideal, eps, alg


def morita_forward(p: PeirceAlgebra, d: int, w_mod: ModuleRep) -> ModuleRep:
    """Send a unital degree-d module W to component(0,d) (x)_{deg-d} W, a
    module over the degree-d corner ideal."""
    return _forward(p, d, w_mod, _require_morita_setup(p, d))[0]


def _honest(p: PeirceAlgebra, d: int, w_mod: ModuleRep) -> bool:
    """Whether a left module over component(d,d) of an associative p meets
    the module axiom, checked on generators (module docstring): only the
    quadruple (0,0,0,1) is scanned, as component(d,d) is associative.  The
    regular module, whose table is the component's own, meets it by
    associativity."""
    table = p._prod.get((d, d, d), {})
    if w_mod.table is table:
        return True
    tables = {(0, 0, 0): table, (0, 0, 1): w_mod.table}
    return _first_failure(tables, [(0, 0, 0, 1)], [[p.dims[d][d]]], [(0, 0)]) is None


def _functor(
    p: PeirceAlgebra, x: int, y: int, w_mod: ModuleRep, e: dict, alg: Algebra, basis: list, honest: bool
):
    """(component(x,y) (x)_B W, the tensor quotient it is a quotient of),
    for B = component(y,y) and W a left B-module; the result is a left
    alg-module whose basis element t acts on component(x,y) from the left
    as basis[t], an element of component(x,x).

    The quotient is read through the certified inverse of the module
    docstring when e, an element of component(x,x) in the span of the
    products component(x,y) * component(y,x), fixes component(x,y) from
    the left, p is associative and W is honest (known to be when honest
    is true, else checked); otherwise it is reduced by the balancing
    relations of every basis element of B."""
    m_rep = _component_module(p, p.diagonal_algebra(y), x, y, "right")
    _require_same_algebra(m_rep, w_mod)
    # e = sum_i m_i s_i needs the s_i of these slots only
    slots = _spanning_slots(p._prod.get((x, y, x), {}), e)
    if (
        slots is not None
        and _associative(p)
        and _first_unfixed(p, x, y, left=e) is None
        and (honest or _honest(p, y, w_mod))
    ):
        images = _action_images(p._prod.get((y, x, y), {}), slots, w_mod)
        q = TensorQuotient(m_rep.dim, w_mod.dim, None, images, len(slots) * w_mod.dim)
    else:
        q = balanced_tensor(m_rep, w_mod)
    table = _left_action(q, alg.dim, lambda t, u: p.product(x, x, y, basis[t], {u: 1}))
    return ModuleRep(alg, q.dim, table, side="left"), q


def _forward(p: PeirceAlgebra, d: int, w_mod: ModuleRep, setup):
    """(the forward module, the tensor quotient it is a quotient of):
    _functor at (x, y) = (0, d), e the unit eps of the corner ideal."""
    sid, ideal, eps, alg = setup
    if w_mod.side != "left":
        raise ValueError("expected a left module over the degree-d component")
    if w_mod.algebra.dim != p.dims[d][d]:
        raise ValueError("module is not over the degree-d component")
    if any(w_mod.apply(sid, {w: 1}) != {w: 1} for w in range(w_mod.dim)):
        raise ValueError("module is not unital for the strong identity")
    return _functor(p, 0, d, w_mod, eps, alg, ideal.basis, False)


def morita_backward(p: PeirceAlgebra, d: int, w0_mod: ModuleRep) -> ModuleRep:
    """Send a unital module over the degree-d corner ideal to
    component(d,0) (x)_corner W0, a module over the degree-d component."""
    return _backward(p, d, w0_mod, _require_morita_setup(p, d), False)[0]


def _backward(p: PeirceAlgebra, d: int, w0_mod: ModuleRep, setup, honest: bool):
    """(the backward module, the tensor quotient it is a quotient of):
    _functor at (x, y) = (d, 0), e the strong identity, on W0 extended to
    the whole corner.  honest says that W0 is known to meet the module
    axiom over the corner ideal; otherwise it is checked.  The setup's Z_d
    is two-sided (proved or checked), so every eps * a lies in it."""
    sid, ideal, eps, _ = setup
    if w0_mod.side != "left":
        raise ValueError("expected a left module over the corner ideal")
    if w0_mod.algebra.dim != ideal.dim:
        raise ValueError("module is not over the degree-d corner ideal")

    # extend the ideal action to the whole corner through eps * a
    ext = {}
    for a in range(p.dims[0][0]):
        coords = ideal._coords(p.product(0, 0, 0, eps, {a: 1}))
        for w in range(w0_mod.dim):
            img = w0_mod.apply(coords, {w: 1})
            if img:
                ext[(a, w)] = img
    w0_ext = ModuleRep(p.diagonal_algebra(0), w0_mod.dim, ext, side="left")
    units = [{c: 1} for c in range(p.dims[d][d])]
    return _functor(p, d, 0, w0_ext, sid, p.diagonal_algebra(d), units, honest)


class RoundtripReport:
    def __init__(
        self,
        ok: bool,
        dim_start: int,
        dim_forward: int,
        dim_back: int,
        bijective: bool,
        equivariant: bool,
    ):
        self.ok = ok
        self.dim_start = dim_start
        self.dim_forward = dim_forward
        self.dim_back = dim_back
        self.bijective = bijective
        self.equivariant = equivariant

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "dim_start": self.dim_start,
            "dim_forward": self.dim_forward,
            "dim_back": self.dim_back,
            "bijective": self.bijective,
            "equivariant": self.equivariant,
        }


def verify_roundtrip(p: PeirceAlgebra, d: int, w_mod: ModuleRep) -> RoundtripReport:
    """Push a degree-d module through both functors and compare with the
    original through the canonical evaluation b (x) (a (x) w) -> (b*a).w.

    On the regular module B = component(d,d) of an algebra that passes
    validate_peirce and the Morita setup (strong identity s, eps the unit
    of Z_d), the report is ok, bijective and equivariant, with dim_start =
    dim_back = dims[d][d] and dim_forward = dims[0][d], so the CLI prints it
    without running either functor.  The product map component(d,0) (x)_A
    component(0,d) -> B is onto, and s fixes both edges, so s(vu) = (sv)u
    = vu and (vu)s = v(us) = vu: s is a two-sided unit of B.  So
    F(B) = component(0,d) (x)_B B is component(0,d) through m (x) b -> mb,
    as ms = m.  eps fixes component(0,d) from the left: with s = sum_i v_i u_i,
    u = us = sum_i (u v_i) u_i and every u v_i lies in Z_d, so eps u = u.
    So extending through a -> eps a gives back the action of A, and
    G(F(B)) is component(d,0) (x)_A component(0,d), which the validated
    product map sends bijectively onto B; under these maps ev is that map.
    Equivariance is associativity: ev(c.(v (x) x)) = c.ev(v (x) x)."""
    setup = _require_morita_setup(p, d)
    w0, q_in = _forward(p, d, w_mod, setup)
    # the forward module of any module is honest over the corner ideal
    w2, q_out = _backward(p, d, w0, setup, True)

    # the evaluation map as a one-column product table: ev[(qq, 0)] is the
    # image of basis element qq of w2, so _bilinear(ev, v, {0: 1}) is ev(v)
    ev = {}
    for qq in range(w2.dim):
        v, inner = q_out.lift_pair(qq)
        u, wbase = q_in.lift_pair(inner)
        image = w_mod.apply(p.cell(d, 0, d, v, u), {wbase: 1})
        if image:
            ev[(qq, 0)] = image

    bijective = w2.dim == w_mod.dim and len(Echelon(ev.values())) == w_mod.dim
    # ev(c.x) == c.ev(x) for every basis element c of the degree-d component
    # and x of w2
    equivariant = all(
        _bilinear(ev, w2.table.get((c, x), {}), {0: 1}) == w_mod.apply({c: 1}, ev.get((x, 0), {}))
        for c in range(p.dims[d][d])
        for x in range(w2.dim)
    )
    return RoundtripReport(
        ok=bijective and equivariant,
        dim_start=w_mod.dim,
        dim_forward=w0.dim,
        dim_back=w2.dim,
        bijective=bijective,
        equivariant=equivariant,
    )


def _block_model(blocks, pairing, unit0) -> PeirceAlgebra:
    """The algebra of matrix units of graded blocks, paired at the middle.

    blocks[b][i] is the level-i size of block b.  Component (i,j) holds,
    block by block, the units E_rc (r < blocks[b][i], c < blocks[b][j]) in
    row-major order, and E_rc E_st = pairing[b][j].get((c, s), 0) E_rt;
    units of different blocks multiply to zero.
    """
    depth = len(blocks[0])
    # start[i][j][b]: position of block b's first unit in component (i,j)
    start = [
        [list(itertools.accumulate((b[i] * b[j] for b in blocks), initial=0)) for j in range(depth)]
        for i in range(depth)
    ]
    dims = [[start[i][j][-1] for j in range(depth)] for i in range(depth)]
    entries = []
    for i, j, k in itertools.product(range(depth), repeat=3):
        for b, size in enumerate(blocks):
            left, right, out = start[i][j][b], start[j][k][b], start[i][k][b]
            for (c, s), v in pairing[b][j].items():
                for r in range(size[i]):
                    a = left + r * size[j] + c
                    for t in range(size[k]):
                        entries.append((i, j, k, a, right + s * size[k] + t, out + r * size[k] + t, v))
    return PeirceAlgebra(depth - 1, dims, entries, unit0)


def matrix_model(blocks) -> PeirceAlgebra:
    """Block matrix model: component (i,j) is the direct sum over blocks of
    the spaces of (level-i dim) x (level-j dim) matrices, multiplied by
    ordinary matrix composition within each block.

    Accepts a single graded dimension vector or a list of them.  A block
    with any nonzero level must have a nonzero level-0 dimension, matching
    modules generated in their lowest level; otherwise the balanced product
    map cannot be bijective and the model would fail validation.
    """
    blocks = list(blocks)
    if blocks and isinstance(blocks[0], int):
        blocks = [blocks]
    blocks = [list(map(strict_int, b)) for b in blocks]
    if not blocks:
        return PeirceAlgebra(0, [[0]], [], [])
    depth = max(len(b) for b in blocks)
    blocks = [b + [0] * (depth - len(b)) for b in blocks]
    for b in blocks:
        if any(x < 0 for x in b):
            raise ValueError("graded dimensions must be nonnegative")
        if any(b) and b[0] == 0:
            raise ValueError("a nonzero block needs a nonzero level-0 dimension")
    identity = [[{(c, c): 1 for c in range(n)} for n in b] for b in blocks]
    unit0 = [int(r == c) for b in blocks for r in range(b[0]) for c in range(b[0])]
    p = _block_model(blocks, identity, unit0)
    p.block_dims = blocks
    return p


def matrix_model_column_module(p: PeirceAlgebra, block: int, d: int) -> ModuleRep:
    """Column module of one block at degree d for a matrix_model algebra."""
    if p.block_dims is None:
        raise ValueError("algebra was not built by matrix_model")
    blocks = p.block_dims
    if not 0 <= block < len(blocks):
        raise ValueError(f"block {block} out of range 0..{len(blocks) - 1}")
    _require_degree(p, d)
    # the matrix unit E_rc of the block, at start + r * n + c, sends e_c to e_r
    start = sum(b[d] ** 2 for b in blocks[:block])
    n = blocks[block][d]
    table = {(start + r * n + c, c): {r: 1} for r in range(n) for c in range(n)}
    return ModuleRep(p.diagonal_algebra(d), n, table, side="left")


def heisenberg_truncation(n: int, max_degree: int, point) -> PeirceAlgebra:
    """Exact truncation of the rank-n free-boson mode algebra.

    Component (i,j) has the creation/annihilation monomial pairs of weights
    (i, j) as basis: the matrix units of one block whose level-j size is the
    number of weight-j labels, paired by the diagonal corner pairings (the
    others are zero) evaluated at the given rational point of the zero
    modes.  They are the symmetry factors, so the result is independent of
    the point; the evaluation is still carried out exactly, not assumed.
    """
    # imported here: the other peirce functions need no free-boson engine
    from .heisenberg import _pairing_diagonal

    point = [scalar(x) for x in point]
    if len(point) != n:
        raise ValueError("need one evaluation value per generator")
    if max_degree < 0:
        raise ValueError("max_degree must be nonnegative")
    counts = []
    pairing = []
    for j in range(max_degree + 1):
        labels, cells = _pairing_diagonal(n, j)
        counts.append(len(labels))
        values = ((t, x.evaluate(point)) for t, x in enumerate(cells))
        pairing.append({(t, t): v for t, v in values if v})
    return _block_model([counts], [pairing], [1])
