"""The paper's theorem across layers: for a rational VOA with simple modules
M, the block matrix model of their graded dimensions is the higher Zhu
algebra the theorem describes, so the `zhu` descriptors predict what
`peirce` computes on it.

For B = matrix_model of the graded dimensions, at every degree d:
  * B passes validate_peirce;
  * component (d,d) has dimension sum_M dim(M_d)^2;
  * the centre of component (d,d) has dimension the number of M with
    M_d != 0: the higher Zhu algebra is a product of matrix algebras, one
    per such M;
  * the corner ideal Z_d and the degree-d zig-zag algebra both have
    dimension sum_M dim(M_0)^2, over the M in zd_support(modules, d);
  * the column module M_d of each block goes through both Morita functors
    and back to itself, by way of the Z_d-module M_0 (zero when M_d is).

On the boson side, heisenberg_truncation(n, D, point) has component (d,d)
of dimension k_d^2, k_d the one level size of heisenberg_zhu_descriptor at
level d, a one-dimensional centre, as one module is nonzero at every
level, and a one-dimensional corner ideal at every degree, as the free
boson has no exceptional degrees.

The laws that do not depend on the basis (all but the roundtrip, whose
column modules are given in the block basis) are checked again on the
block model in a random integer basis, where the structure constants have
denominators.

The centre is solved here, in exact arithmetic: it is the kernel of
x -> (xb - bx over every basis element b), whose rank Echelon gives.
"""

from fractions import Fraction
from pathlib import Path
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from test_lattice import D4_GRAM
from test_peirce import _changed_basis
from test_zhu import ISING_MODULES

from mta.exact import Echelon
from mta.lattice import EvenLattice, dual_cosets, graded_dims, load_gram
from mta.peirce import (
    heisenberg_truncation,
    matrix_model,
    matrix_model_column_module,
    validate_peirce,
    verify_roundtrip,
    zd_ideal,
    zigzag,
)
from mta.zhu import SimpleModuleData, heisenberg_zhu_descriptor, zd_support

ROOT = Path(__file__).resolve().parent.parent


def coset_modules(lattice, levels: int):
    """The cosets of a lattice, graded through the given level."""
    return [
        SimpleModuleData(str(c.index), tuple(graded_dims(lattice, c.vector, levels)), Fraction(0))
        for c in dual_cosets(lattice)
    ]


@st.composite
def module_data(draw):
    """One to three modules of one to three levels: level 0 of size 1 or 2,
    the higher levels of size 0 to 2."""
    depth = draw(st.integers(1, 3))
    count = draw(st.integers(1, 3))
    return [
        SimpleModuleData(
            f"m{k}",
            (draw(st.integers(1, 2)), *draw(st.lists(st.integers(0, 2), min_size=depth - 1, max_size=depth - 1))),
            Fraction(0),
        )
        for k in range(count)
    ]


def centre_dim(p, d):
    """Dimension of the centre of component (d,d): n minus the rank of the
    images of its n basis elements e_s under x -> (xb - bx)_b, the
    commutators with every basis element b side by side."""
    n = p.dims[d][d]
    images = []
    for s in range(n):
        image = {}
        for b in range(n):
            for t, c in p.cell(d, d, d, s, b).items():
                image[b * n + t] = image.get(b * n + t, 0) + c
            for t, c in p.cell(d, d, d, b, s).items():
                image[b * n + t] = image.get(b * n + t, 0) - c
        images.append(image)
    return n - len(Echelon(images))


def _check_laws(b, modules):
    """The laws that hold in any basis of the block model b of modules."""
    assert validate_peirce(b).ok
    for d in range(b.max_degree + 1):
        assert b.dims[d][d] == sum(m.graded_dims[d] ** 2 for m in modules)
        assert centre_dim(b, d) == sum(1 for m in modules if m.graded_dims[d]), d
        support = set(zd_support(modules, d))
        expected = sum(m.graded_dims[0] ** 2 for m in modules if m.label in support)
        assert zd_ideal(b, d).dim == zigzag(b, d).dim == expected, d


def _check_theorem(modules):
    b = matrix_model([list(m.graded_dims) for m in modules])
    _check_laws(b, modules)
    for d in range(b.max_degree + 1):
        for k, m in enumerate(modules):
            n = m.graded_dims[d]
            report = verify_roundtrip(b, d, matrix_model_column_module(b, k, d)).to_json()
            assert report == {
                "ok": True,
                "dim_start": n,
                "dim_forward": m.graded_dims[0] if n else 0,
                "dim_back": n,
                "bijective": True,
                "equivariant": True,
            }, (k, d)


@settings(max_examples=60, deadline=None)
@given(module_data())
@example(ISING_MODULES)
def test_block_model_dimensions_follow_the_module_data(modules):
    _check_theorem(modules)


@settings(max_examples=10, deadline=None)
@given(module_data(), st.integers(0, 2**32))
@example(ISING_MODULES, 7)
def test_block_model_laws_hold_in_a_random_integer_basis(modules, seed):
    b = matrix_model([list(m.graded_dims) for m in modules])
    _check_laws(_changed_basis(b, Random(seed)), modules)


def test_lattice_cosets_give_the_predicted_block_model():
    modules = coset_modules(load_gram(str(ROOT / "demos" / "z8.gram")), 2)
    assert [m.graded_dims[0] for m in modules] == [1, 1, 1, 1, 2, 1, 1, 1]
    _check_theorem(modules)


def test_d4_cosets_give_the_predicted_block_model_at_level_0():
    """The four cosets of D4 at level 0, modules (1), (8), (8), (8): a
    corner of dimension 193.  Level 1 is left out, as its component (1,1)
    has dimension 28^2 + 3 * 64^2 = 13 072."""
    modules = coset_modules(EvenLattice(D4_GRAM), 0)
    assert [m.graded_dims for m in modules] == [(1,), (8,), (8,), (8,)]
    _check_theorem(modules)


@pytest.mark.parametrize("n, max_degree", [(1, 3), (2, 2), (1, 5), (2, 3), (3, 2)])
def test_boson_truncation_follows_the_descriptor(n, max_degree):
    p = heisenberg_truncation(n, max_degree, [Fraction(1, 2)] * n)
    descriptor = heisenberg_zhu_descriptor(n, max_degree)
    for d in range(max_degree + 1):
        assert p.dims[d][d] == descriptor.level_sizes(d)[0] ** 2
        assert centre_dim(p, d) == 1
        assert zd_ideal(p, d).dim == 1
