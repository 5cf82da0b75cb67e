"""Block descriptors for degree-bounded corner algebras."""

from fractions import Fraction

import pytest

from mta.heisenberg import rank_certificate
from mta.partitions import labeled_partition_counts
from mta.zhu import (
    SCALAR_FIELD,
    SimpleModuleData,
    ZhuDescriptor,
    commutative_zhu_descriptor,
    exceptional_degrees,
    heisenberg_zhu_descriptor,
    polynomial_ring,
    rational_zhu_descriptor,
    zd_support,
)

ISING_MODULES = [
    SimpleModuleData("vac", (1, 0, 1, 1), Fraction(0)),
    SimpleModuleData("psi", (1, 1, 1, 1), Fraction(1, 2)),
    SimpleModuleData("sigma", (1, 1, 2, 2), Fraction(1, 16)),
]


def test_rational_descriptor_shapes():
    desc = rational_zhu_descriptor(ISING_MODULES, 2)
    assert desc.degree == 2
    assert desc.level_sizes(0) == [1, 1, 1]
    assert desc.level_sizes(1) == [1, 1]
    assert desc.level_sizes(2) == [1, 1, 2]
    assert desc.total_scalar_dimension() == 3 + 2 + (1 + 1 + 4)


def test_rational_descriptor_rejects_out_of_range():
    with pytest.raises(ValueError, match="vac"):
        rational_zhu_descriptor(ISING_MODULES, 4)


def test_module_data_validation():
    with pytest.raises(ValueError):
        SimpleModuleData("bad", (0, 0))
    with pytest.raises(ValueError):
        SimpleModuleData("bad", (1, -1))


def test_zd_support():
    assert zd_support(ISING_MODULES, 0) == ["vac", "psi", "sigma"]
    assert zd_support(ISING_MODULES, 1) == ["psi", "sigma"]
    assert zd_support(ISING_MODULES, 2) == ["vac", "psi", "sigma"]


def test_negative_degree_is_rejected():
    # a negative index would read the last level instead
    with pytest.raises(ValueError, match="negative"):
        zd_support(ISING_MODULES, -1)
    with pytest.raises(ValueError, match="negative"):
        rational_zhu_descriptor(ISING_MODULES, -1)


def test_heisenberg_descriptor_sizes():
    desc = heisenberg_zhu_descriptor(1, 5)
    assert desc.all_sizes() == [1, 1, 2, 3, 5, 7]
    assert desc.total_scalar_dimension() is None
    desc2 = heisenberg_zhu_descriptor(2, 3)
    assert desc2.all_sizes() == [1, 2, 5, 10]
    for level in desc2.blocks:
        assert [ring for _, ring in level] == [polynomial_ring(2)]


def test_heisenberg_descriptor_is_one_polynomial_block_per_level():
    # the commutative connected descriptor of the labeled partition counts
    for n in range(1, 5):
        for d in range(9):
            counts = labeled_partition_counts(n, d)
            blocks = tuple(((c, polynomial_ring(n)),) for c in counts)
            assert heisenberg_zhu_descriptor(n, d) == ZhuDescriptor(d, blocks)


def test_heisenberg_sizes_match_rank_certificate():
    # the block size at level j is the number of independent degree-j
    # creation monomials, certified by the diagonal pairing matrix
    for n in (1, 2):
        desc = heisenberg_zhu_descriptor(n, 3)
        for j in range(4):
            cert = rank_certificate(n, j)
            assert cert.independent
            assert desc.level_sizes(j) == [cert.count]


def test_commutative_descriptor():
    desc = commutative_zhu_descriptor([1, 1, 2, 3], 1, 3)
    assert desc.all_sizes() == [1, 1, 2, 3]
    with pytest.raises(ValueError, match="level 0"):
        commutative_zhu_descriptor([2, 1], 1, 1)
    with pytest.raises(ValueError, match="vanishes at level 1"):
        commutative_zhu_descriptor([1, 0, 2], 1, 2)


def test_exceptional_degrees():
    assert exceptional_degrees([1, 0, 1, 0, 1], 4) == [1, 3]
    assert exceptional_degrees([1, 1, 1], 2) == []
    # level 0 is never exceptional, even for a zero entry
    assert exceptional_degrees([0, 1], 1) == []
    with pytest.raises(ValueError):
        exceptional_degrees([1, 1], 5)
    # a negative entry is refused wherever it stands, as in SimpleModuleData
    for dims in ([1, -3, 0], [1, 1, 1, -1]):
        with pytest.raises(ValueError, match="nonnegative"):
            exceptional_degrees(dims, 2)


def test_heisenberg_has_no_exceptional_degrees():
    from mta.partitions import labeled_partition_count

    dims = [labeled_partition_count(1, j) for j in range(9)]
    assert exceptional_degrees(dims, 8) == []


def test_render_text_heisenberg():
    desc = heisenberg_zhu_descriptor(1, 2)
    assert desc.render_text() == "A_2 ≅ Mat_1(A) × Mat_1(A) × Mat_2(A), A = Q[h1]"
    desc2 = heisenberg_zhu_descriptor(2, 1)
    assert desc2.render_text() == "A_1 ≅ Mat_1(A) × Mat_2(A), A = Q[h1,h2]"


def test_render_text_scalar():
    desc = rational_zhu_descriptor(ISING_MODULES, 1)
    assert desc.render_text() == "A_1 ≅ Mat_1(C) × Mat_1(C) × Mat_1(C) × Mat_1(C) × Mat_1(C)"


def test_render_text_empty():
    desc = ZhuDescriptor(0, ((),))
    assert desc.render_text() == "A_0 ≅ 0"


def test_descriptor_json_round_trip():
    for desc in (
        heisenberg_zhu_descriptor(2, 3),
        rational_zhu_descriptor(ISING_MODULES, 2),
    ):
        assert ZhuDescriptor.from_json(desc.to_json()) == desc


def test_descriptor_validation():
    with pytest.raises(ValueError):
        ZhuDescriptor(1, (((1, SCALAR_FIELD),),))
    with pytest.raises(ValueError):
        ZhuDescriptor(0, (((0, SCALAR_FIELD),),))
    with pytest.raises(ValueError):
        ZhuDescriptor(0, (((1, "mystery-ring"),),))


@pytest.mark.parametrize(
    "levels, message",
    [
        ([-1], "level -1 out of range 0..1"),
        ([2], "level 2 out of range 0..1"),
        ([0, 1, 0], "level 0 is given twice"),
    ],
)
def test_descriptor_from_json_rejects_bad_levels(levels, message):
    """Each is refused by name: a negative level would land on the last
    level through negative indexing, a repeated one would overwrite the
    earlier, and one past the degree would raise IndexError."""
    blocks = [{"level": j, "factors": [{"size": 1, "ring": SCALAR_FIELD}]} for j in levels]
    with pytest.raises(ValueError, match=message):
        ZhuDescriptor.from_json({"degree": 1, "blocks": blocks})
