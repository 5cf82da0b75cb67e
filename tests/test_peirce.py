"""Corner algebras: axioms, zig-zag reduction, ideals, module functors."""

import json
from fractions import Fraction

import oracle_exact as oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mta import exact, peirce
from mta.cli import _morita_payload, _zigzag_payload
from mta.heisenberg import strong_identity
from mta.partitions import enumerate_labeled_partitions
from mta.peirce import (
    PeirceAlgebra,
    Subspace,
    action_through_A_check,
    balanced_tensor,
    find_strong_identity,
    heisenberg_truncation,
    ideal_unit_and_split,
    matrix_model,
    matrix_model_column_module,
    morita_forward,
    regular_module,
    validate_peirce,
    verify_roundtrip,
    zd_ideal,
    zigzag,
)

F0 = Fraction(0)
F1 = Fraction(1)


def zero_edge_algebra():
    """Corner of dimension 1, degree-1 diagonal of dimension 1, no edges."""
    return PeirceAlgebra(
        1,
        [[1, 0], [0, 1]],
        [(0, 0, 0, 0, 0, 0, 1), (1, 1, 1, 0, 0, 0, 1)],
        [1],
    )


def dead_edge_algebra():
    """Edges present but every product involving them is zero, so no element
    of the degree-1 diagonal can act as an identity on them."""
    return PeirceAlgebra(
        1,
        [[1, 1], [1, 1]],
        [(0, 0, 0, 0, 0, 0, 1), (1, 1, 1, 0, 0, 0, 1)],
        [1],
    )


def test_single_block_model_dims():
    p = matrix_model([2, 3])
    assert p.dims == [[4, 6], [6, 9]]
    assert p.max_degree == 1


def test_single_block_model_validates():
    report = validate_peirce(matrix_model([2, 3]))
    assert report.ok, report.first_violation
    assert list(report.axioms) == [
        "grading",
        "corner-unit",
        "corner-modules-unital",
        "associativity",
        "tensor-factorization",
    ]
    assert all(report.axioms.values())


def test_two_block_model():
    p = matrix_model([[1, 2], [1, 0]])
    assert p.dims == [[2, 2], [2, 4]]
    assert validate_peirce(p).ok


def test_three_block_three_level_model():
    p = matrix_model([[1, 1, 2], [2, 1, 0], [1, 0, 1]])
    assert validate_peirce(p).ok


def test_empty_model():
    p = matrix_model([])
    assert p.max_degree == 0
    assert p.dims == [[0]]
    assert validate_peirce(p).ok


def test_model_rejects_zero_level_zero():
    with pytest.raises(ValueError):
        matrix_model([[0, 2]])


def test_mutated_model_fails_validation():
    """Changing any one structure constant of a small acceptance fixture by
    +1, -1 or +2 breaks an axiom, and the report, first violation and
    details included, is byte for byte the dense oracle's."""
    cases = 0
    for blocks in ([2, 2], [[1, 2], [1, 0]], [[1, 1], [1, 1]]):
        p = matrix_model(blocks)
        entries = p.entries()
        for pos, (i, j, k, a, b, c, v) in enumerate(entries):
            for delta in (1, -1, 2):
                mutated = list(entries)
                mutated[pos] = (i, j, k, a, b, c, v + delta)
                bad = PeirceAlgebra(p.max_degree, p.dims, mutated, p.unit0)
                report = validate_peirce(bad)
                assert not report.ok, (blocks, pos, delta)
                assert json.dumps(report.to_json()) == json.dumps(
                    oracle.validate_peirce(bad).to_json()
                ), (blocks, pos, delta)
                for d in range(bad.max_degree + 1):
                    alg = bad.diagonal_algebra(d)
                    assert alg.is_associative() == oracle.is_associative(alg)
                cases += 1
    assert cases == 324


ACCEPTANCE_BLOCKS = ([2, 3], [[1, 2], [1, 0]], [[1, 1, 2], [2, 1, 0], [1, 0, 1]], [[3, 2], [1, 3], [2, 1]])


def test_balanced_tensor_matches_dense_build(monkeypatch):
    """Every balanced tensor built on the acceptance fixtures has the free
    coordinates, reduced relations and projection of the dense build."""
    calls = []

    def recording(m_rep, n_rep):
        q = real(m_rep, n_rep)
        calls.append((m_rep, n_rep, q))
        return q

    real = peirce.balanced_tensor
    monkeypatch.setattr(peirce, "balanced_tensor", recording)
    for blocks in ACCEPTANCE_BLOCKS:
        p = matrix_model(blocks)
        assert validate_peirce(p).ok
        for d in range(p.max_degree + 1):
            assert zigzag(p, d).as_algebra().is_associative()
            assert verify_roundtrip(p, d, regular_module(p, d)).ok
            for block in range(len(p.block_dims)):
                assert verify_roundtrip(p, d, matrix_model_column_module(p, block, d)).ok
    assert len(calls) == 9 + 9 + 2 * (9 + 21)  # validate, zigzag, roundtrips
    seen = set()
    for m_rep, n_rep, q in calls:
        key = repr((m_rep.algebra.struct, m_rep.action, n_rep.action))
        if key in seen:
            continue
        seen.add(key)
        dq = oracle.balanced_tensor(m_rep, n_rep)
        assert q.free == dq.free
        assert q.relations.dense(q.ambient_dim) == (dq.rel_basis, dq.rel_pivots)
        for f in range(q.ambient_dim):
            e = oracle.unit_vector(q.ambient_dim, f)
            assert q.project({f: F1}) == dq.project(e)
            assert q.kills({f: F1}) == dq.kills(e)


def test_json_round_trip():
    p = matrix_model([[1, 2], [2, 1]])
    q = PeirceAlgebra.from_json_dict(p.to_json_dict())
    assert q.dims == p.dims
    assert q.entries() == p.entries()
    assert q.unit0 == p.unit0


def test_balanced_tensor_collapses_to_corner_dim():
    # over the full degree-1 diagonal of one matrix block, the balanced
    # product of the two edge components has the corner dimension
    p = matrix_model([2, 3])
    z = zigzag(p, 1)
    assert z.dim == p.dims[0][0]


def test_zigzag_product_matches_corner():
    p = matrix_model([[1, 2], [1, 1]])
    z = zigzag(p, 1)
    corner = p.corner_algebra()
    # the corner reduction is a homomorphism onto its image
    for q1 in range(z.dim):
        for q2 in range(z.dim):
            left = corner.mul(z.star[q1], z.star[q2])
            prod = z.product[q1][q2]
            right = [
                sum((prod[t] * z.star[t][r] for t in range(z.dim)), F0)
                for r in range(p.dims[0][0])
            ]
            assert left == right


def test_zigzag_star_bijective_onto_ideal():
    p = matrix_model([[2, 1], [1, 2]])
    z = zigzag(p, 1)
    ideal = zd_ideal(p, 1)
    image = z.star_image()
    assert image.dim == z.dim == ideal.dim
    assert image == ideal


def test_action_through_corner():
    for blocks in ([2, 3], [[1, 2], [1, 1]], [[2, 1], [1, 2]]):
        z = zigzag(matrix_model(blocks), 1)
        check = action_through_A_check(z)
        assert check.ok, check.failures


def test_zigzag_associative():
    z = zigzag(matrix_model([[1, 2], [1, 1]]), 1)
    assert z.as_algebra().is_associative()


def test_find_strong_identity_matrix_model():
    p = matrix_model([2, 3])
    x = find_strong_identity(p, 1)
    assert x is not None
    # acts as identity on both edge components
    for u in range(p.dims[0][1]):
        e = [F1 if t == u else F0 for t in range(p.dims[0][1])]
        assert p.mul(0, 1, 1, e, x) == e
    for v in range(p.dims[1][0]):
        e = [F1 if t == v else F0 for t in range(p.dims[1][0])]
        assert p.mul(1, 1, 0, x, e) == e


def test_find_strong_identity_zero_edges():
    p = zero_edge_algebra()
    x = find_strong_identity(p, 1)
    assert x == [F0]


def test_find_strong_identity_none_when_action_dies():
    assert find_strong_identity(dead_edge_algebra(), 1) is None


def test_ideal_split_two_blocks():
    p = matrix_model([[1, 2], [1, 0]])
    ideal = zd_ideal(p, 1)
    assert ideal.dim == 1
    split = ideal_unit_and_split(p, ideal)
    assert split is not None
    assert split.ok
    assert split.idempotent_ideal
    assert split.epsilon == [F1, F0]
    assert split.complement.dim == 1
    assert split.checks["epsilon_idempotent"]
    assert split.checks["epsilon_central"]
    assert split.checks["cross_products_vanish"]


def test_ideal_split_full_ideal():
    p = matrix_model([2, 3])
    ideal = zd_ideal(p, 1)
    assert ideal.dim == p.dims[0][0]
    split = ideal_unit_and_split(p, ideal)
    assert split is not None and split.ok
    assert split.epsilon == p.unit0
    assert split.complement.dim == 0


def test_ideal_split_zero_ideal():
    p = zero_edge_algebra()
    ideal = zd_ideal(p, 1)
    assert ideal.dim == 0
    split = ideal_unit_and_split(p, ideal)
    assert split is not None and split.ok
    assert split.epsilon == [F0]
    assert split.complement.dim == 1


def test_ideal_split_rejects_non_ideal():
    p = matrix_model([[1, 1], [1, 0]])
    # the span of the second block's corner unit alone is an ideal; a random
    # diagonal line mixing the blocks is not
    bad = Subspace((0, 0), 2, [[F1, F1]])
    with pytest.raises(ValueError):
        ideal_unit_and_split(p, bad)


def test_regular_module_roundtrips():
    p = matrix_model([[1, 2], [1, 1]])
    for d in range(p.max_degree + 1):
        report = verify_roundtrip(p, d, regular_module(p, d))
        assert report.ok, (d, report)


def test_column_module_roundtrips():
    p = matrix_model([[1, 2], [1, 1]])
    for block in range(2):
        for d in range(p.max_degree + 1):
            w = matrix_model_column_module(p, block, d)
            assert w.validate() == []
            report = verify_roundtrip(p, d, w)
            assert report.ok, (block, d, report)


def test_forward_functor_dims():
    # pushing the column module of a block forward lands in a module over
    # the corner ideal whose dimension is the block's level-0 size
    p = matrix_model([[1, 2], [1, 1]])
    for block, expect in ((0, 1), (1, 1)):
        w = matrix_model_column_module(p, block, 1)
        w0 = morita_forward(p, 1, w)
        assert w0.dim == expect


def test_morita_requires_strong_identity():
    p = dead_edge_algebra()
    with pytest.raises(ValueError):
        morita_forward(p, 1, regular_module(p, 1))


def test_truncation_validates_and_is_point_independent():
    entries = None
    for point in ([Fraction(0)], [Fraction(2)], [Fraction(-1, 3)]):
        p = heisenberg_truncation(1, 2, point)
        assert validate_peirce(p).ok
        if entries is None:
            entries = p.entries()
        else:
            assert p.entries() == entries


def test_truncation_dims_are_count_squares():
    p = heisenberg_truncation(2, 2, [Fraction(0), Fraction(0)])
    assert p.dims == [[1, 2, 5], [2, 4, 10], [5, 10, 25]]


def test_truncation_identity_matches_engine():
    n, d = 1, 3
    p = heisenberg_truncation(n, d, [Fraction(5, 7)])
    x = find_strong_identity(p, d)
    assert x is not None
    labels = enumerate_labeled_partitions(n, d)
    index = {lp: i for i, lp in enumerate(labels)}
    expected = [F0] * (len(labels) ** 2)
    for lp, coeff in strong_identity(n, d):
        s = index[lp]
        expected[s * len(labels) + s] = coeff
    assert x == expected


def test_truncation_roundtrip():
    p = heisenberg_truncation(1, 2, [Fraction(1)])
    for d in range(3):
        assert verify_roundtrip(p, d, regular_module(p, d)).ok


block_st = st.lists(
    st.lists(st.integers(min_value=0, max_value=2), min_size=2, max_size=3).map(
        lambda b: [max(b[0], 1)] + b[1:]
    ),
    min_size=1,
    max_size=2,
)


@settings(max_examples=10, deadline=None)
@given(block_st)
def test_random_models_validate_and_roundtrip(blocks):
    p = matrix_model(blocks)
    assert validate_peirce(p).ok
    for d in range(p.max_degree + 1):
        assert verify_roundtrip(p, d, regular_module(p, d)).ok


def _rescaled_model(coeff):
    """matrix_model([[1, 2], [1, 0]]) in the basis s * e, with scale
    s = (u + 2) / (1 + i + j) for basis element u of component (i,j), so its
    structure constants and unit are partly non-integral; coeff renders each
    exact scalar (int-or-Fraction, Fraction, or text)."""
    p = matrix_model([[1, 2], [1, 0]])

    def s(i, j, u):
        return Fraction(u + 2, 1 + i + j)

    entries = [
        (i, j, k, a, b, c, coeff(exact.scalar(v * s(i, j, a) * s(j, k, b) / s(i, k, c))))
        for i, j, k, a, b, c, v in p.entries()
    ]
    unit0 = [coeff(exact.scalar(x / s(0, 0, c))) for c, x in enumerate(p.unit0)]
    return PeirceAlgebra(p.max_degree, p.dims, entries, unit0)


def test_coefficient_representation_does_not_change_results():
    outputs = []
    for coeff in (lambda x: x, Fraction, exact.frac_str):
        p = _rescaled_model(coeff)
        assert all(type(v) is int or v.denominator != 1 for *_, v in p.entries())
        assert any(type(v) is Fraction for *_, v in p.entries())
        report = validate_peirce(p)
        assert report.ok, report.first_violation
        runs = [report.to_json()]
        for d in range(p.max_degree + 1):
            runs += [_zigzag_payload(p, d), _morita_payload(p, d)]
        outputs.append(json.dumps(runs))
    assert outputs[0] == outputs[1] == outputs[2]
    assert '"ok": true' in outputs[0] and '"associative": true' in outputs[0]
