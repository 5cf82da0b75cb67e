"""Corner algebras: axioms, zig-zag reduction, ideals, module functors."""

import contextlib
import copy
import functools
import gc
import importlib.util
import itertools
import json
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path
from unittest import mock

import oracle_exact as oracle
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mta import exact, peirce
from mta.cli import _morita_payload, _zigzag_payload, main
from mta.heisenberg import strong_identity
from mta.partitions import enumerate_labeled_partitions
from mta.peirce import (
    Algebra,
    ModuleRep,
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


def _mutation_sweep():
    """Each structure constant of a small acceptance fixture changed by +1,
    -1 or +2: 324 algebras, yielded as ((blocks, pos, delta), algebra)."""
    for blocks in ([2, 2], [[1, 2], [1, 0]], [[1, 1], [1, 1]]):
        p = matrix_model(blocks)
        entries = p.entries()
        for pos, (i, j, k, a, b, c, v) in enumerate(entries):
            for delta in (1, -1, 2):
                mutated = list(entries)
                mutated[pos] = (i, j, k, a, b, c, v + delta)
                yield (blocks, pos, delta), PeirceAlgebra(p.max_degree, p.dims, mutated, p.unit0)


def test_mutated_model_fails_validation():
    """Every algebra of the mutation sweep breaks an axiom, and the report,
    first violation and details included, is byte for byte the dense
    oracle's."""
    cases = 0
    for case, bad in _mutation_sweep():
        report = validate_peirce(bad)
        assert not report.ok, case
        assert json.dumps(report.to_json()) == json.dumps(
            oracle.validate_peirce(bad).to_json()
        ), case
        for d in range(bad.max_degree + 1):
            alg = bad.diagonal_algebra(d)
            assert alg.is_associative() == oracle.dense_algebra(alg).is_associative()
        cases += 1
    assert cases == 324


ACCEPTANCE_BLOCKS = ([2, 3], [[1, 2], [1, 0]], [[1, 1, 2], [2, 1, 0], [1, 0, 1]], [[3, 2], [1, 3], [2, 1]])


def test_associativity_makes_zigzag_well_defined():
    """zigzag relies on validate_peirce instead of multiplying every
    balancing relation by every pure tensor; that brute-force check, kept as
    an oracle, passes wherever associativity holds and has teeth elsewhere."""
    valid = [matrix_model(blocks) for blocks in ACCEPTANCE_BLOCKS] + [
        heisenberg_truncation(1, 3, [Fraction(0)]),
        heisenberg_truncation(2, 2, [Fraction(0), Fraction(0)]),
    ]
    for p in valid:
        for d in range(p.max_degree + 1):
            assert oracle.zigzag_well_defined(p, d) is None, (p.dims, d)
    associative = flagged = 0
    for case, bad in _mutation_sweep():
        holds = validate_peirce(bad).axioms["associativity"]
        for d in range(bad.max_degree + 1):
            failure = oracle.zigzag_well_defined(bad, d)
            if holds:
                assert failure is None, (case, d)
                associative += 1
            flagged += failure is not None
    assert (associative, flagged) == (6, 165)


def test_balanced_tensor_matches_dense_build(monkeypatch):
    """Every balanced tensor that validation, zigzag and the roundtrips
    build on the acceptance fixtures when no certificate is used (the
    oracle's copies of them) has the free coordinates, reduced relations
    and projection of the dense build; both make a relation for every basis
    element of the acting algebra.  The sparse projection of every unit
    vector and of one dense ambient vector is the dense one."""
    calls = []

    def recording(m_rep, n_rep):
        q = real(m_rep, n_rep)
        calls.append((m_rep, n_rep, q))
        return q

    real = peirce.balanced_tensor
    monkeypatch.setattr(peirce, "balanced_tensor", recording)
    for blocks in ACCEPTANCE_BLOCKS:
        p = matrix_model(blocks)
        assert oracle.balanced_validate_peirce(p).ok
        for d in range(p.max_degree + 1):
            assert oracle.balanced_zigzag(p, d).as_algebra().is_associative()
            assert oracle.balanced_verify_roundtrip(p, d, regular_module(p, d)).ok
            for block in range(len(p.block_dims)):
                w = matrix_model_column_module(p, block, d)
                assert oracle.balanced_verify_roundtrip(p, d, w).ok
    assert len(calls) == 9 + 9 + 2 * (9 + 21)  # validate, zigzag, roundtrips
    seen = set()
    for m_rep, n_rep, q in calls:
        key = repr((m_rep.algebra.cells, m_rep.table, n_rep.table))
        if key in seen:
            continue
        seen.add(key)
        dq = oracle.balanced_tensor(oracle.dense_module(m_rep), oracle.dense_module(n_rep))
        assert q.free == dq.free
        rel_basis = [exact.dense(row, q.ambient_dim) for row in q.relations.basis()]
        assert (rel_basis, sorted(q.relations.rows)) == (dq.rel_basis, dq.rel_pivots)
        for f in range(q.ambient_dim):
            e = oracle.unit_vector(q.ambient_dim, f)
            assert exact.dense(q.project({f: F1}), q.dim) == dq.project(e)
        v = [Fraction(f % 5 - 2, f % 3 + 1) for f in range(q.ambient_dim)]
        assert exact.dense(q.project(exact.sparse(v)), q.dim) == dq.project(v)


def test_json_round_trip():
    p = matrix_model([[1, 2], [2, 1]])
    q = PeirceAlgebra.from_json_dict(p.to_json_dict())
    assert q.dims == p.dims
    assert q.entries() == p.entries()
    assert q.unit0 == p.unit0


# the JSON inputs of the CLI goldens
_GOLDEN_INPUTS = Path(__file__).resolve().parent / "golden" / "cli" / "inputs"


def _input_algebras():
    """(name, JSON text) of every algebra file the CLI goldens and the
    benchmark read, the inputs of
    test_cli.test_input_fixtures_load_under_the_integer_rule."""
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("gen_inputs", root / "perfbench" / "gen_inputs.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    for name, build in gen.INPUTS.items():
        if name.endswith(".json") and name != "modules.json":
            yield name, build()
    for path in sorted(_GOLDEN_INPUTS.glob("*.json")):
        if path.name != "modules.json":
            yield path.name, path.read_text()


def test_from_json_dict_leaves_its_argument_and_matches_the_constructor():
    """from_json_dict builds what the constructor builds from the file's
    entries, leaves data as it was, and so builds the same algebra from the
    same dict twice."""
    names = []
    for name, text in _input_algebras():
        data, kept = json.loads(text), json.loads(text)
        p = PeirceAlgebra.from_json_dict(data)
        assert data == kept, name
        again = PeirceAlgebra.from_json_dict(data)
        assert data == kept, name
        keys = ("i", "j", "k", "a", "b", "c")
        entries = [(*(e[key] for key in keys), exact.parse_frac(e["coeff"])) for e in kept["products"]]
        q = PeirceAlgebra(kept["max_degree"], kept["dims"], entries, [exact.parse_frac(x) for x in kept["unit0"]])
        for r in (again, q):
            assert (p.entries(), p.unit0) == (r.entries(), r.unit0), name
        names.append(name)
    # the generated algebras, then every golden algebra file
    golden = sorted(path.name for path in _GOLDEN_INPUTS.glob("*.json") if path.name != "modules.json")
    assert len(names) > len(golden) and names[-len(golden) :] == golden


def test_equal_one_term_cells_are_shared_and_never_written():
    """Equal one-term cells {c: v} are one object, while wider cells, equal
    or not, stay apart, and equal (a, b) keys are one object across tables;
    and no check writes a cell, which a shared cell needs, as it would
    change every product that shares it: validate_peirce, zigzag at every
    degree, the roundtrip of the regular module where a strong identity
    exists, and is_associative of every diagonal and zig-zag algebra leave
    the tables as they were.  The constructor shares as it stores, so a
    later term of a cell copies the shared cell before writing: the last
    algebra writes a second term into a cell equal to another, cancels it
    again, and cancels the only term of a third cell."""
    wide = [(0, 0, 0, a, a, c, 1) for a in range(2) for c in range(2)]  # two equal two-term cells
    written = [
        (0, 0, 0, 0, 0, 0, 1),
        (0, 0, 0, 1, 1, 0, 1),  # shares the cell {0: 1} of (0, 0)
        (0, 0, 0, 1, 1, 1, 1),  # a second term: (1, 1) takes a copy
        (0, 0, 0, 1, 1, 1, -1),  # cancels it: (1, 1) is {0: 1} again
        (0, 0, 0, 0, 1, 0, 1),
        (0, 0, 0, 0, 1, 0, -1),  # the second term cancels the first
        (0, 0, 1, 0, 0, 0, 1),  # the key (0, 0) in a second table
    ]
    algebras = [bad for _, bad in _mutation_sweep()]
    algebras += [matrix_model(blocks) for blocks in ACCEPTANCE_BLOCKS]
    algebras += [heisenberg_truncation(1, d, [F0]) for d in range(5)]
    algebras += [PeirceAlgebra(0, [[2]], wide, [1, 0])]
    last = PeirceAlgebra(1, [[2, 1], [1, 1]], written, [1, 0])
    assert last._prod == {(0, 0, 0): {(0, 0): {0: 1}, (1, 1): {0: 1}, (0, 1): {}}, (0, 0, 1): {(0, 0): {0: 1}}}
    for p in [*algebras, last]:
        before = copy.deepcopy(p._prod)
        validate_peirce(p)
        for d in range(p.max_degree + 1):
            p.diagonal_algebra(d).is_associative()
            zigzag(p, d).as_algebra().is_associative()
            # an algebra that fails the axioms may have no strong identity
            with contextlib.suppress(ValueError, ArithmeticError):
                verify_roundtrip(p, d, regular_module(p, d))
        assert p._prod == before
        one_term: dict = {}
        wider = []
        for table in p._prod.values():
            for cell in table.values():
                if len(cell) == 1:
                    assert one_term.setdefault(next(iter(cell.items())), cell) is cell
                elif cell:
                    wider.append(cell)
        assert len(set(map(id, wider))) == len(wider)
        keys: dict = {}
        for table in p._prod.values():
            for key in table:
                assert keys.setdefault(key, key) is key
        if p is algebras[-1]:
            # its two equal two-term cells stay two objects
            assert len(wider) == 2 and wider[0] == wider[1]
    tables = last._prod.values()
    assert len({id(cell) for table in tables for cell in table.values() if cell}) == 1


def test_balanced_tensor_collapses_to_corner_dim():
    # over the full degree-1 diagonal of one matrix block, the balanced
    # product of the two edge components has the corner dimension
    p = matrix_model([2, 3])
    z = zigzag(p, 1)
    assert z.dim == p.dims[0][0]


def test_zigzag_product_matches_corner():
    p = matrix_model([[1, 2], [1, 1]])
    z = zigzag(p, 1)
    assert z.product
    # the corner reduction is a homomorphism onto its image
    for q1 in range(z.dim):
        for q2 in range(z.dim):
            left = p.product(0, 0, 0, z.star[q1], z.star[q2])
            right: dict = {}
            for t, c in z.product.get((q1, q2), {}).items():
                exact.add_multiple(right, c, z.star[t])
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


def idempotent_family(n):
    """Corner k^n of orthogonal idempotents e_i, edges v_i of (1,0) and u_i
    of (0,1) with v_i e_i = v_i, e_i u_i = u_i and v_i u_i = w_i of (1,1);
    every other product, u v among them, is zero: 4n products."""
    components = ((0, 0, 0), (1, 0, 0), (0, 0, 1), (1, 0, 1))
    entries = [(i, j, k, a, a, a, 1) for a in range(n) for i, j, k in components]
    return PeirceAlgebra(1, [[n, n], [n, n]], entries, [1] * n)


def test_zero_product_zigzag():
    """component(1,1) acts by zero on the edges of the idempotent family, so
    the degree-1 quotient keeps all n^2 pure tensors, and u v = 0 makes
    every zig-zag product, every corner image and the corner ideal zero."""
    p = idempotent_family(3)
    assert validate_peirce(p).ok
    z = zigzag(p, 1)
    assert z.dim == 9 and z.product == {} and z.star == [{}] * 9
    assert z.as_algebra().is_associative() and action_through_A_check(z).ok
    split = ideal_unit_and_split(p, zd_ideal(p, 1))
    assert split.ok and split.ideal.dim == 0 and split.epsilon == {}


def incidence_algebra():
    """R = span{E11, E12, E13, E22, E31, E32, E33}, matrix units closed
    under multiplication, graded by e = E11 + E22 at level 0 and f = E33
    at level 1: components eRe = span{E11, E12, E22}, eRf = span{E13},
    fRe = span{E31, E32} and fRf = span{E33}, 15 products, unit0 E11 + E22."""
    basis = {(0, 0): ["11", "12", "22"], (0, 1): ["13"], (1, 0): ["31", "32"], (1, 1): ["33"]}
    slot = {unit: n for units in basis.values() for n, unit in enumerate(units)}
    products = [
        {"i": i, "j": j, "k": k, "a": a, "b": b, "c": slot[x[0] + y[1]], "coeff": "1"}
        for (i, j), left in basis.items()
        for k in range(2)
        for a, x in enumerate(left)
        for b, y in enumerate(basis[j, k])
        if x[1] == y[0] and x[0] + y[1] in slot
    ]
    data = {"max_degree": 1, "dims": [[3, 1], [2, 1]], "products": products, "unit0": ["1", "0", "1"]}
    return PeirceAlgebra.from_json_dict(data)


def test_morita_refuses_a_corner_ideal_without_a_unit(tmp_path, capsys):
    """Validation and a strong identity do not give the Morita setup: the
    incidence algebra passes validate_peirce with E33 its degree-1 strong
    identity, yet Z_1 = span{E11, E12} has no unit (E12 E11 = 0), so
    `peirce morita --degree 1` refuses it with exit 1, and `peirce zigzag
    --degree 1` reports the ideal not unital and prints no epsilon."""
    p = incidence_algebra()
    assert len(p.entries()) == 15 and validate_peirce(p).ok
    assert find_strong_identity(p, 1) == {0: 1}
    ideal = zd_ideal(p, 1)
    assert ideal.basis == [{0: 1}, {1: 1}]
    assert peirce._ideal_unit(p, ideal)[0] is None
    path = tmp_path / "incidence.json"
    path.write_text(json.dumps(p.to_json_dict()))
    argv = ["peirce", "morita", "--algebra", str(path), "--degree", "1"]
    assert main(argv) == 1
    refused = {"degree": 1, "ok": False, "error": "degree-1 corner ideal has no internal unit"}
    assert json.loads(capsys.readouterr().out) == refused
    argv[1] = "zigzag"
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ideal_unital"] is False and "epsilon" not in payload


MM332 = ([3, 2], [1, 3], [2, 1])
MM12 = ([1, 2], [1, 0])


def test_zigzag_payload_reads_its_verdicts_off_validation(monkeypatch):
    """`peirce zigzag` prints `associative` and `action_through_corner` as
    the zigzag docstring proves them from validate_peirce, and runs neither
    check: the payloads and statuses are those the computed checks gave,
    on the certified quotients of mm332 and mm12 and on the balanced
    fallback of the idempotent family."""

    def refuse(*args):
        raise AssertionError("a verdict that validation proves was computed")

    monkeypatch.setattr(peirce, "action_through_A_check", refuse)
    monkeypatch.setattr(peirce.Algebra, "is_associative", refuse)

    def recorded(d, dim, ideal_dim, epsilon):
        # the payload printed while both verdicts were computed
        return {
            "degree": d,
            "dim": dim,
            "ideal_dim": ideal_dim,
            "star_rank": ideal_dim,
            "star_bijective": dim == ideal_dim,
            "associative": True,
            "action_through_corner": True,
            "ideal_unital": True,
            "epsilon": epsilon,
            "idempotent_ideal": True,
        }

    eps332 = ["1", "0", "0", "0", "1", "0", "0", "0", "1", "1", "1", "0", "0", "1"]
    cases = [
        (matrix_model(MM332), 0, recorded(0, 14, 14, eps332)),
        (matrix_model(MM332), 1, recorded(1, 14, 14, eps332)),
        (matrix_model(MM12), 0, recorded(0, 2, 2, ["1", "1"])),
        (matrix_model(MM12), 1, recorded(1, 1, 1, ["1", "0"])),
        (idempotent_family(3), 1, recorded(1, 9, 0, ["0", "0", "0"])),
    ]
    for p, d, expected in cases:
        assert json.dumps(_zigzag_payload(p, d)) == json.dumps(expected), (p.dims, d)


def _validated_degrees(algebras):
    """(p, d) for every degree d of every algebra p that passes
    validate_peirce."""
    for p in algebras:
        for d in range(p.max_degree + 1) if validate_peirce(p).ok else ():
            yield p, d


@functools.cache
def _verdict_sweep():
    """(algebras, pairs): the algebras of
    test_zigzag_verdicts_hold_on_every_validated_algebra and the (p, d) of
    _validated_degrees over them, built and validated once for every test
    that reads them."""
    models = [matrix_model(blocks) for blocks in (*ACCEPTANCE_BLOCKS, [[1, 1], [1, 1]])]
    algebras = (
        *(bad for _, bad in _mutation_sweep()),
        zero_edge_algebra(),
        dead_edge_algebra(),
        *(idempotent_family(n) for n in (1, 2, 3, 8)),
        *models,
        *(_changed_basis(p, random.Random(7)) for p in models),
        heisenberg_truncation(1, 3, [Fraction(0)]),
        heisenberg_truncation(2, 2, [Fraction(0), Fraction(0)]),
    )
    return algebras, tuple(_validated_degrees(algebras))


def test_zigzag_verdicts_hold_on_every_validated_algebra():
    """The differential check of what `peirce zigzag` and `peirce morita`
    read off validation: at every degree of every algebra here that passes
    validate_peirce, the computed action_through_A_check and
    is_associative of the zig-zag algebra both hold, the star images span
    the corner ideal (the printed star_rank), the computed split of the
    corner ideal holds with the printed epsilon, and the printed Morita
    payload is the computed roundtrip of the regular module, or the same
    refusal of its setup.  An edge quotient (d,0) (x) (0,d) read through
    the product map has as many independent images as its dimension, the
    rank validate_peirce reads off it.  The sweep takes the
    mutated models (none validates), the edge cases, the idempotent family
    (balanced fallback at degree 1), five matrix models with mm332 and mm12
    among them, each also in a random integer basis with fractional
    structure constants, and two boson truncations."""
    algebras, validated = _verdict_sweep()
    pairs = certified = 0
    morita = Counter()
    for p, d in validated:
        # validate_peirce reads the image rank of a quotient read through
        # the product map off its dimension; the Echelon agrees
        q = peirce._edge_quotient(p, d, 0)
        if q.relations is None:
            assert peirce._image_rank(p, d, q) == q.dim, (p.dims, d)
            certified += 1
        z = zigzag(p, d)
        check = action_through_A_check(z)
        assert check.ok and check.checked == z.dim**2, (p.dims, d, check.failures[:3])
        assert z.as_algebra().is_associative(), (p.dims, d)
        ideal = zd_ideal(p, d)
        # the star images span the ideal, so star_rank is printed as ideal_dim
        assert z.star_image().dim == ideal.dim, (p.dims, d)
        split = ideal_unit_and_split(p, ideal)
        printed = _zigzag_payload(p, d)
        assert split.ok and printed["epsilon"] == split.to_json()["epsilon"], (p.dims, d)
        assert printed["ideal_unital"] and printed["idempotent_ideal"] == split.idempotent_ideal
        computed = _solved(lambda: {"degree": d, **verify_roundtrip(p, d, regular_module(p, d)).to_json()})
        assert _solved(_morita_payload, p, d) == computed, (p.dims, d)
        morita[computed[0]] += 1
        pairs += 1
    assert (len(algebras), pairs, certified) == (342, 37, 33)
    assert morita == {"ok": 33, "ValueError": 4}


def test_zigzag_payload_never_calls_zd_ideal(monkeypatch):
    """`peirce zigzag` reads the corner ideal off the star images the
    zig-zag quotient already built, and never reduces the edge products
    again through zd_ideal."""

    def refuse(*args):
        raise AssertionError("the zig-zag payload reduced the edge products again")

    monkeypatch.setattr(peirce, "zd_ideal", refuse)
    for p in (matrix_model(MM332), matrix_model(MM12), idempotent_family(3), dead_edge_algebra()):
        for d in range(p.max_degree + 1):
            _zigzag_payload(p, d)


def test_zigzag_payload_ideal_is_zd_ideal():
    """The ideal `peirce zigzag` reads off the star images is zd_ideal, at
    every degree of every algebra of the verdict sweep that passes
    validate_peirce."""
    ideals = []
    ideal_unit = peirce._ideal_unit

    def recorded(p, ideal):
        ideals.append(ideal)
        return ideal_unit(p, ideal)

    pairs = 0
    for p, d in _verdict_sweep()[1]:
        with mock.patch.object(peirce, "_ideal_unit", recorded):
            _zigzag_payload(p, d)
        assert ideals.pop() == zd_ideal(p, d), (p.dims, d)
        pairs += 1
    assert pairs == 37 and not ideals


def test_pivot_reads_match_coords_of_on_every_validated_algebra():
    """The differential check of the coordinates read at the ideal's
    pivots: on every (p, d) of the zig-zag verdict sweep, the cells of
    _zd_algebra are the ones coords_of gives, every product inside the
    ideal; and where the Morita setup passes, _backward's extension of the
    forward module of the regular module to the whole corner is the one
    built through coords_of."""
    extended = 0
    for p, d in _verdict_sweep()[1]:
        ideal = zd_ideal(p, d)
        built = {}
        for a, za in enumerate(ideal.basis):
            for b, zb in enumerate(ideal.basis):
                coords = ideal.coords_of(p.product(0, 0, 0, za, zb))
                assert coords is not None, (p.dims, d)
                if coords:
                    built[(a, b)] = coords
        assert peirce._zd_algebra(p, ideal).cells == built, (p.dims, d)
        try:
            setup = peirce._require_morita_setup(p, d)
        except ValueError:
            continue
        _, ideal, eps, _ = setup
        w0 = peirce._forward(p, d, regular_module(p, d), setup)[0]
        seen = []
        with mock.patch.object(peirce, "_functor", lambda p, x, y, w_mod, *rest: seen.append(w_mod)):
            peirce._backward(p, d, w0, setup, True)
        ext = {}
        for a in range(p.dims[0][0]):
            coords = ideal.coords_of(p.product(0, 0, 0, eps, {a: 1}))
            assert coords is not None, (p.dims, d)
            for w in range(w0.dim):
                img = w0.apply(coords, {w: 1})
                if img:
                    ext[(a, w)] = img
        assert seen[0].table == ext, (p.dims, d)
        extended += 1
    assert extended == 33


def test_printed_morita_paths_test_no_membership():
    """On an algebra that passes validate_peirce, `peirce zigzag` and
    `peirce morita` read the corner ideal as two-sided, as associativity
    proves it, and read coordinates at its pivots: neither payload makes a
    Subspace.contains call."""
    calls = []
    contains = Subspace.contains

    def counted(self, v):
        calls.append(v)
        return contains(self, v)

    models = [matrix_model([[3, 2], [1, 3], [2, 1]]), matrix_model([[1, 2], [1, 0]]), matrix_model([[2, 1]])]
    algebras = [*models, _changed_basis(models[0], random.Random(7)), heisenberg_truncation(1, 3, [0])]
    payloads = 0
    for p, d in _validated_degrees(algebras):
        with mock.patch.object(Subspace, "contains", counted):
            for payload in (_zigzag_payload, _morita_payload):
                _solved(payload, p, d)
                payloads += 1
        assert not calls, (p.dims, d)
    assert payloads == 2 * 12


# each call of the peirce API that takes a degree d, given the algebra, d
# and a module over component(0,0)
DEGREE_CALLS = {
    "zigzag": lambda p, d, w: zigzag(p, d),
    "zd_ideal": lambda p, d, w: zd_ideal(p, d),
    "find_strong_identity": lambda p, d, w: find_strong_identity(p, d),
    "regular_module": lambda p, d, w: regular_module(p, d),
    "matrix_model_column_module": lambda p, d, w: matrix_model_column_module(p, 0, d),
    "morita_forward": lambda p, d, w: morita_forward(p, d, w),
    "morita_backward": lambda p, d, w: peirce.morita_backward(p, d, w),
    "verify_roundtrip": lambda p, d, w: verify_roundtrip(p, d, w),
}


@pytest.mark.parametrize("name", DEGREE_CALLS)
@pytest.mark.parametrize("d", [-1, 2])
def test_degree_out_of_range_is_refused(name, d):
    """A degree outside 0..D is refused with the CLI's message: -1 would
    read the last components through negative indexing, and D + 1 would
    raise IndexError."""
    p = matrix_model(MM332)
    with pytest.raises(ValueError, match=rf"^degree {d} out of range 0\.\.1$"):
        DEGREE_CALLS[name](p, d, regular_module(p, 0))


def _table(mats, side):
    """The product table of a module given by one dense action matrix per
    algebra basis element b, column w the image of e_w: keyed (b, w) on the
    left and (w, b) on the right, zero columns left out."""
    table = {}
    for b, mat in enumerate(mats):
        for w in range(len(mat)):
            col = exact.sparse([row[w] for row in mat])
            if col:
                table[(b, w) if side == "left" else (w, b)] = col
    return table


small = st.sampled_from([0, 0, 0, 1, -1, 2, Fraction(1, 2)])


@st.composite
def presentations(draw):
    """k, then one dense action matrix per basis element of a k-dimensional
    algebra for a right module and for a left module, honest or not."""
    k = draw(st.integers(1, 3))

    def mats(dim):
        return [[[draw(small) for _ in range(dim)] for _ in range(dim)] for _ in range(k)]

    return k, mats(draw(st.integers(0, 3))), mats(draw(st.integers(0, 3)))


@settings(max_examples=200, deadline=None)
@given(presentations(), st.data())
def test_sparse_module_kernels_match_dense(pres, data):
    """ModuleRep.apply on both sides and the projection of balanced_tensor
    on random presentations against the dense oracle: the matrix product,
    and the dense build with every relation reduced at once."""
    k, m_mats, n_mats = pres
    m, n = len(m_mats[0]), len(n_mats[0])
    alg, dalg = peirce.Algebra(k, {}), oracle.Algebra(k, [])
    m_rep = peirce.ModuleRep(alg, m, _table(m_mats, "right"), "right")
    n_rep = peirce.ModuleRep(alg, n, _table(n_mats, "left"), "left")
    dense_m = oracle.ModuleRep(dalg, m, m_mats, "right")
    dense_n = oracle.ModuleRep(dalg, n, n_mats, "left")
    assert oracle.dense_module(m_rep).action == m_mats
    assert oracle.dense_module(n_rep).action == n_mats

    x = data.draw(st.lists(small, min_size=k, max_size=k))
    for rep, dense_rep, dim in ((n_rep, dense_n, n), (m_rep, dense_m, m)):
        w = data.draw(st.lists(small, min_size=dim, max_size=dim))
        image = oracle.mat_mul(dense_rep.matrix(x), [[c] for c in w])
        # explicit zeros in the arguments are harmless
        applied = rep.apply(dict(enumerate(x)), dict(enumerate(w)))
        assert exact.dense(applied, dim) == [r[0] for r in image]

    q = balanced_tensor(m_rep, n_rep)
    dq = oracle.balanced_tensor(dense_m, dense_n)
    assert q.free == dq.free
    v = data.draw(st.lists(small, min_size=m * n, max_size=m * n))
    assert exact.dense(q.project(exact.sparse(v)), q.dim) == dq.project(v)


def test_find_strong_identity_matrix_model():
    p = matrix_model([2, 3])
    x = find_strong_identity(p, 1)
    assert x is not None
    x = exact.dense(x, p.dims[1][1])
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
    assert x == {}


def test_find_strong_identity_none_when_action_dies():
    assert find_strong_identity(dead_edge_algebra(), 1) is None


@pytest.mark.parametrize(
    "pos, message",
    [
        (0, "corner unit fails inside the square subalgebra"),
        (8, "identity fails on component (0,d)"),
        (32, "identity fails on component (d,0)"),
        (56, "identity fails on component (d,d)"),
    ],
)
def test_strong_identity_square_check_names_the_failing_component(pos, message):
    """A +1 change to one structure constant of matrix_model([2, 2]) breaks
    the two-sided identity of the square subalgebra on exactly one
    component, and find_strong_identity raises naming it."""
    p = matrix_model([2, 2])
    entries = p.entries()
    i, j, k, a, b, c, v = entries[pos]
    entries[pos] = (i, j, k, a, b, c, v + 1)
    bad = PeirceAlgebra(p.max_degree, p.dims, entries, p.unit0)
    with pytest.raises(ArithmeticError) as excinfo:
        find_strong_identity(bad, 1)
    assert type(excinfo.value) is ArithmeticError
    assert str(excinfo.value) == message


def test_ideal_split_two_blocks():
    p = matrix_model([[1, 2], [1, 0]])
    ideal = zd_ideal(p, 1)
    assert ideal.dim == 1
    split = ideal_unit_and_split(p, ideal)
    assert split is not None
    assert split.ok
    assert split.idempotent_ideal
    assert split.epsilon == {0: F1}
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
    assert split.epsilon == exact.sparse(p.unit0)
    assert split.complement.dim == 0


def test_ideal_split_zero_ideal():
    p = zero_edge_algebra()
    ideal = zd_ideal(p, 1)
    assert ideal.dim == 0
    split = ideal_unit_and_split(p, ideal)
    assert split is not None and split.ok
    assert split.epsilon == {}
    assert split.complement.dim == 1


def test_ideal_split_rejects_non_ideal():
    p = matrix_model([[1, 1], [1, 0]])
    # the span of the second block's corner unit alone is an ideal; a random
    # diagonal line mixing the blocks is not
    bad = Subspace((0, 0), 2, [{0: F1, 1: F1}])
    with pytest.raises(ValueError, match="^subspace is not a two-sided ideal$"):
        ideal_unit_and_split(p, bad)


def _one_sided_corner():
    """matrix_model([[1, 1], [1, 0], [1, 0]]) with e3 added to e2 * e1 and
    e3 * e3 and taken from e2 * e3 and e3 * e1, among the corner units
    e1, e2, e3: each row and each column of the change sums to 0, so
    unit0 = e1 + e2 + e3 still fixes the corner and the strong identity
    exists at degree 1, but (e2 * e2) * e1 = e3 while e2 * (e2 * e1) = -e3,
    and Z_1 = span(e1) is no two-sided ideal, as e2 * e1 = e3 lies outside
    it."""
    p = matrix_model([[1, 1], [1, 0], [1, 0]])
    change = [(1, 0, 1), (2, 2, 1), (1, 2, -1), (2, 0, -1)]
    entries = p.entries() + [(0, 0, 0, a, b, 2, v) for a, b, v in change]
    return PeirceAlgebra(p.max_degree, p.dims, entries, p.unit0)


def test_morita_setup_checks_the_ideal_of_a_non_associative_algebra():
    """The Morita setup trusts Z_d to be two-sided only on an associative
    algebra: on one that is not, every Morita call refuses a Z_d that is
    not, with the error ideal_unit_and_split gives it."""
    p = _one_sided_corner()
    assert not peirce._associative(p) and find_strong_identity(p, 1) is not None
    assert zd_ideal(p, 1).basis == [{0: 1}]
    regular, corner = regular_module(p, 1), regular_module(p, 0)
    calls = {
        "ideal_unit_and_split": lambda: ideal_unit_and_split(p, zd_ideal(p, 1)),
        "morita_forward": lambda: morita_forward(p, 1, regular),
        "morita_backward": lambda: peirce.morita_backward(p, 1, corner),
        "verify_roundtrip": lambda: verify_roundtrip(p, 1, regular),
    }
    for name, call in calls.items():
        with pytest.raises(ValueError, match="^subspace is not a two-sided ideal$"):
            call()


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
            assert oracle.dense_module(w, exact.dense(find_strong_identity(p, d), p.dims[d][d])).validate() == []
            report = verify_roundtrip(p, d, w)
            assert report.ok, (block, d, report)


def test_roundtrip_builds_the_morita_setup_once(monkeypatch):
    calls = []

    def counting(p, d):
        calls.append(d)
        return real(p, d)

    real = peirce._require_morita_setup
    monkeypatch.setattr(peirce, "_require_morita_setup", counting)
    p = matrix_model([[1, 2], [1, 1]])
    assert verify_roundtrip(p, 1, regular_module(p, 1)).ok
    assert calls == [1]


def test_morita_command_solves_for_the_strong_identity_once(monkeypatch):
    calls = []

    def counting(p, d):
        calls.append(d)
        return real(p, d)

    real = peirce.find_strong_identity
    monkeypatch.setattr(peirce, "find_strong_identity", counting)
    p = matrix_model([[1, 2], [1, 1]])
    for d in range(p.max_degree + 1):
        expected = verify_roundtrip(p, d, regular_module(p, d)).to_json()
        calls.clear()
        assert _morita_payload(p, d) == {"degree": d, **expected}
        assert calls == [d]


def test_forward_functor_dims():
    # pushing the column module of a block forward lands in a module over
    # the corner ideal whose dimension is the block's level-0 size
    p = matrix_model([[1, 2], [1, 1]])
    for block, expect in ((0, 1), (1, 1)):
        w = matrix_model_column_module(p, block, 1)
        w0 = morita_forward(p, 1, w)
        assert w0.dim == expect


def test_morita_forward_honours_the_declared_algebra():
    """A module declared over another algebra is refused, even when its
    action maps are those of an honest degree-d module."""
    p = matrix_model([[1, 2], [1, 1]])
    table = regular_module(p, 1).table
    foreign = ModuleRep(Algebra(5, {}), 5, table)
    for run in (lambda: morita_forward(p, 1, foreign), lambda: verify_roundtrip(p, 1, foreign)):
        with pytest.raises(ValueError, match="modules are not over the same algebra"):
            run()
    # the dimension check comes before the unital check, which applies the
    # strong identity
    at_zero = {key: img for key, img in table.items() if key[0] == 0}
    with pytest.raises(ValueError, match="not over the degree-d component"):
        morita_forward(p, 1, ModuleRep(Algebra(1, {}), 5, at_zero))


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
    assert exact.dense(x, len(expected)) == expected


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


def _outcome(build, *args):
    """The JSON and block dims of a built model, or the error it raised."""
    try:
        p = build(*args)
    except ValueError as exc:
        return "error", str(exc)
    return json.dumps(p.to_json_dict()), p.block_dims


ragged_blocks_st = st.one_of(
    st.lists(st.integers(min_value=-1, max_value=3), min_size=1, max_size=3),
    st.lists(
        st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=3),
        min_size=0,
        max_size=3,
    ),
)


@settings(max_examples=60, deadline=None)
@given(ragged_blocks_st)
@example([])
@example([[2, 0, 1], [1, 1]])
@example([[3, 2], [1, 3], [2, 1]])
def test_matrix_model_matches_the_triple_lookup(blocks):
    """The matrix-unit builder gives the model, entry order and block dims
    included, of the old (block, row, column) lookup; both reject the same
    inputs.  The lists take zero, empty and padded levels, and []."""
    assert _outcome(matrix_model, blocks) == _outcome(oracle.matrix_model, blocks)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=1, max_value=2),
    st.integers(min_value=0, max_value=3),
    st.data(),
)
def test_heisenberg_truncation_matches_the_pairing_loop(n, max_degree, data):
    coordinate = st.fractions(min_value=-5, max_value=5, max_denominator=7)
    point = data.draw(st.lists(coordinate, min_size=n, max_size=n))
    new = heisenberg_truncation(n, max_degree, point)
    assert json.dumps(new.to_json_dict()) == json.dumps(
        oracle.heisenberg_truncation(n, max_degree, point).to_json_dict()
    )
    assert new.block_dims is None


def _solved(solve, *args):
    """What an identity solve returned, or the type and text of what it
    raised."""
    try:
        return "ok", solve(*args)
    except (ValueError, ArithmeticError) as exc:
        return type(exc).__name__, str(exc)


def _checked_ideal_unit(p, ideal):
    """_ideal_unit on a subspace _require_two_sided has checked first, as
    ideal_unit_and_split runs them."""
    peirce._require_two_sided(p, ideal)
    return peirce._ideal_unit(p, ideal)


@st.composite
def solver_inputs(draw):
    """A matrix model with zero levels, a truncation with n <= 2, D <= 3 or
    the dead-edge algebra, with one structure constant raised by 1 half of
    the time, and a corner subspace: the degree-d ideal, or the span of one
    random corner vector."""
    family = draw(st.sampled_from(["matrix", "truncation", "dead"]))
    if family == "matrix":
        blocks = draw(
            st.lists(st.lists(st.integers(0, 2), min_size=1, max_size=3), min_size=1, max_size=3)
        )
        # a block with a nonzero level needs a nonzero level 0
        p = matrix_model([b if b[0] or not any(b) else [1, *b[1:]] for b in blocks])
    elif family == "truncation":
        n = draw(st.integers(1, 2))
        p = heisenberg_truncation(n, draw(st.integers(0, 3 if n == 1 else 2)), [0] * n)
    else:
        p = dead_edge_algebra()
    entries = p.entries()
    if entries and draw(st.booleans()):
        pos = draw(st.integers(0, len(entries) - 1))
        i, j, k, a, b, c, v = entries[pos]
        entries[pos] = (i, j, k, a, b, c, v + 1)
        p = PeirceAlgebra(p.max_degree, p.dims, entries, p.unit0)
    d = draw(st.integers(0, p.max_degree))
    n0 = p.dims[0][0]
    if draw(st.booleans()):
        ideal = zd_ideal(p, d)
    else:
        ideal = Subspace((0, 0), n0, [exact.sparse(draw(st.lists(small, min_size=n0, max_size=n0)))])
    return p, d, ideal


@settings(max_examples=150, deadline=None)
@given(solver_inputs())
@example((dead_edge_algebra(), 1, zd_ideal(dead_edge_algebra(), 1)))
@example((matrix_model([[1, 2], [1, 0]]), 1, zd_ideal(matrix_model([[1, 2], [1, 0]]), 1)))
def test_identity_solver_matches_the_hand_built_systems(inputs):
    """_identity_on, through find_strong_identity and _ideal_unit (after
    _require_two_sided), gives the sparse result, the None and the error of
    the old hand-built systems."""
    p, d, ideal = inputs
    assert _solved(peirce.find_strong_identity, p, d) == _solved(oracle.strong_identity, p, d)
    new = _solved(_checked_ideal_unit, p, ideal)
    if new[0] == "ok":
        new = "ok", new[1][0]
    assert new == _solved(oracle.ideal_unit, p, ideal)


def dual_numbers():
    """The corner Q[x]/(x^2) alone: basis 1, x, with x * x = 0."""
    entries = [(0, 0, 0, 0, 0, 0, 1), (0, 0, 0, 0, 1, 1, 1), (0, 0, 0, 1, 0, 1, 1)]
    return PeirceAlgebra(0, [[2]], entries, [1, 0])


@settings(max_examples=150, deadline=None)
@given(solver_inputs())
@example((dead_edge_algebra(), 1, zd_ideal(dead_edge_algebra(), 1)))
# the nilpotent ideal (x): two-sided, no internal unit, x * x = 0 spans less
@example((dual_numbers(), 0, Subspace((0, 0), 2, [{1: 1}])))
def test_idempotent_ideal_matches_the_span_of_products(inputs):
    """The rank of the ideal algebra's cells, which idempotent_ideal reads,
    decides whether the products z1 * z2 of the ideal's basis span the
    ideal, as the Subspace comparison did; on every two-sided ideal, with or
    without an internal unit."""
    p, _, ideal = inputs
    zs = ideal.basis
    squared = Subspace((0, 0), p.dims[0][0], [p.product(0, 0, 0, z1, z2) for z1 in zs for z2 in zs])
    solved = _solved(_checked_ideal_unit, p, ideal)
    if solved[0] != "ok":
        assert solved == ("ValueError", "subspace is not a two-sided ideal")
        return
    eps, alg = solved[1]
    assert (len(exact.Echelon(alg.cells.values())) == ideal.dim) == (squared == ideal)
    split = ideal_unit_and_split(p, ideal)
    assert (split is None) == (eps is None)
    if split is not None:
        assert split.idempotent_ideal == (squared == ideal)


def test_regular_module_is_its_component_table():
    for p in (matrix_model([[3, 2], [1, 3], [2, 1]]), heisenberg_truncation(1, 3, [0])):
        for d in range(p.max_degree + 1):
            assert regular_module(p, d).table is p.diagonal_algebra(d).cells


def test_column_module_needs_a_matrix_model():
    # a truncation pairs its units through the Wick pairing, not the identity
    p = heisenberg_truncation(1, 1, [Fraction(0)])
    with pytest.raises(ValueError, match="algebra was not built by matrix_model"):
        matrix_model_column_module(p, 0, 0)


@pytest.mark.parametrize("block", [-1, 2])
def test_column_module_block_must_exist(block):
    # -1 read the last block's size and gave a zero module; 2 an IndexError
    with pytest.raises(ValueError, match="out of range 0..1"):
        matrix_model_column_module(matrix_model([[1, 2], [1, 1]]), block, 1)


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


def _generated_ranks(p, components, gens):
    """Rank per component of the subalgebra the basis elements gens
    generate: products of every pair of spanning vectors, among the given
    components, until nothing new appears."""
    spans = {c: exact.Echelon() for c in components}
    vecs = {c: [] for c in components}
    new = [(i, j, {b: 1}) for i, j, b in gens]
    while new:
        for i, j, v in new:
            if spans[(i, j)].add(v):
                vecs[(i, j)].append(v)
        new = [
            (i, k, p.product(i, j, k, u, w))
            for (i, j), us in vecs.items()
            for (j2, k), ws in vecs.items()
            if j2 == j and (i, k) in spans
            for u in us
            for w in ws
        ]
        new = [(i, k, w) for i, k, w in new if w and spans[(i, k)].reduce(w)]
    return {c: len(span) for c, span in spans.items()}


def test_generators_span_every_component():
    """The kept basis elements generate each component: over every
    component together (Light's test) and over each diagonal component
    alone (the balancing relations of validate_peirce and zigzag)."""
    fixtures = [matrix_model(blocks) for blocks in ACCEPTANCE_BLOCKS]
    fixtures.append(heisenberg_truncation(1, 3, [Fraction(0)]))
    proper = 0
    for p in fixtures:
        r = range(p.max_degree + 1)
        choices = [[(i, j) for i in r for j in r]] + [[(d, d)] for d in r]
        for components in choices:
            kept = peirce._generators(p._prod, p.dims, components)
            gens = [(i, j, b) for (i, j), bs in kept.items() for b in bs]
            assert gens == sorted(gens) and all((i, j) in components for i, j, _ in gens)
            ranks = _generated_ranks(p, components, gens)
            assert ranks == {(i, j): p.dims[i][j] for i, j in components}, (p.dims, components)
            proper += len(gens) < sum(p.dims[i][j] for i, j in components)
    assert proper


def _light_agrees_with_scan(p):
    """Light's test flags p exactly when the full scan does."""
    r = range(p.max_degree + 1)
    gens = peirce._generators(p._prod, p.dims, [(i, j) for i in r for j in r])
    quads = list(itertools.product(r, repeat=4))
    light = peirce._first_nonassociative(p._prod, quads, gens) is None
    assert light == (peirce._first_nonassociative(p._prod, quads) is None)
    return light


def _invertible(rng, n):
    """A random n x n integer matrix with entries in -3..3 and its inverse."""
    while True:
        m = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        rows, pivots = exact.rref([row + [int(i == j) for j in range(n)] for i, row in enumerate(m)])
        if pivots == list(range(n)):
            return m, [row[n:] for row in rows]


def _changed_basis(p, rng):
    """p in the basis f_a = sum_x m[x][a] e_x of each component, for a
    random invertible integer matrix m per component; the structure
    constants and the unit come out with denominators."""
    r = range(p.max_degree + 1)
    mats = {(i, j): _invertible(rng, p.dims[i][j]) for i in r for j in r}
    entries = []
    for (i, j, k), table in p._prod.items():
        (m1, _), (m2, _), (_, inv) = mats[(i, j)], mats[(j, k)], mats[(i, k)]
        for a in range(p.dims[i][j]):
            for b in range(p.dims[j][k]):
                prod: dict = {}
                for (x, y), cell in table.items():
                    if m1[x][a] * m2[y][b]:
                        exact.add_multiple(prod, m1[x][a] * m2[y][b], cell)
                for c, row in enumerate(inv):
                    v = sum(row[t] * w for t, w in prod.items())
                    if v:
                        entries.append((i, j, k, a, b, c, v))
    inv0 = mats[(0, 0)][1]
    unit0 = [sum(x * u for x, u in zip(row, p.unit0)) for row in inv0]
    return PeirceAlgebra(p.max_degree, p.dims, entries, unit0)


small_block_st = st.lists(
    st.lists(st.integers(min_value=0, max_value=2), min_size=2, max_size=2).map(
        lambda b: [max(b[0], 1)] + b[1:]
    ),
    min_size=1,
    max_size=2,
).filter(lambda blocks: max(map(max, matrix_model(blocks).dims)) <= 5)


@settings(max_examples=25, deadline=None)
@given(
    small_block_st,
    st.integers(min_value=0, max_value=2**32),
    st.one_of(st.none(), st.tuples(st.integers(min_value=0), st.sampled_from([1, -1, Fraction(1, 2)]))),
)
def test_light_test_matches_full_scan_after_basis_change(blocks, seed, mutation):
    """A matrix model in a random integer basis, with or without one
    structure constant changed: Light's test flags it exactly when the
    full scan does, and the report is the dense oracle's.  When it
    validates, is_associative (Light's test) of each zig-zag algebra, whose
    structure constants have denominators, and of that algebra with one
    cell changed, is the full scan's verdict."""
    rng = random.Random(seed)
    p = _changed_basis(matrix_model(blocks), rng)
    if mutation is not None and p.entries():
        pos, delta = mutation
        entries = p.entries()
        i, j, k, a, b, c, v = entries[pos % len(entries)]
        entries[pos % len(entries)] = (i, j, k, a, b, c, v + delta)
        p = PeirceAlgebra(p.max_degree, p.dims, entries, p.unit0)
    light = _light_agrees_with_scan(p)
    assert mutation is not None or light
    report = validate_peirce(p)
    assert json.dumps(report.to_json()) == json.dumps(oracle.validate_peirce(p).to_json())
    for d in range(p.max_degree + 1) if report.ok else ():
        alg = zigzag(p, d).as_algebra()
        changed = dict(alg.cells)
        if alg.dim:
            key, t = (rng.randrange(alg.dim), rng.randrange(alg.dim)), rng.randrange(alg.dim)
            cell = dict(changed.get(key, {}))
            cell[t] = cell.get(t, 0) + rng.choice([1, -1, Fraction(1, 2)])
            changed[key] = {r: x for r, x in cell.items() if x}
        for cells in (alg.cells, changed):
            scan = peirce._first_nonassociative({(0, 0, 0): cells}, [(0, 0, 0, 0)]) is None
            assert Algebra(alg.dim, cells).is_associative() == scan
            assert scan or cells is changed


def _typed(tables):
    """The structure constants of product tables with their types, so that
    2 and Fraction(2) differ."""
    return {
        ijk: {key: {c: (type(x), x) for c, x in cell.items()} for key, cell in t.items()}
        for ijk, t in tables.items()
    }


@contextlib.contextmanager
def _kernel_types():
    """A list that records, for each call of peirce._first_nonassociative
    and of peirce._generators made inside the block, (name, the set of
    types of the structure constants of the tables it is given, what it
    returns)."""
    seen = []
    real = {"kernel": peirce._first_nonassociative, "generators": peirce._generators}

    def recording(name):
        def run(tables, *args):
            types = {type(x) for t in tables.values() for cell in t.values() for x in cell.values()}
            out = real[name](tables, *args)
            seen.append((name, types, out))
            return out

        return run

    peirce._first_nonassociative, peirce._generators = recording("kernel"), recording("generators")
    try:
        yield seen
    finally:
        peirce._first_nonassociative, peirce._generators = real["kernel"], real["generators"]


@settings(max_examples=25, deadline=None)
@given(
    small_block_st,
    st.integers(min_value=0, max_value=2**32),
    st.one_of(st.none(), st.tuples(st.integers(min_value=0), st.sampled_from([1, -1, Fraction(1, 2)]))),
)
def test_scaled_kernel_matches_the_fraction_kernel(blocks, seed, mutation):
    """A matrix model in a random integer basis, with or without one
    structure constant changed: _first_failure runs the associativity
    kernel and the generators on ints only, and returns what the kernel
    returns on the Fraction tables, with a middle (the generators, which
    come out the same) and without, over the quadruples with a table and
    over all of them; the tables come back equal in value and type."""
    p = _changed_basis(matrix_model(blocks), random.Random(seed))
    if mutation is not None and p.entries():
        pos, delta = mutation
        entries = p.entries()
        i, j, k, a, b, c, v = entries[pos % len(entries)]
        entries[pos % len(entries)] = (i, j, k, a, b, c, v + delta)
        p = PeirceAlgebra(p.max_degree, p.dims, entries, p.unit0)
    before = _typed(p._prod)
    r = range(p.max_degree + 1)
    components = list(itertools.product(r, repeat=2))
    kernel = peirce._first_nonassociative
    gens = peirce._generators(p._prod, p.dims, components)
    for quads in (list(peirce._quadruples(p._prod, p.max_degree)), list(itertools.product(r, repeat=4))):
        for light in (False, True):
            with _kernel_types() as seen:
                if light:
                    out = peirce._first_failure(p._prod, quads, p.dims, components)
                else:
                    out = peirce._first_failure(p._prod, quads)
            assert _typed(p._prod) == before
            assert out == kernel(p._prod, quads, gens if light else None)
            assert [name for name, _, _ in seen] == (["generators", "kernel"] if light else ["kernel"])
            assert all(types <= {int} for _, types, _ in seen)
            if light:
                assert seen[0][2] == gens


def test_long_common_denominator_stays_in_fractions():
    """A common denominator of up to _MAX_SCALE_BITS bits is applied, so
    the kernel and the generators see ints; a longer one, which would make
    every constant as long as itself, is not, and they see the Fractions.
    Either way _first_failure returns what the Fraction kernel returns,
    with a middle and without, and the tables come back as they were."""
    bits = peirce._MAX_SCALE_BITS
    for den, scaled in ((2 ** (bits - 1), True), (2**bits, False)):
        tables = {(0, 0, 0): {(0, 0): {0: Fraction(3, den), 1: 5}, (0, 1): {1: Fraction(1, 2)}}}
        before = _typed(tables)
        for dims in (None, [[2]]):
            middle = dims and peirce._generators(tables, dims, [(0, 0)])
            want = peirce._first_nonassociative(tables, [(0, 0, 0, 0)], middle)
            with _kernel_types() as seen:
                assert peirce._first_failure(tables, [(0, 0, 0, 0)], dims, [(0, 0)]) == want
            assert len(seen) == (1 if dims is None else 2)
            assert all((types == {int}) == scaled for _, types, _ in seen)
            assert _typed(tables) == before


def test_tables_are_restored_when_the_kernel_raises(monkeypatch):
    """The scaled constants are put back even when the check raises
    partway: c_mm12's tables, 88 of whose 122 constants are fractions,
    come back equal in value and type from a kernel that fails on the
    scaled ints."""
    path = Path(__file__).resolve().parent / "golden" / "cli" / "inputs" / "c_mm12.json"
    p = PeirceAlgebra.from_json_dict(json.loads(path.read_text()))
    before = _typed(p._prod)

    def failing(tables, quads, middle=None):
        assert all(type(x) is int for t in tables.values() for cell in t.values() for x in cell.values())
        raise RuntimeError("kernel")

    monkeypatch.setattr(peirce, "_first_nonassociative", failing)
    quads = list(peirce._quadruples(p._prod, p.max_degree))
    for dims, components in ((None, None), (p.dims, list(itertools.product(range(2), repeat=2)))):
        with pytest.raises(RuntimeError, match="kernel"):
            peirce._first_failure(p._prod, quads, dims, components)
        assert _typed(p._prod) == before
    assert any(t is Fraction for table in before.values() for cell in table.values() for t, _ in cell.values())


def test_light_test_matches_full_scan_on_boson_mutations():
    """Every structure constant of h13 raised by one: Light's test flags the
    same algebras as the full scan, and the report is unchanged."""
    p = heisenberg_truncation(1, 3, [Fraction(0)])
    assert _light_agrees_with_scan(p)
    entries = p.entries()
    flagged = 0
    for pos, (i, j, k, a, b, c, v) in enumerate(entries):
        mutated = list(entries)
        mutated[pos] = (i, j, k, a, b, c, v + 1)
        bad = PeirceAlgebra(p.max_degree, p.dims, mutated, p.unit0)
        flagged += not _light_agrees_with_scan(bad)
    assert flagged == len(entries)


KERNEL_COEFFS = [1, -1, 2, Fraction(1, 2), Fraction(-3, 2)]


@st.composite
def sparse_peirce_st(draw):
    """A random PeirceAlgebra with D <= 1 and every dimension <= 2, each
    possible entry filled with probability 1/4 and a coefficient from
    KERNEL_COEFFS, so some product tables exist on one side of a triple
    only; the unit is ignored by the associativity check."""
    r = range(draw(st.integers(min_value=0, max_value=1)) + 1)
    dims = [[draw(st.integers(min_value=0, max_value=2)) for _ in r] for _ in r]
    entries = []
    for i, j, k in itertools.product(r, repeat=3):
        cells = itertools.product(range(dims[i][j]), range(dims[j][k]), range(dims[i][k]))
        for a, b, c in cells:
            pick = draw(st.integers(min_value=0, max_value=4 * len(KERNEL_COEFFS) - 1))
            if pick < len(KERNEL_COEFFS):
                entries.append((i, j, k, a, b, c, KERNEL_COEFFS[pick]))
    return PeirceAlgebra(len(r) - 1, dims, entries, [1] * dims[0][0])


@settings(max_examples=300, deadline=None)
@given(sparse_peirce_st())
def test_associativity_kernel_matches_dense_oracle(p):
    """On sparse algebras with rational coefficients, the whole report of
    validate_peirce, tensor-factorization verdict and detail included, and
    is_associative of each diagonal algebra, are the dense oracle's."""
    assert json.dumps(validate_peirce(p).to_json()) == json.dumps(oracle.validate_peirce(p).to_json())
    for d in range(p.max_degree + 1):
        alg = p.diagonal_algebra(d)
        assert alg.is_associative() == oracle.dense_algebra(alg).is_associative()


DENSE14_REPORT = (
    '{"ok": false, "first_violation": "corner-unit", "axioms": {"grading": true, '
    '"corner-unit": false, "corner-modules-unital": false, "associativity": false, '
    '"tensor-factorization": false}, "details": {"grading": "product tensor is indexed by '
    'matched inner indices", "corner-unit": "unit0 fails on corner basis element 0", '
    '"corner-modules-unital": "right unit action fails on component (0,0)", '
    '"associativity": "fails on basis triple a=0,b=0,c=0 of components (0,0),(0,0),(0,0)", '
    '"tensor-factorization": "product map does not descend at degree 0"}}'
)


def test_dense_corner_descent_is_read_off_associativity(monkeypatch):
    """A dense random corner (dims [[14]], 2 370 nonzero products) fails
    every axiom but grading.  The product map fails to descend exactly
    where (d,0),(0,0),(0,d) do not associate, so the report is pinned byte
    for byte and no balanced tensor is built.  The full associativity scan
    fails on (0,0,0,0) itself, so descent is read off it: the kernel runs
    twice, for Light's test and the full scan, and never on its own."""
    calls = []
    real = peirce.balanced_tensor
    monkeypatch.setattr(peirce, "balanced_tensor", lambda *args: calls.append(1) or real(*args))
    scans = []
    kernel = peirce._first_nonassociative
    monkeypatch.setattr(peirce, "_first_nonassociative", lambda *args: scans.append(1) or kernel(*args))
    rng = random.Random(1)
    cube = itertools.product(range(14), repeat=3)
    p = PeirceAlgebra(0, [[14]], [(0, 0, 0, a, b, c, rng.randint(-3, 3)) for a, b, c in cube], [1] + [0] * 13)
    assert len(p.entries()) == 2370
    assert json.dumps(validate_peirce(p).to_json()) == DENSE14_REPORT
    assert not calls
    assert len(scans) == 2


def test_associativity_cap_counts_the_kernel(monkeypatch):
    """peirce._Tally predicts the scalar multiply-adds of the full
    associativity call (no middle), the call the cap bounds.  A
    non-associative algebra stops at its first failing (i,j,k,l), so the
    mutant has D = 0 and one quadruple, and runs in full."""
    work = 0

    def counting_add_multiple(dst, c, row):
        nonlocal work
        work += len(row)
        exact.add_multiple(dst, c, row)

    monkeypatch.setattr(peirce, "add_multiple", counting_add_multiple)
    dense5 = [(0, 0, 0, a, b, c, 1) for a in range(5) for b in range(5) for c in range(5)]
    mutant = matrix_model([3]).entries()
    mutant[4] = (*mutant[4][:6], 2)
    fixtures = [
        matrix_model([[1, 2], [1, 0]]),
        matrix_model([[3, 2], [1, 3], [2, 1]]),
        heisenberg_truncation(1, 4, [Fraction(0)]),
        matrix_model([2, 2]),
        PeirceAlgebra(0, [[5]], dense5, [0] * 5),
        PeirceAlgebra(0, [[9]], mutant, matrix_model([3]).unit0),
    ]
    counts = []
    for p in fixtures:
        work = 0
        bad = peirce._first_nonassociative(p._prod, itertools.product(range(p.max_degree + 1), repeat=4))
        assert (bad is None) == (p is not fixtures[-1])
        tally = peirce._Tally()
        for entry in p.entries():
            tally.add(entry)
        assert work == tally.sizes(p.unit0)[1]
        counts.append(work)
    assert counts[:4] == [164, 1924, 41472, 512]


def _sparse_sweep():
    """Algebras with empty components and with a failing product: every
    tenth structure constant of heisenberg_truncation(1, 3) and every
    structure constant of matrix_model([[1, 0, 2], [2, 1, 0]]) changed by
    one, and the two unchanged."""
    for p in (heisenberg_truncation(1, 3, [F0]), matrix_model([[1, 0, 2], [2, 1, 0]])):
        yield p
        entries = p.entries()
        for pos in range(0, len(entries), 10 if p.max_degree == 3 else 1):
            mutated = list(entries)
            mutated[pos] = (*entries[pos][:6], entries[pos][6] + 1)
            yield PeirceAlgebra(p.max_degree, p.dims, mutated, p.unit0)


def test_scan_visits_only_quadruples_with_a_table(monkeypatch):
    """The associativity scans pass the kernel only the (i,j,k,l) whose
    table (i,j,k) or (j,k,l) exists, at most 2 (D+1) per table, and on every
    other quadruple both sides are zero: so a max_degree-60 corner with one
    product visits 121 quadruples, not 61^4 (37 s of scanning before), and
    the first failure, with a middle or without, is the one a scan over
    every quadruple finds."""
    kernel = peirce._first_nonassociative
    visited = []

    def counting(tables, quads, middle=None):
        quads = list(quads)
        visited.append(quads)
        return kernel(tables, quads, middle)

    monkeypatch.setattr(peirce, "_first_nonassociative", counting)
    d = 60
    dims = [[0] * (d + 1) for _ in range(d + 1)]
    dims[0][0] = 1
    p = PeirceAlgebra(d, dims, [(0, 0, 0, 0, 0, 0, 1)], [1])
    assert validate_peirce(p).ok
    assert [len(quads) for quads in visited] == [2 * d + 1] and 2 * d + 1 <= 2 * len(p._prod) * (d + 1)
    assert visited[0] == sorted(visited[0])

    failures = 0
    for p in _sparse_sweep():
        every = list(itertools.product(range(p.max_degree + 1), repeat=4))
        quads = list(peirce._quadruples(p._prod, p.max_degree))
        assert quads == sorted(quads) and len(quads) <= 2 * len(p._prod) * (p.max_degree + 1)
        r = range(p.max_degree + 1)
        gens = peirce._generators(p._prod, p.dims, itertools.product(r, repeat=2))
        for middle in (None, gens):
            first = kernel(p._prod, quads, middle)
            assert first == kernel(p._prod, every, middle)
        failures += first is not None
        visited.clear()
        failure = peirce._associativity_failure(p)
        assert failure == kernel(p._prod, every)
        assert all(q == quads for q in visited)
    assert failures == 89  # every mutant of the 91 algebras


def _traced(build):
    """(build(), traced size, traced peak) of one call under tracemalloc.
    The freelists are emptied first, as a full collection does, and the
    collector is off during the call, so every block the call takes is
    counted whatever ran before: otherwise the algebra's size read up to a
    third low when its tuples came off a freelist, and validate_peirce's
    peak over it reached 1.15 when a collection fell between the two."""
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        out = build()
        size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        gc.enable()
    return out, size, peak


def test_building_and_validating_hold_about_one_algebra():
    """On heisenberg_truncation(1, 4, [0]), 1 728 products, the constructor
    peaks at most 1.25 times the algebra it returns (1.12 measured; 2.5
    when it shared cells after storing them unshared), validate_peirce at
    most once the algebra (0.77; 2.1 with every table grouped both ways
    for the whole scan), and the full associativity scan, with no middle,
    which runs only after Light's test fails, at most 1.5 times (1.14: it
    keeps the rows of every table by first factor for the whole scan).
    Ratios of tracemalloc figures, so they hold across Python versions."""
    h14 = heisenberg_truncation(1, 4, [F0])
    entries = h14.entries()
    p, size, peak = _traced(lambda: PeirceAlgebra(h14.max_degree, h14.dims, entries, h14.unit0))
    assert peak <= 1.25 * size, (peak, size)
    report, _, peak = _traced(lambda: validate_peirce(p))
    assert report.ok
    assert peak <= size, (peak, size)
    quads = list(peirce._quadruples(p._prod, p.max_degree))
    first, _, peak = _traced(lambda: peirce._first_nonassociative(p._prod, quads))
    assert first is None
    assert peak <= 1.5 * size, (peak, size)


def test_generator_walk_drops_each_full_span():
    """_generators, the walk Light's test starts with, drops a component's
    Echelon once the component's span is full, as nothing is added to or
    tested against it after that: on heisenberg_truncation(1, 4, [0]) the
    walk peaks at most 0.5 times the algebra (0.40 measured; 0.59 with
    every Echelon kept to the end).  Ratios of tracemalloc figures."""
    h14 = heisenberg_truncation(1, 4, [F0])
    entries = h14.entries()
    p, size, _ = _traced(lambda: PeirceAlgebra(h14.max_degree, h14.dims, entries, h14.unit0))
    r = range(p.max_degree + 1)
    gens, _, peak = _traced(lambda: peirce._generators(p._prod, p.dims, itertools.product(r, repeat=2)))
    assert gens and peak <= 0.5 * size, (peak, size)


def test_integer_scaling_does_not_raise_the_validation_peak():
    """c_mm32, matrix_model([[3, 2], [2, 1]]) in a random integer basis,
    has structure constants with denominators.  validate_peirce runs its
    associativity kernel on the tables scaled to ints in place, and peaks
    at most 0.25 times the algebra above it (0.05 measured; 0.66 with the
    scale forced to 1, the Fraction tables): ints are smaller than
    Fractions, and no second copy of the tables is held.  The algebra is
    built under tracemalloc too, so the Fractions the scaling frees
    count."""
    base = _changed_basis(matrix_model([[3, 2], [2, 1]]), random.Random(7))
    entries = base.entries()
    tracemalloc.start()
    try:
        p = PeirceAlgebra(base.max_degree, base.dims, entries, base.unit0)
        size = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        assert validate_peirce(p).ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert any(type(v) is Fraction for *_, v in p.entries())
    assert peak - size <= 0.25 * size, (peak, size)


def test_light_failure_is_smallest_over_middle_elements():
    """e0 e1 = e0 and e1 e0 = e1: middle element b = 0 fails only at a = 1
    and b = 1 fails at a = 0.  The kernel holds one b at a time, yet names
    the smallest failing triple over every b, with or without a middle and
    whatever its order; stopping at the first failing b would give
    (1, 0, 0)."""
    cells = {(0, 1): {0: 1}, (1, 0): {1: 1}}
    tables = {(0, 0, 0): cells}
    for middle in (None, {(0, 0): [0, 1]}, {(0, 0): [1, 0]}):
        assert peirce._first_nonassociative(tables, [(0, 0, 0, 0)], middle) == (0, 0, 0, 0, 0, 1, 0)
    assert not Algebra(2, cells).is_associative()


@st.composite
def certificate_inputs(draw):
    """A matrix model with D = 1, in a random integer basis half of the
    time, a truncation with n <= 2, the idempotent family, or a mutant of
    the mutation sweep."""
    family = draw(st.sampled_from(["matrix", "truncation", "idempotent", "mutant"]))
    if family == "matrix":
        p = matrix_model(draw(small_block_st))
        if draw(st.booleans()):
            p = _changed_basis(p, random.Random(draw(st.integers(0, 2**32))))
        return p
    if family == "truncation":
        n = draw(st.integers(1, 2))
        return heisenberg_truncation(n, draw(st.integers(0, 3 if n == 1 else 2)), [0] * n)
    if family == "idempotent":
        return idempotent_family(draw(st.integers(1, 3)))
    pos = draw(st.integers(0, 323))
    return next(itertools.islice(_mutation_sweep(), pos, None))[1]


def identity_without_products():
    """Component (1,1) spanned by an element s that is an identity on both
    edges, every product of the edges zero: associative, with the strong
    identity s and the zero corner ideal (unit 0), but the degree-1 product
    map is not onto, and eps = 0 is no left identity on component(0,1)."""
    products = [(0, 0, 0), (0, 0, 1), (1, 0, 0), (0, 1, 1), (1, 1, 0), (1, 1, 1)]
    return PeirceAlgebra(1, [[1, 1], [1, 1]], [(*ijk, 0, 0, 0, 1) for ijk in products], [1])


def spanning_edges():
    """Two-dimensional edges whose one nonzero product v_0 u_0 = w spans
    component (1,1) = k w, while their balanced tensor over A = k has
    dimension 4; (1,1) acts on neither edge, so no element of the span of
    the products is a left identity on (1,0)."""
    entries = [(0, 0, 0, 0, 0, 0, 1), (1, 0, 1, 0, 0, 0, 1)]
    entries += [(0, 0, 1, 0, a, a, 1) for a in range(2)] + [(1, 0, 0, a, 0, a, 1) for a in range(2)]
    return PeirceAlgebra(1, [[1, 2], [2, 1]], entries, [1])


def lower_triangular():
    """Corner k, edges the column vectors k^2 and the row vector e_1^T,
    component (1,1) the lower triangular 2 x 2 matrices E11, E21, E22, all
    multiplied as matrices.  The strong identity E11 + E22 is not in the
    span of the products v u, which holds no left identity on e_2."""
    entries = [(0, 0, 0, 0, 0, 0, 1), (0, 0, 1, 0, 0, 0, 1), (0, 1, 0, 0, 0, 0, 1)]
    entries += [(1, 0, 0, a, 0, a, 1) for a in range(2)] + [(0, 1, 1, 0, 0, 0, 1)]
    entries += [(1, 0, 1, 0, 0, 0, 1), (1, 0, 1, 1, 0, 1, 1)]
    entries += [(1, 1, 0, a, b, c, 1) for a, b, c in ((0, 0, 0), (1, 0, 1), (2, 1, 1))]
    entries += [(1, 1, 1, a, b, c, 1) for a, b, c in ((0, 0, 0), (1, 0, 1), (2, 1, 1), (2, 2, 2))]
    return PeirceAlgebra(1, [[1, 1], [2, 3]], entries, [1])


def _mm22_perturbed():
    """The mutant of acceptance test 4, entry 7 of matrix_model([2, 2])
    plus one (the benchmark's mm22_perturbed.json)."""
    return next(bad for case, bad in _mutation_sweep() if case == ([2, 2], 7, 1))


def _zigzag_view(z):
    return z.space.free, list(z.product.items()), z.star, action_through_A_check(z).to_json()


def _module_view(w):
    return w.dim, list(w.table.items())


def _report_view(report):
    return json.dumps(report.to_json())


def _certified_against_balanced(p, calls):
    """Assert that validate_peirce, zigzag, morita_forward, morita_backward
    and verify_roundtrip on p give what the oracle's balanced copies give,
    key order included, or raise the same error, and, when p validates,
    that the regular roundtrip is the payload `peirce morita` prints;
    return the set of (stage, certified) they took, certified when the
    library run built no balanced tensor."""
    taken = set()

    def same(stage, view, run, balanced, *args):
        start = len(calls)
        new = _solved(run, *args)
        taken.add((stage, len(calls) == start))
        old = _solved(balanced, *args)
        new, old = [(r[0], view(r[1])) if r[0] == "ok" else r for r in (new, old)]
        assert new == old, (stage, p.dims, args[1:])
        return new

    validated = same("validate", _report_view, validate_peirce, oracle.balanced_validate_peirce, p)
    valid = validated[0] == "ok" and json.loads(validated[1])["ok"]
    for d in range(p.max_degree + 1):
        same("zigzag", _zigzag_view, zigzag, oracle.balanced_zigzag, p, d)
        modules = [regular_module(p, d)]
        if p.block_dims is not None:
            modules += [matrix_model_column_module(p, b, d) for b in range(len(p.block_dims))]
        for w in modules:
            same("forward", _module_view, morita_forward, oracle.balanced_morita_forward, p, d, w)
            roundtrip = same("roundtrip", _report_view, verify_roundtrip, oracle.balanced_verify_roundtrip, p, d, w)
            if valid and w is modules[0]:
                # the payload `peirce morita` prints, less its degree
                printed = _solved(_morita_payload, p, d)
                if printed[0] == "ok":
                    printed = "ok", json.dumps({k: v for k, v in printed[1].items() if k != "degree"})
                assert printed == roundtrip, (p.dims, d)
        forward = _solved(morita_forward, p, d, modules[0])
        if forward[0] == "ok":
            w0 = forward[1]
            same("backward", _module_view, peirce.morita_backward, oracle.balanced_morita_backward, p, d, w0)
    return taken


def test_certified_paths_match_the_balanced_tensors(monkeypatch):
    """Where a Morita-context certificate holds, the quotient is read off
    through the product map instead of its balancing relations (module
    docstring of peirce); where it fails, the relations are reduced as
    before.  Either way every report, free column, zig-zag product, corner
    image, check and module is the balanced one, and the draws take both
    paths at every stage."""
    calls = []
    real = peirce.balanced_tensor

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(peirce, "balanced_tensor", counting)
    taken = set()

    @settings(max_examples=60, deadline=None)
    @given(certificate_inputs())
    @example(_mm22_perturbed())
    @example(idempotent_family(2))
    @example(_changed_basis(matrix_model([[1, 2], [1, 0]]), random.Random(7)))
    @example(heisenberg_truncation(1, 3, [0]))
    @example(identity_without_products())
    @example(spanning_edges())
    @example(lower_triangular())
    def check(p):
        taken.update(_certified_against_balanced(p, calls))

    check()
    stages = {"validate", "zigzag", "forward", "backward", "roundtrip"}
    assert {stage for stage, _ in taken} == stages
    assert taken == {(stage, certified) for stage in stages for certified in (True, False)}


def _wrong_unit_corner():
    """matrix_model([2]) with unit0 E_11, which is no unit, while
    E_11 + E_22 is one."""
    p = matrix_model([2])
    return PeirceAlgebra(0, p.dims, p.entries(), [1, 0, 0, 0])


def test_degree_zero_is_read_off_the_corner_unit(monkeypatch):
    """validate_peirce builds no degree-0 quotient where corner-unit passes,
    as c -> c (x) unit0 inverts the product map there (validate_peirce
    docstring), and builds one where it fails and the map descends; every
    report over the mutation sweep and the special algebras is the one the
    balanced oracle gives.  The corner with a wrong unit0 but another unit
    takes its degree-0 verdict from the quotient read through the product
    map, and passes it."""
    built = []
    real = peirce._edge_quotient
    monkeypatch.setattr(peirce, "_edge_quotient", lambda p, x, y: built.append((x, y)) or real(p, x, y))
    tensors = []
    tensor = peirce.balanced_tensor
    monkeypatch.setattr(peirce, "balanced_tensor", lambda *args: tensors.append(1) or tensor(*args))
    special = [
        zero_edge_algebra(),
        dead_edge_algebra(),
        dual_numbers(),
        identity_without_products(),
        spanning_edges(),
        lower_triangular(),
        _wrong_unit_corner(),
        *(idempotent_family(n) for n in (1, 2, 3)),
        *(matrix_model(blocks) for blocks in ACCEPTANCE_BLOCKS),
        heisenberg_truncation(1, 3, [0]),
        heisenberg_truncation(2, 2, [0, 0]),
    ]
    seen = Counter()
    for p in [*(bad for _, bad in _mutation_sweep()), *special]:
        built.clear()
        report = validate_peirce(p)
        assert json.dumps(report.to_json()) == json.dumps(oracle.balanced_validate_peirce(p).to_json())
        unit = report.axioms["corner-unit"]
        descends = "descend at degree 0" not in report.details.get("tensor-factorization", "")
        assert ((0, 0) in built) == (not unit and descends), (p.dims, report.details)
        seen[unit, (0, 0) in built] += 1
    assert seen[True, False] and seen[False, True], seen

    p = _wrong_unit_corner()
    built.clear()
    tensors.clear()
    report = validate_peirce(p)
    assert (built, tensors) == ([(0, 0)], [])
    assert report.first_violation == "corner-unit" and report.axioms["tensor-factorization"]


def test_dishonest_module_takes_the_balanced_path():
    """A column module whose non-generator E_12 of component (1,1) acts
    wrongly breaks the module axiom, so the forward functor reduces every
    balancing relation, as before the certificates: the tensor collapses,
    and the roundtrip reports what the balanced copies report."""
    p = matrix_model([[1, 3]])
    assert 5 not in peirce._generators(p._prod, p.dims, [(1, 1)])[(1, 1)]  # E_12 = E_10 E_02
    w = matrix_model_column_module(p, 0, 1)
    table = dict(w.table)
    table[(5, 2)] = {1: 1, 0: 1}  # E_12 e_2 = e_1, plus e_0
    bad = ModuleRep(w.algebra, w.dim, table)
    assert peirce._honest(p, 1, w) and not peirce._honest(p, 1, bad)
    report = verify_roundtrip(p, 1, bad).to_json()
    assert report == oracle.balanced_verify_roundtrip(p, 1, bad).to_json()
    assert report == {
        "ok": False,
        "dim_start": 3,
        "dim_forward": 0,
        "dim_back": 0,
        "bijective": False,
        "equivariant": True,
    }
    forward = morita_forward(p, 1, bad)
    assert _module_view(forward) == _module_view(oracle.balanced_morita_forward(p, 1, bad)) == (0, [])
    # over the one-dimensional corner ideal k z, z e_1 = e_0 + e_1 gives
    # z (z e_1) = 2 e_0 + e_1, not (z z) e_1
    honest = morita_forward(p, 1, w)
    z_module = ModuleRep(honest.algebra, 2, {(0, 0): {0: 1}, (0, 1): {0: 1, 1: 1}})
    back = peirce.morita_backward(p, 1, z_module)
    assert _module_view(back) == _module_view(oracle.balanced_morita_backward(p, 1, z_module))


def test_backward_honesty_is_checked_over_the_corner_ideal(monkeypatch):
    """The backward functor checks the module axiom of W0 extended to the
    corner, on corner generators.  On matrix models, whose other
    certificate conditions hold, it takes the certified path exactly when
    the full module-axiom check of W0 over the corner ideal passes, and
    gives the balanced answer either way; the draws see both verdicts."""
    calls = []
    real = peirce.balanced_tensor
    monkeypatch.setattr(peirce, "balanced_tensor", lambda *args: calls.append(1) or real(*args))
    verdicts = set()

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def check(data):
        p = matrix_model(data.draw(st.sampled_from(([[1, 2], [1, 0]], [[2, 1]], [[1, 1], [2, 1]]))))
        d = data.draw(st.integers(0, p.max_degree))
        w0 = morita_forward(p, d, regular_module(p, d))
        table = dict(w0.table)
        for _ in range(data.draw(st.integers(0, 2))):
            key = (data.draw(st.integers(0, w0.algebra.dim - 1)), data.draw(st.integers(0, w0.dim - 1)))
            table[key] = {r: c for r in range(w0.dim) if (c := data.draw(st.integers(-1, 1)))}
        w0 = ModuleRep(w0.algebra, w0.dim, {key: img for key, img in table.items() if img})
        full = {(0, 0, 0): w0.algebra.cells, (0, 0, 1): w0.table}
        honest = peirce._first_nonassociative(full, itertools.product(range(2), repeat=4)) is None
        calls.clear()
        back = peirce.morita_backward(p, d, w0)
        assert (not calls) == honest
        assert _module_view(back) == _module_view(oracle.balanced_morita_backward(p, d, w0))
        verdicts.add(honest)

    check()
    assert verdicts == {True, False}


def test_generators_serve_light_test_and_honesty_only(monkeypatch):
    """Generators are searched for Light's test and for the module axiom of
    _honest, never for a balanced tensor.  On the idempotent family
    component (1,1) acts by zero on both edges, so no left identity on
    (1,0) or (0,1) lies in the span of the products, and validate_peirce
    and zigzag(p, 1) each build a balanced tensor from every relation,
    after the one search of Light's test over every component.  On mm332
    the first morita_forward of a column module searches for Light's test
    and for the honesty check over (1,1); a second call, Light's verdict
    kept, searches once more for honesty."""
    searches = []
    real = peirce._generators

    def counting(tables, dims, components):
        searches.append(1)
        return real(tables, dims, components)

    tensors = []
    tensor = peirce.balanced_tensor
    monkeypatch.setattr(peirce, "_generators", counting)
    monkeypatch.setattr(peirce, "balanced_tensor", lambda *args: tensors.append(1) or tensor(*args))
    p = idempotent_family(2)
    assert validate_peirce(p).ok
    zigzag(p, 1)
    assert (len(tensors), len(searches)) == (2, 1)

    searches.clear()
    p = matrix_model([[3, 2], [1, 3], [2, 1]])
    w = matrix_model_column_module(p, 0, 1)  # not the regular module
    first = morita_forward(p, 1, w)
    assert len(searches) == 2
    second = morita_forward(p, 1, w)
    assert len(searches) == 3
    assert _module_view(first) == _module_view(second)
    assert _module_view(first) == _module_view(oracle.balanced_morita_forward(p, 1, w))


def test_left_action_matches_the_pair_loops():
    """The zig-zag product and the left route of the action check read the
    quotient through _left_action, and the check's right route skips zero
    corner images.  Over the mutation sweep and the special algebras, at
    every degree, the product table, key order included, and the check
    report are those of the oracle's loops over every pair, and some
    checks fail."""
    special = [idempotent_family(n) for n in (1, 2, 3)] + [
        identity_without_products(),
        spanning_edges(),
        lower_triangular(),
        _changed_basis(matrix_model([[1, 2], [1, 0]]), random.Random(7)),
    ]
    zigzags = failing = 0
    for p in itertools.chain((bad for _, bad in _mutation_sweep()), special):
        for d in range(p.max_degree + 1):
            z = zigzag(p, d)
            assert list(z.product.items()) == list(oracle.zigzag_product(p, d, z.space).items())
            check = action_through_A_check(z).to_json()
            assert check == oracle.action_through_A_check(z).to_json()
            zigzags += 1
            failing += not check["ok"]
    assert (zigzags, failing) == (662, 83)


def test_zigzag_product_is_built_on_first_read(monkeypatch):
    """`peirce zigzag` never reads the zig-zag product, so its payload makes
    no _left_action call; the first read of ZigZag.product makes one, and
    later reads return the same table."""
    calls = []
    real = peirce._left_action
    monkeypatch.setattr(peirce, "_left_action", lambda *a: calls.append(1) or real(*a))
    mm332 = matrix_model([[3, 2], [1, 3], [2, 1]])
    for d in (0, 1):
        _zigzag_payload(mm332, d)
    assert calls == []
    z = zigzag(mm332, 1)
    assert calls == []
    product = z.product
    assert len(calls) == 1 and product and z.product is product


def test_zero_actions_are_not_projected(monkeypatch):
    """_left_action makes each acting vector once per acting element and
    left index and projects only nonzero ones.  On the idempotent family
    every zig-zag product and corner image is zero, so the product and its
    check project nothing, against 768 projections in the oracle's pair
    loops; on mm332 they project 268 times, against 588."""
    mm332 = matrix_model([[3, 2], [1, 3], [2, 1]])
    q = zigzag(mm332, 1).space
    acts = []
    peirce._left_action(q, 3, lambda t, u: acts.append((t, u)) or {u: 1})
    lefts = sorted({q.lift_pair(qq)[0] for qq in range(q.dim)})
    assert len(lefts) < q.dim and acts == [(t, u) for t in range(3) for u in lefts]

    calls = []
    real = peirce.TensorQuotient.project_tensor
    monkeypatch.setattr(peirce.TensorQuotient, "project_tensor", lambda q, x, y: calls.append(1) or real(q, x, y))
    for p, d, new, old in ((idempotent_family(4), 1, 0, 768), (mm332, 0, 268, 588), (mm332, 1, 268, 588)):
        calls.clear()
        z = zigzag(p, d)
        action_through_A_check(z)
        assert len(calls) == new
        calls.clear()
        oracle.zigzag_product(p, d, z.space)
        oracle.action_through_A_check(z)
        assert len(calls) == old
