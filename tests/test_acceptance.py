"""Acceptance gate: eight end-to-end checks, all exact, zero tolerance.

Each test prints one ACCEPTANCE k PASS/FAIL line on the real stdout so the
verdicts survive pytest's capture (run with -v -s to watch them live).
"""

import json
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from mta.cli import main as cli_main
from mta.exact import add_multiple, dense
from mta.heisenberg import (
    pairing_matrix,
    rank_certificate,
    strong_identity,
    verify_strong_identity,
)
from mta.lattice import EvenLattice, conformal_weight, dual_cosets, graded_dims
from mta.partitions import (
    enumerate_labeled_partitions,
    labeled_partition_count,
    symmetry_factor,
)
from mta.peirce import (
    PeirceAlgebra,
    Subspace,
    action_through_A_check,
    find_strong_identity,
    heisenberg_truncation,
    ideal_unit_and_split,
    matrix_model,
    matrix_model_column_module,
    regular_module,
    validate_peirce,
    verify_roundtrip,
    zd_ideal,
    zigzag,
)
from mta.zhu import exceptional_degrees

F0 = Fraction(0)


@pytest.fixture
def announce(capsys):
    @contextmanager
    def _run(k):
        try:
            yield
        except BaseException:
            with capsys.disabled():
                print(f"ACCEPTANCE {k} FAIL")
            raise
        else:
            with capsys.disabled():
                print(f"ACCEPTANCE {k} PASS")

    return _run


def standard_fixtures():
    """Matrix models with up to three blocks and dims up to three."""
    return [
        matrix_model([2, 3]),
        matrix_model([[1, 2], [1, 0]]),
        matrix_model([[1, 1, 2], [2, 1, 0], [1, 0, 1]]),
        matrix_model([[3, 2], [1, 3], [2, 1]]),
    ]


def test_acceptance_1_strong_identity_pairing(announce):
    with announce(1):
        for n, d_max in ((1, 6), (2, 4)):
            for d in range(d_max + 1):
                start = time.perf_counter()
                labels, matrix = pairing_matrix(n, d)
                report = verify_strong_identity(n, d)
                elapsed = time.perf_counter() - start
                assert elapsed < 60, f"(n={n}, d={d}) took {elapsed:.1f}s"
                assert report.ok, report.mismatches
                assert len(labels) == labeled_partition_count(n, d)
                for i, sigma in enumerate(labels):
                    for j in range(len(labels)):
                        entry = matrix[i][j]
                        if i == j:
                            assert entry.is_constant()
                            assert entry.constant_value() == symmetry_factor(sigma)
                        else:
                            assert entry.is_zero()


def test_acceptance_2_block_sizes(announce, capsys):
    with announce(2):
        expected = {(1, 5): [1, 1, 2, 3, 5, 7], (2, 3): [1, 2, 5, 10]}
        for (n, d), sizes in expected.items():
            code = cli_main(
                ["zhu", "heisenberg", "--rank", str(n), "--degree", str(d)]
            )
            out = capsys.readouterr().out
            assert code == 0
            data = json.loads(out)
            got = [f["size"] for level in data["blocks"] for f in level["factors"]]
            assert got == sizes
            # independent cross-check of every block size
            for j, size in enumerate(sizes):
                cert = rank_certificate(n, j)
                assert cert.independent
                assert cert.count == size


def test_acceptance_3_lattice_worked_example(announce, capsys, tmp_path):
    with announce(3):
        start = time.perf_counter()
        lattice = EvenLattice.from_rows([[8]])
        cosets = dual_cosets(lattice)
        weights = [conformal_weight(lattice, c.vector) for c in cosets]
        expect = ["0", "1/16", "1/4", "9/16", "1", "9/16", "1/4", "1/16"]
        assert weights == [Fraction(w) for w in expect]
        assert graded_dims(lattice, cosets[4].vector, 0) == [2]
        for k in (1, 2, 3, 5, 6, 7):
            assert graded_dims(lattice, cosets[k].vector, 0) == [1]
        assert graded_dims(lattice, cosets[0].vector, 1) == [1, 1]
        gram = tmp_path / "det8.gram"
        gram.write_text("1\n8\n")
        code = cli_main(
            ["lattice", "dims", "--gram", str(gram), "--coset", "4", "--max", "0"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert json.loads(out) == {"coset": 4, "conformal_weight": "1", "dims": [2]}
        elapsed = time.perf_counter() - start
        assert elapsed < 5, f"took {elapsed:.1f}s"


def test_acceptance_4_axioms_and_roundtrips(announce):
    with announce(4):
        for p in standard_fixtures():
            assert validate_peirce(p).ok
            blocks = p.block_dims
            for d in range(p.max_degree + 1):
                assert find_strong_identity(p, d) is not None
                assert verify_roundtrip(p, d, regular_module(p, d)).ok
                for block in range(len(blocks)):
                    w = matrix_model_column_module(p, block, d)
                    assert verify_roundtrip(p, d, w).ok
        # one perturbed structure constant must break validation
        p = matrix_model([2, 2])
        entries = list(p.entries())
        i, j, k, a, b, c, v = entries[7]
        entries[7] = (i, j, k, a, b, c, v + 1)
        assert not validate_peirce(
            PeirceAlgebra(p.max_degree, p.dims, entries, p.unit0)
        ).ok


def test_acceptance_5_zigzag_laws(announce):
    with announce(5):
        for p in standard_fixtures():
            n0 = p.dims[0][0]
            for d in range(p.max_degree + 1):
                assert find_strong_identity(p, d) is not None
                z = zigzag(p, d)
                assert z.as_algebra().is_associative()
                # the corner reduction is a homomorphism: star(x o y) = star(x) star(y)
                for q1 in range(z.dim):
                    for q2 in range(z.dim):
                        image: dict = {}
                        for t, c in z.product.get((q1, q2), {}).items():
                            add_multiple(image, c, z.star[t])
                        assert p.product(0, 0, 0, z.star[q1], z.star[q2]) == image
                assert action_through_A_check(z).ok
                ideal = zd_ideal(p, d)
                squared = Subspace(
                    (0, 0),
                    n0,
                    [
                        p.product(0, 0, 0, z1, z2)
                        for z1 in ideal.basis
                        for z2 in ideal.basis
                    ],
                )
                assert squared == ideal


def test_acceptance_6_idempotent_splitting(announce):
    with announce(6):
        for p in standard_fixtures():
            for d in range(p.max_degree + 1):
                ideal = zd_ideal(p, d)
                split = ideal_unit_and_split(p, ideal)
                assert split is not None and split.ok
                assert split.checks["epsilon_idempotent"]
                assert split.checks["epsilon_central"]
                assert split.checks["direct_sum"]
                assert split.checks["cross_products_vanish"]
                z = zigzag(p, d)
                assert z.dim == ideal.dim
                assert z.star_image() == ideal


def test_acceptance_7_exceptional_degrees(announce):
    with announce(7):
        # a model with vanishing level 1: both the degree-1 diagonal and its
        # corner ideal are zero rings
        p = matrix_model([[1, 0, 2]])
        assert validate_peirce(p).ok
        assert p.dims[1][1] == 0
        assert zd_ideal(p, 1).dim == 0
        assert p.dims[2][2] > 0 and zd_ideal(p, 2).dim > 0
        assert exceptional_degrees([1, 0, 2], 2) == [1]
        # the free boson has no exceptional degrees through 8
        for n in (1, 2):
            dims = [labeled_partition_count(n, j) for j in range(9)]
            assert exceptional_degrees(dims, 8) == []


def test_acceptance_8_truncation_consistency(announce):
    with announce(8):
        points = ([Fraction(0)], [Fraction(1)], [Fraction(-5, 3)])
        entries = None
        for c in points:
            p = heisenberg_truncation(1, 3, c)
            assert validate_peirce(p).ok
            if entries is None:
                entries = p.entries()
            else:
                assert p.entries() == entries
            for d in range(4):
                labels = enumerate_labeled_partitions(1, d)
                count = len(labels)
                index = {lp: i for i, lp in enumerate(labels)}
                expected = [F0] * (count * count)
                for lp, coeff in strong_identity(1, d):
                    s = index[lp]
                    expected[s * count + s] = coeff
                assert dense(find_strong_identity(p, d), count * count) == expected
