"""The pairing matrix behind `heisenberg verify`: one pairing computed per
label, one shared zero cell, and the same report as the dense builder.

The Wick rule leaves only the diagonal pairings nonzero, so the library
computes those k cells and fills the rest of the matrix with one shared
zero object, which the report renders as the literal "0".  The dense
builder in oracle_exact computes all k^2 pairings, a fresh
`pairing(sigma, tau)` object in every cell, and renders every cell of the
report on its own: it is the differential oracle for the cells the library
does not compute.
"""

import json
import tracemalloc
from collections import Counter
from types import SimpleNamespace

import oracle_exact as oracle
import pytest

from mta import heisenberg as hb
from mta.heisenberg import (
    Mode,
    ZhuPolynomial,
    corner_product,
    pairing,
    pairing_matrix,
    strong_identity,
    u_element,
    ubar_element,
    verify_strong_identity,
)
from mta.partitions import (
    enumerate_labeled_partitions,
    labeled_partition_count,
    labeled_partition_counts,
)

SMALL = [
    (n, d) for n in range(1, 5) for d in range(14) if labeled_partition_count(n, d) <= 105
]


def _oracle_report_json(n, d, labels, matrix):
    expected = [lp.symmetry_factor() for lp in labels]
    mismatches = oracle.identity_mismatches(n, matrix, expected)
    report = SimpleNamespace(
        rank=n, degree=d, ok=not mismatches, labels=labels, expected_diagonal=expected,
        matrix=matrix, mismatches=mismatches,
    )
    return oracle.identity_report_json(report)


def test_sizes_reach_105_labels():
    assert (4, 4) in SMALL and (1, 13) in SMALL and (3, 5) not in SMALL
    assert max(labeled_partition_count(n, d) for n, d in SMALL) == 105


@pytest.mark.parametrize("n, d", SMALL)
def test_matrix_and_report_match_the_dense_oracle(n, d):
    labels, matrix = pairing_matrix(n, d)
    want_labels, want = oracle.dense_pairing_matrix(n, d)
    assert labels == want_labels
    for i, (row, want_row) in enumerate(zip(matrix, want)):
        assert len(row) == len(want_row) == len(labels)
        for j, (cell, want_cell) in enumerate(zip(row, want_row)):
            assert cell == want_cell, (n, d, i, j)
    got = verify_strong_identity(n, d).to_json()
    assert json.dumps(got) == json.dumps(_oracle_report_json(n, d, want_labels, want))


def test_failing_cells_report_as_the_oracle_does(monkeypatch):
    # the diagonal is all the library computes; a cell off it cannot be
    # nonzero (see hb.pairing_matrix), and the dense oracle tests above
    # check every one of them
    n, d = 2, 3
    labels, cells = hb._pairing_diagonal(n, d)
    cells = list(cells)
    cells[0] = ZhuPolynomial.constant(n, 5)  # a wrong constant: the factor is 3
    cells[2] = ZhuPolynomial(n, {(0, 0): 2, (1, 0): 1})  # not a constant
    cells[3] = ZhuPolynomial(n, {(0, 2): "-1/2"})  # neither
    monkeypatch.setattr(hb, "_pairing_diagonal", lambda n_, d_: (labels, cells))
    report = verify_strong_identity(n, d)
    zero = ZhuPolynomial.zero(n)
    matrix = [[c if i == j else zero for j in range(len(cells))] for i, c in enumerate(cells)]
    want = _oracle_report_json(n, d, labels, matrix)
    assert report.mismatches == [(0, 0), (2, 2), (3, 3)]
    assert [list(m) for m in report.mismatches] == want["mismatches"]
    assert report.ok is False
    got = report.to_json()
    assert json.dumps(got) == json.dumps(want)
    assert (got["matrix"][0][0], got["matrix"][2][2], got["matrix"][3][3]) == (
        "5",
        "2 + 1*h1",
        "-1/2*h2^2",
    )


def test_zero_cells_are_one_shared_object():
    labels, matrix = pairing_matrix(3, 4)
    k = len(labels)
    cells = {id(cell) for row in matrix for cell in row}
    assert len(cells) == k + 1
    zeros = {id(cell) for row in matrix for cell in row if cell.is_zero()}
    assert len(zeros) == 1
    assert all(not matrix[i][i].is_zero() for i in range(k))


def test_public_pairings_return_fresh_objects():
    sigma, tau = enumerate_labeled_partitions(3, 4)[:2]
    assert pairing(sigma, tau).is_zero()
    assert pairing(sigma, tau) is not pairing(sigma, tau)
    a, b = ubar_element(sigma), u_element(tau)
    assert corner_product(a, b).is_zero()
    assert corner_product(a, b) is not corner_product(a, b)
    # a fresh zero can be changed without touching a later pairing
    first = pairing(sigma, tau)
    first.terms[(0, 0, 0)] = 1
    assert pairing(sigma, tau).is_zero()


def test_one_pairing_is_computed_per_label(monkeypatch):
    calls = []
    real = hb._corner_product

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(hb, "_corner_product", counting)
    report = verify_strong_identity(3, 4)
    assert report.ok and len(report.labels) == 51
    assert len(calls) == 51


def test_the_mirrored_annihilators_determine_the_label():
    """The step of the proof that only diagonal pairings can be nonzero:
    over the whole rank/degree box of `heisenberg verify`, ubar(sigma)'s
    annihilators, mirrored, are u(sigma)'s creators, and no two labels of
    one size share them."""
    for n in range(1, 5):
        for d in range(9):
            labels = enumerate_labeled_partitions(n, d)
            keys = set()
            for lp in labels:
                (ubar,) = ubar_element(lp).terms
                (u,) = u_element(lp).terms
                mirrored = Counter(Mode(m.gen, -m.exp) for m in ubar.annihilators)
                assert mirrored == Counter(u.creators)
                keys.add(frozenset(mirrored.items()))
            assert len(keys) == len(labels), (n, d)


def _peak_bytes(build):
    tracemalloc.start()
    try:
        kept = build()
        return tracemalloc.get_traced_memory()[1], kept
    finally:
        tracemalloc.stop()


def test_shared_zero_halves_the_peak():
    # a ratio in one process, since absolute byte counts differ across
    # Python versions
    peak, (labels, matrix) = _peak_bytes(lambda: pairing_matrix(3, 5))
    dense_peak, (_, dense) = _peak_bytes(lambda: oracle.dense_pairing_matrix(3, 5))
    assert len(labels) == 108
    assert matrix == dense
    assert peak < dense_peak / 2, (peak, dense_peak)


@pytest.mark.parametrize(
    "call",
    [
        lambda: pairing_matrix(True, 2),
        lambda: pairing_matrix(2, 2.0),
        lambda: strong_identity(True, 2),
        lambda: strong_identity(1, True),
        lambda: verify_strong_identity(True, 2),
        lambda: verify_strong_identity(2, 3.0),
        lambda: enumerate_labeled_partitions(2, False),
        lambda: labeled_partition_counts(1.0, 3),
    ],
)
def test_bool_or_float_rank_and_degree_raise(call):
    with pytest.raises(TypeError, match="expected an integer"):
        call()
