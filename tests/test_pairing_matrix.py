"""The pairing matrix behind `heisenberg verify`: every pairing computed, one
shared zero cell, and the same report as the dense builder.

The dense builder in oracle_exact puts a fresh `pairing(sigma, tau)` object
in every cell and renders every cell of the report on its own; the library
shares one zero object among the k^2 - k zero cells and renders it as the
literal "0".
"""

import json
import tracemalloc

import oracle_exact as oracle
import pytest

from mta import heisenberg as hb
from mta.heisenberg import (
    IdentityReport,
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
    report = IdentityReport(n, d, not mismatches, labels, expected, matrix, mismatches)
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
    n, d = 2, 3
    labels, matrix = pairing_matrix(n, d)
    matrix = [list(row) for row in matrix]
    matrix[0][1] = ZhuPolynomial.constant(n, 3)  # nonzero off the diagonal
    matrix[2][2] = ZhuPolynomial(n, {(0, 0): 2, (1, 0): 1})  # not a constant
    matrix[3][4] = ZhuPolynomial(n, {(0, 2): "-1/2"})  # neither
    monkeypatch.setattr(hb, "pairing_matrix", lambda n_, d_: (labels, matrix))
    report = verify_strong_identity(n, d)
    want = _oracle_report_json(n, d, labels, matrix)
    assert report.mismatches == [(0, 1), (2, 2), (3, 4)]
    assert [list(m) for m in report.mismatches] == want["mismatches"]
    assert report.ok is False
    got = report.to_json()
    assert json.dumps(got) == json.dumps(want)
    assert (got["matrix"][0][1], got["matrix"][2][2], got["matrix"][3][4]) == (
        "3",
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


def test_every_pairing_is_computed(monkeypatch):
    calls = []
    real = hb._corner_product

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(hb, "_corner_product", counting)
    report = verify_strong_identity(3, 4)
    k = len(report.labels)
    assert k == 51
    assert len(calls) == k * k


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
