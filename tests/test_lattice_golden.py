"""Lattice outputs pinned beyond the CLI goldens.

For each Gram matrix in GRAMS, tests/golden/lattice.json records the dual
coset representatives in order, every coset's conformal weight and its
graded dimensions up to level LEVELS.

    PYTHONPATH=src python tests/test_lattice_golden.py

rewrites the golden from the checkout on PYTHONPATH.
"""

import json
import re
import sys
from pathlib import Path

import pytest

from mta.exact import frac_str
from mta.lattice import EvenLattice, conformal_weight, dual_cosets, graded_dims

GOLDEN = Path(__file__).resolve().parent / "golden" / "lattice.json"
LEVELS = 8

GRAMS = {
    "a2": [[2, 1], [1, 2]],
    "rank2_det23": [[4, 1], [1, 6]],
    "a2_scaled3": [[6, 3], [3, 6]],
    "diag244": [[2, 0, 0], [0, 4, 0], [0, 0, 4]],
    "rank3_det40": [[2, 1, 0], [1, 4, 1], [0, 1, 6]],
    "rank3_det38": [[2, -1, 1], [-1, 4, -1], [1, -1, 6]],
    "a4": [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]],
    "d4": [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]],
}


def _record(rows) -> dict:
    lattice = EvenLattice.from_rows(rows)
    cosets = dual_cosets(lattice)
    return {
        "cosets": [[frac_str(x) for x in c.vector] for c in cosets],
        "weights": [frac_str(conformal_weight(lattice, c.vector)) for c in cosets],
        "graded_dims": [graded_dims(lattice, c.vector, LEVELS) for c in cosets],
    }


def test_every_gram_is_recorded():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(GRAMS)


@pytest.mark.parametrize("name", sorted(GRAMS))
def test_lattice_data_is_golden(name):
    assert _record(GRAMS[name]) == json.loads(GOLDEN.read_text())[name]


if __name__ == "__main__":
    if len(sys.argv) > 1:
        sys.exit(f"usage: {sys.argv[0]}")
    records = {name: _record(rows) for name, rows in GRAMS.items()}
    text = json.dumps(records, indent=1)
    # one line per innermost list
    text = re.sub(r"\[[^\[\]{}]*\]", lambda m: json.dumps(json.loads(m.group())), text)
    GOLDEN.write_text(text + "\n")
