"""Write benchmark input files into a directory.

    python gen_inputs.py DIR NAME...

Runs as a child of the benchmark, with PYTHONPATH pointing at the
checkout's ``src``, so generating the inputs costs what a user would pay to
produce them with the library.  Every input is a pure function of its name.
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

from mta import PeirceAlgebra, heisenberg_truncation, matrix_model

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def _algebra(p: PeirceAlgebra) -> str:
    return json.dumps(p.to_json_dict())


def _perturbed_mm22() -> str:
    # the mutation of acceptance test 4: entry 7 of matrix_model([2, 2]) plus one
    p = matrix_model([2, 2])
    entries = list(p.entries())
    i, j, k, a, b, c, v = entries[7]
    entries[7] = (i, j, k, a, b, c, v + 1)
    return _algebra(PeirceAlgebra(p.max_degree, p.dims, entries, p.unit0))


def _gram(rows) -> str:
    return f"{len(rows)}\n" + "".join(" ".join(map(str, r)) + "\n" for r in rows)


INPUTS = {
    "mm332.json": lambda: _algebra(matrix_model([[3, 2], [1, 3], [2, 1]])),
    "mm12.json": lambda: _algebra(matrix_model([[1, 2], [1, 0]])),
    "mm22.json": lambda: _algebra(matrix_model([2, 2])),
    "mm22_perturbed.json": _perturbed_mm22,
    "h14.json": lambda: _algebra(heisenberg_truncation(1, 4, [Fraction(0)])),
    "h15.json": lambda: _algebra(heisenberg_truncation(1, 5, [Fraction(0)])),
    "h23.json": lambda: _algebra(heisenberg_truncation(2, 3, [Fraction(0), Fraction(0)])),
    # 60-dimensional corner with no products: a few hundred bytes
    "dims60.json": lambda: json.dumps(
        {"max_degree": 0, "dims": [[60]], "products": [], "unit0": ["1"] + ["0"] * 59}
    ),
    "z8.gram": lambda: (DEMOS / "z8.gram").read_text(),
    "a4.gram": lambda: _gram([[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]]),
    "det200000.gram": lambda: _gram([[200000]]),
    "diag2000.gram": lambda: _gram([[2000, 0], [0, 2000]]),
    # the three simple modules of demos/04_block_descriptors.py
    "modules.json": lambda: json.dumps(
        [
            {"label": "vac", "graded_dims": [1, 0, 1, 1], "conformal_weight": "0"},
            {"label": "psi", "graded_dims": [1, 1, 1, 1], "conformal_weight": "1/2"},
            {"label": "sigma", "graded_dims": [1, 1, 2, 2], "conformal_weight": "1/16"},
        ]
    ),
}


def main(argv) -> int:
    out = Path(argv[0])
    for name in argv[1:]:
        (out / name).write_text(INPUTS[name](), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
