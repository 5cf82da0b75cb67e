"""Every subcommand prints exactly the stdout recorded in tests/golden/cli.

The inputs live in tests/golden/cli/inputs.  The text-format cases print
class reprs (partitions, normal words) and the validator's axiom table, so
they also pin repr, equality and ordering of the library's value types.

    PYTHONPATH=src python tests/test_cli_golden.py

rewrites the goldens from the checkout on PYTHONPATH.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from mta.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli"
INPUTS = GOLDEN / "inputs"
TEXT = ("--format", "text")

# name -> (argv, exit status); "{name}" in argv is the input file of that name
CASES = {
    "partitions_count": (("partitions", "count", "--rank", "2", "--weight", "6"), 0),
    "partitions_list": (("partitions", "list", "--rank", "2", "--weight", "4"), 0),
    "partitions_list_text": (("partitions", "list", "--rank", "3", "--weight", "3", *TEXT), 0),
    "heisenberg_identity": (("heisenberg", "identity", "--rank", "2", "--degree", "3"), 0),
    "heisenberg_identity_text": (
        ("heisenberg", "identity", "--rank", "2", "--degree", "4", *TEXT),
        0,
    ),
    "heisenberg_verify": (("heisenberg", "verify", "--rank", "2", "--degree", "3"), 0),
    "heisenberg_zhu": (("heisenberg", "zhu", "--rank", "2", "--degree", "4"), 0),
    "lattice_cosets_z8": (("lattice", "cosets", "--gram", "{z8.gram}"), 0),
    "lattice_cosets_d4": (("lattice", "cosets", "--gram", "{d4.gram}"), 0),
    "lattice_weights_a4": (("lattice", "weights", "--gram", "{a4.gram}"), 0),
    "lattice_weights_rank2": (("lattice", "weights", "--gram", "{rank2.gram}"), 0),
    "lattice_weights_a4_text": (("lattice", "weights", "--gram", "{a4.gram}", *TEXT), 0),
    "lattice_dims_a4": (
        ("lattice", "dims", "--gram", "{a4.gram}", "--coset", "1", "--max", "30"),
        0,
    ),
    "lattice_dims_d4": (
        ("lattice", "dims", "--gram", "{d4.gram}", "--coset", "2", "--max", "12"),
        0,
    ),
    "lattice_dims_rank2": (
        ("lattice", "dims", "--gram", "{rank2.gram}", "--coset", "7", "--max", "20"),
        0,
    ),
    "peirce_validate": (("peirce", "validate", "--algebra", "{mm12.json}"), 0),
    "peirce_validate_text": (("peirce", "validate", "--algebra", "{mm12.json}", *TEXT), 0),
    "peirce_validate_perturbed": (("peirce", "validate", "--algebra", "{mm22_perturbed.json}"), 1),
    "peirce_validate_perturbed_text": (
        ("peirce", "validate", "--algebra", "{mm22_perturbed.json}", *TEXT),
        1,
    ),
    "peirce_zigzag_0": (("peirce", "zigzag", "--algebra", "{mm12.json}", "--degree", "0"), 0),
    "peirce_zigzag_1": (("peirce", "zigzag", "--algebra", "{mm12.json}", "--degree", "1"), 0),
    "peirce_zigzag_zero_product": (
        ("peirce", "zigzag", "--algebra", "{idempotents3.json}", "--degree", "1"),
        0,
    ),
    "peirce_zigzag_perturbed": (
        ("peirce", "zigzag", "--algebra", "{mm22_perturbed.json}", "--degree", "0"),
        1,
    ),
    # c_mm12 is matrix_model([[1, 2], [1, 0]]) in a random integer basis
    # (test_peirce._changed_basis, random.Random(7)): 88 of its 122
    # structure constants are fractions.  c_mm12_perturbed raises its
    # product (0,1,1) a=0 b=0 c=0 from 5/2 to 7/2, so the scaled full scan
    # names the failing triple.
    "peirce_validate_fractional": (("peirce", "validate", "--algebra", "{c_mm12.json}"), 0),
    "peirce_validate_fractional_perturbed": (
        ("peirce", "validate", "--algebra", "{c_mm12_perturbed.json}"),
        1,
    ),
    "peirce_zigzag_fractional_0": (
        ("peirce", "zigzag", "--algebra", "{c_mm12.json}", "--degree", "0"),
        0,
    ),
    "peirce_zigzag_fractional_1": (
        ("peirce", "zigzag", "--algebra", "{c_mm12.json}", "--degree", "1"),
        0,
    ),
    "peirce_morita_0": (("peirce", "morita", "--algebra", "{mm12.json}", "--degree", "0"), 0),
    "peirce_morita_1": (("peirce", "morita", "--algebra", "{mm12.json}", "--degree", "1"), 0),
    "peirce_morita_fractional_0": (
        ("peirce", "morita", "--algebra", "{c_mm12.json}", "--degree", "0"),
        0,
    ),
    "peirce_morita_no_identity": (
        ("peirce", "morita", "--algebra", "{no_identity.json}", "--degree", "1"),
        1,
    ),
    "zhu_rational": (("zhu", "rational", "--modules", "{modules.json}", "--degree", "2"), 0),
    "zhu_heisenberg": (("zhu", "heisenberg", "--rank", "2", "--degree", "4"), 0),
    "zhu_heisenberg_text": (("zhu", "heisenberg", "--rank", "2", "--degree", "4", *TEXT), 0),
    "zhu_exceptional": (("zhu", "exceptional", "--dims", "1,0,1,1", "--max", "3"), 0),
    "selftest_fast": (("selftest", "--fast"), 0),
}


def _argv(argv):
    return [str(INPUTS / a[1:-1]) if a.startswith("{") else a for a in argv]


def _stdout(argv) -> tuple[int, bytes]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(_argv(argv))
    return code, buf.getvalue().encode("utf-8")


def test_every_golden_has_a_case():
    assert sorted(CASES) == sorted(g.stem for g in GOLDEN.glob("*.out"))


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_is_golden(name):
    argv, status = CASES[name]
    code, out = _stdout(argv)
    assert code == status
    assert out == (GOLDEN / f"{name}.out").read_bytes()


if __name__ == "__main__":
    for name, (argv, status) in CASES.items():
        code, out = _stdout(argv)
        if code != status:
            sys.exit(f"{name}: exit status {code}, expected {status}")
        (GOLDEN / f"{name}.out").write_bytes(out)
