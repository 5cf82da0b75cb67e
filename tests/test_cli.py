"""Command line behavior: goldens, determinism, exit codes, limits."""

import argparse
import contextlib
import copy
import gc
import hashlib
import importlib.util
import io
import itertools
import json
import os
import re
import subprocess
import sys
import threading
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mta import cli, lattice, peirce
from mta.cli import (
    MAX_ALGEBRA_COMPONENTS,
    MAX_ALGEBRA_DIM,
    MAX_ALGEBRA_PRODUCTS,
    MAX_ASSOCIATIVITY_WORK,
    MAX_BALANCING_RELATIONS,
    MAX_COEFFICIENT_DIGITS,
    MAX_DEGREE,
    MAX_INPUT_BYTES,
    MAX_LATTICE_COSETS,
    MAX_LATTICE_LEVEL,
    MAX_LATTICE_RANK,
    MAX_PARTITION_WEIGHT,
    MAX_RANK,
    _algebra_sizes,
    _emit,
    build_parser,
    main,
)
from mta.exact import frac_str
from mta.heisenberg import strong_identity, strong_identity_to_json, verify_strong_identity
from mta.partitions import enumerate_labeled_partitions
from mta.peirce import PeirceAlgebra, heisenberg_truncation, matrix_model
from mta.zhu import SimpleModuleData


@pytest.fixture
def gram_file(tmp_path):
    path = tmp_path / "z8.gram"
    path.write_text("1\n8\n")
    return str(path)


@pytest.fixture
def algebra_file(tmp_path):
    path = tmp_path / "mm.json"
    path.write_text(json.dumps(matrix_model([[1, 2], [1, 0]]).to_json_dict()))
    return str(path)


@pytest.fixture
def broken_algebra_file(tmp_path):
    data = matrix_model([2, 2]).to_json_dict()
    for entry in data["products"]:
        if entry["coeff"] == "1":
            entry["coeff"] = "2"
            break
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(data))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


def test_partitions_count_json(capsys):
    code, out = run(capsys, ["partitions", "count", "--rank", "2", "--weight", "3"])
    assert code == 0
    assert json.loads(out) == {"rank": 2, "weight": 3, "count": 10}


def test_partitions_list_text(capsys):
    code, out = run(
        capsys, ["partitions", "list", "--rank", "2", "--weight", "2", "--format", "text"]
    )
    assert code == 0
    assert out.splitlines() == [
        "({2}|{})",
        "({1,1}|{})",
        "({1}|{1})",
        "({}|{2})",
        "({}|{1,1})",
    ]


def test_heisenberg_identity_golden(capsys):
    code, out = run(capsys, ["heisenberg", "identity", "--degree", "3"])
    assert code == 0
    assert json.loads(out)["terms"] == [
        {"partition": [[3]], "coeff": "1/3"},
        {"partition": [[2, 1]], "coeff": "1/2"},
        {"partition": [[1, 1, 1]], "coeff": "1/6"},
    ]


def test_heisenberg_verify_exit_zero(capsys):
    code, out = run(capsys, ["heisenberg", "verify", "--rank", "2", "--degree", "3"])
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_zhu_heisenberg_text_golden(capsys):
    code, out = run(
        capsys,
        ["zhu", "heisenberg", "--rank", "1", "--degree", "2", "--format", "text"],
    )
    assert code == 0
    assert out.rstrip("\n") == "A_2 ≅ Mat_1(A) × Mat_1(A) × Mat_2(A), A = Q[h1]"


def test_zhu_heisenberg_sizes(capsys):
    code, out = run(capsys, ["zhu", "heisenberg", "--rank", "1", "--degree", "5"])
    assert code == 0
    data = json.loads(out)
    sizes = [f["size"] for level in data["blocks"] for f in level["factors"]]
    assert sizes == [1, 1, 2, 3, 5, 7]


def test_zhu_exceptional(capsys):
    code, out = run(capsys, ["zhu", "exceptional", "--dims", "1,0,1,0", "--max", "3"])
    assert code == 0
    assert json.loads(out) == {"d_max": 3, "exceptional": [1, 3]}


def test_zhu_rational_from_file(capsys, tmp_path):
    modules = [
        {"label": "vac", "graded_dims": [1, 0, 1], "conformal_weight": "0"},
        {"label": "tw", "graded_dims": [1, 1, 2], "conformal_weight": "1/16"},
    ]
    path = tmp_path / "modules.json"
    path.write_text(json.dumps(modules))
    code, out = run(capsys, ["zhu", "rational", "--modules", str(path), "--degree", "1"])
    assert code == 0
    data = json.loads(out)
    assert data["support"] == ["tw"]
    assert data["blocks"][1]["factors"] == [{"size": 1, "ring": "scalar-field"}]


# module files of the wrong shape, and the message naming the module and
# the field at fault
_BAD_MODULE_FILES = {
    "number": ([1.5], "module 0 is not an object"),
    "no label": ([{"graded_dims": [1, 0]}], "module 0 has no label"),
    "object": ({"label": "a"}, "expected a list of module objects"),
    "graded_dims string": (
        [{"label": "vac", "graded_dims": [1, 0, 1]}, {"label": "tw", "graded_dims": "12"}],
        "module 1 ('tw'): graded_dims must be a list of integers",
    ),
}


@pytest.mark.parametrize("case", sorted(_BAD_MODULE_FILES))
def test_zhu_rational_names_the_field_at_fault(case, capsys, tmp_path):
    data, message = _BAD_MODULE_FILES[case]
    path = tmp_path / "modules.json"
    path.write_text(json.dumps(data))
    with pytest.raises(SystemExit) as exc:
        main(["zhu", "rational", "--modules", str(path), "--degree", "1"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f"mta: error: bad module data: {message}\n")


def test_lattice_dims_schema(capsys, gram_file):
    code, out = run(capsys, ["lattice", "dims", "--gram", gram_file, "--coset", "4", "--max", "0"])
    assert code == 0
    assert json.loads(out) == {"coset": 4, "conformal_weight": "1", "dims": [2]}


def test_lattice_weights(capsys, gram_file):
    code, out = run(capsys, ["lattice", "weights", "--gram", gram_file])
    assert code == 0
    weights = [row["conformal_weight"] for row in json.loads(out)["weights"]]
    assert weights == ["0", "1/16", "1/4", "9/16", "1", "9/16", "1/4", "1/16"]


def test_lattice_cosets_count(capsys, gram_file):
    code, out = run(capsys, ["lattice", "cosets", "--gram", gram_file])
    assert code == 0
    data = json.loads(out)
    assert data["determinant"] == 8
    assert len(data["cosets"]) == 8


def test_peirce_validate_ok(capsys, algebra_file):
    code, out = run(capsys, ["peirce", "validate", "--algebra", algebra_file])
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_peirce_validate_failure_exits_one(capsys, broken_algebra_file):
    code, out = run(capsys, ["peirce", "validate", "--algebra", broken_algebra_file])
    assert code == 1
    assert json.loads(out)["ok"] is False


def test_peirce_zigzag(capsys, algebra_file):
    code, out = run(capsys, ["peirce", "zigzag", "--algebra", algebra_file, "--degree", "1"])
    assert code == 0
    data = json.loads(out)
    assert data["dim"] == 1 and data["star_bijective"] and data["epsilon"] == ["1", "0"]


def test_peirce_morita(capsys, algebra_file):
    code, out = run(capsys, ["peirce", "morita", "--algebra", algebra_file, "--degree", "1"])
    assert code == 0
    data = json.loads(out)
    assert data["ok"] and data["dim_start"] == data["dim_back"] == 4


def test_morita_and_zigzag_print_what_validation_proves(capsys, algebra_file, monkeypatch):
    """`peirce morita` prints the regular roundtrip as the verify_roundtrip
    docstring proves it, and `peirce zigzag` the split of the corner ideal
    as the ideal_unit_and_split docstring does: neither command runs a
    functor, builds a balanced tensor or makes the split, and morita
    solves for the strong identity once, in its Morita setup."""
    calls = []
    never = ("verify_roundtrip", "_forward", "_backward", "balanced_tensor", "ideal_unit_and_split")
    for name in (*never, "find_strong_identity"):
        real = getattr(peirce, name)
        monkeypatch.setattr(peirce, name, lambda *args, name=name, real=real: calls.append(name) or real(*args))
    for action, solves in (("morita", ["find_strong_identity"]), ("zigzag", [])):
        for d in (0, 1):
            calls.clear()
            code, _ = run(capsys, ["peirce", action, "--algebra", algebra_file, "--degree", str(d)])
            assert code == 0 and calls == solves, (action, d)


def test_output_is_byte_identical(capsys, gram_file):
    argv = ["lattice", "weights", "--gram", gram_file]
    _, first = run(capsys, argv)
    _, second = run(capsys, argv)
    assert first == second
    argv = ["heisenberg", "verify", "--rank", "2", "--degree", "3"]
    _, first = run(capsys, argv)
    _, second = run(capsys, argv)
    assert first == second


def test_selftest_fast(capsys):
    code, out = run(capsys, ["selftest", "--fast"])
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    assert all(check["ok"] for check in data["checks"])


def test_usage_error_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["heisenberg", "identity"])
    assert exc.value.code == 2


def test_desk_scale_cap_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["heisenberg", "verify", "--rank", "5", "--degree", "2"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--unsafe-no-limits" in err


@pytest.mark.parametrize(
    "rank, degree, size, digest",
    [
        (3, 7, 932_920, "e2e9dba2e1e986c157124b2927bf7168f159375e2b1be8346c600a8d88e65ebb"),
        (4, 5, 325_099, "35334018765e2a8b88a67496f4316bb3a7f5e96abfabc6664969b67cae519382"),
        (4, 6, 1_665_429, "246b34b94d3298cc871494c1852d0edaf37af26fb0a650d2043c37f441a9f5c0"),
    ],
)
def test_verify_at_the_label_cap_prints_the_recorded_bytes(capsys, rank, degree, size, digest):
    # the bytes printed when all k^2 pairings were computed (at (4, 6), with
    # --unsafe-no-limits past the 429-label cap that computation had)
    argv = ["heisenberg", "verify", "--rank", str(rank), "--degree", str(degree)]
    code, out = run(capsys, argv)
    data = out.encode("utf-8")
    assert code == 0
    assert len(data) == size
    assert hashlib.sha256(data).hexdigest() == digest


def test_selftest_survives_optimized_mode():
    # python -O strips assert statements; library invariants must not rely on them
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "mta", "selftest", "--fast"],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["ok"] is True


def test_degree_cap_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["heisenberg", "identity", "--rank", "1", "--degree", "9"])
    assert exc.value.code == 2


def test_unsafe_flag_lifts_cap(capsys):
    code, out = run(
        capsys,
        ["heisenberg", "identity", "--rank", "1", "--degree", "9", "--unsafe-no-limits"],
    )
    assert code == 0
    assert len(json.loads(out)["terms"]) == 30


def test_lattice_rank_cap(capsys, tmp_path):
    path = tmp_path / "big.gram"
    rows = [[2 if i == j else 0 for j in range(5)] for i in range(5)]
    path.write_text("5\n" + "\n".join(" ".join(map(str, r)) for r in rows) + "\n")
    with pytest.raises(SystemExit) as exc:
        main(["lattice", "cosets", "--gram", str(path)])
    assert exc.value.code == 2


def test_missing_file_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["lattice", "cosets", "--gram", "/nonexistent.gram"])
    assert exc.value.code == 2


def test_bad_coset_index(capsys, gram_file):
    with pytest.raises(SystemExit) as exc:
        main(["lattice", "dims", "--gram", gram_file, "--coset", "8", "--max", "0"])
    assert exc.value.code == 2


def _exits_two_fast(capsys, argv):
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert time.perf_counter() - start < 1
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--unsafe-no-limits" in err
    return err


def _outcome(capsys, argv):
    """(exit status, stdout, stderr) of main(argv)."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    return code, *capsys.readouterr()


def _products_free(dims):
    n0 = dims[0][0]
    return {"max_degree": len(dims) - 1, "dims": dims, "products": [], "unit0": ["1"] + ["0"] * (n0 - 1)}


def _one_product_grid(n):
    """An n x n grid of components, all zero but the one-dimensional corner
    with its one product."""
    dims = [[int(i == j == 0) for j in range(n)] for i in range(n)]
    return _products_free(dims) | {"products": [{"i": 0, "j": 0, "k": 0, "a": 0, "b": 0, "c": 0, "coeff": "1"}]}


def _diagonal_gram(n):
    """The gram file of diag(2, ..., 2) at rank n."""
    rows = (" ".join("2" if i == j else "0" for j in range(n)) for i in range(n))
    return f"{n}\n" + "".join(row + "\n" for row in rows)


def test_over_rank_gram_is_rejected_before_its_rows_are_read(capsys, tmp_path, monkeypatch):
    path = tmp_path / "big.gram"
    # a rank-1000 header over 1000 rows of 1000 tokens that are no integers
    path.write_text("1000\n" + ("x " * 1000 + "\n") * 1000)
    err = _exits_two_fast(capsys, ["lattice", "cosets", "--gram", str(path)])
    assert f"lattice rank: 1000, over the desk-scale limit of {MAX_LATTICE_RANK}" in err
    # a well-formed over-rank file: the rank is the one integer read
    path.write_text(_diagonal_gram(1000))
    calls = []
    real = lattice.parse_int
    monkeypatch.setattr(lattice, "parse_int", lambda text: calls.append(text) or real(text))
    _exits_two_fast(capsys, ["lattice", "cosets", "--gram", str(path)])
    assert calls == ["1000"]


def test_over_rank_gram_is_rejected_before_its_tail_is_decoded(capsys, tmp_path):
    """The rank limit runs once the header line is read: bytes that are not
    UTF-8, well past the first line, are never decoded."""
    path = tmp_path / "tail.gram"
    row = " ".join(["0"] * 40) + "\n"
    path.write_bytes(b"1000\n" + row.encode() * 1000 + b"\xff\xfe")
    assert path.stat().st_size > 80_000
    err = _exits_two_fast(capsys, ["lattice", "cosets", "--gram", str(path)])
    assert f"lattice rank: 1000, over the desk-scale limit of {MAX_LATTICE_RANK}" in err


def test_algebra_caps_exit_two_fast(capsys, tmp_path):
    path = tmp_path / "alg.json"
    # a products-free corner of dimension 240: a file of about 1 kB
    path.write_text(json.dumps(_products_free([[240]])))
    _exits_two_fast(capsys, ["peirce", "validate", "--algebra", str(path)])
    # few balancing relations, but a 500-dimensional component (1,1)
    path.write_text(json.dumps(_products_free([[1, 0], [0, 500]])))
    _exits_two_fast(capsys, ["peirce", "zigzag", "--algebra", str(path), "--degree", "1"])
    # every component at the dimension cap, but 2^23 balancing relations
    path.write_text(json.dumps(_products_free([[128, 128], [128, 128]])))
    _exits_two_fast(capsys, ["peirce", "validate", "--algebra", str(path)])
    data = _products_free([[2]])
    data["products"] = [{"i": 0, "j": 0, "k": 0, "a": 0, "b": 0, "c": 0, "coeff": "0"}] * 40000
    path.write_text(json.dumps(data))
    _exits_two_fast(capsys, ["peirce", "morita", "--algebra", str(path), "--degree", "0"])


def _streamed(path, max_products=None):
    """peirce._stream_algebra on the file at path."""
    with open(path, encoding="utf-8") as fh:
        return peirce._stream_algebra(fh, max_products)


# the sizes of _algebra_sizes that peirce._Tally tallies, in its order
_TALLIES = ("products", "associativity multiply-adds", "digits in one coefficient")


def _whole_tallies(data):
    """(products, work, digits) of the whole read of an algebra file, which
    feeds each product dict to peirce._Tally."""
    sizes = _algebra_sizes(data)
    return tuple(sizes[what][0] for what in _TALLIES)


def test_stream_and_whole_read_tally_alike(tmp_path):
    """Both readers feed one tally, peirce._Tally, and give the same
    (products, work, digits): on every golden algebra file, on h14 written
    compact, with indent=2 and with products first (which only the whole
    read takes), and on 80 582 products over the products cap, which the
    stream tallies past the cap without storing them."""
    root = Path(__file__).resolve().parent / "golden" / "cli" / "inputs"
    texts = {path.name: path.read_text() for path in sorted(root.glob("*.json")) if path.name != "modules.json"}
    h14 = heisenberg_truncation(1, 4, [Fraction(0)]).to_json_dict()
    texts["h14"] = json.dumps(h14)
    texts["h14 indent=2"] = json.dumps(h14, indent=2)
    products = [
        {"i": 0, "j": 0, "k": 0, "a": a, "b": b, "c": c, "coeff": "1"}
        for a, b, c in itertools.islice(itertools.product(range(44), repeat=3), 80582)
    ]
    over = {"max_degree": 0, "dims": [[44]], "products": products, "unit0": ["1"] + ["0"] * 43}
    texts["over the cap"] = json.dumps(over)
    path = tmp_path / "alg.json"
    tallies = {}
    for name, text in texts.items():
        path.write_text(text)
        _, tallies[name] = _streamed(path, MAX_ALGEBRA_PRODUCTS)
        assert tallies[name] == _whole_tallies(json.loads(text)), name
    path.write_text(json.dumps({"products": h14.pop("products"), **h14}))
    assert _streamed(path) is None
    assert _whole_tallies(json.loads(path.read_text())) == tallies["h14"] == (1728, 41472, 2)
    assert tallies["over the cap"] == (80582, 295159396, 1)


def test_algebra_fixtures_pass_the_caps(tmp_path):
    # the algebras of the tests, the demos and the benchmark inputs, dims
    # [[21]], the largest dense corner the caps accept,
    fixtures = [
        matrix_model([[3, 2], [1, 3], [2, 1]]),
        matrix_model([[1, 2], [1, 0]]),
        matrix_model([[1, 1, 2], [2, 1, 0], [1, 0, 1]]),
        matrix_model([2, 3]),
        heisenberg_truncation(1, 4, [Fraction(0)]),
        heisenberg_truncation(1, 5, [Fraction(0)]),
        heisenberg_truncation(2, 3, [Fraction(0), Fraction(0)]),
    ]
    # and the 128 x 128 grid, the largest the caps accept
    extremes = [_products_free([[60]]), _dense_corner(21), _one_product_grid(128)]
    # the algebra files of the limit sites, each over one cap
    over = [data for argv, data, *_ in _LIMIT_SITES.values() if argv[0] == "peirce"]
    path = tmp_path / "alg.json"
    for n, data in enumerate([p.to_json_dict() for p in fixtures] + extremes + over):
        sizes = _algebra_sizes(data)
        assert len(sizes) == 6
        inside = all(size <= limit for size, limit in sizes.values())
        assert inside == (n < len(fixtures) + len(extremes)), sizes
        # the stream tallies the sizes the whole read measures
        path.write_text(json.dumps(data))
        algebra, tallies = _streamed(path)
        assert cli._sized(algebra.dims, *tallies) == sizes
    # a malformed file has no sizes; PeirceAlgebra reports it
    assert _algebra_sizes({"dims": [[2.5]], "products": [], "unit0": []}) == {}
    assert _algebra_sizes({"dims": [[2]], "unit0": ["1", "0"]}) == {}


def _same_algebra(p, q):
    def read(x):
        return x.max_degree, x.dims, x.entries(), x.unit0

    return read(p) == read(q)


def _escaped(text):
    """JSON text with every character of every string written as a \\u
    escape."""
    def escape(string):
        return '"' + "".join(f"\\u{ord(c):04x}" for c in string.group(1)) + '"'

    return re.sub(r'"([^"]*)"', escape, text)


def _split_texts():
    """Algebra files whose values cross chunk boundaries: a two-digit
    max_degree, 41-digit and 31-digit fraction coefficients as strings, the
    integral ones also as JSON numbers, every string in \\u escapes, and
    indent=1 whitespace."""
    entries = [
        (0, 0, 0, 0, 0, 0, 1),
        (0, 0, 1, 0, 0, 0, 10**40 + 1),
        (1, 0, 0, 0, 0, 0, Fraction(-(10**30), 7)),
        (1, 0, 1, 0, 0, 0, 3),
        (1, 1, 1, 0, 0, 0, -(10**25)),
    ]
    dims = [[int(i < 2 and j < 2) for j in range(11)] for i in range(11)]
    data = PeirceAlgebra(10, dims, entries, [1]).to_json_dict()
    numbers = copy.deepcopy(data)
    for e in numbers["products"]:
        if "/" not in e["coeff"]:
            e["coeff"] = int(e["coeff"])
    numbers["unit0"] = [1]
    return {
        "strings": json.dumps(data),
        "numbers": json.dumps(numbers),
        "escapes": _escaped(json.dumps(data)),
        "indented": json.dumps(numbers, indent=1),
    }


@pytest.mark.parametrize("chunk", [1, 7])
@pytest.mark.parametrize("case", sorted(_split_texts()))
def test_values_split_across_chunks_stream_as_read_whole(case, chunk, tmp_path, monkeypatch):
    """The stream reads chunk characters at a time; each file, shifted by
    0 to chunk - 1 leading spaces so that every value and the last product
    cross a boundary at every place, gives the algebra from_json_dict
    builds and the sizes _algebra_sizes measures."""
    monkeypatch.setattr(peirce, "_CHUNK", chunk)
    text = _split_texts()[case]
    data = json.loads(text)
    path = tmp_path / "alg.json"
    for pad in range(chunk):
        path.write_text(" " * pad + text, encoding="utf-8")
        algebra, tallies = _streamed(path)
        assert _same_algebra(algebra, PeirceAlgebra.from_json_dict(json.loads(text))), pad
        assert cli._sized(algebra.dims, *tallies) == _algebra_sizes(data), pad


# files the stream leaves to the whole read: layouts the library does not
# write, and files the whole read refuses
_NOT_STREAMED = {
    "products before dims": lambda d: {"max_degree": d["max_degree"], "products": d["products"], **d},
    "products before max_degree": lambda d: {"dims": d["dims"], "products": d["products"], **d},
    "unknown key": lambda d: {**d, "comment": "x"},
    "no unit0": lambda d: {k: v for k, v in d.items() if k != "unit0"},
    "unit0 as text": lambda d: {**d, "unit0": "10"},
    "a list": lambda d: [d],
    "bad index": lambda d: {**d, "products": [{**d["products"][0], "a": 5}]},
    "bad coefficient": lambda d: {**d, "products": [{**d["products"][0], "coeff": "1/0"}]},
    "product missing a key": lambda d: {**d, "products": [{"i": 0}]},
    "a key between products and unit0": lambda d: {
        **{k: v for k, v in d.items() if k != "unit0"},
        "comment": "x",
        "unit0": d["unit0"],
    },
}
_NOT_STREAMED_TEXTS = {
    "duplicate key": lambda t: t[:-1] + ', "dims": [[2, 2], [2, 2]]}',
    "data after the object": lambda t: t + " {}",
    "cut short": lambda t: t[:-2],
    "not UTF-8": lambda t: t[:-1] + ' \udcff}',
    "no comma between products": lambda t: t.replace("}, {", "} {", 1),
    "ends after max_degree": lambda t: t[: t.index(",")],
}


@pytest.mark.parametrize("case", sorted(_NOT_STREAMED) + sorted(_NOT_STREAMED_TEXTS))
def test_stream_leaves_other_files_to_the_whole_read(case, capsys, tmp_path, monkeypatch):
    data = matrix_model([[1, 2], [1, 0]]).to_json_dict()
    if case in _NOT_STREAMED:
        text = json.dumps(_NOT_STREAMED[case](data))
    else:
        text = _NOT_STREAMED_TEXTS[case](json.dumps(data))
    path = tmp_path / "alg.json"
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    assert _streamed(path) is None
    # the CLI answers as when the stream takes no file
    argv = ["peirce", "validate", "--algebra", str(path)]
    read = _outcome(capsys, argv)
    monkeypatch.setattr(peirce, "_stream_algebra", lambda fh, max_products: None)
    assert _outcome(capsys, argv) == read
    # the unit0 of a string reads whole as a list of its characters
    if case == "unit0 as text":
        assert read[0] == 1


def _mta_outcome(argv, run=("-m", "mta"), **kwargs):
    """(exit status, stdout, stderr) of `python -m mta *argv`, or of `python
    *run *argv`, which must end inside 10 s."""
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, *run, *argv],
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True,
        timeout=10,
        **kwargs,
    )
    return proc.returncode, proc.stdout, proc.stderr


def _validate_outcome(path, **kwargs):
    """_mta_outcome of `peirce validate --algebra path`."""
    return _mta_outcome(["peirce", "validate", "--algebra", str(path)], **kwargs)


_MM12 = Path(__file__).resolve().parent / "golden" / "cli" / "inputs" / "mm12.json"


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes here")
def test_named_pipe_is_read_whole_once(tmp_path):
    """An algebra file written into a named pipe, its writer closing once
    the file is written, is read whole from the one handle it is opened
    on: `peirce validate` prints what it prints on the regular file, and
    does not wait for a second writer."""
    fifo = tmp_path / "mm12.fifo"
    os.mkfifo(fifo)

    def write():
        with open(fifo, "wb") as fh:
            fh.write(_MM12.read_bytes())

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    read = _validate_outcome(fifo)
    writer.join(10)
    assert read == _validate_outcome(_MM12) and read[0] == 0, read


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin here")
def test_piped_stdin_is_read_whole_once():
    """`--algebra /dev/stdin` fed by a pipe reads as the regular file."""
    read = _validate_outcome("/dev/stdin", input=_MM12.read_bytes())
    assert read == _validate_outcome(_MM12) and read[0] == 0, read


def _over_cap(head, item, tail):
    """head, item as many times as fit, and tail, padded with spaces to
    MAX_INPUT_BYTES + 1 bytes."""
    n = (MAX_INPUT_BYTES - len(head) - len(tail)) // len(item)
    text = head + item * n + tail
    return (text + " " * (MAX_INPUT_BYTES + 1 - len(text))).encode()


_PRODUCT = '{"i": 0, "j": 0, "k": 0, "a": 0, "b": 0, "c": 0, "coeff": "1"}'
_MODULE = '{"label": "vac", "graded_dims": [1, 0, 1, 1], "conformal_weight": "0"}'
# each reader and an input of MAX_INPUT_BYTES + 1 bytes that it would parse
# past the byte cap if it read the input whole: a products-first algebra
# (read whole by json.load), a module list and a rank-1 gram file whose
# one row is a single line
_OVER_CAP_PIPES = {
    "algebra": (
        ["peirce", "validate", "--algebra"],
        lambda: _over_cap(
            '{"products": [' + _PRODUCT, ", " + _PRODUCT, '], "max_degree": 0, "dims": [[1]], "unit0": ["1"]}'
        ),
    ),
    "modules": (
        ["zhu", "rational", "--degree", "0", "--modules"],
        lambda: _over_cap("[" + _MODULE, ", " + _MODULE, "]"),
    ),
    "gram": (["lattice", "cosets", "--gram"], lambda: _over_cap("1\n8", " 0", "\n")),
}

# Runs `python -m mta` with the arguments it is given, under a 1 GiB
# address-space limit, and prints the child's exit status and peak RSS in
# KiB.  A child's peak counts what the process that forked it held, so this
# small process forks it, not the test process.
_PEAK_RSS = """
import os, resource, subprocess, sys
resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))
argv = [sys.executable, "-X", "dev", "-W", "error", "-m", "mta", *sys.argv[1:]]
proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def _peak_outcome(argv, **kwargs):
    """(exit status, peak RSS in MiB, stderr) of `python -m mta *argv`,
    which must end inside 10 s."""
    _, out, err = _mta_outcome(argv, ("-c", _PEAK_RSS), **kwargs)
    code, peak = map(int, out.split())
    return code, peak / 1024, err.decode()


_AT_THE_BYTE_CAP = (
    f"bytes in the file: more than {MAX_INPUT_BYTES}, over the desk-scale limit of {MAX_INPUT_BYTES};"
)


@pytest.mark.skipif(sys.platform != "linux", reason="peak RSS from wait4 in KiB on Linux only")
@pytest.mark.parametrize("through", ["fifo", "stdin"])
@pytest.mark.parametrize("reader", _OVER_CAP_PIPES)
def test_over_cap_pipes_exit_two_at_the_byte_cap(reader, through, tmp_path):
    """An input of MAX_INPUT_BYTES + 1 bytes through a named pipe or a pipe
    on /dev/stdin, which tells no size, exits 2 at the byte cap once one
    byte past it is read: the child's peak RSS stays under 30 MiB, its
    message states no size it did not measure, and under -X dev -W error
    it leaves no handle open."""
    argv, build = _OVER_CAP_PIPES[reader]
    data = build()
    if through == "stdin":
        outcome = _peak_outcome([*argv, "/dev/stdin"], input=data)
    else:
        fifo = tmp_path / "input.fifo"
        os.mkfifo(fifo)

        def write():
            # the reader closes the pipe once it has read past the cap
            with contextlib.suppress(BrokenPipeError), open(fifo, "wb") as fh:
                fh.write(data)

        writer = threading.Thread(target=write, daemon=True)
        writer.start()
        outcome = _peak_outcome([*argv, str(fifo)])
        writer.join(10)
    code, peak, err = outcome
    assert code == 2 and _AT_THE_BYTE_CAP in err, outcome
    assert "Warning" not in err and peak < 30, outcome


@pytest.mark.skipif(sys.platform != "linux", reason="peak RSS from wait4 in KiB on Linux only")
@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero here")
def test_endless_input_exits_two_at_the_byte_cap():
    """/dev/zero, which never ends, is read only to one byte past the cap."""
    code, peak, err = _peak_outcome(["zhu", "rational", "--degree", "0", "--modules", "/dev/zero"])
    assert code == 2 and _AT_THE_BYTE_CAP in err and peak < 30, (code, peak, err)


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin here")
@pytest.mark.parametrize(
    "argv, name",
    [
        (["peirce", "validate", "--algebra"], "mm12.json"),
        (["zhu", "rational", "--degree", "2", "--modules"], "modules.json"),
        (["lattice", "cosets", "--gram"], "a4.gram"),
    ],
)
def test_piped_inputs_under_the_cap_parse(argv, name):
    """Each reader given its input through a pipe on /dev/stdin prints what
    it prints on the regular file, with and without --unsafe-no-limits."""
    path = _MM12.parent / name
    expected = _mta_outcome([*argv, str(path)])
    assert expected[0] == 0, expected
    for flags in ((), ("--unsafe-no-limits",)):
        assert _mta_outcome([*argv, "/dev/stdin", *flags], input=path.read_bytes()) == expected, flags


def test_products_limit_is_checked_before_each_product_is_stored(tmp_path, monkeypatch):
    """Past max_products the stream reads and tallies each product but
    stores none: the constructor gets the first max_products, whose
    coefficients alone are parsed, and the tallies are those of the
    uncapped read."""
    data = matrix_model([[1, 2], [1, 0]]).to_json_dict()
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(data))
    n = len(data["products"])
    whole, tallies = _streamed(path)
    read = []
    real = peirce.parse_frac
    monkeypatch.setattr(peirce, "parse_frac", lambda x: read.append(x) or real(x))
    for cap in (0, 1, n - 1):
        read.clear()
        capped, capped_tallies = _streamed(path, cap)
        assert read[:cap] == [e["coeff"] for e in data["products"][:cap]]
        assert len(read) == cap + len(data["unit0"]), cap
        assert capped_tallies == tallies, cap
        assert capped.entries() == whole.entries()[:cap], cap
    algebra, (products, _work, _digits) = _streamed(path, n)
    assert products == n and _same_algebra(algebra, PeirceAlgebra.from_json_dict(data))


def test_over_cap_files_are_refused_without_a_whole_read(capsys, tmp_path, monkeypatch):
    """Every algebra file of the limit sites, and 40 000 products over the
    products cap, exits 2 on the stream's tallies: the file is read once,
    never whole."""

    def whole(*args):
        raise AssertionError("read whole")

    monkeypatch.setattr(cli.json, "load", whole)
    path = tmp_path / "alg.json"
    data = _products_free([[2]])
    data["products"] = [{"i": 0, "j": 0, "k": 0, "a": 0, "b": 0, "c": 0, "coeff": "0"}] * 40000
    sites = [(["peirce", "validate", "--algebra", "{input}"], data, "products", 40000, MAX_ALGEBRA_PRODUCTS)]
    sites += [site[:5] for site in _LIMIT_SITES.values() if site[0][0] == "peirce"]
    for argv, data, what, size, limit in sites:
        path.write_text(json.dumps(data))
        err = _exits_two_fast(capsys, [a.format(input=path) for a in argv])
        assert f"{what}: {size}, over the desk-scale limit of {limit};" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["peirce", "validate", "--algebra"],
        ["zhu", "rational", "--degree", "1", "--modules"],
        ["lattice", "cosets", "--gram"],
    ],
)
def test_byte_cap_is_read_before_the_file(argv, capsys, tmp_path, monkeypatch):
    """An input one byte over MAX_INPUT_BYTES exits 2 on the size of the
    open file, before json.load or the gram reader reads any of it; a file
    at the cap, or one over it with --unsafe-no-limits, is parsed."""

    def parse(*args, **kwargs):
        raise AssertionError("parsed")

    monkeypatch.setattr(json, "load", parse)
    monkeypatch.setattr(lattice, "_gram_header", parse)
    path = tmp_path / "big.json"
    path.write_text("{}")
    os.truncate(path, MAX_INPUT_BYTES + 1)
    err = _exits_two_fast(capsys, [*argv, str(path)])
    assert f"bytes in the file: {MAX_INPUT_BYTES + 1}, over the desk-scale limit of {MAX_INPUT_BYTES};" in err
    with pytest.raises(AssertionError, match="^parsed$"):
        main([*argv, str(path), "--unsafe-no-limits"])
    os.truncate(path, MAX_INPUT_BYTES)
    with pytest.raises(AssertionError, match="^parsed$"):
        main([*argv, str(path)])


def test_long_gram_file_exits_two_fast(capsys, tmp_path):
    """A 10 MB rank-1 gram file, 500 000 rows of ten zeros after its one
    row, exits 2 at the byte cap within 1 s; with --unsafe-no-limits it
    exits 2 within 1 s too, with the row-count message, as the reader
    stops one row past the rank."""
    path = tmp_path / "long.gram"
    path.write_text("1\n8\n" + "0 0 0 0 0 0 0 0 0 0\n" * 500_000)
    argv = ["lattice", "cosets", "--gram", str(path)]
    assert "bytes in the file: 10000004, over the desk-scale limit" in _exits_two_fast(capsys, argv)
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--unsafe-no-limits"])
    assert time.perf_counter() - start < 1 and exc.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith(f"error: cannot read gram file {path}: expected 1 rows of 1 integers\n")


def test_lattice_caps_exit_two_fast(capsys, tmp_path):
    path = tmp_path / "big.gram"
    path.write_text("1\n200000\n")
    _exits_two_fast(capsys, ["lattice", "cosets", "--gram", str(path)])
    path.write_text("2\n2000 0\n0 2000\n")
    _exits_two_fast(capsys, ["lattice", "weights", "--gram", str(path)])
    # the rank is read before the Gram matrix is factored, O(rank^3)
    path.write_text(_diagonal_gram(300))
    _exits_two_fast(capsys, ["lattice", "cosets", "--gram", str(path)])
    demos = Path(__file__).resolve().parents[1] / "demos"
    _exits_two_fast(
        capsys, ["lattice", "dims", "--gram", str(demos / "z8.gram"), "--coset", "0", "--max", "101"]
    )
    # the demo gram and the rank-4 A4 gram stay accepted
    argv = ["lattice", "dims", "--gram", str(demos / "z8.gram"), "--coset", "1", "--max", "100"]
    code, out = run(capsys, argv)
    assert code == 0 and len(json.loads(out)["dims"]) == 101
    path.write_text("4\n2 -1 0 0\n-1 2 -1 0\n0 -1 2 -1\n0 0 -1 2\n")
    code, out = run(capsys, ["lattice", "weights", "--gram", str(path)])
    assert code == 0 and len(json.loads(out)["weights"]) == 5


def test_partitions_caps_exit_two_fast(capsys):
    _exits_two_fast(capsys, ["partitions", "count", "--rank", "1", "--weight", "2000"])
    _exits_two_fast(capsys, ["partitions", "count", "--rank", "2000", "--weight", "5"])
    _exits_two_fast(capsys, ["partitions", "list", "--rank", "3", "--weight", "22"])
    code, out = run(
        capsys, ["partitions", "list", "--rank", "3", "--weight", "9", "--unsafe-no-limits"]
    )
    assert code == 0 and len(json.loads(out)["items"]) == 1479
    # the partitions commands of the tests, the goldens and the benchmark,
    # and the largest accepted sizes
    accepted = [("count", 2, 6), ("list", 2, 6), ("list", 3, 8), ("list", 4, 8), ("count", 4, 400)]
    for action, n, m in accepted:
        code, out = run(capsys, ["partitions", action, "--rank", str(n), "--weight", str(m)])
        assert code == 0 and json.loads(out)["weight"] == m


@pytest.mark.parametrize(
    "argv",
    [
        ["heisenberg", "verify", "--rank", "1", "--degree", "-1"],
        ["heisenberg", "identity", "--rank", "0", "--degree", "2"],
        ["partitions", "count", "--rank", "0", "--weight", "3"],
        ["partitions", "list", "--rank", "1", "--weight", "-1"],
        ["lattice", "dims", "--gram", "{demos}/z8.gram", "--coset", "0", "--max", "-1"],
        ["zhu", "heisenberg", "--rank", "1", "--degree", "-2"],
        ["zhu", "rational", "--modules", "{inputs}/modules.json", "--degree", "-1"],
        ["zhu", "exceptional", "--dims", "1,0,1", "--max", "-1"],
    ],
    ids=lambda argv: " ".join(argv[:2]),
)
def test_out_of_range_integers_are_usage_errors(argv):
    root = Path(__file__).resolve().parents[1]
    inputs = root / "tests" / "golden" / "cli" / "inputs"
    argv = [a.format(demos=root / "demos", inputs=inputs) for a in argv]
    proc = subprocess.run(
        [sys.executable, "-m", "mta", *argv],
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr and "must be at least" in proc.stderr


# text integers are ASCII [+-]?[0-9]+; int() would read "8_0" as 80 and
# Arabic-Indic or fullwidth digits as ASCII ones
_LOOSE_GRAMS = {
    "underscore": "1\n8_0\n",
    "arabic-indic": "1\n\u0668\n",
    "fullwidth": "1\n\uff18\n",
    "rank-underscore": "0_1\n8\n",
    "decimal": "1\n8.0\n",
}


@pytest.mark.parametrize(
    "argv",
    [
        *(["lattice", "cosets", "--gram", f"{{tmp}}/{name}.gram"] for name in _LOOSE_GRAMS),
        ["zhu", "exceptional", "--dims", "1,1_0,-3,0", "--max", "3"],
        ["zhu", "exceptional", "--dims", "1,-3,0", "--max", "2"],
        ["zhu", "exceptional", "--dims", "1,0,1,-1", "--max", "2"],
        ["zhu", "exceptional", "--dims", "1,\u0660,1", "--max", "2"],
        ["zhu", "exceptional", "--dims", "1, 0,1", "--max", "2"],
    ],
    ids=[
        *_LOOSE_GRAMS,
        "dims-underscore",
        "dims-negative",
        "dims-negative-tail",
        "dims-arabic-indic",
        "dims-space",
    ],
)
def test_loose_text_integers_are_usage_errors(argv, tmp_path):
    for name, text in _LOOSE_GRAMS.items():
        (tmp_path / f"{name}.gram").write_text(text, encoding="utf-8")
    root = Path(__file__).resolve().parents[1]
    argv = [a.format(tmp=tmp_path) for a in argv]
    proc = subprocess.run(
        [sys.executable, "-m", "mta", *argv],
        env={**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONIOENCODING": "utf-8"},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr and "error:" in proc.stderr


@pytest.mark.parametrize(
    "argv, value",
    [
        (["zhu", "exceptional", "--dims", "1,0,1", "--max", "1_0"], "1_0"),
        (["lattice", "dims", "--gram", "{demos}/z8.gram", "--coset", "0_1"], "0_1"),
        (["partitions", "count", "--rank", "\u0663", "--weight", "2"], "\u0663"),
        (["heisenberg", "verify", "--rank", "1", "--degree", "\uff13"], "\uff13"),
        (["selftest", "--fast", "--seed", " 1"], " 1"),
    ],
    ids=["max-underscore", "coset-underscore", "rank-arabic-indic", "degree-fullwidth", "seed-space"],
)
def test_loose_option_integers_are_usage_errors(argv, value):
    # int() would read these as 10, 1, 3, 3 and 1
    root = Path(__file__).resolve().parents[1]
    argv = [a.format(demos=root / "demos") for a in argv]
    proc = subprocess.run(
        [sys.executable, "-m", "mta", *argv],
        env={**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONIOENCODING": "utf-8"},
        capture_output=True,
        text=True,
        encoding="utf-8",
        timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert f"invalid int value: {value!r}" in proc.stderr


def _dense_corner(n):
    """dims [[n]] with every product holding every basis element."""
    data = _products_free([[n]])
    data["products"] = [
        {"i": 0, "j": 0, "k": 0, "a": a, "b": b, "c": c, "coeff": "1"}
        for a in range(n)
        for b in range(n)
        for c in range(n)
    ]
    return data


def test_algebra_work_and_digit_caps_exit_two_fast(capsys, tmp_path):
    path = tmp_path / "alg.json"
    # 32768 products pass the products cap, but associativity would chain
    # 67 M multiply-adds
    path.write_text(json.dumps(_dense_corner(32)))
    _exits_two_fast(capsys, ["peirce", "validate", "--algebra", str(path)])
    data = matrix_model([[1, 2], [1, 0]]).to_json_dict()
    data["products"][3]["coeff"] = "7" * 4000
    path.write_text(json.dumps(data))
    _exits_two_fast(capsys, ["peirce", "validate", "--algebra", str(path)])
    data["products"][3]["coeff"] = "1/" + "3" * 4000
    path.write_text(json.dumps(data))
    _exits_two_fast(capsys, ["peirce", "morita", "--algebra", str(path), "--degree", "1"])
    data["products"][3]["coeff"] = 1
    data["unit0"][0] = int("7" * 4000)
    path.write_text(json.dumps(data))
    _exits_two_fast(capsys, ["peirce", "zigzag", "--algebra", str(path), "--degree", "1"])
    data["unit0"][0] = "9" * 100
    assert _algebra_sizes(data)["digits in one coefficient"] == (100, MAX_COEFFICIENT_DIGITS)


def test_invalid_algebra_reports_instead_of_raising(tmp_path):
    # acceptance test 4's mutation: entry 7 of matrix_model([2, 2]) plus one
    p = matrix_model([2, 2])
    entries = p.entries()
    i, j, k, a, b, c, v = entries[7]
    entries[7] = (i, j, k, a, b, c, v + 1)
    perturbed = tmp_path / "perturbed.json"
    data = PeirceAlgebra(p.max_degree, p.dims, entries, p.unit0).to_json_dict()
    perturbed.write_text(json.dumps(data))
    # two small files that break the corner unit: a products-free dims [[60]]
    # and a dense all-ones dims [[14]] with unit e_0
    products_free = tmp_path / "products_free.json"
    products_free.write_text(json.dumps(_products_free([[60]])))
    dense = tmp_path / "dense.json"
    dense.write_text(json.dumps(_dense_corner(14)))
    runs = [(perturbed, "morita", 1), (perturbed, "zigzag", 0)]
    for path in (products_free, dense):
        runs += [(path, "zigzag", 0), (path, "morita", 0)]
    src = Path(__file__).resolve().parents[1] / "src"
    for path, action, degree in runs:
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "mta", "peirce", action, "--algebra", str(path), "--degree", str(degree)],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert time.perf_counter() - start < 5, (path.name, action)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        out = json.loads(proc.stdout)
        assert out["degree"] == degree and out["ok"] is False and out["error"]
        assert out["error"].startswith("corner-unit: ")
        assert list(out) == ["degree", "ok", "error"]


def _mm12_with(change):
    data = matrix_model([[1, 2], [1, 0]]).to_json_dict()
    change(data)
    return data


_MODULES = [
    {"label": "vac", "graded_dims": [1, 0, 1], "conformal_weight": "0"},
    {"label": "tw", "graded_dims": [1, 1, 2], "conformal_weight": "1/16"},
]


def _modules_with(graded_dims):
    return [_MODULES[0], {**_MODULES[1], "graded_dims": graded_dims}]


# Indices and sizes in input files must be JSON integers: a float was
# truncated or crashed, and a numeric string was converted.
_NON_INTEGER_INPUTS = {
    "index 0.5 validate": ("validate", _mm12_with(lambda d: d["products"][0].update(a=0.5))),
    "index 0.5 zigzag": ("zigzag", _mm12_with(lambda d: d["products"][0].update(a=0.5))),
    "index 0.5 morita": ("morita", _mm12_with(lambda d: d["products"][0].update(a=0.5))),
    "component 1.0": ("validate", _mm12_with(lambda d: d["products"][-1].update(k=1.0))),
    "index true": ("validate", _mm12_with(lambda d: d["products"][0].update(c=True))),
    "dims 2.5": ("validate", {"max_degree": 0, "dims": [[2.5]], "products": [], "unit0": ["1", "0"]}),
    "dims string": ("validate", _mm12_with(lambda d: d["dims"][0].__setitem__(0, "2"))),
    "dims infinity": ("validate", _mm12_with(lambda d: d["dims"][0].__setitem__(0, float("inf")))),
    "max_degree 1.0": ("zigzag", _mm12_with(lambda d: d.update(max_degree=1.0))),
    "graded_dims 0.5": ("rational", _modules_with([1, 0.5, 1.9])),
    "graded_dims string": ("rational", _modules_with([1, "1", 2])),
}


# A zero denominator in a rational coefficient, unit or weight ended in a
# ZeroDivisionError traceback.
_ZERO_DENOMINATORS = {
    "coeff": ("validate", _mm12_with(lambda d: d["products"][0].update(coeff="1/0"))),
    "unit0": ("validate", _mm12_with(lambda d: d["unit0"].__setitem__(0, "3/0"))),
    "conformal_weight": ("rational", [_MODULES[0], {**_MODULES[1], "conformal_weight": "1/0"}]),
}


def _assert_input_is_usage_error(action, data, tmp_path):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    if action == "rational":
        argv, message = ["zhu", "rational", "--modules", str(path), "--degree", "2"], "bad module data"
    else:
        argv, message = ["peirce", action, "--algebra", str(path)], "malformed algebra file"
        if action != "validate":
            argv += ["--degree", "1"]
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "mta", *argv],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr and message in proc.stderr


@pytest.mark.parametrize("case", sorted(_NON_INTEGER_INPUTS))
def test_non_integer_sizes_and_indices_are_usage_errors(case, tmp_path):
    _assert_input_is_usage_error(*_NON_INTEGER_INPUTS[case], tmp_path)


@pytest.mark.parametrize("case", sorted(_ZERO_DENOMINATORS))
def test_zero_denominators_are_usage_errors(case, tmp_path):
    _assert_input_is_usage_error(*_ZERO_DENOMINATORS[case], tmp_path)


def _algebra_error(capsys, path, data) -> str:
    """The last stderr line of `peirce validate` on data, which must exit 2."""
    path.write_text(json.dumps(data))
    with pytest.raises(SystemExit) as info:
        main(["peirce", "validate", "--algebra", str(path)])
    assert info.value.code == 2
    return capsys.readouterr().err.splitlines()[-1]


def _bad_product(data):
    data["products"][1]["coeff"] = "1/0"


# A second fault: one the constructor meets before it reads product 1, or
# an unreadable product after it, which must not be named although product
# 1 is released as it is read.
_SECOND_FAULTS = {
    "unit0": lambda d: d["unit0"].__setitem__(0, "x"),
    "dims": lambda d: d["dims"][1].__setitem__(1, -1),
    "earlier index": lambda d: d["products"][0].update(a=99),
    "later unreadable product": lambda d: d["products"][3].pop("c"),
}


@pytest.mark.parametrize("fault", sorted(_SECOND_FAULTS))
def test_doubly_malformed_algebra_file_names_the_bad_product(fault, capsys, tmp_path):
    # products are read as the constructor stores them, yet a file with two
    # faults still names its unreadable product, as when every product was
    # read before anything else
    other = _SECOND_FAULTS[fault]
    path = tmp_path / "bad.json"
    product_only = _algebra_error(capsys, path, _mm12_with(_bad_product))
    other_only = _algebra_error(capsys, path, _mm12_with(other))
    both = _algebra_error(capsys, path, _mm12_with(lambda d: (_bad_product(d), other(d))))
    assert both == product_only != other_only
    assert both.startswith(f"mta: error: malformed algebra file {path}: ")


# Every desk-scale limit: name -> (argv, the input file, the size's name in
# the message, its size, its limit, whether --unsafe-no-limits then runs it
# in well under a second).  "{input}" in argv names the file written from
# the input: text as it is, anything else as JSON.
_LIMIT_SITES = {
    "partitions count rank": (
        ["partitions", "count", "--rank", "2000", "--weight", "5"], None, "rank", 2000, MAX_RANK, True
    ),
    "partitions count weight": (
        ["partitions", "count", "--weight", "2000"], None, "weight", 2000, MAX_PARTITION_WEIGHT, True
    ),
    "partitions list rank": (
        ["partitions", "list", "--rank", "5", "--weight", "2"], None, "rank", 5, MAX_RANK, True
    ),
    "partitions list weight": (
        ["partitions", "list", "--rank", "3", "--weight", "9"], None, "weight", 9, MAX_DEGREE, True
    ),
    "heisenberg rank": (
        ["heisenberg", "identity", "--rank", "5", "--degree", "2"], None, "rank", 5, MAX_RANK, True
    ),
    "heisenberg degree": (
        ["heisenberg", "zhu", "--degree", "9"], None, "degree", 9, MAX_DEGREE, True
    ),
    "zhu heisenberg rank": (
        ["zhu", "heisenberg", "--rank", "5", "--degree", "2"], None, "rank", 5, MAX_RANK, True
    ),
    "zhu heisenberg degree": (
        ["zhu", "heisenberg", "--degree", "9"], None, "degree", 9, MAX_DEGREE, True
    ),
    "lattice rank": (
        ["lattice", "weights", "--gram", "{input}"],
        _diagonal_gram(5), "lattice rank", 5, MAX_LATTICE_RANK, True,
    ),
    "lattice determinant": (
        ["lattice", "cosets", "--gram", "{input}"],
        "1\n5000\n", "lattice determinant", 5000, MAX_LATTICE_COSETS, True,
    ),
    "lattice --max": (
        ["lattice", "dims", "--gram", "{input}", "--coset", "1", "--max", "101"],
        "1\n8\n", "--max", 101, MAX_LATTICE_LEVEL, True,
    ),
    "algebra dimension": (
        ["peirce", "validate", "--algebra", "{input}"],
        _products_free([[129]]), "largest component dimension", 129, MAX_ALGEBRA_DIM, True,
    ),
    "algebra balancing relations": (
        ["peirce", "validate", "--algebra", "{input}"],
        _products_free([[128, 128], [128, 128]]),
        "balancing relations", 2**23, MAX_BALANCING_RELATIONS, True,
    ),
    "algebra components": (
        ["peirce", "validate", "--algebra", "{input}"],
        _one_product_grid(501), "components in the grid", 501**2, MAX_ALGEBRA_COMPONENTS, False,
    ),
    "algebra products": (
        ["peirce", "validate", "--algebra", "{input}"],
        _products_free([[33]]) | {"products": _dense_corner(33)["products"][:32769]},
        "products", 32769, MAX_ALGEBRA_PRODUCTS, False,
    ),
    "algebra associativity": (
        ["peirce", "zigzag", "--algebra", "{input}", "--degree", "0"],
        _dense_corner(22),
        "associativity multiply-adds", 22 * 22**2 * 2 * 22**2, MAX_ASSOCIATIVITY_WORK, False,
    ),
    "algebra digits": (
        ["peirce", "morita", "--algebra", "{input}", "--degree", "1"],
        _mm12_with(lambda d: d["products"][3].update(coeff="7" * 101)),
        "digits in one coefficient", 101, MAX_COEFFICIENT_DIGITS, True,
    ),
}


@pytest.mark.parametrize("site", list(_LIMIT_SITES))
def test_desk_scale_limit_sites(site, capsys, tmp_path):
    argv, data, what, size, limit, cheap = _LIMIT_SITES[site]
    if data is not None:
        path = tmp_path / "input"
        path.write_text(data if isinstance(data, str) else json.dumps(data))
        argv = [a.format(input=path) for a in argv]
    assert size > limit
    message = f"{what}: {size}, over the desk-scale limit of {limit}; pass --unsafe-no-limits"
    assert f"{message} to override" in _exits_two_fast(capsys, argv)
    if cheap:
        start = time.perf_counter()
        code = main([*argv, "--unsafe-no-limits"])
        assert time.perf_counter() - start < 1
        assert code in (0, 1) and capsys.readouterr().err == ""


def test_desk_scale_boundaries_are_inside_the_limits():
    assert 400 <= MAX_PARTITION_WEIGHT
    assert 100 <= MAX_LATTICE_LEVEL
    assert _whole_tallies(_dense_corner(22))[1] == 22 * 22**2 * 2 * 22**2


def test_input_fixtures_load_under_the_integer_rule(tmp_path):
    """The JSON inputs of the CLI goldens and of the benchmark are integer
    clean: every algebra file and every module record loads."""
    root = Path(__file__).resolve().parents[1]
    names = ["mm332.json", "mm12.json", "mm22.json", "mm22_perturbed.json", "h14.json", "h15.json"]
    names += ["h23.json", "dims60.json", "modules.json"]
    subprocess.run(
        [sys.executable, str(root / "perfbench" / "gen_inputs.py"), str(tmp_path), *names],
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        check=True,
        timeout=120,
    )
    generated = sorted(tmp_path.glob("*.json"))
    assert [path.name for path in generated] == sorted(names)
    paths = generated + sorted((root / "tests" / "golden" / "cli" / "inputs").glob("*.json"))
    for path in paths:
        data = json.loads(path.read_text())
        if path.name == "modules.json":
            for item in data:
                SimpleModuleData(item["label"], tuple(item["graded_dims"]))
        else:
            PeirceAlgebra.from_json_dict(data)


def test_valid_algebra_without_strong_identity_reports(capsys, tmp_path):
    # every axiom holds, but component (1,1) is spanned by v*u with u*v = 0,
    # so nothing in it acts as the identity on the edges
    entries = [(0, 0, 0, 0, 0, 0, 1), (0, 0, 1, 0, 0, 0, 1), (1, 0, 0, 0, 0, 0, 1), (1, 0, 1, 0, 0, 0, 1)]
    path = tmp_path / "no_identity.json"
    path.write_text(json.dumps(PeirceAlgebra(1, [[1, 1], [1, 1]], entries, [1]).to_json_dict()))
    code, out = run(capsys, ["peirce", "validate", "--algebra", str(path)])
    assert code == 0
    code, out = run(capsys, ["peirce", "morita", "--algebra", str(path), "--degree", "1"])
    assert code == 1
    assert json.loads(out) == {"degree": 1, "ok": False, "error": "no strong identity at degree 1"}


def test_closed_stdout_exits_without_traceback():
    # the reader of the pipe is gone before the first write, as after
    # `mta partitions list ... | head -c 100` once head has exited
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = Path(__file__).resolve().parents[1] / "src"
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "mta", "partitions", "list", "--rank", "3", "--weight", "8"],
            env={**os.environ, "PYTHONPATH": str(src)},
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == ""


# JSON values as json.loads gives them, and tuples, which json.dumps writes
# as lists; keys of every kind json.dumps accepts
_JSON_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.integers(10**40, 10**60) | st.floats() | st.text()
)
_JSON_KEYS = st.text() | st.integers() | st.booleans() | st.none() | st.floats()
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_JSON_KEYS, inner, max_size=4),
    max_leaves=30,
)


def _emitted(payload) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _emit(argparse.Namespace(format="json"), payload, [])
    return out.getvalue()


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(_JSON_KEYS, _JSON_VALUES, max_size=6), _JSON_VALUES)
def test_streamed_json_equals_json_dumps(payload, value):
    assert _emitted(payload) == json.dumps(payload) + "\n"
    assert _emitted({"nested": value, "": [value, [value]]}) == (
        json.dumps({"nested": value, "": [value, [value]]}) + "\n"
    )


def test_streamed_json_edge_cases():
    for payload in (
        {},
        {"empty": [], "none": {}, "rows": [[], [{}], ()]},
        {"\u00e9\u4e2d\U0001f600": "\x00\x1f\x7f\u2028\ud800", '"\\': ["\n\t", "\\"]},
        {"big": [10**400, -(10**400)], "flags": [True, False, None], 1: 2, None: True, 2.5: [1.0]},
    ):
        assert _emitted(payload) == json.dumps(payload) + "\n"


def test_streaming_a_pairing_report_halves_the_emit_peak():
    # a ratio in one process, since absolute byte counts differ across
    # Python versions: json.dumps makes a string for each of the 11 664
    # cells before joining them, the streamed writer one row of 108 at a time
    payload = verify_strong_identity(3, 5).to_json()
    args = argparse.Namespace(format="json")
    peaks = []
    for emit in (lambda: _emit(args, payload, []), lambda: print(json.dumps(payload))):
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            tracemalloc.start()
            try:
                emit()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
    streamed, materialized = peaks
    assert streamed < materialized / 2, peaks


def test_pairing_report_renders_its_matrix_a_row_at_a_time():
    """`heisenberg verify` at (3, 7), 429 labels, hands the writer its rows
    as they are rendered: the emit peak is that of the same report with no
    matrix plus a few rows, where the 184 041 cell strings of to_json hold
    1.7 MiB.  to_json still gives them all, and stdout is the same."""
    report = verify_strong_identity(3, 7)
    args = argparse.Namespace(format="json")

    def peak(write):
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            tracemalloc.start()
            try:
                write()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

    # one row: its cell list and what encoding it takes
    rows = report._json_by_rows()["matrix"]
    row = peak(lambda: json.dumps(next(rows)))
    no_matrix = peak(lambda: _emit(args, {**report._json_by_rows(), "matrix": []}, []))
    assert peak(lambda: _emit(args, report._json_by_rows(), [])) <= no_matrix + 3 * row
    assert peak(lambda: _emit(args, report.to_json(), [])) > no_matrix + 30 * row
    assert _emitted(report._json_by_rows()) == json.dumps(report.to_json()) + "\n"


def _listed_outputs(n, m):
    """{(command, format): stdout} of `partitions list` and `heisenberg
    identity` at (n, m), made from the lists the library builds."""
    labels = enumerate_labeled_partitions(n, m)
    terms = strong_identity(n, m)
    return {
        ("list", "json"): json.dumps({"rank": n, "weight": m, "items": [lp.to_json() for lp in labels]}) + "\n",
        ("list", "text"): "".join(f"{lp!r}\n" for lp in labels),
        ("identity", "json"): json.dumps({"rank": n, "degree": m, "terms": strong_identity_to_json(terms)}) + "\n",
        ("identity", "text"): "".join(f"{frac_str(c)}  {lp!r}\n" for lp, c in terms),
    }


def _streamed_argv(command, n, m, fmt):
    if command == "list":
        return ["partitions", "list", "--rank", str(n), "--weight", str(m), "--format", fmt]
    return ["heisenberg", "identity", "--rank", str(n), "--degree", str(m), "--format", fmt]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_streamed_labels_equal_the_listed_library_output(n, capsys):
    """`partitions list` and `heisenberg identity` write each label as the
    enumerator yields it; at every weight of the rank-4, weight-8 box and in
    both formats, stdout is what the list-built library objects give."""
    for m in range(MAX_DEGREE + 1):
        for (command, fmt), want in _listed_outputs(n, m).items():
            assert run(capsys, _streamed_argv(command, n, m, fmt)) == (0, want), (command, n, m, fmt)


def test_streamed_labels_hold_a_tenth_of_the_list_build():
    """At (4, 8), 2 580 labels, the in-process peak of `partitions list`
    and `heisenberg identity` is under a tenth of what the list build
    holds: the labels and their rendered items, or the terms and their
    JSON, all at once (about 1.4 MiB and 2.6 MiB)."""

    def held(build):
        gc.collect()
        tracemalloc.start()
        try:
            built = build()  # alive while measured
            return tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()

    def peak(argv):
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            main(argv)  # first-call imports and caches are not the command's
            gc.collect()
            tracemalloc.start()
            try:
                assert main(argv) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

    def listed_items():
        labels = enumerate_labeled_partitions(4, 8)
        return labels, [lp.to_json() for lp in labels]

    def listed_terms():
        terms = strong_identity(4, 8)
        return terms, strong_identity_to_json(terms)

    for command, build in (("list", listed_items), ("identity", listed_terms)):
        whole = held(build)
        for fmt in ("json", "text"):
            got = peak(_streamed_argv(command, 4, 8, fmt))
            assert got < whole / 10, (command, fmt, got, whole)


@pytest.mark.parametrize("read", [0, 4096])
def test_pipe_closed_during_a_streamed_report_exits_without_traceback(read):
    # `heisenberg verify` (3, 6) writes 250 kB, more than a pipe holds, in
    # row-sized pieces; the reader leaves before the first piece or after
    # the first 4 kB
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.Popen(
        [sys.executable, "-m", "mta", "heisenberg", "verify", "--rank", "3", "--degree", "6"],
        env={**os.environ, "PYTHONPATH": str(src)},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    head = proc.stdout.read(read)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert err == b""
    assert len(head) == read and head.startswith(b'{"rank": 3, "degree": 6, '[:read])


# one command per subcommand family; the peirce command runs zigzag, which
# also reads and validates the algebra
_FAMILY_COMMANDS = [
    ["partitions", "list", "--rank", "2", "--weight", "3"],
    ["heisenberg", "verify", "--rank", "2", "--degree", "3"],
    ["lattice", "dims", "--gram", "{demos}/z8.gram", "--coset", "1", "--max", "5"],
    ["peirce", "zigzag", "--algebra", "{algebra}", "--degree", "1"],
    ["zhu", "heisenberg", "--rank", "2", "--degree", "3"],
    ["selftest", "--fast"],
]

# the modules each command loads besides mta.cli and mta.exact: its own
# layers and what they import, never another family's
_FAMILY_MODULES = {
    "partitions": {"mta._frozen", "mta.partitions"},
    "heisenberg": {"mta._frozen", "mta.heisenberg", "mta.partitions"},
    "lattice": {"mta._frozen", "mta.lattice", "mta.partitions"},
    "peirce": {"mta.peirce"},
    "zhu": {"mta._frozen", "mta.zhu", "mta.partitions"},
    "selftest": {"mta._frozen", "mta.heisenberg", "mta.lattice", "mta.partitions", "mta.peirce"},
}

_IMPORT_PROBE = """
import sys
before = set(sys.modules)
import mta.cli
code = mta.cli.main(sys.argv[1:])
added = sorted(set(sys.modules) - before)
sys.stderr.write(" ".join(added))
sys.exit(code)
"""


def _modules_loaded_by(argv, algebra_file, *flags):
    """The modules one command loads, run under _IMPORT_PROBE with the
    interpreter flags given."""
    root = Path(__file__).resolve().parents[1]
    argv = [a.format(demos=root / "demos", algebra=algebra_file) for a in argv]
    proc = subprocess.run(
        [sys.executable, *flags, "-c", _IMPORT_PROBE, *argv],
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stderr.split())


@pytest.mark.parametrize("argv", _FAMILY_COMMANDS, ids=lambda argv: argv[0])
def test_commands_do_not_import_dataclasses_or_inspect(argv, algebra_file):
    # all are slow imports that every command would pay for at start-up
    added = _modules_loaded_by(argv, algebra_file)
    assert "mta.cli" in added
    # a well-formed command line is read without argparse, which would load
    # gettext and, on parsing, locale
    assert not added & {"dataclasses", "inspect", "argparse", "gettext", "locale"}
    loaded = {name for name in added if name.startswith("mta.")}
    assert loaded == {"mta.cli", "mta.exact", *_FAMILY_MODULES[argv[0]]}


@pytest.mark.parametrize("argv", _FAMILY_COMMANDS, ids=lambda argv: argv[0])
def test_only_selftest_loads_random(argv, algebra_file):
    # run with -S: a site hook may import random before any command starts,
    # and the probe would not see a command load it
    added = _modules_loaded_by(argv, algebra_file, "-S")
    assert "mta.cli" in added
    assert ("random" in added) == (argv[0] == "selftest")


# importing fractions loads decimal and numbers too; a command loads it only
# when it makes a value with a denominator: lattice norms, selftest's
# fractional checks and the structure constants of c_mm12, matrix_model([[1,
# 2], [1, 0]]) in a random integer basis.  The strong identity's 1/n
# coefficients are written from the integer symmetry factors, and h14
# eliminates by non-unit pivots, which the integer Echelon does without one
_FRACTIONS_LOADED = [
    (["partitions", "list", "--rank", "2", "--weight", "3"], False),
    (["heisenberg", "verify", "--rank", "2", "--degree", "3"], False),
    (["zhu", "heisenberg", "--rank", "2", "--degree", "3"], False),
    (["peirce", "zigzag", "--algebra", "{algebra}", "--degree", "1"], False),
    (["lattice", "dims", "--gram", "{demos}/z8.gram", "--coset", "1", "--max", "5"], True),
    (["selftest", "--fast"], True),
    (["heisenberg", "identity", "--rank", "2", "--degree", "3"], False),
    (["peirce", "validate", "--algebra", "{h14}"], False),
    (["peirce", "validate", "--algebra", "{golden}/c_mm12.json"], True),
]


@pytest.mark.parametrize(
    ("argv", "loads"),
    _FRACTIONS_LOADED,
    ids=[" ".join(argv[:2]) + (" c_mm12" if "{golden}" in argv[-1] else "") for argv, _ in _FRACTIONS_LOADED],
)
def test_only_a_denominator_loads_fractions(argv, loads, algebra_file, tmp_path):
    # run with -S, as above; assert on fractions alone, since what it
    # imports in turn differs across Python versions
    if "{h14}" in argv:
        h14 = tmp_path / "h14.json"
        h14.write_text(json.dumps(heisenberg_truncation(1, 4, [Fraction(0)]).to_json_dict()))
        argv = [a.replace("{h14}", str(h14)) for a in argv]
    golden = Path(__file__).resolve().parent / "golden" / "cli" / "inputs"
    argv = [a.replace("{golden}", str(golden)) for a in argv]
    added = _modules_loaded_by(argv, algebra_file, "-S")
    assert "mta.cli" in added
    assert ("fractions" in added) == loads


def test_cli_load_peaks_near_the_built_algebra(tmp_path):
    """`peirce` commands stream the algebra file into its product tables: on
    heisenberg_truncation(1, 4, [0]), 1 728 products, the CLI load peaks at
    no more than 1.75 times the algebra it builds (2.2 times when the whole
    text and then every product were held first)."""
    path = tmp_path / "h14.json"
    path.write_text(json.dumps(heisenberg_truncation(1, 4, [Fraction(0)]).to_json_dict()))
    args = argparse.Namespace(unsafe_no_limits=False)
    cli._load_peirce(None, args, str(path))  # imports and caches first
    # the freelists emptied first and the collector off, so every block the
    # load takes is counted whatever ran before
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        algebra = cli._load_peirce(None, args, str(path))
        peak = tracemalloc.get_traced_memory()[1]
        gc.collect()  # and the freelists again, so what is held is the algebra
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        gc.enable()
    assert len(algebra.entries()) == 1728
    assert peak <= 1.75 * held, (peak, held)


# main hands every command line it does not read itself to argparse; its
# output and exit status must be those of build_parser().parse_args, which
# prints the top-level usage for an unrecognized argument
_FAMILIES = ["partitions", "heisenberg", "lattice", "peirce", "zhu"]
_PARSER_CASES = [
    [],
    ["-h"],
    ["nope"],
    *([family] for family in _FAMILIES),
    *([family, "-h"] for family in [*_FAMILIES, "selftest"]),
    ["peirce", "zigzag", "-h"],
    ["lattice", "dims", "--gram", "z8.gram"],
    ["partitions", "count", "--weight", "x"],
    ["partitions", "count", "--weight", "2", "extra"],
]


@pytest.mark.parametrize("argv", _PARSER_CASES, ids=lambda argv: " ".join(argv) or "no-arguments")
def test_family_parser_prints_what_the_full_parser_prints(argv, capsys):
    outcomes = []
    for parse in (main, build_parser().parse_args):
        with pytest.raises(SystemExit) as exc:
            parse(list(argv))
        outcomes.append((exc.value.code, *capsys.readouterr()))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][1] or outcomes[0][2]


# stderr of each parser.error a handler reaches from a well-formed command
# line, as recorded when every command built its parser first; "{inputs}"
# is tests/golden/cli/inputs and "{tmp}" holds the files of _ERROR_FILES
_USAGE = "usage: mta [-h] {partitions,heisenberg,lattice,peirce,zhu,selftest} ...\n"
_ERROR_FILES = {
    "big.gram": "1\n4098\n",
    "algebra.json": json.dumps(
        {
            "max_degree": 0,
            "dims": [[1]],
            "products": [{"i": 0, "j": 0, "k": 0, "a": 0, "b": 0, "c": 1, "coeff": "1"}],
            "unit0": ["1"],
        }
    ),
    "modules.json": "{}",
}
_LIMIT = ", over the desk-scale limit of {}; pass --unsafe-no-limits to override"
_HANDLER_ERRORS = {
    "rank": (["partitions", "count", "--rank", "5", "--weight", "3"], "rank: 5" + _LIMIT.format(4)),
    "weight": (["partitions", "count", "--weight", "401"], "weight: 401" + _LIMIT.format(400)),
    "max": (
        ["lattice", "dims", "--gram", "{inputs}/z8.gram", "--coset", "0", "--max", "101"],
        "--max: 101" + _LIMIT.format(100),
    ),
    "determinant": (
        ["lattice", "cosets", "--gram", "{tmp}/big.gram"],
        "lattice determinant: 4098" + _LIMIT.format(4096),
    ),
    "coset": (
        ["lattice", "dims", "--gram", "{inputs}/z8.gram", "--coset", "8"],
        "coset index 8 out of range 0..7",
    ),
    "peirce-degree": (
        ["peirce", "zigzag", "--algebra", "{inputs}/mm12.json", "--degree", "2"],
        "degree 2 out of range 0..1",
    ),
    "malformed-algebra": (
        ["peirce", "validate", "--algebra", "{tmp}/algebra.json"],
        "malformed algebra file {tmp}/algebra.json: basis index out of range in entry (0, 0, 0, 0, 0, 1)",
    ),
    "unreadable-file": (
        ["peirce", "validate", "--algebra", "{tmp}/missing.json"],
        "cannot read {tmp}/missing.json: [Errno 2] No such file or directory: '{tmp}/missing.json'",
    ),
    "dims": (
        ["zhu", "exceptional", "--dims", "1,x", "--max", "3"],
        "--dims expects a comma-separated integer list, got '1,x'",
    ),
    "d-max": (
        ["zhu", "exceptional", "--dims", "1,0,1,1", "--max", "100000000"],
        "d_max 100000000 out of range for 4 levels",
    ),
    "module-data": (
        ["zhu", "rational", "--modules", "{tmp}/modules.json", "--degree", "2"],
        "bad module data: expected a list of module objects",
    ),
}


@pytest.mark.parametrize("case", sorted(_HANDLER_ERRORS))
def test_handler_errors_print_the_recorded_usage(case, capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal width
    for name, text in _ERROR_FILES.items():
        (tmp_path / name).write_text(text)
    places = {"inputs": Path(__file__).resolve().parent / "golden" / "cli" / "inputs", "tmp": tmp_path}
    argv, message = _HANDLER_ERRORS[case]
    argv = [a.format(**places) for a in argv]
    # the command line is well formed, so the handler reports through the
    # parser that is built only on error
    assert cli._read_argv(argv) is not None
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr() == ("", f"{_USAGE}mta: error: {message.format(**places)}\n")


@pytest.mark.parametrize("depth", [1000, 100_000])
@pytest.mark.parametrize(
    "argv",
    [["peirce", "validate", "--algebra"], ["zhu", "rational", "--degree", "1", "--modules"]],
    ids=["peirce", "zhu"],
)
def test_deeply_nested_json_is_a_usage_error(argv, depth, tmp_path):
    # json.load raises RecursionError past the interpreter's limit: 1 000
    # deep on Python 3.11, more from 3.12 on, where the shallower file is
    # read and refused as malformed instead
    path = tmp_path / "deep.json"
    path.write_text("[" * depth + "]" * depth)
    proc = subprocess.run(
        [sys.executable, "-m", "mta", *argv, str(path)],
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr and "mta: error: " in proc.stderr
    if depth == 100_000:
        assert f"mta: error: cannot read {path}: " in proc.stderr


# tokens for command lines that argparse and the reader may read apart:
# help, abbreviations, --name=value, negative, signed, underscored and empty
# values, bad choices and extra tokens
_LEAVES = sorted({leaf for _h, _run, leaves in cli._FAMILIES.values() for leaf in leaves if leaf})
_FLAGS = sorted(
    {flag for flag, *_ in cli._COMMON}
    | {flag for _h, _run, leaves in cli._FAMILIES.values() for opts in leaves.values() for flag, *_ in opts}
)
_VALUES = [
    "0", "1", "3", "-1", "+2", "1_0", "", "json", "text", "xml", "x.json", "-", "--", "-h", "--rank"
]
_NOISE = ["-h", "--help", "--deg", "--ra", "--form", "--unsafe", "--weight=3", "--format=text", "extra"]


@st.composite
def _command_lines(draw):
    """A command line of a family and leaf: each option mostly given with a
    value of its type, sometimes left out or given a drawn value; one time in
    four an option given twice, one time in three a drawn token put anywhere,
    and one time in ten the second token dropped."""
    family = draw(st.sampled_from([*cli._FAMILIES, "nope"]))
    leaves = cli._FAMILIES[family][2] if family in cli._FAMILIES else {None: ()}
    leaf = draw(st.sampled_from(sorted(leaves, key=str)))
    argv = [family] if leaf is None else [family, leaf]
    options = [*cli._COMMON, *leaves[leaf]]
    given = [option for option in draw(st.permutations(options)) if draw(st.integers(0, 5))]
    if not draw(st.integers(0, 3)):
        given.append(draw(st.sampled_from(options)))
    for flag, kind, _default, _help in given:
        argv.append(flag)
        if kind is bool:
            continue
        typed = kind if isinstance(kind, tuple) else ["x.json", "1,0,1"] if kind is str else ["0", "1", "3"]
        argv.append(draw(st.sampled_from(typed if draw(st.integers(0, 3)) else _VALUES)))
    if not draw(st.integers(0, 2)):
        token = st.sampled_from([*_NOISE, *_VALUES, *_FLAGS, *_LEAVES])
        argv.insert(draw(st.integers(0, len(argv))), draw(token))
    if not draw(st.integers(0, 9)):
        del argv[1:2]
    return argv


def _argparse_vars(argv):
    """vars() of build_parser().parse_args(argv), or None when it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(build_parser().parse_args(argv))
        except SystemExit:
            return None


@settings(max_examples=400, deadline=None)
@given(_command_lines())
def test_reader_agrees_with_argparse(argv):
    read = cli._read_argv(argv)
    if read is not None:
        assert vars(read) == _argparse_vars(argv), argv


def _benchmark_command_lines():
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("perfbench_run", root / "perfbench" / "run.py")
    bench = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = bench  # dataclasses looks its module up
    try:
        spec.loader.exec_module(bench)
    finally:
        del sys.modules[spec.name]
    commands = [bench.WARMUP, *(c for w in bench.WORKLOADS.values() for c in w.commands)]
    return [c.args(1) for c in commands]


def test_reader_reads_every_benchmark_and_golden_command_line():
    from test_cli_golden import CASES, _argv

    argvs = [*_benchmark_command_lines(), *(_argv(argv) for argv, _status in CASES.values())]
    assert len(argvs) == 31 + len(CASES)
    for argv in argvs:
        read = cli._read_argv(argv)
        assert read is not None, argv
        assert vars(read) == _argparse_vars(argv), argv
