"""Command line behavior: goldens, determinism, exit codes, limits."""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from mta.cli import RunConfig, build_parser, main
from mta.peirce import PeirceAlgebra, heisenberg_truncation, matrix_model


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


def test_pairing_cap_exits_two_fast(capsys):
    # rank 4 degree 8 sits inside the rank/degree box but has 2580 labels
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        main(["heisenberg", "verify", "--rank", "4", "--degree", "8"])
    assert time.perf_counter() - start < 1
    assert exc.value.code == 2
    assert "--unsafe-no-limits" in capsys.readouterr().err
    # (4, 6) with 574 labels is the smallest capped size
    with pytest.raises(SystemExit) as exc:
        main(["heisenberg", "verify", "--rank", "4", "--degree", "6"])
    assert exc.value.code == 2
    assert "--unsafe-no-limits" in capsys.readouterr().err
    # (3, 7) with 429 labels is the largest accepted size; the flag lifts the cap
    RunConfig().check_pairings(build_parser(), 3, 7)
    RunConfig().check_pairings(build_parser(), 4, 5)
    RunConfig(unsafe_no_limits=True).check_pairings(build_parser(), 4, 8)


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
    assert "--unsafe-no-limits" in capsys.readouterr().err


def _products_free(dims):
    n0 = dims[0][0]
    return {"max_degree": len(dims) - 1, "dims": dims, "products": [], "unit0": ["1"] + ["0"] * (n0 - 1)}


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
    RunConfig(unsafe_no_limits=True).check_algebra(build_parser(), _products_free([[240]]))


def test_algebra_fixtures_pass_the_caps():
    # the algebras of the tests, the demos and the benchmark inputs
    fixtures = [
        matrix_model([[3, 2], [1, 3], [2, 1]]),
        matrix_model([[1, 2], [1, 0]]),
        matrix_model([[1, 1, 2], [2, 1, 0], [1, 0, 1]]),
        matrix_model([2, 3]),
        heisenberg_truncation(1, 4, [Fraction(0)]),
        heisenberg_truncation(1, 5, [Fraction(0)]),
        heisenberg_truncation(2, 3, [Fraction(0), Fraction(0)]),
    ]
    for data in [p.to_json_dict() for p in fixtures] + [_products_free([[60]])]:
        RunConfig().check_algebra(build_parser(), data)


def test_lattice_caps_exit_two_fast(capsys, tmp_path):
    path = tmp_path / "big.gram"
    path.write_text("1\n200000\n")
    _exits_two_fast(capsys, ["lattice", "cosets", "--gram", str(path)])
    path.write_text("2\n2000 0\n0 2000\n")
    _exits_two_fast(capsys, ["lattice", "weights", "--gram", str(path)])
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
    # dims [[21]] is the largest dense corner the caps accept
    RunConfig().check_algebra(build_parser(), _dense_corner(21))
    data["unit0"][0] = "9" * 100
    RunConfig().check_algebra(build_parser(), data)
    RunConfig(unsafe_no_limits=True).check_algebra(build_parser(), _dense_corner(32))


def test_invalid_algebra_reports_instead_of_raising(tmp_path):
    # acceptance test 4's mutation: entry 7 of matrix_model([2, 2]) plus one
    p = matrix_model([2, 2])
    entries = p.entries()
    i, j, k, a, b, c, v = entries[7]
    entries[7] = (i, j, k, a, b, c, v + 1)
    data = PeirceAlgebra(p.max_degree, p.dims, entries, p.unit0).to_json_dict()
    path = tmp_path / "perturbed.json"
    path.write_text(json.dumps(data))
    src = Path(__file__).resolve().parents[1] / "src"
    for action, degree in (("morita", 1), ("zigzag", 0)):
        proc = subprocess.run(
            [sys.executable, "-m", "mta", "peirce", action, "--algebra", str(path), "--degree", str(degree)],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        out = json.loads(proc.stdout)
        assert out["degree"] == degree and out["ok"] is False and out["error"]
        assert list(out) == ["degree", "ok", "error"]
