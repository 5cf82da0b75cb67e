"""The package namespace: every exported name, loaded lazily from its layer."""

import ast
import builtins
import dis
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mta

# layer -> the names `mta` exports from it
API = {
    "exact": "frac_str parse_frac",
    "heisenberg": (
        "IdentityReport Mode ModeElement NormalWord RankCertificate ZhuPolynomial commutator "
        "corner_product pairing pairing_matrix rank_certificate star_to_zhu strong_identity "
        "strong_identity_from_json strong_identity_to_json u_element ubar_element "
        "verify_strong_identity"
    ),
    "lattice": (
        "CosetRep EvenLattice conformal_weight coset_norms count_norm_layer dual_cosets "
        "graded_dims load_gram parse_gram_text"
    ),
    "partitions": (
        "LabeledPartition Partition enumerate_labeled_partitions enumerate_partitions "
        "labeled_partition_count labeled_partition_counts partition_count symmetry_factor"
    ),
    "peirce": (
        "Algebra IdealSplit ModuleRep PeirceAlgebra PeirceReport RoundtripReport Subspace "
        "TensorQuotient ZigZag action_through_A_check balanced_tensor find_strong_identity "
        "heisenberg_truncation ideal_unit_and_split matrix_model matrix_model_column_module "
        "morita_backward morita_forward regular_module validate_peirce verify_roundtrip zd_ideal "
        "zigzag"
    ),
    "zhu": (
        "SimpleModuleData ZhuDescriptor commutative_zhu_descriptor exceptional_degrees "
        "heisenberg_zhu_descriptor rational_zhu_descriptor zd_support"
    ),
}
NAMES = {name: layer for layer, names in API.items() for name in names.split()}


def test_all_lists_the_pinned_names():
    assert len(NAMES) == 67
    assert sorted(mta.__all__) == sorted(NAMES)


def test_each_name_is_the_layer_object():
    for name, layer in NAMES.items():
        assert getattr(mta, name) is getattr(importlib.import_module("mta." + layer), name), name


def test_star_import_binds_every_name():
    namespace = {}
    exec("from mta import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(NAMES)
    assert all(namespace[name] is getattr(mta, name) for name in NAMES)


def test_unknown_names_raise():
    with pytest.raises(AttributeError, match="no_such_name"):
        mta.no_such_name
    with pytest.raises(ImportError):
        from mta import no_such_name  # noqa: F401


def test_import_loads_no_layer():
    src = Path(__file__).resolve().parents[1] / "src"
    probe = "import sys, mta; print(' '.join(sorted(m for m in sys.modules if m.startswith('mta'))))"
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert proc.stdout.split() == ["mta"]


def test_every_traced_name_resolves():
    """Each span of perfbench/trace_child.py names a function that exists,
    looked up as its install() looks it up: in the class __dict__ for a
    class, by getattr for a module.  The file is loaded, never run."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "trace_child.py"
    spec = importlib.util.spec_from_file_location("trace_child", path)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    assert child.SPANS
    for name, owner, attr, _counter in child.SPANS:
        found = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        assert found is not None, (name, owner, attr)


def test_library_has_no_assert_statement():
    """Library invariants raise real exceptions: python -O strips every
    assert statement, so none may stand in src/mta."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(mta.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _names_read(tree, skip=None) -> set:
    """The names a syntax tree reads, as names or attributes, outside the
    node skip."""
    out = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return out


def test_library_has_no_dead_private_name_or_import():
    """Every module-level private function and class of src/mta is read
    somewhere in src/mta besides its own definition, and every imported
    name is read in the module that imports it (`from __future__ import
    annotations` aside).  A helper left behind by a merge, or an import
    its last user no longer needs, fails here.  The files are parsed,
    never run."""
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(Path(mta.__file__).parent.glob("*.py"))
    }
    read = {name: _names_read(tree) for name, tree in trees.items()}
    dead = []
    for name, tree in trees.items():
        for node in tree.body:
            if (
                isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and node.name.startswith("_")
                and not node.name.endswith("__")
                and not any(
                    node.name in (_names_read(tree, node) if other == name else read[other])
                    for other in trees
                )
            ):
                dead.append(f"{name}: {node.name}")
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = (alias.asname or alias.name).split(".")[0]
                    if bound not in read[name]:
                        dead.append(f"{name}: import {bound}")
    assert dead == []


def _code_objects(code):
    yield code
    for const in code.co_consts:
        if isinstance(const, type(code)):
            yield from _code_objects(const)


def test_every_global_a_function_reads_is_bound():
    """Each name a function of an mta module reads as a global is bound in
    the module or in builtins once the module is imported, so an import
    moved into a function cannot leave a NameError on a rare branch.
    __main__ is left out: importing it runs the command line."""
    src = Path(mta.__file__).parent
    for path in sorted(src.glob("*.py")):
        if path.stem == "__main__":
            continue
        name = "mta" if path.stem == "__init__" else f"mta.{path.stem}"
        module = importlib.import_module(name)
        code = compile(path.read_text(), str(path), "exec")
        unbound = {
            (inner.co_name, ins.argval)
            for inner in _code_objects(code)
            for ins in dis.get_instructions(inner)
            if ins.opname == "LOAD_GLOBAL"
            and ins.argval not in vars(module)
            and not hasattr(builtins, ins.argval)
        }
        assert not unbound, (name, sorted(unbound))
