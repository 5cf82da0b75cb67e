"""Run one ``mta`` command with spans around each layer's public functions.

    python trace_child.py SPANS_OUT ARG...

ARG... is the ``mta`` command line; stdout, stderr and the exit status are
those of ``python -m mta ARG...``.  Each wrapper is installed on every name
where callers look the function up (``rref`` on both ``mta.exact`` and
``mta.peirce``, ``PeirceAlgebra.mul`` on the class), so no file of the
program changes.

Spans are kept in memory and SPANS_OUT is written once, as the process
exits.  They are folded into per-name totals as they close (call count,
total seconds, self seconds), because ``PeirceAlgebra.mul`` alone closes
hundreds of thousands of spans in one command.  Self time is a span's
duration minus the time its child spans cover.
"""

import sys
import time

_t0 = time.perf_counter()
import mta.cli  # noqa: E402  (timed: this is the import every command pays)

IMPORT_S = time.perf_counter() - _t0

import functools  # noqa: E402
import json  # noqa: E402

from mta import exact, heisenberg, lattice, partitions, peirce, zhu  # noqa: E402

STATS: dict[str, list] = {}  # span name -> [calls, total_s, self_s]
COUNTS: dict[str, int] = {}
_open: list[float] = []  # per open span: seconds covered by its closed children


def _count(name, k):
    COUNTS[name] = COUNTS.get(name, 0) + k


def _multiply_terms(result, args):
    _count("heisenberg.multiply.terms_out", len(result.terms))


def _rref_rows(result, args):
    _count("exact.rref.rows_in", len(args[0]))
    _count("exact.rref.rows_kept", len(result[0]))


def _norm_points(result, args):
    _count("lattice.coset_norms.points", len(result))


# (span name, owner, attribute, counter).  Spans named "<layer>.other" are
# not reported one by one; they keep their layer's work out of the caller's
# self time, so cli.main self time is argparse, file loading and output.
SPANS = [
    ("partitions.enumerate", partitions, "enumerate_labeled_partitions", None),
    ("partitions.other", partitions, "labeled_partition_count", None),
    ("heisenberg.multiply", heisenberg, "multiply", _multiply_terms),
    ("heisenberg.pairing", heisenberg, "pairing", None),
    ("heisenberg.from_modes", heisenberg.ModeElement, "from_modes", None),
    ("heisenberg.other", heisenberg, "verify_strong_identity", None),
    ("heisenberg.other", heisenberg, "strong_identity", None),
    ("exact.rref", exact, "rref", _rref_rows),
    ("exact.solve_linear", exact, "solve_linear", None),
    ("exact.reduce_vector", exact, "reduce_vector", None),
    ("peirce.from_json", peirce.PeirceAlgebra, "from_json_dict", None),
    ("peirce.validate", peirce, "validate_peirce", None),
    ("peirce.zigzag", peirce, "zigzag", None),
    ("peirce.roundtrip", peirce, "verify_roundtrip", None),
    ("peirce.mul", peirce.PeirceAlgebra, "mul", None),
    ("peirce.mul_basis", peirce.PeirceAlgebra, "mul_basis", None),
    ("peirce.balanced_tensor", peirce, "balanced_tensor", None),
    ("peirce.project", peirce.TensorQuotient, "project", None),
    ("peirce.other", peirce, "zd_ideal", None),
    ("peirce.other", peirce, "action_through_A_check", None),
    ("peirce.other", peirce, "ideal_unit_and_split", None),
    ("peirce.other", peirce, "regular_module", None),
    ("peirce.other", peirce, "matrix_model", None),
    ("peirce.other", peirce, "heisenberg_truncation", None),
    ("peirce.other", peirce.Algebra, "is_associative", None),
    ("lattice.dual_cosets", lattice, "dual_cosets", None),
    ("lattice.coset_norms", lattice, "coset_norms", _norm_points),
    ("lattice.other", lattice, "load_gram", None),
    ("lattice.other", lattice, "conformal_weight", None),
    ("lattice.other", lattice, "graded_dims", None),
    ("zhu.descriptor", zhu, "heisenberg_zhu_descriptor", None),
    ("zhu.descriptor", zhu, "rational_zhu_descriptor", None),
    ("zhu.other", zhu, "zd_support", None),
    ("zhu.other", zhu, "exceptional_degrees", None),
]


def _span(name, fn, counter):
    stat = STATS.setdefault(name, [0, 0.0, 0.0])
    clock = time.perf_counter
    opened = _open

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        opened.append(0.0)
        start = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            took = clock() - start
            covered = opened.pop()
            stat[0] += 1
            stat[1] += took
            stat[2] += took - covered
            if opened:
                opened[-1] += took
        if counter is not None:
            counter(result, args)
        return result

    return traced


def install():
    modules = [m for name, m in sys.modules.items() if name == "mta" or name.startswith("mta.")]
    for name, owner, attr, counter in SPANS:
        if isinstance(owner, type):
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(_span(name, raw.__func__, counter)))
            else:
                setattr(owner, attr, _span(name, raw, counter))
            continue
        original = getattr(owner, attr)
        traced = _span(name, original, counter)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, traced)


def main(spans_out, argv) -> int:
    install()
    cli_main = _span("cli.main", mta.cli.main, None)
    try:
        return cli_main(argv)
    except SystemExit as exc:  # argparse usage errors exit 2
        return exc.code
    finally:
        sys.stdout.flush()
        with open(spans_out, "w", encoding="utf-8") as fh:
            json.dump({"import_s": IMPORT_S, "spans": STATS, "counts": COUNTS}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
