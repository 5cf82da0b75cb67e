"""Command line interface.

Subcommands mirror the library layers: partition combinatorics, the
free-boson engine, even-lattice module data, structure-constant corner
algebras, block descriptors, and a built-in self-verification battery.
Output is deterministic JSON by default (byte-identical across runs) or
plain text with --format text.  Exit codes: 0 success, 1 a verification or
validation reported failure, 2 usage errors (including desk-scale limits,
which --unsafe-no-limits lifts).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from . import heisenberg as hb
from . import lattice as lat
from . import peirce as pc
from . import zhu
from .exact import frac_str, parse_frac
from .partitions import (
    LabeledPartition,
    enumerate_labeled_partitions,
    labeled_partition_count,
)

MAX_RANK = 4
MAX_DEGREE = 8
MAX_LATTICE_RANK = 4
# Labels of the largest pairing matrix `heisenberg verify` builds: (3, 7) has
# 429 and verifies in about 0.8 s on a 2-core machine ((4, 5), 252 labels,
# about 0.4 s); the next size inside the rank/degree box, (4, 6) with 574
# labels (1.4 s with --unsafe-no-limits), stays capped.
MAX_PAIRING_LABELS = 429
# Lattice inputs, measured as CLI wall time on a 2-core machine.  `lattice
# weights` costs about 1.5 ms per coset at rank 4: diag(8, 8, 8, 8), 4096
# cosets, takes 6.3 s and diag(10, 10, 10, 10) 13.6 s.  `lattice dims` on
# D4 takes 3.2 s at --max 100 and 10.8 s at --max 200.
MAX_LATTICE_COSETS = 4096
MAX_LATTICE_LEVEL = 100
# Algebra files, checked on the parsed JSON before any structure is built.
# Balancing relations are those of the tensors `peirce validate` and
# `peirce zigzag` reduce, sum over d of (dims[0][0] + dims[d][d]) *
# dims[d][0] * dims[0][d]: a products-free dims [[128]] file makes 2^22 and
# validates in 2.7 s.  A component of dimension N is stored as N^3 dense
# structure constants.  `peirce validate` takes about 2 s on
# heisenberg_truncation(1, 6), 27 000 products, and 5.7 s on (3, 3), 42 875.
MAX_ALGEBRA_DIM = 128
MAX_BALANCING_RELATIONS = 2**22
MAX_ALGEBRA_PRODUCTS = 32768
# The associativity check costs one multiply-add per pair of stored cells it
# chains (see _associativity_work), about 0.5 us each with small integers: a
# dense dims [[21]] corner, every product holding every basis element, makes
# 8.2 M and validates in 3.2 to 4.6 s; dense dims [[32]] makes 67 M and took
# 24 s.  The fixtures stay far below: heisenberg_truncation(1, 5) makes 0.26 M.
# Integer cost grows with size: dense dims [[20]] validates in 3.3 s with
# coefficient 1, 4.0 s with 30-digit and 6.0 s with 100-digit coefficients,
# 17 s with 300 digits.
MAX_ASSOCIATIVITY_WORK = 2**23
MAX_COEFFICIENT_DIGITS = 100


@dataclass
class RunConfig:
    """Validated knobs shared by all subcommands."""

    format: str = "json"
    unsafe_no_limits: bool = False
    seed: int = 0

    def check_heisenberg(self, parser, n: int, d: int):
        if self.unsafe_no_limits:
            return
        if n > MAX_RANK or d > MAX_DEGREE:
            parser.error(
                f"rank {n} / degree {d} exceeds the desk-scale limits "
                f"(rank <= {MAX_RANK}, degree <= {MAX_DEGREE}); "
                "pass --unsafe-no-limits to override"
            )

    def check_pairings(self, parser, n: int, d: int):
        if self.unsafe_no_limits:
            return
        size = labeled_partition_count(n, d)
        if size > MAX_PAIRING_LABELS:
            parser.error(
                f"rank {n} / degree {d} needs a {size}x{size} pairing matrix, over the "
                f"desk-scale limit of {MAX_PAIRING_LABELS} labels; "
                "pass --unsafe-no-limits to override"
            )

    def check_lattice(self, parser, lattice: lat.EvenLattice):
        if self.unsafe_no_limits:
            return
        if lattice.rank > MAX_LATTICE_RANK:
            parser.error(
                f"lattice rank {lattice.rank} exceeds the desk-scale limit "
                f"(rank <= {MAX_LATTICE_RANK}); pass --unsafe-no-limits to override"
            )
        det = lattice.determinant()
        if det > MAX_LATTICE_COSETS:
            parser.error(
                f"lattice determinant {det} (the number of dual cosets) exceeds the "
                f"desk-scale limit of {MAX_LATTICE_COSETS}; pass --unsafe-no-limits to override"
            )

    def check_level(self, parser, n_max: int):
        if not self.unsafe_no_limits and n_max > MAX_LATTICE_LEVEL:
            parser.error(
                f"--max {n_max} exceeds the desk-scale limit of {MAX_LATTICE_LEVEL}; "
                "pass --unsafe-no-limits to override"
            )

    def check_algebra(self, parser, data):
        """Size limits read off the algebra JSON before anything is built; a
        malformed file passes here and is reported by PeirceAlgebra."""
        if self.unsafe_no_limits:
            return
        try:
            dims = [[int(x) for x in row] for row in data["dims"]]
            products = data["products"]
            coeffs = [e["coeff"] for e in products] + list(data["unit0"])
            sizes = {
                "largest component dimension": (max(map(max, dims)), MAX_ALGEBRA_DIM),
                "balancing relations": (
                    sum(
                        (dims[0][0] + dims[d][d]) * dims[d][0] * dims[0][d]
                        for d in range(len(dims))
                    ),
                    MAX_BALANCING_RELATIONS,
                ),
                "products": (len(products), MAX_ALGEBRA_PRODUCTS),
                "associativity multiply-adds": (
                    _associativity_work(products),
                    MAX_ASSOCIATIVITY_WORK,
                ),
                "digits in one coefficient": (
                    max((sum(map(str.isdigit, str(x))) for x in coeffs), default=0),
                    MAX_COEFFICIENT_DIGITS,
                ),
            }
        except (KeyError, TypeError, ValueError, IndexError):
            return
        for name, (size, limit) in sizes.items():
            if size > limit:
                parser.error(
                    f"algebra has {size} {name}, over the desk-scale limit of {limit}; "
                    "pass --unsafe-no-limits to override"
                )


def _associativity_work(products) -> int:
    """Multiply-adds the associativity check makes on an entry list.

    (ab)c chains each entry of (i,j,k) with output x to every entry of
    (i,k,l) with left factor x, and a(bc) chains each entry of (j,k,l) with
    output y to every entry of (i,j,l) with right factor y; keyed by the
    shared component and basis element both sums run over the same keys.
    """
    outputs = Counter((e["i"], e["k"], e["c"]) for e in products)
    by_left = Counter((e["i"], e["j"], e["a"]) for e in products)
    by_right = Counter((e["j"], e["k"], e["b"]) for e in products)
    return sum(n * (by_left[key] + by_right[key]) for key, n in outputs.items())


def _emit(cfg: RunConfig, payload: dict, text_lines) -> None:
    if cfg.format == "json":
        print(json.dumps(payload))
    else:
        for line in text_lines:
            print(line)


def _load_json(parser, path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or an overlong integer
        parser.error(f"cannot read {path}: {exc}")


def _load_lattice(parser, cfg, path) -> lat.EvenLattice:
    try:
        lattice = lat.load_gram(path)
    except (OSError, ValueError) as exc:
        parser.error(f"cannot read gram file {path}: {exc}")
    cfg.check_lattice(parser, lattice)
    return lattice


def _load_peirce(parser, cfg, path) -> pc.PeirceAlgebra:
    data = _load_json(parser, path)
    cfg.check_algebra(parser, data)
    try:
        return pc.PeirceAlgebra.from_json_dict(data)
    except (KeyError, TypeError, ValueError) as exc:
        parser.error(f"malformed algebra file {path}: {exc}")


def _cmd_partitions(parser, cfg, args) -> int:
    n, m = args.rank, args.weight
    if args.action == "count":
        count = labeled_partition_count(n, m)
        _emit(
            cfg,
            {"rank": n, "weight": m, "count": count},
            [f"rank {n} weight {m}: {count} labeled partitions"],
        )
        return 0
    items = enumerate_labeled_partitions(n, m)
    _emit(
        cfg,
        {"rank": n, "weight": m, "items": [lp.to_json() for lp in items]},
        [repr(lp) for lp in items],
    )
    return 0


def _cmd_heisenberg(parser, cfg, args) -> int:
    n, d = args.rank, args.degree
    cfg.check_heisenberg(parser, n, d)
    if args.action == "identity":
        terms = hb.strong_identity(n, d)
        _emit(
            cfg,
            {"rank": n, "degree": d, "terms": hb.strong_identity_to_json(terms)},
            [f"{frac_str(c)}  {lp!r}" for lp, c in terms],
        )
        return 0
    if args.action == "verify":
        cfg.check_pairings(parser, n, d)
        report = hb.verify_strong_identity(n, d)
        verdict = "verified" if report.ok else "FAILED"
        _emit(
            cfg,
            report.to_json(),
            [
                f"rank {n} degree {d}: strong identity {verdict} "
                f"(size {len(report.labels)}, diagonal {report.expected_diagonal})"
            ],
        )
        return 0 if report.ok else 1
    descriptor = zhu.heisenberg_zhu_descriptor(n, d)
    _emit(cfg, descriptor.to_json(), [descriptor.render_text()])
    return 0


def _cmd_lattice(parser, cfg, args) -> int:
    if args.action == "dims":
        cfg.check_level(parser, args.max)
    lattice = _load_lattice(parser, cfg, args.gram)
    cosets = lat.dual_cosets(lattice)
    if args.action == "cosets":
        _emit(
            cfg,
            {
                "rank": lattice.rank,
                "determinant": lattice.determinant(),
                "cosets": [
                    {"index": c.index, "vector": [frac_str(x) for x in c.vector]}
                    for c in cosets
                ],
            },
            [f"{c.index}: ({', '.join(frac_str(x) for x in c.vector)})" for c in cosets],
        )
        return 0
    if args.action == "weights":
        rows = [
            {
                "coset": c.index,
                "vector": [frac_str(x) for x in c.vector],
                "conformal_weight": frac_str(lat.conformal_weight(lattice, c.vector)),
            }
            for c in cosets
        ]
        _emit(
            cfg,
            {"weights": rows},
            [f"coset {r['coset']}: weight {r['conformal_weight']}" for r in rows],
        )
        return 0
    if not 0 <= args.coset < len(cosets):
        parser.error(f"coset index {args.coset} out of range 0..{len(cosets) - 1}")
    rep = cosets[args.coset]
    weight = lat.conformal_weight(lattice, rep.vector)
    dims = lat.graded_dims(lattice, rep.vector, args.max)
    _emit(
        cfg,
        {"coset": rep.index, "conformal_weight": frac_str(weight), "dims": dims},
        [f"coset {rep.index}: weight {frac_str(weight)}, dims {dims}"],
    )
    return 0


def _cmd_peirce(parser, cfg, args) -> int:
    algebra = _load_peirce(parser, cfg, args.algebra)
    if args.action == "validate":
        report = pc.validate_peirce(algebra)
        lines = [f"{name}: {'pass' if ok else 'FAIL'}" for name, ok in report.axioms.items()]
        if report.first_violation:
            lines.append(f"first violation: {report.first_violation}")
        _emit(cfg, report.to_json(), lines)
        return 0 if report.ok else 1
    d = args.degree
    if not 0 <= d <= algebra.max_degree:
        parser.error(f"degree {d} out of range 0..{algebra.max_degree}")
    build = _zigzag_payload if args.action == "zigzag" else _morita_payload
    try:
        payload, ok = build(algebra, d)
    except (ValueError, ArithmeticError) as exc:
        # the algebra breaks an axiom the construction relies on
        _emit(cfg, {"degree": d, "ok": False, "error": str(exc)}, [f"FAILED: {exc}"])
        return 1
    _emit(cfg, payload, [f"{k}: {v}" for k, v in payload.items()])
    return 0 if ok else 1


def _zigzag_payload(algebra, d):
    z = pc.zigzag(algebra, d)
    ideal = pc.zd_ideal(algebra, d)
    check = pc.action_through_A_check(z)
    star_rank = pc.Subspace((0, 0), algebra.dims[0][0], z.star).dim
    associative = z.as_algebra().is_associative()
    split = pc.ideal_unit_and_split(algebra, ideal)
    payload = {
        "degree": d,
        "dim": z.dim,
        "ideal_dim": ideal.dim,
        "star_rank": star_rank,
        "star_bijective": star_rank == z.dim == ideal.dim,
        "associative": associative,
        "action_through_corner": check.ok,
        "ideal_unital": split is not None,
    }
    if split is not None:
        payload["epsilon"] = [frac_str(x) for x in split.epsilon]
        payload["idempotent_ideal"] = split.idempotent_ideal
    return payload, associative and check.ok


def _morita_payload(algebra, d):
    """Roundtrip of the regular module of the degree-d component."""
    w_mod = pc.regular_module(algebra, d)
    report = pc.verify_roundtrip(algebra, d, w_mod)
    return {"degree": d, **report.to_json()}, report.ok


def _cmd_zhu(parser, cfg, args) -> int:
    if args.action == "rational":
        data = _load_json(parser, args.modules)
        try:
            modules = [
                zhu.SimpleModuleData(
                    label=str(item["label"]),
                    graded_dims=tuple(int(x) for x in item["graded_dims"]),
                    conformal_weight=(
                        parse_frac(item["conformal_weight"])
                        if item.get("conformal_weight") is not None
                        else None
                    ),
                )
                for item in data
            ]
            descriptor = zhu.rational_zhu_descriptor(modules, args.degree)
            support = zhu.zd_support(modules, args.degree)
        except (KeyError, TypeError, ValueError) as exc:
            parser.error(f"bad module data: {exc}")
        payload = descriptor.to_json()
        payload["support"] = support
        _emit(cfg, payload, [descriptor.render_text(), f"support: {support}"])
        return 0
    if args.action == "heisenberg":
        cfg.check_heisenberg(parser, args.rank, args.degree)
        descriptor = zhu.heisenberg_zhu_descriptor(args.rank, args.degree)
        _emit(cfg, descriptor.to_json(), [descriptor.render_text()])
        return 0
    try:
        dims = [int(x) for x in args.dims.split(",")]
    except ValueError:
        parser.error(f"--dims expects a comma-separated integer list, got {args.dims!r}")
    try:
        exceptional = zhu.exceptional_degrees(dims, args.max)
    except ValueError as exc:
        parser.error(str(exc))
    lines = [f"exceptional degrees up to {args.max}: {exceptional}"]
    lines += [f"level {j}: degree component and corner ideal are zero rings" for j in exceptional]
    _emit(cfg, {"d_max": args.max, "exceptional": exceptional}, lines)
    return 0


def _selftest_checks(cfg: RunConfig, fast: bool):
    rng = random.Random(cfg.seed)

    def check_counts():
        for n in (1, 2, 3):
            for m in range(0, 9):
                if labeled_partition_count(n, m) != len(enumerate_labeled_partitions(n, m)):
                    return False, f"count mismatch at rank {n} weight {m}"
        return True, "counts equal enumeration sizes for rank <= 3, weight <= 8"

    def check_pairing_diagonal():
        ranges = {1: 4 if fast else 6, 2: 3 if fast else 4}
        for n, dmax in ranges.items():
            for d in range(dmax + 1):
                report = hb.verify_strong_identity(n, d)
                if not report.ok:
                    return False, f"pairing matrix not diagonal at rank {n} degree {d}"
        return True, f"pairing matrices diagonal with symmetry factors, ranges {ranges}"

    def check_associativity():
        trials = 10 if fast else 25
        for _ in range(trials):
            n = rng.choice((1, 2))
            words = []
            for _w in range(3):
                modes = [
                    hb.Mode(rng.randint(1, n), rng.randint(-3, 3))
                    for _m in range(rng.randint(0, 3))
                ]
                words.append(hb.ModeElement.from_modes(n, modes))
            a, b, c = words
            if (a * b) * c != a * (b * c):
                return False, "associativity failed on a random triple"
        return True, f"{trials} random triples associate"

    def check_matrix_model():
        p = pc.matrix_model([[1, 2], [1, 1], [2, 1]])
        if not pc.validate_peirce(p).ok:
            return False, "matrix model failed validation"
        for d in range(p.max_degree + 1):
            if not pc.verify_roundtrip(p, d, pc.regular_module(p, d)).ok:
                return False, f"roundtrip failed at degree {d}"
        return True, "matrix model validates and regular modules roundtrip"

    def check_truncation():
        entries = None
        for point in ([Fraction(0)], [Fraction(1)], [Fraction(-3, 2)]):
            p = pc.heisenberg_truncation(1, 2, point)
            if not pc.validate_peirce(p).ok:
                return False, f"truncation failed validation at point {point}"
            if entries is None:
                entries = p.entries()
            elif p.entries() != entries:
                return False, "structure constants depend on the evaluation point"
        return True, "rank-1 truncations validate and agree across three points"

    def check_lattice():
        lattice = lat.EvenLattice.from_rows([[8]])
        cosets = lat.dual_cosets(lattice)
        weights = [lat.conformal_weight(lattice, c.vector) for c in cosets]
        expect = [Fraction(x) for x in ("0", "1/16", "1/4", "9/16", "1", "9/16", "1/4", "1/16")]
        if weights != expect:
            return False, f"weights {weights} differ from {expect}"
        if lat.graded_dims(lattice, cosets[4].vector, 0) != [2]:
            return False, "level-0 dimension of the half-shift coset is not 2"
        return True, "determinant-8 rank-1 example reproduces its weight table"

    return [
        ("partition-counts", check_counts),
        ("pairing-diagonal", check_pairing_diagonal),
        ("random-associativity", check_associativity),
        ("matrix-model", check_matrix_model),
        ("heisenberg-truncation", check_truncation),
        ("lattice-example", check_lattice),
    ]


def _cmd_selftest(parser, cfg, args) -> int:
    results = []
    ok_all = True
    for name, fn in _selftest_checks(cfg, args.fast):
        ok, detail = fn()
        ok_all &= ok
        results.append({"name": name, "ok": ok, "detail": detail})
    _emit(
        cfg,
        {"ok": ok_all, "seed": cfg.seed, "checks": results},
        [f"{'PASS' if r['ok'] else 'FAIL'}  {r['name']}: {r['detail']}" for r in results]
        + [f"selftest: {'ok' if ok_all else 'FAILED'}"],
    )
    return 0 if ok_all else 1


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "text"), default="json")
    common.add_argument(
        "--unsafe-no-limits",
        action="store_true",
        help="lift the desk-scale limits",
    )

    parser = argparse.ArgumentParser(prog="mta", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_part = sub.add_parser("partitions", help="partition combinatorics")
    part_sub = p_part.add_subparsers(dest="action", required=True)
    for name in ("count", "list"):
        sp = part_sub.add_parser(name, parents=[common])
        sp.add_argument("--rank", type=int, default=1)
        sp.add_argument("--weight", type=int, required=True)

    p_h = sub.add_parser("heisenberg", help="free-boson engine")
    h_sub = p_h.add_subparsers(dest="action", required=True)
    for name in ("identity", "verify", "zhu"):
        sp = h_sub.add_parser(name, parents=[common])
        sp.add_argument("--rank", type=int, default=1)
        sp.add_argument("--degree", type=int, required=True)

    p_l = sub.add_parser("lattice", help="even-lattice module data")
    l_sub = p_l.add_subparsers(dest="action", required=True)
    for name in ("cosets", "weights", "dims"):
        sp = l_sub.add_parser(name, parents=[common])
        sp.add_argument("--gram", required=True, help="gram file: rank line, then rows")
        if name == "dims":
            sp.add_argument("--coset", type=int, required=True)
            sp.add_argument("--max", type=int, default=0)

    p_p = sub.add_parser("peirce", help="structure-constant corner algebras")
    p_sub = p_p.add_subparsers(dest="action", required=True)
    for name in ("validate", "zigzag", "morita"):
        sp = p_sub.add_parser(name, parents=[common])
        sp.add_argument("--algebra", required=True, help="algebra JSON file")
        if name != "validate":
            sp.add_argument("--degree", type=int, required=True)

    p_z = sub.add_parser("zhu", help="block descriptors")
    z_sub = p_z.add_subparsers(dest="action", required=True)
    sp = z_sub.add_parser("rational", parents=[common])
    sp.add_argument("--modules", required=True, help="JSON list of simple module data")
    sp.add_argument("--degree", type=int, required=True)
    sp = z_sub.add_parser("heisenberg", parents=[common])
    sp.add_argument("--rank", type=int, default=1)
    sp.add_argument("--degree", type=int, required=True)
    sp = z_sub.add_parser("exceptional", parents=[common])
    sp.add_argument("--dims", required=True, help="comma-separated level dimensions")
    sp.add_argument("--max", type=int, required=True)

    sp = sub.add_parser("selftest", parents=[common], help="built-in verification battery")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--fast", action="store_true")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cfg = RunConfig(
        format=args.format,
        unsafe_no_limits=args.unsafe_no_limits,
        seed=getattr(args, "seed", 0),
    )
    if args.command == "partitions":
        return _cmd_partitions(parser, cfg, args)
    if args.command == "heisenberg":
        return _cmd_heisenberg(parser, cfg, args)
    if args.command == "lattice":
        return _cmd_lattice(parser, cfg, args)
    if args.command == "peirce":
        return _cmd_peirce(parser, cfg, args)
    if args.command == "zhu":
        return _cmd_zhu(parser, cfg, args)
    if args.command == "selftest":
        return _cmd_selftest(parser, cfg, args)
    parser.error(f"unknown command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
