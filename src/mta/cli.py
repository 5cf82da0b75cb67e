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

import json
import os
import sys
from stat import S_ISREG
from types import GeneratorType, SimpleNamespace

from .exact import dense, frac_str, parse_frac, parse_int

MAX_RANK = 4
MAX_DEGREE = 8
# `partitions count`, measured as CLI wall time on a 2-core machine (medians
# of 5): rank 4 takes 0.14 s at weight 400, 0.19 s at 600 and 0.23 s at 800;
# rank 1 takes 0.13 s at 400 and 0.19 s at 1200.  `partitions list` stays in
# the rank/degree box above.  Like `heisenberg identity`, it writes each label
# as the enumerator yields it: at (4, 8), 2 580 labels, both peak at 14.0 MiB
# RSS, as `partitions count` does (15.9 and 17.3 MiB with every label and its
# rendering listed first; medians of 5, 2-core machine).
MAX_PARTITION_WEIGHT = 400
MAX_LATTICE_RANK = 4
# Lattice inputs, measured as CLI wall time on a 2-core machine (medians of
# 5).  `lattice weights` costs about 0.14 ms per coset at rank 4:
# diag(8, 8, 8, 8), 4096 cosets, takes 0.6 s and diag(10, 10, 10, 10) 1.5 s.
# `lattice dims` counts its points by norm as the search visits them, so
# its peak RSS stays at 14.3 MiB whatever the level: on D4, coset 1, it
# takes 0.11 s at --max 100 and 0.25 s at --max 200, and on A4, coset 1,
# 0.10 s at --max 100 (medians of 9; with a list of every point, it peaked
# at 30, 77 and 28 MiB).
MAX_LATTICE_COSETS = 4096
MAX_LATTICE_LEVEL = 100
# Algebra files, checked before any validation starts: a streamed file
# once it is read, no more of its products stored than the products cap
# allows; a file read whole on the parsed JSON, before any structure is
# built.  Balancing relations are exactly those the fallbacks of `peirce
# validate` and `peirce zigzag` make, one per basis element of the acting
# algebra and basis pair, sum over d of (dims[0][0] + dims[d][d]) *
# dims[d][0] * dims[0][d]: a products-free dims [[128]] file counts 2^22,
# though a relation with two empty action columns is skipped unbuilt.  A
# component is stored as its nonzero product cells, so memory follows the
# products: that file validates in 0.32 s and 16.5 MiB (CLI wall time and
# peak RSS, medians of 5, 2-core machine; 0.69 s / 68 MiB with the N^3
# dense structure constants stored before).  The 14 641 products of
# matrix_model([[11]]) (dims [[121]]) took 5.6 s to validate until the
# Morita-context certificates of peirce replaced its balanced tensors: now
# `peirce validate`, `zigzag --degree 0` and `morita --degree 0` on it take
# 0.13, 0.70 and 0.59 s, and `peirce validate` on
# heisenberg_truncation(1, 6), 27 000 products, 0.5 s (CLI wall time, one
# run each, 2-core machine).
MAX_ALGEBRA_DIM = 128
MAX_BALANCING_RELATIONS = 2**22
MAX_ALGEBRA_PRODUCTS = 32768
# The cap bounds the full associativity call, the one that runs over every
# middle factor after a generator fails Light's test (Light's test itself
# does less).  It costs one multiply-add per pair of stored cells it chains
# (see peirce._Tally), about 0.5 us each with small integers: a
# dense dims [[21]] corner, every product holding every basis element, makes
# 8.2 M and validates in 3.2 to 4.6 s; dense dims [[32]] makes 67 M and took
# 24 s.  The fixtures stay far below: heisenberg_truncation(1, 5) makes 0.26 M.
# Integer cost grows with size: dense dims [[20]] validates in 3.3 s with
# coefficient 1, 4.0 s with 30-digit and 6.0 s with 100-digit coefficients,
# 17 s with 300 digits.  Coefficients with denominators are scaled to ints
# by their common denominator for the call (peirce._first_failure), so a
# fractional input costs about what an integer one of that length does:
# matrix_model([[3, 2], [1, 3], [2, 1]]) in a random integer basis, 9.8 M
# multiply-adds with a 102-bit common denominator, validates in 1.7 s
# (12 s in Fractions).  A common denominator past 1 024 bits, which only
# many distinct long denominators make, is not applied.
MAX_ASSOCIATIVITY_WORK = 2**23
MAX_COEFFICIENT_DIGITS = 100
# A degree-D algebra has (D+1)^2 components, and validation builds a span
# for each and walks every pair of them, whatever their dimensions: a
# max_degree-500 file (754 kB) with one nonzero dimension took 2.2 s and
# 194 MiB to validate.  D = 127 validates in 0.13 s and 24 MiB.
MAX_ALGEBRA_COMPONENTS = 2**14
# Every JSON input, checked once, on the size of the open file before a
# byte is read.  An algebra file at every other cap (32 768 products of
# 100-digit coefficients, D = 127) is 5.6 MiB with json's default
# separators and 7.3 MiB with indent=2.  An algebra file as the library
# writes it is streamed into the product tables, so its text is never
# whole: 32 768 products of 100-digit coefficients on a dims [[32]]
# corner, 5.4 MB, exit 2 at the work cap in 0.55 s and 18 MiB.  So is a
# file over the products cap, whose products past the cap are tallied and
# not stored: 80 582 products on a dims [[44]] corner, 5.3 MB, exit 2 in
# 0.55 s and 16 MiB.  Every other file is read whole by json.load from the
# same handle, its text and then every product as a dict, and this cap
# bounds that peak: with products first, those 80 582 products exit 2 in
# 0.28 s and 41 MiB, and 100 582 in 6.6 MB in 0.40 s and 47 MiB (CLI wall
# time and peak RSS, medians of 5 to 9, 2-core machine).
MAX_INPUT_BYTES = 2**23


def _limit(parser, args, what: str, size: int, limit: int) -> None:
    """Exit 2 when size is over its desk-scale limit, unless the command
    passed --unsafe-no-limits."""
    if size > limit and not args.unsafe_no_limits:
        parser.error(
            f"{what}: {size}, over the desk-scale limit of {limit}; "
            "pass --unsafe-no-limits to override"
        )


def _algebra_sizes(data) -> dict:
    """{what: (size, limit)} of the algebra JSON by peirce._file_sizes,
    before anything is built; {} for a malformed file, which PeirceAlgebra
    reports."""
    from .peirce import _file_sizes

    try:
        return _sized(*_file_sizes(data))
    except (KeyError, TypeError, ValueError, IndexError):
        return {}


def _sized(dims, products: int, work: int, digits: int) -> dict:
    """{what: (size, limit)} of an algebra file, in the order they are
    checked, given its dims grid and its peirce._Tally sizes."""
    return {
        "largest component dimension": (max(map(max, dims)), MAX_ALGEBRA_DIM),
        "components in the grid": (len(dims) ** 2, MAX_ALGEBRA_COMPONENTS),
        "balancing relations": (
            sum((dims[0][0] + dims[d][d]) * dims[d][0] * dims[0][d] for d in range(len(dims))),
            MAX_BALANCING_RELATIONS,
        ),
        "products": (products, MAX_ALGEBRA_PRODUCTS),
        "associativity multiply-adds": (work, MAX_ASSOCIATIVITY_WORK),
        "digits in one coefficient": (digits, MAX_COEFFICIENT_DIGITS),
    }


def _json_pieces(value, depth: int = 2):
    """json.dumps(value) in pieces, for writing as they are made: a dict or a
    list down to depth levels is opened and each of its values is encoded
    on its own, and a generator there is written as the list of what it
    yields, each item read only once the one before is written.  So the
    text of a report's k^2 pairing cells, rendered a row at a time by a
    generator, is never made all at once.  Keys go through json.dumps as
    keys, so the joined pieces equal json.dumps(value), with each
    generator read as a list, byte for byte."""
    if depth and isinstance(value, dict):
        yield "{"
        for n, (key, item) in enumerate(value.items()):
            # '"key": ', with json's own key rules
            yield (", " if n else "") + json.dumps({key: 0})[1:-2]
            yield from _json_pieces(item, depth - 1)
        yield "}"
    elif depth and isinstance(value, (list, tuple, GeneratorType)):
        yield "["
        for n, item in enumerate(value):
            if n:
                yield ", "
            yield from _json_pieces(item, depth - 1)
        yield "]"
    else:
        yield json.dumps(value)


def _emit(args, payload: dict, text_lines) -> None:
    try:
        if args.format == "json":
            write = sys.stdout.write
            for piece in _json_pieces(payload):
                write(piece)
            write("\n")
        else:
            for line in text_lines:
                print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left (`mta ... | head`); keep the flush at exit quiet too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)


def _load_json(parser, args, path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            _limit(parser, args, "bytes in the file", os.fstat(fh.fileno()).st_size, MAX_INPUT_BYTES)
            return json.load(fh)
    # ValueError: bad JSON or an overlong integer; RecursionError: nesting
    # deeper than the interpreter's recursion limit
    except (OSError, ValueError, RecursionError) as exc:
        parser.error(f"cannot read {path}: {exc}")


def _load_lattice(parser, args, path):
    from .lattice import EvenLattice, _gram_header, _gram_rows

    # the size is checked before a byte is read, and the rank once the
    # first line is, before the rest of the file is, and so before
    # EvenLattice factors the Gram matrix, O(rank^3)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            _limit(parser, args, "bytes in the file", os.fstat(fh.fileno()).st_size, MAX_INPUT_BYTES)
            n, lines = _gram_header(fh)
            _limit(parser, args, "lattice rank", n, MAX_LATTICE_RANK)
            lattice = EvenLattice(_gram_rows(n, lines))
    except (OSError, ValueError) as exc:
        parser.error(f"cannot read gram file {path}: {exc}")
    _limit(parser, args, "lattice determinant", lattice.determinant(), MAX_LATTICE_COSETS)
    return lattice


def _load_peirce(parser, args, path):
    from .peirce import PeirceAlgebra, _stream_algebra

    # The file is opened once.  A regular file is streamed into the product
    # tables a chunk at a time, its sizes tallied as it is read: no more
    # products are stored than the products limit allows, and every limit
    # is checked once the file is read, in the order and words of the whole
    # read below.  Every file the stream does not take is read whole from
    # the same handle: a layout the library does not write and a malformed
    # file, from their start again, and a pipe, whose text can be read only
    # once.
    read = None
    try:
        with open(path, encoding="utf-8") as fh:
            stat = os.fstat(fh.fileno())
            _limit(parser, args, "bytes in the file", stat.st_size, MAX_INPUT_BYTES)
            if S_ISREG(stat.st_mode):
                read = _stream_algebra(fh, None if args.unsafe_no_limits else MAX_ALGEBRA_PRODUCTS)
                fh.seek(0)  # for the whole read, if the stream declines
            if read is None:
                data = json.load(fh)
    # as in _load_json
    except (OSError, ValueError, RecursionError) as exc:
        parser.error(f"cannot read {path}: {exc}")
    if read is not None:
        algebra, tallies = read
        for what, (size, limit) in _sized(algebra.dims, *tallies).items():
            _limit(parser, args, what, size, limit)
        return algebra
    for what, (size, limit) in _algebra_sizes(data).items():
        _limit(parser, args, what, size, limit)
    try:
        return PeirceAlgebra.from_json_dict(data)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        parser.error(f"malformed algebra file {path}: {exc}")


def _cmd_partitions(parser, args) -> int:
    # per command, not at module level: the other families skip this import
    from .partitions import _labeled_partitions, labeled_partition_count

    n, m = args.rank, args.weight
    _limit(parser, args, "rank", n, MAX_RANK)
    # `list` prints the labels `heisenberg verify` pairs: the same box
    _limit(parser, args, "weight", m, MAX_DEGREE if args.action == "list" else MAX_PARTITION_WEIGHT)
    if args.action == "count":
        count = labeled_partition_count(n, m)
        _emit(
            args,
            {"rank": n, "weight": m, "count": count},
            [f"rank {n} weight {m}: {count} labeled partitions"],
        )
        return 0
    # each label is written before the next is made, so the enumeration is
    # never held whole; _emit reads only the generator of its format
    _emit(
        args,
        {"rank": n, "weight": m, "items": (lp.to_json() for lp in _labeled_partitions(n, m))},
        (repr(lp) for lp in _labeled_partitions(n, m)),
    )
    return 0


def _identity_terms(n: int, d: int):
    """The terms of heisenberg.strong_identity(n, d), each label with its
    coefficient 1/symmetry_factor as frac_str writes it, made one at a time
    from the enumerator; the text is built from the integer factor, so no
    Fraction is made."""
    from .partitions import _labeled_partitions

    for lp in _labeled_partitions(n, d):
        sf = lp.symmetry_factor()
        yield lp, "1" if sf == 1 else f"1/{sf}"


def _cmd_heisenberg(parser, args) -> int:
    n, d = args.rank, args.degree
    _limit(parser, args, "rank", n, MAX_RANK)
    _limit(parser, args, "degree", d, MAX_DEGREE)
    if args.action == "zhu":
        return _heisenberg_zhu(args)
    if args.action == "identity":
        # as `partitions list`: each term is written before the next is made
        _emit(
            args,
            {
                "rank": n,
                "degree": d,
                "terms": ({"partition": lp.to_json(), "coeff": c} for lp, c in _identity_terms(n, d)),
            },
            (f"{c}  {lp!r}" for lp, c in _identity_terms(n, d)),
        )
        return 0
    # per command: only `heisenberg verify` loads the free-boson engine
    from . import heisenberg as hb

    report = hb.verify_strong_identity(n, d)
    verdict = "verified" if report.ok else "FAILED"
    _emit(
        args,
        report._json_by_rows(),
        [
            f"rank {n} degree {d}: strong identity {verdict} "
            f"(size {len(report.labels)}, diagonal {report.expected_diagonal})"
        ],
    )
    return 0 if report.ok else 1


def _heisenberg_zhu(args) -> int:
    """`heisenberg zhu` and `zhu heisenberg`, once the caller has limited
    the rank and the degree."""
    from .zhu import heisenberg_zhu_descriptor

    descriptor = heisenberg_zhu_descriptor(args.rank, args.degree)
    _emit(args, descriptor.to_json(), [descriptor.render_text()])
    return 0


def _cmd_lattice(parser, args) -> int:
    # per command: only lattice commands load the lattice layer
    from . import lattice as lat

    if args.action == "dims":
        _limit(parser, args, "--max", args.max, MAX_LATTICE_LEVEL)
    lattice = _load_lattice(parser, args, args.gram)
    cosets = lat.dual_cosets(lattice)
    if args.action == "cosets":
        _emit(
            args,
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
            args,
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
        args,
        {"coset": rep.index, "conformal_weight": frac_str(weight), "dims": dims},
        [f"coset {rep.index}: weight {frac_str(weight)}, dims {dims}"],
    )
    return 0


def _cmd_peirce(parser, args) -> int:
    # per command: only peirce commands load the corner-algebra layer
    from . import peirce as pc

    algebra = _load_peirce(parser, args, args.algebra)
    if args.action != "validate" and not 0 <= args.degree <= algebra.max_degree:
        parser.error(f"degree {args.degree} out of range 0..{algebra.max_degree}")
    # the one check of the axioms; zigzag and morita rely on it
    report = pc.validate_peirce(algebra)
    if args.action == "validate":
        lines = [f"{name}: {'pass' if ok else 'FAIL'}" for name, ok in report.axioms.items()]
        if report.first_violation:
            lines.append(f"first violation: {report.first_violation}")
        _emit(args, report.to_json(), lines)
        return 0 if report.ok else 1
    d = args.degree
    build = _zigzag_payload if args.action == "zigzag" else _morita_payload
    try:
        if not report.ok:
            name = report.first_violation
            raise ValueError(f"{name}: {report.details[name]}")
        payload = build(algebra, d)
    except (ValueError, ArithmeticError) as exc:
        # an axiom fails, or the axioms do not give the degree-d construction
        # what it needs (a strong identity, a unital corner ideal)
        _emit(args, {"degree": d, "ok": False, "error": str(exc)}, [f"FAILED: {exc}"])
        return 1
    _emit(args, payload, [f"{k}: {v}" for k, v in payload.items()])
    return 0


def _zigzag_payload(algebra, d):
    from . import peirce as pc

    z = pc.zigzag(algebra, d)
    # the star images of the quotient basis span Z_d (zigzag docstring), so
    # the products (0,d)*(d,0) are reduced once, by the quotient
    ideal = z.star_image()
    eps, _ = pc._ideal_unit(algebra, ideal)
    payload = {
        "degree": d,
        "dim": z.dim,
        "ideal_dim": ideal.dim,
        # the star images span the ideal, and associative and
        # action_through_corner follow from the associativity
        # validate_peirce proved (zigzag docstring)
        "star_rank": ideal.dim,
        "star_bijective": z.dim == ideal.dim,
        "associative": True,
        "action_through_corner": True,
        "ideal_unital": eps is not None,
    }
    if eps is not None:
        # eps splits the corner by associativity (ideal_unit_and_split docstring)
        payload["epsilon"] = [frac_str(x) for x in dense(eps, algebra.dims[0][0])]
        payload["idempotent_ideal"] = True
    return payload


def _morita_payload(algebra, d):
    """Roundtrip of the regular module of the degree-d component, as the
    verify_roundtrip docstring proves it once the Morita setup passes."""
    from . import peirce as pc

    pc._require_morita_setup(algebra, d)
    n = algebra.dims[d][d]
    # ok, dim_start, dim_forward, dim_back, bijective, equivariant
    return {"degree": d, **pc.RoundtripReport(True, n, algebra.dims[0][d], n, True, True).to_json()}


def _cmd_zhu(parser, args) -> int:
    # per command: only zhu commands load the block-descriptor layer
    from . import zhu

    if args.action == "rational":
        data = _load_json(parser, args, args.modules)
        try:
            modules = _module_data(zhu, data)
            descriptor = zhu.rational_zhu_descriptor(modules, args.degree)
            support = zhu.zd_support(modules, args.degree)
        except ValueError as exc:
            parser.error(f"bad module data: {exc}")
        payload = descriptor.to_json()
        payload["support"] = support
        _emit(args, payload, [descriptor.render_text(), f"support: {support}"])
        return 0
    if args.action == "heisenberg":
        _limit(parser, args, "rank", args.rank, MAX_RANK)
        _limit(parser, args, "degree", args.degree, MAX_DEGREE)
        return _heisenberg_zhu(args)
    try:
        dims = [parse_int(x) for x in args.dims.split(",")]
    except ValueError:
        parser.error(f"--dims expects a comma-separated integer list, got {args.dims!r}")
    try:
        exceptional = zhu.exceptional_degrees(dims, args.max)
    except ValueError as exc:
        parser.error(str(exc))
    lines = [f"exceptional degrees up to {args.max}: {exceptional}"]
    lines += [f"level {j}: degree component and corner ideal are zero rings" for j in exceptional]
    _emit(args, {"d_max": args.max, "exceptional": exceptional}, lines)
    return 0


def _module_data(zhu, data) -> list:
    """The modules of a module file, its shape checked first: a list of
    objects, each with a label, graded_dims a list of integers and an
    optional conformal_weight.  ValueError names the module and the field
    at fault."""
    if not isinstance(data, list):
        raise ValueError("expected a list of module objects")
    modules = []
    for m, item in enumerate(data):
        if not isinstance(item, dict):
            raise ValueError(f"module {m} is not an object")
        if "label" not in item:
            raise ValueError(f"module {m} has no label")
        where = f"module {m} ({str(item['label'])!r})"
        dims = item.get("graded_dims")
        if not isinstance(dims, list) or any(type(x) is not int for x in dims):
            raise ValueError(f"{where}: graded_dims must be a list of integers")
        weight = item.get("conformal_weight")
        try:
            if weight is not None:
                weight = parse_frac(weight)
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"{where}: conformal_weight: {exc}") from None
        try:
            modules.append(zhu.SimpleModuleData(str(item["label"]), tuple(dims), weight))
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
    return modules


def _selftest_checks(seed: int, fast: bool):
    # the battery checks every layer, so selftest alone loads them all, and
    # random and fractions too
    import random
    from fractions import Fraction

    from . import heisenberg as hb
    from . import lattice as lat
    from . import peirce as pc
    from .partitions import _labeled_partitions, labeled_partition_count

    rng = random.Random(seed)

    def check_counts():
        # the library's enumerator, counted as it yields
        for n in (1, 2, 3):
            for m in range(0, 9):
                if labeled_partition_count(n, m) != sum(1 for _ in _labeled_partitions(n, m)):
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

    def check_weight_table():
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
        ("lattice-example", check_weight_table),
    ]


def _cmd_selftest(parser, args) -> int:
    results = []
    ok_all = True
    for name, fn in _selftest_checks(args.seed, args.fast):
        ok, detail = fn()
        ok_all &= ok
        results.append({"name": name, "ok": ok, "detail": detail})
    _emit(
        args,
        {"ok": ok_all, "seed": args.seed, "checks": results},
        [f"{'PASS' if r['ok'] else 'FAIL'}  {r['name']}: {r['detail']}" for r in results]
        + [f"selftest: {'ok' if ok_all else 'FAILED'}"],
    )
    return 0 if ok_all else 1


def _int_at_least(low: int | None):
    """The type of an integer option: an integer written as ASCII
    [+-]?[0-9]+, as exact.parse_int reads it, and no smaller than low unless
    low is None.  The error branch imports argparse for its message."""

    def parse(text: str) -> int:
        value = parse_int(text)
        if low is not None and value < low:
            import argparse

            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names it in "invalid int value: ..."
    return parse


_RANK = _int_at_least(1)
_SIZE = _int_at_least(0)
_INTEGER = _int_at_least(None)

# An option is (flag, type, default, help).  The type is str, bool for a
# switch, a tuple of the choices, or one of the integer types above; an
# option whose default is _REQUIRED must be given.  Every command takes the
# _COMMON options first.
_REQUIRED = object()
_COMMON = (
    ("--format", ("json", "text"), "json", None),
    ("--unsafe-no-limits", bool, False, "lift the desk-scale limits"),
)
_OPT_RANK = ("--rank", _RANK, 1, None)
_OPT_DEGREE = ("--degree", _SIZE, _REQUIRED, None)
_OPT_GRAM = ("--gram", str, _REQUIRED, "gram file: rank line, then rows")
_OPT_ALGEBRA = ("--algebra", str, _REQUIRED, "algebra JSON file")

# command -> (help, handler, {subcommand: its options}); selftest has no
# subcommand, so its options are keyed by None
_FAMILIES = {
    "partitions": (
        "partition combinatorics",
        _cmd_partitions,
        dict.fromkeys(("count", "list"), (_OPT_RANK, ("--weight", _SIZE, _REQUIRED, None))),
    ),
    "heisenberg": (
        "free-boson engine",
        _cmd_heisenberg,
        dict.fromkeys(("identity", "verify", "zhu"), (_OPT_RANK, _OPT_DEGREE)),
    ),
    "lattice": (
        "even-lattice module data",
        _cmd_lattice,
        {
            "cosets": (_OPT_GRAM,),
            "weights": (_OPT_GRAM,),
            "dims": (_OPT_GRAM, ("--coset", _INTEGER, _REQUIRED, None), ("--max", _SIZE, 0, None)),
        },
    ),
    "peirce": (
        "structure-constant corner algebras",
        _cmd_peirce,
        {
            "validate": (_OPT_ALGEBRA,),
            "zigzag": (_OPT_ALGEBRA, _OPT_DEGREE),
            "morita": (_OPT_ALGEBRA, _OPT_DEGREE),
        },
    ),
    "zhu": (
        "block descriptors",
        _cmd_zhu,
        {
            "rational": (("--modules", str, _REQUIRED, "JSON list of simple module data"), _OPT_DEGREE),
            "heisenberg": (_OPT_RANK, _OPT_DEGREE),
            "exceptional": (
                ("--dims", str, _REQUIRED, "comma-separated level dimensions"),
                ("--max", _SIZE, _REQUIRED, None),
            ),
        },
    ),
    "selftest": (
        "built-in verification battery",
        _cmd_selftest,
        {None: (("--seed", _INTEGER, 0, None), ("--fast", bool, False, None))},
    ),
}


def _add_options(parser, options) -> None:
    """The common options and then these, on an argparse parser."""
    for flag, kind, default, help_text in (*_COMMON, *options):
        if kind is bool:
            parser.add_argument(flag, action="store_true", help=help_text)
            continue
        given = {"required": True} if default is _REQUIRED else {"default": default}
        if isinstance(kind, tuple):
            given["choices"] = kind
        elif kind is not str:
            given["type"] = kind
        parser.add_argument(flag, help=help_text, **given)


def build_parser():
    """The ``mta`` argparse parser."""
    import argparse

    parser = argparse.ArgumentParser(prog="mta", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _run, leaves) in _FAMILIES.items():
        command = sub.add_parser(name, help=help_text)
        if None in leaves:
            _add_options(command, leaves[None])
            continue
        actions = command.add_subparsers(dest="action", required=True)
        for leaf, options in leaves.items():
            _add_options(actions.add_parser(leaf), options)
    return parser


def _read_argv(argv):
    """The namespace build_parser().parse_args(argv) returns, read without
    argparse, or None.

    argv must be ``family [leaf] (--name value | --switch)*``: every name
    one of that leaf's options or a common one, written out in full and given
    once, every value one its type and choices accept and not starting with
    "-", and every required option present.  Anything else (help,
    abbreviations, --name=value, repeats, negative values, extra tokens,
    errors) is None, for argparse to read and report."""
    if not argv or argv[0] not in _FAMILIES:
        return None
    leaves = _FAMILIES[argv[0]][2]
    names = {"command": argv[0]}
    tokens = iter(argv[1:])
    if None not in leaves:
        leaf = next(tokens, None)
        if leaf not in leaves:
            return None
        names["action"] = leaf
    options = (*_COMMON, *leaves[names.get("action")])
    kinds = {flag: kind for flag, kind, _default, _help in options}
    given = {}
    for flag in tokens:
        if flag not in kinds or flag in given:
            return None
        kind = kinds[flag]
        if kind is bool:
            given[flag] = True
            continue
        text = next(tokens, "-")  # a missing value is refused like "-"
        if text.startswith("-"):
            return None
        if isinstance(kind, tuple):
            if text not in kind:
                return None
        elif kind is not str:
            try:
                text = kind(text)
            # ValueError or argparse.ArgumentTypeError: nothing is lost, as
            # argparse calls the type again and reports what it raises
            except Exception:
                return None
        given[flag] = text
    for flag, _kind, default, _help in options:
        value = given.get(flag, default)
        if value is _REQUIRED:
            return None
        names[flag[2:].replace("-", "_")] = value
    return SimpleNamespace(**names)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _read_argv(argv)
    if args is None:
        parser = build_parser()
        args = parser.parse_args(argv)
    else:
        # a handler only calls parser.error, which then builds the parser
        # to print the same usage and message and exit 2
        parser = SimpleNamespace(error=lambda message: build_parser().error(message))
    _help, run, _leaves = _FAMILIES[args.command]
    return run(parser, args)


if __name__ == "__main__":
    sys.exit(main())
