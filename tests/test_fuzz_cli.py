"""Mutated input files end every CLI command with exit 0, 1 or 2.

Each file under tests/golden/cli/inputs is mutated: keys and list items
dropped, values swapped for another type, integers negated or inflated,
values nested in a list, gram tokens replaced, and the text cut short.  The
mutant runs through `cli.main` in-process, with stdout and stderr captured
and a 10 s alarm.  The command must end with exit 0, 1 or 2, and no
exception but SystemExit may escape.

Most of those mutants stop at parsing, so the algebra files also get
well-formed mutants that stay inside every cap: a structure constant or a
unit0 entry changed, a product dropped, or a dims entry moved by one with
the products and unit0 fitted to it.  These must reach the command itself:
exit 0 or 1 with one JSON line on stdout, exit 2 only for a degree above
the file's max_degree.

The algebra loader streams a file as the library writes it into the
product tables, and reads every other file whole with plain json.load.
So each algebra mutant, files with product-shaped objects in other places
(the top level, products, dims, unit0, a field of a product) with keys in
order, permuted, repeated, added or missing, files laid out as json.dumps
never writes them (keys in any order, any whitespace, strings in
escapes), and files over the products cap with one fault before or past
it must give the exit status, stdout and stderr that the same command
gives when every file is read whole.  Such a layout is streamed exactly
when it is whole and has max_degree and dims before products.

The module and gram files get well-formed mutants too: a graded_dims entry
or a conformal_weight changed, or a module dropped; a diagonal entry or a
symmetric off-diagonal pair of the Gram matrix changed.  Such a file may
still be refused (an odd diagonal entry is not an even lattice), so these
end with exit 0 or 1 and one JSON line, or with exit 2 and a usage message.
"""

import contextlib
import io
import itertools
import json
import signal
from fractions import Fraction
from operator import itemgetter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mta import cli, peirce
from mta.cli import main

INPUTS = Path(__file__).resolve().parent / "golden" / "cli" / "inputs"
LIMIT_S = 10

ALGEBRAS = ("idempotents3.json", "mm12.json", "mm22_perturbed.json", "no_identity.json")
GRAMS = ("a4.gram", "d4.gram", "rank2.gram", "z8.gram")
# argv of each command family, the input file standing last
ALGEBRA_COMMANDS = (
    ("peirce", "validate", "--algebra"),
    ("peirce", "zigzag", "--degree", "0", "--algebra"),
    ("peirce", "zigzag", "--degree", "1", "--algebra"),
    ("peirce", "morita", "--degree", "0", "--algebra"),
    ("peirce", "morita", "--degree", "1", "--algebra"),
)
GRAM_COMMANDS = (
    ("lattice", "cosets", "--gram"),
    ("lattice", "weights", "--gram"),
    ("lattice", "dims", "--coset", "1", "--max", "12", "--gram"),
)
MODULE_COMMANDS = (("zhu", "rational", "--degree", "2", "--modules"),)
# every algebra file has max_degree 1, so degree 2 is a usage error
WELL_FORMED_COMMANDS = ALGEBRA_COMMANDS + (
    ("peirce", "zigzag", "--degree", "2", "--algebra"),
    ("peirce", "morita", "--degree", "2", "--algebra"),
)

FUZZ = settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


class _Timeout(BaseException):
    """Raised by the alarm; a BaseException, so no `except Exception` in the
    command can swallow it."""


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _run(argv):
    """(exit status, stdout, stderr) of one in-process command under the
    alarm."""

    def alarm(signum, frame):
        raise _Timeout(f"{argv} ran over {LIMIT_S} s")

    previous = signal.signal(signal.SIGALRM, alarm)
    signal.setitimer(signal.ITIMER_REAL, LIMIT_S)
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue(), err.getvalue()


def _check(command, path, text):
    path.write_text(text, encoding="utf-8")
    code, _, err = _run([*command, str(path)])
    assert code in (0, 1, 2), (command, text[:400], code)
    assert "Traceback" not in err, (command, text[:400], err)


def _assert_one_json_line(argv, text, code, out, err):
    assert "Traceback" not in err, (argv, text, err)
    assert code in (0, 1), (argv, text, code, err)
    lines = out.splitlines()
    assert len(lines) == 1, (argv, text, out)
    assert isinstance(json.loads(lines[0]), dict)


def _assert_answer_or_usage(command, path, text):
    """The command answers with one JSON line, or exits 2 with a usage
    message and nothing on stdout."""
    path.write_text(text, encoding="utf-8")
    argv = [*command, str(path)]
    code, out, err = _run(argv)
    if code == 2:
        assert "Traceback" not in err, (argv, text, err)
        assert "error: " in err and not out, (argv, text, out, err)
        return
    _assert_one_json_line(argv, text, code, out, err)


def _paths(obj, path=()):
    """Every position in a JSON value, as a key path."""
    yield path
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from _paths(value, path + (key,))


def _mutate_value(value, how, k):
    if how == "swap":
        others = ["x", "1/0", 2.5, None, True, [], {}, str(value), 10**k]
        return others[k % len(others)]
    if how == "negate":
        if isinstance(value, int) and not isinstance(value, bool):
            return -value
        return f"-{value}" if isinstance(value, str) else value
    if how == "inflate":
        if isinstance(value, int) and not isinstance(value, bool):
            return value * 10**k + k
        return f"{value}{'0' * k}" if isinstance(value, str) else value
    return [value]  # nest


def _cut(draw, text):
    """text, cut short at a random place one time in four."""
    if draw(st.integers(0, 3)):
        return text
    return text[: draw(st.integers(0, len(text)))]


@st.composite
def json_mutants(draw, name):
    data = json.loads((INPUTS / name).read_text(encoding="utf-8"))
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(data))
        path = draw(st.sampled_from(paths))
        how = draw(st.sampled_from(("drop", "swap", "negate", "inflate", "nest")))
        k = draw(st.sampled_from((1, 2, 3, 9, 40)))
        if not path:
            data = [data] if how == "nest" else _mutate_value(data, "swap", k)
            continue
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        if how == "drop":
            del parent[path[-1]]
        else:
            parent[path[-1]] = _mutate_value(parent[path[-1]], how, k)
    text = json.dumps(data)
    return _cut(draw, text)


@st.composite
def _changed_scalar(draw, text):
    """The exact scalar text changed to 0, 1 or -1, multiplied by k, or
    replaced by a small p/q."""
    how = draw(st.sampled_from(("0", "1", "-1", "times", "ratio")))
    if how == "times":
        return str(Fraction(text) * draw(st.sampled_from((-1, 2, -3, 7))))
    if how == "ratio":
        return f"{draw(st.integers(-9, 9))}/{draw(st.integers(1, 9))}"
    return how


@st.composite
def algebra_mutants(draw, name):
    """A well-formed algebra file inside every cap: one to three changes,
    each of one structure constant, of one unit0 entry, a dropped product,
    or one dims entry raised or lowered by one and kept nonnegative; then
    the products whose basis indices fall out of range are dropped, and
    unit0 is padded with "0" or cut to the new dims[0][0]."""
    data = json.loads((INPUTS / name).read_text(encoding="utf-8"))
    dims = data["dims"]
    for _ in range(draw(st.integers(1, 3))):
        products, unit0 = data["products"], data["unit0"]
        how = draw(st.sampled_from(("coeff", "unit0", "drop", "dims")))
        if how == "dims":
            i, j = draw(st.integers(0, len(dims) - 1)), draw(st.integers(0, len(dims) - 1))
            dims[i][j] = max(0, dims[i][j] + draw(st.sampled_from((-1, 1))))
            data["products"] = [
                e
                for e in products
                if e["a"] < dims[e["i"]][e["j"]] and e["b"] < dims[e["j"]][e["k"]] and e["c"] < dims[e["i"]][e["k"]]
            ]
            data["unit0"] = (unit0 + ["0"] * dims[0][0])[: dims[0][0]]
        elif how == "unit0":
            if unit0:
                k = draw(st.integers(0, len(unit0) - 1))
                unit0[k] = draw(_changed_scalar(unit0[k]))
        elif products:
            k = draw(st.integers(0, len(products) - 1))
            if how == "drop":
                del products[k]
            else:
                products[k]["coeff"] = draw(_changed_scalar(products[k]["coeff"]))
    return json.dumps(data)


ENTRY_KEYS = ("i", "j", "k", "a", "b", "c", "coeff")
# the keys of a product-shaped object: a repeated key keeps the place it
# first had, so "repeated" reads as a product in order and "repeated first"
# does not
PRODUCT_LAYOUTS = {
    "in order": ENTRY_KEYS,
    "reversed": ENTRY_KEYS[::-1],
    "repeated": (*ENTRY_KEYS, "i"),
    "repeated first": ("coeff", *ENTRY_KEYS),
    "extra": (*ENTRY_KEYS, "d"),
    "missing": ENTRY_KEYS[1:],
}
PRODUCT_VALUES = {
    "integers": (0, 0, 0, 0, 0, 0, 1),
    "mixed": (0, "x", 1, "1/2", [0], 2, "1" * 120),
}
# where the object goes: the file, a top-level value, a row of dims, a
# product, a field of a product; "long" also gives product 1 a 101-digit
# coefficient, over the digits cap
PLACES = (
    "file",
    *(("top", key) for key in ("max_degree", "dims", "products", "unit0")),
    "dims row",
    "product",
    *(("field", key) for key in ENTRY_KEYS),
    "long",
)
PLACE = "@product@"


def _product_text(layout, values):
    """A product-shaped JSON object as text, as json.dumps cannot repeat a
    key; values are taken in turn, as many as the keys need."""
    pairs = zip(PRODUCT_LAYOUTS[layout], itertools.cycle(PRODUCT_VALUES[values]))
    return "{" + ", ".join(f"{json.dumps(key)}: {json.dumps(value)}" for key, value in pairs) + "}"


def _with_product(name, where, text):
    """The algebra file with a product-shaped object, given as text, put in
    one place."""
    data = json.loads((INPUTS / name).read_text(encoding="utf-8"))
    if where == "file":
        data = PLACE
    elif where == "dims row":
        data["dims"][0] = PLACE
    elif where == "product":
        data["products"][0] = PLACE
    elif where == "long":
        data["products"][0]["i"] = PLACE
        data["products"][1]["coeff"] = "1" * 101
    elif where[0] == "top":
        data[where[1]] = PLACE
    else:
        data["products"][0][where[1]] = PLACE
    return json.dumps(data).replace(json.dumps(PLACE), text)


@st.composite
def product_shaped_mutants(draw, name):
    layout = draw(st.sampled_from(sorted(PRODUCT_LAYOUTS)))
    text = _product_text(layout, draw(st.sampled_from(sorted(PRODUCT_VALUES))))
    return _with_product(name, draw(st.sampled_from(PLACES)), text)


@st.composite
def module_mutants(draw):
    """A well-formed module file: one to three changes, each of one
    graded_dims entry, of one conformal_weight, or a dropped module."""
    data = json.loads((INPUTS / "modules.json").read_text(encoding="utf-8"))
    for _ in range(draw(st.integers(1, 3))):
        if not data:
            break
        m = draw(st.integers(0, len(data) - 1))
        how = draw(st.sampled_from(("dims", "weight", "drop")))
        if how == "drop":
            del data[m]
        elif how == "weight":
            data[m]["conformal_weight"] = draw(_changed_scalar(data[m]["conformal_weight"]))
        else:
            dims = data[m]["graded_dims"]
            dims[draw(st.integers(0, len(dims) - 1))] = draw(st.integers(-2, 9))
    return json.dumps(data)


@st.composite
def gram_value_mutants(draw, name):
    """A well-formed gram file inside the caps: one to three changes, each of
    one diagonal entry or of one symmetric off-diagonal pair.  Diagonal
    entries stay at most 8, so a positive-definite mutant has determinant at
    most 8^4 = 4096 (Hadamard), the coset cap."""
    lines = (INPUTS / name).read_text(encoding="utf-8").splitlines()
    n = int(lines[0])
    gram = [[int(x) for x in line.split()] for line in lines[1 : n + 1]]
    for _ in range(draw(st.integers(1, 3))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if i == j:
            gram[i][i] = draw(st.sampled_from((2, 4, 6, 8, 0, -2, 3)))
        else:
            gram[i][j] = gram[j][i] = draw(st.integers(-3, 3))
    return f"{n}\n" + "".join(" ".join(map(str, row)) + "\n" for row in gram)


@st.composite
def gram_mutants(draw, name):
    lines = [line.split() for line in (INPUTS / name).read_text(encoding="utf-8").splitlines()]
    for _ in range(draw(st.integers(1, 3))):
        r = draw(st.integers(0, len(lines) - 1)) if lines else 0
        how = draw(st.sampled_from(("drop line", "copy line", "drop", "swap", "negate", "inflate")))
        if how == "drop line" and lines:
            del lines[r]
        elif how == "copy line" and lines:
            lines.insert(r, list(lines[r]))
        elif lines and lines[r]:
            c = draw(st.integers(0, len(lines[r]) - 1))
            token = lines[r][c]
            if how == "drop":
                del lines[r][c]
            elif how == "swap":
                lines[r][c] = draw(st.sampled_from(("x", "1/2", "2.0", "1e3", "+4", "٣", "0x10")))
            elif how == "negate":
                lines[r][c] = token[1:] if token.startswith("-") else f"-{token}"
            else:
                lines[r][c] = token + "0" * draw(st.sampled_from((1, 3, 9, 40)))
    text = "".join(" ".join(tokens) + "\n" for tokens in lines)
    return _cut(draw, text)


@FUZZ
@given(st.data())
def test_mutated_algebra_files(scratch, data):
    name = data.draw(st.sampled_from(ALGEBRAS))
    command = data.draw(st.sampled_from(ALGEBRA_COMMANDS))
    _check(command, scratch / "algebra.json", data.draw(json_mutants(name)))


@FUZZ
@given(st.data())
def test_well_formed_algebra_mutants_reach_the_command(scratch, data):
    name = data.draw(st.sampled_from(ALGEBRAS))
    command = data.draw(st.sampled_from(WELL_FORMED_COMMANDS))
    text = data.draw(algebra_mutants(name))
    path = scratch / "algebra.json"
    path.write_text(text, encoding="utf-8")
    code, out, err = _run([*command, str(path)])
    assert "Traceback" not in err, (command, text, err)
    degree = int(command[command.index("--degree") + 1]) if "--degree" in command else 0
    if degree > json.loads(text)["max_degree"]:
        assert code == 2, (command, text, code, err)
        return
    _assert_one_json_line(command, text, code, out, err)


@FUZZ
@given(st.data())
def test_mutated_gram_files(scratch, data):
    name = data.draw(st.sampled_from(GRAMS))
    command = data.draw(st.sampled_from(GRAM_COMMANDS))
    _check(command, scratch / "lattice.gram", data.draw(gram_mutants(name)))


@FUZZ
@given(st.data())
def test_mutated_module_files(scratch, data):
    _check(MODULE_COMMANDS[0], scratch / "modules.json", data.draw(json_mutants("modules.json")))


@FUZZ
@given(st.data())
def test_well_formed_gram_mutants_answer_or_refuse(scratch, data):
    name = data.draw(st.sampled_from(GRAMS))
    command = data.draw(st.sampled_from(GRAM_COMMANDS))
    _assert_answer_or_usage(command, scratch / "lattice.gram", data.draw(gram_value_mutants(name)))


@FUZZ
@given(st.data())
def test_well_formed_module_mutants_answer_or_refuse(scratch, data):
    _assert_answer_or_usage(MODULE_COMMANDS[0], scratch / "modules.json", data.draw(module_mutants()))


def _never_streamed(fh, max_products):
    """peirce._stream_algebra taking no file, so the CLI reads each one
    whole."""
    return None


def _assert_read_as_json_load(command, path, text):
    """The command gives the same exit status, stdout and stderr on text
    streamed (when the stream takes it) and read whole by plain json.load;
    (whether the stream took it, the outcome)."""
    path.write_text(text, encoding="utf-8")
    argv = [*command, str(path)]
    streamed = []
    stream = peirce._stream_algebra

    def recorded(*args):
        streamed.append(stream(*args))
        return streamed[-1]

    with mock.patch.object(peirce, "_stream_algebra", recorded):
        first = _run(argv)
    with mock.patch.object(peirce, "_stream_algebra", _never_streamed):
        whole = _run(argv)
    assert first == whole, (argv, text)
    return any(read is not None for read in streamed), first


@pytest.mark.parametrize("values", sorted(PRODUCT_VALUES))
@pytest.mark.parametrize("layout", sorted(PRODUCT_LAYOUTS))
@pytest.mark.parametrize("where", PLACES, ids=str)
def test_product_shaped_objects_read_as_json_load(scratch, where, layout, values):
    text = _with_product("mm12.json", where, _product_text(layout, values))
    _assert_read_as_json_load(ALGEBRA_COMMANDS[0], scratch / "algebra.json", text)


# a products cap under mm12's 28 products, and faults put in one product:
# name -> (the fault, whether the stream still takes the file when the
# fault lies past the cap, where products are tallied and not stored)
OVER_CAP = 20
CUT = "@cut@"
OVER_CAP_FAULTS = {
    "index out of range": (lambda e: e.update(a=5), True),
    "coefficient 1/0": (lambda e: e.update(coeff="1/0"), True),
    "unhashable index": (lambda e: e.update(i=[1]), False),
    "missing key": (lambda e: e.pop("c"), False),
    "cut short": (lambda e: e.update(coeff=CUT), False),
}
OVER_CAP_CASES = [("as is", None)] + [
    (fault, product) for fault in sorted(OVER_CAP_FAULTS) for product in (3, 24)
]


@pytest.mark.parametrize(("fault", "product"), OVER_CAP_CASES, ids=str)
def test_over_cap_files_read_as_json_load(scratch, monkeypatch, fault, product):
    """A file over the products cap is streamed to its end, its products
    past the cap tallied only, and refused on the tallies in the words of
    the whole read; a fault in a stored product, or one the tallies meet,
    leaves the file to the whole read, which names it or the cap as
    before."""
    monkeypatch.setattr(cli, "MAX_ALGEBRA_PRODUCTS", OVER_CAP)
    data = json.loads((INPUTS / "mm12.json").read_text(encoding="utf-8"))
    assert len(data["products"]) > OVER_CAP
    streams = True
    if product is not None:
        change, past_cap_streams = OVER_CAP_FAULTS[fault]
        change(data["products"][product])
        streams = past_cap_streams and product >= OVER_CAP
    text = json.dumps(data)
    if CUT in text:
        text = text[: text.index(CUT)]
    for command in ALGEBRA_COMMANDS:
        streamed, (code, out, err) = _assert_read_as_json_load(command, scratch / "algebra.json", text)
        assert streamed == streams and code == 2 and not out, (command, err)
        if streams:
            assert f"products: 28, over the desk-scale limit of {OVER_CAP}" in err


# JSON whitespace, as json.load skips it between tokens
SPACES = ("", " ", "  ", "\n", "\t", "\r\n", "\r", " \n\t ")


def _laid_out(value, spaces, escapes):
    """value as JSON text with next(spaces) around every token, and each
    character of a string written as a \\u escape when next(escapes)."""
    how = spaces, escapes

    def token(text):
        return next(spaces) + text + next(spaces)

    if isinstance(value, dict):
        items = (_laid_out(k, *how) + ":" + _laid_out(v, *how) for k, v in value.items())
        return token("{") + ",".join(items) + token("}")
    if isinstance(value, list):
        return token("[") + ",".join(_laid_out(v, *how) for v in value) + token("]")
    if isinstance(value, str):
        chars = (f"\\u{ord(ch):04x}" if next(escapes) else json.dumps(ch)[1:-1] for ch in value)
        return token('"' + "".join(chars) + '"')
    return token(json.dumps(value))


@st.composite
def layout_mutants(draw, name):
    """(text, whether it is whole with max_degree and dims before
    products): the algebra file with its top-level keys in a drawn order,
    drawn whitespace around every token and drawn characters of every
    string written as \\u escapes, then cut short one time in four."""
    data = json.loads((INPUTS / name).read_text(encoding="utf-8"))
    keys = draw(st.permutations(list(data)))
    spaces = itertools.cycle(draw(st.lists(st.sampled_from(SPACES), min_size=1, max_size=9)))
    escapes = itertools.cycle(draw(st.lists(st.booleans(), min_size=1, max_size=9)))
    text = _cut(draw, _laid_out({key: data[key] for key in keys}, spaces, escapes))
    try:
        whole = json.loads(text) == data
    except ValueError:
        whole = False
    return text, whole and keys.index("products") > max(keys.index("max_degree"), keys.index("dims"))


@FUZZ
@given(st.data())
def test_stream_reads_as_json_load(scratch, data):
    name = data.draw(st.sampled_from(ALGEBRAS))
    command = data.draw(st.sampled_from(WELL_FORMED_COMMANDS))
    mutants = (
        json_mutants(name),
        algebra_mutants(name),
        product_shaped_mutants(name),
        layout_mutants(name).map(itemgetter(0)),
    )
    _assert_read_as_json_load(command, scratch / "algebra.json", data.draw(st.one_of(mutants)))


@FUZZ
@given(st.data())
def test_any_layout_reads_as_json_load_and_streams_when_whole(scratch, data):
    name = data.draw(st.sampled_from(ALGEBRAS))
    command = data.draw(st.sampled_from(WELL_FORMED_COMMANDS))
    text, streams = data.draw(layout_mutants(name))
    assert _assert_read_as_json_load(command, scratch / "algebra.json", text)[0] == streams, text
