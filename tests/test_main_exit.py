"""How `python -m mta` ends: mta.__main__.run flushes stdout and stderr once
main() returns and ends the process with os._exit, except under -X dev and
on every path that leaves main() by raising.

Each command runs in a child interpreter, with its stdout a regular file
and then a pipe, and must exit with the status and print the bytes the
goldens or the in-process cli.main give.  PYTHONUNBUFFERED is dropped from
the children's environment: unbuffered, a write that is never flushed
would still reach the sink, and a missing flush could not show.
"""

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from mta.cli import main
from test_cli_golden import CASES, GOLDEN, _argv

ROOT = Path(__file__).resolve().parents[1]
ENV = {**{k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}, "PYTHONPATH": str(ROOT / "src")}
SINKS = ("file", "pipe")
DEV = ("-X", "dev")


def _child(args, sink, tmp_path, flags=()):
    """(exit status, stdout, stderr) of `python *flags *args`, its stdout a
    regular file or a pipe."""
    cmd = [sys.executable, *flags, *args]
    if sink == "pipe":
        proc = subprocess.run(cmd, env=ENV, capture_output=True, timeout=120)
        return proc.returncode, proc.stdout, proc.stderr
    path = tmp_path / "stdout"
    with open(path, "wb") as fh:
        proc = subprocess.run(cmd, env=ENV, stdout=fh, stderr=subprocess.PIPE, timeout=120)
    return proc.returncode, path.read_bytes(), proc.stderr


def _in_process(capsys, argv):
    """(exit status, stdout, stderr) of cli.main in this process."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out.encode("utf-8"), err.encode("utf-8")


@pytest.mark.parametrize("sink", SINKS)
@pytest.mark.parametrize("name", sorted(CASES))
def test_child_prints_the_golden(name, sink, tmp_path):
    # the cases include exit-1 verdicts: the perturbed algebra's validation
    # and zig-zag, and `peirce morita` refusing an algebra with no identity
    argv, status = CASES[name]
    got = _child(["-m", "mta", *_argv(argv)], sink, tmp_path)
    assert got == (status, (GOLDEN / f"{name}.out").read_bytes(), b"")


# two listings over the 8 KiB stdout buffer, and three usage errors: a
# handler's (read without argparse), argparse's, and a missing command
BEYOND_THE_GOLDENS = [
    ["partitions", "list", "--rank", "4", "--weight", "8"],
    ["partitions", "list", "--rank", "4", "--weight", "8", "--format", "text"],
    ["zhu", "exceptional", "--dims", "1,0,1,1", "--max", "100000000"],
    ["partitions", "count", "--rank", "x", "--weight", "2"],
    [],
]


@pytest.mark.parametrize("flags", [(), DEV])
@pytest.mark.parametrize("sink", SINKS)
@pytest.mark.parametrize("argv", BEYOND_THE_GOLDENS, ids=lambda argv: " ".join(argv) or "no command")
def test_child_prints_what_main_prints(argv, sink, flags, tmp_path, capsys):
    want = _in_process(capsys, argv)
    assert want[0] == 2 or len(want[1]) > 8192
    assert _child(["-m", "mta", *argv], sink, tmp_path, flags) == want


def _probe(body):
    """A child script that registers an atexit handler, runs body, then
    `python -m mta partitions count --rank 2 --weight 6` through runpy."""
    return [
        "-c",
        "import atexit, runpy, sys\n"
        "atexit.register(print, 'atexit ran', file=sys.stderr)\n"
        f"{body}\n"
        "sys.argv[:] = ['mta', 'partitions', 'count', '--rank', '2', '--weight', '6']\n"
        "runpy.run_module('mta', run_name='__main__')\n",
    ]


@pytest.mark.parametrize("sink", SINKS)
def test_atexit_handlers_run_only_under_dev_mode(sink, tmp_path):
    golden = (GOLDEN / "partitions_count.out").read_bytes()
    assert _child(_probe(""), sink, tmp_path) == (0, golden, b"")
    assert _child(_probe(""), sink, tmp_path, DEV) == (0, golden, b"atexit ran\n")


def test_uncaught_exception_exits_as_under_dev_mode(tmp_path):
    """main() replaced by one that raises: without -X dev this takes the
    ordinary exit too, with the status and stderr of the -X dev run, the
    traceback first and then the atexit handler's line."""
    raising = _probe("import mta.cli\nmta.cli.main = lambda: 1 / 0")
    got = _child(raising, "pipe", tmp_path)
    assert got == _child(raising, "pipe", tmp_path, DEV)
    code, out, err = got
    assert (code, out) == (1, b"") and err.endswith(b"ZeroDivisionError: division by zero\natexit ran\n")


def test_importing_main_runs_no_command(tmp_path):
    code = "import sys\nsys.argv[1:] = ['partitions', 'count', '--rank', '2', '--weight', '6']\nimport mta.__main__\n"
    assert _child(["-c", code], "pipe", tmp_path) == (0, b"", b"")


def test_the_mta_script_is_the_same_exit():
    scripts = re.search(r"^\[project\.scripts\]\nmta = \"(.+):(.+)\"$", (ROOT / "pyproject.toml").read_text(), re.M)
    module, name = scripts.groups()
    assert getattr(importlib.import_module(module), name) is importlib.import_module("mta.__main__").run
