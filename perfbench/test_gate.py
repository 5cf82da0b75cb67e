"""Self-test of the benchmark's correctness gate and of BENCHMARK.json.

    python3 -m pytest perfbench/test_gate.py

The algebra of acceptance test 4 with entry 7 perturbed by +1 must be
counted as a failed command, and the pass must go on past it.
"""

import json
import random
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as bench  # noqa: E402

VALIDATE = bench.Command(("peirce", "validate", "--algebra", "algebra.json"), ("ok",))


@pytest.fixture
def children():
    bench.WORK_ROOT.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=bench.WORK_ROOT))
    with bench.Children(path, bench.child_env()) as children:
        bench.generate_inputs(children, ["mm22.json", "mm22_perturbed.json"])
        yield children
    shutil.rmtree(path, ignore_errors=True)


def _pass(children, algebra):
    """Digest the unperturbed algebra's output under VALIDATE's argv, then run
    one pass of VALIDATE on ``algebra`` followed by the warm-up command."""
    work = children.work
    shutil.copy(work / "mm22.json", work / "algebra.json")
    reference = children.run(["-m", "mta", *VALIDATE.args(0)])
    digests = json.loads(bench.DIGESTS.read_text())
    digests[VALIDATE.id] = bench.stdout_digest(VALIDATE, reference.out, 0)
    shutil.copy(work / algebra, work / "algebra.json")
    tally = bench.Tally()
    commands = (VALIDATE, bench.WARMUP)
    bench.run_pass(commands, 0, _InOrder(), children, digests, tally)
    return tally


class _InOrder(random.Random):
    def sample(self, population, k):
        return list(population)[:k]


def test_unperturbed_algebra_passes(children):
    tally = _pass(children, "mm22.json")
    assert (tally.attempted, tally.failed) == (2, 0), tally.failures


def test_perturbed_algebra_counts_as_failed(children):
    tally = _pass(children, "mm22_perturbed.json")
    assert (tally.attempted, tally.failed) == (2, 1)
    [line] = tally.failures
    assert line.startswith("FAILED peirce validate --algebra algebra.json")
    for reason in ("exit status 1", "verdict ok=False", "sha256"):
        assert reason in line


def test_tail_has_ten_samples_beyond():
    assert bench.tail(list(range(100))) == (89, 90.0, 10)
    assert bench.tail([3, 1, 2]) == (3, 100.0, 0)


def test_benchmark_json_matches_run():
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == bench.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == bench.PER_LAYER
