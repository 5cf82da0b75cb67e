"""Closed-loop benchmark of the ``mta`` command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client: this process runs one ``python -m mta ...`` child at a time and
starts the next only when the previous one has exited, because every CLI
user pays for a fresh interpreter.  Every command is exact and is checked
three ways: its exit status, its own verdict field, and the sha256 of its
stdout against ``digests.json`` (outputs are byte-deterministic).  A
mismatch is printed and counted; the pass goes on.

A run sets up five times (bytecode compile, input files, one untimed
warm-up command) and reports the median as ``setup_s``.  It then runs a
fixed number of passes over the workload's command list, in an order drawn
from ``--seed``; the count is ``--seconds`` over the workload's nominal
pass length at the commit that defined the benchmark, so every commit runs
the same commands and latency percentiles rest on the same sample count.

With ``--trace 1`` the run makes one plain pass and one pass whose
children run under ``trace_child.py``, and reports per-layer metrics from
the traced pass instead of the end-to-end metrics.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  The lines before it are a readable summary and a ``meta`` record
(Python version, nproc, git sha, seed, load average before and after).
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = HERE / ".work"
DIGESTS = HERE / "digests.json"
GEN_INPUTS = HERE / "gen_inputs.py"
TRACE_CHILD = HERE / "trace_child.py"
LAUNCHER = HERE / "launcher.py"
SETUP_ROUNDS = 5


@dataclass(frozen=True)
class Command:
    """One ``mta`` command line; ``{seed}`` is replaced by the run's seed."""

    argv: tuple[str, ...]
    verdict: tuple[str, ...] = ()  # JSON fields of stdout that must be true

    @property
    def id(self) -> str:
        return " ".join(self.argv)

    def args(self, seed: int) -> list[str]:
        return [a.replace("{seed}", str(seed)) for a in self.argv]


@dataclass(frozen=True)
class Workload:
    inputs: tuple[str, ...]  # files gen_inputs.py writes during set-up
    pass_s: float  # nominal pass length when the benchmark was defined
    commands: tuple[Command, ...]


def _cmd(*argv, verdict=()) -> Command:
    return Command(tuple(str(a) for a in argv), tuple(verdict))


def _verify(n, d) -> Command:
    return _cmd("heisenberg", "verify", "--rank", n, "--degree", d, verdict=("ok",))


def _peirce(algebra, degrees) -> list[Command]:
    out = [_cmd("peirce", "validate", "--algebra", algebra, verdict=("ok",))]
    for d in degrees:
        out.append(
            _cmd("peirce", "zigzag", "--algebra", algebra, "--degree", d,
                 verdict=("associative", "action_through_corner"))
        )
        out.append(_cmd("peirce", "morita", "--algebra", algebra, "--degree", d, verdict=("ok",)))
    return out


def _lattice(gram) -> list[Command]:
    return [
        _cmd("lattice", "cosets", "--gram", gram),
        _cmd("lattice", "weights", "--gram", gram),
        _cmd("lattice", "dims", "--gram", gram, "--coset", 1, "--max", 30),
    ]


# Why each workload was chosen: BENCHMARK.json and README.md.
WORKLOADS = {
    "boson": Workload(
        inputs=(),
        pass_s=7.5,
        commands=(_verify(1, 7), _verify(2, 5), _verify(3, 4), _verify(4, 4)),
    ),
    "corner": Workload(
        inputs=("mm332.json", "h14.json"),
        pass_s=18.0,
        commands=(
            *_peirce("mm332.json", (0, 1)),
            _cmd("peirce", "validate", "--algebra", "h14.json", verdict=("ok",)),
        ),
    ),
    "desk": Workload(
        inputs=("mm12.json", "z8.gram", "a4.gram", "modules.json"),
        pass_s=3.75,
        commands=(
            _cmd("partitions", "count", "--rank", 2, "--weight", 6),
            _cmd("partitions", "list", "--rank", 2, "--weight", 6),
            _cmd("heisenberg", "identity", "--rank", 2, "--degree", 4),
            _verify(2, 3),
            _cmd("heisenberg", "zhu", "--rank", 2, "--degree", 4),
            *_lattice("z8.gram"),
            *_lattice("a4.gram"),
            *_peirce("mm12.json", (0, 1)),
            _cmd("zhu", "rational", "--modules", "modules.json", "--degree", 2),
            _cmd("zhu", "heisenberg", "--rank", 2, "--degree", 4),
            _cmd("zhu", "exceptional", "--dims", "1,0,1,1", "--max", 3),
            _cmd("selftest", "--fast", "--seed", "{seed}", verdict=("ok",)),
        ),
    ),
}

WARMUP = _cmd("partitions", "count", "--rank", 1, "--weight", 1)

END_TO_END = [
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("cpu_s", "s"),
    ("latency_p50_s", "s"),
    ("latency_tail_s", "s"),
    ("peak_rss_mib", "MiB"),
]

LAYERS = ("partitions", "heisenberg", "peirce", "exact", "lattice", "zhu")

# Per traced pass.  "<span>.s" is self seconds summed over the span's calls.
PER_LAYER = [
    ("cli.import_s", "s"),  # median per command
    ("cli.main.self_s", "s"),
    ("cli.stdout_bytes", "bytes"),
    ("partitions.enumerate.calls", "count"),
    ("partitions.enumerate.s", "s"),
    ("heisenberg.multiply.calls", "count"),
    ("heisenberg.multiply.s", "s"),
    ("heisenberg.multiply.terms_out", "count"),
    ("heisenberg.pairing.calls", "count"),
    ("heisenberg.pairing.s", "s"),
    ("heisenberg.from_modes.s", "s"),
    ("exact.rref.calls", "count"),
    ("exact.rref.s", "s"),
    ("exact.rref.rows_in", "count"),
    ("exact.rref.rows_kept", "count"),
    ("exact.rref.kept_ratio", "ratio"),
    ("exact.solve_linear.calls", "count"),
    ("exact.solve_linear.s", "s"),
    ("exact.reduce_vector.calls", "count"),
    ("exact.reduce_vector.s", "s"),
    ("peirce.validate.s", "s"),
    ("peirce.zigzag.s", "s"),
    ("peirce.roundtrip.s", "s"),
    ("peirce.mul.calls", "count"),
    ("peirce.mul.s", "s"),
    ("peirce.mul_basis.calls", "count"),
    ("peirce.balanced_tensor.calls", "count"),
    ("peirce.balanced_tensor.s", "s"),
    ("peirce.project.calls", "count"),
    ("peirce.project.s", "s"),
    ("peirce.from_json.s", "s"),
    ("lattice.dual_cosets.s", "s"),
    ("lattice.coset_norms.calls", "count"),
    ("lattice.coset_norms.s", "s"),
    ("lattice.coset_norms.points", "count"),
    ("zhu.descriptor.calls", "count"),
    ("zhu.descriptor.s", "s"),
    *[(f"{layer}.self_s", "s") for layer in LAYERS],
    ("trace.overhead_ratio", "ratio"),
    ("trace.unattributed_s", "s"),
]


class SetupError(Exception):
    pass


def child_env() -> dict:
    """Environment of every child: no MTA_THREADS, fixed hash seed, this src."""
    env = {k: v for k, v in os.environ.items() if k != "MTA_THREADS"}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


@dataclass
class ChildRun:
    code: int
    out: bytes
    err: bytes
    wall: float
    cpu: float
    rss_mib: float


class Children:
    """Runs ``sys.executable argv`` children in ``work``, one at a time.

    The children are spawned and reaped by ``launcher.py``, a small process
    started once per run, so that ``ru_maxrss`` is the child's own peak and
    not the size of this process.  Use as a context manager; leaving it stops the
    launcher and waits for it.
    """

    def __init__(self, work: Path, env: dict):
        self.work = work
        self._launcher = subprocess.Popen(
            [sys.executable, str(LAUNCHER)], cwd=work, env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._launcher.stdin.close()
        self._launcher.wait()
        self._launcher.stdout.close()

    def run(self, argv: list[str]) -> ChildRun:
        out, err = self.work / "child.out", self.work / "child.err"
        request = {"argv": [sys.executable, *argv], "out": str(out), "err": str(err)}
        self._launcher.stdin.write(json.dumps(request) + "\n")
        self._launcher.stdin.flush()
        reply = json.loads(self._launcher.stdout.readline())
        return ChildRun(
            code=reply["code"],
            out=out.read_bytes(),
            err=err.read_bytes(),
            wall=reply["wall"],
            cpu=reply["cpu"],
            rss_mib=reply["rss_kib"] / 1024,
        )


def stdout_digest(cmd: Command, out: bytes, seed: int) -> str:
    # the seed field is the only part of a seeded command's output that the
    # seed changes, so it is hashed as its template
    if "{seed}" in cmd.argv:
        out = out.replace(b'"seed": %d' % seed, b'"seed": {seed}')
    return hashlib.sha256(out).hexdigest()


def gate(cmd: Command, run: ChildRun, seed: int, digests: dict) -> list[str]:
    """Reasons the command's result is wrong; empty when it is correct."""
    reasons = []
    if run.code != 0:
        reasons.append(f"exit status {run.code}")
    if cmd.verdict:
        try:
            data = json.loads(run.out)
        except ValueError:
            data = {}
        bad = [f"{k}={data.get(k)!r}" for k in cmd.verdict if data.get(k) is not True]
        if bad:
            reasons.append("verdict " + ", ".join(bad))
    if stdout_digest(cmd, run.out, seed) != digests.get(cmd.id):
        reasons.append("stdout sha256 differs from digests.json")
    return reasons


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)


@dataclass
class Pass:
    wall: float
    cpu: float
    rss_mib: float
    latencies: list[float]
    stdout_bytes: int
    spans: list[dict]


def run_pass(commands, seed, rng, children, digests, tally, trace=False) -> Pass:
    order = rng.sample(list(commands), len(commands))
    latencies, spans = [], []
    cpu = rss = 0.0
    stdout_bytes = 0
    start = time.perf_counter()
    for i, cmd in enumerate(order):
        spans_file = children.work / f"spans-{i}.json"
        prefix = [str(TRACE_CHILD), str(spans_file)] if trace else ["-m", "mta"]
        run = children.run([*prefix, *cmd.args(seed)])
        latencies.append(run.wall)
        cpu += run.cpu
        rss = max(rss, run.rss_mib)
        stdout_bytes += len(run.out)
        tally.attempted += 1
        reasons = gate(cmd, run, seed, digests)
        if reasons:
            tally.failed += 1
            tally.failures.append(f"FAILED {' '.join(cmd.args(seed))}: {'; '.join(reasons)}")
        if trace and spans_file.exists():
            spans.append(json.loads(spans_file.read_text()))
            spans_file.unlink()
    return Pass(time.perf_counter() - start, cpu, rss, latencies, stdout_bytes, spans)


def generate_inputs(children: Children, names) -> None:
    run = children.run([str(GEN_INPUTS), str(children.work), *names])
    if run.code != 0:
        raise SetupError(f"generating inputs failed:\n{run.err.decode(errors='replace')}")


def setup(workload: Workload, seed, children, digests) -> float:
    """One set-up round; returns its seconds."""
    start = time.perf_counter()
    if not compileall.compile_dir(str(ROOT / "src"), quiet=1):
        raise SetupError("compiling src/ failed")
    if workload.inputs:
        generate_inputs(children, workload.inputs)
    reasons = gate(WARMUP, children.run(["-m", "mta", *WARMUP.args(seed)]), seed, digests)
    if reasons:
        raise SetupError(f"warm-up {WARMUP.id} failed: {'; '.join(reasons)}")
    return time.perf_counter() - start


def tail(latencies):
    """(value, percentile, samples beyond): the highest percentile that has at
    least ten samples beyond it; the maximum when there are ten or fewer."""
    s = sorted(latencies)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0, 0
    return s[n - 11], 100.0 * (n - 10) / n, 10


def end_to_end(setups, passes):
    lat = [x for p in passes for x in p.latencies]
    value, pct, beyond = tail(lat)
    metrics = {
        "setup_s": statistics.median(setups),
        "pass_s": statistics.median(p.wall for p in passes),
        "cpu_s": statistics.median(p.cpu for p in passes),
        "latency_p50_s": statistics.median(lat),
        "latency_tail_s": value,
        "peak_rss_mib": statistics.median(p.rss_mib for p in passes),
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups",
        "pass_s": f"median of {len(passes)} passes",
        "cpu_s": "child user+sys per pass, median",
        "latency_p50_s": f"{len(lat)} commands",
        "latency_tail_s": f"p{pct:.1f}, {len(lat)} samples, {beyond} beyond",
        "peak_rss_mib": "largest child ru_maxrss per pass, median",
    }
    return metrics, notes


def per_layer(plain: Pass, traced: Pass):
    stats, counts, imports = {}, {}, []
    for record in traced.spans:
        imports.append(record["import_s"])
        for name, (calls, total, self_s) in record["spans"].items():
            agg = stats.setdefault(name, [0, 0.0, 0.0])
            agg[0] += calls
            agg[1] += total
            agg[2] += self_s
        for name, k in record["counts"].items():
            counts[name] = counts.get(name, 0) + k
    vals = dict(counts)
    for name, (calls, _total, self_s) in stats.items():
        vals[f"{name}.calls"] = calls
        vals[f"{name}.s"] = self_s
    _calls, main_total, main_self = stats.get("cli.main", (0, 0.0, 0.0))
    vals["cli.import_s"] = statistics.median(imports) if imports else 0.0
    vals["cli.main.self_s"] = main_self
    vals["cli.stdout_bytes"] = traced.stdout_bytes
    rows_in = counts.get("exact.rref.rows_in", 0)
    vals["exact.rref.kept_ratio"] = counts.get("exact.rref.rows_kept", 0) / rows_in if rows_in else 0.0
    for layer in LAYERS:
        vals[f"{layer}.self_s"] = sum(v[2] for k, v in stats.items() if k.startswith(layer + "."))
    vals["trace.overhead_ratio"] = traced.wall / plain.wall
    vals["trace.unattributed_s"] = traced.wall - main_total
    return {name: vals.get(name, 0) for name, _ in PER_LAYER}


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        r = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def src_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def loadavg():
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "mta" / "__init__.py").is_file():
        print(f"perfbench: no mta package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    digests = json.loads(DIGESTS.read_text())
    env = child_env()
    load_before = loadavg()
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK_ROOT))
    tally = Tally()
    rng = random.Random(args.seed)
    try:
        with Children(work, env) as children:
            setups = [setup(workload, args.seed, children, digests) for _ in range(SETUP_ROUNDS)]
            run = (workload.commands, args.seed, rng, children, digests, tally)
            if args.trace:
                plain = run_pass(*run)
                traced = run_pass(*run, trace=True)
                metrics = per_layer(plain, traced)
                units, notes, passes = dict(PER_LAYER), {}, 2
            else:
                passes = max(1, round(args.seconds / workload.pass_s))
                metrics, notes = end_to_end(setups, [run_pass(*run) for _ in range(passes)])
                units = dict(END_TO_END)
    except SetupError as exc:
        print(f"perfbench: set-up failed: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for line in tally.failures:
        print(line)
    print(
        f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
        f"passes={passes} commands/pass={len(workload.commands)}"
    )
    for name, value in metrics.items():
        print(f"  {name:32} {value:<14.6g} {units[name]:6} {notes.get(name, '')}")
    fail_ratio = tally.failed / tally.attempted
    print(f"  {'fail_ratio':32} {fail_ratio:<14.6g} {'ratio':6} {tally.failed} of {tally.attempted} commands")
    meta = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "src_sha256": src_sha256(),
        "seed": args.seed,
        "loadavg_before": load_before,
        "loadavg_after": loadavg(),
    }
    print("meta " + json.dumps(meta))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
