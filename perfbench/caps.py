"""One-shot report of the over-budget cases listed in the ROADMAP baseline.

    python3 perfbench/caps.py

Not a workload, and never compared between commits.  Each case runs once,
in a child killed at the 10 s desk budget and limited to 2 GiB of address
space, and is recorded as its seconds and exit status, or as "timeout".
The cases are known defects; they are run so that they are listed, not
hidden.  The last line of stdout is the report as JSON.
"""

import json
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import run as bench

BUDGET_S = 10
ADDRESS_SPACE = 2 << 30


def _verify(n, d):
    return (), ["heisenberg", "verify", "--rank", str(n), "--degree", str(d)]


CASES = [
    _verify(1, 8),
    _verify(2, 6),
    _verify(3, 5),
    _verify(4, 8),
    (("h15.json",), ["peirce", "validate", "--algebra", "h15.json"]),
    (("h23.json",), ["peirce", "validate", "--algebra", "h23.json"]),
    (("dims60.json",), ["peirce", "validate", "--algebra", "dims60.json"]),
    (("det200000.gram",), ["lattice", "cosets", "--gram", "det200000.gram"]),
    (("diag2000.gram",), ["lattice", "weights", "--gram", "diag2000.gram"]),
]


def _limit():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


def main() -> int:
    env = bench.child_env()
    bench.WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=bench.WORK_ROOT))
    report = []
    try:
        with bench.Children(work, env) as children:
            bench.generate_inputs(children, sorted({n for inputs, _ in CASES for n in inputs}))
        for inputs, argv in CASES:
            row = {"argv": " ".join(argv), "inputs_bytes": {n: (work / n).stat().st_size for n in inputs}}
            start = time.perf_counter()
            try:
                proc = subprocess.run(
                    [sys.executable, "-m", "mta", *argv],
                    cwd=work, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                    timeout=BUDGET_S, preexec_fn=_limit,
                )
            except subprocess.TimeoutExpired:
                row["result"] = "timeout"
            else:
                row["result"] = time.perf_counter() - start
                row["exit"] = proc.returncode
                if proc.returncode not in (0, 1):
                    row["stderr_tail"] = proc.stderr.decode(errors="replace").strip()[-200:]
            shown = row["result"] if row["result"] == "timeout" else f"{row['result']:.2f} s"
            print(f"{shown:>10}  {row['argv']}", flush=True)
            report.append(row)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"budget_s": BUDGET_S, "git_sha": bench.git_sha(), "cases": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
