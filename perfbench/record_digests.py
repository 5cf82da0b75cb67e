"""Rewrite digests.json: the sha256 of every benchmark command's stdout.

    python3 perfbench/record_digests.py

Run it only at a commit whose outputs are known to be right; the benchmark
counts every later output that differs as a failed command.  Each command
must also exit 0 with its verdict fields true, or nothing is written.
"""

import contextlib
import json
import shutil
import sys
import tempfile
from pathlib import Path

import run as bench


def main() -> int:
    env = bench.child_env()
    bench.WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=bench.WORK_ROOT))
    with contextlib.ExitStack() as stack:
        stack.callback(shutil.rmtree, work, ignore_errors=True)
        children = stack.enter_context(bench.Children(work, env))
        names = sorted({n for w in bench.WORKLOADS.values() for n in w.inputs})
        bench.generate_inputs(children, names)
        commands = [bench.WARMUP] + [c for w in bench.WORKLOADS.values() for c in w.commands]
        digests = {}
        for cmd in commands:
            run = children.run(["-m", "mta", *cmd.args(0)])
            digests[cmd.id] = bench.stdout_digest(cmd, run.out, 0)
            # with the digest just taken, only the exit status and verdict can fail
            reasons = bench.gate(cmd, run, 0, digests)
            if reasons:
                print(f"{cmd.id}: {'; '.join(reasons)}", file=sys.stderr)
                return 1
    bench.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {bench.DIGESTS.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
