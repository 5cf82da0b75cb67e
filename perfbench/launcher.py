"""Spawn and reap the benchmark's children on request from run.py.

Reads one JSON request per stdin line, {"argv", "out", "err"}; runs argv in
the current directory with stdout and stderr written to the named files, and
answers with one JSON line {"code", "wall", "cpu", "rss_kib"} taken from
os.wait4.  Exits when stdin closes.

Children are forked from this small process rather than from run.py because
Linux carries the forking process's resident size into the child's
ru_maxrss; forked from run.py, every child would report at least run.py's
size.
"""

import json
import os
import subprocess
import sys
import time


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["out"], "wb") as out, open(request["err"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(request["argv"], stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {
            "code": proc.returncode,
            "wall": wall,
            "cpu": usage.ru_utime + usage.ru_stime,
            "rss_kib": usage.ru_maxrss,
        }
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
