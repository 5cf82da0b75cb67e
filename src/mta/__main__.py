"""Allow running the CLI as `python -m mta`; `run` is also the `mta` script."""

import os
import sys

from .cli import main


def run() -> None:
    """Run the command line on sys.argv and exit with its status.

    Once main() returns, stdout and stderr are flushed and the process ends
    with os._exit, skipping the interpreter's teardown of every loaded
    module, most of them the ones the site hooks import: nothing reads what
    the teardown does, and atexit handlers do not run.  Under -X dev the
    ordinary exit stays, so its runtime checks still see the teardown (a
    file left open, say).  So it does for every path that leaves main() by
    raising: a usage error, a closed pipe, an uncaught exception."""
    code = main()
    if not sys.flags.dev_mode:
        sys.stdout.flush()
        sys.stderr.flush()
        os._exit(code)
    sys.exit(code)


if __name__ == "__main__":
    run()
