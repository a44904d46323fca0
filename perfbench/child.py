"""Run one extalg CLI command in this process and stamp its timeline.

    python3 child.py STAMP_FILE TRACE_FILE -- CLI_ARGV...

Imports `extalg` from the `src` directory next to this benchmark, stamps the
monotonic clock when `cli.main` is entered and left, and writes the stamps to
STAMP_FILE as JSON.  With TRACE_FILE other than `-`, the tracer wraps the
package's public functions before the command runs and writes its spans to
TRACE_FILE afterwards.  The command's own stdout and exit code pass through.
"""

import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    stamp_path, trace_path, sep = sys.argv[1:4]
    if sep != "--":
        raise SystemExit("usage: child.py STAMP_FILE TRACE_FILE -- CLI_ARGV...")
    argv = sys.argv[4:]
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from extalg import cli

    tracer = None
    if trace_path != "-":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    entered = time.monotonic()
    rc = cli.main(argv)
    left = time.monotonic()
    sys.stdout.flush()
    if tracer is not None:
        tracer.dump(trace_path)
    with open(stamp_path, "w", encoding="utf-8") as fh:
        json.dump({"entered": entered, "left": left,
                   "extalg_file": sys.modules["extalg"].__file__}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
