"""Traced stand-in for ``python -m geomedian.cli``.

Usage: ``python3 perfbench/cli_child.py SIDECAR.json CLI-ARGS...``

Times ``import geomedian.cli``, installs the span tracer, runs
``geomedian.cli.main`` on the remaining arguments, restores every wrapped
name and writes the import time, the span aggregates and whether the restore
was clean to SIDECAR.json.  Stdout and the exit code are the CLI's own.
"""

import json
import sys
import time


def main() -> int:
    sidecar, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import geomedian.cli

    import_s = time.perf_counter() - start
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        code = geomedian.cli.main(argv)
    finally:
        restored = tracer.restore()
        sys.stdout.flush()
        with open(sidecar, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, "restored": restored, "trace": tracer.snapshot()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
