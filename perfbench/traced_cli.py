"""Run ``epgc.cli.main`` once in this fresh interpreter and print one JSON line.

    python perfbench/traced_cli.py --traced|--plain <epgc arguments>

With ``--traced`` every epgc module is wrapped by :class:`tracing.Tracer`
before ``main`` runs; with ``--plain`` nothing is, which gives the untraced
time the tracing overhead is measured against.  The line holds the exit code,
what ``main`` printed, the wall time of ``main``, the spans and the
``maximal_cyclic_subgroups`` cache counters.  Needs ``src`` on PYTHONPATH.
"""

import contextlib
import io
import json
import sys
import time

import epgc.cli
import epgc.groups

from tracing import Tracer


def main() -> int:
    mode, argv = sys.argv[1], sys.argv[2:]
    if mode not in ("--traced", "--plain"):
        print(f"usage: {sys.argv[0]} --traced|--plain <epgc arguments>", file=sys.stderr)
        return 2
    tracer = Tracer() if mode == "--traced" else None
    family = epgc.groups.maximal_cyclic_subgroups
    out = io.StringIO()
    if tracer:
        tracer.install()
    try:
        with contextlib.redirect_stdout(out):
            start = time.perf_counter()
            code = epgc.cli.main(argv)
            wall = time.perf_counter() - start
    finally:
        if tracer:
            tracer.uninstall()
    info = family.cache_info()
    payload = {
        "code": code,
        "stdout": out.getvalue(),
        "wall": wall,
        "spans": tracer.take() if tracer else [],
        "cache": [info.hits, info.misses],
    }
    json.dump(payload, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
