"""Run one ``aodkit`` CLI command in this fresh interpreter with tracing on.

Usage: ``python trace_cli.py SPANS.json <aodkit arguments...>``

Equivalent to ``python -m aodkit.cli <arguments>``, except that the import
of ``aodkit.cli`` and the call of ``aodkit.cli.main`` are spans, the
public module functions are wrapped (see ``tracing.py``), and the spans
are written to ``SPANS.json`` when the command ends.  The exit code is
the command's.
"""

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracing import HEAVY_SCIPY, Tracer  # noqa: E402


def main(spans_path, argv):
    tracer = Tracer()
    tracer.op = 0
    before = len(sys.modules)
    start = time.perf_counter()
    tracer.begin("import.aodkit_cli")
    import aodkit.cli
    tracer.end()
    import_s = time.perf_counter() - start
    loaded = len(sys.modules) - before

    tracer.install(cli=True)
    tracer.begin("cli.main")
    try:
        return aodkit.cli.main(argv)
    finally:
        tracer.end()
        payload = dict(tracer.export(), import_s=import_s, modules_loaded=loaded,
                       scipy_heavy_loaded=sum(m in sys.modules for m in HEAVY_SCIPY))
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
