"""Traced `di-decomp` command line: times the import, then runs ``main``.

Usage: python perfbench/bootstrap.py SPANS_JSON [di-decomp arguments...]

Behaves like ``python -m di_decomp.cli``, with the import of the CLI timed
as the ``startup`` span, the layer wrappers installed and ``main`` timed as
the ``cli`` span.  The spans and counts are written to SPANS_JSON on exit.
"""

import sys
from time import perf_counter

_modules_before = len(sys.modules)
_t0 = perf_counter()
import di_decomp.cli  # noqa: E402

_t1 = perf_counter()
_modules_loaded = len(sys.modules) - _modules_before

import json  # noqa: E402

from tracing import Tracer  # noqa: E402


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.spans.append(["startup", "import di_decomp.cli", _t0, _t1, -1])
    tracer.counts["startup.calls"] += 1
    tracer.counts["startup.modules_loaded"] = _modules_loaded
    tracer.install()
    index = tracer.open("cli", "main")
    try:
        return di_decomp.cli.main(argv)
    finally:
        tracer.close(index)
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "counts": tracer.counts}, fh)


if __name__ == "__main__":
    raise SystemExit(main())
