"""Run the outerstring command line with span recording on.

Usage: python3 cli_child.py SUMMARY_JSON ARGS...

Behaves like ``python -m outerstring.cli ARGS...``: same output, exit code
and tracebacks.  When it ends it writes the self time, call count and size
counters of every traced span name to SUMMARY_JSON, with the time this
process spent setting tracing up: loading the span recorder and wrapping
the traced names.
"""

import json
import sys
import time
from pathlib import Path


def main() -> int:
    summary, argv = sys.argv[1], sys.argv[2:]
    from outerstring import cli   # imported untraced too: not tracing cost
    t = time.perf_counter()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import spans
    tracer = spans.Tracer()
    spans.install(tracer)
    install_s = time.perf_counter() - t
    tracer.active = True
    try:
        return cli.main(argv)
    finally:
        tracer.active = False
        tracer.close_all()
        Path(summary).write_text(json.dumps(tracer.summary(install_s)), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
