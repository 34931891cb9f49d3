"""``gpu-blob serve`` with the benchmark's layer spans installed.

    python3 blobbench/daemon.py TRACE_OUT serve --port 0 ...

Runs the daemon exactly as ``python3 -m repro.cli serve ...`` would,
and once it has drained (SIGTERM) writes the per-layer totals and the
root span intervals to ``TRACE_OUT`` as JSON.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from tracer import Tracer, install_serve_spans, layer_metrics


def main(argv):
    trace_out, command, serve_argv = Path(argv[0]), argv[1], argv[2:]
    if command != "serve":
        raise SystemExit(f"daemon.py runs only 'serve', not {command!r}")
    tracer = Tracer()
    install_serve_spans(tracer)
    from repro.serve import service

    code = service.main(serve_argv)
    roots = [(start, end) for _n, start, end, parent in tracer.spans
             if parent is None and end is not None]
    trace_out.write_text(json.dumps(
        {"layers": layer_metrics(tracer), "roots": roots}))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
