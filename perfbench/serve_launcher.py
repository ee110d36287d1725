"""Start ``repro serve-net`` in this process, optionally traced.

Usage: ``python perfbench/serve_launcher.py [--spans PATH] serve-net ...``

With ``--spans`` the layer wrappers of :mod:`tracing` are installed
before the server starts, and every span is written to ``PATH`` as JSON
once the server has shut down.  SIGINT and SIGTERM both shut the
server down cleanly, also when the parent started this process with
SIGINT ignored (as shells do for background jobs).  The remaining
arguments go to ``repro.cli.main`` unchanged.
"""

from __future__ import annotations

import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _interrupt(signum, frame):
    raise KeyboardInterrupt


def main(argv: list[str]) -> int:
    signal.signal(signal.SIGINT, _interrupt)
    signal.signal(signal.SIGTERM, _interrupt)
    spans_path = None
    if argv[:1] == ["--spans"]:
        spans_path, argv = Path(argv[1]), argv[2:]
    sys.path.insert(0, str(HERE))
    from tracing import Tracer

    tracer = Tracer().install() if spans_path is not None else None
    from repro.cli import main as cli_main

    try:
        return cli_main(argv)
    except KeyboardInterrupt:
        return 0
    finally:
        if tracer is not None:
            tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
