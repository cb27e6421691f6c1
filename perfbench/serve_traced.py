"""Server entry point for the benchmark: ``repro-pre serve``, optionally traced.

Usage::

    python3 perfbench/serve_traced.py serve --http 0 [serve flags ...]

With ``PERFBENCH_SPANS=<path>`` in the environment the layer wrappers
of :mod:`spans` are installed first, disabled; ``SIGUSR1`` turns
recording on and ``SIGUSR2`` off, and the recorded spans are written to
``<path>`` once the server has shut down.  Without it this is exactly
the normal ``serve`` command.  The server's own telemetry keeps its
defaults either way.
"""

from __future__ import annotations

import os
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from repro.cli import main as cli_main

    spans_path = os.environ.get("PERFBENCH_SPANS")
    if not spans_path:
        return cli_main(argv)

    import spans

    recorder = spans.Recorder()
    spans.install_server(recorder)

    def toggle(signum, _frame):
        recorder.enabled = signum == signal.SIGUSR1

    signal.signal(signal.SIGUSR1, toggle)
    signal.signal(signal.SIGUSR2, toggle)
    try:
        return cli_main(argv)
    finally:
        recorder.enabled = False
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
