"""Run one ``repro.cli`` server command, optionally recording layer spans.

    python3 e2ebench/launch.py [--spans PATH] <repro.cli arguments>

Untraced and traced servers both start through this file, so the process
topology is the same in both.  With ``--spans`` the span wrappers of
:mod:`tracing` are installed before the CLI runs, and the spans are
written to ``PATH`` once the server has drained and returned.
"""

from __future__ import annotations

import sys


def main(argv: list[str]) -> int:
    spans_path = None
    if argv[:1] == ["--spans"]:
        spans_path, argv = argv[1], argv[2:]
    recorder = None
    if spans_path is not None:
        from tracing import SpanRecorder, install

        recorder = SpanRecorder()
        install(recorder)
    from repro.cli import main as cli_main

    try:
        return cli_main(argv)
    finally:
        if recorder is not None:
            recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
