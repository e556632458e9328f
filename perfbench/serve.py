"""``python -m repro.api`` with the benchmark's layer wrappers installed.

Used for the traced api-mixed iterations only::

    python perfbench/serve.py TRACE_DIR --port N --store-dir D --state-dir S

Each job's spans are written to ``TRACE_DIR/spans-<pid>.jsonl`` as it
finishes; the remaining buffer is written after the server's clean
SIGINT shutdown.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402


def main() -> int:
    from repro.api.__main__ import main as api_main

    recorder = layers.Recorder(sys.argv[1])
    layers.install(recorder)
    try:
        return api_main(sys.argv[2:])
    finally:
        recorder.flush()


if __name__ == "__main__":
    sys.exit(main())
