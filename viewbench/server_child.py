"""Traced server launcher: ``python viewbench/server_child.py SPANS ARGS...``.

Installs the benchmark's layer wrappers (``layers.py``) in this process,
then runs ``repro.server.__main__.main(ARGS)``.  SIGUSR1 installs the
wrappers and SIGUSR2 removes them, so the client can alternate traced
and untraced cycles.  After SIGTERM has shut the server down (final
checkpoint included), the recorded spans are written to SPANS.
"""

from __future__ import annotations

import os
import signal
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

import layers  # noqa: E402


def main() -> int:
    spans_path, server_args = sys.argv[1], sys.argv[2:]
    recorder = layers.Recorder()
    layers.install_layer_wrappers(recorder)
    recorder.install()
    signal.signal(signal.SIGUSR1, lambda *_: recorder.install())
    signal.signal(signal.SIGUSR2, lambda *_: recorder.uninstall())
    from repro.server.__main__ import main as serve
    try:
        return serve(server_args)
    finally:
        recorder.uninstall()
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
