"""Run ``python -m repro.server`` with span recorders around every layer.

    python wirebench/traced_server.py --trace-out FILE -- <repro.server arguments>

Before calling :func:`repro.server.__main__.main`, the launcher wraps the
entry points listed in :data:`wirebench.layers.SPANS`.  The load generator
marks the measured window with signals:

* SIGUSR1 snapshots ``db.statistics()`` and starts recording;
* SIGUSR2 stops recording and snapshots the statistics again.

Each handler creates ``FILE.start`` / ``FILE.end`` when it is done, so the
generator knows the window edge has passed.  After the SIGTERM drain, the
merged span totals and both snapshots are written to ``FILE`` as JSON.
"""

from __future__ import annotations

import json
import os
import signal
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from repro.api.database import GraphDatabase  # noqa: E402
from repro.server.__main__ import main as server_main  # noqa: E402
from wirebench.layers import install  # noqa: E402
from wirebench.spans import SpanRecorder  # noqa: E402


def _touch(path: str) -> None:
    with open(path, "w"):
        pass


def main(argv) -> int:
    if len(argv) < 3 or argv[0] != "--trace-out" or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    out, server_argv = argv[1], argv[3:]
    recorder = SpanRecorder()
    wrapped = install(recorder)

    databases = []
    original_init = GraphDatabase.__init__

    def capturing_init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        databases.append(self)

    GraphDatabase.__init__ = capturing_init
    window = {}

    def statistics() -> dict:
        db = databases[0]
        stats = db.statistics()
        # Lock counters are only in statistics() under read committed; the
        # snapshot engines' first-updater locks live in the same manager.
        stats.setdefault("locks", db.engine.locks.stats.as_dict())
        return stats

    def on_start(signum, frame):
        window["stats_start"] = statistics()
        recorder.active = True
        _touch(out + ".start")

    def on_end(signum, frame):
        recorder.active = False
        window["stats_end"] = statistics()
        _touch(out + ".end")

    signal.signal(signal.SIGUSR1, on_start)
    signal.signal(signal.SIGUSR2, on_end)
    code = server_main(server_argv)
    document = dict(recorder.totals(), wrapped=wrapped, **window)
    with open(out + ".tmp", "w") as handle:
        json.dump(document, handle)
    os.replace(out + ".tmp", out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
