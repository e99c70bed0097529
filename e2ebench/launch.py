"""Run the ``repro`` CLI with the benchmark's layer probes installed.

Usage: ``E2EBENCH_SPANS=<dir> E2EBENCH_SPAWN=<monotonic time> python3
e2ebench/launch.py <repro arguments>`` — the arguments ``python -m repro``
takes.  The process's spans are written to ``<dir>/<pid>.jsonl`` when it
ends; ``cli.startup`` runs from the spawn time the parent passed to the
moment ``repro.cli`` is imported.
"""

import atexit
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    import tracing

    spans = Path(os.environ["E2EBENCH_SPANS"]) / f"{os.getpid()}.jsonl"
    recorder = tracing.Recorder(spans)
    spawn = float(os.environ["E2EBENCH_SPAWN"])
    import repro.cli

    recorder.add("cli.startup", spawn, time.monotonic())
    tracing.install(recorder)
    atexit.register(recorder.dump)
    return repro.cli.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
