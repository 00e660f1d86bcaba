"""The repository's benchmark: six workloads, measured from outside.

``BENCHMARK.json`` at the repository root names this directory, the
command (``python3 bench/run.py``), the workloads and every metric with
its unit, direction and regression bound; the harness reads those
lists from that file so the two cannot drift.  See ``README.md`` here.

Importing the package only puts ``src/`` on ``sys.path`` so that
``repro`` resolves from a bare checkout; nothing else happens at
import time.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
