"""The parity floor's checker (scripts/check_floors.py).

CI holds every ``python -m bench.run`` suite run to the floor, so the
checker gets its own coverage: a floor that silently stops tripping is
worse than no floor.  The measurement itself is host timing and runs in
CI's ``bench`` and ``weekly`` jobs, not here.
"""

import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SCRIPT = REPO / "scripts" / "check_floors.py"
BENCH = REPO / "BENCH.json"


def check(*args):
    return subprocess.run(
        [sys.executable, str(SCRIPT), *map(str, args)],
        capture_output=True, text=True,
    )


def test_self_test_on_committed_baseline():
    done = check("--self-test", BENCH)
    assert done.returncode == 0, done.stderr
    assert "self-test 6/6" in done.stdout


def test_other_schema_rejected(tmp_path):
    document = json.loads(BENCH.read_text(encoding="utf-8"))
    document["schema"] = "repro.bench.dist/v5"
    path = tmp_path / "old.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    for args in ((path,), ("--self-test", path)):
        done = check(*args)
        assert done.returncode == 1
        assert "schema" in done.stderr
