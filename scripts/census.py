#!/usr/bin/env python
"""Execution census: the ``src/repro`` functions no product path runs.

Usage: python scripts/census.py

Runs the product roots under a ``sys.setprofile`` hook that a generated
``sitecustomize`` installs in every interpreter they start; forked
workers dump too, through ``os.register_at_fork`` and a wrapped
``os._exit``.  Prints, per module, the lines of each function that never
ran (a nested one only when its enclosing one ran) and exits 1 when the
total exceeds :data:`CEILING`, a ratchet lowered as code goes or runs.
"""

import ast
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "repro"

#: The last measured total of unexecuted function lines; only lower it.
CEILING = 767

HOOK = """
import atexit, os, sys, threading
_seen = set()
def _profile(frame, event, arg):
    if event == "call":
        _seen.add(frame.f_code)
def _dump():
    # A copy: the hook still runs, and this comprehension is a call.
    ran = {f"{c.co_filename}:{c.co_firstlineno}" for c in list(_seen)
           if c.co_filename.startswith(os.environ["REPRO_CENSUS_SRC"])}
    _seen.clear()
    path = os.path.join(os.environ["REPRO_CENSUS_OUT"], f"{os.getpid()}.txt")
    with open(path, "a", encoding="utf-8") as handle:
        handle.write("".join(line + "\\n" for line in ran))
def _exit(code, _real=os._exit):
    _dump()
    _real(code)
os._exit = _exit
os.register_at_fork(after_in_child=_seen.clear)
atexit.register(_dump)
sys.setprofile(_profile)
threading.setprofile(_profile)
"""


def roots(scratch):
    python = sys.executable
    with open(REPO / "BENCHMARK.json", encoding="utf-8") as handle:
        workloads = [w["name"] for w in json.load(handle)["workloads"]]
    yield [python, "-m", "pytest", "benchmarks/", "--benchmark-disable",
           "-q", "-p", "no:cacheprovider"]
    for example in sorted((REPO / "examples").glob("*.py")):
        yield [python, str(example)]
    for name in workloads:
        yield [python, "bench/run.py", "--workload", name, "--quick",
               "--trace", "1"]
    yield [python, "scripts/check_resilience.py"]
    yield [python, "scripts/check_serve.py"]
    yield [python, "-m", "repro.manager.cli", "buildafi", "launchrunfarm",
           "infrasetup", "runworkload", "profile", "status",
           "terminaterunfarm", "--topology", "two_tier", "--racks", "2",
           "--servers-per-rack", "2", "--workers", "2", "--duration-ms",
           "2", "--profile-out", scratch, "--telemetry-out", scratch]


def unexecuted(node, path, ran):
    """Yield ``(name, lines)`` of each function under ``node`` not run."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([child.lineno]
                        + [d.lineno for d in child.decorator_list])
            if f"{path}:{first}" not in ran:
                yield child.name, child.end_lineno - child.lineno + 1
                continue
        yield from unexecuted(child, path, ran)


def main():
    with tempfile.TemporaryDirectory() as tmp:
        hook_dir, out_dir = Path(tmp, "hook"), Path(tmp, "out")
        for folder in (hook_dir, out_dir):
            folder.mkdir()
        (hook_dir / "sitecustomize.py").write_text(HOOK, encoding="utf-8")
        env = dict(os.environ, REPRO_CENSUS_OUT=str(out_dir),
                   REPRO_CENSUS_SRC=str(PACKAGE),
                   PYTHONPATH=os.pathsep.join([str(hook_dir),
                                               str(PACKAGE.parent)]))
        for argv in roots(str(Path(tmp, "session"))):
            print("census: running", " ".join(argv[1:]), flush=True)
            done = subprocess.run(argv, cwd=REPO, env=env, text=True,
                                  stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT)
            if done.returncode != 0:
                print(done.stdout[-4000:], "census: root exited",
                      done.returncode, file=sys.stderr)
                return 1
        ran = {line for dump in out_dir.iterdir()
               for line in dump.read_text(encoding="utf-8").split()}
    total = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        missed = list(unexecuted(tree, path, ran))
        lines = sum(count for _, count in missed)
        if lines:
            total += lines
            print(f"{lines:5d}  {path.relative_to(REPO)}:",
                  ", ".join(name for name, _ in missed))
    print(f"census: {total} unexecuted function lines (ceiling {CEILING})")
    return 1 if total > CEILING else 0


if __name__ == "__main__":
    raise SystemExit(main())
