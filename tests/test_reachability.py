"""Import census: every ``src/repro`` module is reached from a product root.

A module that only ``tests/`` or ``examples/`` import is code no
experiment, benchmark or CLI verb executes.  The census walks ``ast``
imports (module-level, function-local and relative) from the product
roots and fails naming every module it cannot reach, unless that module
is on :data:`ALLOW` with a one-line reason.

The same walk keeps numpy out of the product: tokens, frames, rings
and profiles are plain lists, ``array`` and ``struct``, and numpy is a
test and ``bench/`` tool only.
"""

import ast
import os
import subprocess
import sys
import textwrap
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: module name -> one-line reason it may stay unreachable.
ALLOW: dict = {}


def module_names(src: Path) -> dict:
    """Dotted module name -> file, for every ``.py`` under ``src``."""
    names = {}
    for path in sorted(src.rglob("*.py")):
        parts = list(path.relative_to(src).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        names[".".join(parts)] = path
    return names


def imported_names(path: Path, module: str) -> set:
    """Every dotted name ``path`` imports, anywhere in its body.

    ``from a import b`` yields both ``a`` and ``a.b`` (``b`` may be a
    submodule); relative imports resolve against ``module``'s package.
    """
    package = module.split(".")
    if path.name != "__init__.py":
        package = package[:-1]
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else []
            target = ".".join(base + ([node.module] if node.module else []))
            found.add(target)
            found.update(f"{target}.{alias.name}" for alias in node.names)
    return found


def census(src: Path, root_files: list, root_modules: list, allow: dict) -> tuple:
    """``(unreached modules not in allow, allow entries not unreached)``."""
    modules = module_names(src)
    seen = set()
    stack = [(path, "") for path in root_files]
    stack += [(modules[name], name) for name in root_modules]
    while stack:
        path, name = stack.pop()
        for target in imported_names(path, name or path.stem):
            parts = target.split(".")
            # Importing a.b.c runs a/__init__ and a/b/__init__ as well.
            for i in range(1, len(parts) + 1):
                prefix = ".".join(parts[:i])
                if prefix in modules and prefix not in seen:
                    seen.add(prefix)
                    stack.append((modules[prefix], prefix))
    seen.update(root_modules)
    orphans = set(modules) - seen
    return sorted(orphans - set(allow)), sorted(set(allow) - orphans)


def product_roots() -> tuple:
    files = [
        path
        for folder in ("bench", "scripts", "benchmarks")
        for path in sorted((REPO / folder).rglob("*.py"))
    ]
    experiments = sorted(
        f"repro.experiments.{path.stem}"
        for path in (REPO / "src/repro/experiments").glob("*.py")
        if path.stem != "__init__"
    )
    return files, ["repro", "repro.manager.cli", *experiments]


def test_every_module_reached_from_a_product_root():
    files, modules = product_roots()
    orphans, stale = census(REPO / "src", files, modules, ALLOW)
    assert not orphans, (
        "reached only from tests/examples (delete, or run from an "
        f"experiment, or list in ALLOW with a reason): {orphans}"
    )
    assert not stale, f"ALLOW lists modules that are reached or gone: {stale}"


def test_census_reports_a_module_only_tests_import(tmp_path):
    src = tmp_path / "src"
    (src / "pkg").mkdir(parents=True)
    (src / "pkg/__init__.py").write_text("")
    (src / "pkg/used.py").write_text("def f():\n    from . import helper\n")
    (src / "pkg/helper.py").write_text("")
    (src / "pkg/only_tested.py").write_text("")
    main = tmp_path / "main.py"
    main.write_text("import pkg.used\n")
    test = tmp_path / "test_only.py"
    test.write_text("from pkg import only_tested\n")

    assert census(src, [main], [], {}) == (["pkg.only_tested"], [])
    allow = {"pkg.only_tested": "exercised by a reference test"}
    assert census(src, [main], [], allow) == ([], [])
    allow = {"pkg.helper": "reached through a function-local import"}
    assert census(src, [main], [], allow) == (["pkg.only_tested"], ["pkg.helper"])


def test_no_product_module_imports_numpy():
    offenders = sorted(
        name
        for name, path in module_names(REPO / "src").items()
        if any(
            target == "numpy" or target.startswith("numpy.")
            for target in imported_names(path, name)
        )
    )
    assert not offenders, f"src/repro modules importing numpy: {offenders}"


#: Imports the CLI and runs a 2-worker batched two-tier farm with every
#: numpy import failing, in the parent and in its forked workers alike.
NUMPY_FREE_RUN = textwrap.dedent("""
    import sys

    class NoNumpy:
        def find_spec(self, name, path=None, target=None):
            if name.split(".")[0] == "numpy":
                raise ImportError(f"the product imported {name}")
            return None

    sys.meta_path.insert(0, NoNumpy())

    import repro.manager.cli
    from repro.dist import plan_partitions, run_distributed
    from repro.manager.mapper import HostConfig, map_topology
    from repro.manager.runfarm import RunFarmConfig, elaborate
    from repro.manager.topology import two_tier
    from repro.swmodel.apps.ping import make_ping_client

    root = two_tier(2, 2)
    running = elaborate(
        root, RunFarmConfig(link_latency_cycles=640, engine="batched")
    )
    blades = running.blades
    blades[0].spawn("ping", make_ping_client(
        blades[max(blades)].mac, count=2, interval_cycles=1000))
    plan = plan_partitions(
        running, map_topology(root, HostConfig(fpgas_per_instance=1)), 2
    )
    result = run_distributed(running.simulation, plan, 40_000)
    assert result.num_workers == 2
    assert sum(w.valid_tokens_moved for w in result.workers) > 0
    assert "numpy" not in sys.modules
""")


def test_cli_and_distributed_run_never_import_numpy():
    done = subprocess.run(
        [sys.executable, "-c", NUMPY_FREE_RUN],
        cwd=REPO, env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
