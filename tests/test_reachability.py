"""Import census: every ``src/repro`` module is reached from a product root.

A module that only ``tests/`` or ``examples/`` import is code no
experiment, benchmark or CLI verb executes.  The census walks ``ast``
imports (module-level, function-local and relative) from the product
roots and fails naming every module it cannot reach, unless that module
is on :data:`ALLOW` with a one-line reason.

The same holds per function and class: each name defined in
``src/repro`` must be used in some product file (``src/``, ``bench/``,
``scripts/``, ``benchmarks/``, ``examples/``) outside its own
definition, or be on :data:`FUNCTION_ALLOW` with a reason.
``scripts/census.py`` is the dynamic counterpart: it runs the roots and
counts the function lines that never execute.

The same walk keeps numpy out of the product: tokens, frames, rings
and profiles are plain lists, ``array`` and ``struct``, and numpy is a
test and ``bench/`` tool only.
"""

import ast
import io
import os
import re
import subprocess
import sys
import textwrap
import tokenize
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


#: function or class name -> one-line reason only tests may use it.
FUNCTION_ALLOW: dict = {
    # Stats properties a metrics snapshot reads reflectively.
    "utilization": "SimulationStats property, read as a metrics source",
    "miss_rate": "CacheStats property, read as a metrics source",
    "ipc": "CoreStats property, read as a metrics source",
    # Oracles and fixtures the spec tests are written against.
    "NullModel": "the minimal Fame1Model the engine and spec tests wire",
    "in_flight": "the latency-holds-l-tokens invariant test_channel reads",
    "to_flits": "per-flit spec of a frame; switch and NIC tests feed it",
    "available": "limiter bucket state the rate-limiter properties read",
    "invalidate_all": "cache reset the repeated-range property tests use",
    "occupancy": "cache fill the capacity property tests check",
    "tx_backlog": "NIC send queue depth the NIC tests observe",
    "rx_buffer_occupancy": "NIC packet buffer fill the drop tests check",
    "history": "heartbeat slot ring the wraparound tests read",
    "phase_name": "heartbeat decoding the supervisor tests check",
    "log_text": "fault log bytes the determinism tests compare",
    # Paper arithmetic pinned by unit tests (section named).
    "link_bandwidth_bps": "§III-A: 64 bits per cycle at 3.2 GHz is 204.8 Gbit/s",
    "bits_per_cycle": "§III-A link width arithmetic, pinned by test_units",
    "gbps": "unit helper for the §III-A bandwidth figures in test_units",
    "microseconds": "unit helper for the §III-A latency figures",
    "nanoseconds": "unit helper for the §III-A latency figures",
    "period_s": "TargetClock arithmetic pinned by test_clock",
    "micros": "TargetClock arithmetic pinned by test_clock",
    "cycles_per_microsecond": "TargetClock arithmetic pinned by test_clock",
    "datacenter_rate": "§V-C 1024-node rate anchor, checked by test_host",
    "dram_channels_used": "§III-A5 supernode DRAM channel claim",
    "idle_latency_cycles": "Table I DRAM latency figure, test_dram",
    "cycles_for_instructions": "Rocket CPI arithmetic, test_rocket",
    "pfa_metadata_per_page_cycles": "§VI PFA metadata ratio, test_pfa",
    "overhead_cycles": "§VI paging overhead definition, test_pfa",
    "booted_cycle": "Fig 8 boot completion lookup, test_uart_boot",
    "latency_percentiles": "Fig 7 nearest-rank percentiles, test_apps",
    "benchmark_by_name": "§VIII SPEC suite lookup, test_spec_suite",
    "rate_fraction": "§III-A2 limiter k/p fraction, test_ratelimit",
    "compare_prediction": "measured-vs-model rate ratio, test_obs_rate",
    # Operator API of the manager's fault handling and build farm.
    "record_success": "CircuitBreaker reset half of its public contract",
    "is_quarantined": "CircuitBreaker query the remap tests check",
    "is_dead": "HeartbeatMonitor query the fault tests check",
    "detection_latency_s": "HeartbeatMonitor worst-case bound, test_faults",
    "agfi_for": "BuildFarm single-config lookup, test_buildfarm",
}

#: Folders whose files are product roots for the function census.
ROOT_FOLDERS = ("src", "bench", "scripts", "benchmarks", "examples")


def definitions(path: Path) -> list:
    """``(name, first line, last line)`` of each def and class."""
    return [
        (node.name, node.lineno, node.end_lineno)
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        )
        and not (node.name.startswith("__") and node.name.endswith("__"))
    ]


def name_uses(path: Path) -> dict:
    """name -> lines where ``path`` uses it: a name token that does not
    follow ``def``/``class``, a name inside an f-string's braces, or a
    string that is exactly the name (a ``getattr`` or a patch by name)."""
    uses: dict = {}
    previous = None
    tokens = tokenize.generate_tokens(io.StringIO(path.read_text()).readline)
    for token in tokens:
        if token.type == tokenize.NAME and previous not in ("def", "class"):
            uses.setdefault(token.string, []).append(token.start[0])
        elif token.type == tokenize.STRING:
            prefix = token.string[:token.string.index(token.string[-1])]
            text = token.string[len(prefix):].strip("\"'")
            names = [text] if text.isidentifier() else []
            if "f" in prefix.lower():
                # Before Python 3.12 an f-string is one STRING token.
                for expression in re.findall(r"\{([^{}]*)\}", text):
                    names += re.findall(r"[A-Za-z_]\w*", expression)
            for name in names:
                uses.setdefault(name, []).append(token.start[0])
        if token.type not in (tokenize.NL, tokenize.COMMENT):
            previous = token.string
    return uses


def function_census(src: Path, root_files: list, allow: dict) -> tuple:
    """``(unused definitions not in allow, allow entries not unused)``.

    A definition is ``file::name``; it counts as used when a root file
    names it anywhere outside the definition's own lines.
    """
    uses = {path: name_uses(path) for path in root_files}
    unused, unused_names = [], set()
    for path in sorted(src.rglob("*.py")):
        for name, first, last in definitions(path):
            if any(
                other != path or not first <= line <= last
                for other, found in uses.items()
                for line in found.get(name, ())
            ):
                continue
            unused_names.add(name)
            if name not in allow:
                unused.append(f"{path.relative_to(src)}::{name}")
    return unused, sorted(set(allow) - unused_names)


def test_every_function_used_from_a_product_root():
    files = [
        path
        for folder in ROOT_FOLDERS
        for path in sorted((REPO / folder).rglob("*.py"))
    ]
    unused, stale = function_census(REPO / "src", files, FUNCTION_ALLOW)
    assert not unused, (
        "defined in src/repro but named only by tests or by itself "
        f"(delete, use, or list in FUNCTION_ALLOW with a reason): {unused}"
    )
    assert not stale, (
        f"FUNCTION_ALLOW lists names that are used or gone: {stale}"
    )


def test_function_census_reports_a_test_only_function(tmp_path):
    src = tmp_path / "src"
    (src / "pkg").mkdir(parents=True)
    (src / "pkg/mod.py").write_text(textwrap.dedent("""
        def used():
            return helper()

        def helper():
            return 1

        def recursive(n):
            return recursive(n - 1) if n else 0

        def only_tested():
            return 2

        class Patched:
            def hooked(self):
                pass
    """))
    main = tmp_path / "main.py"
    main.write_text(textwrap.dedent("""
        from pkg.mod import Patched, used
        used()
        setattr(Patched, "hooked", None)
    """))
    test = tmp_path / "test_mod.py"
    test.write_text("from pkg.mod import only_tested, recursive\n")
    roots = [main, src / "pkg/mod.py"]

    assert function_census(src, roots, {}) == (
        ["pkg/mod.py::recursive", "pkg/mod.py::only_tested"], []
    )
    allow = {"only_tested": "a reference test", "recursive": "a spec"}
    assert function_census(src, roots, allow) == ([], [])
    allow = {"only_tested": "a reference test", "helper": "stale"}
    assert function_census(src, roots, allow) == (
        ["pkg/mod.py::recursive"], ["helper"]
    )


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
