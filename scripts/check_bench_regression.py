#!/usr/bin/env python
"""Gate CI on benchmark speedup ratios staying within tolerance.

Usage: python scripts/check_bench_regression.py BASELINE CURRENT
                                                [--tolerance 0.20]
       python scripts/check_bench_regression.py --self-test BASELINE
       python scripts/check_bench_regression.py --parity CURRENT

Compares a freshly measured benchmark document (``CURRENT``, written by
``bench_core.py`` or ``bench_dist.py``) against the committed baseline
of the same schema, and exits non-zero if any speedup ratio regressed
below ``baseline * (1 - tolerance)``.

Only *host-independent ratios* are compared — never absolute MHz, which
varies with the CI machine:

* ``repro.bench.core/v1`` — ``speedup.batched_over_scalar`` (batched
  engine over the scalar oracle on the same host);
* ``repro.bench.core/v2`` — ``speedup.batched_over_scalar`` plus
  ``speedup.columnar_over_scalar`` (the columnar switch step over the
  scalar switch oracle on the incast microbenchmark), both under the
  usual relative band *and* under absolute floors
  (``BATCHED_OVER_SCALAR_FLOOR``, relaxed on ``--quick`` runs whose
  short Figure-8 window leaves less idle time to fast-forward, and
  ``COLUMNAR_OVER_SCALAR_FLOOR``, never relaxed — the incast section
  runs at full size even in quick mode).  The document's
  ``parity.matrix`` (scalar-vs-batched fingerprint equality across
  topologies x quanta) must also be present and all-true: a baseline
  refresh can never ratify an engine that diverged from the oracle.
* ``repro.bench.dist/v5`` — no baseline-relative ratio: measured dist
  speedups are never compared, because a shared-core container
  measures transport overhead, not scaling.  Two *absolute* gates
  instead, so no baseline refresh can ratify a regression:

  - the round-phase profiler's measured overhead
    (``profiler.overhead_ratio``: profiled-over-unprofiled round time
    from the alternate-round probe, where recorded and minimally-timed
    rounds interleave within one run so host drift cancels) must stay
    below ``PROFILER_OVERHEAD_CEILING``.  Quick runs get a relaxed
    ceiling: at a few hundred rounds the probe's two populations are
    small enough that the median ratio wobbles by ~10%, an order of
    magnitude above the profiler's real cost;
  - the **parity gate**: the distributed engine must beat the
    *uninstrumented batched serial engine* on the same topology at
    every measured worker count >= ``PARITY_MIN_WORKERS``.  The gate is
    host-core-aware because the claim is physical: on a container that
    pins every worker to one core, wall clock measures time-slicing,
    not the simulator, so the **critical-path ratio**
    (``speedup.parity.critical_path``: cycles over the maximum worker
    CPU seconds, against the serial baseline) is gated everywhere —
    strict floor 1.0 on full-scale runs, relaxed on --quick runs whose
    handful of exchanges amortize fork cost poorly — and the
    **wall-clock ratio** (``speedup.parity.wall``) is additionally
    gated on full-scale runs when ``host_cpu_count`` >= workers + 2 (a
    core per worker plus headroom for the parent and supervisor).

Ratios *above* ``baseline * (1 + tolerance)`` print a warning asking
for a baseline refresh but do not fail the build.

``--parity`` runs ONLY the parity gate against a single freshly
measured document (no baseline needed — the bar is serial, not
history); CI's dist-parity job uses it on every push.

``--self-test`` proves the gate actually gates: it loads BASELINE,
checks that an identical copy passes, and injects a regression into
every gate that applies to the schema — a core copy degraded just
below the tolerance band and below each floor; a dist copy whose
profiler ratio breaks the ceiling and whose parity ratios sink below
the floors — exiting non-zero unless each is flagged.  CI runs this so
a silently-vacuous checker cannot go green.  Stdlib only.
"""

from __future__ import annotations

import argparse
import copy
import json
import sys

DEFAULT_TOLERANCE = 0.20

KNOWN_SCHEMAS = (
    "repro.bench.core/v1",
    "repro.bench.core/v2",
    "repro.bench.dist/v5",
)

#: Absolute floors on the core benchmark's ratios (core/v2): the
#: batched engine must beat the scalar oracle on the Figure-8 run by at
#: least this factor, or idle fast-forward / token batching has
#: regressed to the point the tentpole claim no longer holds.
BATCHED_OVER_SCALAR_FLOOR = 5.0
#: The floor applied to ``--quick`` core runs: a 400k-cycle Figure-8
#: window is mostly *traffic* (the pings finish around 160k cycles), so
#: there is far less quiet tail for the batched engine to fast-forward
#: through; quick mode only asserts batching still wins clearly, and
#: the strict floor is enforced by the full-length run.
BATCHED_OVER_SCALAR_QUICK_FLOOR = 2.0
#: The columnar switch step (the per-packet spec with rows at both
#: ends) must beat the per-flit scalar switch oracle on the
#: switch-heavy incast microbenchmark by at least this factor.  Never
#: relaxed: the incast section runs at full size even under --quick.
COLUMNAR_OVER_SCALAR_FLOOR = 8.0

#: Absolute ceiling on the profiled-over-unprofiled round-time ratio.
#: The recorder's cost is a fixed handful of microseconds per round;
#: the dist bench runs 1600-cycle rounds (a quarter of the old 6400),
#: so that fixed cost is mechanically a larger *share* of a much
#: shorter round (~7-11% measured).  The ceiling holds the profiler to
#: that absolute per-round cost: a profiler that actually got slow
#: (the self-test injects a per-round sleep) blows well past it.
PROFILER_OVERHEAD_CEILING = 1.2
#: The ceiling applied to ``--quick`` runs: a few-hundred-round probe
#: has median noise of the same order as the strict margin, so quick
#: mode only asserts the profiler is not grossly slow; the strict
#: ceiling is enforced on full-length runs.
PROFILER_OVERHEAD_QUICK_CEILING = 1.35
PROFILER_METRIC_PREFIX = "profiler.overhead_ratio"

#: The parity gate: distributed-over-serial ratios below these floors
#: mean the distributed engine stopped beating the batched serial
#: engine, at every measured worker count >= PARITY_MIN_WORKERS.
#: Ratios nest under the one worker channel's name.
PARITY_MIN_WORKERS = 4
PARITY_TRANSPORT = "shm"
PARITY_CRITICAL_PATH_FLOOR = 1.0
#: Quick runs fork the same workers for a handful of exchanges, so
#: fixed per-run cost is poorly amortized; quick mode asserts the
#: critical path stays within striking distance of serial and leaves
#: the strict "beats serial" floor to full-scale runs.
PARITY_CRITICAL_PATH_QUICK_FLOOR = 0.85
PARITY_WALL_FLOOR = 1.0
#: Cores beyond one-per-worker required before the wall-clock ratio is
#: gated: the parent process and supervisor need somewhere to run.
PARITY_WALL_CPU_HEADROOM = 2


def fail(message):
    print(f"check_bench_regression: FAIL: {message}", file=sys.stderr)
    raise SystemExit(1)


def load(path):
    try:
        with open(path) as fh:
            document = json.load(fh)
    except (OSError, ValueError) as exc:
        fail(f"cannot read {path}: {exc}")
    if document.get("schema") not in KNOWN_SCHEMAS:
        fail(
            f"{path}: unknown schema {document.get('schema')!r}; "
            f"expected one of {KNOWN_SCHEMAS}"
        )
    return document


def extract_ratios(document):
    """Host-independent speedup ratios keyed by a stable metric name."""
    schema = document["schema"]
    speedup = document.get("speedup", {})
    if schema == "repro.bench.core/v1":
        ratio = speedup.get("batched_over_scalar")
        if not isinstance(ratio, (int, float)):
            return {}
        return {"speedup.batched_over_scalar": float(ratio)}
    if schema == "repro.bench.core/v2":
        return {
            f"speedup.{key}": float(speedup[key])
            for key in ("batched_over_scalar", "columnar_over_scalar")
            if isinstance(speedup.get(key), (int, float))
        }
    # repro.bench.dist/v5: only the profiled-over-unprofiled round time
    # per channel, a same-host pair, so it travels between machines.
    profiler = document.get("profiler", {}).get("overhead_ratio", {})
    return {
        f"{PROFILER_METRIC_PREFIX}[{transport}]": float(ratio)
        for transport, ratio in sorted(profiler.items())
        if isinstance(ratio, (int, float))
    }


def profiler_ceiling_for(current, quick_flag):
    """The absolute profiler-overhead ceiling that applies to ``current``."""
    if quick_flag or current.get("quick"):
        return PROFILER_OVERHEAD_QUICK_CEILING
    return PROFILER_OVERHEAD_CEILING


def check_core(document, quick=False):
    """Absolute gates for a core/v2 document.

    Returns a list of failure messages (empty when the document passes
    or predates the v2 fields).  Two parts: the speedup floors (the
    columnar floor never relaxes; the batched floor relaxes on quick
    runs, whose short Figure-8 window has little idle tail to
    fast-forward) and the parity matrix, which must exist and be
    all-true — fingerprint equality with the scalar oracle is the
    correctness claim the speedups ride on.
    """
    if document.get("schema") != "repro.bench.core/v2":
        return []
    quick = bool(quick or document.get("quick"))
    ratios = extract_ratios(document)
    batched_floor = (
        BATCHED_OVER_SCALAR_QUICK_FLOOR if quick
        else BATCHED_OVER_SCALAR_FLOOR
    )
    floors = {
        "speedup.batched_over_scalar": (
            batched_floor, "quick " if quick else ""
        ),
        "speedup.columnar_over_scalar": (COLUMNAR_OVER_SCALAR_FLOOR, ""),
    }
    failures = []
    for metric, (floor, label) in sorted(floors.items()):
        ratio = ratios.get(metric)
        if ratio is None:
            failures.append(
                f"{metric}: missing from a core/v2 document"
            )
        elif ratio < floor:
            failures.append(
                f"{metric}: {ratio:.3f} is below the absolute "
                f"{label}floor {floor} — the engine no longer beats "
                "its scalar oracle by the required margin"
            )
        else:
            print(
                f"check_bench_regression: OK: {metric}: {ratio:.3f} "
                f"clears the absolute {label}floor {floor}"
            )
    matrix = document.get("parity", {}).get("matrix", {})
    if not matrix:
        failures.append(
            "parity.matrix is missing or empty — the scalar-vs-batched "
            "equivalence matrix has nothing to gate; regenerate "
            "BENCH_core.json with bench_core.py"
        )
    else:
        diverged = sorted(
            label for label, equal in matrix.items() if equal is not True
        )
        if diverged:
            failures.append(
                f"parity.matrix: {diverged} diverged — the batched "
                "engine no longer matches the scalar oracle "
                "bit-for-bit on those configurations"
            )
        else:
            print(
                f"check_bench_regression: OK: parity.matrix: all "
                f"{len(matrix)} scalar-vs-batched configurations match"
            )
    return failures


def check_parity(document, quick=False):
    """Absolute dist-beats-serial gate for a dist document.

    Returns a list of failure messages (empty when the document passes
    or predates the parity fields).  Host-core-aware: the critical-path
    ratio is gated on every host, the wall-clock ratio only where the
    host has a core per worker plus headroom (and never on quick runs,
    whose wall clock is fork-dominated).
    """
    if document.get("schema") != "repro.bench.dist/v5":
        return []
    quick = bool(quick or document.get("quick"))
    parity = document.get("speedup", {}).get("parity", {})
    critical = parity.get("critical_path", {}).get(PARITY_TRANSPORT, {})
    wall = parity.get("wall", {}).get(PARITY_TRANSPORT, {})
    host_cpus = document.get("host_cpu_count") or 0
    failures = []
    gated = {
        workers: ratio
        for workers, ratio in critical.items()
        if isinstance(ratio, (int, float))
        and int(workers) >= PARITY_MIN_WORKERS
    }
    if not gated:
        return [
            f"no {PARITY_TRANSPORT} critical-path parity ratios at "
            f">= {PARITY_MIN_WORKERS} workers — the parity gate has "
            "nothing to gate"
        ]
    floor = (
        PARITY_CRITICAL_PATH_QUICK_FLOOR if quick
        else PARITY_CRITICAL_PATH_FLOOR
    )
    label = "quick " if quick else ""
    for workers, ratio in sorted(gated.items(), key=lambda kv: int(kv[0])):
        metric = (
            f"speedup.parity.critical_path[{PARITY_TRANSPORT}][{workers}]"
        )
        if ratio < floor:
            failures.append(
                f"{metric}: {ratio:.3f} is below the absolute "
                f"{label}floor {floor} — the distributed engine no "
                "longer beats the batched serial engine on the "
                "measured critical path"
            )
        else:
            print(
                f"check_bench_regression: OK: {metric}: {ratio:.3f} "
                f"clears the absolute {label}floor {floor}"
            )
    for workers, ratio in sorted(wall.items(), key=lambda kv: int(kv[0])):
        if not isinstance(ratio, (int, float)):
            continue
        if int(workers) < PARITY_MIN_WORKERS:
            continue
        metric = f"speedup.parity.wall[{PARITY_TRANSPORT}][{workers}]"
        needed = int(workers) + PARITY_WALL_CPU_HEADROOM
        if quick or host_cpus < needed:
            why = (
                "quick run" if quick
                else f"host has {host_cpus} cores, wall parity "
                     f"needs {needed}"
            )
            print(
                f"check_bench_regression: info: {metric}: {ratio:.3f} "
                f"not gated ({why})"
            )
            continue
        if ratio < PARITY_WALL_FLOOR:
            failures.append(
                f"{metric}: {ratio:.3f} is below the absolute floor "
                f"{PARITY_WALL_FLOOR} on a host with {host_cpus} cores "
                "— the distributed engine no longer beats the batched "
                "serial engine on the wall clock"
            )
        else:
            print(
                f"check_bench_regression: OK: {metric}: {ratio:.3f} "
                f"clears the absolute floor {PARITY_WALL_FLOOR} "
                f"({host_cpus}-core host)"
            )
    return failures


def compare(baseline, current, tolerance, quick=False):
    """Return (failures, warnings) message lists for a document pair."""
    if baseline["schema"] != current["schema"]:
        return (
            [
                f"schema mismatch: baseline {baseline['schema']!r} vs "
                f"current {current['schema']!r}"
            ],
            [],
        )
    base_ratios = extract_ratios(baseline)
    cur_ratios = extract_ratios(current)
    if not base_ratios:
        return (["baseline contains no comparable speedup ratios"], [])
    shared = sorted(set(base_ratios) & set(cur_ratios))
    if not shared:
        return (
            [
                "no shared metrics: baseline has "
                f"{sorted(base_ratios)}, current has {sorted(cur_ratios)}"
            ],
            [],
        )
    failures, warnings = [], []
    for metric in shared:
        if metric.startswith(PROFILER_METRIC_PREFIX) or \
                metric == "speedup.columnar_over_scalar":
            # The measured profiler ratio shifts with host load and run
            # length (CI's --quick runs are shorter than the committed
            # baseline), so it skips the baseline-relative band; the
            # absolute ceiling below is its gate.
            # The columnar incast ratio is the same kind of animal: a
            # milliseconds-scale wall-clock pair whose magnitude swings
            # ~40% with host load, gated on its absolute floor instead.
            continue
        base, cur = base_ratios[metric], cur_ratios[metric]
        floor = base * (1.0 - tolerance)
        ceiling = base * (1.0 + tolerance)
        if cur < floor:
            failures.append(
                f"{metric}: {cur:.3f} is below {floor:.3f} "
                f"(baseline {base:.3f} - {tolerance:.0%})"
            )
        elif cur > ceiling:
            warnings.append(
                f"{metric}: {cur:.3f} beats baseline {base:.3f} by more "
                f"than {tolerance:.0%} — consider refreshing the baseline"
            )
        else:
            print(
                f"check_bench_regression: OK: {metric}: {cur:.3f} within "
                f"{tolerance:.0%} of baseline {base:.3f}"
            )
    # Every profiler overhead ratio has an absolute ceiling: the
    # recorder's per-round cost is bounded, and a baseline refresh
    # cannot ratify a heavier profiler.  Quick runs get the relaxed
    # ceiling (probe medians over a few hundred rounds are noisy);
    # full runs get the strict one.
    ceiling = profiler_ceiling_for(current, quick)
    ceiling_label = (
        "quick " if ceiling == PROFILER_OVERHEAD_QUICK_CEILING else ""
    )
    for metric in sorted(cur_ratios):
        if not metric.startswith(PROFILER_METRIC_PREFIX):
            continue
        ratio = cur_ratios[metric]
        if ratio > ceiling:
            failures.append(
                f"{metric}: {ratio:.3f} exceeds the absolute "
                f"{ceiling_label}ceiling {ceiling} — the profiler "
                "costs too much round time"
            )
        else:
            print(
                f"check_bench_regression: OK: {metric}: {ratio:.3f} "
                f"under the absolute {ceiling_label}ceiling {ceiling}"
            )
    # The parity gate — the distributed engine must keep beating
    # the batched serial engine (absolute, like the floors above: a
    # baseline refresh cannot ratify losing to serial).
    failures.extend(check_parity(current, quick))
    # core/v2: the speedup floors and the scalar-vs-batched parity
    # matrix (absolute for the same reason).
    failures.extend(check_core(current, quick))
    return failures, warnings


def scale_ratios(document, factor):
    """A copy of a core ``document`` with every comparable ratio scaled."""
    scaled = copy.deepcopy(document)
    speedup = scaled.setdefault("speedup", {})
    for key in ("batched_over_scalar", "columnar_over_scalar"):
        if key in speedup:
            speedup[key] = speedup[key] * factor
    return scaled


def self_test_core(baseline, tolerance):
    """The core/v2 absolute gates must trip on injected regressions."""
    # 1. Either ratio below its strict floor: flagged even when baseline
    # and current agree (no refresh can ratify a sunk ratio).
    for key, floor in (
        ("batched_over_scalar", BATCHED_OVER_SCALAR_FLOOR),
        ("columnar_over_scalar", COLUMNAR_OVER_SCALAR_FLOOR),
    ):
        sunk = copy.deepcopy(baseline)
        sunk["speedup"][key] = floor - 0.5
        failures, _ = compare(sunk, copy.deepcopy(sunk), tolerance)
        if not failures:
            fail(
                f"self-test: speedup.{key} below the absolute floor "
                f"{floor} was NOT flagged when baseline and current agree"
            )
    # 2. Quick mode relaxes the batched floor but must not remove it.
    eased = copy.deepcopy(baseline)
    eased["speedup"]["batched_over_scalar"] = (
        BATCHED_OVER_SCALAR_QUICK_FLOOR + BATCHED_OVER_SCALAR_FLOOR
    ) / 2
    eased["quick"] = True
    failures, _ = compare(eased, copy.deepcopy(eased), tolerance)
    if failures:
        fail(
            "self-test: a quick-run batched ratio above the quick floor "
            f"{BATCHED_OVER_SCALAR_QUICK_FLOOR} was flagged: {failures}"
        )
    sunk = copy.deepcopy(eased)
    sunk["speedup"]["batched_over_scalar"] = (
        BATCHED_OVER_SCALAR_QUICK_FLOOR - 0.5
    )
    failures, _ = compare(sunk, copy.deepcopy(sunk), tolerance)
    if not failures:
        fail(
            "self-test: quick-run batched ratio below the quick floor "
            f"{BATCHED_OVER_SCALAR_QUICK_FLOOR} was NOT flagged — "
            "quick runs are ungated"
        )
    # 3. The columnar floor does NOT relax on quick runs (the incast
    # section runs at full size either way).
    sunk = copy.deepcopy(baseline)
    sunk["quick"] = True
    sunk["speedup"]["columnar_over_scalar"] = (
        COLUMNAR_OVER_SCALAR_FLOOR - 0.5
    )
    failures, _ = compare(sunk, copy.deepcopy(sunk), tolerance)
    if not failures:
        fail(
            "self-test: quick-run columnar ratio below the absolute "
            f"floor {COLUMNAR_OVER_SCALAR_FLOOR} was NOT flagged — "
            "the columnar floor must not relax"
        )
    # 4. The parity matrix: a diverged entry and a missing matrix must
    # both trip the gate, baseline agreement notwithstanding.
    matrix = baseline.get("parity", {}).get("matrix", {})
    if not matrix:
        fail(
            "self-test: baseline carries no parity.matrix — regenerate "
            "BENCH_core.json with bench_core.py"
        )
    diverged = copy.deepcopy(baseline)
    diverged["parity"]["matrix"][sorted(matrix)[0]] = False
    failures, _ = compare(diverged, copy.deepcopy(diverged), tolerance)
    if not failures:
        fail(
            "self-test: a diverged parity.matrix entry was NOT flagged"
        )
    stripped = copy.deepcopy(baseline)
    stripped["parity"]["matrix"] = {}
    failures, _ = compare(stripped, copy.deepcopy(stripped), tolerance)
    if not failures:
        fail("self-test: an empty parity.matrix was NOT flagged")
    print(
        "check_bench_regression: core self-test OK (sunk ratios "
        "flagged, quick floor relaxed but present, columnar floor "
        "unrelaxed, parity divergence and absence flagged)"
    )


def self_test_parity(baseline, tolerance):
    """The parity gate must trip on injected dist-loses-to-serial."""
    parity = baseline.get("speedup", {}).get("parity", {})
    critical = parity.get("critical_path", {}).get(PARITY_TRANSPORT, {})
    gated = [
        workers for workers in critical
        if int(workers) >= PARITY_MIN_WORKERS
    ]
    if not gated:
        fail(
            "self-test: baseline carries no shm critical-path parity "
            f"ratios at >= {PARITY_MIN_WORKERS} workers — regenerate "
            "BENCH_dist.json with bench_dist.py"
        )

    def sink_critical(document, value):
        sunk = copy.deepcopy(document)
        ratios = sunk["speedup"]["parity"]["critical_path"][PARITY_TRANSPORT]
        for workers in gated:
            ratios[workers] = value
        return sunk

    # 1. Critical path below the strict floor: flagged even when
    # baseline and current agree (no refresh can ratify losing).
    sunk = sink_critical(baseline, PARITY_CRITICAL_PATH_FLOOR - 0.2)
    failures, _ = compare(sunk, copy.deepcopy(sunk), tolerance)
    if not failures:
        fail(
            "self-test: critical-path parity below the absolute floor "
            f"{PARITY_CRITICAL_PATH_FLOOR} was NOT flagged"
        )
    # 2. Quick mode relaxes the floor but must not remove it.
    mid = (PARITY_CRITICAL_PATH_QUICK_FLOOR + PARITY_CRITICAL_PATH_FLOOR) / 2
    eased = sink_critical(baseline, mid)
    eased["quick"] = True
    failures, _ = compare(eased, copy.deepcopy(eased), tolerance)
    if failures:
        fail(
            "self-test: a quick-run parity ratio above the quick floor "
            f"{PARITY_CRITICAL_PATH_QUICK_FLOOR} was flagged: {failures}"
        )
    sunk = sink_critical(baseline, PARITY_CRITICAL_PATH_QUICK_FLOOR - 0.1)
    sunk["quick"] = True
    failures, _ = compare(sunk, copy.deepcopy(sunk), tolerance)
    if not failures:
        fail(
            "self-test: quick-run parity below the quick floor "
            f"{PARITY_CRITICAL_PATH_QUICK_FLOOR} was NOT flagged — "
            "quick runs are ungated"
        )
    # 3. Wall-clock gating is host-core-aware: the same sub-1.0 wall
    # ratio must be flagged on a host with a core per worker plus
    # headroom and ignored on a core-starved host.
    wall = parity.get("wall", {}).get(PARITY_TRANSPORT, {})
    wall_gated = [w for w in wall if int(w) >= PARITY_MIN_WORKERS]
    if wall_gated:
        workers = max(int(w) for w in wall_gated)
        slow = copy.deepcopy(baseline)
        slow["speedup"]["parity"]["wall"][PARITY_TRANSPORT] = {
            str(workers): PARITY_WALL_FLOOR - 0.2
        }
        slow["host_cpu_count"] = workers + PARITY_WALL_CPU_HEADROOM
        if check_parity(slow) == []:
            fail(
                "self-test: wall parity below the floor on a host with "
                "a core per worker was NOT flagged"
            )
        slow["host_cpu_count"] = 1
        failures = [
            message for message in check_parity(slow) if ".wall[" in message
        ]
        if failures:
            fail(
                "self-test: wall parity was gated on a core-starved "
                f"host: {failures}"
            )
    print(
        "check_bench_regression: parity self-test OK (sunk ratios "
        "flagged, quick floor relaxed but present, wall gate "
        "host-core-aware)"
    )


def self_test_profiler(baseline, tolerance):
    """The profiler-overhead ceiling must trip on an injected slow
    profiler (a ratio above even the quick ceiling) in BOTH documents,
    and relax — but not vanish — on quick runs."""
    bloated = copy.deepcopy(baseline)
    overhead = bloated.get("profiler", {}).get("overhead_ratio", {})
    if not overhead:
        fail(
            "self-test: baseline carries no profiler.overhead_ratio — "
            "regenerate BENCH_dist.json with bench_dist.py"
        )
    for transport in overhead:
        overhead[transport] = PROFILER_OVERHEAD_QUICK_CEILING + 0.15
    for quick in (False, True):
        bloated["quick"] = quick
        failures, _ = compare(bloated, copy.deepcopy(bloated), tolerance)
        if not failures:
            fail(
                "self-test: profiler overhead above the "
                f"{'quick ' if quick else ''}ceiling was NOT flagged "
                "when baseline and current agree"
            )
    for transport in overhead:
        overhead[transport] = (
            PROFILER_OVERHEAD_CEILING + PROFILER_OVERHEAD_QUICK_CEILING
        ) / 2
    failures, _ = compare(bloated, copy.deepcopy(bloated), tolerance)
    if failures:
        fail(
            "self-test: a quick-run profiler ratio under the quick "
            f"ceiling {PROFILER_OVERHEAD_QUICK_CEILING} was flagged: "
            f"{failures}"
        )


def self_test(baseline, tolerance):
    """Identical documents pass; every applicable gate trips."""
    failures, warnings = compare(
        baseline, copy.deepcopy(baseline), tolerance
    )
    if failures or warnings:
        fail(f"self-test: identical ratios flagged: {failures + warnings}")
    if baseline["schema"] == "repro.bench.dist/v5":
        self_test_profiler(baseline, tolerance)
        self_test_parity(baseline, tolerance)
        print(
            "check_bench_regression: self-test OK (identical document "
            "passes; profiler ceiling and parity floors trip)"
        )
        return 0
    factor = 1.0 - tolerance - 0.1
    failures, _ = compare(baseline, scale_ratios(baseline, factor), tolerance)
    if not failures:
        fail(
            f"self-test: synthetic regression (ratios scaled by "
            f"{factor:.2f}) was NOT flagged — the gate is vacuous"
        )
    if baseline["schema"] == "repro.bench.core/v2":
        self_test_core(baseline, tolerance)
    print(
        "check_bench_regression: self-test OK "
        f"(synthetic {factor:.2f}x slowdown flagged, identical ratios pass)"
    )
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="committed BENCH_*.json")
    parser.add_argument("current", nargs="?",
                        help="freshly measured BENCH_*.json")
    parser.add_argument("--tolerance", type=float,
                        default=DEFAULT_TOLERANCE,
                        help="allowed fractional drop (default 0.20)")
    parser.add_argument("--self-test", action="store_true",
                        help="verify the gate flags a synthetic slowdown")
    parser.add_argument("--parity", action="store_true",
                        help="run only the dist-beats-serial parity "
                             "gate on a single document (pass it as "
                             "BASELINE; no comparison document needed)")
    parser.add_argument("--quick", action="store_true",
                        help="hold the measured absolute floors/ceilings "
                             "to their relaxed quick-run values (also "
                             "inferred from the document's own 'quick' "
                             "marker)")
    args = parser.parse_args(argv)
    if not 0.0 < args.tolerance < 1.0:
        fail(f"tolerance must be in (0, 1), got {args.tolerance}")

    baseline = load(args.baseline)
    if args.self_test:
        return self_test(baseline, args.tolerance)
    if args.parity:
        if baseline.get("schema") != "repro.bench.dist/v5":
            fail(
                "--parity needs a repro.bench.dist/v5 document, got "
                f"{baseline.get('schema')!r}"
            )
        failures = check_parity(baseline, args.quick)
        for failure in failures:
            print(f"check_bench_regression: FAIL: {failure}",
                  file=sys.stderr)
        if not failures:
            print("check_bench_regression: parity OK")
        return 1 if failures else 0
    if args.current is None:
        parser.error("CURRENT is required unless --self-test is given")
    current = load(args.current)

    failures, warnings = compare(
        baseline, current, args.tolerance, quick=args.quick
    )
    for warning in warnings:
        print(f"check_bench_regression: WARN: {warning}")
    if failures:
        for failure in failures:
            print(f"check_bench_regression: FAIL: {failure}",
                  file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
