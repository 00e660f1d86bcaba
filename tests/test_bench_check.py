"""Benchmark regression gate (scripts/check_bench_regression.py).

The checker is the CI tripwire for the batched engine's speedup claim,
so it gets its own unit coverage: a gate that silently stops gating is
worse than no gate.
"""

import importlib.util
import json
import os

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "check_bench_regression",
    os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "scripts",
        "check_bench_regression.py",
    ),
)
checker = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(checker)


def core_doc(speedup=3.2):
    return {
        "schema": "repro.bench.core/v1",
        "speedup": {"batched_over_scalar": speedup},
    }

def dist_doc(
    critical_4=1.3,
    critical_8=1.2,
    wall_4=0.4,
    host_cpus=1,
    quick=False,
    profiler=1.07,
):
    return {
        "schema": "repro.bench.dist/v5",
        "quick": quick,
        "host_cpu_count": host_cpus,
        "speedup": {
            "measured": {"shm": {"2": 0.4}},
            "parity": {
                "critical_path": {
                    "shm": {"2": 1.1, "4": critical_4, "8": critical_8}
                },
                "wall": {"shm": {"4": wall_4}},
            },
        },
        "profiler": {
            "overhead_ratio": {"shm": profiler},
            "method": "alternate-round probe",
            "workers": 2,
        },
    }


def write(tmp_path, name, document):
    path = tmp_path / name
    path.write_text(json.dumps(document))
    return str(path)


class TestExtractRatios:
    def test_core_schema_yields_single_ratio(self):
        assert checker.extract_ratios(core_doc(3.0)) == {
            "speedup.batched_over_scalar": 3.0
        }

    def test_measured_dist_ratios_are_never_compared(self):
        """Measured speedups on a shared-core container are noise."""
        assert not any(
            "measured" in name
            for name in checker.extract_ratios(dist_doc())
        )

    def test_non_numeric_ratio_ignored(self):
        assert checker.extract_ratios(core_doc("fast")) == {}

    def test_dist_schema_extracts_only_profiler_ratio(self):
        assert checker.extract_ratios(dist_doc(profiler=1.01)) == {
            "profiler.overhead_ratio[shm]": 1.01
        }


class TestCompare:
    def test_regression_below_tolerance_fails(self):
        failures, warnings = checker.compare(
            core_doc(3.0), core_doc(2.0), 0.20
        )
        assert len(failures) == 1
        assert "below" in failures[0]
        assert not warnings

    def test_within_tolerance_passes(self):
        failures, warnings = checker.compare(
            core_doc(3.0), core_doc(2.5), 0.20
        )
        assert not failures
        assert not warnings

    def test_improvement_beyond_tolerance_warns_not_fails(self):
        failures, warnings = checker.compare(
            core_doc(3.0), core_doc(4.0), 0.20
        )
        assert not failures
        assert len(warnings) == 1
        assert "refreshing the baseline" in warnings[0]

    def test_schema_mismatch_fails(self):
        failures, _ = checker.compare(
            core_doc(3.0), dist_doc(), 0.20
        )
        assert failures
        assert "schema mismatch" in failures[0]

    def test_dist_compares_only_shared_worker_counts(self):
        """A --workers 2,4 CI run against a 2,4,8 baseline: only the
        current document's own worker counts are gated."""
        current = dist_doc()
        del current["speedup"]["parity"]["critical_path"]["shm"]["8"]
        failures, warnings = checker.compare(dist_doc(), current, 0.20)
        assert not failures
        assert not warnings

    def test_disjoint_worker_counts_fail(self):
        """A current document with no gated worker count fails."""
        current = dist_doc()
        current["speedup"]["parity"]["critical_path"]["shm"] = {"2": 1.1}
        failures, _ = checker.compare(dist_doc(), current, 0.20)
        assert any("nothing to gate" in f for f in failures)

    def test_empty_baseline_fails(self):
        failures, _ = checker.compare(
            {"schema": "repro.bench.core/v1", "speedup": {}},
            core_doc(3.0),
            0.20,
        )
        assert failures
        assert "no comparable" in failures[0]

    def test_profiler_overhead_over_ceiling_fails(self):
        """The ceiling is absolute: agreeing documents still trip it."""
        slow = dist_doc(profiler=checker.PROFILER_OVERHEAD_CEILING + 0.1)
        failures, _ = checker.compare(slow, slow, 0.20)
        assert any("ceiling" in f for f in failures)

    def test_profiler_overhead_under_ceiling_passes(self):
        healthy = dist_doc()
        failures, warnings = checker.compare(healthy, healthy, 0.20)
        assert not failures
        assert not warnings

    def test_profiler_overhead_exempt_from_relative_band(self):
        """A faster profiler must not trigger the improvement warning."""
        failures, warnings = checker.compare(
            dist_doc(profiler=1.04),
            dist_doc(profiler=0.99),
            0.20,
        )
        assert not failures
        assert not warnings


class TestParityGate:
    def test_healthy_document_passes(self):
        assert checker.check_parity(dist_doc()) == []

    def test_v3_documents_not_gated(self):
        document = dist_doc(critical_4=0.1, critical_8=0.1)
        document["schema"] = "repro.bench.dist/v3"
        assert checker.check_parity(document) == []

    def test_critical_path_below_floor_fails(self):
        sunk = dist_doc(
            critical_4=checker.PARITY_CRITICAL_PATH_FLOOR - 0.2
        )
        failures = checker.check_parity(sunk)
        assert any("critical_path[shm][4]" in f for f in failures)

    def test_sub_min_worker_counts_not_gated(self):
        """The 2-worker ratio is informational: parity is claimed at
        PARITY_MIN_WORKERS and up."""
        document = dist_doc()
        document["speedup"]["parity"]["critical_path"]["shm"]["2"] = 0.5
        assert checker.check_parity(document) == []

    def test_quick_floor_relaxed_but_present(self):
        mid = (
            checker.PARITY_CRITICAL_PATH_QUICK_FLOOR
            + checker.PARITY_CRITICAL_PATH_FLOOR
        ) / 2
        assert checker.check_parity(dist_doc(critical_4=mid, quick=True)) == []
        sunk = dist_doc(
            critical_4=checker.PARITY_CRITICAL_PATH_QUICK_FLOOR - 0.1,
            quick=True,
        )
        assert checker.check_parity(sunk)

    def test_missing_parity_ratios_fail(self):
        document = dist_doc()
        document["speedup"]["parity"]["critical_path"]["shm"] = {"2": 1.1}
        failures = checker.check_parity(document)
        assert any("nothing to gate" in f for f in failures)

    def test_wall_gated_only_with_core_headroom(self):
        sunk_wall = checker.PARITY_WALL_FLOOR - 0.2
        starved = dist_doc(wall_4=sunk_wall, host_cpus=1)
        assert not any(
            ".wall[" in f for f in checker.check_parity(starved)
        )
        roomy = dist_doc(
            wall_4=sunk_wall,
            host_cpus=4 + checker.PARITY_WALL_CPU_HEADROOM,
        )
        assert any(".wall[" in f for f in checker.check_parity(roomy))

    def test_wall_never_gated_on_quick_runs(self):
        quick = dist_doc(
            wall_4=checker.PARITY_WALL_FLOOR - 0.2,
            host_cpus=16,
            quick=True,
        )
        assert not any(".wall[" in f for f in checker.check_parity(quick))

    def test_compare_runs_the_parity_gate(self):
        sunk = dist_doc(
            critical_4=checker.PARITY_CRITICAL_PATH_FLOOR - 0.2,
            critical_8=checker.PARITY_CRITICAL_PATH_FLOOR - 0.2,
        )
        failures, _ = checker.compare(sunk, sunk, 0.20)
        assert any("critical_path" in f for f in failures)


class TestMain:
    def test_regression_exits_nonzero(self, tmp_path):
        code = checker.main(
            [
                write(tmp_path, "base.json", core_doc(3.0)),
                write(tmp_path, "cur.json", core_doc(1.5)),
            ]
        )
        assert code == 1

    def test_pass_exits_zero(self, tmp_path):
        code = checker.main(
            [
                write(tmp_path, "base.json", core_doc(3.0)),
                write(tmp_path, "cur.json", core_doc(3.1)),
            ]
        )
        assert code == 0

    def test_self_test_passes_on_real_baseline(self, tmp_path):
        code = checker.main(
            ["--self-test", write(tmp_path, "base.json", core_doc(3.0))]
        )
        assert code == 0

    def test_self_test_covers_dist_schema(self, tmp_path):
        code = checker.main(
            [
                "--self-test",
                write(tmp_path, "base.json", dist_doc()),
            ]
        )
        assert code == 0

    @pytest.mark.parametrize("gate, vacuous", [
        ("check_parity", lambda document, quick=False: []),
        ("PROFILER_OVERHEAD_QUICK_CEILING", float("inf")),
    ])
    def test_self_test_fails_when_a_dist_gate_goes_vacuous(
        self, tmp_path, monkeypatch, gate, vacuous
    ):
        monkeypatch.setattr(checker, gate, vacuous)
        with pytest.raises(SystemExit):
            checker.main(
                ["--self-test", write(tmp_path, "base.json", dist_doc())]
            )

    def test_parity_mode_gates_single_document(self, tmp_path):
        good = write(tmp_path, "good.json", dist_doc())
        assert checker.main(["--parity", good]) == 0
        bad = write(
            tmp_path,
            "bad.json",
            dist_doc(critical_4=0.5, critical_8=0.5),
        )
        assert checker.main(["--parity", bad]) == 1

    def test_parity_mode_rejects_pre_v4_documents(self, tmp_path):
        for old in ("repro.bench.dist/v3", "repro.bench.dist/v4"):
            document = dict(dist_doc(), schema=old)
            with pytest.raises(SystemExit):
                checker.main(
                    ["--parity", write(tmp_path, "old.json", document)]
                )

    def test_unknown_schema_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            checker.main(
                [
                    write(tmp_path, "base.json", {"schema": "bogus/v9"}),
                    write(tmp_path, "cur.json", core_doc(3.0)),
                ]
            )

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            checker.main(
                [str(tmp_path / "nope.json"),
                 write(tmp_path, "cur.json", core_doc(3.0))]
            )

    def test_bad_tolerance_rejected(self, tmp_path):
        base = write(tmp_path, "base.json", core_doc(3.0))
        cur = write(tmp_path, "cur.json", core_doc(3.0))
        with pytest.raises(SystemExit):
            checker.main([base, cur, "--tolerance", "1.5"])

    def test_committed_baselines_self_test(self):
        """The real committed baselines must keep the gate non-vacuous."""
        repo = os.path.dirname(
            os.path.dirname(os.path.abspath(__file__))
        )
        for name in ("BENCH_core.json", "BENCH_dist.json"):
            assert checker.main(
                ["--self-test", os.path.join(repo, name)]
            ) == 0
