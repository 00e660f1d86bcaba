"""Manager CLI (repro.manager.cli)."""

import io
import json
import os

import pytest

from repro.experiments.common import cycles_to_us
from repro.manager.cli import main, make_parser
from repro.manager.runspec import RunSpec
from repro.serve import JobSpec, run_job_inline
from repro.swmodel.apps.ping import RESULT_KEY as PING_KEY


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def run_cli_err(argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


class TestParser:
    def test_verbs_required(self):
        with pytest.raises(SystemExit):
            make_parser().parse_args([])

    def test_unknown_verb_rejected(self):
        with pytest.raises(SystemExit):
            make_parser().parse_args(["explode"])


class TestLifecycle:
    def test_full_session_ping(self):
        code, text = run_cli(
            [
                "buildafi",
                "launchrunfarm",
                "infrasetup",
                "runworkload",
                "terminaterunfarm",
                "--topology", "single_rack",
                "--servers-per-rack", "4",
                "--duration-ms", "3",
                "--ping-count", "5",
            ]
        )
        assert code == 0
        assert "built QuadCore: agfi-" in text
        assert "f1.16xlarge" in text
        assert "simulation elaborated: 4 nodes" in text
        assert "mean RTT" in text
        assert "run farm terminated" in text

    def test_boot_workload(self):
        code, text = run_cli(
            [
                "buildafi",
                "launchrunfarm",
                "infrasetup",
                "runworkload",
                "--topology", "single_rack",
                "--servers-per-rack", "2",
                "--workload", "boot",
                "--duration-ms", "6",
            ]
        )
        assert code == 0
        assert "ran to" in text

    def test_supernode_flag_changes_mapping(self):
        _, standard = run_cli(
            ["launchrunfarm", "--topology", "two_tier", "--racks", "2",
             "--servers-per-rack", "8"]
        )
        _, supernode = run_cli(
            ["launchrunfarm", "--topology", "two_tier", "--racks", "2",
             "--servers-per-rack", "8", "--supernode"]
        )
        assert "'f1.16xlarge': 2" in standard
        assert "'f1.16xlarge': 1" in supernode

    def test_out_of_order_verbs_exit_nonzero_without_traceback(self):
        code, out, err = run_cli_err(
            ["infrasetup", "--topology", "single_rack"]
        )
        assert code == 1
        assert err.startswith("firesim: error: ")
        assert "launchrunfarm must run before infrasetup" in err
        assert "Traceback" not in err
        assert err.count("\n") == 1  # exactly one line

    def test_invalid_config_exits_nonzero(self):
        code, _, err = run_cli_err(
            ["launchrunfarm", "--topology", "single_rack",
             "--servers-per-rack", "0"]
        )
        assert code == 1
        assert err.startswith("firesim: error: ")

    def test_missing_fault_plan_file_exits_nonzero(self):
        code, _, err = run_cli_err(
            ["launchrunfarm", "--fault-plan", "/nonexistent/plan.json"]
        )
        assert code == 1
        assert "cannot read fault plan" in err


class TestServeFarmFlag:
    """A bad ``--farm`` is one error line, before any server starts."""

    @pytest.mark.parametrize("farm, message", [
        ("bogus=1", "unknown instance type 'bogus'"),
        ("f1.2xlarge=-1", "negative count for f1.2xlarge"),
        ("f1.2xlarge=1,f1.2xlarge=2", "names 'f1.2xlarge' twice"),
        ("f1.2xlarge=two", "expected TYPE=N"),
    ])
    def test_bad_farm_exits_with_one_line(self, farm, message, tmp_path,
                                          monkeypatch):
        from repro.serve.server import JobServer

        def refuse(self):
            raise AssertionError("a server started on a bad --farm")

        monkeypatch.setattr(JobServer, "start", refuse)
        code, out, err = run_cli_err([
            "serve", "--farm", farm,
            "--serve-socket", str(tmp_path / "serve.sock"),
        ])
        assert code == 1
        assert err.startswith("firesim: error: ") and message in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert out == ""


FULL_VERBS = ["buildafi", "launchrunfarm", "infrasetup", "runworkload"]
FULL_OPTS = [
    "--topology", "single_rack", "--servers-per-rack", "2",
    "--duration-ms", "2", "--ping-count", "3",
]
FULL_SESSION = FULL_VERBS + FULL_OPTS


class TestUpFrontValidation:
    """A bad recipe is one error line before any verb does work."""

    @pytest.mark.parametrize("flags", [
        ["--servers-per-rack", "1", "--workload", "ping"],
        ["--duration-ms", "0"],
        ["--checkpoint-interval", "0"],
        ["--topology", "two_tier", "--racks", "0"],
    ])
    def test_bad_recipe_fails_before_the_first_verb(self, flags):
        code, out, err = run_cli_err(FULL_VERBS + flags)
        assert code == 1
        assert err.startswith("firesim: error: ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert out == ""


class TestRecipeParity:
    """One flag set is one recipe: the CLI and a job run the same thing."""

    @pytest.mark.parametrize("flags", [
        ["--servers-per-rack", "2", "--duration-ms", "2", "--ping-count", "3"],
        ["--topology", "two_tier", "--racks", "2", "--servers-per-rack", "2",
         "--workers", "2", "--transport", "shm", "--duration-ms", "2"],
        ["--servers-per-rack", "2", "--workload", "boot",
         "--duration-ms", "1"],
    ])
    def test_cli_and_job_agree(self, flags):
        code, text = run_cli(FULL_VERBS + flags + ["--json"])
        assert code == 0
        summary = json.loads(text)["verbs"]["runworkload"]

        spec = RunSpec.from_args(make_parser().parse_args(FULL_VERBS + flags))
        assert RunSpec.from_dict(spec.to_dict()) == spec
        payload = run_job_inline(
            JobSpec.from_dict({**spec.to_dict(), "name": "p"})
        )
        assert payload["target_ms"] == summary["target_ms"]
        rtts = [
            rtt for results in payload["node_results"].values()
            for rtt in results.get(PING_KEY, [])
        ]
        assert len(rtts) == summary.get("ping", {}).get("samples", 0)
        if rtts:
            assert summary["ping"]["mean_rtt_us"] == cycles_to_us(
                sum(rtts) / len(rtts)
            )


class TestJsonMode:
    def test_json_prints_single_object_keyed_by_verb(self):
        code, text = run_cli(FULL_SESSION + ["--json"])
        assert code == 0
        document = json.loads(text)  # the whole output is one JSON object
        verbs = document["verbs"]
        assert verbs["buildafi"]["builds"][0]["config"] == "QuadCore"
        assert verbs["launchrunfarm"]["instances"] == {"f1.16xlarge": 1}
        assert verbs["infrasetup"] == {
            "nodes": 2, "switches": 1, "engine": "scalar",
        }
        assert verbs["runworkload"]["ping"]["samples"] == 2
        assert verbs["runworkload"]["ping"]["mean_rtt_us"] > 0

    def test_human_format_remains_default(self):
        code, text = run_cli(FULL_SESSION)
        assert code == 0
        with pytest.raises(ValueError):
            json.loads(text)


class TestStatusVerb:
    def test_status_reports_measured_rate_and_shares(self):
        code, text = run_cli(FULL_VERBS + ["status"] + FULL_OPTS)
        assert code == 0
        assert "measured rate:" in text
        assert "% of host time" in text
        assert "predicted rate:" in text
        assert "prediction error:" in text

    def test_status_json_summary(self):
        code, text = run_cli(FULL_VERBS + ["status"] + FULL_OPTS + ["--json"])
        status = json.loads(text)["verbs"]["status"]
        assert status["rate"]["rate_mhz"] > 0
        assert status["rate"]["rounds"] == 1000  # 2 ms / 6400-cycle quantum
        assert status["predicted_rate_mhz"] > 0
        assert sum(status["rate"]["host_time_shares"].values()) == (
            pytest.approx(1.0)
        )


class TestFaultedSession:
    PLAN = {
        "seed": 11,
        "faults": [
            {"kind": "instance-launch", "point": "launchrunfarm"},
            {"kind": "controller-crash", "point": "runworkload",
             "at_cycle": 1_000_000},
        ],
    }

    def _write_plan(self, tmp_path):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(self.PLAN))
        return str(plan_path)

    def test_faulted_session_matches_fault_free(self, tmp_path):
        argv = FULL_VERBS + ["status"] + FULL_OPTS + ["--json"]
        code, clean = run_cli(argv)
        assert code == 0
        chaos_argv = argv + [
            "--fault-plan", self._write_plan(tmp_path),
            "--checkpoint-interval", "0.25",
        ]
        code, faulted = run_cli(chaos_argv)
        assert code == 0
        clean_doc, faulted_doc = json.loads(clean), json.loads(faulted)
        # Recovery is cycle-exact: same target time, same RTT samples.
        assert (faulted_doc["verbs"]["runworkload"]["ping"]
                == clean_doc["verbs"]["runworkload"]["ping"])
        assert (faulted_doc["verbs"]["runworkload"]["target_ms"]
                == clean_doc["verbs"]["runworkload"]["target_ms"])
        resilience = faulted_doc["verbs"]["status"]["resilience"]
        assert resilience["faults_injected"] == 2
        assert resilience["retries"] >= 1
        assert resilience["restores"] == 1
        assert resilience["recoveries"] >= 2
        assert resilience["giveups"] == 0

    def test_status_text_surfaces_recovery_counts(self, tmp_path):
        code, text = run_cli(
            FULL_VERBS + ["status"] + FULL_OPTS + [
                "--fault-plan", self._write_plan(tmp_path),
            ]
        )
        assert code == 0
        assert "resilience: 2 faults injected" in text
        assert "1 checkpoint restores" in text
        assert "inject controller-crash at runworkload" in text

    def test_retry_budget_exhaustion_exits_nonzero(self, tmp_path):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps({
            "seed": 0,
            "faults": [{"kind": "instance-launch",
                        "point": "launchrunfarm", "times": 9}],
        }))
        code, _, err = run_cli_err(
            ["launchrunfarm", "--topology", "single_rack",
             "--fault-plan", str(plan_path), "--max-retries", "2"]
        )
        assert code == 1
        assert "failed after 2 retries" in err


class TestTelemetryOut:
    def test_dump_produces_valid_artifacts(self, tmp_path):
        out_dir = str(tmp_path / "telemetry")
        code, text = run_cli(
            FULL_VERBS + ["terminaterunfarm"] + FULL_OPTS
            + ["--telemetry-out", out_dir]
        )
        assert code == 0
        assert "telemetry:" in text

        with open(os.path.join(out_dir, "metrics.json")) as fh:
            metrics_doc = json.load(fh)
        metrics = metrics_doc["metrics"]
        assert metrics["sim.rounds"] == 1000
        assert metrics["sim.cycles"] == 6_400_000
        assert metrics["sim.rate_mhz"] > 0
        switch_keys = [k for k in metrics if k.startswith("switch.")]
        assert any(k.endswith(".packets_dropped") for k in switch_keys)
        assert any(k.endswith(".bytes_out") for k in switch_keys)
        assert any(k.endswith(".bytes_in") for k in switch_keys)
        # Manager verb spans were recorded on the host track.
        assert metrics_doc["rate"]["rounds"] == 1000
        assert metrics["manager.runworkload.seconds"] > 0

        with open(os.path.join(out_dir, "trace.json")) as fh:
            trace = json.load(fh)
        events = trace["traceEvents"]
        assert events, "trace must not be empty"
        for event in events:
            assert {"name", "ph", "pid", "tid"} <= set(event)
        names = {e["name"] for e in events}
        assert {"buildafi", "runworkload", "terminaterunfarm"} <= names

        with open(os.path.join(out_dir, "metrics.csv")) as fh:
            assert fh.readline().strip() == "name,value"

    def test_telemetry_out_in_json_mode_lists_paths(self, tmp_path):
        out_dir = str(tmp_path / "telemetry")
        code, text = run_cli(
            FULL_SESSION + ["--telemetry-out", out_dir, "--json"]
        )
        document = json.loads(text)
        assert sorted(document["telemetry"]) == [
            "metrics.csv", "metrics.json", "trace.json",
        ]
        for path in document["telemetry"].values():
            assert os.path.exists(path)
