"""Public API surface (repro.__init__)."""

import pytest

import repro


class TestPublicAPI:
    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.{name} missing"

    def test_all_is_the_documented_surface(self):
        """A name joins or leaves the public API only on purpose."""
        assert sorted(repro.__all__) == sorted([
            "CircuitBreaker", "ConfigError", "DEFAULT_CLOCK",
            "EthernetFrame", "Fame1Model", "FaultInjector", "FaultKind",
            "FaultPlan", "FaultSpec", "FireSimManager", "Flit", "Job",
            "NAMED_CONFIGS", "NIC", "NICConfig", "ReplayCheckpoint",
            "ReproError", "ResilienceStats", "RetryPolicy",
            "RocketChipConfig", "RunFarmConfig", "RunSpec",
            "RunningSimulation", "ServerBlade", "ServerNode", "Simulation",
            "SimulationRateModel", "SimulationSnapshot", "SwitchConfig",
            "SwitchModel", "SwitchNode", "TargetClock", "TokenBatch",
            "TokenStarvationError", "TokenWatchdog", "TokenWindow",
            "WorkloadSpec", "state_digest", "config_by_name", "cost_report",
            "datacenter_tree", "elaborate", "mac_address", "run_workload",
            "single_rack", "two_tier",
        ])

    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_quickstart_flow_from_docstring(self):
        """The module docstring's quickstart must actually work."""
        manager = repro.FireSimManager(
            repro.two_tier(num_racks=2, servers_per_rack=2)
        )
        manager.buildafi()
        manager.launchrunfarm()
        sim = manager.infrasetup()
        assert sim.num_nodes == 4
        manager.terminaterunfarm()

    def test_default_clock_is_paper_clock(self):
        assert repro.DEFAULT_CLOCK.freq_hz == 3.2e9

    def test_named_configs_exported(self):
        assert "QuadCore" in repro.NAMED_CONFIGS
        assert repro.config_by_name("QuadCore").num_cores == 4

    def test_cost_report_exported(self):
        report = repro.cost_report({"f1.16xlarge": 32, "m4.16xlarge": 5})
        assert report.spot_per_hour == pytest.approx(100.0)
