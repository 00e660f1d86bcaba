"""Host platform models (repro.host): instances, FPGAs, cost, perf."""

import pytest

from repro.host.costs import cost_report
from repro.host.fpga import (
    FPGAConfig,
    STANDARD_FPGA,
    SUPERNODE_FPGA,
)
from repro.host.instances import (
    F1_16XLARGE,
    F1_2XLARGE,
    M4_16XLARGE,
    instance_type,
)
from repro.host.perfmodel import (
    SimulationRateModel,
    SwitchPlacement,
)
from repro.net.transport import TransportSpec, TransportKind, tokens_to_bytes


class TestInstances:
    def test_section_ii_shapes(self):
        assert F1_2XLARGE.vcpus == 8
        assert F1_2XLARGE.dram_gb == 122
        assert F1_2XLARGE.fpgas == 1
        assert F1_16XLARGE.vcpus == 64
        assert F1_16XLARGE.dram_gb == 976
        assert F1_16XLARGE.fpgas == 8
        assert M4_16XLARGE.network_gbps == 25.0
        assert M4_16XLARGE.fpgas == 0

    def test_lookup(self):
        assert instance_type("f1.16xlarge") is F1_16XLARGE
        with pytest.raises(ValueError):
            instance_type("p3.16xlarge")


class TestFPGA:
    def test_section_iii_a5_utilizations(self):
        assert STANDARD_FPGA.total_lut_fraction == pytest.approx(0.326)
        assert STANDARD_FPGA.blade_lut_fraction == pytest.approx(0.144)
        assert SUPERNODE_FPGA.blade_lut_fraction == pytest.approx(0.576)
        assert SUPERNODE_FPGA.total_lut_fraction == pytest.approx(0.758)

    def test_supernode_uses_all_dram_channels(self):
        assert SUPERNODE_FPGA.dram_channels_used == 4
        assert STANDARD_FPGA.dram_channels_used == 1

    def test_one_channel_per_blade_enforced(self):
        with pytest.raises(ValueError):
            FPGAConfig(blades_per_fpga=5)

    def test_fits_check(self):
        SUPERNODE_FPGA.validate_fits()  # 76% fits


class TestCosts:
    def test_paper_1024_node_deployment(self):
        report = cost_report({"f1.16xlarge": 32, "m4.16xlarge": 5})
        assert report.spot_per_hour == pytest.approx(100.0)
        assert report.on_demand_per_hour == pytest.approx(438.40)
        assert report.total_fpgas == 256
        assert report.fpga_retail_value == pytest.approx(12.8e6)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            cost_report({"f1.2xlarge": -1})


class TestTransports:
    def test_batch_move_time(self):
        spec = TransportSpec(TransportKind.PCIE, 10e-6, 1e9)
        assert spec.batch_move_time_s(1_000_000) == pytest.approx(10e-6 + 1e-3)

    def test_tokens_to_bytes(self):
        assert tokens_to_bytes(6400) == 6400 * 9
        with pytest.raises(ValueError):
            tokens_to_bytes(-1)


class TestPerfModel:
    def test_1024_node_anchor(self):
        rate = SimulationRateModel().datacenter_rate()
        assert rate.rate_mhz == pytest.approx(3.42, abs=0.1)

    def test_rate_decreases_with_scale(self):
        model = SimulationRateModel()
        rates = [
            model.cluster_rate(n, 6400).rate_hz
            for n in (2, 8, 32, 128, 1024)
        ]
        assert rates == sorted(rates, reverse=True)

    def test_rate_increases_with_link_latency(self):
        model = SimulationRateModel()
        rates = [
            model.cluster_rate(8, latency).rate_hz
            for latency in (320, 1600, 6400, 25600)
        ]
        assert rates == sorted(rates)

    def test_single_node_is_fpga_pcie_bound(self):
        estimate = SimulationRateModel().cluster_rate(1, 6400)
        assert estimate.rate_mhz > 15  # "10s of MHz"

    def test_supernode_is_slower_but_cheaper_at_scale(self):
        model = SimulationRateModel()
        standard = model.cluster_rate(1024, 6400)
        supernode = model.cluster_rate(1024, 6400, supernode=True)
        assert supernode.rate_hz <= standard.rate_hz

    def test_slowdown_below_1000x_at_full_scale(self):
        rate = SimulationRateModel().datacenter_rate()
        assert rate.slowdown_vs_target(3.2e9) < 1000

    def test_bad_inputs_rejected(self):
        model = SimulationRateModel()
        with pytest.raises(ValueError):
            model.estimate(0, [])
        with pytest.raises(ValueError):
            SwitchPlacement(ports=0)
        with pytest.raises(ValueError):
            SwitchPlacement(ports=2, ports_over_socket=3)
        with pytest.raises(ValueError):
            model.cluster_rate(0)

    def test_stage_breakdown_reported(self):
        estimate = SimulationRateModel().cluster_rate(8, 6400)
        assert "fpga" in estimate.stage_times_s
        assert "pcie" in estimate.stage_times_s
        assert estimate.bottleneck in estimate.stage_times_s
