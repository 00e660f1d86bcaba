"""Metrics registry (repro.obs.metrics)."""

import json

import pytest

from repro.core.simulation import SimulationStats
from repro.net.switch import SwitchStats
from repro.obs.metrics import METRICS_SCHEMA, Gauge, MetricsRegistry


class TestInstruments:
    def test_gauge_lookup_is_idempotent(self):
        registry = MetricsRegistry()
        assert registry.gauge("a.b") is registry.gauge("a.b")

    def test_gauge_set_and_callback(self):
        registry = MetricsRegistry()
        registry.gauge("live.value").set(3.5)
        backing = {"v": 7.0}
        registry.gauge("live.cb", lambda: backing["v"])
        snap = registry.snapshot()
        assert snap["live.value"] == 3.5
        assert snap["live.cb"] == 7.0
        backing["v"] = 9.0
        assert registry.snapshot()["live.cb"] == 9.0

    def test_callback_gauge_rejects_set(self):
        gauge = Gauge("g", lambda: 1.0)
        with pytest.raises(ValueError):
            gauge.set(2.0)

    def test_duplicate_name_across_kinds_rejected(self):
        """A name a set gauge holds cannot go to a callback gauge."""
        registry = MetricsRegistry()
        registry.gauge("x.y")
        with pytest.raises(ValueError):
            registry.gauge("x.y", lambda: 1.0)

    def test_bad_names_rejected(self):
        registry = MetricsRegistry()
        for bad in ("", ".a", "a.", "a..b"):
            with pytest.raises(ValueError):
                registry.gauge(bad)


class TestSources:
    def test_dataclass_source_snapshots_fields_and_properties(self):
        registry = MetricsRegistry()
        stats = SimulationStats()
        registry.register_source("sim", stats)
        stats.rounds = 3
        stats.tokens_moved = 10
        stats.valid_tokens_moved = 4
        snap = registry.snapshot()
        assert snap["sim.rounds"] == 3
        assert snap["sim.utilization"] == pytest.approx(0.4)

    def test_switch_stats_source(self):
        registry = MetricsRegistry()
        stats = SwitchStats(packets_dropped=2, bytes_out=640, bytes_in=704)
        registry.register_source("switch.tor", stats)
        snap = registry.snapshot()
        assert snap["switch.tor.packets_dropped"] == 2
        assert snap["switch.tor.bytes_in"] == 704

    def test_reregistration_is_noop(self):
        registry = MetricsRegistry()
        stats = SwitchStats()
        registry.register_source("switch.tor", stats)
        registry.register_source("switch.tor", stats)
        assert len(registry.snapshot()) == len(
            {k for k in registry.snapshot()}
        )

    def test_source_without_numbers_rejected(self):
        class Empty:
            pass

        with pytest.raises(ValueError):
            MetricsRegistry().register_source("x", Empty())


class TestReadsAndExport:
    def test_snapshot_is_sorted(self):
        registry = MetricsRegistry()
        registry.gauge("z.last")
        registry.gauge("a.first")
        assert list(registry.snapshot()) == ["a.first", "z.last"]

    def test_json_export_schema(self):
        registry = MetricsRegistry()
        registry.gauge("sim.rounds").set(2)
        document = json.loads(registry.to_json(extra={"note": "hi"}))
        assert document["schema"] == METRICS_SCHEMA
        assert document["metrics"]["sim.rounds"] == 2
        assert document["note"] == "hi"

    def test_csv_export(self):
        registry = MetricsRegistry()
        registry.gauge("sim.rounds").set(2)
        lines = registry.to_csv().strip().splitlines()
        assert lines[0] == "name,value"
        assert "sim.rounds,2" in lines
