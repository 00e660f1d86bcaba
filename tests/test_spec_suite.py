"""The SPECint suite and its single-node farm (§VIII)."""

import pytest

from repro.experiments import sec8_singlenode
from repro.swmodel.apps.spec import (
    SPECINT_2017,
    benchmark_by_name,
    make_spec_runner,
    reference_cycles,
)
from repro.tile.soc import config_by_name


class TestSpecSuite:
    def test_suite_has_ten_intrate_benchmarks(self):
        assert len(SPECINT_2017) == 10
        assert all(b.name.endswith("_r") for b in SPECINT_2017)

    def test_lookup(self):
        assert benchmark_by_name("505.mcf_r").pattern == "random"
        with pytest.raises(ValueError):
            benchmark_by_name("999.nonesuch")

    def test_mcf_is_most_memory_bound(self):
        """mcf's CPI must dominate (its published character)."""
        soc = config_by_name("QuadCore").build()
        scale = 1e-7
        cpis = {
            b.name: reference_cycles(b, soc, scale) / (b.instructions * scale)
            for b in SPECINT_2017
        }
        assert max(cpis, key=cpis.get) == "505.mcf_r"
        assert cpis["548.exchange2_r"] < 1.5  # compute-bound

    def test_bad_scale_rejected(self):
        soc = config_by_name("QuadCore").build()
        with pytest.raises(ValueError):
            make_spec_runner(SPECINT_2017[0], soc, scale=0)


class TestSec8Experiment:
    def test_quick_farm_produces_rows(self):
        result = sec8_singlenode.run(quick=True)
        assert len(result.rows) == 3
        for row in result.rows:
            assert row.simulated_cycles > 0
            assert row.est_reference_host_hours > 0
        # The paper's "roughly one day": tens of host-hours per benchmark.
        assert 5 < result.suite_host_hours < 120
