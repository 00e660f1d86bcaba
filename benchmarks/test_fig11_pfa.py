"""Figure 11 bench: PFA vs software paging (§VI)."""

import pytest
from conftest import full_scale

from repro.experiments import fig11_pfa


def test_fig11_pfa(run_once):
    result = run_once(fig11_pfa.run, quick=not full_scale())
    print()
    print(result.table())
    assert abs(result.best_improvement("genome") - 1.4) < 0.25
    for point in result.points:
        assert point.pfa_slowdown <= point.sw_slowdown
        assert point.evictions_equal
        assert 2.0 < point.metadata_ratio < 3.3
    # The analytic fetch latency the sweep pages with agrees with the
    # token-exact memory-blade protocol; NIC DMA and driver pipelines add
    # latency the closed form folds into its constants.
    assert result.memblade_fetch_cycles == pytest.approx(
        result.analytic_fetch_cycles, rel=0.15
    )
