"""Server blade FAME-1 endpoint (repro.swmodel.server)."""


from repro.core.token import TokenBatch, TokenWindow
from repro.swmodel.process import Compute
from repro.swmodel.server import ServerBlade
from repro.tile.soc import RocketChipConfig


class TestConstruction:
    def test_named_config(self):
        blade = ServerBlade("node0", config="DualCore", node_index=0)
        assert blade.config.num_cores == 2

    def test_explicit_config(self):
        blade = ServerBlade(
            "node0", config=RocketChipConfig(num_cores=1), node_index=0
        )
        assert blade.soc.num_cores == 1

    def test_mac_defaults_from_node_index(self):
        blade = ServerBlade("node7", node_index=7)
        assert blade.mac == 0x02_00_00_00_00_07

    def test_single_net_port(self):
        assert ServerBlade("n", node_index=0).ports == ["net"]


class TestTokenContract:
    def test_tick_conserves_tokens(self):
        blade = ServerBlade("n", node_index=0)
        window = TokenWindow(0, 1000)
        outputs = blade.tick(window, {"net": TokenBatch.empty(0, 1000)})
        assert outputs["net"].length == 1000
        assert outputs["net"].start_cycle == 0

    def test_idle_blade_emits_empty_tokens(self):
        blade = ServerBlade("n", node_index=0)
        window = TokenWindow(0, 1000)
        outputs = blade.tick(window, {"net": TokenBatch.empty(0, 1000)})
        assert outputs["net"].valid_count == 0

    def test_thread_work_advances_with_windows(self):
        blade = ServerBlade("n", node_index=0)

        def body(api):
            yield Compute(5_000)
            api.record("done_at", api.now())

        blade.spawn("w", body)
        for start in range(0, 10_000, 1000):
            window = TokenWindow(start, start + 1000)
            blade.tick(window, {"net": TokenBatch.empty(start, 1000)})
        assert "done_at" in blade.results
        assert blade.results["done_at"][0] >= 5_000

    def test_results_property_mirrors_kernel(self):
        blade = ServerBlade("n", node_index=0)
        blade.kernel.results["key"] = [1]
        assert blade.results["key"] == [1]


class TestNicEdge:
    def test_kernel_reaps_nic_completions(self):
        """The driver pops the entry each interrupt announces, so a run
        does not pin every frame it ever moved."""
        from repro.net.ethernet import EthernetFrame

        blade = ServerBlade("n", node_index=0)
        peer = ServerBlade("p", node_index=1)
        sent = EthernetFrame(src=blade.mac, dst=peer.mac, size_bytes=128)
        blade.nic.post_send(0, sent)
        window = TokenWindow(0, 1000)
        out = blade.tick(window, {"net": TokenBatch.empty(0, 1000)})["net"]
        peer.tick(window, {"net": out})
        assert blade.nic.stats.tx_frames == 1
        assert peer.nic.stats.rx_frames == 1
        assert not blade.nic.tx_completions
        assert not peer.nic.rx_completions

    def test_rows_tick_equals_the_flit_tick(self):
        """``_tick(rows=True)`` carries the same tokens as the spec tick."""
        from repro.net.ethernet import EthernetFrame

        outputs = []
        for rows in (False, True):
            blade = ServerBlade("n", node_index=0)
            blade.nic.set_bandwidth(25, 128)
            blade.nic.post_send(
                0, EthernetFrame(src=blade.mac, dst=1, size_bytes=1514)
            )
            window = TokenWindow(0, 700)
            out = blade._tick(
                window, {"net": TokenBatch.empty(0, 700)}, rows=rows
            )["net"]
            outputs.append([
                (cycle, flit.index, flit.last)
                for cycle, flit in out.iter_flits()
            ])
        assert outputs[0] and outputs[0] == outputs[1]
