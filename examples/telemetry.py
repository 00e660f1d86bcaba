#!/usr/bin/env python3
"""Cycle-exact telemetry: uartlogs and packet traces.

FireSim users collect performance data that is cycle-exact; this example
shows the reproduction's observability stack on a small cluster:

* each blade boots the Linux model and produces a timestamped uartlog;
* a link tracer spliced between a node and its ToR records every packet
  of an iperf stream with first/last-flit cycles (a cycle-stamped pcap).

Run:  python examples/telemetry.py
"""

from repro import Simulation, SwitchConfig, SwitchModel, mac_address
from repro.net.tracer import splice_tracer
from repro.swmodel.apps.boot import make_linux_boot
from repro.swmodel.apps.iperf import make_iperf_client, make_iperf_server
from repro.swmodel.server import ServerBlade

CLOCK_HZ = 3.2e9


def main() -> None:
    sim = Simulation()
    a = sim.add_model(ServerBlade("node0", node_index=0))
    b = sim.add_model(ServerBlade("node1", node_index=1))
    switch = sim.add_model(
        SwitchModel(
            "tor",
            SwitchConfig(num_ports=2),
            mac_table={mac_address(0): 0, mac_address(1): 1},
        )
    )
    tracer = splice_tracer(sim, a, "net", switch, "port0", 6400, "trace0")
    sim.connect(switch, "port1", b, "net", 6400)

    for blade in (a, b):
        blade.spawn("init", make_linux_boot())
    b.spawn("iperf-server", make_iperf_server())
    a.spawn("iperf-client", make_iperf_client(b.mac, total_bytes=400_000))

    sim.run_seconds(0.008)

    print("=== uartlog (node0) ===")
    for cycle, line in a.uart.log:
        print(f"[{cycle / CLOCK_HZ * 1e3:8.3f} ms] {line}")

    print("\n=== packet trace (node0 <-> ToR, first 5 each way) ===")
    for direction in ("a_to_b", "b_to_a"):
        for record in tracer.packets(direction)[:5]:
            print(
                f"  {direction}: frame {record.frame_id} "
                f"{record.size_bytes:5d} B  flits "
                f"[{record.first_flit_cycle}, {record.last_flit_cycle}]"
            )
    print(f"  ... {len(tracer.records)} packets total")


if __name__ == "__main__":
    main()
