"""Kernel CPU scheduler model.

A CFS-flavoured scheduler over the blade's Rocket cores, with the three
behaviours the memcached QoS experiment (Section IV-E, Figure 7) depends
on:

* **Timeslices** — a runnable thread that loses the race for a core waits
  until a running thread's timeslice expires; with more threads than
  cores this is what inflates tail latency while leaving the median
  untouched.
* **Sticky wake placement** — a waking thread prefers its previous core
  if that core's load is within one of the minimum, even when an idle
  core exists.  This reproduces the "poor thread placement" that makes
  the unpinned 4-thread configuration track the 5-thread tail at low to
  medium load.
* **Pinning** — a pinned thread always wakes on its pinned core,
  smoothing the tail (the "4 threads pinned" line).

Softirq work (NIC receive processing) runs at higher priority on the IRQ
core and preempts threads at compute-chunk granularity, bounding
interrupt latency at ``preempt_quantum`` cycles for every thread.

A thread computes in chunks of at most ``preempt_quantum`` cycles, cut
where its timeslice ends.  A thread whose slice is used up keeps an
uncontended core in full ``preempt_quantum`` chunks and yields at the
first chunk boundary that finds a waiter or a softirq, so a thread woken
onto its core waits at most one quantum plus a context switch, and a long
uncontended ``Compute`` costs one event per quantum.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, List, Optional

from repro.core.events import EventQueue
from repro.swmodel.process import Thread, ThreadState


@dataclass(frozen=True)
class SchedulerConfig:
    """Scheduler timing parameters (target cycles at 3.2 GHz).

    Defaults: 1 ms timeslice, 4 us preemption-check granularity, ~0.6 us
    context-switch cost.
    """

    timeslice_cycles: int = 3_200_000
    preempt_quantum_cycles: int = 12_800
    context_switch_cycles: int = 2_000
    irq_core: int = 0
    #: Cache-hot threshold: idle balancing will not migrate a thread that
    #: entered a runqueue more recently than this (Linux's
    #: sched_migration_cost, ~0.5 ms).
    migration_cost_cycles: int = 1_600_000
    #: Periodic load-balancer interval (~2 ms).
    balance_interval_cycles: int = 6_400_000
    #: Sticky wake placement (Linux wake-affinity-like).  Disabling it is
    #: the scheduler ablation: waking threads always take the least-loaded
    #: core, removing the poor-placement stacking behind Figure 7's
    #: unpinned-4-thread tail.
    sticky_wake: bool = True


@dataclass
class SoftirqItem:
    """One unit of high-priority kernel work (e.g. NIC RX processing)."""

    remaining: int
    on_done: Callable[[int], None]


@dataclass
class _CoreState:
    index: int
    running_thread: Optional[Thread] = None
    running_softirq: Optional[SoftirqItem] = None
    busy: bool = False
    idle_cycles: int = 0
    busy_until: int = 0


class Scheduler:
    """Event-driven multicore scheduler."""

    def __init__(
        self,
        num_cores: int,
        events: EventQueue,
        config: Optional[SchedulerConfig] = None,
        advance_thread: Optional[Callable[[int, Thread], None]] = None,
    ) -> None:
        if num_cores < 1:
            raise ValueError(f"need at least one core, got {num_cores}")
        self.config = config or SchedulerConfig()
        if not 0 <= self.config.irq_core < num_cores:
            raise ValueError("irq core index out of range")
        self.events = events
        self.cores = [_CoreState(i) for i in range(num_cores)]
        self.runqueues: List[Deque[Thread]] = [deque() for _ in range(num_cores)]
        # Per-core softirq queues: NIC RX work is spread round-robin
        # across cores (RSS/multiqueue steering), so network processing
        # load is symmetric rather than poisoning one core.
        self.softirq_queues: List[Deque[SoftirqItem]] = [
            deque() for _ in range(num_cores)
        ]
        self._rss_counter = 0
        # Kernel hook: called when a thread's current effect finishes its
        # CPU work, to advance the generator and install the next effect.
        self.advance_thread = advance_thread
        self.threads: List[Thread] = []

    @property
    def num_cores(self) -> int:
        return len(self.cores)

    # -- thread lifecycle ----------------------------------------------

    def add_thread(self, cycle: int, thread: Thread) -> None:
        if thread.pinned_core is not None and not (
            0 <= thread.pinned_core < self.num_cores
        ):
            raise ValueError(
                f"thread {thread.name!r} pinned to nonexistent core "
                f"{thread.pinned_core}"
            )
        self.threads.append(thread)
        self.wake(cycle, thread)

    def wake(self, cycle: int, thread: Thread, value: object = None) -> None:
        """Make a thread runnable and place it on a core's runqueue."""
        if thread.state == ThreadState.DONE:
            return
        if value is not None:
            thread.wake_value = value
        thread.state = ThreadState.READY
        core = self._place(thread)
        thread.last_core = core
        thread.enqueued_at = cycle
        self.runqueues[core].append(thread)
        self._kick(core, cycle)

    def _place(self, thread: Thread) -> int:
        if thread.pinned_core is not None:
            return thread.pinned_core
        loads = [
            len(self.runqueues[c.index]) + (1 if c.running_thread else 0)
            for c in self.cores
        ]
        min_load = min(loads)
        # Sticky wake placement: stay on the previous core when it is
        # within one of the least-loaded core — even if another core is
        # fully idle.  This is the placement-quality behaviour behind the
        # unpinned 4-thread tail anomaly (Figure 7).
        if self.config.sticky_wake and loads[thread.last_core] <= min_load + 1:
            return thread.last_core
        return loads.index(min_load)

    # -- softirq ------------------------------------------------------------

    def submit_softirq(self, cycle: int, cost_cycles: int, on_done: Callable[[int], None]) -> None:
        """Queue high-priority kernel work (RSS round-robin steering)."""
        if cost_cycles < 0:
            raise ValueError("softirq cost must be >= 0")
        core_index = self._rss_counter % self.num_cores
        self._rss_counter += 1
        self.softirq_queues[core_index].append(SoftirqItem(cost_cycles, on_done))
        self._kick(core_index, cycle)

    # -- dispatch -------------------------------------------------------

    def _kick(self, core_index: int, cycle: int) -> None:
        core = self.cores[core_index]
        if not core.busy:
            # Dispatch via the event queue at the current cycle so all
            # scheduling decisions happen in deterministic event order.
            core.busy = True
            self.events.schedule(cycle, lambda cy, c=core: self._dispatch(cy, c))

    def _dispatch(self, cycle: int, core: _CoreState) -> None:
        """Pick and run the next unit of work on an idle core."""
        # Softirq work has priority over threads on its steered core.
        if self.softirq_queues[core.index]:
            item = self.softirq_queues[core.index].popleft()
            core.running_softirq = item
            chunk = min(item.remaining, self.config.preempt_quantum_cycles)
            chunk = max(chunk, 1)
            self.events.schedule(
                cycle + chunk,
                lambda cy, c=core, it=item, ch=chunk: self._softirq_chunk_done(cy, c, it, ch),
            )
            return

        queue = self.runqueues[core.index]
        thread = None
        while queue:
            candidate = queue.popleft()
            if candidate.state == ThreadState.READY:
                thread = candidate
                break
        if thread is None:
            thread = self._steal_for(core, cycle)
        if thread is None:
            core.busy = False
            core.running_thread = None
            return

        thread.state = ThreadState.RUNNING
        thread.last_core = core.index
        thread.slice_remaining = self.config.timeslice_cycles
        thread.context_switches += 1
        core.running_thread = thread
        self._run_chunk(cycle + self.config.context_switch_cycles, core, thread)

    def _run_chunk(self, cycle: int, core: _CoreState, thread: Thread) -> None:
        if thread.work_remaining <= 0 and self.advance_thread is not None:
            # Effect completed exactly at dispatch: advance immediately.
            self._complete_work(cycle, core, thread)
            return
        # A chunk ends where the slice does; past it (an uncontended
        # thread keeps its core) chunks stay at the preemption quantum.
        chunk = min(thread.work_remaining, self.config.preempt_quantum_cycles)
        if 0 < thread.slice_remaining < chunk:
            chunk = thread.slice_remaining
        chunk = max(chunk, 1)
        self.events.schedule(
            cycle + chunk,
            lambda cy, c=core, t=thread, ch=chunk: self._chunk_done(cy, c, t, ch),
        )

    def _chunk_done(self, cycle: int, core: _CoreState, thread: Thread, chunk: int) -> None:
        thread.work_remaining -= chunk
        thread.slice_remaining -= chunk
        thread.cpu_cycles += chunk
        if thread.work_remaining <= 0:
            self._complete_work(cycle, core, thread)
            return
        self._maybe_continue(cycle, core, thread)

    def _complete_work(self, cycle: int, core: _CoreState, thread: Thread) -> None:
        if thread.on_work_done is not None:
            action = thread.on_work_done
            thread.on_work_done = None
            action(cycle)
        if thread.state == ThreadState.RUNNING:
            if self.advance_thread is not None:
                # Ask the kernel to install the next effect.
                self.advance_thread(cycle, thread)
            else:
                # No kernel attached (bare scheduler tests): the thread's
                # work is its whole life.
                thread.state = ThreadState.DONE
        if thread.state == ThreadState.RUNNING:
            self._maybe_continue(cycle, core, thread)
        else:
            # Thread blocked, slept, or exited: free the core.
            core.running_thread = None
            self._dispatch(cycle, core)

    def _maybe_continue(self, cycle: int, core: _CoreState, thread: Thread) -> None:
        softirq_pending = bool(self.softirq_queues[core.index])
        contended = bool(self.runqueues[core.index]) or softirq_pending
        if contended and thread.slice_remaining <= 0:
            # Timeslice expired with waiters: requeue (possibly migrating
            # to the least-loaded core) and dispatch the next work unit.
            thread.state = ThreadState.READY
            core.running_thread = None
            target = self._rebalance_target(thread)
            thread.last_core = target
            thread.enqueued_at = cycle
            self.runqueues[target].append(thread)
            if target != core.index:
                self._kick(target, cycle)
            self._dispatch(cycle, core)
            return
        if softirq_pending:
            # Softirq preempts the thread at chunk granularity; the thread
            # returns to the head of the queue, and its next dispatch
            # starts a fresh timeslice.
            thread.state = ThreadState.READY
            core.running_thread = None
            thread.enqueued_at = cycle
            self.runqueues[core.index].appendleft(thread)
            self._dispatch(cycle, core)
            return
        self._run_chunk(cycle, core, thread)

    def _stealable(self, thread: Thread, cycle: int) -> bool:
        return (
            thread.state == ThreadState.READY
            and thread.pinned_core is None
            and cycle - thread.enqueued_at >= self.config.migration_cost_cycles
        )

    def _steal_for(self, core: _CoreState, cycle: int) -> Optional[Thread]:
        """Idle balancing: pull a runnable, unpinned, *cache-cold* thread
        from the most loaded other runqueue (Linux's idle_balance with
        sched_migration_cost).  Cache-hot threads are left in place; the
        periodic balancer cleans up persistent imbalance instead."""
        best_queue = None
        best_len = 0
        for other in self.cores:
            if other.index == core.index:
                continue
            queue = self.runqueues[other.index]
            stealable = sum(1 for t in queue if self._stealable(t, cycle))
            if stealable > best_len:
                best_len = stealable
                best_queue = queue
        if best_queue is None:
            return None
        for candidate in list(best_queue):
            if self._stealable(candidate, cycle):
                best_queue.remove(candidate)
                candidate.last_core = core.index
                return candidate
        return None

    # -- periodic load balancing ------------------------------------------

    def start_periodic_balance(self, first_cycle: int = 0) -> None:
        """Arm the periodic balancer (Linux's rebalance_domains)."""
        self.events.schedule(
            first_cycle + self.config.balance_interval_cycles,
            self._periodic_balance,
        )

    def _load_of(self, core_index: int) -> int:
        running = 1 if self.cores[core_index].running_thread else 0
        return len(self.runqueues[core_index]) + running

    def _periodic_balance(self, cycle: int) -> None:
        """Move queued unpinned threads from overloaded to underloaded
        cores until no pair differs by two or more."""
        for _ in range(self.num_cores):
            loads = [self._load_of(c) for c in range(self.num_cores)]
            busiest = max(range(self.num_cores), key=lambda c: loads[c])
            idlest = min(range(self.num_cores), key=lambda c: loads[c])
            if loads[busiest] - loads[idlest] < 2:
                break
            moved = None
            for candidate in self.runqueues[busiest]:
                if (
                    candidate.state == ThreadState.READY
                    and candidate.pinned_core is None
                ):
                    moved = candidate
                    break
            if moved is None:
                break
            self.runqueues[busiest].remove(moved)
            moved.last_core = idlest
            moved.enqueued_at = cycle
            self.runqueues[idlest].append(moved)
            self._kick(idlest, cycle)
        self.events.schedule(
            cycle + self.config.balance_interval_cycles, self._periodic_balance
        )

    def _rebalance_target(self, thread: Thread) -> int:
        if thread.pinned_core is not None:
            return thread.pinned_core
        loads = [
            len(self.runqueues[c.index]) + (1 if c.running_thread else 0)
            for c in self.cores
        ]
        return loads.index(min(loads))

    def _softirq_chunk_done(
        self, cycle: int, core: _CoreState, item: SoftirqItem, chunk: int
    ) -> None:
        item.remaining -= chunk
        if item.remaining > 0:
            chunk = min(item.remaining, self.config.preempt_quantum_cycles)
            self.events.schedule(
                cycle + chunk,
                lambda cy, c=core, it=item, ch=chunk: self._softirq_chunk_done(cy, c, it, ch),
            )
            return
        core.running_softirq = None
        item.on_done(cycle)
        self._dispatch(cycle, core)

    # -- inspection -------------------------------------------------------

    def runnable_threads(self) -> int:
        return sum(1 for t in self.threads if t.runnable)
