"""CPU scheduler model (repro.swmodel.sched)."""

import pytest

from repro.core.events import EventQueue
from repro.swmodel.process import Thread, ThreadState
from repro.swmodel.sched import Scheduler, SchedulerConfig


def empty_gen():
    return iter(())


def work_thread(name, cycles, pinned=None):
    thread = Thread(name, empty_gen(), pinned_core=pinned)
    thread.work_remaining = cycles
    return thread


def make_sched(num_cores=4, **config_kwargs):
    events = EventQueue()
    config = SchedulerConfig(**config_kwargs)
    sched = Scheduler(num_cores, events, config)
    return sched, events


class TestBasics:
    def test_single_thread_runs_to_completion(self):
        sched, events = make_sched(1)
        thread = work_thread("t", 10_000)
        sched.add_thread(0, thread)
        events.run_until(1_000_000)
        assert thread.state == ThreadState.DONE
        assert thread.cpu_cycles == 10_000

    def test_pinned_thread_stays_on_its_core(self):
        sched, events = make_sched(4)
        thread = work_thread("t", 50_000, pinned=2)
        sched.add_thread(0, thread)
        events.run_until(1_000_000)
        assert thread.last_core == 2

    def test_invalid_pin_rejected(self):
        sched, _ = make_sched(2)
        with pytest.raises(ValueError):
            sched.add_thread(0, work_thread("t", 10, pinned=5))

    def test_threads_spread_across_cores(self):
        sched, events = make_sched(4)
        threads = [work_thread(f"t{i}", 200_000) for i in range(4)]
        for t in threads:
            sched.add_thread(0, t)
        events.run_until(10_000_000)
        assert all(t.state == ThreadState.DONE for t in threads)
        # With 4 CPU-bound threads and 4 cores, total time is bounded by
        # roughly one thread's length (they ran in parallel).
        assert max(t.cpu_cycles for t in threads) == 200_000


class TestTimeslicing:
    def test_overcommit_shares_one_core(self):
        sched, events = make_sched(1, timeslice_cycles=10_000)
        first = work_thread("a", 30_000)
        second = work_thread("b", 30_000)
        sched.add_thread(0, first)
        sched.add_thread(0, second)
        events.run_until(10_000_000)
        assert first.state == ThreadState.DONE
        assert second.state == ThreadState.DONE
        # Both must have been preempted at least once.
        assert first.context_switches > 1 or second.context_switches > 1


class TestAfterTimeslice:
    """An uncontended thread whose slice is used up keeps its core in
    preemption-quantum chunks and yields at the first boundary that finds
    a waiter or a softirq."""

    SLICE = 10_000
    QUANTUM = 1_000
    SWITCH = 200

    def hog_past_its_slice(self):
        sched, events = make_sched(
            1,
            timeslice_cycles=self.SLICE,
            preempt_quantum_cycles=self.QUANTUM,
            context_switch_cycles=self.SWITCH,
        )
        hog = work_thread("hog", 3 * self.SLICE)
        sched.add_thread(0, hog)
        # Run past the end of the slice, off a chunk boundary.
        expired = 2 * self.SLICE + self.QUANTUM // 2
        fired = events.run_until(expired)
        assert hog.slice_remaining < 0
        return sched, events, hog, expired, fired

    def test_uncontended_compute_costs_one_event_per_quantum(self):
        _, events, hog, _, fired = self.hog_past_its_slice()
        fired += events.run_until(10**9)
        assert hog.state == ThreadState.DONE
        assert hog.cpu_cycles == 3 * self.SLICE
        assert fired <= 3 * self.SLICE // self.QUANTUM + 8

    def test_woken_thread_starts_within_a_quantum(self):
        sched, events, hog, expired, _ = self.hog_past_its_slice()
        waker = work_thread("waker", 1)
        sched.wake(expired, waker)
        # Starts by expired + QUANTUM + SWITCH, then computes one cycle.
        events.run_until(expired + self.QUANTUM + self.SWITCH + 2)
        assert waker.state == ThreadState.DONE
        assert hog.state == ThreadState.RUNNING

    def test_softirq_runs_within_a_quantum(self):
        sched, events, _, expired, _ = self.hog_past_its_slice()
        fired = []
        sched.submit_softirq(expired, 300, fired.append)
        events.run_until(expired + 10 * self.QUANTUM)
        assert fired and fired[0] <= expired + self.QUANTUM + 300


class TestSoftirq:
    def test_softirq_runs_and_completes(self):
        sched, events = make_sched(2)
        done = []
        sched.submit_softirq(0, 5_000, lambda cy: done.append(cy))
        events.run_until(100_000)
        assert len(done) == 1
        assert done[0] >= 5_000

    def test_softirq_spreads_round_robin(self):
        sched, events = make_sched(4)
        for _ in range(8):
            sched.submit_softirq(0, 100, lambda cy: None)
        # Round-robin steering: every core got two items queued.
        events.run_until(100_000)
        assert sched._rss_counter == 8

    def test_softirq_preempts_running_thread(self):
        sched, events = make_sched(1, preempt_quantum_cycles=1_000)
        hog = work_thread("hog", 1_000_000)
        sched.add_thread(0, hog)
        events.run_until(10_000)  # let the hog start
        fired = []
        sched.submit_softirq(10_000, 500, lambda cy: fired.append(cy))
        events.run_until(50_000)
        assert fired, "softirq never ran under a CPU hog"
        # Bounded by the preemption quantum plus its own cost and slack.
        assert fired[0] - 10_000 <= 3 * 1_000 + 500

    def test_negative_cost_rejected(self):
        sched, _ = make_sched(1)
        with pytest.raises(ValueError):
            sched.submit_softirq(0, -1, lambda cy: None)


class TestBalancing:
    def test_idle_steal_requires_cache_cold_thread(self):
        sched, events = make_sched(2, migration_cost_cycles=1_000_000)
        # Two threads stacked on core 0's queue; core 1 idle but the
        # threads are cache-hot, so no steal happens immediately.
        hog = work_thread("hog", 5_000_000)
        waiter = work_thread("waiter", 1_000)
        hog.last_core = 0
        waiter.pinned_core = None
        sched.add_thread(0, hog)
        waiter.last_core = 0
        sched.wake(0, waiter)
        events.run_until(10_000)
        assert waiter.state != ThreadState.DONE

    def test_periodic_balance_moves_queued_thread(self):
        sched, events = make_sched(
            2, balance_interval_cycles=50_000, migration_cost_cycles=10**9
        )
        sched.start_periodic_balance()
        hog = work_thread("hog", 10_000_000)
        waiter = work_thread("waiter", 1_000)
        sched.add_thread(0, hog)
        waiter.last_core = hog.last_core
        sched.wake(0, waiter)
        events.run_until(200_000)
        # The balancer must have moved the waiter to the idle core and
        # completed it long before the hog finishes.
        assert waiter.state == ThreadState.DONE

    def test_pinned_threads_never_migrate(self):
        sched, events = make_sched(2, balance_interval_cycles=20_000)
        sched.start_periodic_balance()
        hog = work_thread("hog", 2_000_000, pinned=0)
        pinned_waiter = work_thread("waiter", 1_000, pinned=0)
        sched.add_thread(0, hog)
        sched.add_thread(0, pinned_waiter)
        events.run_until(300_000)
        assert pinned_waiter.last_core == 0


class TestDeterminism:
    def test_same_workload_same_schedule(self):
        def run_once():
            sched, events = make_sched(2, timeslice_cycles=5_000)
            threads = [work_thread(f"t{i}", 20_000 + i * 1000) for i in range(5)]
            for t in threads:
                sched.add_thread(0, t)
            events.run_until(10_000_000)
            return [(t.cpu_cycles, t.context_switches, t.last_core) for t in threads]

        assert run_once() == run_once()
