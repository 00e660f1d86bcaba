"""Kernel model: effect resolution, interrupts, sockets, syscalls.

This is the "booted Linux" of a simulated server blade: it owns the
scheduler, the network stack, and the NIC/block-device interrupt wiring,
and it resolves the effects yielded by application threads
(:mod:`repro.swmodel.process`) into CPU occupancy plus completion
actions.

The kernel never inspects token windows itself; it is driven entirely by
the blade's deterministic event queue, so every software-visible time is
an exact target cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.core.events import EventQueue
from repro.net.ethernet import EthernetFrame
from repro.nic.nic import IRQ_RX, NIC
from repro.swmodel.netstack import (
    Datagram,
    NetStackCosts,
    NetworkStack,
    Socket,
)
from repro.swmodel.process import (
    Compute,
    Recv,
    Send,
    SendRaw,
    Sleep,
    Thread,
    ThreadBody,
    ThreadState,
)
from repro.swmodel.sched import Scheduler, SchedulerConfig


class ThreadAPI:
    """The view of the kernel a thread body closes over.

    Provides timestamps, socket creation, and small helpers; all timing
    effects are expressed by *yielding* effect objects.
    """

    def __init__(self, kernel: "Kernel", thread_name: str) -> None:
        self._kernel = kernel
        self.thread_name = thread_name

    def now(self) -> int:
        """Current target cycle (exact as of the thread's last resume)."""
        return self._kernel.cycle

    def socket(self, proto: str, port: int) -> Socket:
        """Bind a new socket on this blade."""
        return self._kernel.netstack.bind(proto, port)

    @property
    def mac(self) -> int:
        return self._kernel.mac

    @property
    def num_cores(self) -> int:
        return self._kernel.scheduler.num_cores

    def record(self, key: str, value: Any) -> None:
        """Append a measurement to the blade's result store."""
        self._kernel.results.setdefault(key, []).append(value)

    def console(self, text: str) -> int:
        """Print to the blade's UART (timestamped uartlog); returns the
        cycle the final character finishes on the wire."""
        if self._kernel.uart is None:
            raise RuntimeError("this kernel has no UART attached")
        return self._kernel.uart.write(self._kernel.cycle, text)


class Kernel:
    """Per-blade OS model."""

    def __init__(
        self,
        mac: int,
        num_cores: int,
        events: EventQueue,
        nic: NIC,
        costs: Optional[NetStackCosts] = None,
        sched_config: Optional[SchedulerConfig] = None,
    ) -> None:
        self.mac = mac
        self.events = events
        self.nic = nic
        self.cycle = 0
        self.scheduler = Scheduler(
            num_cores, events, sched_config, advance_thread=self._advance_thread
        )
        self.scheduler.start_periodic_balance()
        self.netstack = NetworkStack(mac, costs)
        self.netstack.post_frame = self._post_frame
        self.netstack.submit_softirq = self._submit_softirq
        self.netstack.wake_socket_waiter = self._wake_socket_waiter
        nic.interrupt_handler = self._nic_interrupt
        #: Measurement store apps write through ``api.record``.
        self.results: Dict[str, List[Any]] = {}
        #: Console device, attached by the owning blade.
        self.uart = None
        #: Optional raw-frame handlers for bare-metal apps, keyed by a
        #: payload tag; see :meth:`register_raw_handler`.
        self._raw_handlers: List[Callable[[int, EthernetFrame], None]] = []

    # -- thread management ----------------------------------------------

    def spawn(
        self,
        name: str,
        body_fn: Callable[[ThreadAPI], ThreadBody],
        pinned_core: Optional[int] = None,
        start_cycle: int = 0,
    ) -> Thread:
        """Create a thread from a generator function and make it runnable."""
        api = ThreadAPI(self, name)
        thread = Thread(name, body_fn(api), pinned_core=pinned_core)
        self.events.schedule(
            start_cycle, lambda cy, t=thread: self._start_thread(cy, t)
        )
        return thread

    def _start_thread(self, cycle: int, thread: Thread) -> None:
        self.cycle = cycle
        # Prime the generator: install its first effect, then enqueue.
        self._install_next_effect(cycle, thread)
        if thread.state != ThreadState.DONE and thread.runnable:
            self.scheduler.add_thread(cycle, thread)
        else:
            # Blocked or sleeping from birth (e.g. a server thread whose
            # first effect is Recv): register it so the scheduler knows
            # about it; a wake will enqueue it later.
            self.scheduler.threads.append(thread)

    # -- effect resolution -----------------------------------------------

    def _advance_thread(self, cycle: int, thread: Thread) -> None:
        """Scheduler hook: current effect's CPU work finished."""
        self.cycle = cycle
        self._install_next_effect(cycle, thread)

    def _install_next_effect(self, cycle: int, thread: Thread) -> None:
        """Drive the generator until an effect needs CPU time or blocks."""
        while True:
            try:
                value, thread.wake_value = thread.wake_value, None
                effect = thread.gen.send(value)
            except StopIteration:
                thread.state = ThreadState.DONE
                return

            if isinstance(effect, Compute):
                thread.work_remaining = effect.cycles
                thread.on_work_done = None
                return
            if isinstance(effect, Send):
                self._resolve_send(cycle, thread, effect)
                return
            if isinstance(effect, SendRaw):
                self._resolve_send_raw(cycle, thread, effect)
                return
            if isinstance(effect, Recv):
                sock = effect.socket
                if sock.queue:
                    datagram = sock.queue.popleft()
                    # recv() syscall cost, then resume with the datagram.
                    thread.work_remaining = self.netstack.costs.syscall_cycles
                    thread.wake_value = datagram
                    thread.on_work_done = None
                    return
                thread.state = ThreadState.BLOCKED
                thread.blocked_socket = sock
                if sock.waiting_thread is not None:
                    raise RuntimeError(
                        f"socket {sock.proto}/{sock.port} already has a waiter"
                    )
                sock.waiting_thread = thread
                return
            if isinstance(effect, Sleep):
                thread.state = ThreadState.SLEEPING
                self.events.schedule(
                    cycle + effect.cycles,
                    lambda cy, t=thread: self._wake_from_sleep(cy, t),
                )
                return
            raise TypeError(
                f"thread {thread.name!r} yielded unknown effect {effect!r}"
            )

    def _resolve_send(self, cycle: int, thread: Thread, effect: Send) -> None:
        costs = self.netstack.costs
        datagram = Datagram(
            proto=effect.proto,
            sport=effect.sport,
            dport=effect.dport,
            payload=effect.payload,
            payload_bytes=effect.payload_bytes,
            conn_id=effect.conn_id,
            app_send_cycle=cycle,
        )
        thread.work_remaining = costs.syscall_cycles + costs.tx_cost(effect.proto)
        thread.on_work_done = (
            lambda cy, d=datagram, dst=effect.dst_mac: self.netstack.send(cy, dst, d)
        )

    def _resolve_send_raw(self, cycle: int, thread: Thread, effect: SendRaw) -> None:
        """Bare-metal transmit: a descriptor write, no protocol stack."""
        frame = EthernetFrame(
            src=self.mac,
            dst=effect.dst_mac,
            size_bytes=effect.frame_bytes,
            payload=effect.payload,
        )
        thread.work_remaining = 64  # MMIO descriptor write
        thread.on_work_done = lambda cy, f=frame: self.nic.post_send(cy, f)

    # -- wakeups ------------------------------------------------------------

    def _wake_from_sleep(self, cycle: int, thread: Thread) -> None:
        self.cycle = cycle
        if thread.state == ThreadState.SLEEPING:
            self.scheduler.wake(cycle, thread)

    def _wake_socket_waiter(self, cycle: int, sock: Socket) -> None:
        thread = sock.waiting_thread
        if thread is None or not sock.queue:
            return
        sock.waiting_thread = None
        thread.blocked_socket = None
        datagram = sock.queue.popleft()
        # The woken thread pays the recv() return path.
        thread.work_remaining = self.netstack.costs.syscall_cycles
        thread.on_work_done = None
        self.scheduler.wake(cycle, thread, value=datagram)

    # -- NIC / softirq wiring -----------------------------------------------

    def _post_frame(self, cycle: int, frame: EthernetFrame) -> None:
        self.nic.post_send(cycle, frame)

    def _submit_softirq(
        self, cycle: int, cost: int, on_done: Callable[[int], None]
    ) -> None:
        self.scheduler.submit_softirq(cycle, cost, on_done)

    def _nic_interrupt(
        self, cycle: int, kind: str, frame: Optional[EthernetFrame]
    ) -> None:
        # The driver reaps the completion entry this interrupt announces
        # (the NIC appends it just before raising the line), so the
        # queues never pin a run's frames.
        nic = self.nic
        (nic.rx_completions if kind == IRQ_RX else nic.tx_completions).pop()
        if kind != IRQ_RX or frame is None:
            return
        # Driver model: the IRQ handler re-posts the consumed receive
        # buffer, keeping the descriptor ring full (drops then only come
        # from the NIC packet buffer, the paper's drop mechanism).
        self.nic.post_recv_descriptors(cycle, 1)
        if isinstance(frame.payload, Datagram):
            self.events.schedule(
                cycle, lambda cy, f=frame: self.netstack.handle_rx_frame(cy, f)
            )
        else:
            for handler in self._raw_handlers:
                self.events.schedule(
                    cycle, lambda cy, f=frame, h=handler: h(cy, f)
                )

    def register_raw_handler(
        self, handler: Callable[[int, EthernetFrame], None]
    ) -> None:
        """Bare-metal apps receive non-Datagram frames through this hook."""
        self._raw_handlers.append(handler)
