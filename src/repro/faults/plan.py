"""Deterministic fault plans and the injector that executes them.

FireSim's manager runs on an elastic spot-market fleet where host-level
failures are routine (Sections II, III-B3): instance launches fail, FPGA
image builds flake, simulation controllers crash mid-run, and heartbeats
over the socket transport go quiet.  This module models that fault
surface *deterministically*: a :class:`FaultPlan` is a seeded list of
:class:`FaultSpec` entries naming where and when each fault fires, and a
:class:`FaultInjector` executes the plan at the manager's injection
points.  Same seed + same plan → byte-identical fault sequence, so a
chaos run is as reproducible as a clean one.

Fault taxonomy (the exception hierarchy mirrors recoverability):

* :class:`TransientFault` — retryable host failures: instance launch
  (:class:`InstanceLaunchFault`), AGFI build (:class:`AgfiBuildFault`),
  heartbeat loss (:class:`HeartbeatLost`).  The manager retries these
  under its :class:`~repro.faults.retry.RetryPolicy`; repeat offenders
  trip the circuit breaker and are quarantined + remapped.
* :class:`ControllerCrash` — a simulation controller dies mid-run.  Not
  retryable in place: the manager restores the last quantum-boundary
  checkpoint and resumes, cycle-identically.
* ``token-stall`` — not an exception at injection time: the injector
  silently loses an in-flight token batch on a target link; the
  orchestrator's watchdog diagnostics then raise a
  :class:`~repro.core.channel.TokenStarvationError` naming the stalled
  endpoint, and the manager recovers via checkpoint restore.
* distributed-transport chaos verbs — ``worker-hang`` livelocks the
  target worker's round loop (the supervisor must detect and kill it),
  and ``ring-corrupt`` flips one byte in a staged channel frame after
  its checksums are computed (the reader must raise
  :class:`RingCorruption`).  Both fire inside worker processes through
  the inherited fault hook.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass
from enum import Enum
from typing import Any, Dict, List, Optional, Tuple

from repro import ConfigError, ReproError


class FaultKind(Enum):
    """Host-level fault classes the plan can inject."""

    INSTANCE_LAUNCH = "instance-launch"
    AGFI_BUILD = "agfi-build"
    CONTROLLER_CRASH = "controller-crash"
    HEARTBEAT_LOSS = "heartbeat-loss"
    TOKEN_STALL = "token-stall"
    WORKER_HANG = "worker-hang"
    RING_CORRUPT = "ring-corrupt"


#: Manager lifecycle points at which faults may fire.
INJECTION_POINTS = (
    "buildafi",
    "launchrunfarm",
    "infrasetup",
    "runworkload",
)

#: Kinds that fire *inside* the running simulation (armed as the
#: orchestrator's fault hook) rather than at a verb boundary.
MID_RUN_KINDS = (
    FaultKind.CONTROLLER_CRASH,
    FaultKind.TOKEN_STALL,
    FaultKind.WORKER_HANG,
    FaultKind.RING_CORRUPT,
)

#: Mid-run kinds that only make sense inside a forked dist worker; the
#: injector routes them through :meth:`FaultInjector._fire_transport_fault`.
_TRANSPORT_FAULT_KINDS = (
    FaultKind.WORKER_HANG,
    FaultKind.RING_CORRUPT,
)


# -- exceptions ----------------------------------------------------------


class FaultError(ReproError):
    """Base for injected faults; carries the spec that fired."""

    def __init__(self, message: str, kind: FaultKind,
                 target: Optional[str] = None,
                 at_cycle: Optional[int] = None) -> None:
        super().__init__(message)
        self.kind = kind
        self.target = target
        self.at_cycle = at_cycle


class TransientFault(FaultError):
    """A retryable host failure (launch / build / heartbeat)."""


class InstanceLaunchFault(TransientFault):
    """An EC2 instance failed to launch (spot loss, capacity)."""


class AgfiBuildFault(TransientFault):
    """An FPGA image build failed on the build farm."""


class HeartbeatLost(TransientFault):
    """A simulation controller missed a heartbeat over its transport."""


class ControllerCrash(FaultError):
    """A simulation controller died mid-run; recover from checkpoint."""


class WorkerCrash(FaultError):
    """A :mod:`repro.dist` worker process died mid-run.

    Distributed execution treats a lost worker exactly like a lost host
    in the paper's spot-market fleet: the manager restores the last
    checkpoint and resumes the workload partitioned across the
    *surviving* workers.  ``target`` carries ``"worker:<index>"`` so the
    circuit breaker and quarantine bookkeeping see a host-shaped victim.
    """

    def __init__(self, message: str, worker_index: int = -1,
                 at_cycle: Optional[int] = None) -> None:
        super().__init__(
            message,
            kind=FaultKind.CONTROLLER_CRASH,
            target=f"worker:{worker_index}",
            at_cycle=at_cycle,
        )
        self.worker_index = worker_index


class WorkerHang(WorkerCrash):
    """A :mod:`repro.dist` worker stopped making lockstep progress.

    Raised by the run driver after the supervisor's adaptive deadline
    expired and the worker was killed (SIGTERM -> SIGKILL).  Subclasses
    :class:`WorkerCrash` because recovery is identical — checkpoint
    restore onto the survivors — but the distinct type keeps hang
    verdicts countable separately from clean crashes.
    """


class RingCorruption(FaultError):
    """A worker channel frame failed its integrity check (CRC or
    sequence).

    Carries the directed channel identity (``"ring:<src>-><dst>"``, a
    historical spelling) as the fault target.  The manager restores the
    pre-fork checkpoint and reruns on fresh pipes with the same worker
    count.  Corruption is *never* decoded into simulation state — the
    reader raises before any window leaves the channel.
    """

    def __init__(self, message: str, ring: str = "ring:?",
                 at_cycle: Optional[int] = None) -> None:
        super().__init__(
            message,
            kind=FaultKind.RING_CORRUPT,
            target=ring,
            at_cycle=at_cycle,
        )
        self.ring = ring


_EXCEPTION_FOR_KIND = {
    FaultKind.INSTANCE_LAUNCH: InstanceLaunchFault,
    FaultKind.AGFI_BUILD: AgfiBuildFault,
    FaultKind.HEARTBEAT_LOSS: HeartbeatLost,
    FaultKind.CONTROLLER_CRASH: ControllerCrash,
}


# -- the plan ------------------------------------------------------------


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault.

    Attributes:
        kind: which fault class fires.
        point: the lifecycle verb it fires at (one of
            :data:`INJECTION_POINTS`).
        target: optional victim — a host (``"f1:0"``), a build config
            name (``"QuadCore"``), or a link name for token stalls.
            None matches any target the injector is asked about.
        times: how many times the fault fires before it is exhausted.
        at_cycle: for mid-run kinds, the target cycle at (or after)
            which the fault fires.
        after_model: for ``controller-crash``, fire immediately after
            this model's tick (mid-round); None fires at a round start.
        probability: per-opportunity firing probability, drawn from the
            plan's seeded RNG (1.0 = always).
    """

    kind: FaultKind
    point: str
    target: Optional[str] = None
    times: int = 1
    at_cycle: Optional[int] = None
    after_model: Optional[str] = None
    probability: float = 1.0

    def __post_init__(self) -> None:
        if self.point not in INJECTION_POINTS:
            raise ConfigError(
                f"unknown injection point {self.point!r}; expected one of "
                f"{', '.join(INJECTION_POINTS)}"
            )
        if self.times < 1:
            raise ConfigError(f"fault times must be >= 1, got {self.times}")
        if not 0.0 < self.probability <= 1.0:
            raise ConfigError(
                f"fault probability must be in (0, 1], got {self.probability}"
            )
        if self.kind in MID_RUN_KINDS:
            if self.at_cycle is None:
                raise ConfigError(
                    f"{self.kind.value} faults need at_cycle"
                )
            if self.point != "runworkload":
                raise ConfigError(
                    f"{self.kind.value} faults fire at runworkload, "
                    f"not {self.point!r}"
                )
        if self.kind is FaultKind.TOKEN_STALL and self.target is None:
            raise ConfigError("token-stall faults need a target link name")

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"kind": self.kind.value, "point": self.point}
        if self.target is not None:
            out["target"] = self.target
        if self.times != 1:
            out["times"] = self.times
        if self.at_cycle is not None:
            out["at_cycle"] = self.at_cycle
        if self.after_model is not None:
            out["after_model"] = self.after_model
        if self.probability != 1.0:
            out["probability"] = self.probability
        return out

    @classmethod
    def from_dict(cls, raw: Dict[str, Any]) -> "FaultSpec":
        try:
            kind = FaultKind(raw["kind"])
        except KeyError:
            raise ConfigError(f"fault spec missing 'kind': {raw!r}") from None
        except ValueError:
            valid = ", ".join(k.value for k in FaultKind)
            raise ConfigError(
                f"unknown fault kind {raw['kind']!r}; expected one of {valid}"
            ) from None
        known = {"kind", "point", "target", "times", "at_cycle",
                 "after_model", "probability"}
        extra = set(raw) - known
        if extra:
            raise ConfigError(f"unknown fault spec keys: {sorted(extra)}")
        if "point" not in raw:
            raise ConfigError(f"fault spec missing 'point': {raw!r}")
        return cls(
            kind=kind,
            point=raw["point"],
            target=raw.get("target"),
            times=raw.get("times", 1),
            at_cycle=raw.get("at_cycle"),
            after_model=raw.get("after_model"),
            probability=raw.get("probability", 1.0),
        )


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, ordered list of faults to inject into one run."""

    seed: int = 0
    specs: Tuple[FaultSpec, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "faults": [spec.to_dict() for spec in self.specs],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, raw: Dict[str, Any]) -> "FaultPlan":
        if not isinstance(raw, dict):
            raise ConfigError(f"fault plan must be an object, got {raw!r}")
        faults = raw.get("faults", [])
        if not isinstance(faults, list):
            raise ConfigError("fault plan 'faults' must be a list")
        return cls(
            seed=raw.get("seed", 0),
            specs=tuple(FaultSpec.from_dict(entry) for entry in faults),
        )

    @classmethod
    def from_file(cls, path: str) -> "FaultPlan":
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read fault plan {path!r}: {exc}") from exc
        except ValueError as exc:
            raise ConfigError(
                f"fault plan {path!r} is not valid JSON: {exc}"
            ) from exc
        return cls.from_dict(raw)


# -- resilience counters -------------------------------------------------


@dataclass
class ResilienceStats:
    """Counters for every fault/retry/recovery event (a ``repro.obs``
    source registered under the ``faults`` prefix)."""

    faults_injected: int = 0
    retries: int = 0
    recoveries: int = 0
    giveups: int = 0
    checkpoints_taken: int = 0
    restores: int = 0
    replay_cycles: int = 0
    backoff_seconds: float = 0.0
    hosts_quarantined: int = 0
    heartbeats_missed: int = 0
    stalls_detected: int = 0
    watchdog_scans: int = 0
    #: Workers the supervisor declared hung (adaptive deadline blown).
    hangs_detected: int = 0
    #: Worker processes forcibly killed (hang kills + join-timeout
    #: escalations), as opposed to exiting on their own.
    workers_killed: int = 0
    #: Worker processes that outlived the post-run join grace and had
    #: to be SIGKILLed to avoid a process leak.
    join_timeouts: int = 0
    #: Channel frames that failed their CRC or sequence check.
    ring_corruptions: int = 0
    #: Distributed runs finished on the serial engine instead: the
    #: worker pipes could not be opened, or the restart budget ran out.
    serial_fallbacks: int = 0


# -- the injector --------------------------------------------------------


class _ArmedSpec:
    """Bookkeeping for one spec while its plan is live."""

    __slots__ = ("spec", "remaining")

    def __init__(self, spec: FaultSpec) -> None:
        self.spec = spec
        self.remaining = spec.times


class FaultInjector:
    """Executes a :class:`FaultPlan` at the manager's injection points.

    The injector owns the plan's seeded RNG and an append-only event
    log of deterministic strings; two runs with the same plan produce
    byte-identical logs.  Verb-boundary faults are raised from
    :meth:`fire`; mid-run faults are armed onto the orchestrator's
    ``fault_hook`` via :meth:`arm`.
    """

    def __init__(self, plan: FaultPlan,
                 stats: Optional[ResilienceStats] = None) -> None:
        self.plan = plan
        self.rng = random.Random(plan.seed)
        self.stats = stats if stats is not None else ResilienceStats()
        self.log: List[str] = []
        self._armed_specs = [_ArmedSpec(spec) for spec in plan.specs]
        self._simulation: Optional[Any] = None

    # -- introspection ---------------------------------------------------

    @property
    def exhausted(self) -> bool:
        """True once every planned fault has fired."""
        return all(entry.remaining == 0 for entry in self._armed_specs)

    def pending(self, point: Optional[str] = None) -> List[FaultSpec]:
        """Specs with firings left, optionally filtered by point."""
        return [
            entry.spec
            for entry in self._armed_specs
            if entry.remaining > 0
            and (point is None or entry.spec.point == point)
        ]

    def log_text(self) -> str:
        """The run log as one deterministic byte string."""
        return "\n".join(self.log) + ("\n" if self.log else "")

    # -- verb-boundary injection ----------------------------------------

    def fire(self, point: str, target: Optional[str] = None) -> None:
        """Raise the next armed fault for this point/target, if any."""
        for entry in self._armed_specs:
            spec = entry.spec
            if entry.remaining == 0 or spec.point != point:
                continue
            if spec.kind in MID_RUN_KINDS:
                continue
            if spec.target is not None and target is not None \
                    and spec.target != target:
                continue
            if spec.probability < 1.0 \
                    and self.rng.random() >= spec.probability:
                continue
            entry.remaining -= 1
            victim = target if spec.target is None else spec.target
            self._record(point, spec, victim)
            exc_type = _EXCEPTION_FOR_KIND[spec.kind]
            raise exc_type(
                f"injected {spec.kind.value} fault at {point}"
                + (f" on {victim}" if victim else ""),
                kind=spec.kind,
                target=victim,
            )

    # -- mid-run injection ----------------------------------------------

    def arm(self, simulation: Any) -> None:
        """Install this injector as the simulation's fault hook.

        Idempotent; clears the hook once every mid-run fault has fired
        so the orchestrator returns to the unhooked fast path.
        """
        self._simulation = simulation
        if any(
            entry.remaining > 0 and entry.spec.kind in MID_RUN_KINDS
            for entry in self._armed_specs
        ):
            simulation.fault_hook = self._hook
        else:
            simulation.fault_hook = None

    def _hook(self, cycle: int, model: Optional[Any]) -> None:
        for entry in self._armed_specs:
            spec = entry.spec
            if entry.remaining == 0 or spec.kind not in MID_RUN_KINDS:
                continue
            assert spec.at_cycle is not None
            if cycle < spec.at_cycle:
                continue
            if spec.after_model is not None:
                if model is None or model.name != spec.after_model:
                    continue
            elif model is not None:
                continue  # boundary-only spec; skip post-tick calls
            if spec.probability < 1.0 \
                    and self.rng.random() >= spec.probability:
                continue
            if spec.kind in _TRANSPORT_FAULT_KINDS:
                # These only make sense inside a dist worker; in a
                # serial run (or the wrong worker) the spec stays armed
                # so a later distributed phase can still fire it.
                self._fire_transport_fault(cycle, entry)
                continue
            entry.remaining -= 1
            if spec.kind is FaultKind.TOKEN_STALL:
                self._stall_link(cycle, spec)
                continue
            self._record("runworkload", spec, spec.target, cycle=cycle)
            if self.exhausted and self._simulation is not None:
                self._simulation.fault_hook = None
            raise ControllerCrash(
                f"injected controller-crash at cycle {cycle}"
                + (f" after {spec.after_model}" if spec.after_model else ""),
                kind=spec.kind,
                target=spec.target,
                at_cycle=cycle,
            )

    def consume_next_mid_run(self) -> Optional[FaultSpec]:
        """Mark the next pending mid-run fault as fired elsewhere.

        Distributed execution forks workers that inherit *copies* of
        this injector; a mid-run fault fires inside a worker process and
        never decrements the parent's counters.  After the resulting
        :class:`WorkerCrash`, the manager calls this so the resumed run
        does not re-inject the same fault forever.  Specs are consumed
        in plan order, matching the hook's firing order.
        """
        for entry in self._armed_specs:
            if entry.remaining > 0 and entry.spec.kind in MID_RUN_KINDS:
                entry.remaining -= 1
                self._record(
                    "runworkload", entry.spec, entry.spec.target,
                    cycle=entry.spec.at_cycle, note="fired in worker",
                )
                return entry.spec
        return None

    def _fire_transport_fault(self, cycle: int, entry: "_ArmedSpec") -> None:
        """Fire a worker-hang / ring-corrupt verb.

        Runs inside a forked dist worker, where :mod:`repro.dist.worker`
        publishes the process's worker id and outbound channels as
        module globals.  Outside a worker (serial run, or a worker that
        is not the spec's target) the spec is left armed untouched.
        """
        spec = entry.spec
        try:
            from repro.dist import worker as dist_worker
        except ImportError:  # pragma: no cover - dist always ships
            return
        worker_id = dist_worker._WORKER_ID
        if worker_id is None:
            return  # serial run: transport verbs have nothing to hit
        if spec.kind is FaultKind.WORKER_HANG:
            if spec.target is not None \
                    and spec.target != f"worker:{worker_id}":
                return
            entry.remaining -= 1
            self._record(
                "runworkload", spec, f"worker:{worker_id}", cycle=cycle,
                note="livelocking round loop",
            )
            while True:  # the supervisor's SIGKILL is the only way out
                time.sleep(60.0)
        # ring-corrupt: find the victim send channel.  The spec target
        # names a directed channel ("ring:SRC->DST"); only the producing
        # worker arms the flag.  Untargeted specs hit the lowest peer's.
        rings = dist_worker._SEND_CHANNELS
        if spec.target is not None:
            try:
                src_text, dst_text = \
                    spec.target.split(":", 1)[1].split("->")
                src, dst = int(src_text), int(dst_text)
            except (IndexError, ValueError):
                raise ConfigError(
                    f"bad {spec.kind.value} target {spec.target!r}; "
                    f"expected 'ring:SRC->DST'"
                ) from None
            if src != worker_id or dst not in rings:
                return  # some other worker produces that ring
            ring = rings[dst]
        elif rings:
            ring = rings[min(rings)]
        else:
            return  # no outbound peer: a later shard may have one
        entry.remaining -= 1
        ring.corrupt_next_send = True
        self._record(
            "runworkload", spec, ring.name, cycle=cycle,
            note="bit-flip armed",
        )

    def _stall_link(self, cycle: int, spec: FaultSpec) -> None:
        """Lose an in-flight batch on the target link (transport loss)."""
        simulation = self._simulation
        assert simulation is not None and spec.target is not None
        for link in simulation.links:
            if link.name == spec.target:
                lost = link.lose_in_flight("a_to_b")
                self.stats.stalls_detected += 1
                self._record(
                    "runworkload", spec, spec.target, cycle=cycle,
                    note=f"lost {lost} in-flight tokens",
                )
                return
        raise ConfigError(
            f"token-stall target link {spec.target!r} not found; links: "
            f"{[link.name for link in simulation.links][:8]}"
        )

    # -- logging ---------------------------------------------------------

    def _record(self, point: str, spec: FaultSpec,
                target: Optional[str], cycle: Optional[int] = None,
                note: Optional[str] = None) -> None:
        self.stats.faults_injected += 1
        parts = [f"inject {spec.kind.value} at {point}"]
        if target:
            parts.append(f"target={target}")
        if cycle is not None:
            parts.append(f"cycle={cycle}")
        if note:
            parts.append(note)
        self.log.append(
            f"[{self.stats.faults_injected:03d}] " + " ".join(parts)
        )
