"""Process hygiene: run a workload in its own session and leave nothing.

Every workload child is started as the leader of a new session with
``REPRO_BENCH_ID=<uuid>`` in its environment.  A plain ``killpg`` is not
enough to clean up after it:

* ``repro.serve`` job children call ``os.setpgrp()`` (own process group,
  same session);
* ``repro.dist`` workers outlive a killed ``firesim`` CLI parent and are
  re-parented;
* ``multiprocessing.resource_tracker`` is spawned lazily by the first
  shared-memory segment and lingers until every holder of its pipe exits.

So the parent makes itself a *child subreaper* (orphans re-parent to it,
so it can ``waitpid`` them), and :func:`stop_all` kills by **session**
and by **environment marker** (a ``/proc/*/environ`` sweep), then reaps
until it has no children.  Anything it had to kill is returned so the
caller can fail the run; :func:`unlink_new_segments` removes the
``/dev/shm`` rings a killed child could not destroy itself.
"""

from __future__ import annotations

import ctypes
import os
import signal
import subprocess
import time
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

MARKER = "REPRO_BENCH_ID"
_PR_SET_CHILD_SUBREAPER = 36

#: A child that was told to stop gets this long to run its ``finally``
#: blocks (``JobServer.stop``, ring ``destroy``) before SIGKILL.
TERMINATE_GRACE_S = 5.0
#: Benign stragglers (the resource tracker) exit on their own once the
#: child is gone; only what outlives this grace counts as leaked.
LINGER_GRACE_S = 3.0


def become_subreaper() -> None:
    """Adopt orphaned descendants so they can be waited for (idempotent)."""
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER)")


def _read(path: str) -> bytes:
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except OSError:  # the process exited between listdir and open
        return b""


def find_pids(
    bench_id: Optional[str] = None, session: Optional[int] = None
) -> Dict[int, str]:
    """Live processes carrying the marker or belonging to ``session``.

    Returns ``pid -> command line``.  The caller itself and zombies
    (dead, merely awaiting their parent's ``wait``) are skipped.
    """
    needle = f"{MARKER}={bench_id}".encode() if bench_id else None
    found: Dict[int, str] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit() or int(entry) == os.getpid():
            continue
        stat = _read(f"/proc/{entry}/stat")
        if not stat:
            continue
        # "pid (comm) state ppid pgrp session ..."; comm may hold spaces.
        fields = stat[stat.rindex(b")") + 2:].split()
        if fields[0] == b"Z":
            continue
        in_session = session is not None and int(fields[3]) == session
        marked = needle is not None and needle in _read(
            f"/proc/{entry}/environ"
        ).split(b"\0")
        if in_session or marked:
            cmdline = _read(f"/proc/{entry}/cmdline").replace(b"\0", b" ")
            found[int(entry)] = cmdline.decode(errors="replace").strip()
    return found


def kill_pids(pids: Iterable[int], signum: int = signal.SIGKILL) -> None:
    for pid in pids:
        try:
            os.kill(pid, signum)
        except (ProcessLookupError, PermissionError):
            pass


def reap_children(deadline_s: float) -> None:
    """``waitpid`` every child (adopted ones included) until none is left."""
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            time.sleep(0.01)


def stop_all(
    proc: Optional[subprocess.Popen], bench_id: str
) -> List[Tuple[int, str]]:
    """Stop ``proc`` and everything it started; return what had to be killed.

    Called from a ``finally``: ``proc`` may have exited normally, may be
    mid-run (timeout, SIGTERM, exception), or may be ``None`` when the
    spawn itself failed.
    """
    session = proc.pid if proc is not None else None
    if proc is not None and proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=TERMINATE_GRACE_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    deadline = time.monotonic() + LINGER_GRACE_S
    remaining = find_pids(bench_id, session)
    while remaining and time.monotonic() < deadline:
        reap_children(0.05)
        time.sleep(0.02)
        remaining = find_pids(bench_id, session)
    killed = sorted(remaining.items())
    kill_pids(remaining)
    reap_children(10.0)
    return killed


def unlink_new_segments(before: Set[str]) -> List[str]:
    """Remove ``/dev/shm`` rings created since ``before`` was snapshotted."""
    removed = []
    for name in sorted(set(shm_segments()) - before):
        try:
            os.unlink(os.path.join("/dev/shm", name))
            removed.append(name)
        except FileNotFoundError:
            pass
    return removed


def shm_segments() -> List[str]:
    from repro.dist.shm import leaked_segments

    return leaked_segments()


class IsolatedRun:
    """Outcome of :func:`run_isolated`."""

    def __init__(self) -> None:
        self.returncode: Optional[int] = None
        self.timed_out = False
        self.killed: List[Tuple[int, str]] = []
        self.segments_removed: List[str] = []

    @property
    def clean(self) -> bool:
        return (
            self.returncode == 0
            and not self.timed_out
            and not self.killed
            and not self.segments_removed
        )


def run_isolated(
    argv: Sequence[str], timeout_s: float, bench_id: str
) -> IsolatedRun:
    """Run ``argv`` as a session leader marked ``bench_id``; clean up.

    The cleanup runs on normal exit, timeout, ``KeyboardInterrupt`` and
    ``SystemExit`` (the caller maps SIGTERM to the latter) alike.
    """
    run = IsolatedRun()
    child_env = dict(os.environ)
    child_env[MARKER] = bench_id
    before = set(shm_segments())
    become_subreaper()
    proc: Optional[subprocess.Popen] = None
    try:
        proc = subprocess.Popen(
            list(argv), env=child_env, start_new_session=True
        )
        try:
            run.returncode = proc.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            run.timed_out = True
    finally:
        run.killed = stop_all(proc, bench_id)
        run.segments_removed = unlink_new_segments(before)
    return run


def own_stragglers() -> Dict[int, str]:
    """Marked processes other than the caller and the resource tracker.

    Called *inside* a workload child between repeats, where the only
    legitimate marked process besides itself is the lazily spawned
    ``multiprocessing.resource_tracker``.
    """
    bench_id = os.environ.get(MARKER)
    if not bench_id:
        return {}
    return {
        pid: cmd
        for pid, cmd in find_pids(bench_id).items()
        if "resource_tracker" not in cmd
    }
