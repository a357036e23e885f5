"""Deterministic checkpoint/restore snapshots for sweep prefix reuse.

Sweep benchmarks cold-start every configuration from t = 0, yet most
sweep points share an identical warm-up prefix: the same workload,
diverging only at a fault-activation time or a parameter that first
matters after the split.  Because the simulator is deterministic
(byte-identical sha256 trace signatures), a prefix simulated once can
stand in for every point that shares it.

The restore mechanism behind :func:`repro.perf.sweeps.prefix_map` is
fork copy-on-write (:class:`SnapshotServer`).  A forked server process
runs the shared prefix once to the divergence point ``t_split``, then,
without waiting for the caller, forks one child per sweep point; each
child applies its divergent continuation on the inherited state and
ships the (picklable) outcome back over its own pipe.  The prefix state
is never serialized: the :class:`~repro.sim.engine.EventQueue` is full
of closures over the kernel (release actions, timer callbacks) that
``pickle`` cannot ship and ``copy.deepcopy`` would share with the
original, but ``fork`` preserves them for free, and the OS shares the
prefix pages copy-on-write until a child diverges.

On platforms without ``fork`` (:func:`fork_available` is false) the
planner cold-starts every point instead -- a gate, not a new
dependency -- and results are identical either way, which the snapshot
test battery asserts byte-for-byte.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import signal
import sys
import time
import traceback
from typing import Any, Callable, List, Optional, Sequence, Tuple

__all__ = [
    "SnapshotError",
    "fork_available",
    "SnapshotServer",
]

#: Seconds a server waits on a continuation between checks that the
#: process which created it is still alive.
ORPHAN_POLL_S = 0.1


class SnapshotError(RuntimeError):
    """A snapshot server or one of its continuations failed."""


def fork_available() -> bool:
    """Whether fork-based copy-on-write snapshots can work here."""
    return hasattr(os, "fork") and hasattr(os, "waitpid")


def _collect_child(
    pending: List[Tuple[int, int, Any]], results: List[Any], parent: int
) -> None:
    """Receive a finished child's outcome, reap it, place it.

    Waits on every pending pipe at once and takes the oldest child
    that has finished, so at ``children > 1`` a slow continuation does
    not keep a finished sibling's slot idle.  The entry leaves
    ``pending`` only once its child is reaped, so an interrupted
    collection leaves it for :func:`_reap`.  While it waits, the
    server checks every :data:`ORPHAN_POLL_S` that its creator
    ``parent`` is still its parent; once it is not (the sweep process
    died and the server was reparented), the server kills and reaps
    its children and exits.  EOF on the pipe to ``parent`` would not
    signal that death: servers forked after this one inherit the
    parent's end of it.
    """
    # Imported here: only a server waits on children, and the module
    # would add its own imports (subprocess, multiprocessing.util, ...)
    # to every importer.
    from multiprocessing.connection import wait

    conns = [conn for _, _, conn in pending]
    while not (ready := wait(conns, ORPHAN_POLL_S)):
        if os.getppid() != parent:
            _reap(pending)
            os._exit(1)
    position = next(i for i, conn in enumerate(conns) if conn in ready)
    index, pid, conn = pending[position]
    try:
        kind, payload = conn.recv()
    except EOFError:
        kind, payload = "err", f"snapshot child (pid {pid}) died without a result"
    os.waitpid(pid, 0)
    del pending[position]
    conn.close()
    if kind == "err":
        raise RuntimeError(f"continuation #{index} failed:\n{payload}")
    results[index] = payload


def _reap(pending: List[Tuple[int, int, Any]]) -> None:
    """Kill and reap every child still pending, oldest first."""
    while pending:
        _index, pid, conn = pending[0]
        with contextlib.suppress(OSError):
            conn.close()
        with contextlib.suppress(OSError):
            os.kill(pid, signal.SIGKILL)
        with contextlib.suppress(OSError):
            os.waitpid(pid, 0)
        del pending[0]


def _serve(
    conn,
    build: Callable[[], Any],
    continuations: Sequence[Callable[[Any], Any]],
    children: int,
    parent: int,
) -> None:
    """Server-process body: prefix once, then fork the futures.

    Runs start to finish without waiting for the parent: it sends
    ``("ready", prefix wall seconds)`` once the prefix is built, forks
    the continuations with at most ``children`` in flight (a slot is
    refilled as soon as any child finishes), then sends ``("done",
    results)``.  Each child ships ``("ok", result)`` or ``("err",
    traceback)`` over its own pipe (per-child pipes keep concurrent
    writes from interleaving).  The continuation result must be
    picklable -- the prefix state itself never is.

    No continuation outlives its server.  A failed one makes the server
    kill and reap the others still in flight before it reports; SIGTERM
    (what :meth:`SnapshotServer.close` sends an abandoned server) does
    the same and exits at once.  SIGTERM is held from each fork until
    the child is registered in ``pending``, so none escapes that
    cleanup.  Nor does the server outlive ``parent``, the process that
    created it: waiting on a continuation, it notices when it has been
    reparented and cleans up the same way (see :func:`_collect_child`).
    """
    t0 = time.perf_counter()
    state = build()
    conn.send(("ready", time.perf_counter() - t0))
    results: List[Any] = [None] * len(continuations)
    pending: List[Tuple[int, int, Any]] = []
    sigterm = {signal.SIGTERM}

    def abandoned(_signum, _frame) -> None:
        _reap(pending)
        os._exit(1)

    signal.signal(signal.SIGTERM, abandoned)
    try:
        for index, continuation in enumerate(continuations):
            while len(pending) >= children:
                _collect_child(pending, results, parent)
            parent_end, child_end = multiprocessing.Pipe(duplex=False)
            sys.stdout.flush()
            sys.stderr.flush()
            signal.pthread_sigmask(signal.SIG_BLOCK, sigterm)
            pid = os.fork()
            if pid == 0:  # the future: one sweep point on CoW state
                code = 0
                try:
                    signal.signal(signal.SIGTERM, signal.SIG_DFL)
                    signal.pthread_sigmask(signal.SIG_UNBLOCK, sigterm)
                    conn.close()
                    parent_end.close()
                    child_end.send(("ok", continuation(state)))
                except BaseException:
                    code = 1
                    with contextlib.suppress(OSError):
                        child_end.send(("err", traceback.format_exc()))
                finally:
                    os._exit(code)
            pending.append((index, pid, parent_end))
            signal.pthread_sigmask(signal.SIG_UNBLOCK, sigterm)
            child_end.close()
        while pending:
            _collect_child(pending, results, parent)
    finally:
        _reap(pending)
    conn.send(("done", results))


class SnapshotServer:
    """Copy-on-write prefix server: simulate once, fork the futures.

    Forks immediately on construction; the server simulates the prefix
    (``build()``) and then forks one child per continuation without
    waiting to be asked, so several servers overlap end to end.
    :meth:`results` only collects the outcomes, in submission order.

    ``children`` bounds how many of this server's continuation children
    run at once (1 = one at a time; other servers still run alongside).
    Always :meth:`close` (or use as a context manager): an abandoned
    server is killed and reaped together with its in-flight children,
    never leaked.  If the creating process dies instead, the server
    takes its children down and exits the next time it waits on one.
    """

    def __init__(
        self,
        build: Callable[[], Any],
        continuations: Sequence[Callable[[Any], Any]],
        *,
        children: int = 1,
        name: str = "snapshot",
    ):
        if not fork_available():
            raise SnapshotError("fork-based snapshots need os.fork")
        continuations = list(continuations)
        if not continuations:
            raise ValueError("SnapshotServer needs at least one continuation")
        if children < 1:
            raise ValueError(f"children must be positive (got {children})")
        self.name = name
        self.count = len(continuations)
        self.prefix_wall_s: Optional[float] = None
        self._results: Optional[List[Any]] = None
        parent_conn, child_conn = multiprocessing.Pipe()
        parent = os.getpid()
        sys.stdout.flush()
        sys.stderr.flush()
        pid = os.fork()
        if pid == 0:  # the server
            code = 0
            try:
                parent_conn.close()
                _serve(child_conn, build, continuations, children, parent)
            except BaseException:
                code = 1
                with contextlib.suppress(OSError):
                    child_conn.send(("err", traceback.format_exc()))
            finally:
                os._exit(code)
        child_conn.close()
        self._conn: Optional[Any] = parent_conn
        self._pid: Optional[int] = pid

    # ------------------------------------------------------------------
    # protocol
    # ------------------------------------------------------------------
    def _recv(self) -> Tuple[str, Any]:
        if self._conn is None:
            raise SnapshotError(f"snapshot server {self.name!r} is closed")
        try:
            kind, payload = self._conn.recv()
        except EOFError:
            self.close()
            raise SnapshotError(
                f"snapshot server {self.name!r} died before replying"
            ) from None
        if kind == "err":
            self.close()
            raise SnapshotError(
                f"snapshot server {self.name!r} failed:\n{payload}"
            )
        return kind, payload

    def ready(self) -> float:
        """Block until the shared prefix finished; its wall seconds."""
        if self.prefix_wall_s is None:
            kind, payload = self._recv()
            if kind != "ready":
                self.close()
                raise SnapshotError(
                    f"snapshot server {self.name!r}: expected ready, got {kind!r}"
                )
            self.prefix_wall_s = payload
        return self.prefix_wall_s

    def results(self) -> List[Any]:
        """Wait for the continuations; their outcomes in order."""
        if self._results is None:
            self.ready()
            kind, payload = self._recv()
            if kind != "done":
                self.close()
                raise SnapshotError(
                    f"snapshot server {self.name!r}: expected done, got {kind!r}"
                )
            self._results = payload
            self.close()
        return list(self._results)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Tear the server down (idempotent; kills it and its in-flight
        children if still live)."""
        conn, self._conn = self._conn, None
        if conn is not None:
            with contextlib.suppress(OSError):
                conn.close()
        pid, self._pid = self._pid, None
        if pid is not None:
            if self._results is None:
                # Abandoned before completion: don't wait out the
                # prefix or the continuations; the server's SIGTERM
                # handler kills and reaps its children before exiting.
                with contextlib.suppress(OSError, ProcessLookupError):
                    os.kill(pid, signal.SIGTERM)
            with contextlib.suppress(OSError, ChildProcessError):
                os.waitpid(pid, 0)

    def __enter__(self) -> "SnapshotServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):
        with contextlib.suppress(Exception):
            self.close()

    def __repr__(self) -> str:
        state = "closed" if self._conn is None and self._results is None else (
            "done" if self._results is not None else "live"
        )
        return f"<SnapshotServer {self.name} x{self.count} {state}>"
