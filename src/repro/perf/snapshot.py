"""Deterministic checkpoint/restore snapshots for sweep prefix reuse.

Sweep benchmarks cold-start every configuration from t = 0, yet most
sweep points share an identical warm-up prefix: the same workload,
diverging only at a fault-activation time or a parameter that first
matters after the split.  Because the simulator is deterministic
(byte-identical sha256 trace signatures), a prefix simulated once can
stand in for every point that shares it.  This module provides the two
restore mechanisms behind :func:`repro.perf.sweeps.prefix_map`:

**Fork-based copy-on-write snapshots** (:class:`SnapshotServer`).  A
forked server process runs the shared prefix once to the divergence
point ``t_split``, then, without waiting for the caller, forks one
child per sweep point; each child applies its divergent continuation
on the inherited state and ships the (picklable) outcome back over its
own pipe.  The prefix state is never serialized: the
:class:`~repro.sim.engine.EventQueue` is full of closures over the
kernel (release actions, timer callbacks) that ``pickle`` cannot ship,
but ``fork`` preserves them for free, and the OS shares the prefix
pages copy-on-write until a child diverges.

**In-process deepcopy snapshots** (:func:`deep_snapshot`,
:class:`SnapshotCache`) for single-run replay/bisection where forking
is unavailable or unwanted.  A plain ``copy.deepcopy`` is silently
*wrong* for kernel state: the stdlib treats function objects as atomic,
so a pending event action ``lambda: self._on_release(thread, nominal)``
in the copy would still close over the *original* kernel and corrupt
it when fired.  :func:`deep_snapshot` temporarily installs a
closure-aware function copier that rebuilds closure cells (and
defaults) through the deepcopy memo, making the copied event graph
self-contained.  :class:`SnapshotCache` content-addresses master
states by ``(config_hash, t_split)`` so repeated restores of the same
prefix hit a cache.

Mechanism selection is one env knob, ``REPRO_SNAPSHOT``: ``auto``
(default; fork where available), ``fork``, ``deepcopy``, or
``0``/``cold`` to disable snapshots entirely.  On platforms without
``fork`` every fork request degrades to cold-start -- a gate, not a
new dependency -- and results are identical either way, which the
snapshot test battery asserts byte-for-byte.
"""

from __future__ import annotations

import contextlib
import copy
import multiprocessing
import os
import signal
import sys
import time
import traceback
import types
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "SNAPSHOT_ENV",
    "SNAPSHOT_MODES",
    "SnapshotError",
    "fork_available",
    "resolve_snapshot_mode",
    "deep_snapshot",
    "SnapshotCache",
    "SnapshotServer",
]

#: Environment knob selecting the snapshot mechanism for sweeps.
SNAPSHOT_ENV = "REPRO_SNAPSHOT"

#: Accepted mode requests (``resolve_snapshot_mode`` narrows ``auto``).
SNAPSHOT_MODES = ("auto", "fork", "deepcopy", "cold")


class SnapshotError(RuntimeError):
    """A snapshot server or one of its continuations failed."""


def fork_available() -> bool:
    """Whether fork-based copy-on-write snapshots can work here."""
    return hasattr(os, "fork") and hasattr(os, "waitpid")


def resolve_snapshot_mode(mode: Optional[str] = None) -> str:
    """Narrow a mode request to a concrete mechanism.

    ``None`` falls back to the ``REPRO_SNAPSHOT`` environment variable
    (empty/``1``/``on`` mean ``auto``; ``0``/``off`` mean ``cold``).
    Returns ``"fork"``, ``"deepcopy"``, or ``"cold"``; ``auto`` and
    unavailable-``fork`` degrade to ``cold`` so callers never need a
    platform check of their own.
    """
    if mode is None:
        raw = os.environ.get(SNAPSHOT_ENV, "").strip().lower()
        if raw in ("", "1", "on", "auto"):
            mode = "auto"
        elif raw in ("0", "off", "cold"):
            mode = "cold"
        elif raw in ("fork", "deepcopy"):
            mode = raw
        else:
            raise ValueError(
                f"{SNAPSHOT_ENV}={raw!r}: expected one of {SNAPSHOT_MODES} "
                "(or 0/1/on/off)"
            )
    if mode not in SNAPSHOT_MODES:
        raise ValueError(
            f"unknown snapshot mode {mode!r} (expected one of {SNAPSHOT_MODES})"
        )
    if mode == "auto":
        return "fork" if fork_available() else "cold"
    if mode == "fork" and not fork_available():
        return "cold"
    return mode


# ----------------------------------------------------------------------
# closure-aware deepcopy
# ----------------------------------------------------------------------

def _copy_function(fn: types.FunctionType, memo: Dict) -> types.FunctionType:
    """Deepcopy a function *including* its closure cells and defaults.

    Module-level functions with no captured state pass through shared
    (they are immutable for our purposes).  Anything with a closure or
    defaults is rebuilt: the clone is registered in the memo *before*
    the cells are filled, so cyclic graphs (kernel -> event -> action
    closure -> kernel) terminate.
    """
    if (
        fn.__closure__ is None
        and fn.__defaults__ is None
        and fn.__kwdefaults__ is None
    ):
        return fn
    freevars = fn.__closure__ or ()
    cells = tuple(types.CellType() for _ in freevars)
    clone = types.FunctionType(
        fn.__code__, fn.__globals__, fn.__name__, fn.__defaults__,
        cells or None,
    )
    memo[id(fn)] = clone
    for target, cell in zip(cells, freevars):
        try:
            contents = cell.cell_contents
        except ValueError:  # genuinely empty cell (unset nonlocal)
            continue
        target.cell_contents = copy.deepcopy(contents, memo)
    if fn.__defaults__ is not None:
        clone.__defaults__ = copy.deepcopy(fn.__defaults__, memo)
    if fn.__kwdefaults__ is not None:
        clone.__kwdefaults__ = copy.deepcopy(fn.__kwdefaults__, memo)
    clone.__qualname__ = fn.__qualname__
    clone.__module__ = fn.__module__
    clone.__doc__ = fn.__doc__
    if fn.__dict__:
        clone.__dict__.update(copy.deepcopy(fn.__dict__, memo))
    return clone


def _copy_slotted(obj: Any, memo: Dict) -> Any:
    """Deepcopy a ``__slots__`` object slot-by-slot through the memo.

    Used for classes whose ``__getstate__`` deliberately *prunes* state
    for pickling (e.g. :class:`~repro.obs.collector.ObsCollector` drops
    its kernel back-reference so cluster workers can ship observations)
    -- a snapshot must be complete, so it bypasses that pruning.
    """
    cls = type(obj)
    clone = cls.__new__(cls)
    memo[id(obj)] = clone
    for slot in cls.__slots__:
        if hasattr(obj, slot):
            setattr(clone, slot, copy.deepcopy(getattr(obj, slot), memo))
    return clone


@contextlib.contextmanager
def _snapshot_dispatch():
    """Temporarily teach ``copy.deepcopy`` to copy captured state.

    Swaps the stdlib's treat-functions-as-atomic dispatch entry for the
    closure-aware copier (plus the no-pruning copier for collectors,
    when the obs layer is loaded), and restores the table on exit.
    Not thread-safe -- snapshots are taken from the single-threaded
    benchmark/test drivers.
    """
    dispatch = copy._deepcopy_dispatch
    saved = {}
    targets: List[Tuple[type, Callable]] = [
        (types.FunctionType, _copy_function)
    ]
    collector_mod = sys.modules.get("repro.obs.collector")
    if collector_mod is not None:
        targets.append((collector_mod.ObsCollector, _copy_slotted))
    for cls, copier in targets:
        saved[cls] = dispatch.get(cls)
        dispatch[cls] = copier
    try:
        yield
    finally:
        for cls, previous in saved.items():
            if previous is None:
                dispatch.pop(cls, None)
            else:
                dispatch[cls] = previous


def deep_snapshot(state: Any) -> Any:
    """A private, self-contained deep copy of simulation state.

    Unlike ``copy.deepcopy``, pending event actions (closures over the
    kernel, its threads, channels...) are rebuilt against the copied
    object graph, so running the copy never mutates the original.
    """
    with _snapshot_dispatch():
        return copy.deepcopy(state)


class SnapshotCache:
    """Content-addressed cache of deepcopy prefix snapshots.

    Masters are keyed by ``(config_hash, t_split)`` -- the caller's
    ``config_hash`` must fingerprint everything that shaped the prefix
    (workload, policies, defenses...), mirroring the perf-trajectory
    convention.  :meth:`restore` returns a *private*
    :func:`deep_snapshot` of the master on every call; the master
    itself is built once and never run.  Eviction is FIFO at
    ``capacity`` masters.
    """

    def __init__(self, capacity: int = 8):
        if capacity < 1:
            raise ValueError(f"cache capacity must be positive (got {capacity})")
        self._capacity = capacity
        self._masters: Dict[Tuple[str, int], Any] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._masters)

    def restore(
        self, config_hash: str, t_split: int, build: Callable[[], Any]
    ) -> Any:
        """A private copy of the prefix state for this configuration.

        ``build`` runs (once per key) to produce the master: it must
        return the state paused exactly at ``t_split``.
        """
        key = (config_hash, t_split)
        master = self._masters.get(key)
        if master is None:
            self.misses += 1
            master = build()
            if len(self._masters) >= self._capacity:
                self._masters.pop(next(iter(self._masters)))
            self._masters[key] = master
        else:
            self.hits += 1
        return deep_snapshot(master)

    def clear(self) -> None:
        """Drop every cached master (counters are kept)."""
        self._masters.clear()


# ----------------------------------------------------------------------
# fork-based copy-on-write snapshots
# ----------------------------------------------------------------------

def _collect_child(
    pending: List[Tuple[int, int, Any]], results: List[Any]
) -> None:
    """Receive the oldest pending child's outcome, reap it, place it.

    The entry leaves ``pending`` only once its child is reaped, so an
    interrupted collection leaves it for :func:`_reap`.
    """
    index, pid, conn = pending[0]
    try:
        kind, payload = conn.recv()
    except EOFError:
        kind, payload = "err", f"snapshot child (pid {pid}) died without a result"
    os.waitpid(pid, 0)
    del pending[0]
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
) -> None:
    """Server-process body: prefix once, then fork the futures.

    Runs start to finish without waiting for the parent: it sends
    ``("ready", prefix wall seconds)`` once the prefix is built, forks
    the continuations in waves of at most ``children`` (reaped in fork
    order), then sends ``("done", results)``.  Each child ships
    ``("ok", result)`` or ``("err", traceback)`` over its own pipe
    (per-child pipes keep concurrent writes from interleaving).  The
    continuation result must be picklable -- the prefix state itself
    never is.

    No continuation outlives its server.  A failed one makes the server
    kill and reap the others still in flight before it reports; SIGTERM
    (what :meth:`SnapshotServer.close` sends an abandoned server) does
    the same and exits at once.  SIGTERM is held from each fork until
    the child is registered in ``pending``, so none escapes that
    cleanup.
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
                _collect_child(pending, results)
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
            _collect_child(pending, results)
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
    never leaked.
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
            raise SnapshotError(
                "fork-based snapshots need os.fork (use deepcopy/cold mode)"
            )
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
        sys.stdout.flush()
        sys.stderr.flush()
        pid = os.fork()
        if pid == 0:  # the server
            code = 0
            try:
                parent_conn.close()
                _serve(child_conn, build, continuations, children)
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
