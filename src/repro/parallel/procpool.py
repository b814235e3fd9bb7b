"""A persistent, crash-tolerant process pool for slab offload.

Why not :class:`concurrent.futures.ProcessPoolExecutor`?  Three reasons,
all load-bearing for the MTTKRP hot path:

* **warm workers** — the pool is spawned once (per executor lifetime)
  and reused across every MTTKRP call of a factorization, so fork/spawn
  cost never lands on the hot path;
* **per-worker pipes** — stdlib pools funnel tasks through one shared
  queue whose reader lock a ``SIGKILL``-ed worker takes to its grave,
  deadlocking the survivors.  Here every worker owns a private duplex
  :func:`multiprocessing.Pipe`; a dead worker strands nothing;
* **surgical recovery** — batches are idempotent (workers write
  disjoint, fully-overwritten ranges of shared output buffers), so when
  a worker's sentinel fires mid-batch the pool respawns a replacement
  and resubmits exactly the unfinished tasks.  Only when the respawn
  budget is exhausted does :class:`ProcessPoolBroken` escalate — the
  engine then falls back to the serial executor with a ``GuardEvent``.

Task model: ``submit_batch(fn_name, payloads)`` round-robins payloads
over the workers and blocks until all results arrive.  ``fn_name`` is a
``"module:function"`` string resolved by :func:`resolve_task_fn` inside
the worker (payloads must pickle; arrays travel as
:class:`repro.parallel.shm.ShmArrayHandle`, never by value).

Start method: ``fork`` where available (cheap, Linux default),
``spawn`` otherwise; override with ``REPRO_PROC_START``.  Workers are
daemonic — an abandoned pool cannot outlive the interpreter.
"""

from __future__ import annotations

import atexit
import importlib
import os
import signal
import time
import traceback
import weakref
from multiprocessing import connection, get_context
from typing import Callable

from ..validation import require

#: Environment override for the worker start method.
START_METHOD_ENV = "REPRO_PROC_START"

#: Replacement workers the pool may spawn within one batch before
#: declaring itself broken.
DEFAULT_RESPAWN_BUDGET = 2

#: Seconds between liveness scans while waiting on batch results.
_WAIT_TICK = 0.25


class ProcessPoolBroken(RuntimeError):
    """The pool lost workers faster than its respawn budget allows."""


class WorkerTaskError(RuntimeError):
    """A task raised inside a worker (original traceback attached)."""


def default_start_method() -> str:
    """``REPRO_PROC_START`` override, else fork where supported."""
    import multiprocessing as mp
    env = os.environ.get(START_METHOD_ENV)
    if env:
        require(env in mp.get_all_start_methods(),
                f"unsupported {START_METHOD_ENV}={env!r}; available: "
                f"{mp.get_all_start_methods()}")
        return env
    return "fork" if "fork" in mp.get_all_start_methods() else "spawn"


def resolve_task_fn(fn_name: str) -> Callable:
    """Import ``"module:function"`` (worker side; cached by the module)."""
    module_name, _, attr = fn_name.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, attr)


def _worker_main(conn_) -> None:  # pragma: no cover - separate process
    """Worker loop: recv (task_id, fn_name, payload), send (task_id, ...)."""
    fns: dict[str, Callable] = {}
    while True:
        try:
            item = conn_.recv()
        except (EOFError, OSError):
            return
        if item is None:
            return
        task_id, fn_name, payload = item
        try:
            fn = fns.get(fn_name)
            if fn is None:
                fn = fns[fn_name] = resolve_task_fn(fn_name)
            result = fn(payload)
            conn_.send((task_id, True, result))
        except BaseException as exc:  # noqa: BLE001 - report, don't die
            conn_.send((task_id, False,
                        f"{type(exc).__name__}: {exc}\n"
                        f"{traceback.format_exc()}"))


class _Worker:
    __slots__ = ("process", "conn")

    def __init__(self, ctx) -> None:
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        self.process = ctx.Process(target=_worker_main, args=(child_conn,),
                                   daemon=True)
        self.process.start()
        child_conn.close()  # parent keeps only its end
        self.conn = parent_conn

    @property
    def alive(self) -> bool:
        return self.process.is_alive()

    def shutdown(self, timeout: float = 2.0) -> None:
        try:
            self.conn.send(None)
        except (BrokenPipeError, OSError):
            pass
        self.process.join(timeout)
        if self.process.is_alive():  # pragma: no cover - stuck worker
            self.process.terminate()
            self.process.join(timeout)
        self.conn.close()
        self.process.close()


class ProcessPool:
    """Fixed-size persistent worker pool with dead-worker recovery.

    Parameters
    ----------
    workers:
        Number of worker processes (grown on demand via
        :meth:`ensure_workers`).
    start_method:
        ``multiprocessing`` start method; ``None`` resolves through
        :func:`default_start_method`.
    respawn_budget:
        Replacement workers allowed per batch before
        :class:`ProcessPoolBroken` is raised.
    fault_plan:
        Optional test hook with an ``on_dispatch(pool)`` method, invoked
        before every batch dispatch (see
        :class:`repro.robustness.faults.WorkerKillPlan`).
    """

    def __init__(self, workers: int, start_method: str | None = None,
                 respawn_budget: int = DEFAULT_RESPAWN_BUDGET,
                 fault_plan: object | None = None) -> None:
        require(workers >= 1, "need at least one worker")
        self.start_method = start_method or default_start_method()
        self._ctx = get_context(self.start_method)
        self.respawn_budget = int(respawn_budget)
        self.fault_plan = fault_plan
        self._workers: list[_Worker] = []
        self._task_counter = 0
        self.closed = False
        #: Workers replaced after unexpected death (lifetime total).
        self.respawns = 0
        #: Batches that needed at least one resubmission.
        self.recovered_batches = 0
        spawn_tick = time.perf_counter()
        self.ensure_workers(workers)
        #: Seconds spent spawning the initial workers (amortized cost).
        self.spawn_seconds = time.perf_counter() - spawn_tick
        _LIVE_POOLS.add(self)
        self._finalizer = weakref.finalize(self, _finalize_workers,
                                           self._workers)

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        return len(self._workers)

    def worker_pids(self) -> list[int]:
        return [w.process.pid for w in self._workers]

    def ensure_workers(self, n: int) -> None:
        """Grow the pool to at least *n* workers (never shrinks)."""
        self._check_open()
        while len(self._workers) < n:
            self._workers.append(_Worker(self._ctx))

    def kill_worker(self, index: int) -> int:
        """SIGKILL worker *index* (fault injection); returns its pid."""
        worker = self._workers[index]
        pid = worker.process.pid
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass  # already dead (e.g. killed earlier in the same plan)
        worker.process.join(5.0)
        return pid

    # ------------------------------------------------------------------
    def submit_batch(self, fn_name: str, payloads: list[object],
                     timeout: float | None = None) -> list[object]:
        """Run every payload through *fn_name*; results in payload order.

        Survives worker deaths by respawning and resubmitting the
        unfinished payloads (tasks must be idempotent); raises
        :class:`ProcessPoolBroken` once ``respawn_budget`` replacements
        were not enough, and :class:`WorkerTaskError` if a payload
        raised inside a worker.
        """
        self._check_open()
        if not payloads:
            return []
        if self.fault_plan is not None:
            self.fault_plan.on_dispatch(self)
        ids = list(range(self._task_counter,
                         self._task_counter + len(payloads)))
        self._task_counter += len(payloads)
        pending: dict[int, object] = dict(zip(ids, payloads))
        assignment = self._dispatch(fn_name, pending)
        results: dict[int, object] = {}
        respawns_left = self.respawn_budget
        deadline = None if timeout is None else time.monotonic() + timeout

        while len(results) < len(ids):
            ready = connection.wait(
                [w.conn for w in self._workers if w.alive]
                + [w.process.sentinel for w in self._workers],
                timeout=_WAIT_TICK)
            progressed = False
            for w in list(self._workers):
                # Drain dead workers too: results they sent before dying
                # are still buffered in the pipe and still count.
                while True:
                    try:
                        if not w.conn.poll():
                            break
                        task_id, ok, value = w.conn.recv()
                    except (EOFError, OSError):
                        break
                    progressed = True
                    if task_id in results:
                        continue  # duplicate from a resubmitted task
                    if not ok:
                        raise WorkerTaskError(value)
                    results[task_id] = value
                    pending.pop(task_id, None)
                    assignment.pop(task_id, None)
            if len(results) == len(ids):
                break
            dead = [w for w in self._workers if not w.alive]
            if dead:
                # Owed by a dead worker, or never successfully sent.
                lost = {tid: p for tid, p in pending.items()
                        if assignment.get(tid) in dead
                        or tid not in assignment}
                respawns_left -= len(dead)
                if respawns_left < 0:
                    raise ProcessPoolBroken(
                        f"lost {len(dead)} worker(s) with respawn budget "
                        f"exhausted ({self.respawn_budget} per batch)")
                self._replace(dead)
                if self.fault_plan is not None:
                    self.fault_plan.on_dispatch(self)
                # Resubmit everything the dead workers still owed; a
                # slow survivor finishing the same task later is benign
                # (identical bytes to a disjoint range, deduped above).
                if lost:
                    self.recovered_batches += 1
                    assignment.update(self._dispatch(fn_name, lost))
                continue
            if not ready and not progressed and deadline is not None \
                    and time.monotonic() > deadline:
                raise ProcessPoolBroken(
                    f"batch timed out after {timeout:.1f}s with "
                    f"{len(pending)} task(s) outstanding")
        return [results[i] for i in ids]

    def _dispatch(self, fn_name: str,
                  tasks: dict[int, object]) -> dict[int, _Worker]:
        """Round-robin *tasks* over live workers; task_id -> worker map."""
        live = [w for w in self._workers if w.alive]
        if not live:
            raise ProcessPoolBroken("no live workers to dispatch to")
        assignment: dict[int, _Worker] = {}
        for i, (task_id, payload) in enumerate(tasks.items()):
            worker = live[i % len(live)]
            try:
                worker.conn.send((task_id, fn_name, payload))
            except (BrokenPipeError, OSError):
                continue  # death detected by the sentinel scan
            assignment[task_id] = worker
        return assignment

    def _replace(self, dead: list[_Worker]) -> None:
        for worker in dead:
            self._workers.remove(worker)
            try:
                worker.conn.close()
                worker.process.join(0.1)
                worker.process.close()
            except Exception:  # pragma: no cover - best-effort reaping
                pass
            self._workers.append(_Worker(self._ctx))
            self.respawns += 1

    # ------------------------------------------------------------------
    def _check_open(self) -> None:
        if self.closed:
            raise ProcessPoolBroken("pool is closed")

    def close(self) -> None:
        """Shut every worker down (idempotent)."""
        if self.closed:
            return
        self.closed = True
        self._finalizer.detach()
        workers, self._workers = list(self._workers), []
        for worker in workers:
            worker.shutdown()

    def __enter__(self) -> "ProcessPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


_LIVE_POOLS: "weakref.WeakSet[ProcessPool]" = weakref.WeakSet()


def _finalize_workers(workers: list[_Worker]) -> None:
    for worker in list(workers):
        try:
            worker.shutdown(timeout=0.5)
        except Exception:  # pragma: no cover - best-effort
            pass
    workers.clear()


@atexit.register
def _atexit_close_pools() -> None:  # pragma: no cover - teardown
    for pool in list(_LIVE_POOLS):
        try:
            pool.close()
        except Exception:
            pass
