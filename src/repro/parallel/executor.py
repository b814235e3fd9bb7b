"""Execution backends for the slab-tiled MTTKRP kernels.

Two executors, selected with ``REPRO_EXECUTOR`` (or the ``executor=``
knob on :class:`~repro.kernels.dispatch.MTTKRPEngine` /
:class:`~repro.core.options.AOADMMOptions` / ``repro.fit``):

``serial`` (the default)
    The kernels loop over their slabs inline in the calling process.
    The baseline the process executor must match bit-for-bit.
``process``
    The one parallel path: a persistent :class:`~repro.parallel.
    procpool.ProcessPool` executing nnz-balanced slab batches against
    shared-memory tensors (:mod:`repro.parallel.shm`).  The kernels
    detect ``offloads_slabs`` and submit picklable slab-task
    descriptors (:mod:`repro.parallel.shm_worker`); the pool has
    ``threads`` workers (``REPRO_NUM_THREADS`` / CPU count when
    ``None``).

There is no thread executor: the slab kernels are chains of small NumPy
calls that re-take the GIL between every one of them, so threads
serialize on dispatch (``BENCH_mttkrp_executor.json`` and
``docs/parallelism.md`` have the numbers).  Out-of-core slab prefetch is
file I/O, not slab compute, and lives in :mod:`repro.tensor.ooc`.

Executors resolved by *name* are process-wide singletons, so one warm
worker pool serves every engine in the process; pass an instance for an
isolated pool (the fault-injection tests do).  Results are bit-identical
across both executors and every worker count — that contract is
enforced by the differential harness's family anchors.
"""

from __future__ import annotations

import os
import threading
import warnings

from ..validation import require
from .procpool import ProcessPool, ProcessPoolBroken
from .shm import sweep_stale_segments

#: Environment variable naming the default executor.
EXECUTOR_ENV_VAR = "REPRO_EXECUTOR"

#: Executor used when neither knob nor environment chooses one.
DEFAULT_EXECUTOR = "serial"

EXECUTOR_NAMES = ("serial", "process")

_THREADS_ENV_VAR = "REPRO_NUM_THREADS"

#: Malformed ``REPRO_NUM_THREADS`` values already warned about (warn
#: once per value, not once per call).
_WARNED_THREAD_VALUES: set[str] = set()


def effective_threads(requested: int | None = None) -> int:
    """Resolve a worker count: argument, env var, then CPU count.

    It sizes the process executor's pool.  A malformed
    ``REPRO_NUM_THREADS`` (non-integer, or < 1) emits a
    ``RuntimeWarning`` once per value before falling through to the CPU
    count.
    """
    if requested is not None and requested > 0:
        return int(requested)
    env = os.environ.get(_THREADS_ENV_VAR)
    if env:
        try:
            value = int(env)
        except ValueError:
            value = None
        if value is not None and value > 0:
            return value
        if env not in _WARNED_THREAD_VALUES:
            _WARNED_THREAD_VALUES.add(env)
            warnings.warn(
                f"ignoring malformed {_THREADS_ENV_VAR}={env!r} (expected "
                f"a positive integer); falling back to the CPU count",
                RuntimeWarning, stacklevel=2)
    return os.cpu_count() or 1


def slab_workers(executor: "ExecutorBase", threads: int | None) -> int:
    """Workers that run *executor*'s slabs: the pool size when it
    offloads them (:func:`effective_threads`), else 1 (inline)."""
    return effective_threads(threads) if executor.offloads_slabs else 1


class ExecutorBase:
    """A named slab runner."""

    name: str = "?"
    #: True when the executor can run pickled slab-task batches in
    #: worker processes (the MTTKRP offload protocol).
    offloads_slabs: bool = False

    def close(self) -> None:
        """Release pooled resources (idempotent; no-op by default)."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"


class SerialExecutor(ExecutorBase):
    """Slabs run inline in the calling process."""

    name = "serial"


class ProcessExecutor(ExecutorBase):
    """Persistent process pool + shared-memory slab offload.

    The pool is spawned lazily on first use and kept warm for the
    executor's lifetime — fork/spawn cost never recurs on the MTTKRP
    hot path.  The kernels use :meth:`submit_slab_batches`.
    """

    name = "process"
    offloads_slabs = True

    def __init__(self, max_workers: int | None = None,
                 start_method: str | None = None,
                 respawn_budget: int | None = None,
                 fault_plan: object | None = None) -> None:
        self._max_workers = max_workers
        self._start_method = start_method
        self._respawn_budget = respawn_budget
        self.fault_plan = fault_plan
        self._pool: ProcessPool | None = None
        self._lock = threading.Lock()

    def pool(self, workers: int | None = None) -> ProcessPool:
        """The warm pool, grown to at least *workers* processes."""
        want = workers or self._max_workers or effective_threads(None)
        with self._lock:
            if self._pool is None or self._pool.closed:
                # Housekeeping before mapping new segments: reclaim
                # /dev/shm space leaked by killed interpreters, so a
                # previous crash cannot starve this pool of shared
                # memory (warns once per sweep when it finds any).
                sweep_stale_segments()
                kwargs = {}
                if self._respawn_budget is not None:
                    kwargs["respawn_budget"] = self._respawn_budget
                self._pool = ProcessPool(want,
                                         start_method=self._start_method,
                                         fault_plan=self.fault_plan,
                                         **kwargs)
            else:
                self._pool.ensure_workers(want)
            self._pool.fault_plan = self.fault_plan
            return self._pool

    @property
    def spawned(self) -> bool:
        return self._pool is not None and not self._pool.closed

    def submit_slab_batches(self, fn_name: str, payloads: list[object],
                            workers: int | None = None) -> list[dict]:
        """Run the batch payloads on the pool; per-batch stats back."""
        return self.pool(workers or len(payloads)).submit_batch(
            fn_name, payloads)

    def close(self) -> None:
        with self._lock:
            if self._pool is not None:
                self._pool.close()
                self._pool = None


_SINGLETONS: dict[str, ExecutorBase] = {}
_SINGLETON_LOCK = threading.Lock()


def get_executor(name: str) -> ExecutorBase:
    """The process-wide singleton executor called *name*."""
    require(name in EXECUTOR_NAMES,
            f"unknown executor {name!r}; choose from {EXECUTOR_NAMES} "
            f"(or set {EXECUTOR_ENV_VAR})")
    with _SINGLETON_LOCK:
        ex = _SINGLETONS.get(name)
        if ex is None:
            ex = {"serial": SerialExecutor,
                  "process": ProcessExecutor}[name]()
            _SINGLETONS[name] = ex
        return ex


#: Malformed ``REPRO_EXECUTOR`` values already warned about (warn once
#: per value per process — the hot path resolves executors constantly).
_WARNED_ENV_VALUES: set[str] = set()


def resolve_executor(spec: "str | ExecutorBase | None" = None
                     ) -> ExecutorBase:
    """Resolve *spec*: instance → itself; name → singleton; ``None`` →
    ``REPRO_EXECUTOR`` or the ``serial`` default.

    A malformed *explicit* name raises; a malformed **environment**
    value only warns (once per value) and falls back to the default —
    a typo in a shell profile must not turn every library call into a
    crash (mirrors the ``REPRO_NUM_THREADS`` handling in
    :func:`effective_threads`).
    """
    if isinstance(spec, ExecutorBase):
        return spec
    if spec is None:
        env_value = os.environ.get(EXECUTOR_ENV_VAR)
        if env_value and env_value not in EXECUTOR_NAMES:
            if env_value not in _WARNED_ENV_VALUES:
                _WARNED_ENV_VALUES.add(env_value)
                warnings.warn(
                    f"ignoring malformed {EXECUTOR_ENV_VAR}={env_value!r} "
                    f"(choose from {EXECUTOR_NAMES}); using "
                    f"{DEFAULT_EXECUTOR!r}",
                    RuntimeWarning, stacklevel=2)
            env_value = None
        spec = env_value or DEFAULT_EXECUTOR
    require(isinstance(spec, str),
            f"executor must be a name or ExecutorBase, got {type(spec)}")
    return get_executor(spec)


def shutdown_executors() -> None:
    """Close every singleton executor (tests / leak checks)."""
    with _SINGLETON_LOCK:
        for ex in _SINGLETONS.values():
            ex.close()
        _SINGLETONS.clear()


__all__ = [
    "EXECUTOR_ENV_VAR",
    "DEFAULT_EXECUTOR",
    "EXECUTOR_NAMES",
    "ExecutorBase",
    "SerialExecutor",
    "ProcessExecutor",
    "ProcessPoolBroken",
    "get_executor",
    "resolve_executor",
    "effective_threads",
    "slab_workers",
    "shutdown_executors",
]
