"""Shared-memory parallel runtime (the OpenMP role in the paper's stack).

Pure scheduling logic lives in :mod:`repro.parallel.schedule` — it is used
both by the real executors and by the simulated machine, so the machine
model schedules exactly the work distribution the real runtime would.

Execution backends live in :mod:`repro.parallel.executor` (``serial``,
the default, and ``process``, selected via ``REPRO_EXECUTOR``); the
process backend is built on :mod:`repro.parallel.shm` (shared-memory array
plane), :mod:`repro.parallel.procpool` (persistent crash-tolerant worker
pool), and :mod:`repro.parallel.shm_worker` (slab task execution).
"""

from .executor import (
    DEFAULT_EXECUTOR,
    EXECUTOR_ENV_VAR,
    EXECUTOR_NAMES,
    ExecutorBase,
    ProcessExecutor,
    SerialExecutor,
    effective_threads,
    get_executor,
    resolve_executor,
    shutdown_executors,
)
from .partition import row_blocks, balanced_chunks, block_of_row
from .procpool import ProcessPool, ProcessPoolBroken, WorkerTaskError
from .schedule import (
    StaticSchedule,
    DynamicSchedule,
    GuidedSchedule,
    ScheduleOutcome,
    run_schedule,
)
from .shm import (
    ShmAllocationError,
    ShmArena,
    ShmArrayHandle,
    active_segment_names,
    stale_segment_names,
    sweep_stale_segments,
)

__all__ = [
    "row_blocks",
    "balanced_chunks",
    "block_of_row",
    "StaticSchedule",
    "DynamicSchedule",
    "GuidedSchedule",
    "ScheduleOutcome",
    "run_schedule",
    "effective_threads",
    "DEFAULT_EXECUTOR",
    "EXECUTOR_ENV_VAR",
    "EXECUTOR_NAMES",
    "ExecutorBase",
    "SerialExecutor",
    "ProcessExecutor",
    "ProcessPool",
    "ProcessPoolBroken",
    "WorkerTaskError",
    "ShmAllocationError",
    "ShmArena",
    "ShmArrayHandle",
    "active_segment_names",
    "stale_segment_names",
    "sweep_stale_segments",
    "get_executor",
    "resolve_executor",
    "shutdown_executors",
]
