"""Loop schedules and their deterministic makespan computation.

Mirrors OpenMP's ``static`` / ``dynamic`` / ``guided`` loop schedules for
the machine model, which replays the schedule against per-item durations
to compute the parallel makespan of a kernel (Figures 4 and 5).

The paper uses OpenMP ``dynamic`` over blocks for blocked ADMM ("we cannot
statically distribute blocks and instead dynamically load balance ... at
block-level granularity").
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from ..validation import require


@dataclass(frozen=True)
class StaticSchedule:
    """Pre-assigned contiguous chunks, one round-robin pass (OpenMP static).

    ``chunk_size = 0`` means "divide evenly": ceil(n / threads) per thread.
    """

    chunk_size: int = 0
    name: str = "static"

    def chunks(self, n_items: int, threads: int) -> list[tuple[int, int]]:
        size = self.chunk_size or -(-n_items // max(threads, 1))
        size = max(size, 1)
        return [(s, min(s + size, n_items)) for s in range(0, n_items, size)]


@dataclass(frozen=True)
class DynamicSchedule:
    """First-free-thread-takes-next-chunk (OpenMP dynamic)."""

    chunk_size: int = 1
    name: str = "dynamic"

    def chunks(self, n_items: int, threads: int) -> list[tuple[int, int]]:
        size = max(self.chunk_size, 1)
        return [(s, min(s + size, n_items)) for s in range(0, n_items, size)]


@dataclass(frozen=True)
class GuidedSchedule:
    """Exponentially shrinking chunks (OpenMP guided)."""

    min_chunk: int = 1
    name: str = "guided"

    def chunks(self, n_items: int, threads: int) -> list[tuple[int, int]]:
        out: list[tuple[int, int]] = []
        start = 0
        remaining = n_items
        threads = max(threads, 1)
        while remaining > 0:
            size = max(remaining // (2 * threads), self.min_chunk)
            size = min(size, remaining)
            out.append((start, start + size))
            start += size
            remaining -= size
        return out


Schedule = StaticSchedule | DynamicSchedule | GuidedSchedule


@dataclass(frozen=True)
class ScheduleOutcome:
    """Result of replaying a schedule against per-item durations."""

    makespan: float
    per_thread_busy: tuple[float, ...]
    n_chunks: int

    @property
    def imbalance(self) -> float:
        """max busy / mean busy — 1.0 is perfectly balanced."""
        busy = np.asarray(self.per_thread_busy)
        mean = busy.mean() if busy.size else 0.0
        return float(busy.max() / mean) if mean > 0 else 1.0


def run_schedule(durations: np.ndarray, threads: int,
                 schedule: Schedule,
                 per_chunk_overhead: float = 0.0) -> ScheduleOutcome:
    """Deterministically replay *schedule* and return its makespan.

    ``durations[i]`` is the execution time of item ``i``.  Static chunks
    are dealt round-robin; dynamic/guided chunks are claimed by the
    earliest-finishing thread (an event-driven replay using a heap).
    ``per_chunk_overhead`` models the scheduler handshake (atomic fetch of
    the next chunk) — the cost that makes block size 1 suboptimal in
    Section IV-B.
    """
    durations = np.asarray(durations, dtype=np.float64)
    require(threads >= 1, "need at least one thread")
    n = durations.shape[0]
    chunks = schedule.chunks(n, threads)
    chunk_costs = [durations[a:b].sum() + per_chunk_overhead
                   for a, b in chunks]

    busy = np.zeros(threads, dtype=np.float64)
    if isinstance(schedule, StaticSchedule):
        for idx, cost in enumerate(chunk_costs):
            busy[idx % threads] += cost
        makespan = float(busy.max()) if n else 0.0
        return ScheduleOutcome(makespan, tuple(busy), len(chunks))

    # Dynamic/guided: chunks claimed in order by the earliest-free thread.
    heap = [(0.0, t) for t in range(threads)]
    heapq.heapify(heap)
    for cost in chunk_costs:
        free_at, thread = heapq.heappop(heap)
        free_at += cost
        busy[thread] += cost
        heapq.heappush(heap, (free_at, thread))
    makespan = max(free_at for free_at, _ in heap) if n else 0.0
    return ScheduleOutcome(float(makespan), tuple(busy), len(chunks))
