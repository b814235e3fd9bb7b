"""Executor sweep for the slab-tiled MTTKRP: serial vs process.

The slab kernels are small-op Python/NumPy loops that never let go of
the GIL, so threads cannot run them side by side (the thread executor
that once sat between these two measured 0.76–0.93× serial and was
deleted).  This benchmark times the tiled MTTKRP under the two execution
backends and records what each costs, at two points:

* ``reddit/small`` at a fine 1024-nnz slab plan, ``serial`` vs
  ``process`` at 1/2/4 workers: per-call latency (per mode and
  whole-sweep means), speedup over serial, and the process executor's
  fixed costs — pool spawn seconds, bytes mapped into shared memory,
  first-call (cold) latency vs steady-state;
* ``reddit/medium`` at the engine-default slab plan
  (:data:`repro.config.DEFAULT_SLAB_NNZ`), ``serial`` vs ``process`` at
  2 workers: the median of :data:`MEDIUM_SWEEPS` whole sweeps, run in
  both orders, with one engine alive at a time.

The JSON artifact is written to ``benchmarks/results/`` like every
other benchmark (see ``benchmarks/README.md``); a compatibility symlink
``BENCH_mttkrp_executor.json`` is refreshed at the repo root for older
tooling that diffed it there.  Bit-identity across executors is
asserted inline — a benchmark that silently computed different numbers
would be measuring the wrong thing.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.datasets import load_dataset
from repro.kernels import MTTKRPEngine
from repro.parallel.executor import ProcessExecutor

from conftest import BENCH_SEED, save_artifact

REPO_ROOT = Path(__file__).resolve().parent.parent

RANK = 16
ROUNDS = 5
#: A fine slab decomposition of reddit/small (139 slabs).
SLAB_TARGET = 1024
#: (executor, workers) grid; serial has no worker knob.
CONFIGS = (("serial", 1),
           ("process", 1), ("process", 2), ("process", 4))
#: The medium point: timed sweeps per engine, the process workers, and
#: the engine order (both orders, so neither executor always runs on a
#: warmer machine).
MEDIUM_SWEEPS = 8
MEDIUM_WORKERS = 2
MEDIUM_ORDER = ("serial", "process", "process", "serial")


def _sweep_config(tensor, factors, executor_name: str,
                  workers: int) -> tuple[dict, list[np.ndarray]]:
    nmodes = tensor.nmodes
    # A private ProcessExecutor per config isolates the pool so spawn
    # cost is measured per worker count, not amortized across configs.
    executor = (ProcessExecutor(max_workers=workers)
                if executor_name == "process" else executor_name)
    engine = MTTKRPEngine(tensor, slab_nnz_target=SLAB_TARGET,
                          threads=workers, executor=executor)
    try:
        cold_tick = time.perf_counter()
        outputs = [np.array(engine.mttkrp(factors, mode), copy=True)
                   for mode in range(nmodes)]
        cold_sweep_seconds = time.perf_counter() - cold_tick
        warm_calls = len(engine.call_log)

        tick = time.perf_counter()
        for _ in range(ROUNDS):
            for mode in range(nmodes):
                engine.mttkrp(factors, mode)
        total_seconds = time.perf_counter() - tick

        steady = engine.call_log[warm_calls:]
        per_mode = {
            str(mode): float(np.mean([s.seconds for s in steady
                                      if s.mode == mode]))
            for mode in range(nmodes)
        }
        arena = engine._arena
        pool = executor._pool if isinstance(executor, ProcessExecutor) \
            else None
        shm_bytes = arena.bytes_mapped if arena is not None else 0
        spawn_seconds = pool.spawn_seconds if pool is not None else 0.0
        slab_counts = [engine.tiling(m).slab_count
                       for m in range(nmodes)]
        close_tick = time.perf_counter()
        engine.close()
        if isinstance(executor, ProcessExecutor):
            executor.close()
        teardown_seconds = time.perf_counter() - close_tick
        config = {
            "executor": executor_name,
            "workers": workers,
            "slab_counts": slab_counts,
            "cold_sweep_seconds": cold_sweep_seconds,
            "mean_sweep_seconds": total_seconds / ROUNDS,
            "per_mode_mean_seconds": per_mode,
            "overhead": {
                "pool_spawn_seconds": spawn_seconds,
                "shm_bytes_mapped": shm_bytes,
                "teardown_seconds": teardown_seconds,
            },
        }
        return config, outputs
    finally:
        engine.close()
        if isinstance(executor, ProcessExecutor):
            executor.close()


@pytest.fixture(scope="module")
def executor_setup(small_datasets):
    tensor = small_datasets["reddit"]
    rng = np.random.default_rng(BENCH_SEED)
    factors = [rng.uniform(0.0, 1.0, (s, RANK)) for s in tensor.shape]
    return tensor, factors


def _medium_sweeps(tensor, factors, executor_name: str
                   ) -> tuple[list[float], list[np.ndarray]]:
    """Timed whole sweeps of one engine, closed before returning."""
    executor = (ProcessExecutor(max_workers=MEDIUM_WORKERS)
                if executor_name == "process" else executor_name)
    engine = MTTKRPEngine(tensor, threads=MEDIUM_WORKERS,
                          executor=executor)
    try:
        # Untimed warm-up: trees, tilings, workspaces, pool spawn and
        # shared-memory mapping all happen here.
        outputs = [np.array(engine.mttkrp(factors, mode), copy=True)
                   for mode in range(tensor.nmodes)]
        seconds = []
        for _ in range(MEDIUM_SWEEPS):
            tick = time.perf_counter()
            for mode in range(tensor.nmodes):
                engine.mttkrp(factors, mode)
            seconds.append(time.perf_counter() - tick)
        return seconds, outputs
    finally:
        engine.close()
        if isinstance(executor, ProcessExecutor):
            executor.close()


def _medium_point() -> dict:
    tensor = load_dataset("reddit", "medium", seed=BENCH_SEED)[0]
    rng = np.random.default_rng(BENCH_SEED)
    factors = [rng.uniform(0.0, 1.0, (s, RANK)) for s in tensor.shape]
    runs: dict[str, list[float]] = {"serial": [], "process": []}
    reference = None
    for name in MEDIUM_ORDER:
        seconds, outputs = _medium_sweeps(tensor, factors, name)
        runs[name].extend(seconds)
        if reference is None:
            reference = outputs
        for base, other in zip(reference, outputs):
            np.testing.assert_array_equal(base, other)
    median = {name: float(np.median(s)) for name, s in runs.items()}
    return {
        "dataset": "reddit/medium",
        "shape": list(tensor.shape),
        "nnz": tensor.nnz,
        "rank": RANK,
        "slab_plan": "engine default",
        "workers": MEDIUM_WORKERS,
        "sweeps_per_engine": MEDIUM_SWEEPS,
        "order": list(MEDIUM_ORDER),
        "sweep_seconds": runs,
        "median_sweep_seconds": median,
        "process_speedup_over_serial":
            median["serial"] / median["process"],
        "bit_identical": True,
    }


def test_bench_mttkrp_executor(executor_setup, results_dir):
    tensor, factors = executor_setup
    configs: list[dict] = []
    baseline_outputs: list[np.ndarray] | None = None
    serial_mean = None
    for executor_name, workers in CONFIGS:
        cfg, outputs = _sweep_config(tensor, factors, executor_name,
                                     workers)
        if baseline_outputs is None:
            baseline_outputs = outputs
            serial_mean = cfg["mean_sweep_seconds"]
        else:
            # Bit-identity is the contract the whole executor layer
            # rests on; a benchmark of divergent results is meaningless.
            for base, other in zip(baseline_outputs, outputs):
                np.testing.assert_array_equal(base, other)
        cfg["speedup_over_serial"] = serial_mean / cfg["mean_sweep_seconds"]
        configs.append(cfg)

    payload = {
        "benchmark": "mttkrp_executor",
        "cpu_count": os.cpu_count(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "dataset": "reddit/small",
        "shape": list(tensor.shape),
        "nnz": tensor.nnz,
        "rank": RANK,
        "rounds": ROUNDS,
        "slab_nnz_target": SLAB_TARGET,
        "bit_identical_across_executors": True,
        "configs": configs,
        "medium": _medium_point(),
    }
    json_path = results_dir / "BENCH_mttkrp_executor.json"
    json_path.write_text(json.dumps(payload, indent=2) + "\n")
    # Compatibility symlink: the artifact used to live at the repo root.
    legacy = REPO_ROOT / "BENCH_mttkrp_executor.json"
    if legacy.is_symlink() or legacy.exists():
        legacy.unlink()
    try:
        legacy.symlink_to(json_path.relative_to(REPO_ROOT))
    except OSError:  # filesystems without symlink support
        legacy.write_text(json_path.read_text())

    lines = ["MTTKRP executor sweep (reddit/small, "
             f"nnz={tensor.nnz}, rank={RANK}, "
             f"slab target {SLAB_TARGET})",
             f"{'executor':>9} {'workers':>8} {'sweep ms':>10} "
             f"{'speedup':>8} {'spawn ms':>9} {'shm MiB':>8}"]
    for cfg in configs:
        over = cfg["overhead"]
        lines.append(
            f"{cfg['executor']:>9} {cfg['workers']:>8} "
            f"{cfg['mean_sweep_seconds'] * 1e3:>10.2f} "
            f"{cfg['speedup_over_serial']:>8.2f} "
            f"{over['pool_spawn_seconds'] * 1e3:>9.2f} "
            f"{over['shm_bytes_mapped'] / 2**20:>8.2f}")
    medium = payload["medium"]
    lines += ["",
              f"reddit/medium (nnz={medium['nnz']}, rank={RANK}, "
              f"engine-default slab plan), median of "
              f"{2 * MEDIUM_SWEEPS} sweeps per executor",
              f"{'executor':>9} {'workers':>8} {'sweep ms':>10} "
              f"{'speedup':>8}"]
    for name, workers in (("serial", 1), ("process", MEDIUM_WORKERS)):
        sweep = medium["median_sweep_seconds"][name]
        lines.append(
            f"{name:>9} {workers:>8} {sweep * 1e3:>10.2f} "
            f"{medium['median_sweep_seconds']['serial'] / sweep:>8.2f}")
    lines.append(f"[json saved to {json_path}]")
    save_artifact(results_dir, "bench_mttkrp_executor", "\n".join(lines))
