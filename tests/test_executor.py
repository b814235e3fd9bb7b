"""Process-parallel executor tests: bit-identity, faults, shm hygiene.

The contract under test (ISSUE 6 / ROADMAP "process-parallel MTTKRP"):

* MTTKRP and whole fits are **bit-identical** across
  ``{serial, process}`` executors × worker counts;
* a SIGKILL-ed pool worker is respawned and its tasks resubmitted
  (batches are idempotent), still yielding the bit-identical result;
* a pool broken beyond its respawn budget makes the engine fall back to
  the serial executor with a ``GuardEvent`` — never a wrong answer;
* no ``repro_shm_*`` shared-memory segment outlives its arena.
"""

from __future__ import annotations

import os
import warnings

import numpy as np
import pytest

import repro
from repro.core.options import AOADMMOptions
from repro.kernels.dispatch import MTTKRPEngine
from repro.parallel.executor import (
    _WARNED_THREAD_VALUES,
    DEFAULT_EXECUTOR,
    EXECUTOR_ENV_VAR,
    EXECUTOR_NAMES,
    ProcessExecutor,
    SerialExecutor,
    effective_threads,
    get_executor,
    resolve_executor,
)
from repro.parallel.procpool import (
    ProcessPool,
    ProcessPoolBroken,
    WorkerTaskError,
)
from repro.parallel.shm import (
    SEGMENT_PREFIX,
    ShmArena,
    active_segment_names,
)
from repro.robustness.faults import WorkerKillPlan
from repro.tensor import COOTensor, random_coo

EXECUTORS = ("serial", "process")


def _dev_shm_segments() -> list[str]:
    try:
        return [f for f in os.listdir("/dev/shm")
                if f.startswith(SEGMENT_PREFIX)]
    except FileNotFoundError:  # pragma: no cover - non-Linux
        return []


def _factors(shape, rank=5, seed=23):
    gen = np.random.default_rng(seed)
    return [gen.standard_normal((s, rank)) for s in shape]


# ----------------------------------------------------------------------
# Bit-identity across the executor grid
# ----------------------------------------------------------------------

class TestExecutorBitIdentity:
    @pytest.mark.parametrize("threads", [1, 4])
    @pytest.mark.parametrize("allocation", ["all", "one"])
    def test_mttkrp_grid_three_modes(self, small_tensor, threads,
                                     allocation):
        factors = _factors(small_tensor.shape)
        results = {}
        for name in EXECUTORS:
            engine = MTTKRPEngine(small_tensor, threads=threads,
                                  slab_nnz_target=16, executor=name,
                                  csf_allocation=allocation)
            results[name] = [engine.mttkrp(factors, m).copy()
                             for m in range(small_tensor.nmodes)]
            engine.close()
        for name in EXECUTORS[1:]:
            for m in range(small_tensor.nmodes):
                np.testing.assert_array_equal(results["serial"][m],
                                              results[name][m])

    def test_mttkrp_grid_four_modes_internal_kernel(self, four_mode_tensor):
        # csf_allocation="one" routes non-root modes through the leaf
        # and *internal* kernels — all three offload kinds in one test.
        factors = _factors(four_mode_tensor.shape)
        results = {}
        for name in EXECUTORS:
            engine = MTTKRPEngine(four_mode_tensor, threads=4,
                                  slab_nnz_target=20, executor=name,
                                  csf_allocation="one")
            results[name] = [engine.mttkrp(factors, m).copy()
                             for m in range(four_mode_tensor.nmodes)]
            engine.close()
        for name in EXECUTORS[1:]:
            for m in range(four_mode_tensor.nmodes):
                np.testing.assert_array_equal(results["serial"][m],
                                              results[name][m])

    def test_trees_with_identical_arrays_keep_their_mode_order(self):
        # Trees rooted at the two one-wide modes have byte-identical
        # level arrays, so the arena shares one segment between them;
        # a worker that cached the first tree's mode order for the
        # second multiplied the wrong factor into mode 2.
        coords = np.array([[0, 1, 2, 3, 0], [0] * 5, [0] * 5,
                           [0, 2, 1, 2, 1]])
        tensor = COOTensor(coords, np.arange(1.0, 6.0), (4, 1, 1, 3))
        factors = _factors(tensor.shape, rank=3)
        with MTTKRPEngine(tensor, slab_nnz_target=2,
                          executor="serial") as ref_engine:
            reference = [ref_engine.mttkrp(factors, m).copy()
                         for m in range(tensor.nmodes)]
        executor = ProcessExecutor(max_workers=1)
        with MTTKRPEngine(tensor, threads=1, slab_nnz_target=2,
                          executor=executor) as engine:
            out = [engine.mttkrp(factors, m).copy()
                   for m in range(tensor.nmodes)]
        executor.close()
        for m in range(tensor.nmodes):
            np.testing.assert_array_equal(reference[m], out[m])

    def test_repeated_calls_reuse_shared_buffers(self, small_tensor):
        # Steady state: the second sweep must not map new segments.
        factors = _factors(small_tensor.shape)
        engine = MTTKRPEngine(small_tensor, threads=2, slab_nnz_target=16,
                              executor="process")
        first = [engine.mttkrp(factors, m).copy()
                 for m in range(small_tensor.nmodes)]
        mapped = engine._arena.bytes_mapped
        second = [engine.mttkrp(factors, m).copy()
                  for m in range(small_tensor.nmodes)]
        assert engine._arena.bytes_mapped == mapped
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)
        engine.close()

    def test_call_log_records_executor_and_workers(self, small_tensor):
        factors = _factors(small_tensor.shape)
        engine = MTTKRPEngine(small_tensor, threads=3, slab_nnz_target=16,
                              executor="process")
        engine.mttkrp(factors, 0)
        stats = engine.call_log[-1]
        assert stats.executor == "process"
        assert stats.workers == 3
        engine.close()

    @pytest.mark.parametrize("executor", EXECUTORS[1:])
    def test_full_fit_bit_identical(self, small_tensor, executor):
        kwargs = dict(rank=3, seed=5, max_outer_iterations=4,
                      slab_nnz_target=16, threads=4)
        baseline = repro.fit(small_tensor, executor="serial", **kwargs)
        other = repro.fit(small_tensor, executor=executor, **kwargs)
        for a, b in zip(baseline.factors, other.factors):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(baseline.trace.errors(),
                                      other.trace.errors())


# ----------------------------------------------------------------------
# Executor selection / registry
# ----------------------------------------------------------------------

class TestExecutorResolution:
    def test_names_resolve_to_singletons(self):
        assert EXECUTOR_NAMES == ("serial", "process")
        assert isinstance(get_executor("serial"), SerialExecutor)
        assert isinstance(get_executor("process"), ProcessExecutor)
        assert get_executor("serial") is get_executor("serial")

    def test_instance_resolves_to_itself(self):
        ex = SerialExecutor()
        assert resolve_executor(ex) is ex

    def test_env_var_selects_default(self, monkeypatch):
        monkeypatch.setenv(EXECUTOR_ENV_VAR, "serial")
        assert resolve_executor(None).name == "serial"
        monkeypatch.setenv(EXECUTOR_ENV_VAR, "process")
        assert resolve_executor(None).name == "process"
        monkeypatch.delenv(EXECUTOR_ENV_VAR)
        assert resolve_executor(None).name == "serial"
        assert DEFAULT_EXECUTOR == "serial"

    def test_unknown_name_rejected(self, monkeypatch):
        with pytest.raises(ValueError, match="unknown executor"):
            get_executor("gpu")
        # Explicit names raise; a malformed *environment* value only
        # warns (once per value) and falls back to the default — a shell
        # typo must not crash every library call.
        monkeypatch.setenv(EXECUTOR_ENV_VAR, "bogus")
        with pytest.warns(RuntimeWarning, match="malformed REPRO_EXECUTOR"):
            ex = resolve_executor(None)
        assert ex.name == DEFAULT_EXECUTOR
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # second resolve: no re-warn
            assert resolve_executor(None).name == DEFAULT_EXECUTOR

    def test_thread_executor_is_gone(self, monkeypatch):
        # An explicit "thread" is an unknown name; the same value in the
        # environment takes the warn-once fallback to the default.
        with pytest.raises(ValueError, match="unknown executor"):
            get_executor("thread")
        with pytest.raises(ValueError, match="unknown executor"):
            AOADMMOptions(executor="thread")
        monkeypatch.setenv(EXECUTOR_ENV_VAR, "thread")
        with pytest.warns(RuntimeWarning, match="malformed REPRO_EXECUTOR"):
            assert resolve_executor(None).name == "serial"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_executor(None).name == "serial"

    def test_options_validate_executor_name(self):
        with pytest.raises(ValueError, match="unknown executor"):
            AOADMMOptions(executor="bogus")
        assert AOADMMOptions(executor="process").executor == "process"

    @pytest.mark.parametrize("threads", [0, -3])
    def test_options_reject_non_positive_threads(self, threads):
        with pytest.raises(ValueError, match="threads"):
            AOADMMOptions(threads=threads)
        assert AOADMMOptions(threads=None).threads is None
        assert AOADMMOptions(threads=2).threads == 2

    @pytest.mark.parametrize("threads", [0, -3])
    def test_engine_rejects_non_positive_threads(self, small_tensor,
                                                 threads):
        with pytest.raises(ValueError, match="threads"):
            MTTKRPEngine(small_tensor, threads=threads)

    def test_serial_call_log_reports_one_worker(self, small_tensor):
        engine = MTTKRPEngine(small_tensor, threads=4, slab_nnz_target=16,
                              executor="serial")
        engine.mttkrp(_factors(small_tensor.shape), 0)
        assert engine.call_log[-1].workers == 1


class TestParallelForInputs:
    """The worker count sizes the slab loop, never the answer."""

    def test_single_thread_matches_multi(self, four_mode_tensor):
        # One pool worker against four, through the leaf and internal
        # kernels of a four-mode tree.
        factors = _factors(four_mode_tensor.shape)
        results = []
        for threads in (1, 4):
            executor = ProcessExecutor(max_workers=threads)
            with MTTKRPEngine(four_mode_tensor, threads=threads,
                              slab_nnz_target=20, executor=executor,
                              csf_allocation="one") as engine:
                results.append([engine.mttkrp(factors, m).copy()
                                for m in range(four_mode_tensor.nmodes)])
                assert engine.call_log[-1].workers == threads
            executor.close()
        for one, many in zip(*results):
            np.testing.assert_array_equal(one, many)


class TestEffectiveThreadsWarning:
    def test_malformed_env_warns_once_per_value(self, monkeypatch):
        monkeypatch.setenv("REPRO_NUM_THREADS", "lots")
        _WARNED_THREAD_VALUES.discard("lots")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            first = effective_threads(None)
            effective_threads(None)
        assert first == (os.cpu_count() or 1)
        runtime = [w for w in caught
                   if issubclass(w.category, RuntimeWarning)]
        assert len(runtime) == 1
        assert "REPRO_NUM_THREADS" in str(runtime[0].message)

    def test_non_positive_env_warns(self, monkeypatch):
        monkeypatch.setenv("REPRO_NUM_THREADS", "0")
        _WARNED_THREAD_VALUES.discard("0")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            effective_threads(None)
        assert any(issubclass(w.category, RuntimeWarning) for w in caught)

    def test_valid_values_do_not_warn(self, monkeypatch):
        monkeypatch.setenv("REPRO_NUM_THREADS", "3")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert effective_threads(None) == 3
        assert not caught
        assert effective_threads(5) == 5


# ----------------------------------------------------------------------
# Pool fault tolerance (real SIGKILLs)
# ----------------------------------------------------------------------

class TestProcessPoolRecovery:
    def test_worker_death_mid_batch_is_recovered(self, tmp_path):
        # die_once SIGKILLs its worker on first execution and succeeds
        # on the resubmission — respawn + resubmit must deliver every
        # result.
        marker = str(tmp_path / "died")
        with ProcessPool(2) as pool:
            payloads = [{"value": i, "marker": marker} for i in range(6)]
            out = pool.submit_batch("repro.testing.proctasks:die_once",
                                    payloads)
            assert out == list(range(6))
            assert pool.respawns >= 1
            assert pool.recovered_batches >= 1
        assert os.path.exists(marker)

    def test_kill_at_dispatch_respawns(self):
        plan = WorkerKillPlan(at_dispatch=2, kills=1)
        with ProcessPool(2, fault_plan=plan) as pool:
            first = pool.submit_batch("repro.testing.proctasks:echo",
                                      [{"value": i} for i in range(4)])
            second = pool.submit_batch("repro.testing.proctasks:echo",
                                       [{"value": i} for i in range(4)])
        assert first == second == list(range(4))
        assert plan.killed_pids
        # The dead worker is replaced as soon as the wait loop notices
        # it; with a fast batch that may land after the results, so only
        # the deterministic facts are asserted (correctness + the kill
        # really happened).  Mid-batch respawn/resubmit is pinned down
        # by test_worker_death_mid_batch_is_recovered.

    def test_all_workers_killed_breaks_pool(self):
        # Killing every worker before dispatch leaves nothing to send
        # to — deterministically broken, no timing window.
        plan = WorkerKillPlan(at_dispatch=1, kills=2)
        with ProcessPool(2, fault_plan=plan) as pool:
            with pytest.raises(ProcessPoolBroken):
                pool.submit_batch("repro.testing.proctasks:echo",
                                  [{"value": i} for i in range(4)])

    def test_dying_workers_exhaust_respawn_budget(self):
        # Every task kills its worker, so deaths outpace any budget.
        with ProcessPool(2, respawn_budget=1) as pool:
            with pytest.raises(ProcessPoolBroken):
                pool.submit_batch("repro.testing.proctasks:die",
                                  [{"value": i} for i in range(4)])

    def test_worker_exception_propagates(self):
        with ProcessPool(1) as pool:
            with pytest.raises(WorkerTaskError, match="scheduled task"):
                pool.submit_batch("repro.testing.proctasks:raise_error",
                                  [{"message": "scheduled task failure"}])


class TestEngineFaultRecovery:
    def test_killed_worker_engine_result_identical(self, small_tensor):
        factors = _factors(small_tensor.shape)
        with MTTKRPEngine(small_tensor, threads=2, slab_nnz_target=16,
                          executor="serial") as ref_engine:
            reference = [ref_engine.mttkrp(factors, m).copy()
                         for m in range(small_tensor.nmodes)]
        plan = WorkerKillPlan(at_dispatch=2, kills=1)
        executor = ProcessExecutor(max_workers=2)
        executor.fault_plan = plan
        with MTTKRPEngine(small_tensor, threads=2, slab_nnz_target=16,
                          executor=executor) as engine:
            out = [engine.mttkrp(factors, m).copy()
                   for m in range(small_tensor.nmodes)]
            assert engine.executor_name == "process"  # no fallback
        for m in range(small_tensor.nmodes):
            np.testing.assert_array_equal(reference[m], out[m])
        assert plan.killed_pids
        executor.close()

    def test_broken_pool_falls_back_to_threads(self, small_tensor):
        # The fallback runs the slabs in-process, on the calling thread.
        factors = _factors(small_tensor.shape)
        with MTTKRPEngine(small_tensor, threads=2, slab_nnz_target=16,
                          executor="serial") as ref_engine:
            reference = [ref_engine.mttkrp(factors, m).copy()
                         for m in range(small_tensor.nmodes)]
        # Killing the whole pool at dispatch is deterministic: nothing
        # is left to finish the batch, so the engine must fall back.
        plan = WorkerKillPlan(at_dispatch=1, kills=2, relentless=True)
        executor = ProcessExecutor(max_workers=2, respawn_budget=1)
        executor.fault_plan = plan
        with MTTKRPEngine(small_tensor, threads=2, slab_nnz_target=16,
                          executor=executor) as engine:
            out = [engine.mttkrp(factors, m).copy()
                   for m in range(small_tensor.nmodes)]
            assert engine.executor_name == "serial"
            assert len(engine.executor_events) == 1
            event = engine.executor_events[0]
            assert event.kind == "worker_lost"
            assert event.action == "executor_fallback"
            assert "process -> serial" in event.detail
            stats = engine.call_log[0]
            assert stats.executor == "serial"  # post-fallback truth
        for m in range(small_tensor.nmodes):
            np.testing.assert_array_equal(reference[m], out[m])
        executor.close()

    def test_fit_survives_broken_pool(self, small_tensor):
        baseline = repro.fit(small_tensor, rank=3, seed=5,
                             max_outer_iterations=3, slab_nnz_target=16,
                             executor="serial")
        plan = WorkerKillPlan(at_dispatch=1, kills=2, relentless=True)
        executor = ProcessExecutor(max_workers=2, respawn_budget=1)
        executor.fault_plan = plan
        result = repro.fit(small_tensor, rank=3, seed=5,
                           max_outer_iterations=3, slab_nnz_target=16,
                           executor=executor)
        executor.close()
        for a, b in zip(baseline.factors, result.factors):
            np.testing.assert_array_equal(a, b)
        fallbacks = [e for e in result.trace.guard_log
                     if getattr(e, "action", "") == "executor_fallback"]
        assert len(fallbacks) == 1


# ----------------------------------------------------------------------
# Shared-memory hygiene
# ----------------------------------------------------------------------

class TestShmArena:
    def test_put_group_caches_and_aligns(self):
        gen = np.random.default_rng(1)
        arrays = {"a": gen.standard_normal(37),
                  "b": np.arange(11, dtype=np.int64)}
        with ShmArena(tag="t") as arena:
            handles = arena.put_group("g", arrays)
            assert arena.put_group("g", arrays) is handles  # cached
            assert len({h.segment for h in handles.values()}) == 1
            for h in handles.values():
                assert h.offset % 64 == 0
            for name, arr in arrays.items():
                np.testing.assert_array_equal(
                    arena._arrays[("group", "g", name)], arr)

    def test_update_reallocates_under_fresh_name(self):
        with ShmArena(tag="t") as arena:
            h1 = arena.update("f", np.zeros(8))
            h2 = arena.update("f", np.ones(8))
            assert h1.segment == h2.segment  # same shape: reused in place
            h3 = arena.update("f", np.ones(16))
            assert h3.segment != h1.segment  # resize: fresh unique name
            assert h1.segment not in arena.segment_names()

    def test_close_unlinks_everything(self):
        arena = ShmArena(tag="t")
        arena.update("x", np.zeros(32))
        names = arena.segment_names()
        assert names and all(n in _dev_shm_segments() for n in names)
        arena.close()
        arena.close()  # idempotent
        assert arena.segment_names() == []
        assert not any(n in _dev_shm_segments() for n in names)


class TestNoSegmentLeaks:
    def test_engine_close_releases_all_segments(self, small_tensor):
        factors = _factors(small_tensor.shape)
        engine = MTTKRPEngine(small_tensor, threads=2, slab_nnz_target=16,
                              executor="process")
        for m in range(small_tensor.nmodes):
            engine.mttkrp(factors, m)
        created = engine._arena.segment_names()
        assert created  # the offload really used shared memory
        engine.close()
        leftover = set(created) & set(_dev_shm_segments())
        assert not leftover
        assert not set(created) & set(active_segment_names())
