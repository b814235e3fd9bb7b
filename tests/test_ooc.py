"""Out-of-core streaming: slab cache, streamer, engine, and fits.

The load-bearing contract everywhere: residency decisions (budget,
eviction order, prefetch timing) are **bit-invisible** — every factor,
MTTKRP result, and trace must equal the in-core run bitwise.
"""

import glob
import tempfile
import threading

import numpy as np
import pytest

import repro
from repro.core.aoadmm import fit_aoadmm
from repro.core.options import AOADMMOptions
from repro.kernels.dispatch import (
    MTTKRPEngine,
    StreamingMTTKRPEngine,
    make_engine,
)
from repro.observability import Observability
from repro.parallel.shm import ShmArena
from repro.tensor import (
    CSFTensor,
    ShardedTensorStore,
    SlabCache,
    SlabStreamer,
    open_tensor,
    random_coo,
)
from repro.tensor import ooc
from repro.tensor.random import random_factors

RANK = 4


@pytest.fixture
def tensor():
    return random_coo((30, 25, 20), 500, seed=42)


@pytest.fixture
def store(tmp_path, tensor):
    return ShardedTensorStore.create(tensor, tmp_path / "store",
                                     slab_nnz_target=64)


@pytest.fixture
def factors(tensor):
    return random_factors(tensor.shape, RANK, seed=5)


def _incore_mttkrp(tensor, factors):
    engine = MTTKRPEngine(tensor, repr_policy="dense")
    engine.trees.build_all()
    try:
        return [np.array(engine.mttkrp(factors, m), copy=True)
                for m in range(tensor.nmodes)]
    finally:
        engine.close()


# ---------------------------------------------------------------------------
# streaming kernel bit-identity
# ---------------------------------------------------------------------------

class TestStreamingBitIdentity:
    @pytest.mark.parametrize("budget", [None, 4096, 1])
    def test_matches_in_core_every_mode(self, store, tensor, factors,
                                        budget):
        expected = _incore_mttkrp(tensor, factors)
        with StreamingMTTKRPEngine(store, max_bytes_in_core=budget) as eng:
            for mode in range(tensor.nmodes):
                np.testing.assert_array_equal(
                    eng.mttkrp(factors, mode), expected[mode])

    # Who reads the slabs: the calling thread alone ("serial") or, one
    # slab ahead, the shared prefetch thread ("thread").
    @pytest.mark.parametrize("prefetch", [False, True],
                             ids=["serial", "thread"])
    def test_matches_under_prefetch_executors(self, store, tensor,
                                              factors, prefetch):
        expected = _incore_mttkrp(tensor, factors)
        eng = StreamingMTTKRPEngine(store, max_bytes_in_core=8192,
                                    prefetch=prefetch)
        try:
            # Two sweeps: the second hits whatever stayed resident.
            for _ in range(2):
                for mode in range(tensor.nmodes):
                    np.testing.assert_array_equal(
                        eng.mttkrp(factors, mode), expected[mode])
        finally:
            eng.close()

    def test_churn_budget_below_one_slab(self, store, tensor, factors):
        """A starvation budget degrades to load-evict churn, not failure."""
        expected = _incore_mttkrp(tensor, factors)
        with StreamingMTTKRPEngine(store, max_bytes_in_core=1) as eng:
            for mode in range(tensor.nmodes):
                np.testing.assert_array_equal(
                    eng.mttkrp(factors, mode), expected[mode])
            stats = eng.cache.stats()
            assert stats["evictions"] > 0
            assert stats["resident_count"] == 1  # never below one slab

    def test_unbounded_budget_keeps_everything(self, store, tensor,
                                               factors, monkeypatch):
        monkeypatch.delenv("REPRO_MAX_BYTES_IN_CORE", raising=False)
        with StreamingMTTKRPEngine(store) as eng:
            for mode in range(tensor.nmodes):
                eng.mttkrp(factors, mode)
            assert eng.cache.stats()["evictions"] == 0
            assert len(eng.cache) == sum(
                store.slab_count(m) for m in range(store.nmodes))
            # A second sweep is all hits, zero loads.
            loads = eng.cache.loads
            eng.mttkrp(factors, 0)
            assert eng.cache.loads == loads

    def test_call_log_records_streaming(self, store, factors):
        with StreamingMTTKRPEngine(store, max_bytes_in_core=4096) as eng:
            eng.mttkrp(factors, 1)
            [stats] = eng.call_log
            assert stats.mode == 1
            assert stats.slab_count == store.slab_count(1)

    def test_rejects_sparse_repr_policy(self, store):
        with pytest.raises(ValueError, match="dense"):
            StreamingMTTKRPEngine(store, repr_policy="csr")


class TestMakeEngine:
    def test_store_gets_streaming_engine(self, store):
        eng = make_engine(store)
        assert isinstance(eng, StreamingMTTKRPEngine)
        # Engine inherits the store's budget when not given one.
        store.max_bytes_in_core = 1234
        assert make_engine(store).max_bytes_in_core == 1234

    def test_sparse_policy_degrades_to_dense_with_warning(self, store):
        with pytest.warns(RuntimeWarning, match="dense factors"):
            eng = make_engine(store, repr_policy="auto")
        assert isinstance(eng, StreamingMTTKRPEngine)

    def test_coo_gets_in_core_engine(self, tensor, factors):
        eng = make_engine(tensor)
        assert isinstance(eng, MTTKRPEngine)
        eng.mttkrp(factors, 0)  # trees pre-built by make_engine

    def test_csf_converts_through_coo(self, tensor, factors):
        expected = _incore_mttkrp(tensor, factors)
        eng = make_engine(CSFTensor.from_coo(tensor))
        np.testing.assert_array_equal(eng.mttkrp(factors, 0), expected[0])


# ---------------------------------------------------------------------------
# SlabCache / SlabStreamer units
# ---------------------------------------------------------------------------

class TestSlabCache:
    def test_lru_order_and_eviction(self):
        cache = SlabCache(max_bytes_in_core=30)
        for i in range(3):
            cache.put((0, i), f"slab{i}", 10)
        assert cache.resident_keys() == [(0, 0), (0, 1), (0, 2)]
        # Touch the oldest: refreshes recency.
        assert cache.get((0, 0), lambda: None, 10) == "slab0"
        assert cache.resident_keys() == [(0, 1), (0, 2), (0, 0)]
        # Over budget: evicts LRU-first, i.e. (0, 1).
        cache.put((0, 3), "slab3", 10)
        assert (0, 1) not in cache
        assert cache.resident_bytes == 30
        assert cache.evictions == 1

    def test_never_evicts_last_touched(self):
        cache = SlabCache(max_bytes_in_core=5)
        cache.put((0, 0), "big", 100)
        assert len(cache) == 1  # alone over budget: stays
        cache.put((0, 1), "bigger", 200)
        assert cache.resident_keys() == [(0, 1)]

    def test_counters_and_stats(self):
        cache = SlabCache()
        assert cache.get((1, 0), lambda: "x", 7) == "x"
        assert cache.get((1, 0), lambda: "y", 7) == "x"  # hit, not reload
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["loads"] == 1
        assert stats["resident_bytes"] == 7
        assert stats["peak_resident_bytes"] == 7

    def test_clear_keeps_counter_totals(self):
        cache = SlabCache()
        cache.get((0, 0), lambda: "x", 3)
        cache.clear()
        assert len(cache) == 0
        assert cache.resident_bytes == 0
        assert cache.loads == 1

    def test_rejects_non_positive_budget(self):
        with pytest.raises(ValueError, match="positive"):
            SlabCache(max_bytes_in_core=0)


class TestSlabStreamer:
    def test_streams_in_index_order(self, store):
        cache = SlabCache()
        streamer = SlabStreamer(store, cache)
        indices = [slab.index for slab in streamer.iter_mode(0)]
        assert indices == list(range(store.slab_count(0)))

    def test_prefetch_counts_with_executor(self, store):
        cache = SlabCache()
        streamer = SlabStreamer(store, cache, prefetch=True)
        list(streamer.iter_mode(0))
        assert streamer.prefetches == store.slab_count(0) - 1
        # Fully resident now: a second sweep prefetches nothing.
        list(streamer.iter_mode(0))
        assert streamer.prefetches == store.slab_count(0) - 1
        assert cache.hits == store.slab_count(0)

    def test_prefetch_false_means_no_prefetch(self, store):
        streamer = SlabStreamer(store, SlabCache(), prefetch=False)
        list(streamer.iter_mode(0))
        assert streamer.prefetches == 0

    def test_no_executor_means_no_prefetch(self, store, monkeypatch):
        # A prefetch thread that takes no more work (interpreter
        # teardown) counts no prefetch; every slab loads synchronously.
        monkeypatch.setattr(ooc, "_submit_prefetch", lambda *args: None)
        cache = SlabCache()
        streamer = SlabStreamer(store, cache, prefetch=True)
        indices = [slab.index for slab in streamer.iter_mode(0)]
        assert indices == list(range(store.slab_count(0)))
        assert streamer.prefetches == 0
        assert cache.loads == store.slab_count(0)

    @pytest.mark.parametrize("prefetch", [False, True])
    def test_prefetched_loads_run_off_the_main_thread(self, store,
                                                      monkeypatch,
                                                      prefetch):
        # The overlap the streaming engine relies on: with prefetch on,
        # every slab after the first is read on the prefetch thread.
        loaded_on = {}
        load = type(store).load_slab

        def spy(self, mode, index):
            loaded_on[index] = threading.current_thread()
            return load(self, mode, index)

        monkeypatch.setattr(type(store), "load_slab", spy)
        slabs = list(SlabStreamer(store, SlabCache(),
                                  prefetch=prefetch).iter_mode(0))
        assert [s.index for s in slabs] == list(range(len(slabs)))
        assert len(slabs) > 1
        main = threading.main_thread()
        assert loaded_on[0] is main
        for index in range(1, len(slabs)):
            assert (loaded_on[index] is not main) == prefetch


# ---------------------------------------------------------------------------
# whole fits out of core
# ---------------------------------------------------------------------------

class TestFitOutOfCore:
    def test_fit_bitwise_under_quarter_budget(self, tensor, tmp_path):
        in_core = repro.fit(tensor, rank=RANK, seed=0,
                            max_outer_iterations=5)
        store = ShardedTensorStore.create(tensor, tmp_path / "s",
                                          slab_nnz_target=64)
        budget = store.storage_bytes() // 5  # < 25% of the footprint
        assert budget >= 1
        store.max_bytes_in_core = budget
        ooc = repro.fit(store, rank=RANK, seed=0, max_outer_iterations=5)
        for a, b in zip(in_core.factors, ooc.factors):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(in_core.trace.errors(),
                                      ooc.trace.errors())

    def test_fit_bitwise_under_churn_budget(self, tensor, tmp_path):
        """Budget below a single slab: maximal eviction churn, same bits."""
        in_core = repro.fit(tensor, rank=RANK, seed=0,
                            max_outer_iterations=3)
        store = ShardedTensorStore.create(tensor, tmp_path / "s",
                                          slab_nnz_target=64)
        store.max_bytes_in_core = 1
        ooc = repro.fit(store, rank=RANK, seed=0, max_outer_iterations=3)
        for a, b in zip(in_core.factors, ooc.factors):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(in_core.trace.errors(),
                                      ooc.trace.errors())

    def test_fit_observes_slab_metrics(self, tensor, tmp_path):
        store = ShardedTensorStore.create(tensor, tmp_path / "s",
                                          slab_nnz_target=64)
        budget = store.storage_bytes() // 5
        store.max_bytes_in_core = budget
        result = repro.fit(store, rank=RANK, seed=0,
                           max_outer_iterations=3, observe=True)
        counters = result.metrics["counters"]
        assert any(k.startswith("slab_loads") for k in counters)
        assert any(k.startswith("slab_evictions") for k in counters)
        gauges = result.metrics["gauges"]
        assert any(k.startswith("slab_resident_bytes") for k in gauges)

    def test_checkpoint_interop_in_core_to_store(self, tensor, tmp_path):
        """A checkpoint from an in-core run resumes on the sharded store."""
        path = tmp_path / "ck.npz"
        opts = dict(rank=RANK, seed=0, constraints="nonneg")
        fit_aoadmm(tensor, AOADMMOptions(max_outer_iterations=2,
                                         checkpoint_every=2,
                                         checkpoint_path=path, **opts))
        full = fit_aoadmm(tensor,
                          AOADMMOptions(max_outer_iterations=4, **opts))
        store = ShardedTensorStore.create(tensor, tmp_path / "s",
                                          slab_nnz_target=64)
        store.max_bytes_in_core = 4096
        resumed = fit_aoadmm(store,
                             AOADMMOptions(max_outer_iterations=4, **opts),
                             resume_from=path)
        for a, b in zip(full.model.factors, resumed.model.factors):
            np.testing.assert_array_equal(a, b)

    def test_wrong_store_rejected_on_resume(self, tensor, tmp_path):
        path = tmp_path / "ck.npz"
        opts = dict(rank=RANK, seed=0)
        fit_aoadmm(tensor, AOADMMOptions(max_outer_iterations=2,
                                         checkpoint_every=2,
                                         checkpoint_path=path, **opts))
        other = random_coo((30, 25, 20), 500, seed=43)
        store = ShardedTensorStore.create(other, tmp_path / "s")
        with pytest.raises(ValueError, match="different tensor"):
            fit_aoadmm(store, AOADMMOptions(max_outer_iterations=3, **opts),
                       resume_from=path)

    def test_no_leaked_temp_shards(self, tensor, tmp_path):
        pattern = tempfile.gettempdir() + "/repro_shards_*"
        before = set(glob.glob(pattern))
        with open_tensor(tensor, max_bytes_in_core=4096) as store:
            repro.fit(store, rank=3, seed=0, max_outer_iterations=2)
        assert set(glob.glob(pattern)) == before


# ---------------------------------------------------------------------------
# ShmArena byte accounting (budgets must compose with shard residency)
# ---------------------------------------------------------------------------

class TestShmArenaAccounting:
    def test_bytes_live_tracks_segments(self):
        with ShmArena(tag="t") as arena:
            assert arena.bytes_live == 0
            arena.put_group("g", {"a": np.zeros(100)})
            assert arena.bytes_live > 0
            assert arena.billable_bytes() == arena.bytes_live
        assert arena.bytes_live == 0

    def test_content_addressed_dedup_shares_segment(self):
        gen = np.random.default_rng(3)
        arrays = {"a": gen.standard_normal(64)}
        with ShmArena(tag="t") as arena:
            h1 = arena.put_group("g1", arrays)
            live_one = arena.bytes_live
            h2 = arena.put_group("g2", {k: v.copy()
                                        for k, v in arrays.items()})
            assert h2["a"].segment == h1["a"].segment  # byte-identical
            assert arena.bytes_live == live_one  # no second mapping
            np.testing.assert_array_equal(arena.array(("group", "g2", "a")),
                                          arrays["a"])

    def test_drop_group_refcounts_shared_segment(self):
        arrays = {"a": np.arange(32, dtype=np.float64)}
        with ShmArena(tag="t") as arena:
            h1 = arena.put_group("g1", arrays)
            arena.put_group("g2", arrays)
            seg = h1["a"].segment
            arena.drop_group("g1")
            assert seg in arena.segment_names()  # g2 still holds it
            assert arena.bytes_live > 0
            arena.drop_group("g2")
            assert seg not in arena.segment_names()
            assert arena.bytes_live == 0

    def test_distinct_content_gets_own_segment(self):
        with ShmArena(tag="t") as arena:
            h1 = arena.put_group("g1", {"a": np.zeros(32)})
            h2 = arena.put_group("g2", {"a": np.ones(32)})
            assert h1["a"].segment != h2["a"].segment

    def test_shard_resident_bytes_excluded_from_billable(self):
        with ShmArena(tag="t") as arena:
            h = arena.put_group("g", {"a": np.zeros(128)})
            total = arena.bytes_live
            seg_size = arena._segments[h["a"].segment].size
            arena.mark_shard_resident("g")
            assert arena.shard_resident_bytes == seg_size
            assert arena.billable_bytes() == total - seg_size
            arena.mark_shard_resident("g", resident=False)
            assert arena.shard_resident_bytes == 0
            assert arena.billable_bytes() == total
