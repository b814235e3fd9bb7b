"""Tests for the observability substrate and the ``repro.fit`` façade."""

import re
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import repro
from repro.observability import (
    ITERATION_BUCKETS,
    MetricsRegistry,
    Observability,
    StageClock,
    Stopwatch,
    current_span_path,
    empty_snapshot,
    render_key,
    span,
)
from repro.observability.export import (
    parse_key,
    prometheus_text,
    read_jsonl,
    report,
    write_jsonl,
)
from repro.observability.state import set_active_registry
from repro.tensor import noisy_lowrank_coo


@pytest.fixture
def registry():
    """A fresh enabled registry installed as the active one."""
    reg = MetricsRegistry(enabled=True)
    previous = set_active_registry(reg)
    try:
        yield reg
    finally:
        set_active_registry(previous)


def small_tensor():
    tensor, _ = noisy_lowrank_coo((25, 20, 15), rank=3, nnz=1500, seed=7)
    return tensor


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

class TestRegistry:
    def test_counter_gauge_histogram_snapshot(self, registry):
        registry.counter("calls", mode=0).inc()
        registry.counter("calls", mode=0).inc(2)
        registry.counter("calls", mode=1).inc()
        registry.gauge("ratio").set(0.25)
        h = registry.histogram("iters", buckets=ITERATION_BUCKETS)
        for v in (1, 2, 50):
            h.observe(v)

        snap = registry.snapshot()
        assert snap["counters"][render_key("calls", {"mode": 0})] == 3
        assert snap["counters"][render_key("calls", {"mode": 1})] == 1
        assert snap["gauges"]["ratio"] == 0.25
        hist = snap["histograms"]["iters"]
        assert hist["count"] == 3
        assert hist["sum"] == 53
        assert hist["min"] == 1 and hist["max"] == 50

    def test_reset_clears_everything(self, registry):
        registry.counter("c").inc()
        registry.gauge("g").set(1.0)
        registry.histogram("h").observe(0.5)
        registry.reset()
        assert registry.snapshot() == empty_snapshot()

    def test_snapshot_is_a_copy(self, registry):
        registry.counter("c").inc()
        snap = registry.snapshot()
        registry.counter("c").inc()
        assert snap["counters"]["c"] == 1

    def test_disabled_registry_returns_noops(self):
        reg = MetricsRegistry(enabled=False)
        reg.counter("c").inc()
        reg.gauge("g").set(3.0)
        reg.histogram("h").observe(1.0)
        assert reg.snapshot() == empty_snapshot()

    def test_histogram_bucket_edges(self, registry):
        h = registry.histogram("h", buckets=(1, 2, 5))
        for v in (1, 2, 3, 10):
            h.observe(v)
        hist = registry.snapshot()["histograms"]["h"]
        # le-1, le-2, le-5, +inf
        assert hist["counts"] == [1, 1, 1, 1]


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------

class TestSpans:
    def test_nesting_builds_paths(self, registry):
        with span("outer"):
            assert current_span_path() == "outer"
            with span("inner"):
                assert current_span_path() == "outer/inner"
            assert current_span_path() == "outer"
        assert current_span_path() is None

        keys = registry.snapshot()["histograms"]
        assert any("span=outer" in k for k in keys)
        assert any("span=outer/inner" in k for k in keys)

    def test_span_nesting_across_thread_pool(self, registry):
        """Pool worker threads keep independent nesting stacks."""
        barrier = threading.Barrier(4)

        def work(i):
            with span("worker"):
                barrier.wait(timeout=10)  # all four stacks open at once
                with span("step"):
                    return i, current_span_path()

        with span("parent"):
            with ThreadPoolExecutor(max_workers=4) as pool:
                results = list(pool.map(work, range(4)))
            assert current_span_path() == "parent"
        assert results == [(i, "worker/step") for i in range(4)]
        hists = registry.snapshot()["histograms"]
        key = next(k for k in hists if "span=worker/step" in k)
        assert hists[key]["count"] == 4

    def test_disabled_span_is_shared_noop(self):
        reg = MetricsRegistry(enabled=False)
        previous = set_active_registry(reg)
        try:
            a = span("x")
            b = span("y")
            assert a is b  # the shared NULL_SPAN — no allocation
            with a:
                assert current_span_path() is None
        finally:
            set_active_registry(previous)


# ---------------------------------------------------------------------------
# timing substrate (always-on, feeds the trace)
# ---------------------------------------------------------------------------

class TestClocks:
    def test_stopwatch_measures(self):
        with Stopwatch() as w:
            time.sleep(0.001)
        assert w.seconds > 0.0

    def test_stageclock_accumulates_when_disabled(self):
        """Trace timing must work regardless of observability state."""
        reg = MetricsRegistry(enabled=False)
        previous = set_active_registry(reg)
        try:
            clock = StageClock()
            with clock.stage("mttkrp"):
                pass
            with clock.stage("mttkrp"):
                pass
            with clock.stage("admm"):
                pass
            assert set(clock.totals()) == {"mttkrp", "admm"}
            assert clock.seconds("mttkrp") >= 0.0
            clock.reset()
            assert clock.totals() == {}
        finally:
            set_active_registry(previous)


# ---------------------------------------------------------------------------
# disabled-mode overhead
# ---------------------------------------------------------------------------

class TestDisabledOverhead:
    def test_noop_fast_path_bound(self):
        """Disabled instrumentation costs within ~an order of magnitude of
        an empty loop (generous bound: CI machines are noisy)."""
        reg = MetricsRegistry(enabled=False)
        previous = set_active_registry(reg)
        try:
            n = 20_000

            start = time.perf_counter()
            for _ in range(n):
                pass
            baseline = time.perf_counter() - start

            start = time.perf_counter()
            for _ in range(n):
                reg.counter("c").inc()
                with span("s"):
                    pass
            instrumented = time.perf_counter() - start
        finally:
            set_active_registry(previous)

        # Micro-benchmark in CI enforces the real budget; this is a
        # smoke-level sanity bound (~2.5us per op pair at the default).
        assert instrumented - baseline < max(50 * baseline, 0.05)


# ---------------------------------------------------------------------------
# exporters
# ---------------------------------------------------------------------------

class TestExporters:
    def fill(self, registry):
        registry.counter("mttkrp_calls", mode=0, representation="dense").inc(4)
        registry.gauge("slab_imbalance").set(1.5)
        h = registry.histogram("admm_inner_iterations",
                               buckets=ITERATION_BUCKETS, mode=1)
        for v in (1, 3, 8, 21):
            h.observe(v)

    def test_jsonl_round_trip(self, registry, tmp_path):
        self.fill(registry)
        snap = registry.snapshot()
        path = write_jsonl(snap, tmp_path / "metrics.jsonl")
        assert read_jsonl(path) == snap

    def test_render_parse_key_inverse(self):
        key = render_key("m", {"mode": 2, "representation": "csr-h"})
        name, labels = parse_key(key)
        assert name == "m"
        assert labels == {"mode": "2", "representation": "csr-h"}

    def test_report_table(self, registry):
        self.fill(registry)
        text = report(registry.snapshot())
        assert "mttkrp_calls" in text
        assert "slab_imbalance" in text
        assert "admm_inner_iterations" in text

    def test_prometheus_text(self, registry):
        self.fill(registry)
        text = prometheus_text(registry.snapshot())
        assert "repro_mttkrp_calls_total" in text
        assert 'le="+Inf"' in text
        assert "repro_admm_inner_iterations_count" in text


# ---------------------------------------------------------------------------
# instrumented runs
# ---------------------------------------------------------------------------

class TestInstrumentedRun:
    def test_fit_records_paper_signals(self):
        tensor = small_tensor()
        result = repro.fit(tensor, rank=3, seed=0, max_outer_iterations=4,
                           observe=True)
        counters = result.metrics["counters"]
        hists = result.metrics["histograms"]

        assert any(k.startswith("outer_iterations") for k in counters)
        assert any(k.startswith("mttkrp_calls") for k in counters)
        assert any(k.startswith("admm_block_solves") for k in counters)
        # per-block inner-iteration histograms: the non-uniform
        # convergence signal (paper §III-B / §IV-B).
        assert any(k.startswith("admm_inner_iterations") for k in hists)
        assert any("span=aoadmm.iteration" in k for k in hists)

    def test_iteration_span_is_one_series(self):
        """Driver spans carry no per-iteration label (bounded cardinality)."""
        result = repro.fit(small_tensor(), rank=3, seed=0,
                           max_outer_iterations=4, outer_tolerance=0.0,
                           observe=True)
        hists = result.metrics["histograms"]
        keys = [k for k in hists if k.startswith("span_seconds{")
                and re.search(r"span=aoadmm\.iteration[,}]", k)]
        assert keys == [render_key("span_seconds",
                                   {"span": "aoadmm.iteration"})]
        assert hists[keys[0]]["count"] == 4

    def test_capped_base_solves_count_as_one_block(self):
        tensor = small_tensor()
        result = repro.fit(tensor, rank=3, seed=0, max_outer_iterations=3,
                           blocked=False, max_inner_iterations=2,
                           track_block_reports=True, observe=True)
        counters = result.metrics["counters"]
        records = result.trace.records
        total = 0
        for mode in range(tensor.nmodes):
            capped = sum(not r.block_reports[mode].converged
                         for r in records)
            key = render_key("admm_capped_blocks", {"mode": mode})
            assert counters[key] == capped
            total += capped
        assert total > 0

    def test_capped_blocks_counter_matches_reports(self):
        tensor = small_tensor()
        result = repro.fit(tensor, rank=3, seed=0, max_outer_iterations=3,
                           block_size=3, max_inner_iterations=2,
                           track_block_reports=True, observe=True)
        counters = result.metrics["counters"]
        records = result.trace.records
        total = 0
        for mode in range(tensor.nmodes):
            capped = sum(r.block_reports[mode].capped_blocks
                         for r in records)
            key = render_key("admm_capped_blocks", {"mode": mode})
            assert counters[key] == capped
            total += capped
        assert total > 0

    def test_cache_hit_counter(self):
        """Memoized CSF trees report hits instead of dropping stats."""
        tensor = small_tensor()
        from repro.kernels.dispatch import mttkrp

        factors = [np.random.default_rng(0).random((s, 3))
                   for s in tensor.shape]
        handle = Observability()
        with handle.activate():
            mttkrp(tensor, factors, 0, method="csf")
            mttkrp(tensor, factors, 0, method="csf")
        counters = handle.snapshot()["counters"]
        hits = sum(v for k, v in counters.items()
                   if k.startswith("mttkrp_csf_method_cache_hits"))
        misses = sum(v for k, v in counters.items()
                     if k.startswith("mttkrp_csf_method_cache_misses"))
        assert misses >= 1
        assert hits >= 1


# ---------------------------------------------------------------------------
# the repro.fit façade
# ---------------------------------------------------------------------------

class TestFitFacade:
    @pytest.mark.parametrize("blocked", [True, False])
    def test_bit_identical_to_direct_call(self, blocked):
        tensor = small_tensor()
        opts = repro.AOADMMOptions(rank=3, seed=0, max_outer_iterations=5,
                                   blocked=blocked)
        direct = repro.fit_aoadmm(tensor, opts)
        via = repro.fit(tensor, rank=3, seed=0, max_outer_iterations=5,
                        blocked=blocked)
        for a, b in zip(direct.model.factors, via.factors):
            np.testing.assert_array_equal(a, b)
        assert via.stop_reason == direct.stop_reason
        assert via.converged == direct.converged
        np.testing.assert_array_equal(via.trace.errors(),
                                      direct.trace.errors())

    @pytest.mark.parametrize("method", ["als", "mu", "pgd"])
    def test_baseline_methods(self, method):
        tensor = small_tensor()
        result = repro.fit(tensor, rank=3, seed=0, max_outer_iterations=3,
                           method=method)
        assert result.method == method
        assert result.iterations == 3
        assert np.isfinite(result.relative_error)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown method"):
            repro.fit(small_tensor(), rank=3, method="sgd")

    def test_observe_modes(self):
        tensor = small_tensor()
        off = repro.fit(tensor, rank=3, seed=0, max_outer_iterations=2,
                        observe=False)
        assert off.metrics == empty_snapshot()

        handle = Observability()
        r = repro.fit(tensor, rank=3, seed=0, max_outer_iterations=2,
                      observe=handle)
        assert r.metrics == handle.snapshot()
        assert r.metrics["counters"]

    def test_legacy_kwargs_warn_and_translate(self):
        tensor = small_tensor()
        with pytest.warns(DeprecationWarning, match="flat keyword"):
            result = repro.fit_aoadmm(tensor, n_components=3, random_state=0,
                                      max_iter=2, use_blocked=False)
        assert result.options.rank == 3
        assert result.options.blocked is False
        assert len(result.trace) == 2

    def test_options_from_kwargs_unknown_name(self):
        with pytest.raises(ValueError, match="not an AOADMMOptions field"):
            repro.options_from_kwargs(bogus=1)

    def test_load_tns_alias(self):
        # load_tns routes through the unified open_tensor front door;
        # the historical read/write spellings stay importable but warn.
        import warnings

        from repro.tensor.io import read_tns, write_tns
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert repro.load_tns is not None
            assert repro.save_tns is write_tns
        with pytest.warns(DeprecationWarning, match="open_tensor"):
            assert repro.read_tns is read_tns
        with pytest.warns(DeprecationWarning, match="save_tns"):
            assert repro.write_tns is write_tns
