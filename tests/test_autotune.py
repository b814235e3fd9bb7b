"""Tests for the measured-cost MTTKRP backend autotuner.

The autotuner's contract has two halves, and both are covered here:

* **selection is performance-only** — whatever mode (`off` / `model` /
  `measure`), executor, or cache state, ``method="auto"`` and tuned
  engines are bit-identical to the untuned csf anchor, because every
  candidate is a csf-family slab plan;
* **the machinery is deterministic and resilient** — calibration under
  a pinned fake clock always makes the same decision, the tuning cache
  round-trips and invalidates on fingerprint change, and corruption
  (file- or entry-level) is quarantined and re-measured, never fatal.
"""

from __future__ import annotations

import json
import warnings

import numpy as np
import pytest

import repro
from repro.config import DEFAULT_SLAB_NNZ
from repro.kernels.autotune import (
    TUNE_ENV_VAR,
    BackendAutotuner,
    ModeDecision,
    TuningCache,
    cache_key,
    candidate_backends,
    default_cache_path,
    resolve_tune_mode,
)
from repro.kernels.dispatch import MTTKRPEngine, make_engine, mttkrp
from repro.observability import MetricsRegistry
from repro.observability.state import set_active_registry
from repro.tensor.random import random_coo, random_factors
from repro.tensor.tiling import root_prefix_tree

RANK = 4


@pytest.fixture
def tensor():
    return random_coo((40, 30, 20), nnz=2500, seed=5)


@pytest.fixture
def tree(tensor):
    engine = MTTKRPEngine(tensor)
    engine.trees.build_all()
    yield engine.trees.csf(0)
    engine.close()


@pytest.fixture
def factors(tensor):
    return random_factors(tensor.shape, RANK, seed=9)


class FakeClock:
    """A clock whose reported durations are scripted, not measured."""

    def __init__(self, deltas):
        self.deltas = list(deltas)
        self.now = 0.0
        self.calls = 0

    def __call__(self) -> float:
        # Called in (tick, tock) pairs: advance by the next scripted
        # delta on every tock.
        if self.calls % 2 == 1:
            self.now += self.deltas[(self.calls // 2) % len(self.deltas)]
        self.calls += 1
        return self.now


# ---------------------------------------------------------------------------
# mode resolution & candidates
# ---------------------------------------------------------------------------

class TestResolveTuneMode:
    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(TUNE_ENV_VAR, "measure")
        assert resolve_tune_mode("off") == "off"

    def test_explicit_invalid_raises(self):
        with pytest.raises(ValueError, match="unknown tune mode"):
            resolve_tune_mode("fastest")

    def test_env_resolution_and_default(self, monkeypatch):
        monkeypatch.delenv(TUNE_ENV_VAR, raising=False)
        assert resolve_tune_mode() == "model"
        monkeypatch.setenv(TUNE_ENV_VAR, "measure")
        assert resolve_tune_mode() == "measure"

    def test_malformed_env_warns_once_per_value(self, monkeypatch):
        from repro.kernels import autotune as autotune_mod
        monkeypatch.setattr(autotune_mod, "_WARNED_ENV_VALUES", set())
        monkeypatch.setenv(TUNE_ENV_VAR, "turbo")
        with pytest.warns(RuntimeWarning, match=TUNE_ENV_VAR):
            assert resolve_tune_mode() == "model"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_tune_mode() == "model"
        monkeypatch.setenv(TUNE_ENV_VAR, "ludicrous")
        with pytest.warns(RuntimeWarning, match="ludicrous"):
            assert resolve_tune_mode() == "model"

    def test_cache_path_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_TUNE_CACHE", str(tmp_path / "t.json"))
        assert default_cache_path() == tmp_path / "t.json"


class TestCandidates:
    def test_dedupes_by_slab_count(self):
        # 2500 nnz: every ladder rung >= 2500 collapses to one slab.
        cands = candidate_backends(2500, 40)
        counts = [c.n_slabs for c in cands]
        assert len(counts) == len(set(counts))
        assert all(c.n_slabs >= 1 for c in cands)

    def test_default_target_always_a_rung(self):
        cands = candidate_backends(10_000_000, 100_000, ladder=(512,))
        assert any(c.slab_nnz_target == DEFAULT_SLAB_NNZ for c in cands)

    def test_empty_tree_has_no_candidates(self):
        assert candidate_backends(0, 0) == []

    def test_requested_count_bounds_tiling(self, tree):
        # n_slabs is the *requested* count (ceil(nnz/target) capped at
        # nslices); balanced_chunks may merge cuts on skewed trees, so
        # the realized count is bounded by — and a pure function of —
        # the request.
        from repro.tensor.tiling import CSFTiling
        for cand in candidate_backends(tree.nnz, tree.nslices,
                                       ladder=(64, 500, 10_000)):
            tiling = CSFTiling(tree, slab_nnz_target=cand.slab_nnz_target)
            assert 1 <= tiling.slab_count <= cand.n_slabs
            again = CSFTiling(tree, n_slabs=cand.n_slabs)
            assert again.slab_count == tiling.slab_count


class TestRootPrefixTree:
    def test_whole_tree_when_cap_covers(self, tree):
        assert root_prefix_tree(tree, tree.nnz) is tree

    def test_prefix_is_root_slice_aligned(self, tree):
        prefix = root_prefix_tree(tree, 200)
        assert 200 <= prefix.nnz < tree.nnz
        assert prefix.nslices < tree.nslices
        # The prefix is the same leading slices: leaf values agree.
        np.testing.assert_array_equal(prefix.vals,
                                      tree.vals[:prefix.nnz])

    def test_rejects_nonpositive_cap(self, tree):
        with pytest.raises(ValueError, match="positive"):
            root_prefix_tree(tree, 0)


# ---------------------------------------------------------------------------
# calibration determinism (fake clock)
# ---------------------------------------------------------------------------

class TestCalibration:
    LADDER = (64, 500, 10_000)

    def _tuner(self, clock, cache=None):
        return BackendAutotuner(mode="measure", cache=cache,
                                ladder=self.LADDER, min_probe_nnz=0,
                                probe_repeats=1, clock=clock)

    def test_fake_clock_is_deterministic(self, tree):
        deltas = (0.030, 0.010, 0.020)
        d1 = self._tuner(FakeClock(deltas)).decide_tree(tree, 0, RANK)
        d2 = self._tuner(FakeClock(deltas)).decide_tree(tree, 0, RANK)
        assert d1.source == d2.source == "measure"
        assert d1.backend == d2.backend
        assert d1.probe_seconds == d2.probe_seconds
        assert d1.probe_nnz == d2.probe_nnz > 0

    @pytest.mark.parametrize("winner", [0, 1, 2])
    def test_crafted_clock_picks_crafted_winner(self, tree, winner):
        # One timed run per candidate, in ladder order: give the
        # crafted winner the smallest scripted duration.
        deltas = [0.5 if i != winner else 0.001
                  for i in range(len(self.LADDER))]
        cands = candidate_backends(tree.nnz, tree.nslices, self.LADDER)
        assert len(cands) == len(self.LADDER)  # no dedupe on this tree
        decision = self._tuner(FakeClock(deltas)).decide_tree(tree, 0, RANK)
        assert decision.backend == cands[winner].name

    def test_probe_floor_falls_back_to_model(self, tree):
        tuner = BackendAutotuner(mode="measure", cache=None,
                                 ladder=self.LADDER,
                                 min_probe_nnz=tree.nnz + 1)
        decision = tuner.decide_tree(tree, 0, RANK)
        assert decision.source == "model"
        assert decision.probe_seconds == {}

    def test_serial_prices_one_worker_whatever_threads(self, tree):
        # Serial loops over slabs inline, so threads=4 buys nothing and
        # must be priced like threads=1; only an offloading executor
        # prices its pool's workers.
        tuner = BackendAutotuner(mode="model", ladder=self.LADDER)
        one = tuner.decide_tree(tree, 0, RANK, threads=1, executor="serial")
        four = tuner.decide_tree(tree, 0, RANK, threads=4,
                                 executor="serial")
        assert four == one
        pooled = tuner.decide_tree(tree, 0, RANK, threads=4,
                                   executor="process")
        assert pooled.model_seconds != one.model_seconds

    def test_report_threads_count_real_workers(self, tensor):
        engine = MTTKRPEngine(tensor)
        try:
            tuner = BackendAutotuner(mode="model", ladder=self.LADDER)
            assert tuner.tune_trees(engine.trees, RANK, threads=4,
                                    executor="serial").threads == 1
            assert tuner.tune_trees(engine.trees, RANK, threads=4,
                                    executor="process").threads == 4
        finally:
            engine.close()

    def test_model_mode_never_calls_clock(self, tree):
        clock = FakeClock([1.0])
        tuner = BackendAutotuner(mode="model", ladder=self.LADDER,
                                 clock=clock)
        decision = tuner.decide_tree(tree, 0, RANK)
        assert decision.source == "model"
        assert clock.calls == 0


# ---------------------------------------------------------------------------
# the tuning cache
# ---------------------------------------------------------------------------

class TestTuningCache:
    LADDER = (64, 500, 10_000)

    def _tuner(self, path, deltas=(0.030, 0.010, 0.020)):
        return BackendAutotuner(mode="measure", cache=TuningCache(path),
                                ladder=self.LADDER, min_probe_nnz=0,
                                probe_repeats=1, clock=FakeClock(deltas))

    def test_round_trip_hits_cache(self, tree, tmp_path):
        path = tmp_path / "cache.json"
        first = self._tuner(path).decide_tree(tree, 0, RANK,
                                              fingerprint="fp-a")
        assert first.source == "measure"
        again = self._tuner(path).decide_tree(tree, 0, RANK,
                                              fingerprint="fp-a")
        assert again.source == "cache"
        assert again.backend == first.backend
        assert again.probe_seconds == pytest.approx(first.probe_seconds)

    def test_fingerprint_change_invalidates(self, tree, tmp_path):
        path = tmp_path / "cache.json"
        self._tuner(path).decide_tree(tree, 0, RANK, fingerprint="fp-a")
        fresh = self._tuner(path).decide_tree(tree, 0, RANK,
                                              fingerprint="fp-b")
        assert fresh.source == "measure"

    def test_key_covers_mode_rank_threads_executor(self):
        keys = {cache_key("fp", 0, 4, 1, "serial"),
                cache_key("fp", 1, 4, 1, "serial"),
                cache_key("fp", 0, 8, 1, "serial"),
                cache_key("fp", 0, 4, 2, "serial"),
                cache_key("fp", 0, 4, 1, "process")}
        assert len(keys) == 5

    def test_corrupt_file_quarantined_and_remeasured(self, tree, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text("{definitely not json", encoding="utf-8")
        tuner = self._tuner(path)
        with pytest.warns(RuntimeWarning, match="quarantined"):
            decision = tuner.decide_tree(tree, 0, RANK, fingerprint="fp-a")
        assert decision.source == "measure"
        assert tuner.cache.quarantined == 1
        assert (tmp_path / "cache.json.corrupt").exists()
        # The re-measured decision was persisted into a fresh file.
        assert json.loads(path.read_text())

    def test_corrupt_entry_quarantined_and_remeasured(self, tree, tmp_path):
        path = tmp_path / "cache.json"
        first = self._tuner(path).decide_tree(tree, 0, RANK,
                                              fingerprint="fp-a")
        data = json.loads(path.read_text())
        (key,) = data.keys()
        data[key] = {"backend": 42, "slab_nnz_target": -1}
        path.write_text(json.dumps(data), encoding="utf-8")
        tuner = self._tuner(path)
        with pytest.warns(RuntimeWarning, match="re-measuring"):
            decision = tuner.decide_tree(tree, 0, RANK, fingerprint="fp-a")
        assert decision.source == "measure"
        assert decision.backend == first.backend
        assert tuner.cache.quarantined == 1
        # ... and the repaired entry now round-trips.
        assert self._tuner(path).decide_tree(
            tree, 0, RANK, fingerprint="fp-a").source == "cache"


# ---------------------------------------------------------------------------
# bit-identity: the whole point
# ---------------------------------------------------------------------------

class TestBitIdentity:
    def test_stateless_auto_matches_csf_across_tune_modes(
            self, tensor, factors, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_TUNE_CACHE", str(tmp_path / "c.json"))
        anchor = mttkrp(tensor, factors, 0, method="csf")
        for mode in ("off", "model", "measure"):
            monkeypatch.setenv(TUNE_ENV_VAR, mode)
            out = mttkrp(tensor, factors, 0, method="auto")
            np.testing.assert_array_equal(out, anchor)

    def test_auto_is_the_dispatch_default(self, tensor, factors):
        np.testing.assert_array_equal(
            mttkrp(tensor, factors, 1),
            mttkrp(tensor, factors, 1, method="auto"))

    @pytest.mark.parametrize("tune", ["off", "model", "measure"])
    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_tuned_engines_match_untuned_anchor(
            self, tensor, factors, tune, executor, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_TUNE_CACHE", str(tmp_path / "c.json"))
        anchor_engine = make_engine(tensor, tune="off")
        engine = make_engine(tensor, rank=RANK, tune=tune,
                             executor=executor)
        try:
            for mode in range(tensor.nmodes):
                np.testing.assert_array_equal(
                    np.array(engine.mttkrp(factors, mode), copy=True),
                    np.array(anchor_engine.mttkrp(factors, mode),
                             copy=True))
        finally:
            engine.close()
            anchor_engine.close()

    def test_fit_bit_identical_across_tune_modes(self, tensor,
                                                 monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_TUNE_CACHE", str(tmp_path / "c.json"))
        results = [repro.fit(tensor, rank=3, seed=11,
                             max_outer_iterations=3, tune=mode)
                   for mode in ("off", "model", "measure")]
        for other in results[1:]:
            for a, b in zip(results[0].factors, other.factors):
                np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# engine wiring
# ---------------------------------------------------------------------------

class TestEngineWiring:
    def test_make_engine_tunes_when_rank_given(self, tensor):
        engine = make_engine(tensor, rank=RANK, tune="model")
        try:
            assert engine.tuning is not None
            assert engine.tuning.tune_mode == "model"
            for decision in engine.tuning.decisions:
                tiling = engine.tiling(decision.mode)
                assert tiling.slab_nnz_target == decision.slab_nnz_target
        finally:
            engine.close()

    def test_explicit_slab_target_pins(self, tensor):
        engine = make_engine(tensor, rank=RANK, slab_nnz_target=100)
        try:
            assert engine.tuning is None
        finally:
            engine.close()

    def test_no_rank_no_tuning(self, tensor):
        engine = make_engine(tensor)
        try:
            assert engine.tuning is None
        finally:
            engine.close()

    def test_tune_off_disables(self, tensor):
        engine = make_engine(tensor, rank=RANK, tune="off")
        try:
            assert engine.tuning is None
        finally:
            engine.close()

    def test_apply_tuning_after_tiling_rejected(self, tensor):
        engine = make_engine(tensor, rank=RANK, tune="model")
        report = engine.tuning
        engine.tiling(0)
        with pytest.raises(ValueError, match="before any tiling"):
            engine.apply_tuning(report)
        engine.close()

    def test_streaming_engine_never_tuned(self, tensor, tmp_path):
        from repro.tensor.store import ShardedTensorStore
        store = ShardedTensorStore.create(tensor, tmp_path / "store")
        try:
            engine = make_engine(store, rank=RANK, tune="model")
            assert not hasattr(engine, "tuning") or engine.tuning is None
            engine.close()
        finally:
            store.close()

    def test_options_validate_tune(self):
        from repro.core.options import AOADMMOptions
        with pytest.raises(ValueError, match="tune mode"):
            AOADMMOptions(tune="fastest")


# ---------------------------------------------------------------------------
# observability & CLI
# ---------------------------------------------------------------------------

class TestTelemetryAndCli:
    def test_tune_metrics_recorded(self, tree, tmp_path):
        registry = MetricsRegistry(enabled=True)
        previous = set_active_registry(registry)
        try:
            tuner = BackendAutotuner(
                mode="measure", cache=TuningCache(tmp_path / "c.json"),
                ladder=(64, 500, 10_000), min_probe_nnz=0,
                probe_repeats=1, clock=FakeClock([0.01, 0.02, 0.03]))
            tuner.decide_tree(tree, 0, RANK, fingerprint="fp")
        finally:
            set_active_registry(previous)
        snap = registry.snapshot()
        assert any(k.startswith("tune_probes") for k in snap["counters"])
        assert any(k.startswith("tune_decisions") and "source=measure" in k
                   for k in snap["counters"])
        assert any(k.startswith("tune_slab_nnz_target")
                   for k in snap["gauges"])
        assert any("span=tune" in k for k in snap["histograms"])

    def test_quarantine_metric_recorded(self, tmp_path):
        registry = MetricsRegistry(enabled=True)
        previous = set_active_registry(registry)
        try:
            path = tmp_path / "c.json"
            path.write_text("not json", encoding="utf-8")
            with pytest.warns(RuntimeWarning):
                TuningCache(path).get("anything")
        finally:
            set_active_registry(previous)
        counters = registry.snapshot()["counters"]
        assert any(k.startswith("tune_cache_quarantined")
                   for k in counters)

    def test_cli_tune_report(self, tensor, tmp_path, capsys):
        from repro.cli import main
        from repro.tensor.io import write_tns
        tns = tmp_path / "t.tns"
        write_tns(tensor, tns)
        code = main(["tune", str(tns), "--rank", "4", "--repeats", "1",
                     "--cache", str(tmp_path / "c.json")])
        out = capsys.readouterr().out
        assert code == 0
        assert "tune mode=measure" in out
        assert "chosen" in out

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_cli_tune_rejects_non_positive_threads(self, tensor, tmp_path,
                                                   threads):
        from repro.cli import main
        from repro.tensor.io import write_tns
        tns = tmp_path / "t.tns"
        write_tns(tensor, tns)
        with pytest.raises(ValueError, match="threads"):
            main(["tune", str(tns), "--rank", "4", "--mode", "model",
                  "--threads", threads])

    def test_cli_factorize_accepts_tune_flag(self, tensor, tmp_path,
                                             capsys):
        from repro.cli import main
        from repro.tensor.io import write_tns
        tns = tmp_path / "t.tns"
        write_tns(tensor, tns)
        code = main(["factorize", str(tns), "--rank", "3",
                     "--max-iterations", "2", "--tune", "model"])
        assert code == 0
        assert "stopped:" in capsys.readouterr().out

    def test_report_table_marks_probes(self, tree, tmp_path):
        tuner = BackendAutotuner(
            mode="measure", cache=TuningCache(tmp_path / "c.json"),
            ladder=(64, 500, 10_000), min_probe_nnz=0, probe_repeats=1,
            clock=FakeClock([0.01, 0.02, 0.03]))
        decision = tuner.decide_tree(tree, 0, RANK, fingerprint="fp")
        from repro.kernels.autotune import TuningReport
        report = TuningReport(tune_mode="measure", rank=RANK, threads=1,
                              executor="serial", fingerprint="fp" * 6,
                              decisions=(decision,))
        table = report.format_table()
        assert "ms*" in table  # probe-extrapolated cells are starred
        assert decision.backend in table
