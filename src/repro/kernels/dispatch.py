"""MTTKRP dispatch and the stateful engine used by the AO-ADMM driver.

:func:`mttkrp` is the stateless convenience entry point.
:class:`MTTKRPEngine` is what the factorization loop uses: it owns the
per-mode CSF trees (built once — the tensor's pattern is static), the
per-tree slab tilings and kernel workspaces (also built once; see
:mod:`repro.tensor.tiling` and :mod:`repro.kernels.workspace`), and the
per-mode factor *representations* (rebuilt when a factor changes — the
factors' sparsity is dynamic, Section IV-C).  It records per-call
statistics for the benchmark harness and the machine model, and mirrors
every call — including memoized ``method="csf"`` hits — into
:mod:`repro.observability` when observability is enabled.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass
from typing import Literal

import numpy as np

from ..config import SPARSITY_THRESHOLD
from ..observability import (
    is_enabled,
    record_cache_event,
    record_executor_fallback,
    record_mttkrp_call,
    record_representation,
    record_tiling,
    span,
)
from ..parallel.executor import (
    ExecutorBase,
    get_executor,
    resolve_executor,
    slab_workers,
)
from ..parallel.procpool import ProcessPoolBroken
from ..parallel.shm import ShmArena
from ..sparse.analysis import choose_representation, density
from ..sparse.csr import CSRMatrix
from ..sparse.hybrid import HybridFactor
from ..tensor.coo import COOTensor
from ..tensor.csf import AllModeCSF, CSFTensor
from ..tensor.tiling import CSFTiling
from ..types import FactorList
from ..validation import check_mode, require
from .autotune import BackendAutotuner, resolve_tune_mode
from .mttkrp_coo import mttkrp_coo
from .mttkrp_csf import _upward_to_level, mttkrp_csf
from .mttkrp_sparse import (
    FactorRepresentation,
    leaf_aggregator,
    mttkrp_csf_root_repr,
    representation_name,
    representation_nnz,
)
from .workspace import KernelWorkspace

#: Factor-representation policies for :class:`MTTKRPEngine`.
ReprPolicy = Literal["dense", "csr", "hybrid", "auto"]

#: Memoized trees for the testing-only ``method="csf"`` path, keyed by
#: ``(id(tensor), mode)``.  Entries pin the source ``coords``/``vals``
#: arrays so the identity check below cannot be fooled by ``id`` reuse
#: after garbage collection; the cache is small and FIFO-bounded.
_CSF_METHOD_CACHE: dict[tuple[int, int],
                        tuple[np.ndarray, np.ndarray, CSFTensor]] = {}
_CSF_METHOD_CACHE_MAX = 8
_MEMOIZATION_ENABLED = True

#: Memoized model-tuned execution plans for the stateless
#: ``mttkrp(method="auto")`` path, keyed by ``(id(tensor), mode, rank)``
#: with the same array-pinning identity check as the tree memo above.
_AUTO_PLAN_CACHE: dict[tuple[int, int, int],
                       tuple[np.ndarray, np.ndarray, CSFTiling,
                             KernelWorkspace]] = {}
_AUTO_PLAN_CACHE_MAX = 8


def configure_memoization(enabled: bool) -> bool:
    """Globally enable/disable kernel memoization; returns the old setting.

    Disabling also drops the current cache contents.  Memoized trees
    pin their source arrays, so under memory pressure the supervisor's
    degradation ladder turns this off to trade recompute time for
    released memory — results are bit-identical either way (the cache
    only avoids re-sorting, it never changes values).
    """
    global _MEMOIZATION_ENABLED
    previous = _MEMOIZATION_ENABLED
    _MEMOIZATION_ENABLED = bool(enabled)
    if not _MEMOIZATION_ENABLED:
        _CSF_METHOD_CACHE.clear()
        _AUTO_PLAN_CACHE.clear()
    return previous


def memoization_enabled() -> bool:
    """Whether kernel memoization is currently on (see above)."""
    return _MEMOIZATION_ENABLED


def _csf_for_method(tensor: COOTensor, mode: int) -> CSFTensor:
    """Build (or reuse) a mode-rooted tree for ``mttkrp(..., method="csf")``.

    This path exists for testing and one-off calls; sustained use should
    go through :class:`MTTKRPEngine` / :class:`AllModeCSF`, which amortize
    the ``O(nnz log nnz)`` sort properly.  The memo here merely keeps
    repeated test calls from re-sorting the same tensor on every call.
    """
    key = (id(tensor), mode)
    hit = _CSF_METHOD_CACHE.get(key) if _MEMOIZATION_ENABLED else None
    if hit is not None and hit[0] is tensor.coords and hit[1] is tensor.vals:
        # A memoized tree used to make the call's stats vanish entirely;
        # the registry keeps every invocation visible (cache_hit counter).
        record_cache_event("mttkrp_csf_method", hit=True)
        return hit[2]
    record_cache_event("mttkrp_csf_method", hit=False)
    order = None if mode == 0 else (
        (mode,) + tuple(m for m in range(tensor.nmodes) if m != mode))
    tree = CSFTensor.from_coo(tensor, mode_order=order)
    if _MEMOIZATION_ENABLED:
        if len(_CSF_METHOD_CACHE) >= _CSF_METHOD_CACHE_MAX:
            _CSF_METHOD_CACHE.pop(next(iter(_CSF_METHOD_CACHE)))
        _CSF_METHOD_CACHE[key] = (tensor.coords, tensor.vals, tree)
    return tree


def _auto_plan(tensor: COOTensor, mode: int, rank: int
               ) -> tuple[CSFTensor, CSFTiling, KernelWorkspace]:
    """Build (or reuse) the model-tuned plan for one stateless auto call.

    Stateless calls always seed from the analytic model — even under
    ``REPRO_TUNE=measure`` — because a one-off call cannot amortize a
    timed probe (engines and fits are where measuring pays).  Every
    candidate plan is the same csf-family sweep, so the selection is
    bit-invisible: ``method="auto"`` equals ``method="csf"`` exactly.
    """
    key = (id(tensor), mode, rank)
    hit = _AUTO_PLAN_CACHE.get(key) if _MEMOIZATION_ENABLED else None
    if hit is not None and hit[0] is tensor.coords and hit[1] is tensor.vals:
        record_cache_event("mttkrp_auto_plan", hit=True)
        return hit[2].csf, hit[2], hit[3]
    record_cache_event("mttkrp_auto_plan", hit=False)
    tree = _csf_for_method(tensor, mode)
    tuner = BackendAutotuner(mode="model")
    decision = tuner.decide_tree(tree, mode, rank)
    tiling = CSFTiling(tree, slab_nnz_target=decision.slab_nnz_target)
    ws = KernelWorkspace(tiling)
    if _MEMOIZATION_ENABLED:
        if len(_AUTO_PLAN_CACHE) >= _AUTO_PLAN_CACHE_MAX:
            _AUTO_PLAN_CACHE.pop(next(iter(_AUTO_PLAN_CACHE)))
        _AUTO_PLAN_CACHE[key] = (tensor.coords, tensor.vals, tiling, ws)
    return tree, tiling, ws


def mttkrp(tensor: COOTensor | CSFTensor | AllModeCSF, factors: FactorList,
           mode: int, method: str = "auto") -> np.ndarray:
    """Compute MTTKRP for *mode* with the requested *method*.

    ``method="auto"`` (the default) routes COO input through the
    model-tuned slab-tiled CSF kernels — the same bit-identity family as
    ``method="csf"``, so the tuner's slab choice (and the ``REPRO_TUNE``
    mode, including ``off``, which degrades to the untiled ``csf``
    path) never changes a single output bit.  CSF inputs always use the
    CSF root kernel; ``method="coo"`` forces the vectorized COO kernel
    (a different summation order — its own comparison family).
    """
    if isinstance(tensor, AllModeCSF):
        return mttkrp_csf(tensor.csf(mode), factors, mode)
    if isinstance(tensor, CSFTensor):
        return mttkrp_csf(tensor, factors, mode)
    require(isinstance(tensor, COOTensor), "unsupported tensor type")
    if method == "coo":
        return mttkrp_coo(tensor, factors, mode)
    if method == "auto" and resolve_tune_mode() != "off":
        rank = int(np.asarray(factors[0]).shape[1])
        tree, tiling, ws = _auto_plan(tensor, mode, rank)
        start = time.perf_counter()
        with span("mttkrp", mode=mode, method="auto"):
            out = mttkrp_csf(tree, factors, mode, tiling=tiling,
                             workspace=ws)
        if is_enabled():
            record_mttkrp_call(MTTKRPCallStats(
                mode=mode, leaf_mode=tree.mode_order[-1],
                representation="dense",
                gathered_nnz=tree.nnz * rank,
                tensor_nnz=tree.nnz,
                slab_count=tiling.slab_count,
                seconds=time.perf_counter() - start,
                executor="serial",
            ), rank=rank)
        # The workspace buffer is pooled (valid until the next call for
        # this plan); the stateless contract hands back an owned array.
        return np.array(out, copy=True)
    if method in ("auto", "csf"):
        tree = _csf_for_method(tensor, mode)
        start = time.perf_counter()
        with span("mttkrp", mode=mode, method="csf"):
            out = mttkrp_csf(tree, factors, mode)
        if is_enabled():
            record_mttkrp_call(MTTKRPCallStats(
                mode=mode, leaf_mode=tree.mode_order[-1],
                representation="dense",
                gathered_nnz=tree.nnz * int(np.asarray(factors[0]).shape[1]),
                tensor_nnz=tree.nnz,
                seconds=time.perf_counter() - start,
            ), rank=int(np.asarray(factors[0]).shape[1]))
        return out
    raise ValueError(f"unknown MTTKRP method {method!r}")


@dataclass
class MTTKRPCallStats:
    """Bookkeeping for one MTTKRP invocation."""

    mode: int
    leaf_mode: int
    representation: str
    gathered_nnz: int
    tensor_nnz: int
    #: Slabs the call was decomposed into (1 = monolithic).
    slab_count: int = 1
    #: Fresh workspace bytes allocated during the call (0 after warm-up
    #: on a static pattern — the zero-allocation guarantee).
    bytes_allocated: int = 0
    #: Wall-clock seconds of the kernel call.
    seconds: float = 0.0
    #: Execution backend that ran the slabs (``serial``/``process``;
    #: monolithic and sparse-representation calls run inline
    #: regardless).
    executor: str = "serial"
    #: Worker processes the call was allowed to use (1 when inline).
    workers: int = 1


class MTTKRPEngine:
    """Per-mode CSF trees + tilings + workspaces + factor representations.

    Parameters
    ----------
    tensor:
        The sparse tensor (COO); one CSF tree per mode is built lazily.
    repr_policy:
        ``"dense"`` — always dense factors (the paper's DENSE baseline);
        ``"csr"`` / ``"hybrid"`` — force that structure whenever the factor
        is below the density threshold; ``"auto"`` — apply
        :func:`repro.sparse.analysis.choose_representation`.
    sparsity_threshold:
        Density below which a factor may be stored sparse (paper: 20%).
    tol:
        Magnitude at or below which a factor entry counts as zero.
    csf_allocation:
        ``"all"`` builds one tree per mode (SPLATT's ALLMODE — fastest);
        ``"one"`` keeps a single tree and serves the other modes with the
        internal/leaf kernels (SPLATT's memory-lean ONEMODE policy).
    threads:
        Worker processes for slab-parallel kernel execution when the
        executor is ``"process"`` (``None`` = auto via
        ``REPRO_NUM_THREADS`` / CPU count); ignored by ``"serial"``.
        Must be ``None`` or at least 1.  Results are bit-identical for
        any value — slabs are independent and the reductions are
        deterministic.
    slab_nnz_target:
        Non-zeros per slab for the tilings (``None`` =
        :data:`repro.config.DEFAULT_SLAB_NNZ`).
    executor:
        Execution backend for the tiled kernels: ``"serial"``,
        ``"process"``, or an
        :class:`~repro.parallel.executor.ExecutorBase` instance.
        ``None`` resolves ``REPRO_EXECUTOR`` (default ``serial``).  The
        process executor maps the CSF arrays and factors into shared
        memory and runs slab batches GIL-free in a persistent worker
        pool; results stay bit-identical across executors.  If the
        pool breaks beyond its respawn budget mid-call, the engine
        records a :class:`~repro.robustness.guards.GuardEvent` in
        :attr:`executor_events`, falls back to the serial executor for
        the rest of its lifetime, and recomputes the call.

    Notes
    -----
    Dense-path MTTKRP outputs are written into pooled workspace buffers:
    the returned array is valid until the **next** call for the same
    mode.  Every driver in this repository consumes the output before
    then; copy it if you need it to survive.

    A process-executor engine owns shared-memory segments; call
    :meth:`close` (or use the engine as a context manager) to release
    them deterministically — garbage collection and an ``atexit`` sweep
    cover engines that are simply dropped.
    """

    def __init__(self, tensor: COOTensor,
                 repr_policy: ReprPolicy = "dense",
                 sparsity_threshold: float = SPARSITY_THRESHOLD,
                 tol: float = 0.0,
                 csf_allocation: str = "all",
                 threads: int | None = 1,
                 slab_nnz_target: int | None = None,
                 executor: "str | ExecutorBase | None" = None):
        require(repr_policy in ("dense", "csr", "hybrid", "auto"),
                f"unknown representation policy {repr_policy!r}")
        require(csf_allocation in ("all", "one"),
                f"unknown CSF allocation {csf_allocation!r}")
        require(threads is None or threads >= 1,
                f"threads must be None or at least 1, got {threads!r}")
        self.trees = AllModeCSF(tensor)
        self.csf_allocation = csf_allocation
        self.repr_policy: ReprPolicy = repr_policy
        self.sparsity_threshold = float(sparsity_threshold)
        self.tol = float(tol)
        self.threads = threads
        self.slab_nnz_target = slab_nnz_target
        #: Per-root-mode slab targets installed by :meth:`apply_tuning`
        #: (they take precedence over the engine-wide ``slab_nnz_target``).
        self._tuned_targets: dict[int, int] = {}
        #: The autotuner's :class:`~repro.kernels.autotune.TuningReport`
        #: (``None`` until :meth:`apply_tuning` runs).
        self.tuning = None
        self._executor = resolve_executor(executor)
        #: Shared-memory plane for the process executor (one arena per
        #: engine; ``None`` for in-process executors).
        self._arena: ShmArena | None = (
            ShmArena(tag="engine") if self._executor.offloads_slabs
            else None)
        #: Guard events from executor failures (pool broken → serial
        #: fallback), in order.
        self.executor_events: list = []
        self._reps: dict[int, FactorRepresentation] = {}
        self._rep_names: dict[int, str] = {}
        self._aggregators: dict[int, object] = {}
        #: Static per-tree decompositions, keyed by the tree's root mode.
        self._tilings: dict[int, CSFTiling] = {}
        self._workspaces: dict[int, KernelWorkspace] = {}
        #: Stats of every MTTKRP call, in order.
        self.call_log: list[MTTKRPCallStats] = []

    @property
    def nmodes(self) -> int:
        return self.trees.nmodes

    @property
    def executor_name(self) -> str:
        """Name of the executor currently serving the tiled kernels."""
        return self._executor.name

    # ------------------------------------------------------------------
    # Executor lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the engine's shared-memory segments (idempotent).

        The worker pool itself is the executor's (usually the
        process-wide singleton's) and stays warm for other engines.
        """
        if self._arena is not None:
            self._arena.close()

    def __enter__(self) -> "MTTKRPEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _fallback_to_serial(self, exc: Exception, mode: int) -> None:
        """Pool broke beyond repair: record the event, demote to serial."""
        from ..robustness.guards import GuardEvent
        event = GuardEvent(iteration=0, kind="worker_lost", site="mttkrp",
                           action="executor_fallback", mode=mode,
                           detail=f"{self._executor.name} -> serial: "
                                  f"{exc}")
        self.executor_events.append(event)
        record_executor_fallback(self._executor.name, "serial",
                                 detail=str(exc))
        self._executor = get_executor("serial")

    def _run_tiled(self, csf, factors, mode: int, tiling, ws) -> np.ndarray:
        """One tiled MTTKRP, with pool-failure fallback + single retry.

        Slab batches are idempotent (disjoint fully-overwritten output
        ranges), so recomputing the whole call after a fallback is safe
        and bit-identical.
        """
        try:
            return mttkrp_csf(csf, factors, mode, tiling=tiling,
                              workspace=ws, threads=self.threads,
                              executor=self._executor)
        except ProcessPoolBroken as exc:
            self._fallback_to_serial(exc, mode)
            return mttkrp_csf(csf, factors, mode, tiling=tiling,
                              workspace=ws, threads=self.threads,
                              executor=self._executor)

    # ------------------------------------------------------------------
    # Tiling / workspace management (static: one per tree, built lazily)
    # ------------------------------------------------------------------
    def apply_tuning(self, report) -> None:
        """Install per-mode slab targets from an autotuner report.

        Tilings are static (built once, reused for the whole
        factorization), so tuning must land before the first
        :meth:`tiling` call for any mode — the autotuner's
        ``tune_engine`` and :func:`make_engine` both respect that.
        Selection is performance-only: every candidate the tuner
        considers is the same csf-family sweep, so the installed
        targets never change a single output bit.
        """
        require(not self._tilings,
                "apply_tuning must run before any tiling is built "
                "(slab decompositions are static)")
        self._tuned_targets = dict(report.slab_targets())
        self.tuning = report

    def tiling(self, root_mode: int) -> CSFTiling:
        """The slab tiling of the tree rooted at *root_mode*."""
        tiling = self._tilings.get(root_mode)
        if tiling is None:
            target = self._tuned_targets.get(root_mode,
                                             self.slab_nnz_target)
            tiling = CSFTiling(self.trees.csf(root_mode),
                               slab_nnz_target=target)
            self._tilings[root_mode] = tiling
            record_tiling(tiling, root_mode)
        return tiling

    def workspace(self, root_mode: int) -> KernelWorkspace:
        """The kernel workspace of the tree rooted at *root_mode*."""
        ws = self._workspaces.get(root_mode)
        if ws is None:
            ws = KernelWorkspace(self.tiling(root_mode),
                                 shared_arena=self._arena)
            self._workspaces[root_mode] = ws
        return ws

    def workspace_bytes(self) -> int:
        """Total bytes currently pooled across all workspaces."""
        return sum(ws.bytes_allocated for ws in self._workspaces.values())

    # ------------------------------------------------------------------
    # Representation management
    # ------------------------------------------------------------------
    def update_factor(self, mode: int, factor: np.ndarray) -> str:
        """Re-derive the representation of *mode*'s factor; returns its name.

        Called by the driver after every factor update — this is where the
        dynamic sparsity of Section IV-C enters.  The ``O(I F)``
        construction cost is accepted exactly as in the paper (amortized
        over the ADMM iterations of the following outer sweep).
        """
        mode = check_mode(mode, self.nmodes)
        name = self._decide(factor)
        if name == "csr":
            rep: FactorRepresentation = CSRMatrix.from_dense(
                factor, tol=self.tol)
        elif name == "csr-h":
            rep = HybridFactor(factor, tol=self.tol)
        else:
            rep = np.ascontiguousarray(factor)
        self._reps[mode] = rep
        self._rep_names[mode] = name
        record_representation(mode, name, rep)
        return name

    def representation(self, mode: int) -> str:
        """Current representation name of *mode* (default ``"dense"``)."""
        return self._rep_names.get(mode, "dense")

    def _decide(self, factor: np.ndarray) -> str:
        if self.repr_policy == "dense":
            return "dense"
        dens = density(factor, self.tol)
        if dens >= self.sparsity_threshold:
            return "dense"
        if self.repr_policy == "csr":
            return "csr"
        if self.repr_policy == "hybrid":
            return "csr-h"
        choice = choose_representation(
            factor, self.tol, self.sparsity_threshold)
        return {"dense": "dense", "csr": "csr", "hybrid": "csr-h"}[choice]

    # ------------------------------------------------------------------
    # The kernel entry point
    # ------------------------------------------------------------------
    def mttkrp(self, factors: FactorList, mode: int) -> np.ndarray:
        """MTTKRP for *mode*, honoring the deep factor's representation."""
        mode = check_mode(mode, self.nmodes)
        start = time.perf_counter()
        if self.csf_allocation == "one":
            # Memory-lean: a single mode-0-rooted tree serves every mode
            # via the root / internal / leaf kernels.  Sparse factor
            # representations need the root kernel's leaf aggregation, so
            # this policy always computes dense (documented trade-off).
            csf = self.trees.csf(0)
            tiling = self.tiling(0)
            ws = self.workspace(0)
            allocs0, bytes0 = ws.snapshot()
            with span("mttkrp", mode=mode, representation="dense"):
                out = self._run_tiled(csf, factors, mode, tiling, ws)
            _, bytes1 = ws.snapshot()
            stats = MTTKRPCallStats(
                mode=mode, leaf_mode=csf.mode_order[-1],
                representation="dense",
                gathered_nnz=csf.nnz * int(np.asarray(factors[0]).shape[1]),
                tensor_nnz=csf.nnz,
                slab_count=tiling.slab_count,
                bytes_allocated=bytes1 - bytes0,
                seconds=time.perf_counter() - start,
                executor=self._executor.name,
                workers=slab_workers(self._executor, self.threads))
            self.call_log.append(stats)
            record_mttkrp_call(
                stats, rank=int(np.asarray(factors[0]).shape[1]))
            return out
        csf = self.trees.csf(mode)
        leaf_mode = csf.mode_order[-1]
        rep = self._reps.get(leaf_mode)
        if rep is None or isinstance(rep, np.ndarray):
            # Dense path: slab-tiled Algorithm 3 through the workspace.
            tiling = self.tiling(mode)
            ws = self.workspace(mode)
            _, bytes0 = ws.snapshot()
            with span("mttkrp", mode=mode, representation="dense"):
                out = self._run_tiled(csf, factors, mode, tiling, ws)
            _, bytes1 = ws.snapshot()
            rep_name = "dense"
            touched = csf.nnz * int(np.asarray(factors[0]).shape[1])
            slab_count = tiling.slab_count
            bytes_allocated = bytes1 - bytes0
            call_executor = self._executor
        else:
            agg = self._aggregators.get(mode)
            if agg is None:
                # One-time per tree: the tensor pattern is static.
                agg = leaf_aggregator(csf)
                self._aggregators[mode] = agg
            rep_name = representation_name(rep)
            with span("mttkrp", mode=mode, representation=rep_name):
                out = mttkrp_csf_root_repr(csf, factors, rep, aggregator=agg)
            touched = representation_nnz(rep, csf.fids[csf.nmodes - 1])
            slab_count = 1
            bytes_allocated = 0
            # Sparse-representation calls run inline in the parent.
            call_executor = get_executor("serial")
        stats = MTTKRPCallStats(
            mode=mode, leaf_mode=leaf_mode, representation=rep_name,
            gathered_nnz=touched, tensor_nnz=csf.nnz,
            slab_count=slab_count, bytes_allocated=bytes_allocated,
            seconds=time.perf_counter() - start,
            executor=call_executor.name,
            workers=slab_workers(call_executor, self.threads))
        self.call_log.append(stats)
        record_mttkrp_call(stats, rank=int(np.asarray(factors[0]).shape[1]))
        return out


class StreamingMTTKRPEngine:
    """Out-of-core MTTKRP over a :class:`~repro.tensor.store.ShardedTensorStore`.

    Drop-in replacement for :class:`MTTKRPEngine` on the driver side
    (same ``update_factor`` / ``mttkrp`` / ``representation`` / ``close``
    / ``call_log`` / ``executor_events`` surface), but instead of owning
    in-core CSF trees it streams each mode's pre-sharded slabs from disk
    through an LRU :class:`~repro.tensor.ooc.SlabCache` bounded by
    ``max_bytes_in_core``, prefetching one slab ahead on the shared
    prefetch thread of :mod:`repro.tensor.ooc` while the parent computes
    on the current one.  Slabs always run inline in the parent; the
    executor only names the engine's backend in its call log.

    **Bit-identity.**  The store holds ALLMODE trees split at root-slice
    boundaries, so every slab is served by the root kernel: the per-slab
    upward sweep (:func:`~repro.kernels.mttkrp_csf._upward_to_level`) is
    computed segment-by-segment exactly as the monolithic in-core sweep
    would (fiber segments never cross a slab boundary), and each slab
    writes a **disjoint** set of output rows (root ids are unique and
    ascending across slabs), so no reduction — and no reduction-order
    sensitivity — exists.  Residency decisions only change *when* bytes
    are mapped, never *what* is computed, so factors and traces are
    bit-identical to the in-core engines for any byte budget, eviction
    schedule, or prefetch timing.

    Streaming always computes with dense factors (the root kernel's
    sparse-representation path needs a persistent leaf aggregator per
    tree, which would defeat eviction), so ``repr_policy`` must be
    ``"dense"``.
    """

    def __init__(self, store,
                 repr_policy: ReprPolicy = "dense",
                 threads: int | None = 1,
                 executor: "str | ExecutorBase | None" = None,
                 max_bytes_in_core: int | None = None,
                 prefetch: bool = True):
        from ..tensor.ooc import SlabCache, SlabStreamer
        from ..tensor.store import resolve_byte_budget
        require(repr_policy == "dense",
                "the streaming (out-of-core) engine computes with dense "
                f"factors only; got repr_policy={repr_policy!r}")
        require(threads is None or threads >= 1,
                f"threads must be None or at least 1, got {threads!r}")
        self.store = store
        self.repr_policy: ReprPolicy = "dense"
        self.threads = threads
        self._executor = resolve_executor(executor)
        if max_bytes_in_core is None:
            max_bytes_in_core = getattr(store, "max_bytes_in_core", None)
        if max_bytes_in_core is None:
            max_bytes_in_core = resolve_byte_budget()
        #: One residency set shared by every mode — the byte budget is a
        #: process-level promise, not a per-mode one.
        self.cache = SlabCache(max_bytes_in_core)
        self._streamer = SlabStreamer(store, self.cache, prefetch=prefetch)
        self._rep_names: dict[int, str] = {}
        #: Pooled output buffers, one per mode (zero-allocation after
        #: warm-up, matching the in-core workspace contract: the result
        #: is valid until the next call for the same mode).
        self._out: dict[int, np.ndarray] = {}
        self.executor_events: list = []
        self.call_log: list[MTTKRPCallStats] = []

    @property
    def nmodes(self) -> int:
        return self.store.nmodes

    @property
    def executor_name(self) -> str:
        return self._executor.name

    @property
    def max_bytes_in_core(self) -> int | None:
        return self.cache.max_bytes_in_core

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drop resident slabs (idempotent; the store stays open)."""
        self.cache.clear()

    def __enter__(self) -> "StreamingMTTKRPEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    def update_factor(self, mode: int, factor: np.ndarray) -> str:
        """Register a factor update; streaming always computes dense."""
        mode = check_mode(mode, self.nmodes)
        self._rep_names[mode] = "dense"
        record_representation(mode, "dense", np.asarray(factor))
        return "dense"

    def representation(self, mode: int) -> str:
        return self._rep_names.get(mode, "dense")

    def _out_buffer(self, mode: int, rank: int) -> tuple[np.ndarray, int]:
        shape = (self.store.shape[mode], rank)
        out = self._out.get(mode)
        allocated = 0
        if out is None or out.shape != shape:
            out = np.empty(shape, dtype=np.float64)
            self._out[mode] = out
            allocated = out.nbytes
        out.fill(0.0)
        return out, allocated

    def mttkrp(self, factors: FactorList, mode: int) -> np.ndarray:
        """MTTKRP for *mode*, streamed slab-by-slab under the byte budget."""
        mode = check_mode(mode, self.nmodes)
        rank = int(np.asarray(factors[0]).shape[1])
        start = time.perf_counter()
        out, allocated = self._out_buffer(mode, rank)
        with span("mttkrp", mode=mode, representation="dense",
                  streaming=True):
            for slab in self._streamer.iter_mode(mode):
                tree = slab.tree
                # The root kernel on one slab: fibers never straddle a
                # slab boundary and root ids are disjoint across slabs,
                # so these row writes compose bit-identically with the
                # monolithic sweep.
                rows = _upward_to_level(tree, factors, 0)
                out[tree.fids[0]] = rows
        stats = MTTKRPCallStats(
            mode=mode, leaf_mode=self.store.mode_order(mode)[-1],
            representation="dense",
            gathered_nnz=self.store.nnz * rank,
            tensor_nnz=self.store.nnz,
            slab_count=self.store.slab_count(mode),
            bytes_allocated=allocated,
            seconds=time.perf_counter() - start,
            executor=self._executor.name)
        self.call_log.append(stats)
        record_mttkrp_call(stats, rank=rank)
        return out


def make_engine(tensor,
                repr_policy: ReprPolicy = "dense",
                sparsity_threshold: float = SPARSITY_THRESHOLD,
                tol: float = 0.0,
                csf_allocation: str = "all",
                threads: int | None = 1,
                slab_nnz_target: int | None = None,
                executor: "str | ExecutorBase | None" = None,
                max_bytes_in_core: int | None = None,
                rank: int | None = None,
                tune: str | None = None):
    """Build the right MTTKRP engine for any ``TensorSource``.

    The single dispatch point the drivers use:

    * :class:`~repro.tensor.store.ShardedTensorStore` →
      :class:`StreamingMTTKRPEngine` (out-of-core, budget-bounded);
    * :class:`~repro.tensor.csf.CSFTensor` → expanded back to COO (the
      engine re-sorts per mode anyway) and handled below;
    * :class:`~repro.tensor.coo.COOTensor` → :class:`MTTKRPEngine` with
      all trees built eagerly (the historical driver behaviour).

    ``max_bytes_in_core`` only influences the out-of-core path; in-core
    tensors are already resident and the knob is ignored for them.

    When *rank* is given, *slab_nnz_target* is not (an explicit target
    is a user pin), and the resolved tune mode (*tune* argument, else
    ``REPRO_TUNE``, else ``"model"``) is not ``"off"``, the in-core
    engine's per-mode slab targets are chosen by the
    :class:`~repro.kernels.autotune.BackendAutotuner` — selection is
    performance-only and bit-invisible (csf family).  The streaming
    engine is never tuned: its slab decomposition was fixed on disk
    when the store was sharded.
    """
    from ..tensor.store import ShardedTensorStore
    if isinstance(tensor, ShardedTensorStore):
        if repr_policy != "dense":
            # The streaming root kernel has no sparse-factor variant
            # (a persistent per-tree leaf aggregator would defeat
            # eviction): degrade to dense rather than fail — otherwise
            # a process-wide REPRO_MAX_BYTES_IN_CORE would break any
            # run configured with repr_policy="auto"/"csr".
            warnings.warn(
                f"repr_policy={repr_policy!r} is unavailable out of "
                "core; the streaming engine computes with dense factors",
                RuntimeWarning, stacklevel=2)
        return StreamingMTTKRPEngine(
            tensor, threads=threads,
            executor=executor, max_bytes_in_core=max_bytes_in_core)
    if isinstance(tensor, CSFTensor):
        tensor = tensor.to_coo()
    require(isinstance(tensor, COOTensor),
            f"cannot build an MTTKRP engine from {type(tensor).__name__}")
    engine = MTTKRPEngine(tensor, repr_policy=repr_policy,
                          sparsity_threshold=sparsity_threshold,
                          tol=tol, csf_allocation=csf_allocation,
                          threads=threads,
                          slab_nnz_target=slab_nnz_target,
                          executor=executor)
    engine.trees.build_all()
    if rank is not None and slab_nnz_target is None:
        tune_mode = resolve_tune_mode(tune)
        if tune_mode != "off":
            tuner = BackendAutotuner(mode=tune_mode)
            tuner.tune_engine(engine, rank)
    return engine
