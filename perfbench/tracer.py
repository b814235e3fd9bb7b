"""Outside-in layer tracing for one fit.

The library is not edited.  :func:`instrument` replaces the public
callables at each layer boundary with wrappers that record a span (name,
start, end, parent span, thread) in a :class:`Tracer`, and
:func:`layer_metrics` turns the spans of one traced fit into the
benchmark's per-layer metrics.  Spans stay in memory; only their
per-name summary leaves the process.

A span's layer is the part of its name before the first dot, after the
library's package names (``tensor``, ``kernels``, ``sparse``, ``admm``,
``linalg``, ``constraints``, ``robustness``, ``core``).  Self time is a
span's duration minus the durations of its direct children on the same
thread.  Spans on threads other than the main one (slab prefetch) overlap
the main thread and block nothing, so they are kept out of the main
thread's self and inclusive sums and reported on their own.
"""

from __future__ import annotations

import contextlib
import functools
import os
import threading
import time

LAYERS = ("tensor", "kernels", "sparse", "admm", "linalg", "constraints",
          "robustness", "core")

# Span record fields (a list per span keeps the hot path cheap).
_NAME, _PARENT, _START, _END = range(4)


class Tracer:
    """In-memory span recorder.

    Each thread appends to its own span list, so recording takes no lock;
    a span's parent is the index of the enclosing span in the same list.
    ``begin`` returns the span record itself, which ``end`` closes.
    """

    def __init__(self) -> None:
        #: ``(is_main_thread, spans)`` per thread that recorded a span.
        self.threads: list[tuple[bool, list[list]]] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _register(self) -> None:
        local = self._local
        local.spans, local.stack = [], []
        main = threading.current_thread() is threading.main_thread()
        with self._lock:
            self.threads.append((main, local.spans))

    def begin(self, name: str) -> list:
        local = self._local
        if not hasattr(local, "spans"):
            self._register()
        spans, stack = local.spans, local.stack
        record = [name, stack[-1] if stack else -1, 0.0, 0.0]
        stack.append(len(spans))
        spans.append(record)
        record[_START] = time.perf_counter()
        return record

    def end(self, record: list) -> None:
        record[_END] = time.perf_counter()
        self._local.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        record = self.begin(name)
        try:
            yield record
        finally:
            self.end(record)

    def _walk(self):
        """``(main, name, parent name, duration, self seconds)`` per span."""
        for main, spans in self.threads:
            child = [0.0] * len(spans)
            for name, parent, start, end in spans:
                if parent >= 0:
                    child[parent] += end - start
            for index, (name, parent, start, end) in enumerate(spans):
                parent_name = spans[parent][_NAME] if parent >= 0 else None
                yield (main, name, parent_name, end - start,
                       end - start - child[index])

    def summary(self) -> dict:
        """Per span name: calls, inclusive and self seconds.

        Spans of other threads than the main one are keyed
        ``<name>@prefetch``.
        """
        out: dict[str, dict] = {}
        for main, name, parent_name, duration, self_s in self._walk():
            key = name if main else f"{name}@prefetch"
            entry = out.setdefault(key, {"calls": 0, "incl_s": 0.0,
                                         "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += self_s
            # A span nested in one of the same name is already covered.
            if parent_name != name:
                entry["incl_s"] += duration
        return out

    def layer_totals(self) -> dict:
        """Main-thread self and inclusive seconds per layer.

        A layer's inclusive time sums its outermost spans: those whose
        parent belongs to another layer (or that have no parent).
        """
        totals = {layer: {"self_s": 0.0, "incl_s": 0.0} for layer in LAYERS}
        for main, name, parent_name, duration, self_s in self._walk():
            if not main:
                continue
            layer = name.split(".", 1)[0]
            totals[layer]["self_s"] += self_s
            if parent_name is None or \
                    parent_name.split(".", 1)[0] != layer:
                totals[layer]["incl_s"] += duration
        return totals


class Instrumentation:
    """Wraps library callables with spans; :meth:`restore` undoes it."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Replace ``owner.attr`` with a spanned wrapper.

        *after*, when given, is called as ``after(span, args, result)``
        once the call returns (to rename the span or collect results).
        """
        original = (owner.__dict__[attr] if isinstance(owner, type)
                    else getattr(owner, attr))
        tracer = self.tracer

        @functools.wraps(original)
        def traced(*args, **kwargs):
            record = tracer.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(record)
            if after is not None:
                after(record, args, result)
            return result

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def wrap_generator(self, owner, attr: str, name: str) -> None:
        """Span every step of a generator method (time spent waiting in it)."""
        original = owner.__dict__[attr]
        tracer = self.tracer

        @functools.wraps(original)
        def traced(*args, **kwargs):
            steps = original(*args, **kwargs)
            while True:
                record = tracer.begin(name)
                try:
                    item = next(steps)
                except StopIteration:
                    return
                finally:
                    tracer.end(record)
                yield item

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


class FitProbe:
    """What the wrappers collect besides spans: checkpoint bytes written."""

    def __init__(self) -> None:
        self.checkpoint_bytes = 0


def instrument(tracer: Tracer, probe: FitProbe) -> Instrumentation:
    """Wrap every layer boundary the benchmark reports on."""
    import repro.admm.blocked as blocked
    import repro.admm.solver as solver
    import repro.core.aoadmm as aoadmm
    from repro.constraints.base import Constraint
    from repro.kernels.autotune import BackendAutotuner
    from repro.kernels.dispatch import MTTKRPEngine, StreamingMTTKRPEngine
    from repro.linalg.cholesky import CholeskyFactor
    from repro.linalg.grams import GramCache
    from repro.robustness.checkpoint import CheckpointStore
    from repro.robustness.guards import HealthMonitor
    from repro.tensor.csf import AllModeCSF
    from repro.tensor.ooc import SlabStreamer
    from repro.tensor.store import ShardedTensorStore

    inst = Instrumentation(tracer)

    def classify_mttkrp(record, args, result):
        engine = args[0]
        if engine.call_log and engine.call_log[-1].representation != "dense":
            record[_NAME] = "kernels.mttkrp_sparse"

    def checkpoint_written(record, args, path):
        probe.checkpoint_bytes += os.path.getsize(path)

    inst.wrap(AllModeCSF, "build_all", "tensor.csf_build")
    inst.wrap(ShardedTensorStore, "load_slab", "tensor.load_slab")
    inst.wrap_generator(SlabStreamer, "iter_mode", "tensor.slab_wait")
    inst.wrap(BackendAutotuner, "tune_engine", "kernels.autotune")
    for engine in (MTTKRPEngine, StreamingMTTKRPEngine):
        inst.wrap(engine, "mttkrp", "kernels.mttkrp", after=classify_mttkrp)
        inst.wrap(engine, "update_factor", "sparse.update_factor")
    inst.wrap(aoadmm, "blocked_admm_update", "admm.update")
    inst.wrap(aoadmm, "admm_update", "admm.update")
    inst.wrap(blocked, "relative_residuals", "admm.residuals")
    inst.wrap(solver, "relative_residuals", "admm.residuals")
    inst.wrap(CholeskyFactor, "__init__", "linalg.cholesky")
    inst.wrap(CholeskyFactor, "solve_t", "linalg.solve_t")
    inst.wrap(GramCache, "gram_excluding", "linalg.gram")
    inst.wrap(GramCache, "gram_all", "linalg.gram")
    for cls in _subclasses(Constraint):
        if "prox" in cls.__dict__:
            inst.wrap(cls, "prox", "constraints.prox")
    inst.wrap(aoadmm, "save_checkpoint", "robustness.checkpoint",
              after=checkpoint_written)
    inst.wrap(CheckpointStore, "save", "robustness.checkpoint",
              after=checkpoint_written)
    for method in ("commit", "check_mttkrp", "check_state", "observe_error"):
        inst.wrap(HealthMonitor, method, "robustness.guards")
    return inst


def _subclasses(cls: type) -> list[type]:
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out


def layer_metrics(tracer: Tracer, probe: FitProbe, engine, call_log_start: int,
                  solves: list, max_inner_iterations: int) -> dict:
    """The per-layer metrics of one traced fit (see BENCHMARK.json).

    *solves* holds ``(rows, inner iterations)`` of every ADMM solve.
    """
    names = tracer.summary()
    layers = tracer.layer_totals()

    def calls(name):
        return names.get(name, {}).get("calls", 0)

    def incl(name):
        return names.get(name, {}).get("incl_s", 0.0)

    def self_s(name):
        return names.get(name, {}).get("self_s", 0.0)

    mttkrp_calls = calls("kernels.mttkrp") + calls("kernels.mttkrp_sparse")
    mttkrp_s = self_s("kernels.mttkrp") + self_s("kernels.mttkrp_sparse")
    nnz_f = sum(c.gathered_nnz for c in engine.call_log[call_log_start:])
    cache = getattr(engine, "cache", None)
    hit_ratio = 0.0
    if cache is not None:
        stats = cache.stats()
        lookups = stats["hits"] + stats["misses"]
        hit_ratio = stats["hits"] / lookups if lookups else 0.0

    inner = sum(its for _, its in solves)
    row_iterations = sum(rows * its for rows, its in solves)
    capped = sum(1 for _, its in solves if its >= max_inner_iterations)
    admm_s = incl("admm.update")

    metrics = {
        "tensor.open_s": incl("tensor.open"),
        "tensor.csf_build_s": incl("tensor.csf_build"),
        "tensor.load_slab_calls": calls("tensor.load_slab")
        + calls("tensor.load_slab@prefetch"),
        "tensor.load_slab_main_s": incl("tensor.load_slab"),
        "tensor.load_slab_prefetch_s": incl("tensor.load_slab@prefetch"),
        "tensor.slab_wait_s": incl("tensor.slab_wait"),
        "tensor.slab_cache_hit_ratio": hit_ratio,
        "kernels.make_engine_s": incl("kernels.make_engine"),
        "kernels.autotune_s": incl("kernels.autotune"),
        "kernels.mttkrp_calls": mttkrp_calls,
        "kernels.mttkrp_s": mttkrp_s,
        "kernels.mttkrp_nnzF": nnz_f,
        "kernels.mttkrp_nnzF_per_s": nnz_f / mttkrp_s if mttkrp_s else 0.0,
        "kernels.mttkrp_sparse_calls": calls("kernels.mttkrp_sparse"),
        "kernels.mttkrp_sparse_s": self_s("kernels.mttkrp_sparse"),
        "sparse.update_factor_calls": calls("sparse.update_factor"),
        "sparse.update_factor_s": incl("sparse.update_factor"),
        "admm.update_calls": calls("admm.update"),
        "admm.update_s": admm_s,
        # Children are solve_t, Cholesky, prox and residuals.
        "admm.update_self_s": self_s("admm.update"),
        "admm.residuals_calls": calls("admm.residuals"),
        "admm.residuals_s": incl("admm.residuals"),
        "admm.inner_iterations": inner,
        "admm.row_iterations": row_iterations,
        "admm.row_iterations_per_s": row_iterations / admm_s if admm_s
        else 0.0,
        "admm.capped_frac": capped / len(solves) if solves else 0.0,
        "linalg.cholesky_calls": calls("linalg.cholesky"),
        "linalg.cholesky_s": incl("linalg.cholesky"),
        "linalg.solve_t_calls": calls("linalg.solve_t"),
        "linalg.solve_t_s": incl("linalg.solve_t"),
        "linalg.gram_s": incl("linalg.gram"),
        "constraints.prox_calls": calls("constraints.prox"),
        "constraints.prox_s": incl("constraints.prox"),
        "robustness.checkpoint_calls": calls("robustness.checkpoint"),
        "robustness.checkpoint_s": incl("robustness.checkpoint"),
        "robustness.checkpoint_bytes": probe.checkpoint_bytes,
        "robustness.guards_s": incl("robustness.guards"),
        "core.init_s": incl("core.init"),
        "core.driver_self_s": self_s("core.fit"),
        "trace.fit_s": incl("core.fit"),
    }
    for layer, total in layers.items():
        metrics[f"layer.{layer}.self_s"] = total["self_s"]
        metrics[f"layer.{layer}.incl_s"] = total["incl_s"]
    return metrics
