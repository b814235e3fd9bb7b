"""One timed factorization in its own process, with its output checks.

Run by ``run.py``, one process per fit.  Reads the inputs ``run.py``
prepared in ``--workdir`` and writes one JSON result to ``--out``:

* the end-to-end times, stamped from outside the library: ``open_tensor``,
  ``make_engine``, ``init_factors`` and ``repro.fit`` with a callback that
  stamps the wall clock after every outer iteration; the stamps themselves
  too (``stamps``), which ``run.py`` matches with the speed probe's samples;
* the process's peak resident memory when ``repro.fit`` returns, before
  any check allocates;
* the output and path checks, with the reason for any that failed;
* with ``--trace``, the per-layer metrics of :mod:`tracer`.

    python3 perfbench/fit_once.py --workload nell-blocked \\
        --workdir .perfbench/nell-blocked-1 --out result.json [--trace]
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from tracer import FitProbe, Tracer, instrument, layer_metrics
from workloads import DATASET_SEED, RANK, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

#: Allowed gap between the fit's reported final error (norm identity on
#: the last MTTKRP) and the error recomputed over the non-zeros.
ERROR_AGREEMENT = 1e-6


class CheckFailed(Exception):
    """An output or path check failed; the fit counts as failed."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def fit_once(workload, workdir: Path, traced: bool) -> dict:
    import numpy as np

    import repro
    from repro.admm.blocked import BlockedAdmmReport
    from repro.core.init import init_factors
    from repro.kernels.dispatch import (
        MTTKRPEngine,
        StreamingMTTKRPEngine,
        make_engine,
    )
    from repro.robustness.checkpoint import CheckpointStore

    inputs = json.loads((workdir / "inputs.json").read_text())
    with np.load(workdir / "perms.npz") as data:
        perms = [data[f"mode{m}"] for m in range(len(data.files))]
    name, kwargs = workload.constraint
    option_kwargs = dict(workload.options)
    checkpoint_base = None
    if workload.out_of_core:
        ckpt_dir = Path(inputs["checkpoint_dir"])
        ckpt_dir.mkdir(parents=True)
        checkpoint_base = ckpt_dir / "fit.npz"
        option_kwargs.update(checkpoint_every=1, checkpoint_keep_last=2,
                             checkpoint_path=str(checkpoint_base))
    stamps: list[tuple[float, int]] = []

    def stamp(record) -> bool:
        stamps.append((time.perf_counter(), record.iteration))
        return False

    options = repro.options_from_kwargs(
        rank=RANK, constraints=repro.make_constraint(name, **kwargs),
        outer_tolerance=0.0, max_outer_iterations=workload.iterations,
        # Keeps every ADMM report in the trace, for the path check and the
        # ADMM work counts.
        track_block_reports=True, callback=stamp, **option_kwargs)
    budget = inputs["max_bytes_in_core"]

    tracer, probe = Tracer(), FitProbe()
    inst = instrument(tracer, probe) if traced else None
    span = tracer.span if traced else (lambda _: contextlib.nullcontext())

    t_open = time.perf_counter()
    with span("tensor.open"):
        tensor = repro.open_tensor(inputs["path"], max_bytes_in_core=budget,
                                   shape=inputs["shape"])
    t_engine = time.perf_counter()
    with span("kernels.make_engine"):
        engine = make_engine(
            tensor, repr_policy=options.repr_policy,
            sparsity_threshold=options.sparsity_threshold,
            tol=options.factor_zero_tol, threads=options.threads,
            slab_nnz_target=options.slab_nnz_target,
            executor=options.executor, max_bytes_in_core=budget,
            rank=options.rank, tune=options.tune)
    t_init = time.perf_counter()
    with span("core.init"):
        factors = init_factors(tensor, RANK, options.init, DATASET_SEED)
        # Give every row the initial value of its unrelabelled twin.
        factors = [f[np.argsort(p)] for f, p in zip(factors, perms)]
    t_fit = time.perf_counter()
    call_log_start = len(engine.call_log)
    with span("core.fit"):
        result = repro.fit(tensor, options=options, engine=engine,
                           initial_factors=factors)
    t_done = time.perf_counter()
    # Linux reports ru_maxrss in KiB.  The process ran this one fit only.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if inst is not None:
        inst.restore()

    errors = [float(e) for e in result.trace.errors()]
    reports = [(mode, report) for record in result.trace.records
               for mode, report in enumerate(record.block_reports or ())]
    # (rows, inner iterations) of every ADMM solve: one per block when
    # blocked, one per factor otherwise.
    solves = [solve for mode, report in reports for solve in (
        zip(report.block_rows, report.block_iterations)
        if isinstance(report, BlockedAdmmReport)
        else [(tensor.shape[mode], report.iterations)])]
    hit = next((i for i, e in enumerate(errors, 1)
                if e <= workload.target), None)
    out = {
        "open_s": t_engine - t_open,
        "make_engine_s": t_init - t_engine,
        "init_s": t_fit - t_init,
        "setup_s": t_fit - t_open,
        "fit_s": t_done - t_open,
        "peak_rss_mb": peak_rss_mb,
        "iterations": len(errors),
        "errors": errors,
        "stop_reason": result.stop_reason,
    }
    if traced:
        out["layers"] = layer_metrics(tracer, probe, engine, call_log_start,
                                      solves, options.max_inner_iterations)
        out["spans"] = tracer.summary()

    # -- output checks ---------------------------------------------------
    check(hit is not None, f"target {workload.target} not reached in "
          f"{len(errors)} iterations (errors {errors})")
    stamped = dict((it, t) for t, it in stamps)
    # The callback does not fire on the iteration that stops the fit.
    t_target = stamped.get(hit, t_done)
    out["time_to_target_s"] = t_target - t_open
    # System-wide monotonic clock readings, matched with the probe's.
    out["stamps"] = {"open": t_open, "fit": t_fit, "target": t_target,
                     "done": t_done}
    out["iters_to_target"] = hit
    check(result.stop_reason in ("max_iterations", "tolerance"),
          f"unexpected stop reason {result.stop_reason!r}")
    constraints = options.resolve_constraints(tensor.nmodes)
    for mode, (factor, constraint) in enumerate(zip(result.factors,
                                                    constraints)):
        check(bool(np.isfinite(factor).all()),
              f"factor {mode} has non-finite entries")
        check(constraint.is_feasible(factor),
              f"factor {mode} violates {constraint.name}")
    coo = (tensor if isinstance(tensor, repro.COOTensor)
           else tensor.to_coo())
    final = result.model.relative_error(coo)
    out["final_rel_error"] = final
    check(abs(final - result.relative_error) <= ERROR_AGREEMENT,
          f"recomputed error {final!r} disagrees with the reported "
          f"{result.relative_error!r}")

    # -- path checks -----------------------------------------------------
    fit_calls = engine.call_log[call_log_start:]
    sparse_calls = sum(c.representation != "dense" for c in fit_calls)
    ran_blocked = {isinstance(report, BlockedAdmmReport)
                   for _, report in reports}
    check(ran_blocked == {options.blocked},
          f"ADMM ran blocked={sorted(ran_blocked)}, expected "
          f"blocked={options.blocked}")
    if workload.out_of_core:
        check(isinstance(engine, StreamingMTTKRPEngine),
              f"expected the streaming engine, got {type(engine).__name__}")
        evictions = engine.cache.stats()["evictions"]
        check(evictions > 0, "the slab cache never evicted")
    else:
        check(isinstance(tensor, repro.COOTensor)
              and isinstance(engine, MTTKRPEngine),
              f"expected an in-core tensor and engine, got "
              f"{type(tensor).__name__} / {type(engine).__name__}")
    if options.repr_policy == "dense":
        check(sparse_calls == 0, f"{sparse_calls} sparse MTTKRP calls")
    else:
        check(sparse_calls > 0, "no sparse-representation MTTKRP call")
    if checkpoint_base is not None:
        store = CheckpointStore(checkpoint_base, keep_last=2)
        last = len(errors)
        expected = [store.version_path(last - 1), store.version_path(last)]
        check(store.versions() == expected,
              f"kept checkpoints {[p.name for p in store.versions()]}, "
              f"expected {[p.name for p in expected]}")
        # load_checkpoint verifies the factor-state hash.
        latest = repro.load_checkpoint(store.latest_path())
        check(latest.iteration == last,
              f"newest checkpoint is iteration {latest.iteration}")
        if traced:
            writes = out["layers"]["robustness.checkpoint_calls"]
            check(writes == last,
                  f"{writes} checkpoint writes in {last} iterations")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    result: dict
    try:
        result = {"ok": True, **fit_once(WORKLOADS[args.workload],
                                         args.workdir, args.trace)}
    except CheckFailed as exc:
        result = {"ok": False, "error": f"check failed: {exc}"}
    except Exception:  # noqa: BLE001 - any failure is a failed fit
        result = {"ok": False, "error": traceback.format_exc()}
    args.out.write_text(json.dumps(result))
    return 0 if result["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
