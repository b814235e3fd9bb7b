"""End-to-end fit benchmark: time to target error, set-up and memory.

    python3 perfbench/run.py --workload nell-blocked --seed 1 --seconds 20 \\
        --trace 0

It measures the checkout above ``perfbench/``.  The workload's Table I
stand-in is generated and written to disk under ``.perfbench/`` first
(not timed).  Then one factorization after another runs, each in a fresh
process (``fit_once.py``) with every ``REPRO_*`` variable cleared and one
BLAS thread, until ``--seconds`` are spent (at least three untraced
fits).  A speed probe (``probe.py``) samples the core each fit runs on,
and the fit's end-to-end times are reported in reference seconds, which
the machine's changing speed does not move.  Each fit's
outputs and code path are checked; a fit that fails a check, raises or
misses its target counts as failed and contributes no timing.  With
``--trace 1`` the fits alternate between untraced and traced ones, and
the per-layer metrics come from the traced fits.

The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the medians over the run's fits of the ``end_to_end`` metrics of
``BENCHMARK.json`` (``--trace 0``) or of its ``per_layer`` metrics
(``--trace 1``).  Lines before it give every fit, the medians with their
spread and sample count, the per-layer split, and the machine fingerprint,
which is also written with the full result to
``.perfbench/results/<workload>-seed<seed>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from fingerprint import machine_fingerprint
from probe import reference_seconds
from tracer import LAYERS
from workloads import DATASET_SEED, OOC_BUDGET_SHARE, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
#: A fit still running this many seconds after the run started is killed
#: (and fails), so that a hung fit cannot hold the run past 180 s.
RUN_DEADLINE = 170.0
#: Untraced fits per run at least, so that one slow fit cannot move a
#: run's median by itself.
MIN_FITS = 3
#: Every BLAS pool of the run and its fits: one thread, so that a fit
#: occupies one core and leaves the other to the rest of the machine.
SINGLE_THREADED = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
#: The end-to-end times, as the stamps of ``fit_once.py`` that bound them.
INTERVALS = {"setup_s": ("open", "fit"),
             "time_to_target_s": ("open", "target"),
             "fit_s": ("open", "done")}


def pinned_env() -> dict:
    """The environment of every fit: no ``REPRO_*`` overrides, one BLAS
    thread."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(SINGLE_THREADED)
    return env


def prepare(workload, seed: int, workdir: Path) -> None:
    """Write the workload's input, relabelled by *seed*, into *workdir*."""
    import numpy as np

    import repro
    from repro.datasets.loader import load_dataset

    base, _ = load_dataset(workload.dataset, workload.preset, DATASET_SEED)
    rng = np.random.default_rng(seed)
    perms = [rng.permutation(extent) for extent in base.shape]
    tensor = repro.COOTensor(
        np.stack([perm[coords] for perm, coords in zip(perms, base.coords)]),
        base.vals, base.shape)
    np.savez(workdir / "perms.npz",
             **{f"mode{m}": perm for m, perm in enumerate(perms)})
    inputs = {"shape": list(tensor.shape), "max_bytes_in_core": None,
              "checkpoint_dir": str(workdir / "checkpoints")}
    if not workload.out_of_core:
        inputs["path"] = str(workdir / "input.tns")
        repro.save_tns(tensor, inputs["path"])
        # Flush now, so write-back does not run during the first fit.
        with open(inputs["path"], "rb") as handle:
            os.fsync(handle.fileno())
    else:
        inputs["path"] = str(workdir / "store")
        with repro.ShardedTensorStore.create(tensor, inputs["path"]) as store:
            inputs["max_bytes_in_core"] = max(
                1, int(store.storage_bytes() * OOC_BUDGET_SHARE))
    (workdir / "inputs.json").write_text(json.dumps(inputs))


def await_line(probe: subprocess.Popen, word: bytes, timeout: float) -> None:
    """Wait for the probe to print *word*."""
    ready, _, _ = select.select([probe.stdout], [], [], max(1.0, timeout))
    line = probe.stdout.readline() if ready else b""
    if line.strip() != word:
        raise RuntimeError(f"the speed probe did not print {word!r} "
                           f"(got {line!r}, exit code {probe.poll()})")


def run_fit(workload, workdir: Path, index: int, traced: bool,
            deadline: float, probe: subprocess.Popen) -> dict:
    """One fit in a fresh process, probed; its result and wall time.

    The end-to-end times of a fit that passed are in reference seconds
    (see ``probe.py``); ``record["wall"]`` keeps them in wall seconds.
    """
    out = workdir / f"fit{index}.json"
    log = workdir / f"fit{index}.log"
    samples_path = workdir / f"probe{index}.json"
    shutil.rmtree(workdir / "checkpoints", ignore_errors=True)
    cmd = [sys.executable, str(HERE / "fit_once.py"),
           "--workload", workload.name, "--workdir", str(workdir),
           "--out", str(out)] + (["--trace"] if traced else [])
    start = time.monotonic()
    with open(log, "wb") as handle:
        proc = subprocess.Popen(cmd, env=pinned_env(), cwd=ROOT,
                                stdout=handle, stderr=subprocess.STDOUT)
        try:
            probe.stdin.write(f"{proc.pid} {samples_path}\n".encode())
            probe.stdin.flush()
            proc.wait(timeout=max(0.0, deadline - start))
        except subprocess.TimeoutExpired:
            pass
        finally:
            # Past the deadline, or leaving on an exception (or SIGTERM):
            # end the fit too.
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    # The probe stops once the fit has ended.
    await_line(probe, b"done", deadline - time.monotonic() + 5.0)
    if out.is_file():
        record = json.loads(out.read_text())
        if record["ok"]:
            samples = json.loads(samples_path.read_text())
            stamps = record["stamps"]
            record["wall"] = {name: record[name] for name in INTERVALS}
            for name, (begin, end) in INTERVALS.items():
                record[name] = reference_seconds(samples, stamps[begin],
                                                 stamps[end])
            units = [cpu for t, cpu, _ in samples
                     if stamps["open"] <= t < stamps["done"]]
            record["probe"] = {"samples": len(units),
                               "mean_unit_s": statistics.fmean(units)}
    else:
        tail = log.read_text(errors="replace")[-2000:]
        record = {"ok": False,
                  "error": f"exit code {proc.returncode}: {tail}"}
    record["traced"] = traced
    record["wall_s"] = time.monotonic() - start
    return record


def run_fits(workload, workdir: Path, args, deadline: float,
             probe: subprocess.Popen) -> list[dict]:
    """Fits one after another until ``args.seconds`` are spent."""
    fits = []
    kinds = itertools.cycle([False, True] if args.trace else [False])
    start = time.monotonic()
    for index in itertools.count(1):
        traced = next(kinds)
        record = run_fit(workload, workdir, index, traced, deadline, probe)
        fits.append(record)
        state = "ok" if record["ok"] else "FAILED"
        print(f"fit {index} {'traced' if traced else 'plain'} {state} "
              f"wall={record['wall_s']:.2f}s "
              + (f"fit_s={record['fit_s']:.3f} "
                 f"time_to_target_s={record['time_to_target_s']:.3f} "
                 f"setup_s={record['setup_s']:.3f} (wall "
                 f"{record['wall']['fit_s']:.3f} "
                 f"{record['wall']['time_to_target_s']:.3f} "
                 f"{record['wall']['setup_s']:.3f}) "
                 f"probe {record['probe']['samples']} x "
                 f"{record['probe']['mean_unit_s'] * 1e3:.3f} ms "
                 f"errors={[round(e, 6) for e in record['errors']]}"
                 if record["ok"] else record["error"].strip()),
              flush=True)
        elapsed = time.monotonic() - start
        if args.trace:
            have_all = len({f["traced"] for f in fits}) == 2
        else:
            have_all = len(fits) >= MIN_FITS
        typical = statistics.median(f["wall_s"] for f in fits)
        if have_all and elapsed + 0.5 * typical >= args.seconds \
                or time.monotonic() >= deadline:
            return fits


def describe(values: list) -> dict:
    return {"median": statistics.median(values), "min": min(values),
            "max": max(values), "n": len(values)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=20170814)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_DEADLINE
    # Turn SIGTERM into SystemExit, so the running fit is stopped and the
    # work directory removed on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no library sources under {ROOT / 'src'}; perfbench/ "
              "must sit at the root of a checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    # Before NumPy is imported, so that the fingerprint sees the fits' BLAS.
    env = pinned_env()
    os.environ.clear()
    os.environ.update(env)
    sys.path.insert(0, str(ROOT / "src"))

    workdir = WORK / f"{workload.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        prepare(workload, args.seed, workdir)
        fingerprint = machine_fingerprint(ROOT)
        probe = subprocess.Popen([sys.executable, str(HERE / "probe.py")],
                                 env=pinned_env(), cwd=ROOT, bufsize=0,
                                 stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        try:
            await_line(probe, b"ready", deadline - time.monotonic())
            fits = run_fits(workload, workdir, args, deadline, probe)
        finally:
            probe.stdin.close()
            try:
                probe.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                probe.kill()
                probe.wait()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    good = [f for f in fits if f["ok"]]
    plain = [f for f in good if not f["traced"]]
    traced_fits = [f for f in good if f["traced"]]
    if not plain or (args.trace and not traced_fits):
        print("error: no fit of the run succeeded", file=sys.stderr)
        return 1
    summary: dict[str, dict] = {}
    metrics: dict[str, dict] = {}
    if args.trace:
        for metric in spec["per_layer"]:
            name = metric["name"]
            if name == "trace.overhead_frac":
                untraced = statistics.median(f["fit_s"] for f in plain)
                traced_s = statistics.median(f["fit_s"] for f in traced_fits)
                values = [(traced_s - untraced) / untraced]
            else:
                values = [f["layers"][name] for f in traced_fits]
            summary[name] = describe(values)
            metrics[name] = {"value": summary[name]["median"],
                             "unit": metric["unit"]}
    else:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            summary[name] = describe([f[name] for f in plain])
            metrics[name] = {"value": summary[name]["median"],
                             "unit": metric["unit"]}

    print(f"workload {workload.name}: seed {args.seed}, {len(fits)} fits, "
          f"{len(fits) - len(good)} failed")
    if args.trace:
        # The untraced fits of a traced run still give every end-to-end
        # metric; they are printed, but only the per-layer ones are the
        # run's result.
        for metric in spec["end_to_end"]:
            name = metric["name"]
            s = describe([f[name] for f in plain])
            print(f"  {name:32s} median {s['median']:.6g} {metric['unit']}"
                  f"  (min {s['min']:.6g}, max {s['max']:.6g}, n={s['n']}, "
                  "untraced)")
    for name, s in summary.items():
        print(f"  {name:32s} median {s['median']:.6g} {metrics[name]['unit']}"
              f"  (min {s['min']:.6g}, max {s['max']:.6g}, n={s['n']})")
    if args.trace:
        print_split(metrics)
    print("fingerprint " + json.dumps(fingerprint))
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps({"workload": workload.name, "seed": args.seed,
                              "fingerprint": fingerprint, "fits": fits,
                              "summary": summary}, indent=1))
    print(json.dumps({"correct": len(good) == len(fits),
                      "attempted": len(fits),
                      "failed": len(fits) - len(good),
                      "metrics": metrics}))
    return 0


def print_split(metrics: dict) -> None:
    """Where the traced fit's time went, as shares of ``repro.fit``."""
    value = {name: m["value"] for name, m in metrics.items()}
    fit = value["trace.fit_s"]
    print(f"  traced repro.fit {fit:.3f} s; main-thread self time by layer "
          "(tensor, kernels and core include set-up):")
    for layer in LAYERS:
        print(f"    {layer:12s} self {value[f'layer.{layer}.self_s']:8.3f} s"
              f"  incl {value[f'layer.{layer}.incl_s']:8.3f} s"
              f"  self/fit {value[f'layer.{layer}.self_s'] / fit:6.1%}")
    solver = sum(value[f"layer.{layer}.self_s"]
                 for layer in ("admm", "linalg", "constraints"))
    print(f"  shares of the traced fit: admm+linalg+constraints "
          f"{solver / fit:.1%}, kernels.mttkrp_s "
          f"{value['kernels.mttkrp_s'] / fit:.1%}, "
          f"robustness.checkpoint_s "
          f"{value['robustness.checkpoint_s'] / fit:.1%}, "
          f"core.driver_self_s {value['core.driver_self_s'] / fit:.1%}; "
          f"prefetch-thread load_slab "
          f"{value['tensor.load_slab_prefetch_s']:.3f} s (overlapped)")


if __name__ == "__main__":
    sys.exit(main())
