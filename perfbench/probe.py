"""Machine-speed probe: how fast the core a fit runs on is, while it runs.

The shared 2-vCPU machines the benchmark runs on switch between a fast
and a slow state, about 1.5x apart, from one second to the next and for
minutes at a time (other tenants' load on the same physical core); the
two vCPUs switch independently.  A fit's wall time follows that state, so
the raw times of ten runs spread by up to 50% with the same code.

While a fit runs, this process follows the fit's main thread from core to
core: every ``INTERVAL_S`` it moves itself onto the core the fit last ran
on and runs one fixed unit of work there (small dense solves from Python
and a loop of integer arithmetic; no ``repro`` code), recording the
unit's CPU time.  The unit's CPU time measures the core's speed at that
moment; the probe's own CPU time is time the fit could not run.
:func:`reference_seconds` turns a wall-clock interval of the fit into
reference seconds: the interval minus the probe's CPU time in it, scaled
by ``REFERENCE_UNIT_S`` over the probe's mean unit time in it.  A change
to the library moves reference seconds as it moves wall seconds; the
machine's state cancels.

Protocol (``run.py``): the probe prints ``ready`` once warm; for each fit
it reads ``<pid> <output path>`` from standard input, samples until that
process has ended (or is a zombie), writes its samples as JSON
``[[start perf_counter, unit CPU seconds, iteration CPU seconds], ...]``
to the path and prints ``done``; it exits when standard input closes.

    python3 perfbench/probe.py
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time

#: Seconds between two probe units (each takes about 0.5 ms).
INTERVAL_S = 0.02
#: CPU seconds of one unit on the core the benchmark was defined on, in its
#: fast state.  It only scales the reported times: reference seconds are
#: seconds on a core that runs one unit in this time.
REFERENCE_UNIT_S = 0.0005
#: Fewest samples the speed of an interval is taken from: an interval with
#: fewer samples of its own (set-up can take 30 ms) takes the speed of the
#: ones nearest to its middle.
MIN_SAMPLES = 5


class Unit:
    """The fixed unit of work, its inputs built once."""

    def __init__(self) -> None:
        import numpy as np
        from scipy.linalg import solve_triangular

        rng = np.random.default_rng(12345)
        gram = rng.standard_normal((16, 16))
        self._chol = np.linalg.cholesky(gram @ gram.T + 16.0 * np.eye(16))
        self._rhs = rng.standard_normal((16, 8))
        self._np, self._solve = np, solve_triangular

    def __call__(self) -> float:
        """Run the unit; its CPU seconds."""
        np, solve = self._np, self._solve
        start = time.thread_time()
        for _ in range(20):
            x = solve(self._chol, self._rhs, lower=True)
            np.maximum(x, 0.0, out=x)
        total = 0
        for i in range(1000):
            total += i
        return time.thread_time() - start


def _last_core(pid: int) -> "int | None":
    """The core *pid* last ran on, or ``None`` once it has ended."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return None
    # fields[0] is stat field 3 (state), so field 39 (processor) is [36].
    return None if fields[0] in ("Z", "X") else int(fields[36])


def sample(pid: int, unit: Unit) -> list[list[float]]:
    """Probe the core of *pid* until it ends."""
    samples = []
    while (core := _last_core(pid)) is not None:
        spent = time.thread_time()
        os.sched_setaffinity(0, {core})
        start = time.perf_counter()
        cpu = unit()
        samples.append([start, cpu, time.thread_time() - spent])
        time.sleep(INTERVAL_S)
    return samples


def reference_seconds(samples: list, start: float, end: float) -> float:
    """The interval ``[start, end)`` of a probed fit in reference seconds."""
    inside = [s for s in samples if start <= s[0] < end]
    basis = inside if len(inside) >= MIN_SAMPLES else sorted(
        samples, key=lambda s: abs(s[0] - (start + end) / 2))[:MIN_SAMPLES]
    if len(basis) < MIN_SAMPLES:
        raise ValueError(f"only {len(samples)} probe samples")
    stolen = sum(s[2] for s in inside)
    speed = REFERENCE_UNIT_S / statistics.fmean(s[1] for s in basis)
    return (end - start - stolen) * speed


def main() -> int:
    unit = Unit()
    for _ in range(20):  # warm-up
        unit()
    print("ready", flush=True)
    while line := sys.stdin.readline():
        pid, path = line.split(maxsplit=1)
        samples = sample(int(pid), unit)
        with open(path.strip(), "w", encoding="utf-8") as handle:
            json.dump(samples, handle)
        print("done", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
