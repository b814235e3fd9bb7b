"""Resilient fit supervision: watchdog, retry, preemption, degradation.

:class:`FitSupervisor` wraps the AO-ADMM driver so a factorization
*completes* — or is *cleanly preempted* — under the failure classes a
long-running production fit actually meets:

wedged runs
    A :class:`~repro.robustness.watchdog.Watchdog` thread is fed one
    heartbeat per outer iteration (from the observability layer's
    ``iteration`` events).  AO-ADMM's per-iteration cost is essentially
    constant, so when the time since the last heartbeat exceeds a small
    multiple of the run's own moving estimate, the fit is declared
    *stalled* and interrupted with
    :class:`~repro.robustness.watchdog.FitStalled`.

transient faults
    Stalls, broken process pools
    (:class:`~repro.parallel.procpool.ProcessPoolBroken`), shared-memory
    allocation failures
    (:class:`~repro.parallel.shm.ShmAllocationError` / ``MemoryError``),
    and checkpoint I/O errors (``OSError``) are retried with exponential
    backoff (:mod:`repro.robustness.retry`) from the newest valid
    checkpoint.  Numerical faults are **not** transient — a NaN does not
    go away by retrying — and propagate to the caller.

degradation ladder
    On memory pressure or repeated pool loss the supervisor steps down
    a ladder of progressively more conservative configurations before
    the next attempt: executor ``process -> serial``, then a shrinking
    ``slab_nnz_target``, then kernel memoization off.  Every
    rung changes *where and how fast* work executes, never *what* is
    computed — results stay bit-identical (the executor equivalence
    contract) — so a degraded retry still reproduces the unfaulted run
    exactly.

graceful preemption
    SIGTERM/SIGINT set the driver's ``preempt_flag``; the loop finishes
    the iteration in flight, writes a final checkpoint, and returns with
    ``stop_reason="preempted"`` — a later run with ``resume_from`` the
    same path continues bit-identically.

Every recovery action is recorded three ways: a
:class:`~repro.robustness.guards.GuardEvent` appended to the result's
``trace.guard_log`` (site ``"supervisor"``), a
``record_supervisor_event`` metrics emission, and the
:class:`SupervisorReport` returned alongside the result.
"""

from __future__ import annotations

import signal
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

from ..config import DEFAULT_SLAB_NNZ
from ..core.options import AOADMMOptions
from ..integrity import IntegrityError
from ..kernels.dispatch import configure_memoization, memoization_enabled
from ..observability import (
    Observability,
    add_hook,
    is_enabled,
    record_supervisor_event,
    remove_hook,
    span,
)
from ..parallel.executor import resolve_executor
from ..parallel.procpool import ProcessPoolBroken
from ..parallel.shm import ShmAllocationError
from ..validation import require
from .checkpoint import Checkpoint, CheckpointStore, CheckpointUnavailable
from .guards import GuardEvent, NumericalFaultError
from .retry import Backoff, RetryBudgetExceeded
from .watchdog import FitStalled, Watchdog

#: Smallest ``slab_nnz_target`` the degradation ladder will shrink to.
MIN_SLAB_NNZ = 1024


@dataclass(frozen=True)
class SupervisorOptions:
    """Configuration for :class:`FitSupervisor`.

    Attributes
    ----------
    max_attempts:
        Total fit attempts (first try included) before
        :class:`~repro.robustness.retry.RetryBudgetExceeded` escalates.
    backoff:
        Delay schedule between attempts (deterministic, no jitter — the
        process retries against its own machine, not a shared service).
    checkpoint_every:
        Checkpoint cadence imposed when the wrapped options do not
        already checkpoint; every completed iteration by default, so a
        recovery never repeats more than one iteration of work.
    keep_last:
        Checkpoint versions retained (see
        :class:`~repro.robustness.checkpoint.CheckpointStore`).
    workdir:
        Directory for supervisor-owned checkpoints when the wrapped
        options carry no ``checkpoint_path``; a temporary directory is
        created (and removed after an undisturbed success) when unset.
    watchdog:
        Arm the stall watchdog (on by default).
    stall_factor / min_stall_seconds / stall_window:
        Watchdog tuning — deadline multiple over the moving
        per-iteration estimate, deadline floor/startup grace, and the
        number of recent iterations in the estimate.
    degrade:
        Walk the degradation ladder on pool loss / memory pressure.
    install_signal_handlers:
        Install SIGTERM/SIGINT preemption handlers for the duration of
        :meth:`FitSupervisor.run` (only possible — and only attempted —
        from the main thread).
    sleep / clock:
        Injectable timing for tests.
    """

    max_attempts: int = 5
    backoff: Backoff = field(default_factory=lambda: Backoff(initial=0.05))
    checkpoint_every: int = 1
    keep_last: int = 3
    workdir: "str | Path | None" = None
    watchdog: bool = True
    stall_factor: float = 8.0
    min_stall_seconds: float = 5.0
    stall_window: int = 5
    degrade: bool = True
    install_signal_handlers: bool = True
    sleep: Callable[[float], None] = time.sleep
    clock: Callable[[], float] = time.monotonic

    def __post_init__(self) -> None:
        require(self.max_attempts >= 1, "max_attempts must be at least 1")
        require(self.checkpoint_every >= 1,
                "checkpoint_every must be positive")
        require(self.keep_last >= 1, "keep_last must be at least 1")


@dataclass
class SupervisorReport:
    """What happened across the supervised attempts (the audit trail)."""

    #: Fit attempts started (1 = clean first-try success).
    attempts: int = 0
    #: Stalls the watchdog declared and interrupted.
    stalls: int = 0
    #: Human-readable descriptions of ladder steps taken, in order.
    degradations: list[str] = field(default_factory=list)
    #: ``(attempt, exception repr)`` for every recovered failure.
    failures: list[tuple[int, str]] = field(default_factory=list)
    #: Iteration each retry resumed from (0 = restart from scratch).
    resumed_from: list[int] = field(default_factory=list)
    #: Checkpoint files quarantined as corrupt during recovery.
    quarantined: list[str] = field(default_factory=list)
    #: The run ended via graceful preemption (``stop_reason="preempted"``).
    preempted: bool = False
    #: Supervisor-emitted guard events (also merged into the trace).
    guard_events: list[GuardEvent] = field(default_factory=list)

    @property
    def recovered(self) -> bool:
        return bool(self.failures)


class DegradationLadder:
    """Steps an options object toward ever more conservative execution.

    Each :meth:`advance` call returns a fresh
    :class:`~repro.core.options.AOADMMOptions` one rung down, or
    ``None`` when exhausted.  Rung order: leave the process pool for
    serial, then shrink the MTTKRP slab target (halving toward
    :data:`MIN_SLAB_NNZ`), then switch kernel memoization off.  None of these change computed values — only
    resource footprint and speed.
    """

    def __init__(self, options: AOADMMOptions) -> None:
        self.options = options
        #: Descriptions of the steps taken so far.
        self.steps: list[str] = []

    def _executor_name(self) -> str:
        spec = self.options.executor
        if isinstance(spec, str):
            return spec
        if spec is None:
            return resolve_executor(None).name
        return getattr(spec, "name", "?")

    def advance(self) -> "AOADMMOptions | None":
        name = self._executor_name()
        if name == "process":
            self.options = replace(self.options, executor="serial")
            step = "executor process->serial"
        else:
            target = self.options.slab_nnz_target or DEFAULT_SLAB_NNZ
            if target > MIN_SLAB_NNZ:
                shrunk = max(MIN_SLAB_NNZ, target // 2)
                self.options = replace(self.options,
                                       slab_nnz_target=shrunk)
                step = f"slab_nnz_target {target}->{shrunk}"
            elif memoization_enabled():
                configure_memoization(False)
                step = "kernel memoization off"
            else:
                return None
        self.steps.append(step)
        return self.options


class FitSupervisor:
    """Run one AO-ADMM factorization to completion under faults.

    Parameters
    ----------
    tensor:
        The sparse tensor to factorize.
    options:
        The run configuration.  When it carries no ``checkpoint_path``
        the supervisor imposes its own (versioned, ``keep_last``
        retention, every-iteration cadence by default) in *workdir* or a
        temporary directory; a configured ``checkpoint_path`` is
        upgraded in place to the versioned store layout.
    supervisor:
        A :class:`SupervisorOptions`; defaults are production-ready.
    initial_factors:
        Optional explicit starting point (first attempt only; retries
        resume from checkpoints whenever one exists).
    resume_from:
        Continue a previously preempted/checkpointed run.

    Usage::

        result, report = FitSupervisor(tensor, options).run()
    """

    def __init__(self, tensor, options: AOADMMOptions | None = None,
                 supervisor: SupervisorOptions | None = None,
                 initial_factors: "list[np.ndarray] | None" = None,
                 resume_from: "str | Path | Checkpoint | None" = None):
        self.tensor = tensor
        self.supervisor = supervisor or SupervisorOptions()
        self.report = SupervisorReport()
        self._owned_workdir: Path | None = None
        self._preempt = threading.Event()
        self.options = self._prepare_options(options or AOADMMOptions())
        self.store = CheckpointStore(self.options.checkpoint_path,
                                     keep_last=self.options.checkpoint_keep_last)
        self._initial_factors = initial_factors
        self._resume_from = resume_from
        self._restored_memoization: bool | None = None

    # ------------------------------------------------------------------
    def _prepare_options(self, options: AOADMMOptions) -> AOADMMOptions:
        sup = self.supervisor
        updates: dict[str, object] = {}
        if options.checkpoint_path is None:
            if sup.workdir is not None:
                workdir = Path(sup.workdir)
                workdir.mkdir(parents=True, exist_ok=True)
            else:
                import tempfile
                workdir = Path(tempfile.mkdtemp(prefix="repro-supervised-"))
                self._owned_workdir = workdir
            updates["checkpoint_path"] = str(workdir / "supervised.npz")
        if options.checkpoint_every is None:
            updates["checkpoint_every"] = sup.checkpoint_every
        if options.checkpoint_keep_last is None:
            updates["checkpoint_keep_last"] = sup.keep_last
        if options.preempt_flag is None:
            updates["preempt_flag"] = self._preempt
        else:
            self._preempt = options.preempt_flag
        return replace(options, **updates) if updates else options

    def preempt(self) -> None:
        """Request graceful preemption (what the signal handlers call)."""
        self._preempt.set()

    # -- internal helpers ----------------------------------------------
    def _guard(self, kind: str, action: str, iteration: int,
               detail: str) -> GuardEvent:
        event = GuardEvent(iteration=iteration, kind=kind,
                           site="supervisor", action=action, detail=detail)
        self.report.guard_events.append(event)
        record_supervisor_event(kind, self.report.attempts, detail=detail)
        return event

    def _classify(self, exc: BaseException) -> "str | None":
        """``"degrade"`` / ``"retry"`` for transient failures, else None."""
        if isinstance(exc, (FitStalled, ProcessPoolBroken,
                            ShmAllocationError, MemoryError)):
            return "degrade"
        if isinstance(exc, NumericalFaultError):
            return None
        if isinstance(exc, IntegrityError):
            # A verified read detected damaged storage mid-fit.  The
            # evidence is quarantined; a retry resumes from the newest
            # checksum-valid checkpoint and re-reads (or rebuilds) the
            # slab — transient from the supervisor's point of view.
            return "retry"
        if isinstance(exc, OSError):
            return "retry"
        return None

    def _latest_checkpoint(self) -> "Checkpoint | None":
        try:
            checkpoint, _ = self.store.load_latest()
            return checkpoint
        except CheckpointUnavailable:
            self.report.quarantined = [str(p) for p
                                       in self.store.quarantined]
            return None
        finally:
            self.report.quarantined = [str(p) for p
                                       in self.store.quarantined]

    def _install_signal_handlers(self):
        if not self.supervisor.install_signal_handlers:
            return None
        if threading.current_thread() is not threading.main_thread():
            return None
        previous = {}
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                previous[signum] = signal.signal(
                    signum, lambda *_args: self.preempt())
            except (ValueError, OSError):  # pragma: no cover - exotic env
                pass
        return previous

    @staticmethod
    def _restore_signal_handlers(previous) -> None:
        if not previous:
            return
        for signum, handler in previous.items():
            try:
                signal.signal(signum, handler)
            except (ValueError, OSError):  # pragma: no cover
                pass

    def _cleanup_workdir(self) -> None:
        if self._owned_workdir is None:
            return
        import shutil
        shutil.rmtree(self._owned_workdir, ignore_errors=True)
        self._owned_workdir = None

    # ------------------------------------------------------------------
    def run(self):
        """Drive attempts until success, preemption, or budget exhaustion.

        Returns ``(FactorizationResult, SupervisorReport)``.  Raises
        :class:`~repro.robustness.retry.RetryBudgetExceeded` when every
        attempt failed transiently, or the original exception when a
        non-transient fault (e.g. a numerical guard) fires.
        """
        from ..core.aoadmm import fit_aoadmm  # deferred: import cycle

        sup = self.supervisor
        self._restored_memoization = memoization_enabled()
        ladder = DegradationLadder(self.options)
        previous_handlers = self._install_signal_handlers()
        forced_obs = None
        if sup.watchdog and not is_enabled():
            # Heartbeats ride the observability "iteration" events,
            # which only flow while a registry is enabled; activate a
            # private handle rather than silently running watchdog-less.
            forced_obs = Observability(enabled=True).activate()
            forced_obs.__enter__()
        resume: "str | Path | Checkpoint | None" = self._resume_from
        last_exc: BaseException | None = None

        def integrity_hook(event, payload):
            # Storage-integrity incidents (quarantine, rebuild, payload
            # mismatch) become supervisor guard events, so a fit whose
            # slab was rebuilt mid-run carries the evidence in its
            # trace.  Scrubs are routine reads — too chatty to log.
            if event == "integrity" and payload.get("kind") != "scrub":
                self._guard(f"integrity_{payload.get('kind', '')}",
                            "observe", 0,
                            f"{payload.get('artifact', '')}: "
                            f"{payload.get('detail', '')}")

        add_hook(integrity_hook)
        try:
            for attempt in range(1, sup.max_attempts + 1):
                self.report.attempts = attempt
                watchdog = None
                hook = None
                if sup.watchdog:
                    watchdog = Watchdog(
                        stall_factor=sup.stall_factor,
                        min_deadline_seconds=sup.min_stall_seconds,
                        window=sup.stall_window)

                    def hook(event, payload, _wd=watchdog):
                        if event == "iteration" \
                                and payload.get("scope") == "aoadmm":
                            _wd.beat()

                    add_hook(hook)
                    watchdog.start()
                try:
                    with span("supervisor.attempt", attempt=attempt):
                        result = fit_aoadmm(
                            self.tensor, ladder.options,
                            initial_factors=(self._initial_factors
                                             if resume is None else None),
                            resume_from=resume)
                except BaseException as exc:
                    action = self._classify(exc)
                    if action is None or attempt == sup.max_attempts:
                        if action is not None:
                            raise RetryBudgetExceeded(attempt, exc) from exc
                        raise
                    last_exc = exc
                    self.report.failures.append((attempt, repr(exc)))
                    if isinstance(exc, FitStalled):
                        self.report.stalls += 1
                    checkpoint = self._latest_checkpoint()
                    resume = checkpoint
                    resumed_at = checkpoint.iteration if checkpoint else 0
                    self.report.resumed_from.append(resumed_at)
                    kind = ("stall" if isinstance(exc, FitStalled)
                            else "retry")
                    self._guard(kind, "retry", resumed_at,
                                f"attempt {attempt} failed with "
                                f"{type(exc).__name__}: {exc}; resuming "
                                f"from iteration {resumed_at}")
                    if action == "degrade" and sup.degrade:
                        degraded = ladder.advance()
                        if degraded is not None:
                            step = ladder.steps[-1]
                            self.report.degradations.append(step)
                            self._guard("degrade", "degrade", resumed_at,
                                        step)
                    self._guard("resume" if checkpoint else "restart",
                                "resume", resumed_at,
                                f"backing off "
                                f"{sup.backoff.delay(attempt):.3f}s before "
                                f"attempt {attempt + 1}")
                    sup.sleep(sup.backoff.delay(attempt))
                    continue
                finally:
                    if watchdog is not None:
                        watchdog.stop()
                        remove_hook(hook)

                # Success (or graceful preemption) — annotate and return.
                if result.stop_reason == "preempted":
                    self.report.preempted = True
                    self._guard("preempted", "checkpoint",
                                len(result.trace),
                                f"preempted after iteration "
                                f"{len(result.trace)}; resume from "
                                f"{self.options.checkpoint_path}")
                result.trace.guard_log.extend(self.report.guard_events)
                if not self.report.preempted:
                    # Preempted runs keep their checkpoints (that is the
                    # whole point); completed ones release the
                    # supervisor-owned scratch directory.
                    self._cleanup_workdir()
                return result, self.report
            raise RetryBudgetExceeded(sup.max_attempts,
                                      last_exc)  # pragma: no cover
        finally:
            remove_hook(integrity_hook)
            if forced_obs is not None:
                forced_obs.__exit__(None, None, None)
            self._restore_signal_handlers(previous_handlers)
            if self._restored_memoization is not None:
                configure_memoization(self._restored_memoization)


def supervise_fit(tensor, options: AOADMMOptions | None = None,
                  supervisor: SupervisorOptions | None = None,
                  initial_factors: "list[np.ndarray] | None" = None,
                  resume_from: "str | Path | Checkpoint | None" = None):
    """One-call form of :class:`FitSupervisor`; returns (result, report)."""
    return FitSupervisor(tensor, options, supervisor=supervisor,
                         initial_factors=initial_factors,
                         resume_from=resume_from).run()
