"""Numerical guards for the AO-ADMM driver.

Huang-Sidiropoulos-Liavas (the AO-ADMM framework) and
Liavas-Sidiropoulos (parallel constrained ADMM) both observe that the
per-mode subproblems degrade under ill-conditioned Grams and need
safeguarding.  Concretely, three things go wrong in long runs:

* a kernel emits NaN/Inf (bad input data, overflow under huge rho),
* an L1-killed rank-deficient Gram drives the inner solve non-finite,
* the outer objective diverges instead of converging.

Without guards the driver propagates the first NaN through every
subsequent Gram, MTTKRP, and prox — and, because ``NaN < tol`` is false,
the convergence criterion never stops the loop early.  The
:class:`HealthMonitor` checks the MTTKRP output, the post-update ADMM
primal/dual state, and the relative-error series every iteration and
reacts per a configurable policy:

``raise``
    Abort immediately with :class:`NumericalFaultError` (default — fail
    loudly instead of returning garbage).
``rollback``
    Restore the best (lowest-error) factor/dual snapshot seen so far and
    stop the run cleanly (``stop_reason`` ``"rollback"`` /
    ``"diverged"``).
``repair``
    Zero out the non-finite entries and continue, recording the repair
    in the trace.  Divergence cannot be repaired in place, so it falls
    back to the rollback behaviour.

Every reaction is recorded as a :class:`GuardEvent`, surfaced through
``OuterIterationRecord.guard_events`` and ``FactorizationTrace.guard_log``
so benchmark replays can see exactly which repairs happened when.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from ..admm.state import AdmmState
from ..validation import require

#: Accepted values for ``AOADMMOptions.guard_policy``.
GUARD_POLICIES = ("off", "raise", "rollback", "repair")


@dataclass(frozen=True)
class GuardEvent:
    """One guard reaction (detection + what was done about it)."""

    #: Outer iteration (1-based) during which the guard fired.
    iteration: int
    #: What was detected: ``"nonfinite"``, ``"divergence"``, or
    #: ``"worker_lost"`` (process-executor pool broken).
    kind: str
    #: Where: ``"mttkrp"``, ``"primal"``, ``"dual"``, or ``"error"``.
    site: str
    #: What happened: ``"raise"``, ``"repair"``, ``"rollback"``, or
    #: ``"executor_fallback"`` (process pool -> serial executor).
    action: str
    #: Mode being updated when the guard fired (None for error checks).
    mode: int | None = None
    detail: str = ""

    def to_dict(self) -> dict:
        """JSON-serializable form (checkpoint persistence)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "GuardEvent":
        return cls(**payload)


class NumericalFaultError(RuntimeError):
    """A guard fired under the ``raise`` policy."""

    def __init__(self, event: GuardEvent):
        self.event = event
        super().__init__(
            f"numerical fault at outer iteration {event.iteration}"
            + (f", mode {event.mode}" if event.mode is not None else "")
            + f": {event.kind} in {event.site}"
            + (f" ({event.detail})" if event.detail else ""))


class RollbackRequested(Exception):
    """Internal control flow: the driver must restore and stop.

    Raised by :class:`HealthMonitor` under the ``rollback`` policy (and
    for unrepairable faults under ``repair``); caught only by the
    driver's outer loop — never escapes ``fit_aoadmm``.
    """

    def __init__(self, event: GuardEvent, stop_reason: str):
        self.event = event
        self.stop_reason = stop_reason
        super().__init__(stop_reason)


class HealthMonitor:
    """Per-run numerical health checks with a configurable policy.

    Parameters
    ----------
    policy:
        One of :data:`GUARD_POLICIES` (``"off"`` disables every check —
        callers usually just skip constructing the monitor instead).
    divergence_patience:
        Number of *consecutive* outer iterations with a rising relative
        error that counts as divergence.  Note the stock convergence
        criterion already stops on any non-improving iteration, so with
        the default stopping rule this guard mainly catches NaN errors
        (which the criterion cannot see: ``NaN`` comparisons are false)
        and, with ``patience=1`` + ``rollback``, gives
        "return the best iterate, not the last" semantics.
    """

    def __init__(self, policy: str = "raise", divergence_patience: int = 3):
        require(policy in GUARD_POLICIES,
                f"unknown guard policy {policy!r}; expected one of "
                f"{GUARD_POLICIES}")
        require(divergence_patience >= 1,
                "divergence patience must be at least 1")
        self.policy = policy
        self.patience = int(divergence_patience)
        #: Every event this monitor produced, in order.
        self.events: list[GuardEvent] = []
        self._iteration_events: list[GuardEvent] = []
        self._previous_error: float | None = None
        self._rising_streak = 0
        self._best_error = float("inf")
        self._best_iteration = 0
        self._best_snapshot: list[tuple[np.ndarray, np.ndarray]] | None = None

    # ------------------------------------------------------------------
    # Snapshot management (rollback support)
    # ------------------------------------------------------------------
    def commit(self, states: list[AdmmState], error: float,
               iteration: int) -> None:
        """Record *states* as the rollback target if they are the best yet.

        The driver calls this once before the loop (the initial factors,
        ``error=inf`` — kept only until something better exists) and
        after every healthy outer iteration.
        """
        if self._best_snapshot is not None and not error < self._best_error:
            return
        self._best_snapshot = [(s.primal.copy(), s.dual.copy())
                               for s in states]
        self._best_error = float(error)
        self._best_iteration = int(iteration)

    def restore(self, states: list[AdmmState]) -> int:
        """Overwrite *states* with the best snapshot; returns its iteration."""
        require(self._best_snapshot is not None,
                "no snapshot committed before restore")
        for state, (primal, dual) in zip(states, self._best_snapshot):
            state.primal = primal.copy()
            state.dual = dual.copy()
        return self._best_iteration

    # ------------------------------------------------------------------
    # Checks (driver hook points)
    # ------------------------------------------------------------------
    def check_mttkrp(self, kmat: np.ndarray, iteration: int,
                     mode: int) -> np.ndarray:
        """Validate one MTTKRP output; returns it (repaired if needed)."""
        if self.policy == "off" or np.isfinite(kmat).all():
            return kmat
        bad = int(kmat.size - np.isfinite(kmat).sum())
        return self._nonfinite(kmat, "mttkrp", iteration, mode,
                               f"{bad} non-finite entries")

    def check_state(self, state: AdmmState, iteration: int,
                    mode: int) -> None:
        """Validate a mode's post-update primal/dual pair (in place)."""
        if self.policy == "off":
            return
        for site, arr in (("primal", state.primal), ("dual", state.dual)):
            if np.isfinite(arr).all():
                continue
            bad = int(arr.size - np.isfinite(arr).sum())
            repaired = self._nonfinite(arr, site, iteration, mode,
                                       f"{bad} non-finite entries")
            arr[...] = repaired

    def observe_error(self, error: float, iteration: int) -> None:
        """Track the relative-error series; detects NaN and divergence."""
        if self.policy == "off":
            return
        if not np.isfinite(error):
            self._react(GuardEvent(iteration=iteration, kind="nonfinite",
                                   site="error",
                                   action=self._terminal_action(),
                                   detail=f"relative error {error!r}"),
                        stop_reason="rollback")
            return
        if self._previous_error is not None \
                and error > self._previous_error:
            self._rising_streak += 1
        else:
            self._rising_streak = 0
        self._previous_error = float(error)
        if self._rising_streak >= self.patience:
            self._react(GuardEvent(
                iteration=iteration, kind="divergence", site="error",
                action=self._terminal_action(),
                detail=f"error rose {self._rising_streak} consecutive "
                       f"iterations (best {self._best_error:.6g} at "
                       f"iteration {self._best_iteration})"),
                stop_reason="diverged")

    def drain_iteration_events(self) -> tuple[GuardEvent, ...]:
        """Events since the last drain (one outer iteration's worth)."""
        out = tuple(self._iteration_events)
        self._iteration_events.clear()
        return out

    # ------------------------------------------------------------------
    def _terminal_action(self) -> str:
        # Divergence / NaN error cannot be repaired entry-wise; "repair"
        # degrades to the rollback behaviour.
        return "raise" if self.policy == "raise" else "rollback"

    def _record(self, event: GuardEvent) -> None:
        self.events.append(event)
        self._iteration_events.append(event)

    def _react(self, event: GuardEvent, stop_reason: str) -> None:
        self._record(event)
        if event.action == "raise":
            raise NumericalFaultError(event)
        raise RollbackRequested(event, stop_reason=stop_reason)

    def _nonfinite(self, arr: np.ndarray, site: str, iteration: int,
                   mode: int, detail: str) -> np.ndarray:
        if self.policy == "repair":
            self._record(GuardEvent(iteration=iteration, kind="nonfinite",
                                    site=site, action="repair", mode=mode,
                                    detail=detail))
            return np.nan_to_num(arr, nan=0.0, posinf=0.0, neginf=0.0)
        action = "raise" if self.policy == "raise" else "rollback"
        self._react(GuardEvent(iteration=iteration, kind="nonfinite",
                               site=site, action=action, mode=mode,
                               detail=detail),
                    stop_reason="rollback")
        raise AssertionError("unreachable")  # pragma: no cover
