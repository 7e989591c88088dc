"""Requests and job templates: the unit of work the serving layer moves.

A :class:`JobTemplate` is an issuable query shape — a name, the base
tables it touches (the locality policy's key), a planner cost estimate
(the SJF policy's key), and a factory producing a fresh work iterator.
The iterator speaks the batched-quantum protocol: ``run_rows(n)``
makes up to ``n`` units of progress (a result row for SQL jobs, one
operation for key-value jobs) in one call and returns how many it made,
fewer than ``n`` once the work is exhausted.  The serving layer
time-slices by running a quantum of units at a time.

A :class:`Request` is one issued instance of a template: it carries the
tenant, the arrival time, and the lifecycle state the report
aggregates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

from repro.errors import DeadlineExceeded

# Lifecycle states.
QUEUED = "queued"
RUNNING = "running"
COMPLETED = "completed"
REJECTED_QUEUE = "rejected_queue"
REJECTED_QUOTA = "rejected_quota"
SHED_TIMEOUT = "shed_timeout"
#: Waiting out a retry backoff after a failed attempt (resilient runs).
RETRY_WAIT = "retry_wait"
#: Every attempt failed (or the retry budget ran out).
FAILED = "failed"
#: Ran past its execution deadline; remaining work abandoned.
DEADLINE_EXCEEDED = "deadline_exceeded"
#: Shed by the circuit breaker's degraded mode (low-priority tenant).
SHED_DEGRADED = "shed_degraded"

#: Terminal states a request can end in (reported per tenant).
TERMINAL_STATES = (COMPLETED, REJECTED_QUEUE, REJECTED_QUOTA, SHED_TIMEOUT,
                   FAILED, DEADLINE_EXCEEDED, SHED_DEGRADED)


@dataclass(frozen=True)
class JobTemplate:
    """One issuable query shape."""

    name: str
    #: Base tables the job touches (locality-batching key).
    tables: tuple[str, ...]
    #: Planner cost estimate in abstract work units (SJF key).
    cost: float
    #: ``make(slot)`` returns a fresh work iterator bound to an
    #: execution slot (slots keep temp-arena addresses warm per core).
    make: Callable[[int], Iterator]


@dataclass
class Request:
    """One issued query travelling through admission, queue, and cores."""

    request_id: int
    tenant: str
    #: Issuing client's index (drives closed-loop reissue).
    client: int
    job: JobTemplate
    arrival_s: float
    state: str = QUEUED
    start_s: Optional[float] = None
    finish_s: Optional[float] = None
    rows: int = 0
    quanta: int = 0
    #: Execution slot while running (core index x mpl + position).
    slot: Optional[int] = None
    #: Failed attempts so far (attempt number = failures + 1).
    failures: int = 0
    #: Execution deadline relative to arrival (None = none).
    deadline_s: Optional[float] = None
    _iter: Optional[Iterator] = field(default=None, repr=False)

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    @property
    def latency_s(self) -> Optional[float]:
        """Arrival-to-finish latency (None until completed)."""
        if self.finish_s is None:
            return None
        return self.finish_s - self.arrival_s

    def work_iter(self, slot: int) -> Iterator:
        """The request's work iterator, created on first quantum."""
        if self._iter is None:
            self.slot = slot
            self._iter = self.job.make(slot)
        return self._iter

    def prepare_retry(self) -> None:
        """Reset execution state for a fresh attempt after a failure.

        The failed attempt's partial progress is discarded (its joules
        are already on the trace and will be classified as wasted); the
        retry re-enters through the arrival heap and re-queues.
        """
        self.state = RETRY_WAIT
        self.slot = None
        self.rows = 0
        self._iter = None

    def check_deadline(self, now: float) -> None:
        """Raise :class:`~repro.errors.DeadlineExceeded` when ``now`` is
        past this request's execution deadline (no-op without one)."""
        if self.deadline_s is not None and now - self.arrival_s > self.deadline_s:
            raise DeadlineExceeded(
                f"request {self.request_id} exceeded its {self.deadline_s}s "
                f"deadline ({now - self.arrival_s:.3f}s since arrival)"
            )
