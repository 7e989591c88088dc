"""The serving event loop: admission, scheduling, and time-slicing.

:class:`QueryServer` is a deterministic discrete-event simulator over
one :class:`~repro.db.engine.Database` and one
:class:`~repro.sim.cores.CoreSet`:

* Arrivals live in a heap keyed on ``(time, sequence)``; the sequence
  number makes ties deterministic.  The driver seeds the heap in bulk
  (:meth:`~repro.serve.drivers.Driver.initial_arrival_entries`).
* Busy cores live in a second heap keyed on ``(clock, core index)``
  with lazy deletion: entries are pushed when a core turns busy and
  after every quantum, and an entry is valid only while its core is
  still busy at exactly that clock.  Selecting the next busy core is
  O(log cores) instead of an O(cores) ``min`` scan, and the
  force-dispatch clock is a monotone high-water mark instead of a
  ``max`` recomputation.
* The loop alternates between the two event kinds: if the next arrival
  is no later than the earliest busy core's clock, the arrival is
  processed (admission, then dispatch); otherwise that core runs one
  *quantum* — up to ``quantum_rows`` units of the request's work,
  preceded by a context switch charged on the machine.  Every work
  iterator speaks the batched-quantum protocol: ``run_rows(n)``
  executes the whole quantum in one call (micro-ops flow through
  ``machine.exec`` in bulk) and charges exactly what ``n`` single-row
  pulls would, so reports stay bit-identical across engines and modes.
  The per-row oracle that holds iterators to this lives in the tests
  and in ``repro bench``, outside the loop.
* Multiprogramming: each core round-robins a run list of up to ``mpl``
  requests, each bound to a distinct execution slot (its own temp
  arena), so interleaved plans never trample each other's state.
* When every core is idle and the queue is empty, the gap to the next
  arrival is charged as package idle time — exactly the §2.6 notion of
  background energy the Active-energy subtraction removes.

Every quantum runs inside a tracer span tagged with the request's
tenant, so a :class:`~repro.obs.tracer.Tracer` installed over the run
partitions the whole run's Active energy across tenants exactly (see
:meth:`~repro.obs.span.Trace.active_energy_by_meta`).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Optional

from repro.db.engine import Database
from repro.errors import ConfigError, DeadlineExceeded, FaultError
from repro.faults import FaultInjector, FaultPlan
from repro.serve.admission import AdmissionController
from repro.serve.drivers import Driver
from repro.serve.policies import FifoPolicy, SchedulingPolicy
from repro.serve.request import (
    COMPLETED,
    DEADLINE_EXCEEDED,
    FAILED,
    SHED_DEGRADED,
    JobTemplate,
    Request,
)
from repro.serve.resilience import CircuitBreaker, RetryManager
from repro.sim.cores import Core, CoreSet

#: Span category carried by every quantum span.
CATEGORY_QUANTUM = "serve.quantum"


@dataclass
class ServeConfig:
    """Everything that parameterises one serve run."""

    workload: str = "tpch"
    policy: str = "fifo"
    dvfs: str = "race"
    mode: str = "closed"
    clients: int = 4
    queries: int = 40
    tenants: int = 2
    cores: int = 2
    #: Multiprogramming level: run-list depth per core.
    mpl: int = 2
    #: Iterator pulls per scheduling quantum.
    quantum_rows: int = 64
    max_queue: int = 64
    tenant_quota: Optional[int] = None
    queue_timeout_s: Optional[float] = None
    #: Open-loop aggregate arrival rate (queries per simulated second).
    rate_qps: float = 50.0
    #: Closed-loop mean think time (simulated seconds).
    think_s: float = 0.0
    seed: int = 0
    engine: str = "postgresql"
    #: Engine configuration setting (buffer pool / work_mem sizing).
    setting: str = "baseline"
    tier: str = "10MB"
    #: Cache scale divisor, as the rest of the CLI uses it.
    scale: int = 16
    #: Simulator execution engine ("batched" is bit-identical to
    #: "reference"; see repro.sim.batch).
    exec_mode: str = "batched"
    # --- resilience / chaos (all default off: no fault site armed, no
    # retry, deadline or breaker hook on the serving path) ---
    #: Fault plan for chaos runs (None = no injection anywhere).
    faults: Optional[FaultPlan] = None
    #: Max retries per request after a failed attempt (0 = fail fast).
    retries: int = 0
    #: Base backoff before the first retry (doubles per failure).
    retry_backoff_s: float = 0.005
    #: Jitter fraction applied to each backoff (seeded, deterministic).
    retry_jitter: float = 0.1
    #: Global cap on retries across the whole run (None = unlimited).
    retry_budget: Optional[int] = None
    #: Per-request execution deadline from arrival (None = none).
    deadline_s: Optional[float] = None
    #: Breaker trips when the windowed failure rate reaches this
    #: (None = no breaker).
    breaker_threshold: Optional[float] = None
    #: Sliding window of attempt outcomes the breaker looks at.
    breaker_window: int = 16
    #: Simulated seconds the breaker stays open once tripped.
    breaker_cooloff_s: float = 0.1
    #: Tenants (by index) still served while the breaker is open.
    degrade_keep_tenants: int = 1
    # --- telemetry (default "full": span tracer over the whole run) ---
    #: "full" = span tracer (exact per-span tree, unaffordable at
    #: production scale); "sampler" = streaming aggregates + exemplar
    #: reservoir (always-on mode); "off" = whole-window totals only.
    telemetry: str = "full"
    #: Probability a closed span is offered to the exemplar reservoir
    #: (sampler mode; never affects aggregates).
    exemplar_rate: float = 0.1
    #: Exemplar reservoir capacity (sampler mode).
    reservoir_size: int = 64
    #: Write a timeline (fixed windows over simulated time) here;
    #: ``.csv`` selects CSV, anything else JSONL.  None = no timeline.
    timeline_out: Optional[str] = None
    #: Timeline window width in simulated seconds.
    timeline_window_s: float = 0.01

    def validate(self) -> "ServeConfig":
        if self.clients < 1:
            raise ConfigError(f"clients must be >= 1, got {self.clients}")
        if self.queries < 1:
            raise ConfigError(f"queries must be >= 1, got {self.queries}")
        if self.tenants < 1:
            raise ConfigError(f"tenants must be >= 1, got {self.tenants}")
        if self.cores < 1:
            raise ConfigError(f"cores must be >= 1, got {self.cores}")
        if self.mpl < 1:
            raise ConfigError(f"mpl must be >= 1, got {self.mpl}")
        if self.quantum_rows < 1:
            raise ConfigError(
                f"quantum_rows must be >= 1, got {self.quantum_rows}"
            )
        if self.faults is not None:
            self.faults.validate()
        if self.retries < 0:
            raise ConfigError(f"retries must be >= 0, got {self.retries}")
        if self.retry_backoff_s <= 0:
            raise ConfigError(
                f"retry_backoff_s must be positive, got {self.retry_backoff_s}"
            )
        if not 0.0 <= self.retry_jitter < 1.0:
            raise ConfigError(
                f"retry_jitter must be in [0, 1), got {self.retry_jitter}"
            )
        if self.retry_budget is not None and self.retry_budget < 0:
            raise ConfigError(
                f"retry_budget must be >= 0, got {self.retry_budget}"
            )
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ConfigError(
                f"deadline_s must be positive, got {self.deadline_s}"
            )
        if self.breaker_threshold is not None and not (
            0.0 < self.breaker_threshold <= 1.0
        ):
            raise ConfigError(
                f"breaker_threshold must be in (0, 1], "
                f"got {self.breaker_threshold}"
            )
        if self.breaker_window < 1:
            raise ConfigError(
                f"breaker_window must be >= 1, got {self.breaker_window}"
            )
        if self.breaker_cooloff_s <= 0:
            raise ConfigError(
                f"breaker_cooloff_s must be positive, "
                f"got {self.breaker_cooloff_s}"
            )
        if self.degrade_keep_tenants < 1:
            raise ConfigError(
                f"degrade_keep_tenants must be >= 1, "
                f"got {self.degrade_keep_tenants}"
            )
        if self.telemetry not in ("full", "sampler", "off"):
            raise ConfigError(
                f"telemetry must be 'full', 'sampler', or 'off', "
                f"got {self.telemetry!r}"
            )
        if not 0.0 <= self.exemplar_rate <= 1.0:
            raise ConfigError(
                f"exemplar_rate must be in [0, 1], got {self.exemplar_rate}"
            )
        if self.reservoir_size < 1:
            raise ConfigError(
                f"reservoir_size must be >= 1, got {self.reservoir_size}"
            )
        if self.timeline_window_s <= 0:
            raise ConfigError(
                f"timeline_window_s must be positive, "
                f"got {self.timeline_window_s}"
            )
        return self


class QueryServer:
    """Deterministic discrete-event serving loop (see module docstring)."""

    def __init__(self, db: Database, core_set: CoreSet,
                 admission: AdmissionController, policy: SchedulingPolicy,
                 driver: Driver, mpl: int = 2, quantum_rows: int = 64,
                 injector: Optional[FaultInjector] = None,
                 retry: Optional[RetryManager] = None,
                 breaker: Optional[CircuitBreaker] = None,
                 deadline_s: Optional[float] = None,
                 degrade_keep_tenants: int = 1):
        self.db = db
        self.machine = db.machine
        self.core_set = core_set
        self.admission = admission
        self.policy = policy
        self.driver = driver
        self.mpl = mpl
        self.quantum_rows = quantum_rows
        self.injector = injector
        self.retry = retry
        self.breaker = breaker
        self.deadline_s = deadline_s
        self.degrade_keep_tenants = degrade_keep_tenants
        #: Scheduling fallback while the breaker is open: the cheapest
        #: policy (no cost model, no locality scan).
        self._degraded_policy = FifoPolicy()
        #: Optional :class:`~repro.obs.timeline.TimelineRecorder` fed
        #: serve events (admissions, terminals, queue depth samples).
        self.timeline = None
        #: Every request ever created, in arrival order (the report's input).
        self.requests: list[Request] = []
        #: Tables of the most recently dispatched request (locality key).
        self.hot_tables: frozenset[str] = frozenset()
        #: Heap payload is a JobTemplate (fresh arrival) or a Request
        #: re-arriving after retry backoff; seq breaks every tie so the
        #: payloads themselves are never compared.
        self._heap: list = []
        self._seq = 0
        self._free_slots = {
            core.index: list(range(mpl)) for core in core_set.cores
        }
        #: Busy-core heap of ``(clock_s, core_index)`` with lazy
        #: deletion: an entry is valid only while the core has a run
        #: list and its clock still equals the entry's.
        self._core_heap: list = []
        #: Monotone high-water mark over all core clocks (force-dispatch
        #: time); core clocks never move backwards.
        self._clock_hwm = 0.0
        #: Total quanta executed (reported as ``clock.quanta``).
        self.quanta = 0

    def _degraded(self, now: float) -> bool:
        return self.breaker is not None and self.breaker.degraded(now)

    def _tenant_priority(self, client: int) -> int:
        """Tenant index of a client; lower = higher priority when the
        breaker's degraded mode sheds tenants."""
        return client % self.driver.tenants

    # ------------------------------------------------------------ arrivals

    def _push_arrival(self, t: float, client: int, job: JobTemplate) -> None:
        heapq.heappush(self._heap, (t, self._seq, client, job))
        self._seq += 1

    def _client_terminal(self, request: Request, now: float) -> None:
        if self.timeline is not None:
            self.timeline.count(request.state)
        nxt = self.driver.on_terminal(request.client, now)
        if nxt is not None:
            self._push_arrival(nxt[0], request.client, nxt[1])

    def _drain_shed(self) -> None:
        while self.admission.shed:
            request = self.admission.shed.pop(0)
            self._client_terminal(request, request.finish_s)

    def _shed_degraded(self, request: Request, now: float) -> None:
        request.state = SHED_DEGRADED
        request.finish_s = now
        self.machine.metrics.counter("serve.shed_degraded").inc()
        self._client_terminal(request, now)

    def _process_arrival(self) -> None:
        t, _seq, client, payload = heapq.heappop(self._heap)
        if not self.admission.queue and not any(
            core.run_list for core in self.core_set.cores
        ):
            self.core_set.quiesce_until(t)
            if t > self._clock_hwm:
                self._clock_hwm = t
        if isinstance(payload, Request):
            # A failed request re-arriving after its retry backoff.
            request = payload
            if self._degraded(t) and (
                self._tenant_priority(client) >= self.degrade_keep_tenants
            ):
                self._shed_degraded(request, t)
            else:
                try:
                    request.check_deadline(t)
                except DeadlineExceeded:
                    self._mark_deadline_exceeded(request, t)
                else:
                    admitted = self.admission.offer(request, t, record=False)
                    if admitted and self.timeline is not None:
                        self.timeline.count("admitted")
                    self._drain_shed()
                    if not admitted:
                        self._client_terminal(request, t)
            self._assign(t)
            return
        request = Request(
            request_id=len(self.requests),
            tenant=self.driver.tenant_of(client),
            client=client,
            job=payload,
            arrival_s=t,
            deadline_s=self.deadline_s,
        )
        self.requests.append(request)
        if self._degraded(t) and (
            self._tenant_priority(client) >= self.degrade_keep_tenants
        ):
            self._shed_degraded(request, t)
            self._assign(t)
            return
        admitted = self.admission.offer(request, t)
        if admitted and self.timeline is not None:
            self.timeline.count("admitted")
        self._drain_shed()
        if not admitted:
            self._client_terminal(request, t)
        self._assign(t)

    # ------------------------------------------------------------ dispatch

    def _mark_deadline_exceeded(self, request: Request, now: float) -> None:
        """Common bookkeeping for a request abandoned past its deadline.

        Callers release any queue/slot/quota resources first; this only
        records the terminal state and feeds the breaker (a deadline
        miss is an overload signal, same as a failed attempt).
        """
        request.state = DEADLINE_EXCEEDED
        request.finish_s = now
        self.machine.metrics.counter("serve.deadline_exceeded").inc()
        if self.breaker is not None:
            self.breaker.record(False, now)
        self._client_terminal(request, now)

    def _assign(self, now: float) -> None:
        """Fill core run lists from the queue via the policy."""
        self.admission.candidates(now)  # sheds expired waiters
        self._drain_shed()
        if self.timeline is not None:
            self.timeline.sample_queue_depth(len(self.admission.queue))
        while self.admission.queue:
            open_cores = [core for core in self.core_set.cores
                          if len(core.run_list) < self.mpl]
            if not open_cores:
                return
            core = min(open_cores,
                       key=lambda c: (len(c.run_list), c.clock_s, c.index))
            policy = (self._degraded_policy if self._degraded(now)
                      else self.policy)
            request = policy.select(self.admission.queue, self.hot_tables)
            if request is None:
                return
            self.admission.take(request, now)
            try:
                request.check_deadline(now)
            except DeadlineExceeded:
                # Expired while queued: abandon before burning a quantum.
                self.admission.release(request)
                self._mark_deadline_exceeded(request, now)
                continue
            offset = self._free_slots[core.index].pop(0)
            request.slot = core.index * self.mpl + offset
            if not core.run_list:
                # The core sat idle until this dispatch; its next quantum
                # cannot begin before the request exists.  Turning busy,
                # it (re)enters the busy-core heap.
                core.clock_s = max(core.clock_s, now)
                if core.clock_s > self._clock_hwm:
                    self._clock_hwm = core.clock_s
                heapq.heappush(self._core_heap, (core.clock_s, core.index))
            core.run_list.append(request)
            self.hot_tables = frozenset(request.job.tables)

    # ------------------------------------------------------------ quanta

    def _release_core_slot(self, request: Request, core: Core) -> None:
        """Return a departing request's execution slot to its core."""
        self._free_slots[core.index].append(
            request.slot - core.index * self.mpl
        )
        self._free_slots[core.index].sort()
        if core.resident is request:
            core.resident = None

    def _attempt_failed(self, request: Request, core: Core) -> None:
        """An injected fault killed the running attempt: free the
        request's resources, then retry (after backoff, through the
        arrival heap) or fail it for good."""
        self._release_core_slot(request, core)
        self.admission.release(request)
        request.failures += 1
        now = core.clock_s
        self.machine.metrics.counter("serve.attempt_failures").inc()
        try:
            request.check_deadline(now)
        except DeadlineExceeded:
            # The attempt failed *and* the deadline has already passed:
            # that is a deadline miss, not a retry candidate.  Admitting
            # it would burn global retry budget (and double-count the
            # breaker failure) on work the client has abandoned.
            self._mark_deadline_exceeded(request, now)
            return
        if self.breaker is not None:
            self.breaker.record(False, now)
        if self.retry is not None and self.retry.admit_retry(request):
            request.prepare_retry()
            self._push_arrival(now + self.retry.backoff_s(request),
                               request.client, request)
        else:
            request.state = FAILED
            request.finish_s = now
            self.machine.metrics.counter("serve.failed").inc()
            self._client_terminal(request, now)

    def _run_quantum(self, core: Core) -> None:
        request = core.run_list.pop(0)
        injector = self.injector
        done = 0

        def work() -> None:
            nonlocal done
            self.core_set.context_switch(core, request)
            if injector is not None and injector.request_error():
                raise FaultError(
                    f"injected request failure "
                    f"(request {request.request_id}, "
                    f"attempt {request.failures + 1})"
                )
            # Batched-quantum protocol: the iterator executes the whole
            # quantum in one call and reports how many units it
            # completed (fewer than asked = exhausted).
            done = request.work_iter(request.slot).run_rows(
                self.quantum_rows)

        try:
            with self.machine.tracer.span(
                f"req{request.request_id}.q{request.quanta}",
                category=CATEGORY_QUANTUM,
                tenant=request.tenant,
                request=request.request_id,
                job=request.job.name,
                attempt=request.failures + 1,
            ):
                self.core_set.run_on(core, work)
        except FaultError:
            # The killed attempt delivered nothing to the client, so
            # ``request.rows`` (rows actually delivered) is left as is;
            # faults can surface from inside the work iterator, after
            # some of the quantum's rows were produced.
            request.quanta += 1
            self.quanta += 1
            self._attempt_failed(request, core)
            return
        request.rows += done
        request.quanta += 1
        self.quanta += 1
        if done < self.quantum_rows:
            request.state = COMPLETED
            request.finish_s = core.clock_s
            self._release_core_slot(request, core)
            self.admission.release(request)
            if self.breaker is not None:
                self.breaker.record(True, core.clock_s)
            self._client_terminal(request, core.clock_s)
            return
        try:
            request.check_deadline(core.clock_s)
        except DeadlineExceeded:
            # Past deadline mid-flight: abandon instead of finishing work
            # nobody is waiting for (its joules are already wasted).
            self._release_core_slot(request, core)
            self.admission.release(request)
            self._mark_deadline_exceeded(request, core.clock_s)
            return
        core.run_list.append(request)

    # ------------------------------------------------------------ main loop

    def _next_busy(self) -> Optional[Core]:
        """Earliest busy core by ``(clock, index)`` via the lazy-deletion
        heap; stale entries (core went idle, or its clock moved on) are
        discarded as they surface."""
        heap = self._core_heap
        cores = self.core_set.cores
        while heap:
            t, index = heap[0]
            core = cores[index]
            if core.run_list and core.clock_s == t:
                return core
            heapq.heappop(heap)
        return None

    def run(self) -> list[Request]:
        # The driver's entry list is sorted by (time, seq), which is
        # already a valid heap — adopt it wholesale.
        entries = self.driver.initial_arrival_entries()
        heapq.heapify(entries)
        self._heap = entries
        self._seq = len(entries)
        self._clock_hwm = max(core.clock_s for core in self.core_set.cores)
        heap = self._heap
        while True:
            core = self._next_busy()
            if heap and (core is None or heap[0][0] <= core.clock_s):
                self._process_arrival()
            elif core is not None:
                self._run_quantum(core)
                if core.clock_s > self._clock_hwm:
                    self._clock_hwm = core.clock_s
                if core.run_list:
                    heapq.heappush(self._core_heap,
                                   (core.clock_s, core.index))
                self._assign(core.clock_s)
            elif self.admission.queue:
                # Cores drained while requests still waited (e.g. the
                # policy declined); force-dispatch at the latest clock.
                self._assign(self._clock_hwm)
                if not any(c.run_list for c in self.core_set.cores):
                    break
            else:
                break
        self.machine.settle()
        return self.requests
