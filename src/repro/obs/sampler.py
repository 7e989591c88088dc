"""Sampling aggregator: always-on telemetry that survives serve scale.

The PR 1 span tracer materialises one :class:`~repro.obs.span.Span` per
traced region.  That is the right tool for a single query, but a serve
run at production scale opens millions of quantum spans — the tree alone
would dwarf the simulated heap.  This module provides the always-on
alternative: :class:`SamplingAggregator` implements the same tracer duck
type (``enabled`` / ``span`` / ``open`` / ``enter`` / ``exit`` /
``wrap_rows``) but folds every settle-partitioned delta into **exact
streaming aggregates** instead of keeping spans:

* per **group** ``(phase, operator)`` — where the phase is the span
  category (``serve.quantum``, ``operator``, ``io``, ``fault``, ...) and
  the operator is the span's op/job name — energy, time, PMU counters
  (which carry the per-cache-level access/hit splits), and streaming
  histograms of per-span time and energy;
* per **meta tuple** ``(tenant, request, attempt, wasted)`` — the exact
  partition the serve report's tenant attribution and useful/wasted
  energy split are built on.

Aggregation is *exact*: every joule and every counter increment lands in
exactly one group (the one open when the work happened), so the PR 4
conservation invariant — ``useful_energy_j + wasted_energy_j ==
active_energy_j`` — holds to the joule at **any** exemplar sampling
rate.  Sampling applies only to *exemplars*: a seeded reservoir keeps a
bounded set of representative closed spans for debugging; admitting or
dropping an exemplar never touches the aggregates.

:class:`NullTelemetry` is the third mode (telemetry off): it records
nothing per span (``enabled`` is False, so instrumentation sites skip
their spans entirely) and prices only the whole window at finish, which
is what the obs-overhead CI job benchmarks the sampler against.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from functools import cached_property
from typing import TYPE_CHECKING, Optional

from repro.errors import ConfigError, TraceError
from repro.obs.metrics import Histogram
from repro.obs.span import domain_energy_j
from repro.seeding import seeded_rng
from repro.sim.pmu import PmuCounters

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.machine import Machine

#: Span-meta keys a frame inherits from its parent (the same downward
#: inheritance :meth:`repro.obs.span.Trace.active_energy_by_metas` uses).
META_KEYS = ("tenant", "request", "attempt", "wasted")

#: Cache levels reported in per-group summaries.
CACHE_LEVELS = ("L1D", "L2", "L3", "mem")


class _Frame:
    """One open region: group identity, inherited meta, self totals."""

    __slots__ = ("name", "category", "group", "meta", "first_ts",
                 "time_s", "core_j", "package_j", "dram_j", "enters")

    def __init__(self, name: str, category: str, group: tuple,
                 meta: tuple):
        self.name = name
        self.category = category
        self.group = group
        self.meta = meta
        self.first_ts: Optional[float] = None
        self.time_s = 0.0
        self.core_j = 0.0
        self.package_j = 0.0
        self.dram_j = 0.0
        self.enters = 0


class GroupAggregate:
    """Exact streaming totals for one ``(phase, operator)`` group."""

    __slots__ = ("spans", "enters", "time_s", "busy_s", "idle_s",
                 "core_j", "package_j", "dram_j", "counters",
                 "time_hist", "energy_hist")

    def __init__(self) -> None:
        self.spans = 0
        self.enters = 0
        self.time_s = 0.0
        self.busy_s = 0.0
        self.idle_s = 0.0
        self.core_j = 0.0
        self.package_j = 0.0
        self.dram_j = 0.0
        self.counters = PmuCounters()
        #: Per-closed-span self wall-clock seconds.
        self.time_hist = Histogram("span_time_s", {})
        #: Per-closed-span self package joules.
        self.energy_hist = Histogram("span_package_j", {})

    def cache_levels(self) -> dict:
        """Per-cache-level access/hit counts of this group's work."""
        c = self.counters
        return {
            "L1D": {"accesses": c.n_l1d, "hits": c.l1d_hits},
            "L2": {"accesses": c.n_l2, "hits": c.l2_hits},
            "L3": {"accesses": c.n_l3, "hits": c.l3_hits},
            "mem": {"accesses": c.n_mem, "hits": 0},
        }

    def microops(self) -> dict:
        """Instruction counts per micro-op class of this group's work."""
        c = self.counters
        return {
            "load": c.n_load_inst,
            "store": c.n_store_inst,
            "add": c.n_add,
            "nop": c.n_nop,
            "mul": c.n_mul,
            "cmp": c.n_cmp,
            "branch": c.n_branch,
            "other": c.n_other,
        }


class Exemplar:
    """A reservoir-sampled closed span (aggregates never depend on it)."""

    __slots__ = ("name", "category", "group", "meta", "first_ts", "last_ts",
                 "time_s", "package_j", "enters")

    def __init__(self, frame: _Frame, last_ts: float):
        self.name = frame.name
        self.category = frame.category
        self.group = frame.group
        self.meta = frame.meta
        self.first_ts = frame.first_ts
        self.last_ts = last_ts
        self.time_s = frame.time_s
        self.package_j = frame.package_j
        self.enters = frame.enters

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "category": self.category,
            "operator": self.group[1],
            "meta": {k: v for k, v in zip(META_KEYS, self.meta)
                     if v is not None},
            "first_ts_s": self.first_ts,
            "last_ts_s": self.last_ts,
            "self_time_s": self.time_s,
            "self_package_j": self.package_j,
            "enters": self.enters,
        }


class TelemetrySummary:
    """The finished output of a sampling run.

    Quacks like :class:`~repro.obs.span.Trace` for everything the serve
    report needs — ``domain``, ``total_active_j``,
    ``active_energy_by_meta``, ``active_energy_by_metas`` — but is built
    from the exact streaming aggregates, not a span tree.
    """

    def __init__(self, domain: str, background, groups: dict,
                 meta_energy: dict, exemplars: list,
                 exemplar_rate: float, exemplars_offered: int):
        self.domain = domain
        self.background = background
        #: ``{(phase, operator): GroupAggregate}``
        self.groups = groups
        #: ``{(tenant, request, attempt, wasted):
        #:    [core_j, package_j, dram_j, time_s]}``
        self.meta_energy = meta_energy
        self.exemplars = exemplars
        self.exemplar_rate = exemplar_rate
        self.exemplars_offered = exemplars_offered

    # ------------------------------------------------------------ energy

    def _background_w(self) -> float:
        if self.background is None:
            return 0.0
        return self.background.rate(self.domain)

    @cached_property
    def _active_entries(self) -> list:
        """``(meta, active_j)`` for every meta tuple, in :func:`meta_order`.

        Built once per summary; every partition below folds this list,
        so all of them visit the same floats in the same order.
        """
        background_w = self._background_w()
        domain = self.domain
        return [
            (meta, domain_energy_j(core_j, package_j, dram_j, domain)
             - background_w * time_s)
            for meta, (core_j, package_j, dram_j, time_s) in sorted(
                self.meta_energy.items(), key=lambda kv: meta_order(kv[0]))
        ]

    @property
    def total_active_j(self) -> float:
        """Measured Active energy of the whole window (exact sum of the
        meta-partition — the same partition the split reports)."""
        return sum(active for _, active in self._active_entries)

    def active_energy_by_meta(self, key: str) -> dict:
        """Partition Active energy by one inherited meta key."""
        index = META_KEYS.index(key)
        groups: dict = {}
        for meta, active in self._active_entries:
            owner = meta[index]
            groups[owner] = groups.get(owner, 0.0) + active
        return groups

    def active_energy_by_metas(self, keys: tuple) -> dict:
        """Partition Active energy by a tuple of inherited meta keys
        (exactly :meth:`repro.obs.span.Trace.active_energy_by_metas`)."""
        indices = [META_KEYS.index(key) for key in keys]
        groups: dict = {}
        for meta, active in self._active_entries:
            owner = tuple(meta[i] for i in indices)
            groups[owner] = groups.get(owner, 0.0) + active
        return groups

    # ------------------------------------------------------------ views

    def group_table(self) -> dict:
        """JSON-ready per-group aggregate table, sorted by energy."""
        rows = {}
        for (phase, operator), agg in self.groups.items():
            active = (domain_energy_j(agg.core_j, agg.package_j,
                                      agg.dram_j, self.domain)
                      - self._background_w() * agg.time_s)
            rows[f"{phase}:{operator}"] = {
                "phase": phase,
                "operator": operator,
                "spans": agg.spans,
                "enters": agg.enters,
                "time_s": agg.time_s,
                "busy_s": agg.busy_s,
                "idle_s": agg.idle_s,
                "active_j": active,
                "span_time_s": _hist_summary(agg.time_hist),
                "span_package_j": _hist_summary(agg.energy_hist),
                "cache_levels": agg.cache_levels(),
                "microops": agg.microops(),
            }
        return dict(sorted(rows.items(),
                           key=lambda kv: -kv[1]["active_j"]))

    def render_table(self, top: int = 20) -> str:
        """Human-readable ranked group table."""
        lines = [
            f"sampled telemetry: domain={self.domain}  "
            f"active={self.total_active_j:.4e} J  "
            f"groups={len(self.groups)}  "
            f"exemplars={len(self.exemplars)}/{self.exemplars_offered} "
            f"(rate {self.exemplar_rate:g})"
        ]
        for name, row in list(self.group_table().items())[:top]:
            lines.append(
                f"  {name:<40} {row['active_j']:.3e} J  "
                f"{row['time_s']:.3e} s  spans={row['spans']}"
            )
        return "\n".join(lines)


def meta_order(meta: tuple) -> list:
    """Deterministic sort key over heterogeneous meta tuples (a list:
    it compares like the tuple and builds faster)."""
    return [(v is None, str(v)) for v in meta]


def _hist_summary(hist: Histogram) -> dict:
    return {
        "count": hist.count,
        "mean": hist.mean,
        "p50": _nan_none(hist.quantile(0.50)),
        "p95": _nan_none(hist.quantile(0.95)),
        "p99": _nan_none(hist.quantile(0.99)),
    }


def _nan_none(value: float):
    return None if isinstance(value, float) and math.isnan(value) else value


class SamplingAggregator:
    """Settle-partitioned streaming aggregator bound to one machine.

    Same context-manager lifecycle as :class:`~repro.obs.tracer.Tracer`::

        sampler = SamplingAggregator(machine, background=bg, seed=seed)
        with sampler:
            server.run()
        summary = sampler.summary

    ``trace_operators`` controls :meth:`wrap_rows`: when False (the
    serve default) operator pulls pass straight through and operator
    work is credited to the enclosing quantum's group — the per-row
    settle that makes full tracing unaffordable at scale never happens.
    When True (the ``repro trace --telemetry sampler`` mode) operators
    are re-entered per row exactly like the full tracer, so the group
    table shows per-operator energy.
    """

    enabled = True

    def __init__(self, machine: "Machine", background=None, seed: int = 0,
                 exemplar_rate: float = 0.1, reservoir_size: int = 64,
                 trace_operators: bool = False, timeline=None,
                 name: str = "sampled"):
        if not 0.0 <= exemplar_rate <= 1.0:
            raise ConfigError(
                f"exemplar_rate must be in [0, 1], got {exemplar_rate}"
            )
        if reservoir_size < 1:
            raise ConfigError(
                f"reservoir_size must be >= 1, got {reservoir_size}"
            )
        self.machine = machine
        self.background = background
        self.exemplar_rate = exemplar_rate
        self.reservoir_size = reservoir_size
        self.trace_operators = trace_operators
        self.timeline = timeline
        self._rng = seeded_rng(seed, "obs.sampler")
        root = _Frame(name, "trace", ("trace", name), (None,) * len(META_KEYS))
        self._stack: list[_Frame] = [root]
        self.groups: dict[tuple, GroupAggregate] = {}
        self.meta_energy: dict[tuple, list] = {}
        self.exemplars: list[Exemplar] = []
        self.exemplars_offered = 0
        self._finished: Optional[TelemetrySummary] = None
        self._prev_tracer = None
        self._baseline()

    # ------------------------------------------------------------ accounting

    def _baseline(self) -> None:
        machine = self.machine
        machine.settle()
        self._last_counters = machine._settled
        rapl = machine.rapl
        self._last_core = rapl.energy_core()
        self._last_package = rapl.energy_package()
        self._last_dram = rapl.energy_dram()
        self._last_time = machine.time_s
        self._last_busy = machine.busy_s
        self._last_idle = machine.idle_s
        self._stack[0].first_ts = machine.time_s

    def _credit_top(self) -> None:
        """Fold everything since the last transition into the open
        frame's group and meta aggregates (the exact-partition step)."""
        machine = self.machine
        machine.settle()
        frame = self._stack[-1]
        settled = machine._settled
        delta = settled.minus(self._last_counters)
        self._last_counters = settled
        rapl = machine.rapl
        core = rapl.energy_core()
        package = rapl.energy_package()
        dram = rapl.energy_dram()
        d_core = core - self._last_core
        d_package = package - self._last_package
        d_dram = dram - self._last_dram
        self._last_core, self._last_package, self._last_dram = (
            core, package, dram
        )
        now = machine.time_s
        d_time = now - self._last_time
        d_busy = machine.busy_s - self._last_busy
        d_idle = machine.idle_s - self._last_idle
        self._last_time = now
        self._last_busy = machine.busy_s
        self._last_idle = machine.idle_s

        frame.time_s += d_time
        frame.core_j += d_core
        frame.package_j += d_package
        frame.dram_j += d_dram

        agg = self.groups.get(frame.group)
        if agg is None:
            agg = self.groups[frame.group] = GroupAggregate()
        agg.time_s += d_time
        agg.busy_s += d_busy
        agg.idle_s += d_idle
        agg.core_j += d_core
        agg.package_j += d_package
        agg.dram_j += d_dram
        agg.counters.accumulate(delta)

        entry = self.meta_energy.get(frame.meta)
        if entry is None:
            entry = self.meta_energy[frame.meta] = [0.0, 0.0, 0.0, 0.0]
        entry[0] += d_core
        entry[1] += d_package
        entry[2] += d_dram
        entry[3] += d_time

        timeline = self.timeline
        if timeline is not None and d_time > 0.0:
            wasted = frame.meta[META_KEYS.index("wasted")]
            if wasted is not None:
                timeline.add_wasted(now - d_time, now, wasted, d_package)

    # ------------------------------------------------------------ span API

    def _make_frame(self, name: str, category: str, meta: dict) -> _Frame:
        parent = self._stack[-1]
        inherited = tuple(
            meta.get(key, parent.meta[i])
            for i, key in enumerate(META_KEYS)
        )
        operator = meta.get("op") or meta.get("job") or name
        return _Frame(name, category, (category, operator), inherited)

    def open(self, name: str, category: str = "span", **meta) -> _Frame:
        return self._make_frame(name, category, meta)

    def enter(self, frame: _Frame) -> None:
        self._credit_top()
        self._stack.append(frame)
        frame.enters += 1
        if frame.first_ts is None:
            frame.first_ts = self.machine.time_s
        agg = self.groups.get(frame.group)
        if agg is None:
            agg = self.groups[frame.group] = GroupAggregate()
        agg.enters += 1

    def exit(self, frame: _Frame) -> None:
        self._credit_top()
        if self._stack[-1] is not frame:
            raise TraceError(
                f"span exit mismatch: open={self._stack[-1].name!r}, "
                f"exiting={frame.name!r}"
            )
        self._stack.pop()

    def _close(self, frame: _Frame) -> None:
        """A span will not be re-entered: observe its self totals into
        the group histograms and offer it to the exemplar reservoir."""
        agg = self.groups.get(frame.group)
        if agg is None:
            agg = self.groups[frame.group] = GroupAggregate()
        agg.spans += 1
        agg.time_hist.observe(frame.time_s)
        agg.energy_hist.observe(frame.package_j)
        # Reservoir admission: one RNG draw per closed span regardless
        # of outcome, so the stream of draws (and therefore which spans
        # become exemplars) is a pure function of the seed and the
        # workload — never of the reservoir's current contents.
        admit = self._rng.random() < self.exemplar_rate
        slot = self._rng.randrange(max(1, self.exemplars_offered + 1))
        if admit:
            self.exemplars_offered += 1
            exemplar = Exemplar(frame, self.machine.time_s)
            if len(self.exemplars) < self.reservoir_size:
                self.exemplars.append(exemplar)
            elif slot < self.reservoir_size:
                self.exemplars[slot] = exemplar

    @contextmanager
    def span(self, name: str, category: str = "span", **meta):
        frame = self._make_frame(name, category, meta)
        self.enter(frame)
        try:
            yield frame
        finally:
            self.exit(frame)
            self._close(frame)

    def wrap_rows(self, op, ctx):
        """Operator tracing (see class docstring): pass-through unless
        ``trace_operators`` asked for per-row attribution."""
        if not self.trace_operators:
            return op.rows(ctx)
        return self._wrap_rows(op, ctx)

    def _wrap_rows(self, op, ctx):
        frame = self._make_frame(
            op.describe(), "operator", {"op": type(op).__name__}
        )
        iterator = op.rows(ctx)
        try:
            while True:
                self.enter(frame)
                try:
                    row = next(iterator)
                except StopIteration:
                    self.exit(frame)
                    return
                except BaseException:
                    self.exit(frame)
                    raise
                self.exit(frame)
                yield row
        finally:
            self._close(frame)

    # ------------------------------------------------------------ lifecycle

    def __enter__(self) -> "SamplingAggregator":
        self._prev_tracer = self.machine.tracer
        self.machine.tracer = self
        self._baseline()
        return self

    def __exit__(self, *exc) -> bool:
        self.machine.tracer = self._prev_tracer
        if exc[0] is None:
            self.finish()
        return False

    def finish(self) -> TelemetrySummary:
        """Close the run and return the summary (idempotent)."""
        if self._finished is None:
            self._credit_top()
            if len(self._stack) != 1:
                open_names = [f.name for f in self._stack[1:]]
                raise TraceError(f"unclosed spans at finish: {open_names}")
            self._close(self._stack[0])
            from repro.micro.measurement import select_domain

            total = PmuCounters()
            for agg in self.groups.values():
                total.accumulate(agg.counters)
            domain = select_domain(total)
            self._finished = TelemetrySummary(
                domain, self.background, self.groups, self.meta_energy,
                self.exemplars, self.exemplar_rate, self.exemplars_offered,
            )
        return self._finished

    @property
    def summary(self) -> TelemetrySummary:
        return self.finish()


class NullTelemetry:
    """Telemetry ``off``: whole-window totals only, zero per-span cost.

    ``enabled`` is False, so every instrumentation site skips its span
    work entirely — this is the baseline the obs-overhead CI job holds
    the sampler to.  The summary still answers the report's questions,
    crediting everything to the untagged system bucket.
    """

    enabled = False

    def __init__(self, machine: "Machine", background=None):
        self.machine = machine
        self.background = background
        self._finished: Optional[TelemetrySummary] = None
        self._prev_tracer = None
        self._baseline()

    def _baseline(self) -> None:
        machine = self.machine
        machine.settle()
        self._start_counters = machine.pmu.snapshot()
        rapl = machine.rapl
        self._last_core = rapl.energy_core()
        self._last_package = rapl.energy_package()
        self._last_dram = rapl.energy_dram()
        self._last_time = machine.time_s

    # Tracer duck type: all no-ops (sites check ``enabled`` or use the
    # shared null span, exactly as with NullTracer).
    def span(self, name: str, category: str = "span", **meta):
        from repro.obs.tracer import _NULL_SPAN

        return _NULL_SPAN

    def open(self, name: str, category: str = "span", **meta) -> None:
        return None

    def enter(self, frame) -> None:
        return None

    def exit(self, frame) -> None:
        return None

    def wrap_rows(self, op, ctx):
        return op.rows(ctx)

    def __enter__(self) -> "NullTelemetry":
        self._prev_tracer = self.machine.tracer
        self.machine.tracer = self
        self._baseline()
        return self

    def __exit__(self, *exc) -> bool:
        self.machine.tracer = self._prev_tracer
        if exc[0] is None:
            self.finish()
        return False

    def finish(self) -> TelemetrySummary:
        if self._finished is None:
            machine = self.machine
            machine.settle()
            from repro.micro.measurement import select_domain

            delta = machine.pmu.counters.minus(self._start_counters)
            domain = select_domain(delta)
            rapl = machine.rapl
            meta_energy = {
                (None,) * len(META_KEYS): [
                    rapl.energy_core() - self._last_core,
                    rapl.energy_package() - self._last_package,
                    rapl.energy_dram() - self._last_dram,
                    machine.time_s - self._last_time,
                ]
            }
            self._finished = TelemetrySummary(
                domain, self.background, {}, meta_energy, [], 0.0, 0,
            )
        return self._finished

    @property
    def summary(self) -> TelemetrySummary:
        return self.finish()
