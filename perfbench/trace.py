"""In-memory span recorder for the traced benchmark run.

Spans come from two places, both in the benchmark's own files:

* brackets around the benchmark's calls into a layer
  (``with spans.span("micro.verify"): tab03(lab)``), and
* wrappers installed on public methods of ``repro`` classes for the
  duration of one traced round (:meth:`SpanRecorder.installed`).  The
  wrappers only time and count; arguments and results pass through, so
  every simulated number is unchanged.

A span's self time is its duration minus the time its child spans
cover.  Every span records its name, start, end and parent; the first
:data:`KEEP_SPANS` spans are kept whole and written out at exit, the
rest are folded into the per-name totals only (hot per-access spans run
to millions per round).
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext

from repro.db.btree import BTree
from repro.db.engine import Database, SessionRows
from repro.obs import Tracer
from repro.obs.sampler import SamplingAggregator
from repro.sim.batch import BatchExecutor
from repro.sim.cores import CoreSet
from repro.sim.machine import Machine
from repro.workloads.kvstore import LsmStore

#: Spans kept whole for the artifact; later spans only add to the sums.
KEEP_SPANS = 100_000

#: Units of an executor span: the simulated load and store instructions
#: the call issued, read from the executor's PMU counters around it.
ACCESSES = "accesses"

#: Executor spans.  An executor call made from inside another (as
#: ``load_run`` hands a lone load to ``load_one``) is part of the outer
#: call: it gets no span of its own.
EXECUTOR_SPANS = ("sim.exec", "sim.op")

#: ``(class, method, span name, units)``: the public entry points each
#: layer is timed at.  ``units`` is :data:`ACCESSES`, or
#: ``units(args, result)``, the rows a database call returned.
METHOD_SPANS = (
    (BatchExecutor, "scan_lines", "sim.exec", ACCESSES),
    (BatchExecutor, "load_run", "sim.exec", ACCESSES),
    (BatchExecutor, "load_list", "sim.exec", ACCESSES),
    (BatchExecutor, "load_ring", "sim.exec", ACCESSES),
    (BatchExecutor, "load_bytes", "sim.exec", ACCESSES),
    (BatchExecutor, "store_bytes", "sim.exec", ACCESSES),
    (BatchExecutor, "store_repeat", "sim.exec", ACCESSES),
    (BatchExecutor, "load_one", "sim.op", None),
    (BatchExecutor, "store_one", "sim.op", None),
    (CoreSet, "context_switch", "sim.cores.switch", None),
    (Machine, "settle", "sim.settle", None),
    (Database, "execute", "db.exec", lambda a, r: len(r)),
    (SessionRows, "run_rows", "db.exec", lambda a, r: r),
    (SessionRows, "__next__", "db.exec", lambda a, r: 1),
    (SessionRows, "fetch_all", "db.exec", lambda a, r: len(r)),
    (BTree, "search", "db.btree", None),
    (BTree, "insert", "db.btree", None),
    (BTree, "update_payload", "db.btree", None),
    (BTree, "delete", "db.btree", None),
    (BTree, "bulk_load", "db.btree", None),
    (LsmStore, "get", "kv.get", None),
    (LsmStore, "put", "kv.put", None),
    (LsmStore, "scan", "kv.scan", None),
    (LsmStore, "flush", "kv.flush", None),
    (LsmStore, "compact", "kv.compact", None),
    (Tracer, "enter", "obs.enter", None),
    (Tracer, "exit", "obs.exit", None),
    (SamplingAggregator, "enter", "obs.enter", None),
    (SamplingAggregator, "exit", "obs.exit", None),
)


class _NoSpans:
    """The untraced run's recorder: every bracket is a no-op."""

    enabled = False
    _null = nullcontext()

    def span(self, name: str):
        return self._null


NO_SPANS = _NoSpans()


class SpanRecorder:
    """Spans kept in memory; per-name call, total and self-time sums."""

    enabled = True

    def __init__(self, clock):
        self.clock = clock
        #: ``[name, start_s, end_s, parent_index]`` per kept span.
        self.records: list = []
        self.dropped = 0
        #: name -> ``[calls, total_s, self_s, units]``.
        self.stats: dict = {}
        #: Objects seen by the LSM store spans (for write amplification).
        self.stores: dict = {}
        #: ``(root span name, stats copy)`` each time a root span ends,
        #: so the per-name sums can be split by phase.
        self.marks: list = []
        self._stack: list = []
        self.origin = clock()

    def _stat(self, name: str) -> list:
        return self.stats.setdefault(name, [0, 0.0, 0.0, 0])

    def _open(self, name: str) -> list:
        """Push a frame ``[child_s, record index, name]`` for a new span."""
        stack = self._stack
        frame = [0.0, -1, name]
        if len(self.records) < KEEP_SPANS:
            frame[1] = len(self.records)
            self.records.append([name, 0.0, 0.0,
                                 stack[-1][1] if stack else -1])
        else:
            self.dropped += 1
        stack.append(frame)
        return frame

    def _close(self, stats: list, frame: list, t0: float, t1: float) -> None:
        stack = self._stack
        stack.pop()
        dt = t1 - t0
        stats[0] += 1
        stats[1] += dt
        stats[2] += dt - frame[0]
        if stack:
            stack[-1][0] += dt
        if frame[1] >= 0:
            self.records[frame[1]][1:3] = [t0 - self.origin,
                                           t1 - self.origin]

    def wrap(self, name: str, fn, units):
        """``fn`` timed as a span called ``name``."""
        stats = self._stat(name)
        clock = self.clock
        stack = self._stack
        open_span = self._open
        close_span = self._close
        executor = name in EXECUTOR_SPANS
        accesses = units == ACCESSES

        def timed(*args, **kwargs):
            if executor and stack and stack[-1][2] in EXECUTOR_SPANS:
                return fn(*args, **kwargs)
            if accesses:
                counters = args[0].cpu.counters
                before = counters.n_load_inst + counters.n_store_inst
            frame = open_span(name)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                close_span(stats, frame, t0, clock())
            if accesses:
                stats[3] += (counters.n_load_inst + counters.n_store_inst
                             - before)
            elif units is not None:
                stats[3] += units(args, result)
            return result

        return timed

    @contextmanager
    def span(self, name: str):
        """Bracket a block as one span called ``name``."""
        stats = self._stat(name)
        frame = self._open(name)
        t0 = self.clock()
        try:
            yield
        finally:
            self._close(stats, frame, t0, self.clock())
            if not self._stack:
                self.marks.append((name, {k: list(v) for k, v
                                          in self.stats.items()}))

    @contextmanager
    def installed(self):
        """Wrap every :data:`METHOD_SPANS` entry point for the block.

        Install before the round builds its machines: machines bind
        their per-access entry points at construction."""
        saved = []
        try:
            for cls, attr, name, units in METHOD_SPANS:
                original = cls.__dict__[attr]
                saved.append((cls, attr, original))
                if name.startswith("kv."):
                    units = self._remember_store
                setattr(cls, attr, self.wrap(name, original, units))
            yield self
        finally:
            for cls, attr, original in reversed(saved):
                setattr(cls, attr, original)

    def _remember_store(self, args, result) -> int:
        self.stores[id(args[0])] = args[0]
        return 0

    # ------------------------------------------------------------ reading

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0])[0]

    def total_s(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0])[1]

    def self_s(self, *names: str) -> float:
        return sum(self.stats[n][2] for n in names if n in self.stats)

    def units(self, name: str) -> int:
        return self.stats.get(name, [0, 0.0, 0.0, 0])[3]

    def phases(self) -> dict:
        """Per root span (``setup``, ``timed``): one row per span name
        with its calls, total and self seconds inside that phase.  The
        self times of a phase's rows sum to the phase's duration."""
        out = {}
        before: dict = {}
        for root, stats in self.marks:
            rows = []
            for name, (calls, total, own, units) in stats.items():
                prev = before.get(name, [0, 0.0, 0.0, 0])
                if calls == prev[0]:
                    continue
                rows.append({"span": name, "calls": calls - prev[0],
                             "total_s": total - prev[1],
                             "self_s": own - prev[2],
                             "units": units - prev[3]})
            rows.sort(key=lambda row: -row["self_s"])
            out[root] = rows
            before = stats
        return out
