"""Batched micro-op execution engine.

Every simulated micro-op normally pays three Python call frames
(``Cpu.load`` → ``MemoryHierarchy.load`` → ``CacheLevel.lookup``), so
scan-heavy workloads — exactly the access patterns the paper's
micro-analysis decomposes — are bounded by interpreter overhead rather
than by the model.  This module provides two interchangeable executors:

* :class:`ReferenceExecutor` — the per-op path.  Every access takes the
  full ``Cpu``/``MemoryHierarchy`` call chain; this *is* the model.
* :class:`BatchExecutor` — executes whole runs of line accesses in one
  call, with the hierarchy walk, fill/evict cascade, and prefetcher
  update inlined into a single loop over local variables.

The batched engine has two scan regimes.  Warm scans (every line hits
L1D) fold into the scan-replay memo.  Cold streaming scans take the
**sequential-stream cold fast path**: once a trained prefetcher stream
covers the upcoming lines, the per-line miss cascade is regular —
demand miss → L2 prefetch hit → steady-state LRU eviction — so whole
strides execute in closed form: the ``_Stream`` state advances
arithmetically instead of via per-line ``observe()`` calls, fills and
evictions are applied directly to the per-set ``OrderedDict`` state
(one ``popitem``/insert per affected level and line, dirty-victim
writebacks included), and integer counters are accumulated per stride
(see :meth:`BatchExecutor._cold_stride`).

Strided ring walks (``load_ring``: context-switch cache pollution,
point-lookup rings, operator cold probes) take one verified walk per
rotation (:meth:`BatchExecutor._ring_steady`), which applies every
L1D-miss outcome with per-probe cache mutations and bulk counters, and
rings whose lines fit their L1D sets fold every rotation after the
first into one bulk hit update (:meth:`BatchExecutor._ring_fast`).

The batched path is **bit-identical** to the reference path: it performs
the same set/LRU mutations in the same order and applies the same cycle
and stall additions in the same order, so PMU counters, cache state,
energy, and wall-clock agree exactly (see
``tests/sim/test_batch_equivalence.py``).  The only accounting shortcut
it takes — folding a run of guaranteed L1D hits into one bulk update —
adds the same dyadic issue widths the reference path adds one at a
time; for issue widths that are multiples of 0.25 cycles (both machine
presets) those additions are exact in IEEE-754 doubles at any realistic
cycle count, so even the floating-point results are identical.

Executors are swapped via ``Machine.set_exec_mode("reference" |
"batched")``; the run-level entry points (``load_run``, ``load_list``,
``store_repeat``) share one signature across both so callers never
branch on the mode.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, Sequence

from repro.sim.address_space import LINE_SHIFT, LINE_SIZE
from repro.sim.cpu import Cpu
from repro.sim.hierarchy import (
    LEVEL_L1D,
    LEVEL_L2,
    LEVEL_L3,
    LEVEL_MEM,
    LEVEL_TCM,
)

EXEC_MODES = ("reference", "batched")

#: Lines handed to the generic walk between cold-stride retries while a
#: scan has not (yet) converged to the steady trained-stream shape.  Big
#: enough that the training prefix of a cold scan costs at most two
#: retries, small enough that the fast path engages quickly.
_STRIDE_RETRY_CHUNK = 64


class ReferenceExecutor:
    """Per-op execution: every access takes the full model call chain."""

    mode = "reference"

    def __init__(self, cpu: Cpu):
        self.cpu = cpu

    def scan_lines(self, base_addr: int, n_lines: int, loads_per_line: int = 1) -> None:
        self.cpu.scan_lines(base_addr, n_lines, loads_per_line)

    def load_bytes(self, addr: int, nbytes: int, dependent: bool = False) -> None:
        self.cpu.load_bytes(addr, nbytes, dependent)

    def store_bytes(self, addr: int, nbytes: int) -> None:
        self.cpu.store_bytes(addr, nbytes)

    def load_run(self, base: int, offsets: Sequence[int], dependent: bool = False) -> None:
        """Loads at ``base + off`` for ascending word ``offsets``; only
        the first load is dependent (when requested)."""
        load = self.cpu.load
        for off in offsets:
            load(base + off, dependent)
            dependent = False

    def load_list(self, addrs: Iterable[int], dependent: bool = False) -> None:
        """One load per address, each with the given dependence."""
        load = self.cpu.load
        for addr in addrs:
            load(addr, dependent)

    def load_ring(self, base: int, cursor: int, stride: int, count: int,
                  n_lines: int, dependent: bool = False) -> int:
        """``count`` strided loads over a ring of ``n_lines`` cache lines.

        Each load first advances ``cursor`` by ``stride`` modulo
        ``n_lines``, then touches ``base + cursor * LINE_SIZE``; the
        final cursor is returned so callers can persist the walk
        position across calls.  ``dependent`` applies to every load
        (the load_list convention)."""
        load = self.cpu.load
        for _ in range(count):
            cursor = (cursor + stride) % n_lines
            load(base + cursor * LINE_SIZE, dependent)
        return cursor

    def store_repeat(self, addr: int, n: int) -> None:
        """``n`` stores to the same address."""
        store = self.cpu.store
        for _ in range(n):
            store(addr)


class ExecStats:
    """Fast-path coverage counters of a :class:`BatchExecutor`.

    Plain integers, bumped once per executor call (never per probe).
    Ring probes are counted by route: ``ring_folded`` (proven L1D hits
    applied in bulk), ``ring_verified`` (the verified walk) and
    ``ring_generic`` (the exact generic walk).  Each ``bail_*`` counts
    the times the verified walk stopped for one reason: a probe that
    could match a prefetcher tracker (``clip``: the walk runs that
    probe's prefetcher step exactly and resumes behind it), an L1D hit
    (``l1d_hit``: the hits go to the generic walk, then the walk
    resumes), or — handing the rest of the rotation to the generic
    walk — an idle tracker slot (``untrained``), a cycle count the bulk
    add cannot reproduce exactly (``non_dyadic``), a line-space step of
    one (``ext_unsafe``), or a hierarchy or prefetcher the walk does not
    model (``config``).
    """

    __slots__ = ("ring_calls", "ring_folded", "ring_verified",
                 "ring_generic", "bail_clip", "bail_untrained",
                 "bail_non_dyadic", "bail_l1d_hit", "bail_ext_unsafe",
                 "bail_config")

    def __init__(self) -> None:
        for name in self.__slots__:
            setattr(self, name, 0)


class BatchExecutor:
    """Run-level execution with the hierarchy walk inlined.

    The workhorses are :meth:`_load_addrs` and :meth:`_store_addrs`:
    one Python loop over an address iterable, with cache sets, masks,
    latencies, and counters bound to locals, and the fill/evict cascade
    of ``MemoryHierarchy._fetch_from_below`` written out inline.  Dirty
    victim cascades (the rare path) fall back to the hierarchy's own
    ``_fill_l2``/``_fill_l3`` so the write-back logic lives in exactly
    one place.
    """

    mode = "batched"

    def __init__(self, cpu: Cpu):
        self.cpu = cpu
        #: ``(base, n_lines, mut_epoch)`` of the last ``scan_lines`` call
        #: that hit L1D on every line, or None.  See :meth:`scan_lines`.
        self._scan_memo = None
        #: Memoised ring visit cycles, keyed by
        #: ``(base, n_lines, step, cursor_class)`` — pure modular
        #: arithmetic over an immutable ring geometry, so entries never
        #: invalidate.  See :meth:`_ring_fast`.
        self._ring_memo: dict = {}
        #: Verified-walk charges by ``(dependent, L2/L3/memory
        #: latency)``.  See :meth:`_ring_price`.
        self._ring_prices: dict = {}
        #: Fast-path coverage; see :class:`ExecStats`.
        self.stats = ExecStats()
        #: (offsets tuple, base mod line) -> (line-first offsets,
        #: word count, line count).  See :meth:`load_run`.
        self._run_memo: dict = {}

    # ------------------------------------------------------------ public API

    def scan_lines(self, base_addr: int, n_lines: int, loads_per_line: int = 1) -> None:
        if n_lines <= 0:
            return
        cpu = self.cpu
        hier = cpu.hierarchy
        memo = self._scan_memo
        if (memo is not None and memo[0] == base_addr and memo[1] == n_lines
                and memo[2] == hier.mut_epoch):
            # The previous scan_lines call covered this exact range, hit
            # L1D on every line, and nothing has touched cache state
            # since.  Replaying it re-orders each set into the ascending
            # order the previous scan already left it in — a no-op on
            # cache state — so the whole scan folds into one bulk hit
            # update.  (All-hit loads add only `issue` cycles, which is
            # dyadic, so the bulk add is bit-identical to n single adds.)
            c = cpu.counters
            n = n_lines * loads_per_line
            hier.l1d.hits += n_lines
            c.n_load_inst += n
            c.n_l1d += n
            c.l1d_hits += n
            c.cycles += n * cpu.timing.load_issue
            return
        hier.mut_epoch += 1
        impure = self._scan_walk(base_addr, n_lines)
        self._scan_memo = (
            (base_addr, n_lines, hier.mut_epoch) if impure == 0 else None
        )
        extra = loads_per_line - 1
        if extra > 0:
            c = cpu.counters
            bulk = n_lines * extra
            c.n_load_inst += bulk
            c.n_l1d += bulk
            c.l1d_hits += bulk
            c.cycles += bulk * cpu.timing.load_issue

    def load_bytes(self, addr: int, nbytes: int, dependent: bool = False) -> None:
        n_words = max(1, (nbytes + 7) // 8)
        last = addr + 8 * (n_words - 1)
        cpu = self.cpu
        cpu.hierarchy.mut_epoch += 1
        tcm = cpu.hierarchy.tcm_region
        if tcm is not None and addr < tcm.end and last >= tcm.base:
            # TCM bulk / boundary-straddle handling is identical in both
            # modes; reuse the reference implementation.
            cpu.load_bytes(addr, nbytes, dependent)
            return
        first_line = addr >> LINE_SHIFT
        extra_lines = (last >> LINE_SHIFT) - first_line
        if extra_lines == 0:
            addrs = (addr,)
        else:
            word0 = addr & 7
            addrs = [addr]
            for i in range(1, extra_lines + 1):
                addrs.append(((first_line + i) << LINE_SHIFT) | word0)
        self._load_addrs(addrs, dependent, first_only=True)
        bulk = n_words - 1 - extra_lines
        if bulk > 0:
            c = cpu.counters
            c.n_load_inst += bulk
            c.n_l1d += bulk
            c.l1d_hits += bulk
            c.cycles += bulk * cpu.timing.load_issue

    def store_bytes(self, addr: int, nbytes: int) -> None:
        n_words = max(1, (nbytes + 7) // 8)
        last = addr + 8 * (n_words - 1)
        cpu = self.cpu
        cpu.hierarchy.mut_epoch += 1
        tcm = cpu.hierarchy.tcm_region
        if tcm is not None and addr < tcm.end and last >= tcm.base:
            cpu.store_bytes(addr, nbytes)
            return
        first_line = addr >> LINE_SHIFT
        extra_lines = (last >> LINE_SHIFT) - first_line
        if extra_lines == 0:
            addrs = (addr,)
        else:
            word0 = addr & 7
            addrs = [addr]
            for i in range(1, extra_lines + 1):
                addrs.append(((first_line + i) << LINE_SHIFT) | word0)
        self._store_addrs(addrs)
        bulk = n_words - 1 - extra_lines
        if bulk > 0:
            c = cpu.counters
            c.n_store_inst += bulk
            c.n_store += bulk
            c.n_store_l1d_hit += bulk
            c.cycles += bulk * cpu.timing.store_issue

    def load_run(self, base: int, offsets: Sequence[int], dependent: bool = False) -> None:
        if not offsets:
            return
        cpu = self.cpu
        cpu.hierarchy.mut_epoch += 1
        tcm = cpu.hierarchy.tcm_region
        if tcm is not None:
            first = base + offsets[0]
            last = base + offsets[-1]
            if first < tcm.end and last >= tcm.base:
                if tcm.base <= first and last < tcm.end:
                    # Whole run in TCM: bulk accounting.
                    c = cpu.counters
                    n = len(offsets)
                    c.n_tcm_load += n
                    c.n_load_inst += n
                    if dependent:
                        latency = cpu._latency[LEVEL_TCM]
                        c.cycles += latency
                        c.stall_cycles += latency - 1.0
                        c.cycles += (n - 1) * cpu.timing.load_issue
                    else:
                        c.cycles += n * cpu.timing.load_issue
                else:
                    # Straddles the TCM boundary: exact per-op fallback.
                    load = cpu.load
                    for off in offsets:
                        load(base + off, dependent)
                        dependent = False
                return
        # The first word of each touched line takes the full path; the
        # trailing same-line words are guaranteed L1D hits (ascending
        # offsets keep the line MRU) — the reference path probes them
        # one by one, so the bulk update mirrors a probe: it counts
        # CacheLevel hits as well as the PMU counters.
        #
        # Which words are line-first depends only on the offsets tuple
        # and the base's offset within its line — and scans reuse one
        # memoised offsets tuple for every row — so the split is
        # computed once per ``(offsets, base mod line)`` and the walk
        # probes 2–3 line-first words instead of looping every word.
        #
        # Optimistic pass: probe line-first words in order while they
        # hit L1D (the warm-database common case), bailing to the full
        # inlined walk at the first miss.  The probes before the miss
        # happen in reference order; everything from the miss on is
        # handed to _load_addrs, which also runs in order.
        tup = offsets if type(offsets) is tuple else tuple(offsets)
        key = (tup, base & (LINE_SIZE - 1))
        ent = self._run_memo.get(key)
        if ent is None:
            rel = base & (LINE_SIZE - 1)
            firsts = []
            prev_line = -1
            for off in tup:
                line_rel = (rel + off) >> LINE_SHIFT
                if line_rel != prev_line:
                    prev_line = line_rel
                    firsts.append(off)
            ent = (tuple(firsts), len(tup), len(firsts))
            self._run_memo[key] = ent
        firsts, n, n_first = ent
        l1 = cpu.hierarchy.l1d
        s1 = l1._sets
        m1 = l1._set_mask
        c = cpu.counters
        issue = cpu.timing.load_issue
        hits = 0
        rest = None
        for off in firsts:
            a = base + off
            if rest is not None:
                rest.append(a)
                continue
            line = a >> LINE_SHIFT
            set1 = s1[line & m1]
            if line in set1:
                set1.move_to_end(line)
                hits += 1
            else:
                rest = [a]
        if hits:
            l1.hits += hits
            c.n_l1d += hits
            c.l1d_hits += hits
            c.n_load_inst += hits
            if dependent:
                # The run's first word hit; it alone carries the
                # dependent-load latency.
                lat_l1 = cpu._latency[LEVEL_L1D]
                c.cycles += lat_l1
                c.stall_cycles += lat_l1 - 1.0
                if hits > 1:
                    c.cycles += (hits - 1) * issue
                dependent = False
            else:
                c.cycles += hits * issue
        if rest is not None:
            if len(rest) == 1:
                # One straggler line (the common warm-run shape: every
                # line hit but the last).  The flattened single-load
                # path charges it exactly; skip _load_addrs' prologue.
                self.load_one(rest[0], dependent)
            else:
                self._load_addrs(rest, dependent, first_only=True)
        bulk = n - n_first
        if bulk > 0:
            l1.hits += bulk
            c.n_l1d += bulk
            c.l1d_hits += bulk
            c.n_load_inst += bulk
            c.cycles += bulk * issue

    def load_list(self, addrs: Iterable[int], dependent: bool = False) -> None:
        cpu = self.cpu
        hier = cpu.hierarchy
        hier.mut_epoch += 1
        # Optimistic pass, as in load_run: L1D hits (the resident-list
        # pointer-chase case) are applied inline and in order; the first
        # miss — or any TCM address — hands the remainder to the full
        # walk.  ``dependent`` applies to every load here, so the hit
        # bulk prices each hit at the dependent L1 latency.
        l1 = hier.l1d
        s1 = l1._sets
        m1 = l1._set_mask
        tcm = hier.tcm_region
        if tcm is not None:
            tbase = tcm.base
            tend = tcm.base + tcm.size
        else:
            tbase = 1
            tend = 0
        hits = 0
        rest = None
        for a in addrs:
            if rest is not None:
                rest.append(a)
                continue
            line = a >> LINE_SHIFT
            if tbase <= a < tend:
                rest = [a]
                continue
            set1 = s1[line & m1]
            if line in set1:
                set1.move_to_end(line)
                hits += 1
            else:
                rest = [a]
        if hits:
            c = cpu.counters
            l1.hits += hits
            c.n_l1d += hits
            c.l1d_hits += hits
            c.n_load_inst += hits
            if dependent:
                lat_l1 = cpu._latency[LEVEL_L1D]
                c.cycles += hits * lat_l1
                c.stall_cycles += hits * (lat_l1 - 1.0)
            else:
                c.cycles += hits * cpu.timing.load_issue
        if rest is not None:
            self._load_addrs(rest, dependent)

    def load_one(self, addr: int, dependent: bool = False) -> int:
        """One load instruction, flattened to a single frame.

        ``Machine.load`` routes here in batched mode (B-tree descents,
        buffer-pool headers, KV probes — the per-op stragglers that
        never form a run).  The L1D-hit common case is applied inline
        with exactly the reference path's counter and cycle updates;
        TCM addresses and misses hand the address to the generic walk,
        which is the proven-equivalent cascade.  Bumps the mutation
        epoch like the ``Machine.load`` wrapper it replaces.
        """
        cpu = self.cpu
        hier = cpu.hierarchy
        hier.mut_epoch += 1
        tcm = hier.tcm_region
        if tcm is None or addr < tcm.base or addr >= tcm.base + tcm.size:
            line = addr >> LINE_SHIFT
            l1 = hier.l1d
            set1 = l1._sets[line & l1._set_mask]
            if line in set1:
                set1.move_to_end(line)
                l1.hits += 1
                c = cpu.counters
                c.n_l1d += 1
                c.l1d_hits += 1
                c.n_load_inst += 1
                if dependent:
                    lat_l1 = cpu._latency[LEVEL_L1D]
                    c.cycles += lat_l1
                    c.stall_cycles += lat_l1 - 1.0
                else:
                    c.cycles += cpu.timing.load_issue
                return LEVEL_L1D
            # L1D miss, L2 hit: the dominant miss shape for the per-op
            # stragglers (B-tree nodes and page headers bounce between
            # L1D and L2).  Flattened with exactly the reference
            # cascade's state and counter updates — the lookup's LRU
            # touch and miss count, the L1 fill with its dirty-victim
            # write-back through ``_fill_l2``, the prefetcher pass, and
            # the L2-latency cycle charge.  Deeper misses fall through
            # to the reference cascade itself.
            l2 = hier.l2
            if l2 is not None:
                set2 = l2._sets[line & l2._set_mask]
                if line in set2:
                    set2.move_to_end(line)
                    l2.hits += 1
                    l1.misses += 1
                    c = cpu.counters
                    c.n_l1d += 1
                    c.n_l2 += 1
                    c.l2_hits += 1
                    if len(set1) >= l1.assoc:
                        v, vd = set1.popitem(last=False)
                        l1.evictions += 1
                        if vd:
                            l1.dirty_evictions += 1
                            c.n_writeback += 1
                            hier._fill_l2(v, True)
                    else:
                        l1._occupancy += 1
                    set1[line] = False
                    l1.fills += 1
                    hier._run_prefetcher(line)
                    c.n_load_inst += 1
                    lat = cpu._latency[LEVEL_L2]
                    if dependent:
                        c.cycles += lat
                        c.stall_cycles += lat - 1.0
                    else:
                        issue = cpu.timing.load_issue
                        c.cycles += issue
                        exposed = lat / cpu.timing.mlp - issue
                        if exposed > 0.0:
                            c.cycles += exposed
                            c.stall_cycles += exposed
                    return LEVEL_L2
        # TCM window or deep miss: the per-op model path (those misses
        # do the heavy cascade anyway, so the extra frames are noise).
        return cpu.load(addr, dependent)

    def store_one(self, addr: int) -> None:
        """One store instruction, flattened like :meth:`load_one` (the
        ``Machine.store`` batched route).  A hit refreshes LRU order,
        dirties the line, and pays the 1-cycle store-buffer issue —
        identical to ``Cpu.store`` on an L1D hit; everything else
        (TCM, write-allocate misses) takes the generic store walk."""
        cpu = self.cpu
        hier = cpu.hierarchy
        hier.mut_epoch += 1
        tcm = hier.tcm_region
        if tcm is None or addr < tcm.base or addr >= tcm.base + tcm.size:
            line = addr >> LINE_SHIFT
            l1 = hier.l1d
            set1 = l1._sets[line & l1._set_mask]
            if line in set1:
                set1.move_to_end(line)
                set1[line] = True
                l1.hits += 1
                c = cpu.counters
                c.n_store += 1
                c.n_store_l1d_hit += 1
                c.n_store_inst += 1
                c.cycles += cpu.timing.store_issue
                return
            l2 = hier.l2
            if l2 is not None:
                set2 = l2._sets[line & l2._set_mask]
                if line in set2:
                    # Write-allocate serviced from L2: the miss fetches
                    # the line into L1D dirty (an RFO); no prefetcher —
                    # it trains on demand-load misses only.
                    set2.move_to_end(line)
                    l2.hits += 1
                    l1.misses += 1
                    c = cpu.counters
                    c.n_store += 1
                    c.n_l2 += 1
                    c.l2_hits += 1
                    l1.fills += 1
                    if len(set1) >= l1.assoc:
                        v, vd = set1.popitem(last=False)
                        l1.evictions += 1
                        if vd:
                            l1.dirty_evictions += 1
                            c.n_writeback += 1
                            hier._fill_l2(v, True)
                    else:
                        l1._occupancy += 1
                    set1[line] = True
                    c.n_store_inst += 1
                    c.cycles += cpu.timing.store_issue
                    return
        cpu.store(addr)

    def load_ring(self, base: int, cursor: int, stride: int, count: int,
                  n_lines: int, dependent: bool = False) -> int:
        """:meth:`ReferenceExecutor.load_ring`, one rotation at a time.

        The walk revisits the same line after ``period`` steps, where
        ``period = n_lines / gcd(stride, n_lines)``; the cursor values
        within one rotation are pairwise distinct, so so are the lines
        they touch.  Each rotation goes through :meth:`_ring_steady`,
        the verified walk; the probes it refuses go to the exact generic
        :meth:`_load_addrs`.  Rings that fit L1D fold every rotation
        after the first (see :meth:`_ring_fast`).
        """
        if count <= 0:
            return cursor
        hier = self.cpu.hierarchy
        stats = self.stats
        stats.ring_calls += 1
        tcm = hier.tcm_region
        if (tcm is not None and base < tcm.end
                and base + n_lines * LINE_SIZE > tcm.base):
            # Ring overlaps the TCM window: materialise the address walk
            # and reuse load_list's exact TCM handling.
            stats.ring_generic += count
            addrs = []
            for _ in range(count):
                cursor = (cursor + stride) % n_lines
                addrs.append(base + cursor * LINE_SIZE)
            self.load_list(addrs, dependent)
            return cursor
        hier.mut_epoch += 1
        return self._ring_fast(base, cursor % n_lines, stride % n_lines,
                               count, n_lines, dependent)

    def _ring_fast(self, base: int, cursor: int, step: int, count: int,
                   n_lines: int, dependent: bool) -> int:
        """The ring walk of :meth:`load_ring` (``0 <= cursor, step <
        n_lines``; the region is line-aligned and clear of the TCM).

        The ring's visit order is pure modular arithmetic over an
        immutable geometry: from any cursor the walk traverses the
        ``period`` positions of the cursor's residue class (mod
        ``gcd(step, n_lines)``) in a fixed cyclic order.  That cycle is
        computed once per ``(ring, class)`` and memoised as a tuple of
        line numbers with their per-level cache sets, so each rotation
        is a dict hit plus C-level tuple slices — no per-probe cursor
        arithmetic.  Each rotation segment runs through the verified
        walk (:meth:`_ring_steady`); whatever it refuses goes, in order,
        to the exact generic :meth:`_load_addrs`.

        **Geometric fold.**  The memo also records whether every L1D
        set holds at most ``assoc`` lines of the cycle.  If so, any full
        rotation — whatever its hit/miss mix — leaves every cycle line
        resident as the MRU entries of its set, in rotation order: only
        ring probes touch L1D during the rotation (dirty-victim
        write-backs and prefetches fill L2/L3 only), each probe makes
        its line MRU, and when the ``i``-th cycle line of a set is
        inserted the ``i - 1 < assoc`` cycle lines already probed sit
        above the LRU victim, so none of them is evicted.  The next
        rotation then hits on every probe and re-appends each set's
        cycle lines in the order they already hold, a no-op on cache
        state (hits never reach the prefetcher).  So after the first
        full rotation every remaining probe is an L1D hit: the full
        rotations fold into one bulk hit update, and a trailing partial
        rotation only moves its lines to their sets' MRU ends.  The
        bulk hit cycles are dyadic issue widths (or the dependent L1
        latency), so the bulk add is bit-identical to per-probe adds.
        """
        cpu = self.cpu
        hier = cpu.hierarchy
        l1 = hier.l1d
        stats = self.stats
        base_line = base >> LINE_SHIFT
        key = (base, n_lines, step, cursor % gcd(step, n_lines))
        memo = self._ring_memo.get(key)
        if memo is None:
            memo = self._ring_memo[key] = self._ring_cycle(
                base_line, cursor, step, n_lines)
        cycle, inv, fits = memo
        period = len(cycle)
        idx = inv[cursor]
        # The verified walk assumes the prefetcher's moving slot can
        # never match ``line - 1`` between consecutive probes, which
        # holds whenever the line-space step is not exactly one.
        ext_safe = step != 1
        walk = self._ring_steady
        done = 0
        while done < count:
            chunk = min(period, count - done)
            first = idx + 1
            if first >= period:
                first -= period
            end = first + chunk
            if end <= period:
                seg = cycle[first:end]
            else:
                seg = cycle[first:] + cycle[:end - period]
            pos = 0
            if ext_safe:
                while pos < chunk:
                    j = walk(seg, pos, inv, base_line, n_lines, first,
                             period, dependent)
                    if j < 0:
                        break
                    pos += j
                    if pos < chunk:
                        # The walk stopped at an L1D hit: run the hits
                        # exactly, then resume the verified walk.
                        k = pos + 1
                        while k < chunk and seg[k][0] in seg[k][1]:
                            k += 1
                        stats.ring_generic += k - pos
                        self._load_addrs(
                            [e[0] << LINE_SHIFT for e in seg[pos:k]],
                            dependent)
                        pos = k
            else:
                stats.bail_ext_unsafe += 1
            if pos < chunk:
                stats.ring_generic += chunk - pos
                self._load_addrs([e[0] << LINE_SHIFT for e in seg[pos:]],
                                 dependent)
            done += chunk
            idx = end - 1
            if idx >= period:
                idx -= period
            if fits and chunk == period and done < count:
                rest = count - done
                tail = rest % period
                for e in seg[:tail]:
                    e[1].move_to_end(e[0])
                idx = (idx + tail) % period
                stats.ring_folded += rest
                c = cpu.counters
                l1.hits += rest
                c.n_l1d += rest
                c.l1d_hits += rest
                c.n_load_inst += rest
                if dependent:
                    lat_l1 = cpu._latency[LEVEL_L1D]
                    c.cycles += rest * lat_l1
                    c.stall_cycles += rest * (lat_l1 - 1.0)
                else:
                    c.cycles += rest * cpu.timing.load_issue
                break
        return cycle[idx][0] - base_line

    def _ring_cycle(self, base_line: int, cursor: int, step: int,
                    n_lines: int) -> tuple:
        """The memo entry of :meth:`_ring_fast` for one residue class:
        ``(cycle, inv, fits)``.

        ``cycle`` has one entry per visit — the line number plus its
        three per-level cache sets (``None`` for an absent level).  The
        set OrderedDicts are created once per cache and only ever
        mutated in place (``flush`` clears them, never replaces them),
        so the references stay valid for the life of the machine.
        ``inv`` maps a ring position to its cycle index; ``fits`` is the
        geometric-fold condition (no L1D set holds more than ``assoc``
        cycle lines)."""
        hier = self.cpu.hierarchy
        l1, l2, l3 = hier.l1d, hier.l2, hier.l3
        s1, m1 = l1._sets, l1._set_mask
        cycle = []
        per_set: dict = {}
        pos = cursor
        for _ in range(n_lines // gcd(step, n_lines)):
            pos = (pos + step) % n_lines
            line = base_line + pos
            cycle.append((
                line, s1[line & m1],
                l2._sets[line & l2._set_mask] if l2 is not None else None,
                l3._sets[line & l3._set_mask] if l3 is not None else None,
            ))
            per_set[line & m1] = per_set.get(line & m1, 0) + 1
        inv = {entry[0] - base_line: j for j, entry in enumerate(cycle)}
        return tuple(cycle), inv, max(per_set.values()) <= l1.assoc

    def _ring_price(self, dependent: bool, lat2: float, lat3: float,
                    latm: float):
        """Per-probe charges of the verified walk: ``(base, c2, c3, cm,
        s2, s3, sm, worst)`` — the issue cycles every probe pays (0 for
        dependent loads), the cycle and stall charges of an L2 hit, an
        L3 hit and a memory miss, and the largest per-probe cycle
        charge.  False when a charge is not a multiple of 2**-8 (the
        bulk add could then round)."""
        if dependent:
            base_cyc = 0.0
            x2, x3, xm = lat2, lat3, latm
            y2, y3, ym = x2 - 1.0, x3 - 1.0, xm - 1.0
        else:
            timing = self.cpu.timing
            base_cyc = issue = timing.load_issue
            mlp = timing.mlp
            # Same expressions the reference path evaluates per probe;
            # a non-positive exposure adds nothing.
            x2 = max(lat2 / mlp - issue, 0.0)
            x3 = max(lat3 / mlp - issue, 0.0)
            xm = max(latm / mlp - issue, 0.0)
            y2, y3, ym = x2, x3, xm
        if not all((x * 256.0).is_integer() for x in (base_cyc, x2, x3, xm)):
            return False
        return (base_cyc, x2, x3, xm, y2, y3, ym,
                base_cyc + max(x2, x3, xm))

    def _ring_steady(self, seg, pos: int, inv, base_line: int, n_lines: int,
                     first: int, period: int, dependent: bool) -> int:
        """Verified walk of one ring rotation segment from ``seg[pos]``.

        Accepts every L1D-miss outcome — L2 hit, L3 hit, or a memory
        miss that fills L3 — and stops at the first L1D hit.  Each
        probe's outcome is checked with plain ``in`` probes before that
        probe mutates anything, then the probe applies its own LRU
        updates and demand fills in the reference order (L3, L2, L1D).
        Dirty victims write back through the hierarchy's own
        ``_fill_l2``/``_fill_l3``, so the cascade logic stays in one
        place.

        The prefetcher needs no per-probe work either.  A miss only
        interacts with a tracker whose last line is the probe line or
        the line below it; otherwise ``observe`` restarts one fixed
        slot ``s`` (the first with ``run == 1`` or, when every slot is
        trained, the round-robin victim).  From the second probe on,
        ``s`` holds the previous ring line, which never matches because
        consecutive probes differ by the line-space step (the caller
        guarantees it is not 1; a step-0 segment is a single probe).
        So an O(streams) scan of the trackers against the memoised
        cycle index finds the first segment position that could match;
        the walk **clips** there.  Up to the clip every probe is a
        restart of ``s``, whose net effect is one slot write with the
        last line.  The clipped probe itself runs its demand fills
        inline and then the hierarchy's own prefetcher step, and the
        walk rescans and resumes behind it.

        The per-outcome counts (L2 hits, L3 hits, memory misses) give
        every other counter once at the end: ``fills == misses`` per
        level, and evictions are the fills that found the set full.
        Returns the number of probes processed (the caller hands an L1D
        hit to the exact generic walk and calls again behind it), or -1
        when the walk cannot run at all: no L2/L3, a non-default or
        idle-slot prefetcher, or a clock the bulk add cannot reproduce.
        """
        cpu = self.cpu
        hier = cpu.hierarchy
        stats = self.stats
        l2 = hier.l2
        l3 = hier.l3
        pf = hier.prefetcher
        pf_on = pf.enabled and pf.n_streams > 0
        if l2 is None or l3 is None or (pf_on and pf.train_threshold != 2):
            stats.bail_config += 1
            return -1
        if pf_on and 0 in pf._run:
            stats.bail_untrained += 1
            return -1
        chunk = len(seg)
        lat = cpu._latency
        key = (dependent, lat[LEVEL_L2], lat[LEVEL_L3], lat[LEVEL_MEM])
        price = self._ring_prices.get(key)
        if price is None:
            price = self._ring_prices[key] = self._ring_price(*key)
        c = cpu.counters
        cyc = c.cycles
        stall = c.stall_cycles
        if not (price and (cyc * 256.0).is_integer()
                and (stall * 256.0).is_integer()
                and cyc + (chunk - pos) * price[7] < 2.0 ** 44):
            # Bulk cycle accounting below reassociates the per-probe
            # adds; that is bit-exact only while every operand (and so
            # every intermediate sum) is a multiple of 2**-8 small
            # enough that no sum ever rounds: multiples of 2**-8 below
            # 2**44 need at most 52 significand bits.
            stats.bail_non_dyadic += 1
            return -1
        base_cyc, x2, x3, xm, y2, y3, ym, _ = price
        l1 = hier.l1d
        a1 = l1.assoc
        a2 = l2.assoc
        a3 = l3.assoc
        fill_l2 = hier._fill_l2
        fill_l3 = hier._fill_l3
        run = pf._run
        last = pf._last
        inv_get = inv.get
        j2 = j3 = jm = 0
        u1 = u2 = u3 = dev1 = dev2 = dev3 = 0
        while True:
            lim = chunk
            if pf_on:
                victim = 1 not in run
                s = pf._victim if victim else run.index(1)
                # ``r`` is a tracker's distance, in probes, from
                # ``seg[pos]`` to the nearest cycle line it could match.
                # Positions before ``pos`` (already probed; segment
                # lines are distinct) wrap to ``period - pos`` or more,
                # beyond the segment.  The old line of the restart slot
                # ``s`` can only match the next probe, so a later
                # position conflicts only through another slot.
                here = first + pos
                for v in last:
                    off = v - base_line
                    if -1 <= off < n_lines:
                        iv = inv_get(off)
                        r = period if iv is None else (iv - here) % period
                        iv = inv_get(off + 1)
                        if iv is not None:
                            r1 = (iv - here) % period
                            if r1 < r:
                                r = r1
                        if r < lim - pos and (r == 0 or v != last[s]
                                              or last.count(v) > 1):
                            lim = pos + r
            stop = lim + 1 if lim < chunk else chunk
            n0 = j2 + j3 + jm
            for line, set1, set2, set3 in seg[pos:stop]:
                if line in set1:
                    break
                if line in set2:
                    set2.move_to_end(line)
                    j2 += 1
                else:
                    if line in set3:
                        set3.move_to_end(line)
                        j3 += 1
                    else:
                        # Memory miss: fill L3 (a dirty victim drains to
                        # DRAM, counted, not cached).
                        if len(set3) >= a3:
                            if set3.popitem(last=False)[1]:
                                dev3 += 1
                        else:
                            u3 += 1
                        set3[line] = False
                        jm += 1
                    if len(set2) >= a2:
                        v, vd = set2.popitem(last=False)
                        if vd:
                            dev2 += 1
                            fill_l3(v, True)
                    else:
                        u2 += 1
                    set2[line] = False
                if len(set1) >= a1:
                    v, vd = set1.popitem(last=False)
                    if vd:
                        dev1 += 1
                        fill_l2(v, True)
                else:
                    u1 += 1
                set1[line] = False
            end = pos + j2 + j3 + jm - n0
            restarts = (end if end < lim else lim) - pos
            if pf_on and restarts:
                # Net effect of the restarts before the clip (the victim
                # branch writes no counters).
                if victim:
                    pf._victim = (s + 1) % pf.n_streams
                    run[s] = 1
                last[s] = seg[pos + restarts - 1][0]
                pf._l2up[s] = -1
                pf._l3up[s] = -1
            pos = end
            if pos < stop:
                stats.bail_l1d_hit += 1
                break
            if lim == chunk:
                break
            # The clipped probe's prefetcher step, after its fills.
            stats.bail_clip += 1
            hier._run_prefetcher(seg[lim][0])
            if pos == chunk:
                break
        m2 = j3 + jm
        j = j2 + m2
        if j == 0:
            return 0
        stats.ring_verified += j
        c.cycles = cyc + j * base_cyc + j2 * x2 + j3 * x3 + jm * xm
        c.stall_cycles = stall + j2 * y2 + j3 * y3 + jm * ym
        c.n_load_inst += j
        c.n_l1d += j
        c.n_l2 += j
        c.l2_hits += j2
        c.n_l3 += m2
        c.l3_hits += j3
        c.n_mem += jm
        c.n_writeback += dev1 + dev2 + dev3
        # Plain attribute adds, not bulk_account: this runs once per
        # short ring segment, where three keyword calls are measurable.
        l1.misses += j
        l1.fills += j
        l1.evictions += j - u1
        l1.dirty_evictions += dev1
        l1._occupancy += u1
        l2.hits += j2
        l2.misses += m2
        l2.fills += m2
        l2.evictions += m2 - u2
        l2.dirty_evictions += dev2
        l2._occupancy += u2
        l3.hits += j3
        l3.misses += jm
        l3.fills += jm
        l3.evictions += jm - u3
        l3.dirty_evictions += dev3
        l3._occupancy += u3
        return j

    def store_repeat(self, addr: int, n: int) -> None:
        if n <= 0:
            return
        cpu = self.cpu
        cpu.hierarchy.mut_epoch += 1
        c = cpu.counters
        tcm = cpu.hierarchy.tcm_region
        if tcm is not None and tcm.base <= addr < tcm.end:
            c.n_tcm_store += n
            c.n_store_inst += n
            c.cycles += n * cpu.timing.store_issue
            return
        self._store_addrs((addr,))
        if n > 1:
            # Repeat stores to one address hit the (now dirty, MRU) L1D
            # line; the reference path probes each one.
            bulk = n - 1
            cpu.hierarchy.l1d.hits += bulk
            c.n_store += bulk
            c.n_store_l1d_hit += bulk
            c.n_store_inst += bulk
            c.cycles += bulk * cpu.timing.store_issue

    # ------------------------------------------------------------ workhorses

    def _scan_walk(self, base_addr: int, n_lines: int) -> int:
        """Walk ``n_lines`` sequential lines, engaging the cold-stream
        fast path (:meth:`_cold_stride`) wherever a trained prefetcher
        stream makes the per-line miss cascade regular; everything else
        takes the generic inlined walk.  Returns the impure-access
        count (the scan-replay-memo contract of :meth:`_load_addrs`).
        """
        hier = self.cpu.hierarchy
        pf = hier.prefetcher
        tcm = hier.tcm_region
        if (not pf.enabled or hier.l2 is None or hier.l3 is None
                or pf.degree < 1 or pf.l3_extra < 1
                or (tcm is not None
                    and base_addr < tcm.end
                    and base_addr + n_lines * LINE_SIZE > tcm.base)):
            # The closed-form cascade can never apply here (no trained
            # windows, no L2/L3 to stage into, or TCM addresses inside
            # the range): single generic walk, the pre-fast-path shape.
            return self._load_addrs(
                range(base_addr, base_addr + n_lines * LINE_SIZE, LINE_SIZE)
            )
        line0 = base_addr >> LINE_SHIFT
        impure = 0
        done = 0
        stalled_attempts = 0
        while done < n_lines:
            n = self._cold_stride(line0 + done, n_lines - done)
            if n:
                stalled_attempts = 0
                impure += n
                done += n
                continue
            stalled_attempts += 1
            if stalled_attempts >= 3:
                # Not converging to the fast-path shape (warm data, a
                # stream trained elsewhere, heavy interference): finish
                # generically in one call.
                chunk = n_lines - done
            else:
                chunk = min(_STRIDE_RETRY_CHUNK, n_lines - done)
            a = base_addr + done * LINE_SIZE
            impure += self._load_addrs(
                range(a, a + chunk * LINE_SIZE, LINE_SIZE)
            )
            done += chunk
        return impure

    def _cold_stride(self, line: int, max_lines: int) -> int:
        """Execute demand lines ``[line, line + k)`` of a sequential
        scan in closed form for the largest safe ``k <= max_lines``;
        returns ``k`` (0 when the fast path does not apply at ``line``).

        Entry preconditions, checked with arithmetic only: the first
        prefetcher tracker that would match ``line`` is trained and
        positioned exactly at ``line - 1`` with both window watermarks
        in the steady-state shape, so each ``observe`` emits exactly
        one L2-window line (``line + degree``) and one L3-window line
        (``line + degree + l3_extra``).  The stride is clipped before
        any line where an earlier tracker would fire instead (capture
        or same-line neutrality), since trackers are matched in table
        order.

        Checked per line, before any mutation: the demand line misses
        L1D and hits L2 — the regular cold cascade (demand miss → L2
        prefetch hit → steady-state LRU eviction).  The prefetch fills
        handle every membership and dirty-victim combination inline in
        exact reference order, so irregularity there does not abort
        the stride.  Integer counters and the ``_Stream`` state are
        bulk-advanced on exit; cycle/stall additions run per line in
        the exact reference sequence, so the result is bit-identical
        for arbitrary float timing parameters.
        """
        cpu = self.cpu
        hier = cpu.hierarchy
        pf = hier.prefetcher
        degree = pf.degree
        dist3 = degree + pf.l3_extra
        # ---- locate the tracker observe() would use for this line.
        match = -1
        end = line + max_lines
        for i, ll in enumerate(pf._last):
            if ll == line - 1:
                match = i
                break
            if ll == line:
                return 0        # observe() would take the neutral path
            if ll >= line:
                # This earlier tracker fires first once demand reaches
                # ll: clip the stride just before that.
                end = min(end, ll)
        if (match < 0 or pf._run[match] < pf.train_threshold
                or pf._l2up[match] != line - 1 + degree
                or pf._l3up[match] != line - 1 + dist3
                or end <= line):
            return 0
        c = cpu.counters
        l1 = hier.l1d
        l2 = hier.l2
        l3 = hier.l3
        s1 = l1._sets
        m1 = l1._set_mask
        a1 = l1.assoc
        s2 = l2._sets
        m2 = l2._set_mask
        a2 = l2.assoc
        s3 = l3._sets
        m3 = l3._set_mask
        a3 = l3.assoc
        fill_l2 = hier._fill_l2
        fill_l3 = hier._fill_l3
        timing = cpu.timing
        issue = timing.load_issue
        exp_l2 = cpu._latency[LEVEL_L2] / timing.mlp - issue
        pos_exp = exp_l2 > 0.0
        cyc = c.cycles
        stall = c.stall_cycles
        ev1 = dev1 = occ1 = 0
        f2 = ev2 = dev2 = occ2 = 0
        f3 = ev3 = dev3 = occ3 = 0
        n_pf_l2 = n_pf_l3 = n_wb = 0
        # Steady-state specialisation: when every set of every level is
        # at capacity (an O(1) check via the incremental occupancy
        # totals), each fill is known to evict, so the per-line
        # ``len() >= assoc`` tests and occupancy tallies disappear; and
        # when the per-line cycle increments are quarter-cycle dyadics
        # (both presets; see the module docstring) the float adds fold
        # into one exact bulk multiply after the loop.  Fullness is
        # preserved by the loop itself: every popitem is paired with an
        # insert and ``_fill_l2``/``_fill_l3`` never shrink a set.
        # The bulk multiply is exact only while everything stays on a
        # 1/16-cycle grid below 2**49 — increments *and* accumulators —
        # so any addition order gives the same bits.  Otherwise fall
        # back to the per-line float sequence.
        full = (l1._occupancy == l1.n_sets * a1
                and l2._occupancy == l2.n_sets * a2
                and l3._occupancy == l3.n_sets * a3
                and issue * 16.0 == int(issue * 16.0)
                and (not pos_exp or exp_l2 * 16.0 == int(exp_l2 * 16.0))
                and cyc * 16.0 == int(cyc * 16.0)
                and stall * 16.0 == int(stall * 16.0)
                and (cyc + (end - line)
                     * (issue + (exp_l2 if pos_exp else 0.0)) < 2.0 ** 49))
        k = 0
        if full:
            # Three segments.  A *checked* warmup long enough to evict
            # every pre-existing L1D line (``n_sets * assoc`` demand
            # fills, one per set per ``n_sets`` lines) and to witness a
            # clean steady cascade; then, if the proofs below hold, an
            # *unchecked* middle segment that drops every membership
            # test; then (on re-entry) checked again for the junk-laden
            # tail.  The unchecked segment is sound because each skipped
            # check is discharged against the actual state at the switch
            # point:
            #
            # * ``ln not in L1D``: the warmup evicted all pre-stride
            #   lines and in-stride demand lines are strictly below ln;
            # * ``ln in L2`` would-be check: promotion at ``ln - degree``
            #   inserted it (the streak condition) and no other fill
            #   touches its set within ``degree < n_sets(L2)`` lines —
            #   guarded by move_to_end's KeyError as a hard backstop;
            # * ``p2 not in L2`` / ``p3 not in L3``: in-stride inserts
            #   are strictly increasing and the snapshot horizon ``h``
            #   stops the segment before any resident pre-stride line
            #   could collide with a future p2/p3;
            # * ``p2 in L3``: its p3-fill ran ``l3_extra`` lines earlier
            #   (fresh, per the streak condition) and no fill touches
            #   its set within ``l3_extra < n_sets(L3)`` lines;
            # * L1/L2 victims are clean: L1 victims are in-stride demand
            #   lines, L2 victims are in-stride promotions or pre-stride
            #   lines from a snapshot with zero dirty entries, and no
            #   dirty-victim cascade ran in this stride (dev1 == dev2 ==
            #   0), so only the L3 victim needs its dirty bit read.
            warm = l1.n_sets * a1
            if warm < pf.l3_extra:
                warm = pf.l3_extra
            switch_at = 0
            if (degree < l2.n_sets and dist3 - degree < l3.n_sets
                    and end - line >= warm + 512):
                switch_at = line + warm
            streak = 0
            pos = line
            seg_end = switch_at if switch_at else end
            aborted = False
            while True:
                for ln in range(pos, seg_end):
                    set1 = s1[ln & m1]
                    if ln in set1:
                        aborted = True   # warm line: not a cold miss
                        break
                    set2 = s2[ln & m2]
                    try:
                        # Demand: L1D miss serviced by an L2 hit
                        # (reference order: L1 lookup-miss, L2
                        # lookup-hit, fill L1, observe + fills).
                        set2.move_to_end(ln)
                    except KeyError:
                        aborted = True   # deeper miss: irregular cascade
                        break
                    v, vd = set1.popitem(False)
                    if vd:
                        dev1 += 1
                        n_wb += 1
                        fill_l2(v, True)
                    set1[ln] = False
                    # Closed-form observe: one L2-window line ...
                    p2 = ln + degree
                    pset2 = s2[p2 & m2]
                    if p2 not in pset2:
                        if p2 in s3[p2 & m3]:
                            f2 += 1
                            v, vd = pset2.popitem(False)
                            if vd:
                                dev2 += 1
                                n_wb += 1
                                fill_l3(v, True)
                            pset2[p2] = False
                            st = 1
                        else:
                            n_pf_l3 += 1
                            pset3 = s3[p2 & m3]
                            v, vd = pset3.popitem(False)
                            if vd:
                                dev3 += 1
                                n_wb += 1
                            pset3[p2] = False
                            st = 0
                    else:
                        st = 0
                    # ... and one L3-window line.
                    p3 = ln + dist3
                    pset3 = s3[p3 & m3]
                    if p3 not in pset3:
                        n_pf_l3 += 1
                        v, vd = pset3.popitem(False)
                        if vd:
                            dev3 += 1
                            n_wb += 1
                        pset3[p3] = False
                        if st:
                            streak += 1
                        else:
                            streak = 0
                    else:
                        streak = 0
                    k += 1
                if aborted or seg_end >= end:
                    break
                # At the switch point: discharge the proof obligations,
                # bound the junk horizon, and run unchecked to it.  Any
                # failed obligation falls back to the checked loop for
                # the rest of the stride (seg_end is already extended).
                pos = seg_end
                seg_end = end
                if dev1 or dev2 or streak < pf.l3_extra:
                    continue
                h = end
                dirty2 = False
                b2 = pos + degree
                for cset in s2:
                    for j, d in cset.items():
                        if d:
                            dirty2 = True
                        if j >= b2 and j - degree < h:
                            h = j - degree
                if dirty2:
                    continue
                b3 = pos + dist3
                for cset in s3:
                    for j in cset:
                        if j >= b3 and j - dist3 < h:
                            h = j - dist3
                if h <= pos:
                    continue
                ku = 0
                try:
                    for ln in range(pos, h):
                        s2[ln & m2].move_to_end(ln)
                        set1 = s1[ln & m1]
                        set1.popitem(False)
                        set1[ln] = False
                        p2 = ln + degree
                        pset2 = s2[p2 & m2]
                        pset2.popitem(False)
                        pset2[p2] = False
                        p3 = ln + dist3
                        pset3 = s3[p3 & m3]
                        if pset3.popitem(False)[1]:
                            dev3 += 1
                            n_wb += 1
                        pset3[p3] = False
                        ku += 1
                except KeyError:
                    pass        # backstop; the proofs make this dead
                f2 += ku
                n_pf_l3 += ku
                k += ku
                break
            if k == 0:
                return 0
            # Every fill evicted; the float adds are exact dyadics, so
            # the bulk multiply equals the per-line reference sequence
            # bit for bit.
            n_pf_l2 = f2
            ev1 = k
            ev2 = f2
            f3 = n_pf_l3
            ev3 = n_pf_l3
            cyc += k * issue
            if pos_exp:
                cyc += k * exp_l2
                stall += k * exp_l2
        else:
            for ln in range(line, end):
                set1 = s1[ln & m1]
                if ln in set1:
                    break       # warm line: not a cold miss
                set2 = s2[ln & m2]
                if ln not in set2:
                    break       # deeper miss: irregular cascade
                set2.move_to_end(ln)
                if len(set1) >= a1:
                    v, vd = set1.popitem(last=False)
                    ev1 += 1
                    if vd:
                        dev1 += 1
                        n_wb += 1
                        fill_l2(v, True)
                else:
                    occ1 += 1
                set1[ln] = False
                p2 = ln + degree
                pset2 = s2[p2 & m2]
                if p2 not in pset2:
                    if p2 in s3[p2 & m3]:
                        n_pf_l2 += 1
                        f2 += 1
                        if len(pset2) >= a2:
                            v, vd = pset2.popitem(last=False)
                            ev2 += 1
                            if vd:
                                dev2 += 1
                                n_wb += 1
                                fill_l3(v, True)
                        else:
                            occ2 += 1
                        pset2[p2] = False
                    else:
                        n_pf_l3 += 1
                        pset3 = s3[p2 & m3]
                        f3 += 1
                        if len(pset3) >= a3:
                            v, vd = pset3.popitem(last=False)
                            ev3 += 1
                            if vd:
                                dev3 += 1
                                n_wb += 1
                        else:
                            occ3 += 1
                        pset3[p2] = False
                p3 = ln + dist3
                pset3 = s3[p3 & m3]
                if p3 not in pset3:
                    n_pf_l3 += 1
                    f3 += 1
                    if len(pset3) >= a3:
                        v, vd = pset3.popitem(last=False)
                        ev3 += 1
                        if vd:
                            dev3 += 1
                            n_wb += 1
                    else:
                        occ3 += 1
                    pset3[p3] = False
                # Timing, in the exact reference sequence.
                cyc += issue
                if pos_exp:
                    cyc += exp_l2
                    stall += exp_l2
                k += 1
            if k == 0:
                return 0
        c.cycles = cyc
        c.stall_cycles = stall
        c.n_load_inst += k
        c.n_l1d += k
        c.n_l2 += k
        c.l2_hits += k
        c.n_pf_l2 += n_pf_l2
        c.n_pf_l3 += n_pf_l3
        c.n_writeback += n_wb
        l1.bulk_account(misses=k, fills=k, evictions=ev1,
                        dirty_evictions=dev1, occupancy=occ1)
        l2.bulk_account(hits=k, fills=f2, evictions=ev2,
                        dirty_evictions=dev2, occupancy=occ2)
        l3.bulk_account(fills=f3, evictions=ev3,
                        dirty_evictions=dev3, occupancy=occ3)
        # Bulk-advance the stream exactly as k observe() calls would.
        last = line + k - 1
        pf._last[match] = last
        pf._run[match] += k
        pf._l2up[match] = last + degree
        pf._l3up[match] = last + dist3
        pf.n_pf_l2_issued += k
        pf.n_pf_l3_issued += k
        return k

    def _load_addrs(self, addrs: Iterable[int], dependent: bool = False,
                    first_only: bool = False) -> int:
        """Demand loads for every address in ``addrs``, inlined.

        ``dependent`` applies to all loads, or — with ``first_only`` —
        to just the first one (the ``load_run`` contract).  Returns the
        number of "impure" accesses (L1D misses + TCM hits); a zero
        return means the run was pure L1D hits, which is what the
        ``scan_lines`` replay memo needs to know.
        """
        cpu = self.cpu
        c = cpu.counters
        hier = cpu.hierarchy
        l1 = hier.l1d
        l2 = hier.l2
        l3 = hier.l3
        s1 = l1._sets
        m1 = l1._set_mask
        a1 = l1.assoc
        if l2 is not None:
            s2 = l2._sets
            m2 = l2._set_mask
            a2 = l2.assoc
            fill_l2 = hier._fill_l2
        if l3 is not None:
            s3 = l3._sets
            m3 = l3._set_mask
            a3 = l3.assoc
            fill_l3 = hier._fill_l3
        tcm = hier.tcm_region
        if tcm is not None:
            tbase = tcm.base
            tend = tcm.base + tcm.size
        else:
            tbase = 1
            tend = 0
        observe = hier.prefetcher.observe
        lat = cpu._latency
        lat_tcm = lat[LEVEL_TCM]
        lat_l1 = lat[LEVEL_L1D]
        lat_l2 = lat[LEVEL_L2]
        lat_l3 = lat[LEVEL_L3]
        lat_mem = lat[LEVEL_MEM]
        timing = cpu.timing
        issue = timing.load_issue
        mlp = timing.mlp
        # Same expression the reference path evaluates per op.
        exp_l2 = lat_l2 / mlp - issue
        exp_l3 = lat_l3 / mlp - issue
        exp_mem = lat_mem / mlp - issue

        n_inst = 0
        n_l1d = 0
        l1d_hits = 0
        n_l2 = 0
        l2_hits = 0
        n_l3 = 0
        l3_hits = 0
        n_mem = 0
        n_tcm = 0
        n_wb = 0
        n_pf_l2 = 0
        n_pf_l3 = 0
        h1 = mis1 = f1 = ev1 = dev1 = occ1 = 0
        h2 = mis2 = f2 = ev2 = dev2 = occ2 = 0
        h3 = mis3 = f3 = ev3 = dev3 = occ3 = 0
        cyc = c.cycles
        stall = c.stall_cycles
        dep = dependent

        for addr in addrs:
            n_inst += 1
            if tbase <= addr < tend:
                n_tcm += 1
                if dep:
                    cyc += lat_tcm
                    stall += lat_tcm - 1.0
                    if first_only:
                        dep = False
                else:
                    cyc += issue
                continue
            line = addr >> LINE_SHIFT
            set1 = s1[line & m1]
            if line in set1:
                set1.move_to_end(line)
                h1 += 1
                n_l1d += 1
                l1d_hits += 1
                if dep:
                    cyc += lat_l1
                    stall += lat_l1 - 1.0
                    if first_only:
                        dep = False
                else:
                    cyc += issue
                continue
            # ---------------- L1D miss: walk down, fill on the way back
            n_l1d += 1
            mis1 += 1
            if l2 is None:
                n_mem += 1
                lvl_lat = lat_mem
                exp = exp_mem
            else:
                n_l2 += 1
                set2 = s2[line & m2]
                if line in set2:
                    set2.move_to_end(line)
                    h2 += 1
                    l2_hits += 1
                    lvl_lat = lat_l2
                    exp = exp_l2
                else:
                    mis2 += 1
                    if l3 is None:
                        n_mem += 1
                        lvl_lat = lat_mem
                        exp = exp_mem
                    else:
                        n_l3 += 1
                        set3 = s3[line & m3]
                        if line in set3:
                            set3.move_to_end(line)
                            h3 += 1
                            l3_hits += 1
                            lvl_lat = lat_l3
                            exp = exp_l3
                        else:
                            mis3 += 1
                            n_mem += 1
                            lvl_lat = lat_mem
                            exp = exp_mem
                            # fill L3 (line known absent)
                            f3 += 1
                            if len(set3) >= a3:
                                v, vd = set3.popitem(last=False)
                                ev3 += 1
                                if vd:
                                    dev3 += 1
                                    n_wb += 1
                            else:
                                occ3 += 1
                            set3[line] = False
                    # fill L2 (line known absent)
                    f2 += 1
                    if len(set2) >= a2:
                        v, vd = set2.popitem(last=False)
                        ev2 += 1
                        if vd:
                            dev2 += 1
                            n_wb += 1
                            if l3 is not None:
                                fill_l3(v, True)
                    else:
                        occ2 += 1
                    set2[line] = False
            # fill L1 (line known absent)
            f1 += 1
            if len(set1) >= a1:
                v, vd = set1.popitem(last=False)
                ev1 += 1
                if vd:
                    dev1 += 1
                    n_wb += 1
                    if l2 is not None:
                        fill_l2(v, True)
                    elif l3 is not None:
                        fill_l3(v, True)
            else:
                occ1 += 1
            set1[line] = False
            # prefetcher (demand loads only, after the fills — same
            # order as MemoryHierarchy.load)
            pf2, pf3 = observe(line)
            for pline in pf2:
                if l2 is not None and pline not in s2[pline & m2]:
                    if l3 is not None and pline in s3[pline & m3]:
                        n_pf_l2 += 1
                        pset = s2[pline & m2]
                        f2 += 1
                        if len(pset) >= a2:
                            v, vd = pset.popitem(last=False)
                            ev2 += 1
                            if vd:
                                dev2 += 1
                                n_wb += 1
                                fill_l3(v, True)
                        else:
                            occ2 += 1
                        pset[pline] = False
                    else:
                        n_pf_l3 += 1
                        if l3 is not None:
                            pset = s3[pline & m3]
                            f3 += 1
                            if len(pset) >= a3:
                                v, vd = pset.popitem(last=False)
                                ev3 += 1
                                if vd:
                                    dev3 += 1
                                    n_wb += 1
                            else:
                                occ3 += 1
                            pset[pline] = False
            for pline in pf3:
                if l3 is not None and pline not in s3[pline & m3]:
                    n_pf_l3 += 1
                    pset = s3[pline & m3]
                    f3 += 1
                    if len(pset) >= a3:
                        v, vd = pset.popitem(last=False)
                        ev3 += 1
                        if vd:
                            dev3 += 1
                            n_wb += 1
                    else:
                        occ3 += 1
                    pset[pline] = False
            if dep:
                cyc += lvl_lat
                stall += lvl_lat - 1.0
                if first_only:
                    dep = False
            else:
                cyc += issue
                if exp > 0.0:
                    cyc += exp
                    stall += exp

        c.cycles = cyc
        c.stall_cycles = stall
        c.n_load_inst += n_inst
        c.n_l1d += n_l1d
        c.l1d_hits += l1d_hits
        l1.hits += h1
        if mis1:
            c.n_l2 += n_l2
            c.l2_hits += l2_hits
            c.n_l3 += n_l3
            c.l3_hits += l3_hits
            c.n_mem += n_mem
            c.n_writeback += n_wb
            c.n_pf_l2 += n_pf_l2
            c.n_pf_l3 += n_pf_l3
            l1.bulk_account(misses=mis1, fills=f1, evictions=ev1,
                            dirty_evictions=dev1, occupancy=occ1)
            if l2 is not None:
                l2.bulk_account(hits=h2, misses=mis2, fills=f2,
                                evictions=ev2, dirty_evictions=dev2,
                                occupancy=occ2)
            if l3 is not None:
                l3.bulk_account(hits=h3, misses=mis3, fills=f3,
                                evictions=ev3, dirty_evictions=dev3,
                                occupancy=occ3)
        if n_tcm:
            c.n_tcm_load += n_tcm
        return mis1 + n_tcm

    def _store_addrs(self, addrs: Iterable[int]) -> None:
        """Stores for every address in ``addrs``, inlined (write-back +
        write-allocate; stores cost one issue slot, never stall)."""
        cpu = self.cpu
        c = cpu.counters
        hier = cpu.hierarchy
        l1 = hier.l1d
        l2 = hier.l2
        l3 = hier.l3
        s1 = l1._sets
        m1 = l1._set_mask
        a1 = l1.assoc
        if l2 is not None:
            s2 = l2._sets
            m2 = l2._set_mask
            a2 = l2.assoc
            fill_l2 = hier._fill_l2
        if l3 is not None:
            s3 = l3._sets
            m3 = l3._set_mask
            a3 = l3.assoc
            fill_l3 = hier._fill_l3
        tcm = hier.tcm_region
        if tcm is not None:
            tbase = tcm.base
            tend = tcm.base + tcm.size
        else:
            tbase = 1
            tend = 0

        n_inst = 0
        n_store = 0
        n_store_hit = 0
        n_l2 = 0
        l2_hits = 0
        n_l3 = 0
        l3_hits = 0
        n_mem = 0
        n_tcm = 0
        n_wb = 0
        h1 = mis1 = f1 = ev1 = dev1 = occ1 = 0
        h2 = mis2 = f2 = ev2 = dev2 = occ2 = 0
        h3 = mis3 = f3 = ev3 = dev3 = occ3 = 0

        for addr in addrs:
            n_inst += 1
            if tbase <= addr < tend:
                n_tcm += 1
                continue
            n_store += 1
            line = addr >> LINE_SHIFT
            set1 = s1[line & m1]
            if line in set1:
                set1.move_to_end(line)
                set1[line] = True
                h1 += 1
                n_store_hit += 1
                continue
            # ------------- store miss: write-allocate (RFO), then dirty
            mis1 += 1
            if l2 is not None:
                n_l2 += 1
                set2 = s2[line & m2]
                if line in set2:
                    set2.move_to_end(line)
                    h2 += 1
                    l2_hits += 1
                else:
                    mis2 += 1
                    if l3 is None:
                        n_mem += 1
                    else:
                        n_l3 += 1
                        set3 = s3[line & m3]
                        if line in set3:
                            set3.move_to_end(line)
                            h3 += 1
                            l3_hits += 1
                        else:
                            mis3 += 1
                            n_mem += 1
                            f3 += 1
                            if len(set3) >= a3:
                                v, vd = set3.popitem(last=False)
                                ev3 += 1
                                if vd:
                                    dev3 += 1
                                    n_wb += 1
                            else:
                                occ3 += 1
                            set3[line] = False
                    f2 += 1
                    if len(set2) >= a2:
                        v, vd = set2.popitem(last=False)
                        ev2 += 1
                        if vd:
                            dev2 += 1
                            n_wb += 1
                            if l3 is not None:
                                fill_l3(v, True)
                    else:
                        occ2 += 1
                    set2[line] = False
            else:
                n_mem += 1
            f1 += 1
            if len(set1) >= a1:
                v, vd = set1.popitem(last=False)
                ev1 += 1
                if vd:
                    dev1 += 1
                    n_wb += 1
                    if l2 is not None:
                        fill_l2(v, True)
                    elif l3 is not None:
                        fill_l3(v, True)
            else:
                occ1 += 1
            set1[line] = True

        c.cycles += n_inst * cpu.timing.store_issue
        c.n_store_inst += n_inst
        c.n_store += n_store
        c.n_store_l1d_hit += n_store_hit
        c.n_l2 += n_l2
        c.l2_hits += l2_hits
        c.n_l3 += n_l3
        c.l3_hits += l3_hits
        c.n_mem += n_mem
        c.n_tcm_store += n_tcm
        c.n_writeback += n_wb
        l1.bulk_account(hits=h1, misses=mis1, fills=f1, evictions=ev1,
                        dirty_evictions=dev1, occupancy=occ1)
        if l2 is not None:
            l2.bulk_account(hits=h2, misses=mis2, fills=f2,
                            evictions=ev2, dirty_evictions=dev2,
                            occupancy=occ2)
        if l3 is not None:
            l3.bulk_account(hits=h3, misses=mis3, fills=f3,
                            evictions=ev3, dirty_evictions=dev3,
                            occupancy=occ3)
