"""Property-style equivalence: ``batched`` must match ``reference`` exactly.

The batched executor's contract (repro.sim.batch) is bit-identical
PMU counters, RAPL joules, wall-clock, and cache/LRU state.  These
tests run randomly generated workload mixes — sequential scans
(including exact rescans, which exercise the scan-replay memo),
cache-thrashing scans, multi-word accesses, strided runs, pointer
chases, stores, TCM accesses and boundary straddles, prefetcher
on/off, and EIST on — through both executors and require exact
equality, floats included.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import tiny_arm, tiny_intel
from repro.sim.address_space import Region
from repro.sim.machine import Machine

PRESETS = {"intel": tiny_intel, "arm": tiny_arm}


def _random_program(rng: random.Random, tcm_base, tcm_size) -> list:
    """A list of (op, *args) tuples over two regions: a small buffer
    that fits in L1 and a large one that thrashes every level."""
    ops = []
    last_scan = None
    for _ in range(rng.randrange(150, 250)):
        kind = rng.randrange(14)
        if kind == 0 and last_scan is not None and rng.random() < 0.8:
            ops.append(last_scan)  # exact rescan: the memo path
        elif kind <= 2:
            region = rng.choice(("small", "big"))
            start = rng.randrange(8)
            n = rng.randrange(1, 12 if region == "small" else 600)
            last_scan = ("scan", region, start, n, rng.choice((1, 1, 3)))
            ops.append(last_scan)
        elif kind == 3:
            ops.append(("load", rng.choice(("small", "big")),
                        rng.randrange(4096), rng.random() < 0.5))
        elif kind == 4:
            ops.append(("store", rng.choice(("small", "big")),
                        rng.randrange(4096)))
        elif kind == 5:
            ops.append(("load_bytes", rng.choice(("small", "big")),
                        rng.randrange(512), rng.randrange(1, 300),
                        rng.random() < 0.5))
        elif kind == 6:
            ops.append(("store_bytes", rng.choice(("small", "big")),
                        rng.randrange(512), rng.randrange(1, 200)))
        elif kind == 7:
            offs = sorted(rng.sample(range(0, 4096, 8),
                                     rng.randrange(1, 10)))
            ops.append(("load_run", rng.choice(("small", "big")),
                        tuple(offs), rng.random() < 0.5))
        elif kind == 8:
            addrs = [rng.randrange(0, 1 << 16) & ~7 for _ in
                     range(rng.randrange(1, 12))]
            ops.append(("load_list", "big", tuple(addrs),
                        rng.random() < 0.5))
        elif kind == 9:
            if rng.random() < 0.5:
                ops.append(("store_repeat", rng.choice(("small", "big")),
                            rng.randrange(256) & ~7, rng.randrange(1, 40)))
            else:
                region = rng.choice(("small", "big"))
                n_lines = 16 if region == "small" else rng.randrange(8, 512)
                ops.append(("load_ring", region, rng.randrange(n_lines),
                            rng.randrange(0, 2 * n_lines),
                            rng.randrange(1, 200), n_lines,
                            rng.random() < 0.5))
        elif kind == 10:
            ops.append(("hot", rng.randrange(256), rng.randrange(1, 50)))
        elif kind == 11:
            ops.append(("pf", rng.random() < 0.5))
        elif kind == 12:
            ops.append(("settle",))
        elif kind == 13 and tcm_base is not None:
            # TCM interior plus boundary-straddling runs.
            if rng.random() < 0.5:
                ops.append(("tcm_run",
                            rng.randrange(0, max(8, tcm_size - 64), 8),
                            rng.randrange(1, 8), rng.random() < 0.5))
            else:
                ops.append(("straddle", rng.randrange(1, 6),
                            rng.random() < 0.5))
    return ops


def _execute(preset: str, mode: str, program: list, eist: bool):
    machine = Machine(PRESETS[preset](), exec_mode=mode)
    small = machine.address_space.alloc_lines(16, "small")
    big = machine.address_space.alloc_lines(4096, "big")
    base = {"small": small.base, "big": big.base}
    tcm = machine.hierarchy.tcm_region
    if eist:
        machine.enable_eist()
    ex = machine.exec
    for op in program:
        kind = op[0]
        if kind == "scan":
            _, region, start, n, lpl = op
            machine.scan_lines(base[region] + start * 64, n, lpl)
        elif kind == "load":
            machine.load(base[op[1]] + op[2], op[3])
        elif kind == "store":
            machine.store(base[op[1]] + op[2])
        elif kind == "load_bytes":
            machine.load_bytes(base[op[1]] + op[2], op[3], op[4])
        elif kind == "store_bytes":
            machine.store_bytes(base[op[1]] + op[2], op[3])
        elif kind == "load_run":
            ex.load_run(base[op[1]], op[2], op[3])
        elif kind == "load_list":
            ex.load_list([base[op[1]] + a for a in op[2]], op[3])
        elif kind == "store_repeat":
            ex.store_repeat(base[op[1]] + op[2], op[3])
        elif kind == "load_ring":
            _, region, cursor, stride, count, n_lines, dep = op
            ex.load_ring(base[region], cursor, stride, count, n_lines, dep)
        elif kind == "hot":
            machine.hot_loads(small.base + op[1], op[2])
            machine.hot_stores(small.base + op[1], op[2])
        elif kind == "pf":
            machine.set_prefetcher(op[1])
        elif kind == "settle":
            machine.settle()
            machine.governor_tick()
        elif kind == "tcm_run":
            ex.load_run(tcm.base + op[1], tuple(range(0, op[2] * 8, 8)),
                        op[3])
        elif kind == "straddle":
            # A run crossing the TCM lower boundary: per-op fallback.
            n_words = op[1]
            ex.load_run(tcm.base - 8 * 2,
                        tuple(range(0, (n_words + 2) * 8, 8)), op[2])
    machine.settle()
    return machine


def _state(machine: Machine) -> dict:
    rapl = machine.rapl
    state = {
        "counters": machine.cpu.counters.as_dict(),
        "core_j": rapl.energy_core(),
        "package_j": rapl.energy_package(),
        "dram_j": rapl.energy_dram(),
        "time_s": machine.time_s,
        "busy_s": machine.busy_s,
        "pstate": machine.pstate,
    }
    for level in (machine.hierarchy.l1d, machine.hierarchy.l2,
                  machine.hierarchy.l3):
        if level is None:
            continue
        state[level.name] = (
            level.hits, level.misses, level.fills, level.evictions,
            level.dirty_evictions, level.occupancy,
            tuple(tuple(s.items()) for s in level._sets),
        )
    pf = machine.hierarchy.prefetcher
    state["prefetcher"] = (
        pf.n_trained, pf.n_pf_l2_issued, pf.n_pf_l3_issued, pf._victim,
        tuple((s.last_line, s.run_length, s.l2_up_to, s.prefetched_up_to)
              for s in pf._streams),
    )
    return state


@pytest.mark.parametrize("preset", ("intel", "arm"))
@pytest.mark.parametrize("seed", range(5))
def test_random_mix_equivalence(preset, seed):
    machine = Machine(PRESETS[preset]())
    tcm = machine.hierarchy.tcm_region
    rng = random.Random((hash(preset) ^ seed) & 0xFFFFFFFF)
    program = _random_program(
        rng,
        tcm.base if tcm is not None else None,
        tcm.size if tcm is not None else 0,
    )
    ref = _state(_execute(preset, "reference", program, eist=False))
    bat = _state(_execute(preset, "batched", program, eist=False))
    assert ref == bat


@pytest.mark.parametrize("preset", ("intel", "arm"))
def test_random_mix_equivalence_with_eist(preset):
    machine = Machine(PRESETS[preset]())
    tcm = machine.hierarchy.tcm_region
    rng = random.Random(99)
    program = _random_program(
        rng,
        tcm.base if tcm is not None else None,
        tcm.size if tcm is not None else 0,
    )
    ref = _state(_execute(preset, "reference", program, eist=True))
    bat = _state(_execute(preset, "batched", program, eist=True))
    assert ref == bat


def test_scan_memo_invalidated_by_per_op_access():
    """A direct machine.load between identical scans must not let the
    replay memo serve stale hits."""
    program = [("scan", "small", 0, 8, 1)] * 3 + [
        ("store", "small", 64),
        ("scan", "small", 0, 8, 1),
        ("load", "small", 256, True),
        ("scan", "small", 0, 8, 1),
    ]
    ref = _state(_execute("intel", "reference", program, eist=False))
    bat = _state(_execute("intel", "batched", program, eist=False))
    assert ref == bat


def _run_scenario(mode: str, body) -> Machine:
    machine = Machine(tiny_intel(), exec_mode=mode)
    body(machine)
    machine.settle()
    return machine


def _assert_modes_agree(body):
    ref = _state(_run_scenario("reference", body))
    bat = _state(_run_scenario("batched", body))
    assert ref == bat


def test_cold_stream_scan_equivalence():
    """A scan twice the size of L3, run twice: the cold-stream fast
    path (checked warmup, unchecked middle segment, junk-laden tail on
    the second pass) must match the reference bit for bit — counters,
    energy, LRU order, and prefetcher stream state."""
    def body(machine):
        n_lines = machine.hierarchy.l3.size * 2 // 64
        buf = machine.address_space.alloc_lines(n_lines, "cold")
        for _ in range(2):
            machine.scan_lines(buf.base, n_lines)
    _assert_modes_agree(body)


def test_cold_scan_overlapping_tcm_region():
    """A TCM window inside the scanned range disqualifies the stride
    fast path; the generic walk must produce identical state."""
    def body(machine):
        n_lines = machine.hierarchy.l3.size // 64
        buf = machine.address_space.alloc_lines(n_lines, "cold")
        machine.hierarchy.tcm_region = Region(
            base=buf.base + (n_lines // 2) * 64, size=16 * 64, label="tcm")
        machine.scan_lines(buf.base, n_lines)
        machine.scan_lines(buf.base, n_lines)
    _assert_modes_agree(body)


def test_cold_scan_through_dirty_cache_state():
    """Store-dirtied lines ahead of a cold scan force dirty-victim
    writeback cascades inside the stride (and block the unchecked
    segment's clean-victim proof); every cascade must match."""
    def body(machine):
        n_lines = machine.hierarchy.l3.size * 2 // 64
        buf = machine.address_space.alloc_lines(n_lines, "cold")
        # Dirty a swath of lines across all three levels...
        for i in range(0, n_lines, 3):
            machine.store(buf.base + i * 64)
        # ...then cold-scan the whole range over them, twice.
        machine.scan_lines(buf.base, n_lines)
        machine.scan_lines(buf.base, n_lines)
    _assert_modes_agree(body)


def test_interleaved_streams_clip_the_stride():
    """Two sequential scans advancing in alternating chunks keep two
    trackers live; stride clipping at foreign-tracker positions must
    not drift from the reference."""
    def body(machine):
        n_lines = machine.hierarchy.l3.size // 64
        a = machine.address_space.alloc_lines(n_lines, "a")
        b = machine.address_space.alloc_lines(n_lines, "b")
        chunk = 64
        for i in range(0, n_lines, chunk):
            machine.scan_lines(a.base + i * 64, chunk)
            machine.scan_lines(b.base + i * 64, chunk)
    _assert_modes_agree(body)


def test_flush_mid_run_invalidates_fast_path_state():
    """satellite: a mid-run MemoryHierarchy.flush() bumps mut_epoch;
    both the scan-replay memo and the stride fast path must start cold
    again instead of replaying stale state."""
    def body(machine):
        l1_lines = machine.hierarchy.l1d.size // 64
        small = machine.address_space.alloc_lines(l1_lines, "small")
        big = machine.address_space.alloc_lines(
            machine.hierarchy.l3.size * 2 // 64, "big")
        n_big = machine.hierarchy.l3.size * 2 // 64
        machine.scan_lines(small.base, l1_lines)
        machine.scan_lines(small.base, l1_lines)   # memoised replay
        machine.scan_lines(big.base, n_big)        # trained fast path
        machine.hierarchy.flush()                  # cold start mid-run
        misses_before = machine.hierarchy.l1d.misses
        machine.scan_lines(small.base, l1_lines)   # must miss again
        assert machine.hierarchy.l1d.misses - misses_before == l1_lines
        machine.scan_lines(big.base, n_big)
    _assert_modes_agree(body)


def test_load_ring_fold_after_warm_rotation():
    """An L1-resident ring walked for many rotations: the batched
    executor folds everything after the first all-hit rotation into
    bulk accounting, which must stay bit-identical — including the
    returned cursor used to chain further walks."""
    def body(machine):
        ring = machine.address_space.alloc_lines(24, "ring")
        cursor = 0
        for count in (24, 240, 7, 2401):
            cursor = machine.exec.load_ring(ring.base, cursor, 7, count, 24)
    _assert_modes_agree(body)


def test_load_ring_miss_recovery_and_gcd_strides():
    """Rings bigger than L1 (every rotation misses), strides sharing a
    factor with the ring (short sub-cycles), stride 0, and stride
    multiples of the ring size must all match per-op execution."""
    def body(machine):
        big = machine.address_space.alloc_lines(512, "big-ring")
        ex = machine.exec
        cursor = 0
        for stride in (97, 8, 64, 512, 0, 1):
            cursor = ex.load_ring(big.base, cursor, stride, 300, 512)
    _assert_modes_agree(body)


def test_load_ring_interrupted_by_evictions():
    """Evicting the ring's lines between (and is followed by) walks
    forces the batched path off the fold and through the generic walk
    mid-rotation."""
    def body(machine):
        ring = machine.address_space.alloc_lines(24, "ring")
        thrash = machine.address_space.alloc_lines(
            machine.hierarchy.l3.size // 64, "thrash")
        cursor = 0
        cursor = machine.exec.load_ring(ring.base, cursor, 7, 120, 24)
        machine.scan_lines(thrash.base, thrash.n_lines)  # evict the ring
        cursor = machine.exec.load_ring(ring.base, cursor, 7, 120, 24)
        for i in range(0, 24, 5):
            machine.store(ring.base + i * 64)  # dirty a few ring lines
        machine.exec.load_ring(ring.base, cursor, 7, 120, 24)
    _assert_modes_agree(body)


def test_load_ring_dependent_and_tcm_overlap():
    """Dependent pricing applies to every ring load; a ring overlapping
    the TCM window must take the exact per-address fallback."""
    def body(machine):
        ring = machine.address_space.alloc_lines(32, "ring")
        machine.exec.load_ring(ring.base, 0, 7, 100, 32, dependent=True)
        tcm = machine.hierarchy.tcm_region
        if tcm is None:
            machine.hierarchy.tcm_region = Region(
                base=ring.base + 8 * 64, size=4 * 64, label="tcm")
        else:
            machine.hierarchy.tcm_region = Region(
                base=ring.base + 8 * 64, size=4 * 64, label=tcm.label)
        machine.exec.load_ring(ring.base, 0, 7, 100, 32)
        machine.exec.load_ring(ring.base, 3, 5, 64, 32, dependent=True)
    _assert_modes_agree(body)


def test_load_ring_cursor_matches_reference():
    """Both executors must report the same final cursor for the same
    walk (the fold must not desynchronise the cursor)."""
    for stride, count, n_lines in ((7, 2401, 24), (97, 300, 512),
                                   (6, 100, 24), (0, 10, 16)):
        cursors = {}
        for mode in ("reference", "batched"):
            machine = Machine(tiny_intel(), exec_mode=mode)
            ring = machine.address_space.alloc_lines(n_lines, "ring")
            cursors[mode] = machine.exec.load_ring(
                ring.base, 1, stride, count, n_lines)
        assert cursors["reference"] == cursors["batched"]


def test_exec_mode_knob():
    machine = Machine(tiny_intel(), exec_mode="reference")
    assert machine.exec_mode == "reference"
    machine.set_exec_mode("batched")
    assert machine.exec.mode == "batched"
    with pytest.raises(Exception):
        machine.set_exec_mode("warp")


# ---------------------------------------------------------------- ring walk
#
# Targeted cases for the batched ring walk (BatchExecutor._ring_fast and
# its verified walk _ring_steady): each scenario runs in both modes, must
# leave identical counters, per-set LRU order and prefetcher state, and
# must provably take the route it is named after (the batched
# executor's ExecStats say which route each probe took).


def _ring_modes(body):
    """Run ``body(machine)`` in both modes; assert identical state and
    return the batched executor's ring statistics."""
    ref = _run_scenario("reference", body)
    bat = _run_scenario("batched", body)
    assert _state(ref) == _state(bat)
    return bat.exec.stats


def _train_trackers(machine):
    """Occupy every prefetcher slot with a one-line (untrained) stream:
    scattered misses far away from any ring, so the verified walk is
    not refused for idle tracker slots."""
    far = machine.address_space.alloc_lines(64, "far")
    for i in range(machine.hierarchy.prefetcher.n_streams):
        machine.load(far.base + 7 * i * 64)


def test_ring_l2_resident_context_switch_shape():
    """A ring that fits L2 but not L1D, walked 32 probes at a time (the
    CoreSet.context_switch cold walk): every probe misses L1D and hits
    L2, and the verified walk takes them."""
    seen = {}

    def body(machine):
        _train_trackers(machine)
        ring = machine.address_space.alloc_lines(128, "cold")
        cursor = machine.exec.load_ring(ring.base, 0, 7, 128, 128)
        c = machine.cpu.counters
        l2_hits = c.l2_hits
        for _ in range(12):
            cursor = machine.exec.load_ring(ring.base, cursor, 7, 32, 128)
        seen[machine.exec.mode] = c.l2_hits - l2_hits

    stats = _ring_modes(body)
    assert seen["reference"] == 12 * 32
    assert (stats.ring_verified, stats.ring_generic,
            stats.ring_folded) == (128 + 12 * 32, 0, 0)


def test_ring_first_rotation_mixes_l3_hits_and_memory_misses():
    seen = {}

    def body(machine):
        _train_trackers(machine)
        ring = machine.address_space.alloc_lines(24, "ring")
        for i in range(0, 24, 2):
            machine.load(ring.base + i * 64)          # L3-resident half
        flush = machine.address_space.alloc_lines(
            machine.hierarchy.l2.size // 64 * 2, "l2-thrash")
        machine.scan_lines(flush.base, flush.n_lines)  # push it out of L2
        c = machine.cpu.counters
        before = (c.l3_hits, c.n_mem)
        machine.exec.load_ring(ring.base, 0, 5, 24, 24)
        seen[machine.exec.mode] = (c.l3_hits - before[0],
                                   c.n_mem - before[1])

    stats = _ring_modes(body)
    assert seen["reference"] == (12, 12)
    assert stats.ring_verified == 24


def test_ring_fits_l1d_folds_right_after_a_miss_rotation():
    """An L1D-fitting ring folds after its first rotation even though
    that rotation missed on every probe; a trailing partial rotation
    is folded too."""
    def body(machine):
        _train_trackers(machine)
        ring = machine.address_space.alloc_lines(24, "ring")
        cursor = machine.exec.load_ring(ring.base, 0, 7, 5 * 24 + 8, 24)
        if machine.exec.mode == "batched":
            stats = machine.exec.stats
            assert (stats.ring_verified, stats.ring_generic,
                    stats.ring_folded) == (24, 0, 4 * 24 + 8)
        # Resident from the start: one generic run of L1D hits, then
        # the fold.
        machine.exec.load_ring(ring.base, cursor, 7, 100, 24)

    stats = _ring_modes(body)
    assert (stats.ring_verified, stats.ring_generic,
            stats.ring_folded) == (24, 24, 4 * 24 + 8 + 76)
    assert stats.bail_l1d_hit == 1


def test_ring_overfilling_an_l1d_set_must_not_fold():
    """33 lines over 4 L1D sets of 8 ways: one set holds 9 ring lines,
    so that set keeps missing while the others hit — no fold, and the
    walk resumes behind every L1D hit it refuses."""
    def body(machine):
        assert machine.hierarchy.l1d.n_sets * machine.hierarchy.l1d.assoc < 33
        _train_trackers(machine)
        ring = machine.address_space.alloc_lines(33, "ring")
        machine.exec.load_ring(ring.base, 0, 5, 4 * 33, 33)

    stats = _ring_modes(body)
    assert stats.ring_folded == 0
    assert stats.bail_l1d_hit > 0
    assert stats.ring_verified > 33


def test_ring_clips_at_a_tracker_mid_segment():
    """A trained stream ending just below the ring: the probe of the
    ring's first line extends it (and prefetches), so the verified walk
    clips there, runs that probe's prefetcher step exactly, and
    resumes behind it."""
    issued = {}

    def body(machine):
        _train_trackers(machine)
        ring = machine.address_space.alloc_lines(24, "ring")
        machine.load(ring.base - 2 * 64)
        machine.load(ring.base - 64)                   # trains the stream
        pf = machine.hierarchy.prefetcher
        before = pf.n_pf_l2_issued
        # From cursor 12 with stride 7, position 0 is the 12th probe.
        machine.exec.load_ring(ring.base, 12, 7, 24, 24)
        issued[machine.exec.mode] = pf.n_pf_l2_issued - before

    stats = _ring_modes(body)
    assert issued["reference"] > 0
    assert stats.bail_clip >= 1
    assert (stats.ring_verified, stats.ring_generic) == (24, 0)


def test_ring_clip_sees_a_duplicated_tracker_line():
    """Two tracker slots can hold the same line (one extended into the
    line the other restarted on).  The walk overwrites the restart
    slot's copy from its second probe on, but the other copy still
    matches the next ring line, so the walk must clip there."""
    def body(machine):
        _train_trackers(machine)
        ring = machine.address_space.alloc_lines(24, "ring")
        pf = machine.hierarchy.prefetcher
        s = pf._run.index(1)
        other = (s + 1) % pf.n_streams
        line = (ring.base >> 6) + 3
        pf._last[s] = pf._last[other] = line
        # From cursor 0 with stride 5 the ring reaches position 4 (the
        # line after the duplicated one) on the 20th probe.
        machine.exec.load_ring(ring.base, 0, 5, 24, 24)

    stats = _ring_modes(body)
    assert stats.bail_clip >= 1
    assert stats.ring_verified == 24


def test_ring_non_dyadic_cycles_fall_back():
    def body(machine):
        _train_trackers(machine)
        ring = machine.address_space.alloc_lines(40, "ring")
        machine.cpu.counters.cycles += 1.0 / 3.0
        machine.exec.load_ring(ring.base, 0, 7, 40, 40)

    stats = _ring_modes(body)
    assert stats.bail_non_dyadic >= 1
    assert stats.ring_generic == 40
    assert stats.ring_verified == 0


def test_ring_dirty_victims_at_every_level():
    """Dirty lines fill L1D, L2 and L3 before a ring that misses to
    memory: the verified walk's fills evict dirty victims at all three
    levels, which must cascade exactly as in the reference."""
    before = {}

    def body(machine):
        hier = machine.hierarchy
        dirty = machine.address_space.alloc_lines(
            2 * hier.l3.size // 64, "dirty")
        for i in range(dirty.n_lines):
            machine.store(dirty.base + i * 64)
        _train_trackers(machine)
        ring = machine.address_space.alloc_lines(600, "ring")
        before[machine.exec.mode] = [
            lvl.dirty_evictions for lvl in (hier.l1d, hier.l2, hier.l3)]
        machine.exec.load_ring(ring.base, 0, 7, 600, 600)
        for i, lvl in enumerate((hier.l1d, hier.l2, hier.l3)):
            assert lvl.dirty_evictions > before[machine.exec.mode][i]

    stats = _ring_modes(body)
    assert stats.ring_verified == 600


_RING_OPS = st.one_of(
    st.tuples(st.just("scan"), st.integers(0, 700), st.integers(1, 300)),
    st.tuples(st.just("store"), st.integers(0, 1000)),
    st.tuples(st.just("load"), st.integers(0, 1000), st.booleans()),
    st.tuples(st.just("seq"), st.integers(0, 1000), st.integers(2, 6)),
)


@settings(max_examples=40, deadline=None)
@given(
    n_lines=st.integers(1, 300),
    stride=st.integers(0, 600),
    cursor=st.integers(0, 299),
    warmup=st.lists(_RING_OPS, max_size=12),
    calls=st.lists(
        st.tuples(st.integers(1, 700), st.booleans(),
                  st.lists(_RING_OPS, max_size=3)),
        min_size=1, max_size=4),
)
def test_load_ring_lockstep_property(n_lines, stride, cursor, warmup, calls):
    """Random ring geometry after a random warm-up of scans, stores
    (dirty lines), loads and short sequential runs (trained trackers):
    both executors, driven in lockstep, agree on the full machine state
    and on the returned cursor after every load_ring call."""
    machines = [Machine(tiny_intel(), exec_mode=mode)
                for mode in ("reference", "batched")]
    regions = [m.address_space.alloc_lines(1024, "space")
               for m in machines]
    ring_at = 300  # the ring sits inside the region, ops reach around it

    def apply(m, region, op):
        kind = op[0]
        if kind == "scan":
            m.scan_lines(region.base + op[1] * 64, op[2])
        elif kind == "store":
            m.store(region.base + op[1] * 64)
        elif kind == "load":
            m.load(region.base + op[1] * 64, op[2])
        else:
            for i in range(op[2]):
                m.load(region.base + (op[1] + i) * 64)

    for op in warmup:
        for m, region in zip(machines, regions):
            apply(m, region, op)
    cursors = [cursor % n_lines] * 2
    for count, dependent, between in calls:
        for k, (m, region) in enumerate(zip(machines, regions)):
            cursors[k] = m.exec.load_ring(
                region.base + ring_at * 64, cursors[k], stride, count,
                n_lines, dependent)
        assert cursors[0] == cursors[1]
        assert _state(machines[0]) == _state(machines[1])
        for op in between:
            for m, region in zip(machines, regions):
                apply(m, region, op)
