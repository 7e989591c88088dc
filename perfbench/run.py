"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload serve-points --seed 3 \\
        --seconds 12 --trace 0

Run from the repository root.  The program under test is imported from
``src/`` next to this directory; without it the run exits with code 2
and prints no result.

Every run first runs the workload's small shape once, unmeasured, at
the pinned seed: it loads and runs the code the rounds run, and its
fingerprint must equal the pinned one in ``perfbench/spec.json``.
``--trace 0`` then repeats rounds of the workload (set-up, then the
timed phase) until ``--seconds`` have passed and reports every
end-to-end metric of ``BENCHMARK.json``.  ``--trace 1`` runs one
untraced and one traced round at the seed, reports every per-layer
metric, and writes the span artifact to ``perfbench/out/``.  Either way every correctness check
runs; the last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = os.path.join(ROOT, "perfbench", "spec.json")
OUT_DIR = os.path.join(ROOT, "perfbench", "out")

#: Set-ups timed per run (``setup_s`` is their median): at least
#: MIN_SETUPS, and cheap ones repeated until SETUP_BUDGET_S is spent.
#: Set-ups beyond the measured rounds are built and dropped.
MIN_SETUPS = 3
SETUP_BUDGET_S = 1.0
MAX_SETUPS = 60


def _use_checkout_source() -> None:
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: program source not found under {src}",
              file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [src, ROOT]


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def percentile_ms(samples: list, q: int) -> float:
    """The ``q``-th percentile of ``samples`` (seconds) in ms."""
    cuts = statistics.quantiles(samples, n=100, method="inclusive")
    return 1e3 * cuts[q - 1]


def _timed(fn) -> tuple:
    t0 = time.perf_counter()
    result = fn()
    return result, (t0, time.perf_counter())


def verdict(small, rounds: list, seed: int, pinned: dict) -> tuple:
    """``(failed, problems)`` over the rounds of one run.

    The small shape at the pinned seed (``small``) must give the pinned
    small hash, the rounds must share one fingerprint, and at the pinned
    seed that must equal the pinned full hash; any mismatch fails every
    operation of the run."""
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    problems = [f"check failed: {name}" for r in [small, *rounds]
                for name, ok in r.checks.items() if not ok]
    if small.failed:
        failed = attempted
    prints = {r.fingerprint for r in rounds}
    mismatches = []
    if small.fingerprint != pinned["small"]:
        mismatches.append(f"small-shape fingerprint {small.fingerprint} "
                          f"!= pinned {pinned['small']}")
    if len(prints) != 1:
        mismatches.append(f"rounds disagree: {len(prints)} fingerprints")
    elif seed == pinned["seed"] and prints != {pinned["full"]}:
        mismatches.append(f"fingerprint {prints.pop()} != pinned "
                          f"{pinned['full']} at seed {seed}")
    if mismatches:
        failed = attempted
    return failed, sorted(set(problems)) + mismatches


def measure(prepare, seed: int, seconds: float) -> tuple:
    """Untraced rounds until ``seconds`` pass; returns the rounds and
    the ``(start, end)`` stamps of every set-up."""
    rounds, setups = [], []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        run, window = _timed(lambda: prepare(seed))
        setups.append(window)
        rounds.append(run())
        # Machines hold reference cycles: free each round's before the
        # next, so peak memory does not depend on the round count.
        del run
        gc.collect()
    spent = 0.0
    while len(setups) < MIN_SETUPS or (spent < SETUP_BUDGET_S
                                       and len(setups) < MAX_SETUPS):
        gc.collect()
        _, window = _timed(lambda: prepare(seed))
        setups.append(window)
        spent += window[1] - window[0]
    return rounds, setups


def end_to_end(clock, rounds: list, setups: list) -> dict:
    """Every end-to-end metric, in reference-host seconds."""
    walls = [clock.seconds(*r.window) for r in rounds]
    op_s = [clock.seconds(a, b) / n for r in rounds for a, b, n in r.op_spans]
    return {
        "wall_s": statistics.median(walls),
        "ops_per_s": (sum(r.ops for r in rounds)
                      / sum(clock.seconds(*r.ops_window) for r in rounds)),
        "sim_minstr_per_s": (sum(r.instructions for r in rounds)
                             / sum(walls) / 1e6),
        "setup_s": statistics.median(clock.seconds(*w) for w in setups),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "op_ms_p50": percentile_ms(op_s, 50),
        "op_ms_p80": percentile_ms(op_s, 80),
    }


def per_layer(rec, traced, base, clock) -> dict:
    """Per-layer metrics of one traced round (``traced``), with the
    untraced round at the same seed (``base``) for the overhead.  Span
    times run on the probe-free clock and are scaled to the reference
    host by the traced round's speed."""
    stats = rec.stats
    kv_names = ("kv.get", "kv.put", "kv.scan", "kv.flush", "kv.compact")
    puts = rec.calls("kv.put")
    compacted = sum(store.stats.entries_compacted
                    for store in rec.stores.values())
    roots = ("setup", "timed")
    exec_accesses = rec.units("sim.exec")
    op_calls = rec.calls("sim.op")
    rows = rec.units("db.exec")
    metrics = {
        "sim.exec.self_s": rec.self_s("sim.exec"),
        "sim.exec.calls": rec.calls("sim.exec"),
        "sim.exec.accesses": exec_accesses,
        "sim.exec.ns_per_access": (1e9 * rec.self_s("sim.exec")
                                   / exec_accesses if exec_accesses else 0.0),
        "sim.op.self_s": rec.self_s("sim.op"),
        "sim.op.calls": op_calls,
        "sim.op.ns_per_op": (1e9 * rec.self_s("sim.op") / op_calls
                             if op_calls else 0.0),
        "sim.cores.switch_s": rec.total_s("sim.cores.switch"),
        "sim.cores.switches": rec.calls("sim.cores.switch"),
        "sim.settle_s": rec.total_s("sim.settle"),
        "sim.settles": rec.calls("sim.settle"),
        "db.exec.self_s": rec.self_s("db.exec"),
        "db.rows": rows,
        "db.us_per_row": 1e6 * rec.self_s("db.exec") / rows if rows else 0.0,
        "db.btree.self_s": rec.self_s("db.btree"),
        "db.btree.calls": rec.calls("db.btree"),
        "kv.self_s": rec.self_s(*kv_names),
        "kv.gets": rec.calls("kv.get"),
        "kv.puts": puts,
        "kv.flushes": sum(s.stats.flushes for s in rec.stores.values()),
        "kv.compactions": sum(s.stats.compactions
                              for s in rec.stores.values()),
        "kv.compact_s": rec.total_s("kv.compact"),
        "kv.write_amp": (puts + compacted) / puts if puts else 0.0,
        "tpch.datagen_s": rec.total_s("tpch.datagen"),
        "tpch.load_s": rec.total_s("tpch.load"),
        "micro.calibrate_s": rec.total_s("micro.calibrate"),
        "micro.verify_s": rec.total_s("micro.verify"),
        "core.profile.self_s": rec.self_s("core.profile"),
        "serve.loop.self_s": rec.self_s("serve.loop"),
        "serve.work.self_s": rec.self_s("serve.work"),
        "serve.report_s": rec.total_s("serve.report"),
        "cluster.self_s": rec.self_s("cluster"),
        "cluster.report_s": rec.total_s("cluster.report"),
        "obs.self_s": rec.self_s("obs.enter", "obs.exit"),
        "obs.spans": rec.calls("obs.enter"),
        "trace.overhead_pct": 100.0 * (clock.seconds(*traced.window)
                                       / clock.seconds(*base.window) - 1.0),
        # The timed phase's own self time is what no layer span covers.
        "trace.residual_pct": (100.0 * rec.self_s("timed")
                               / rec.total_s("timed")),
    }
    for name in ("serve.quanta", "serve.retries", "serve.failed",
                 "serve.rejected", "serve.latency_ms_p50",
                 "serve.latency_ms_p99", "serve.useful_share",
                 "cluster.subrequests", "cluster.failovers",
                 "cluster.timeouts", "cluster.hedges", "cluster.degraded",
                 "cluster.useful_share", "paper.vmbs_accuracy_pct",
                 "paper.l1d_share_err_pp"):
        metrics[name] = traced.sim.get(name, 0)
    metrics.update({k: v for k, v in traced.sim.items()
                    if k.startswith(("sim.", "db.pool"))})
    scale = clock.speed(*traced.window)
    for name in metrics:
        if name.endswith(("_s", ".ns_per_access", ".ns_per_op",
                          ".us_per_row")):
            metrics[name] *= scale
    unknown = sorted(set(stats) - {
        "sim.exec", "sim.op", "sim.cores.switch", "sim.settle", "db.exec",
        "db.btree", *kv_names, "tpch.datagen", "tpch.load",
        "micro.calibrate", "micro.verify", "core.profile", "serve.loop",
        "serve.work", "serve.report", "cluster", "cluster.report",
        "obs.enter", "obs.exit", *roots})
    if unknown:
        raise RuntimeError(f"spans without a layer metric: {unknown}")
    return metrics


def trace_run(clock, prepare, workload: str, seed: int) -> tuple:
    """One untraced and one traced round; writes the span artifact."""
    from perfbench.trace import SpanRecorder

    base = prepare(seed)()
    rec = SpanRecorder(clock=clock.probe_free)
    with rec.installed():
        traced = prepare(seed, spans=rec)()
    rounds = [base, traced]
    metrics = per_layer(rec, traced, base, clock)
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{workload}-seed{seed}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({
            "workload": workload,
            "seed": seed,
            "time_unit": "probe-free host seconds (not rescaled)",
            "host_speed": clock.speed(*traced.window),
            "wall_s": clock.raw(*traced.window),
            "untraced_wall_s": clock.raw(*base.window),
            "trace.overhead_pct": metrics["trace.overhead_pct"],
            "trace.residual_pct": metrics["trace.residual_pct"],
            "layers_by_phase": rec.phases(),
            "spans_fields": ["name", "start_s", "end_s", "parent"],
            "spans": rec.records,
            "spans_not_kept": rec.dropped,
        }, handle)
    print(f"trace artifact: {os.path.relpath(path, ROOT)}")
    return rounds, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _use_checkout_source()
    from perfbench.hostclock import HostClock
    from perfbench.workloads import WORKLOADS

    bench = _load(os.path.join(ROOT, "BENCHMARK.json"))
    spec = _load(SPEC)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"known: {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]

    def prepare(seed, spans=None):
        return workload(seed, spans=spans)

    pinned = spec["pinned"][args.workload]
    small = workload(pinned["seed"], small=True)()
    gc.collect()
    with HostClock() as clock:
        if args.trace:
            rounds, values = trace_run(clock, prepare, args.workload,
                                       args.seed)
            wanted = bench["per_layer"]
        else:
            rounds, setups = measure(prepare, args.seed, args.seconds)
            values = end_to_end(clock, rounds, setups)
            wanted = bench["end_to_end"]
        speed = clock.speed(rounds[0].window[0], rounds[-1].window[1])
    failed, problems = verdict(small, rounds, args.seed, pinned)
    metrics = {}
    for entry in wanted:
        value = values[entry["name"]]
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"{entry['name']:<24} {value:>16.6g} {entry['unit']}")
    print(f"rounds {len(rounds)}  host speed {speed:.3f} reference s per "
          f"host s  fingerprint {rounds[0].fingerprint}")
    for problem in problems:
        print(problem)
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
