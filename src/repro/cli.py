"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``calibrate`` — run MBS, print Tables 1-3 for the chosen machine;
* ``profile``   — break one TPC-H query (or all) down on one engine;
* ``sql``       — execute a SQL statement and show its energy breakdown;
* ``trace``     — execute a SQL statement under the span tracer and
  export the per-operator energy trace (JSONL / Chrome / flamegraph);
* ``experiment``— regenerate one paper table/figure by id;
* ``poc``       — run the §4 DTCM proof-of-concept (Figure 13);
* ``serve``     — run the concurrent query-serving simulation and
  emit its JSON report (policies, admission control, tenants); with
  ``--cluster``, a sharded scatter-gather cluster of N nodes behind a
  simulated network;
* ``chaos``     — a serve run under deterministic fault injection,
  with retries/deadlines/circuit-breaker resilience and a report that
  splits Active energy into useful vs wasted joules; the ``node`` and
  ``partition`` scenarios run cluster-mode chaos (crashes, stragglers,
  partitions, drops) with failover and hedging;
* ``diff``      — load two run artifacts (bench/serve reports, trace
  JSONL) and print ranked Δ-energy attributions per operator,
  micro-op class, and cache level.

All commands accept ``--scale`` (cache divisor, default 16),
``--tier`` (data tier, default 100MB), ``--seed`` (the one root seed
every stochastic component derives from) and ``-v``/``-vv`` for
INFO/DEBUG logging; ``calibrate`` and ``profile`` also take ``--json``
for machine-readable output.  Errors raised by the toolkit exit with
status 2 and a one-line message, never a traceback.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from repro import Machine, __version__, intel_i7_4790
from repro.analysis import EXPERIMENTS, Lab, LabConfig
from repro.core import (
    calibrate,
    profile_workload,
    render_breakdown_bar,
    render_breakdown_rows,
    render_delta_e,
    render_microbench_behaviour,
    render_verification,
    verify,
)
from repro.db import Database, ENGINES, engine_profile
from repro.db.profiles import SETTINGS
from repro.errors import ReproError
from repro.logconfig import configure_logging
from repro.seeding import derive_seed
from repro.workloads.tpch import (
    ALL_QUERY_NUMBERS,
    TpchData,
    load_into,
    run_query,
)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scale", type=int, default=16,
                        help="cache scale divisor (1 = full i7-4790)")
    parser.add_argument("--tier", default="100MB",
                        choices=["10MB", "100MB", "500MB", "1GB"],
                        help="TPC-H data tier")
    parser.add_argument("--seed", type=int, default=0,
                        help="measurement-noise seed")
    parser.add_argument("--exec-mode", default="batched",
                        choices=["reference", "batched"],
                        help="simulator execution engine (batched is "
                             "bit-identical to the per-op reference path)")
    # SUPPRESS keeps the top-level -v value when the subcommand parses
    # without the flag (subparser defaults would otherwise reset it).
    parser.add_argument("-v", "--verbose", action="count",
                        default=argparse.SUPPRESS,
                        help="-v: INFO logging, -vv: DEBUG")


def _machine(args) -> Machine:
    return Machine(intel_i7_4790(scale=args.scale),
                   seed=derive_seed(args.seed, "machine-noise"),
                   exec_mode=getattr(args, "exec_mode", "batched"))


def _tpch_data(args) -> TpchData:
    """TPC-H data with the generator seed derived from ``--seed``.

    Every stochastic component reachable from the CLI hangs off the one
    ``--seed`` flag: measurement noise, datagen, and (for ``serve``)
    the arrival processes each get an independent derived stream.
    """
    return TpchData(args.tier, seed=derive_seed(args.seed, "tpch-datagen"))


def cmd_calibrate(args) -> int:
    machine = _machine(args)
    cal = calibrate(machine)
    report = verify(machine, cal.delta_e, background=cal.background)
    if args.json:
        print(json.dumps({
            "machine": machine.config.name,
            "pstate": cal.pstate,
            "delta_e_nj": cal.delta_e.nanojoules(),
            "verification": {
                "rows": [
                    {"name": row.name,
                     "measured_j": row.measured_j,
                     "estimated_j": row.estimated_j,
                     "accuracy_pct": row.accuracy_pct}
                    for row in report.rows
                ],
                "average_accuracy_pct": report.average_accuracy_pct,
            },
        }, indent=2, sort_keys=True))
        return 0
    print(f"machine: {machine.config.name}")
    print(render_microbench_behaviour(cal.results))
    print()
    print(render_delta_e({cal.pstate: cal.delta_e.nanojoules()}))
    print()
    print(render_verification(report))
    return 0


def _export_trace(trace, out_dir: pathlib.Path, stem: str, title: str) -> list:
    """Write the three export formats for one trace; returns the paths."""
    from repro.obs import write_chrome_trace, write_flamegraph, write_jsonl

    out_dir.mkdir(parents=True, exist_ok=True)
    paths = [out_dir / f"{stem}.jsonl",
             out_dir / f"{stem}.chrome.json",
             out_dir / f"{stem}.svg"]
    write_jsonl(trace, paths[0])
    write_chrome_trace(trace, paths[1])
    write_flamegraph(trace, paths[2], title=title)
    return paths


def cmd_profile(args) -> int:
    from repro.obs import Tracer

    machine = _machine(args)
    if not args.json:
        print("calibrating ...", file=sys.stderr)
    cal = calibrate(machine)
    db = Database(machine, engine_profile(args.engine), name=args.engine)
    load_into(db, _tpch_data(args))
    numbers = args.query or list(ALL_QUERY_NUMBERS)
    profiles = {}
    for number in numbers:
        workload = lambda number=number: run_query(db, number)
        profiles[f"Q{number}"] = profile_workload(
            machine, f"Q{number}", workload, cal.delta_e,
            background=cal.background, warmup=workload,
        )
        if args.trace_out:
            tracer = Tracer(machine, background=cal.background,
                            delta_e=cal.delta_e, name=f"Q{number}")
            with tracer:
                workload()
            for path in _export_trace(
                tracer.trace, pathlib.Path(args.trace_out),
                f"q{number:02d}", f"Q{number} ({args.engine}, {args.tier})",
            ):
                print(f"wrote {path}", file=sys.stderr)
    if args.json:
        print(json.dumps({
            "engine": args.engine,
            "tier": args.tier,
            "machine": machine.config.name,
            "queries": {
                name: {
                    "active_energy_j": p.breakdown.active_energy_j,
                    "busy_s": p.busy_s,
                    "time_s": p.time_s,
                    "domain": p.domain,
                    "components_j": p.breakdown.components(),
                    "shares_pct": p.breakdown.shares_pct(),
                    "l1d_share_pct": p.breakdown.l1d_share_pct,
                }
                for name, p in profiles.items()
            },
        }, indent=2, sort_keys=True))
        return 0
    breakdowns = {name: p.breakdown for name, p in profiles.items()}
    print(render_breakdown_rows(
        breakdowns, f"Active-energy breakdown ({args.engine}, {args.tier})"
    ))
    return 0


def cmd_trace(args) -> int:
    from repro.micro.measurement import run_measured
    from repro.obs import Tracer
    from repro.obs.sampler import SamplingAggregator
    from repro.obs.timeline import TimelineRecorder, write_timeline

    machine = _machine(args)
    print("calibrating ...", file=sys.stderr)
    cal = calibrate(machine)
    db = Database(machine, engine_profile(args.engine), name=args.engine)
    load_into(db, _tpch_data(args))
    statement = " ".join(args.statement)
    if not args.cold:
        db.sql(statement)  # warm the pools so the trace shows steady state
    timeline = None
    if args.timeline_out:
        timeline = TimelineRecorder(machine, window_s=args.timeline_window,
                                    background=cal.background)
        timeline.start()
    sampled = args.telemetry == "sampler"
    if sampled:
        tracer = SamplingAggregator(
            machine, background=cal.background,
            seed=derive_seed(args.seed, "obs", "exemplars"),
            exemplar_rate=args.exemplar_rate,
            reservoir_size=args.reservoir_size,
            trace_operators=True, timeline=timeline, name="query",
        )
    else:
        tracer = Tracer(machine, background=cal.background,
                        delta_e=cal.delta_e, name="query")
    rows: list = []

    def workload() -> None:
        with tracer:
            rows.extend(db.sql(statement))

    # Measure the window independently of the tracer: the span energies
    # must sum back to this Active energy (the acceptance check).
    measurement = run_measured(machine, workload, cal.background,
                               apply_noise=False)
    if timeline is not None:
        write_timeline(timeline.finish(), args.timeline_out,
                       args.timeline_window)
        print(f"wrote {args.timeline_out}", file=sys.stderr)
    for row in rows[: args.limit]:
        print(row)
    if len(rows) > args.limit:
        print(f"... ({len(rows)} rows)")
    print()
    if sampled:
        summary = tracer.finish()
        print(summary.render_table())
        span_sum = summary.total_active_j
    else:
        trace = tracer.trace
        print(trace.render_tree(max_depth=args.depth))
        span_sum = sum(trace.active_energy_j(s) for s in trace.spans())
    measured = measurement.active_energy_j
    delta_pct = (100.0 * abs(span_sum - measured) / measured
                 if measured else 0.0)
    print(f"\nspan-sum {span_sum:.6e} J vs measured {measured:.6e} J "
          f"({delta_pct:.4f}% apart)")
    if args.metrics:
        print()
        print(machine.metrics.render())
    if not sampled:
        for path in _export_trace(trace, pathlib.Path(args.out), "trace",
                                  f"{statement} ({args.engine}, {args.tier})"):
            print(f"wrote {path}", file=sys.stderr)
    return 0 if delta_pct <= 1.0 else 1


def cmd_sql(args) -> int:
    machine = _machine(args)
    print("calibrating ...", file=sys.stderr)
    cal = calibrate(machine)
    db = Database(machine, engine_profile(args.engine), name=args.engine)
    load_into(db, _tpch_data(args))
    statement = " ".join(args.statement)
    workload = lambda: db.sql(statement)
    rows = workload()
    profile = profile_workload(
        machine, "sql", workload, cal.delta_e, background=cal.background,
    )
    for row in rows[: args.limit]:
        print(row)
    if len(rows) > args.limit:
        print(f"... ({len(rows)} rows)")
    b = profile.breakdown
    print(f"\nE_active {b.active_energy_j:.3e} J over {profile.busy_s:.3e} s")
    print(f"L1D+store share {b.l1d_share_pct:.1f}%   "
          f"{render_breakdown_bar(b)}")
    for name, share in b.shares_pct().items():
        print(f"  {name:<10} {share:5.1f}%")
    return 0


def cmd_experiment(args) -> int:
    from repro.analysis import experiment_to_svg

    lab = Lab(LabConfig(scale=args.scale, tier=args.tier, seed=args.seed))
    failures = 0
    for key in args.id:
        result = EXPERIMENTS[key](lab)
        status = ("PASS" if result.all_checks_pass
                  else "FAIL: " + ", ".join(result.failed_checks()))
        print(f"[{result.experiment_id}] {result.title}  (shape checks: {status})")
        print(result.text)
        print()
        if args.svg_dir:
            import pathlib

            svg = experiment_to_svg(result)
            if svg is not None:
                out = pathlib.Path(args.svg_dir)
                out.mkdir(parents=True, exist_ok=True)
                path = out / f"{result.experiment_id}.svg"
                path.write_text(svg)
                print(f"wrote {path}", file=sys.stderr)
        if not result.all_checks_pass:
            failures += 1
    return 1 if failures else 0


def cmd_poc(args) -> int:
    from repro.tcm import run_poc

    result = run_poc(seed=args.seed)
    print(f"DTCM peak saving: {result.peak_saving_pct:.1f}%")
    for comparison in result.comparisons:
        print(f"  Q{comparison.number:<3} energy {comparison.energy_saving_pct:+6.2f}%  "
              f"perf {comparison.perf_improvement_pct:+6.2f}%")
    print(f"average saving {result.average_energy_saving_pct:.2f}% "
          f"({result.fraction_of_peak_pct:.0f}% of peak), "
          f"perf {result.average_perf_improvement_pct:+.2f}%")
    return 0


def cmd_bench(args) -> int:
    from repro.bench import check_regression, run_bench, write_report

    baseline = None
    if args.check:
        # Read the baseline *before* running (and before write_report):
        # with the default --out both paths point at BENCH_simperf.json,
        # and reading after the write would gate the run against itself.
        # Failing early on a missing baseline also beats failing after a
        # multi-minute run.
        with open(args.check, encoding="utf-8") as handle:
            baseline = json.load(handle)
    results = run_bench(quick=args.quick)
    write_report(results, args.out)
    print(f"wrote {args.out}", file=sys.stderr)
    scan = results["scan_path"]["fig07_tpch_scan"]
    print(f"scan path (fig07 shape): reference {scan['reference_mops']:.2f} "
          f"Mops/s, batched {scan['batched_mops']:.2f} Mops/s "
          f"({scan['speedup']:.1f}x)")
    cold = results["scan_path"]["cold_stream_scan"]
    print(f"cold stream scan: reference {cold['reference_mops']:.2f} "
          f"Mops/s, batched {cold['batched_mops']:.2f} Mops/s "
          f"({cold['speedup']:.1f}x)")
    for name, entry in results["tpch"].items():
        print(f"tpch {name}: reference {entry['reference_s']:.3f}s, "
              f"batched {entry['batched_s']:.3f}s ({entry['speedup']:.2f}x)")
    serve = results["serve"]
    print(f"serve tpch: {serve['tpch']['batched']['requests_per_s']:.1f} "
          f"req/s batched ({serve['tpch']['speedup']:.2f}x vs reference)")
    print(f"serve engine: {serve['engine']['batched']['requests_per_s']:.1f} "
          f"req/s batched ({serve['engine']['speedup']:.2f}x vs reference)")
    scale = results["serve_scale"]
    print(f"serve scale: {scale['completed']} requests over "
          f"{scale['tenants']} tenants in {scale['wall_s']:.1f}s "
          f"({scale['requests_per_s']:.0f} req/s, "
          f"{scale['quanta_per_s']:.0f} quanta/s)")
    cluster = results["cluster"]
    for name, cell in sorted(cluster["cells"].items()):
        print(f"cluster {name}: {cell['energy_per_query_j']:.3e} J/query, "
              f"p99 {cell['p99_s']:.4f}s, "
              f"{100.0 * cell.get('wasted_share', 0.0):.1f}% wasted "
              f"(conservation {'ok' if cell['conservation_ok'] else 'BROKE'})")
    print("cluster cross-mode identity: "
          + ("ok" if cluster["reports_identical"] else "BROKE"))
    if baseline is not None:
        failures = check_regression(results, baseline, args.max_regression)
        for failure in failures:
            print(f"REGRESSION {failure}", file=sys.stderr)
        if failures:
            from repro.obs.diff import bench_top_regressor

            worst = bench_top_regressor(results, baseline)
            if worst is not None:
                print(f"REGRESSION top regressor: {worst['name']} "
                      f"({worst['mops_ratio']:.3f}x baseline throughput)",
                      file=sys.stderr)
            return 1
        print("no throughput regression vs baseline", file=sys.stderr)
    return 0


def _serve_config(args, **extra):
    from repro.serve import ServeConfig

    return ServeConfig(
        workload=args.workload,
        policy=args.policy,
        dvfs=args.dvfs,
        mode=args.mode,
        clients=args.clients,
        queries=args.queries,
        tenants=args.tenants,
        cores=args.cores,
        mpl=args.mpl,
        quantum_rows=args.quantum_rows,
        max_queue=args.max_queue,
        tenant_quota=args.tenant_quota,
        queue_timeout_s=args.queue_timeout,
        rate_qps=args.rate,
        think_s=args.think,
        seed=args.seed,
        engine=args.engine,
        setting=args.setting,
        tier=args.tier,
        scale=args.scale,
        exec_mode=getattr(args, "exec_mode", "batched"),
        telemetry=args.telemetry,
        exemplar_rate=args.exemplar_rate,
        reservoir_size=args.reservoir_size,
        timeline_out=args.timeline_out,
        timeline_window_s=args.timeline_window,
        **extra,
    )


def _cluster_config(args, faults=None):
    from repro.cluster import ClusterConfig

    return ClusterConfig(
        nodes=args.nodes,
        replication=args.replication,
        mode=args.mode,
        clients=args.clients,
        queries=args.queries,
        tenants=args.tenants,
        rate_qps=args.rate,
        think_s=args.think,
        seed=args.seed,
        engine=args.engine,
        setting=args.setting,
        tier=args.tier,
        scale=args.scale,
        exec_mode=getattr(args, "exec_mode", "batched"),
        net_latency_s=args.net_latency,
        net_bytes_per_s=args.net_bandwidth,
        faults=faults,
        subreq_timeout_s=args.subreq_timeout,
        failover_attempts=args.failover_attempts,
        failover_backoff_s=args.failover_backoff,
        hedge_quantile=args.hedge_quantile,
        hedge_min_samples=args.hedge_min_samples,
        allow_partial=not args.no_partial,
        breaker_threshold=getattr(args, "breaker_threshold", None),
        breaker_window=getattr(args, "breaker_window", 16),
        breaker_cooloff_s=getattr(args, "breaker_cooloff", 0.1),
        degrade_keep_tenants=getattr(args, "keep_tenants", 1),
    )


def _emit_report(report: dict, out) -> None:
    text = json.dumps(report, indent=2, sort_keys=True)
    if out:
        path = pathlib.Path(out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text + "\n")
        print(f"wrote {path}", file=sys.stderr)
    else:
        print(text)


def cmd_serve(args) -> int:
    import time

    from repro.serve import render_serve_summary, run_serve

    if args.cluster:
        from repro.cluster import render_cluster_summary, run_cluster

        start = time.perf_counter()
        report = run_cluster(_cluster_config(args))
        elapsed_s = time.perf_counter() - start
        _emit_report(report, args.out)
        print(render_cluster_summary(report, elapsed_s=elapsed_s),
              file=sys.stderr)
        return 0
    start = time.perf_counter()
    report = run_serve(_serve_config(args))
    elapsed_s = time.perf_counter() - start
    _emit_report(report, args.out)
    # The one-screen text summary goes to stderr so piping the JSON
    # report from stdout stays clean.  Host wall time feeds the
    # throughput line only; it never enters the JSON report.
    print(render_serve_summary(report, elapsed_s=elapsed_s), file=sys.stderr)
    if args.timeline_out:
        print(f"wrote {args.timeline_out}", file=sys.stderr)
    return 0


#: Fault-plan presets for ``repro chaos --scenario``; explicit fault
#: flags override the preset field-by-field.
CHAOS_SCENARIOS = {
    "none": {},
    "disk": {"disk_error_p": 0.05, "disk_slow_p": 0.05},
    "corrupt": {"page_corrupt_p": 0.05},
    "cpu": {"core_stall_p": 0.05, "dvfs_stuck_p": 0.02},
    "flaky": {"request_error_p": 0.03},
    "mixed": {
        "disk_error_p": 0.02,
        "disk_slow_p": 0.02,
        "page_corrupt_p": 0.02,
        "core_stall_p": 0.02,
        "dvfs_stuck_p": 0.01,
        "request_error_p": 0.02,
    },
    # Cluster-shaped scenarios: these force --cluster mode (the sites
    # only exist there).
    "node": {"node_crash_p": 0.05, "node_slow_p": 0.1},
    "partition": {"net_partition_p": 0.05, "net_drop_p": 0.05},
}

#: Scenarios that imply a cluster run even without ``--cluster``.
_CLUSTER_SCENARIOS = ("node", "partition")

#: (CLI dest, FaultPlan field) pairs for the explicit fault flags.
_CHAOS_FLAG_FIELDS = (
    ("disk_error_p", "disk_error_p"),
    ("disk_retries", "disk_error_max_retries"),
    ("disk_slow_p", "disk_slow_p"),
    ("disk_slow_factor", "disk_slow_factor"),
    ("corrupt_p", "page_corrupt_p"),
    ("stall_p", "core_stall_p"),
    ("stall_s", "core_stall_s"),
    ("dvfs_stuck_p", "dvfs_stuck_p"),
    ("dvfs_stuck_epochs", "dvfs_stuck_epochs"),
    ("request_error_p", "request_error_p"),
    ("node_crash_p", "node_crash_p"),
    ("node_crash_restart", "node_crash_restart_s"),
    ("node_slow_p", "node_slow_p"),
    ("node_slow_factor", "node_slow_factor"),
    ("net_partition_p", "net_partition_p"),
    ("net_partition_s", "net_partition_s"),
    ("net_drop_p", "net_drop_p"),
)


def cmd_chaos(args) -> int:
    import time

    from repro.faults import FaultPlan

    plan_kwargs = dict(CHAOS_SCENARIOS[args.scenario])
    for dest, field in _CHAOS_FLAG_FIELDS:
        value = getattr(args, dest)
        if value is not None:
            plan_kwargs[field] = value
    start = time.perf_counter()
    if args.cluster or args.scenario in _CLUSTER_SCENARIOS:
        from repro.cluster import render_cluster_summary, run_cluster

        report = run_cluster(
            _cluster_config(args, faults=FaultPlan(**plan_kwargs)))
        render = render_cluster_summary
    else:
        from repro.serve import render_serve_summary, run_serve

        report = run_serve(_serve_config(
            args,
            faults=FaultPlan(**plan_kwargs),
            retries=args.retries,
            retry_backoff_s=args.retry_backoff,
            retry_jitter=args.retry_jitter,
            retry_budget=args.retry_budget,
            deadline_s=args.deadline,
            breaker_threshold=args.breaker_threshold,
            breaker_window=args.breaker_window,
            breaker_cooloff_s=args.breaker_cooloff,
            degrade_keep_tenants=args.keep_tenants,
        ))
        render = render_serve_summary
    elapsed_s = time.perf_counter() - start
    if args.json or args.out:
        _emit_report(report, args.out)
    if not args.json:
        print(render(report, elapsed_s=elapsed_s))
    return 0


def cmd_optimize(args) -> int:
    if args.diff:
        from repro.obs.diff import diff_snapshots, load_snapshot, render_diff

        diff = diff_snapshots(load_snapshot(args.diff[0]),
                              load_snapshot(args.diff[1]))
        if args.json:
            print(json.dumps(diff, indent=2, sort_keys=True))
        else:
            print(render_diff(diff, top=args.top))
        return 0

    if args.compare:
        from repro.workloads.tpch.optimize import ENGINES as HARNESS_ENGINES
        from repro.workloads.tpch.optimize import run_optimizer_bench

        engines = (args.engine,) if args.engine else HARNESS_ENGINES
        queries = tuple(args.query) if args.query else None
        doc = run_optimizer_bench(quick=args.quick, tier=args.tier,
                                  engines=engines, queries=queries)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                json.dump(doc, handle, indent=2, sort_keys=True)
                handle.write("\n")
        if args.json:
            print(json.dumps(doc, indent=2, sort_keys=True))
            return 0
        for engine, per_engine in doc["engines"].items():
            for name, entry in per_engine.items():
                kept = ",".join(entry["kept_passes"]) or "-"
                match = "ok" if entry["rows_match"] else "MISMATCH"
                print(f"{engine:<11} {name:<4} "
                      f"{entry['handbuilt_j']:.3e} J -> "
                      f"{entry['optimized_j']:.3e} J "
                      f"({entry['ratio']:.3f}x)  {entry['outcome']:<10} "
                      f"{match:<8} kept: {kept}")
        s = doc["summary"]
        print(f"\ntier {doc['tier']}: {s['wins']} wins, {s['ties']} ties, "
              f"{s['regressions']} regressions, "
              f"{s['result_mismatches']} mismatches "
              f"({s['topn_wins']} top-N wins, "
              f"{s['join_reorder_wins']} join-reorder wins)")
        return 1 if (s["regressions"] or s["result_mismatches"]) else 0

    from repro.db.optimizer import Optimizer
    from repro.db.optimizer.explain import render_explain
    from repro.workloads.tpch.queries import QUERIES

    tier = args.tier or "10MB"
    lab = Lab(LabConfig(scale=args.scale, tier=tier, seed=args.seed))
    engine = args.engine or "postgresql"
    db = lab.database(engine)
    print("calibrating ...", file=sys.stderr)
    optimizer = Optimizer(db.catalog, db.profile, lab.calibration().delta_e)
    numbers = args.query or [
        n for n in sorted(QUERIES) if QUERIES[n].plan is not None
    ]
    for number in numbers:
        query = QUERIES[number]
        print(f"\n=== Q{number} ({engine}, tier {tier}) ===")
        if query.plan is None:
            print("multi-statement query; each statement is optimized "
                  "as the engine plans it")
            continue
        result = optimizer.optimize(query.plan)
        print(render_explain(result, optimizer.model))
    return 0


def cmd_diff(args) -> int:
    from repro.obs.diff import diff_snapshots, load_snapshot, render_diff

    diff = diff_snapshots(load_snapshot(args.a), load_snapshot(args.b))
    if args.json:
        print(json.dumps(diff, indent=2, sort_keys=True))
    else:
        print(render_diff(diff, top=args.top))
    return 0


def _add_serve_options(p: argparse.ArgumentParser) -> None:
    """Options shared by every serve-shaped subcommand (serve, chaos)."""
    _add_common(p)
    from repro.serve.drivers import DRIVER_MODES
    from repro.serve.policies import DVFS_MODES, POLICIES
    from repro.serve.workload import MIXES

    p.add_argument("--workload", default="tpch", choices=list(MIXES),
                   help="query mix the clients draw from")
    p.add_argument("--policy", default="fifo", choices=list(POLICIES),
                   help="scheduling policy")
    p.add_argument("--dvfs", default="race", choices=list(DVFS_MODES),
                   help="frequency strategy: race-to-idle / pace / EIST")
    p.add_argument("--mode", default="closed", choices=list(DRIVER_MODES),
                   help="open-loop Poisson or closed-loop clients")
    p.add_argument("--engine", default="postgresql", choices=list(ENGINES))
    p.add_argument("--setting", default="baseline", choices=list(SETTINGS),
                   help="engine configuration (buffer pool sizing)")
    p.add_argument("--clients", type=int, default=4,
                   help="concurrent client sessions")
    p.add_argument("--queries", type=int, default=40,
                   help="total queries to issue across all clients")
    p.add_argument("--tenants", type=int, default=2,
                   help="tenants the clients are spread over")
    p.add_argument("--cores", type=int, default=2,
                   help="virtual cores to time-slice across")
    p.add_argument("--mpl", type=int, default=2,
                   help="multiprogramming level per core")
    p.add_argument("--quantum-rows", type=int, default=64,
                   help="iterator pulls per scheduling quantum")
    p.add_argument("--max-queue", type=int, default=64,
                   help="admission queue bound")
    p.add_argument("--tenant-quota", type=int, default=None,
                   help="max queued+running requests per tenant")
    p.add_argument("--queue-timeout", type=float, default=None,
                   help="shed requests queued longer than this (sim s)")
    p.add_argument("--rate", type=float, default=50.0,
                   help="open-loop aggregate arrival rate (queries/s)")
    p.add_argument("--think", type=float, default=0.0,
                   help="closed-loop mean think time (sim s)")
    p.add_argument("--out", metavar="FILE", default=None,
                   help="write the JSON report to FILE (default: stdout)")
    p.add_argument("--telemetry", default="full",
                   choices=["full", "sampler", "off"],
                   help="full span recording, streaming sampler "
                        "aggregates, or no telemetry at all")
    p.add_argument("--exemplar-rate", type=float, default=0.1,
                   help="sampler: fraction of spans offered to the "
                        "exemplar reservoir (aggregates stay exact)")
    p.add_argument("--reservoir-size", type=int, default=64,
                   help="sampler: exemplar spans kept")
    p.add_argument("--timeline-out", metavar="FILE", default=None,
                   help="record a fixed-window timeline over simulated "
                        "time (.csv = CSV, else JSONL)")
    p.add_argument("--timeline-window", type=float, default=0.01,
                   help="timeline window length (sim s)")
    _add_cluster_options(p)


def _add_cluster_options(p: argparse.ArgumentParser) -> None:
    """Sharded-cluster mode, shared by ``serve`` and ``chaos``."""
    g = p.add_argument_group("cluster mode")
    g.add_argument("--cluster", action="store_true",
                   help="run the sharded scatter-gather cluster instead "
                        "of the single-machine serve loop")
    g.add_argument("--nodes", type=int, default=4,
                   help="data nodes (= shards per table)")
    g.add_argument("--replication", type=int, default=2,
                   help="replicas per shard (1 = no failover possible)")
    g.add_argument("--net-latency", type=float, default=2e-4,
                   help="base per-link network latency (sim s)")
    g.add_argument("--net-bandwidth", type=float, default=1.25e8,
                   help="link bandwidth (bytes per sim s)")
    g.add_argument("--subreq-timeout", type=float, default=0.05,
                   help="coordinator timeout per sub-request attempt")
    g.add_argument("--failover-attempts", type=int, default=3,
                   help="max attempts per sub-request, first included")
    g.add_argument("--failover-backoff", type=float, default=0.002,
                   help="delay before a failover re-dispatch (sim s)")
    g.add_argument("--hedge-quantile", type=float, default=0.95,
                   help="hedge once a sub-request outlives this latency "
                        "quantile (use --no-hedge to disable)")
    g.add_argument("--no-hedge", dest="hedge_quantile",
                   action="store_const", const=None,
                   help="disable hedged requests")
    g.add_argument("--hedge-min-samples", type=int, default=16,
                   help="completed sub-requests before hedging arms")
    g.add_argument("--no-partial", action="store_true",
                   help="fail requests with unreachable shards instead "
                        "of degrading to partial results")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Micro-op energy analysis of database systems "
                    "(EDBT 2020 reproduction)",
    )
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="-v: INFO logging, -vv: DEBUG")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("calibrate", help="run MBS/VMBS; print Tables 1-3")
    _add_common(p)
    p.add_argument("--json", action="store_true",
                   help="emit the dE table and verification as JSON")
    p.set_defaults(fn=cmd_calibrate)

    p = sub.add_parser("profile", help="break TPC-H queries down")
    _add_common(p)
    p.add_argument("--engine", default="sqlite", choices=list(ENGINES))
    p.add_argument("--query", "-q", type=int, action="append",
                   choices=list(ALL_QUERY_NUMBERS), metavar="N",
                   help="query number (repeatable; default: all 22)")
    p.add_argument("--json", action="store_true",
                   help="emit per-query breakdowns as JSON")
    p.add_argument("--trace-out", metavar="DIR",
                   help="additionally trace each query and export "
                        "JSONL/Chrome/flamegraph files into DIR")
    p.set_defaults(fn=cmd_profile)

    p = sub.add_parser(
        "trace", help="trace one SQL statement with per-operator spans"
    )
    _add_common(p)
    p.add_argument("--engine", default="sqlite", choices=list(ENGINES))
    p.add_argument("--out", metavar="DIR", default="trace-out",
                   help="directory for trace exports (default: trace-out)")
    p.add_argument("--limit", type=int, default=10,
                   help="max result rows to print")
    p.add_argument("--depth", type=int, default=None,
                   help="truncate the printed span tree at this depth")
    p.add_argument("--cold", action="store_true",
                   help="skip the warm-up run (trace cold caches/pools)")
    p.add_argument("--metrics", action="store_true",
                   help="also print the machine metrics registry")
    p.add_argument("--telemetry", default="full",
                   choices=["full", "sampler"],
                   help="full span tree or streaming sampler aggregates")
    p.add_argument("--exemplar-rate", type=float, default=0.1,
                   help="sampler: fraction of spans offered to the "
                        "exemplar reservoir")
    p.add_argument("--reservoir-size", type=int, default=64,
                   help="sampler: exemplar spans kept")
    p.add_argument("--timeline-out", metavar="FILE", default=None,
                   help="record a fixed-window timeline over simulated "
                        "time (.csv = CSV, else JSONL)")
    p.add_argument("--timeline-window", type=float, default=0.01,
                   help="timeline window length (sim s)")
    p.add_argument("statement", nargs="+", help="the SELECT statement")
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser("sql", help="run a SQL statement with energy attribution")
    _add_common(p)
    p.add_argument("--engine", default="sqlite", choices=list(ENGINES))
    p.add_argument("--limit", type=int, default=10,
                   help="max result rows to print")
    p.add_argument("statement", nargs="+", help="the SELECT statement")
    p.set_defaults(fn=cmd_sql)

    p = sub.add_parser("experiment", help="regenerate paper tables/figures")
    _add_common(p)
    p.add_argument("id", nargs="+", choices=sorted(EXPERIMENTS),
                   help="experiment id(s), e.g. fig07 tab02")
    p.add_argument("--svg-dir", metavar="DIR",
                   help="also render breakdown figures as SVG into DIR")
    p.set_defaults(fn=cmd_experiment)

    p = sub.add_parser("poc", help="run the §4 DTCM proof-of-concept")
    _add_common(p)
    p.set_defaults(fn=cmd_poc)

    p = sub.add_parser(
        "serve", help="serve a concurrent query mix; emit a JSON report"
    )
    _add_serve_options(p)
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser(
        "chaos",
        help="serve under deterministic fault injection; report the "
             "useful/wasted energy split",
    )
    _add_serve_options(p)
    p.add_argument("--scenario", default="mixed",
                   choices=sorted(CHAOS_SCENARIOS),
                   help="fault-plan preset (explicit flags override)")
    p.add_argument("--disk-error-p", type=float, default=None,
                   help="transient disk read error probability per read")
    p.add_argument("--disk-retries", type=int, default=None,
                   help="IO retries before a read error surfaces")
    p.add_argument("--disk-slow-p", type=float, default=None,
                   help="disk latency spike probability per read")
    p.add_argument("--disk-slow-factor", type=float, default=None,
                   help="access-latency multiplier of a spike")
    p.add_argument("--corrupt-p", type=float, default=None,
                   help="page corruption probability per page fill")
    p.add_argument("--stall-p", type=float, default=None,
                   help="core stall probability per quantum")
    p.add_argument("--stall-s", type=float, default=None,
                   help="stall duration (sim s)")
    p.add_argument("--dvfs-stuck-p", type=float, default=None,
                   help="stuck-DVFS probability per governor epoch")
    p.add_argument("--dvfs-stuck-epochs", type=int, default=None,
                   help="epochs a stuck episode lasts")
    p.add_argument("--request-error-p", type=float, default=None,
                   help="injected request failure probability per quantum")
    p.add_argument("--node-crash-p", type=float, default=None,
                   help="cluster: node crash probability per sub-request")
    p.add_argument("--node-crash-restart", type=float, default=None,
                   help="cluster: reboot time after a crash (sim s)")
    p.add_argument("--node-slow-p", type=float, default=None,
                   help="cluster: straggler probability per sub-request")
    p.add_argument("--node-slow-factor", type=float, default=None,
                   help="cluster: straggler service-time multiplier")
    p.add_argument("--net-partition-p", type=float, default=None,
                   help="cluster: link partition probability per message")
    p.add_argument("--net-partition-s", type=float, default=None,
                   help="cluster: partition episode length (sim s)")
    p.add_argument("--net-drop-p", type=float, default=None,
                   help="cluster: single-message drop probability")
    p.add_argument("--retries", type=int, default=2,
                   help="max retries per failed request (0 = fail fast)")
    p.add_argument("--retry-backoff", type=float, default=0.005,
                   help="base retry backoff (sim s; doubles per failure)")
    p.add_argument("--retry-jitter", type=float, default=0.1,
                   help="seeded jitter fraction on each backoff")
    p.add_argument("--retry-budget", type=int, default=None,
                   help="global cap on retries across the run")
    p.add_argument("--deadline", type=float, default=None,
                   help="per-request execution deadline (sim s)")
    p.add_argument("--breaker-threshold", type=float, default=None,
                   help="windowed failure rate that trips the breaker")
    p.add_argument("--breaker-window", type=int, default=16,
                   help="attempt outcomes in the breaker's window")
    p.add_argument("--breaker-cooloff", type=float, default=0.1,
                   help="sim seconds the breaker stays open")
    p.add_argument("--keep-tenants", type=int, default=1,
                   help="tenants still served in degraded mode")
    p.add_argument("--json", action="store_true",
                   help="print the full JSON report instead of the summary")
    p.set_defaults(fn=cmd_chaos)

    p = sub.add_parser(
        "diff",
        help="attribute the energy/time delta between two run artifacts",
    )
    p.add_argument("a", help="baseline artifact (bench/serve report "
                             "JSON, or trace JSONL)")
    p.add_argument("b", help="comparison artifact of the same kind")
    p.add_argument("--top", type=int, default=10,
                   help="rows per ranked dimension (default 10)")
    p.add_argument("--json", action="store_true",
                   help="emit the structured diff instead of text")
    p.add_argument("-v", "--verbose", action="count", default=0,
                   help="-v for INFO, -vv for DEBUG")
    p.set_defaults(fn=cmd_diff)

    p = sub.add_parser(
        "optimize",
        help="energy-aware optimizer: per-pass EXPLAIN, measured "
             "compare harness, artifact diff",
    )
    _add_common(p)
    # EXPLAIN defaults to 10MB; --compare defers to the harness default
    # (10MB quick, 500MB full) unless --tier is given explicitly.
    p.set_defaults(tier=None)
    p.add_argument("--engine", default=None,
                   choices=sorted(ENGINES),
                   help="engine profile (EXPLAIN default: postgresql; "
                        "compare default: all)")
    p.add_argument("-q", "--query", type=int, action="append",
                   choices=ALL_QUERY_NUMBERS, metavar="N",
                   help="TPC-H query number (repeatable; default all)")
    p.add_argument("--compare", action="store_true",
                   help="measure hand-built vs optimized J/query and "
                        "print the win/tie/regression table")
    p.add_argument("--quick", action="store_true",
                   help="with --compare: the CI subset of queries")
    p.add_argument("--out", metavar="FILE", default=None,
                   help="with --compare: write the artifact JSON")
    p.add_argument("--diff", nargs=2, metavar=("A", "B"), default=None,
                   help="diff two --compare artifacts (ranked per-"
                        "query Δ energy)")
    p.add_argument("--top", type=int, default=10,
                   help="with --diff: rows per ranked dimension")
    p.add_argument("--json", action="store_true",
                   help="emit machine-readable output")
    p.set_defaults(fn=cmd_optimize)

    p = sub.add_parser(
        "bench",
        help="measure simulator throughput; write BENCH_simperf.json",
    )
    p.add_argument("--quick", action="store_true",
                   help="smaller rep counts (the CI smoke configuration)")
    p.add_argument("--out", metavar="FILE", default="BENCH_simperf.json",
                   help="output report path (default: BENCH_simperf.json)")
    p.add_argument("--check", metavar="BASELINE", default=None,
                   help="fail if batched throughput regresses vs BASELINE")
    p.add_argument("--max-regression", type=float, default=0.30,
                   help="allowed fractional throughput drop (default 0.30)")
    p.add_argument("-v", "--verbose", action="count", default=0,
                   help="-v for INFO, -vv for DEBUG")
    p.set_defaults(fn=cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    configure_logging(getattr(args, "verbose", 0))
    try:
        return args.fn(args)
    except ReproError as exc:
        print(f"repro {args.command}: error: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError) as exc:
        print(f"repro {args.command}: error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print(f"repro {args.command}: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
