"""The benchmark's four workloads, each one fixed seeded input to the
simulator, composed from ``repro``'s public API.

Every workload is a function ``(seed, exec_mode, small, spans)`` that
performs the set-up of one *round* (the runner times it as ``setup_s``)
and returns a callable running the round's timed phase (``wall_s``),
its correctness checks and its simulated fingerprint, as a
:class:`Round`.  A round is a fixed amount of work, so two rounds at
one seed must give the same fingerprint; the runner repeats rounds
until its time budget is spent.

``spans`` is a :class:`perfbench.trace.SpanRecorder` (traced run) or
:data:`perfbench.trace.NO_SPANS` (untraced run).  The span brackets
below sit around the calls into each layer's public functions; method
level spans are installed separately by :mod:`perfbench.trace`.

Simulated clients, tenants, cores and nodes are workload *inputs*: the
host runs every workload in one process on one thread.
"""

from __future__ import annotations

import hashlib
import json
import time
from contextlib import ExitStack
from dataclasses import dataclass, field, replace
from functools import partial

from repro import Machine, intel_i7_4790
from repro.analysis.experiments import fig07, tab03
from repro.analysis.lab import ENGINE_ORDER, Lab, LabConfig
from repro.cluster import (
    ClusterConfig,
    ClusterCoordinator,
    ShardMap,
    build_cluster_report,
    build_nodes,
    cluster_jobs,
    cluster_mix,
    load_sharded,
)
from repro.db import Database, engine_profile
from repro.faults import FaultInjector, FaultPlan
from repro.micro.measurement import measure_background
from repro.obs import Tracer
from repro.obs.sampler import SamplingAggregator
from repro.seeding import derive_seed
from repro.serve import (
    AdmissionController,
    ClosedLoopDriver,
    QueryServer,
    RetryManager,
    ServeConfig,
    apply_dvfs,
    build_mix,
    build_report,
    energy_split,
    make_policy,
)
from repro.serve.report import percentile
from repro.serve.request import COMPLETED
from repro.serve.workload import KV_OPS_PER_JOB, POINT_ROWS_PER_JOB, QueryMix
from repro.sim.cores import CoreSet
from repro.sim.network import NetworkModel
from repro.workloads.tpch import ALL_QUERY_NUMBERS, TpchData, run_query

from perfbench.trace import NO_SPANS

#: Figure 7's per-engine L1D+Reg2L1D share of Active energy (percent),
#: the paper's reference values behind ``paper.l1d_share_err_pp``.
PAPER_L1D_SHARE_PCT = {"postgresql": 46.8, "sqlite": 60.0, "mysql": 38.6}


@dataclass
class Round:
    """What the timed phase of one round measured and checked."""

    #: ``(start, end)`` host clock stamps of the timed phase.
    window: tuple
    #: Operations attempted and completed in the timed phase, and the
    #: stamps of the window the ops-per-second figure divides them by.
    attempted: int
    ops: int
    ops_window: tuple
    #: ``(start, end, ops)`` host clock stamps bracketing ``ops``
    #: operations: one query each in paper-profile, a batch of
    #: consecutive completions in the serve and cluster workloads.
    op_spans: list
    #: Simulated instructions retired during the timed phase.
    instructions: int
    #: Operations a failed correctness check marks as failed.
    failed: int
    checks: dict
    fingerprint: str
    #: Simulated per-layer figures (identical across host speeds).
    sim: dict = field(default_factory=dict)


def digest(value) -> str:
    """SHA-256 over a canonical JSON form of simulated numbers.

    Floats are written with ``repr`` precision by :mod:`json`, so the
    hash is exact: any change in the last bit of a joule shows."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def rows_checksum(rows, digits=None) -> str:
    """Order-insensitive checksum of a query result.

    Engines may emit tied rows in different orders, so the rows are
    compared as a multiset of their ``repr``s.  With ``digits``, floats
    are first rounded to that many significant digits: engines sum
    aggregates in different orders, which moves the last bits."""
    def cell(value):
        if digits is not None and isinstance(value, float):
            return float(f"{value:.{digits}g}")
        return value

    return digest(sorted(repr(tuple(cell(v) for v in row)) for row in rows))


def machine_numbers(machine: Machine) -> dict:
    """PMU counters, RAPL joules per domain and simulated time."""
    machine.settle()
    rapl = machine.rapl
    return {
        "pmu": machine.cpu.counters.as_dict(),
        "rapl_j": [rapl.energy_core(), rapl.energy_package(),
                   rapl.energy_dram()],
        "time_s": [machine.time_s, machine.busy_s, machine.idle_s],
    }


def machine_sim(machines) -> dict:
    """Simulated per-layer figures summed over ``machines``."""
    instructions = cycles = active = pf = 0
    hits = {"l1d": 0, "l2": 0, "l3": 0}
    accesses = {"l1d": 0, "l2": 0, "l3": 0}
    for machine in machines:
        machine.settle()
        c = machine.cpu.counters
        instructions += c.instructions
        cycles += c.cycles
        pf += c.n_pf_l2 + c.n_pf_l3
        hits["l1d"] += c.l1d_hits
        hits["l2"] += c.l2_hits
        hits["l3"] += c.l3_hits
        accesses["l1d"] += c.n_l1d
        accesses["l2"] += c.n_l2
        accesses["l3"] += c.n_l3
        account = machine.rapl.snapshot()
        active += (account.core_active + account.uncore_active
                   + account.dram_active)
    sim = {
        "sim.instructions": instructions,
        "sim.cycles": cycles,
        "sim.pf_lines": pf,
        "sim.active_j": active,
    }
    for level in hits:
        sim[f"sim.{level}_hit_rate"] = (hits[level] / accesses[level]
                                        if accesses[level] else 0.0)
    return sim


def pool_sim(databases) -> dict:
    """Buffer-pool hit rate and evictions summed over ``databases``."""
    hits = accesses = recycles = 0
    for db in databases:
        stats = db.pool.stats()
        hits += stats.hits
        accesses += stats.accesses
        recycles += stats.recycles
    return {"db.pool_hit_rate": hits / accesses if accesses else 0.0,
            "db.pool_evictions": recycles}


def _close(split_j: float, measured_j: float) -> bool:
    """The useful/wasted split partitions the measured Active energy:
    equal up to float summation order (the repository's own 1e-9
    relative tolerance for this identity).  ``useful + wasted ==
    active`` holds exactly in the reports by construction (their
    ``active`` is the split's sum), so the split is checked against the
    Active energy measured apart from it."""
    return abs(split_j - measured_j) <= 1e-9 * abs(measured_j)


def _instructions(machines) -> int:
    return sum(m.cpu.counters.instructions for m in machines)


# ------------------------------------------------------------ paper-profile

class _SeededLab(Lab):
    """The paper's experiment lab with the TPC-H data drawn from the
    benchmark seed, and each profiled query's host time and result rows
    recorded.  Everything else is :class:`Lab` unchanged."""

    def __init__(self, config: LabConfig, data_seed: int, spans):
        super().__init__(config)
        self.data_seed = data_seed
        self.spans = spans
        self.query_spans: list = []
        self.checksums: dict = {}
        self.agreement: dict = {}
        self.profiles: dict = {}

    def dataset(self, tier=None) -> TpchData:
        name = tier or self.config.tier
        if name not in self._datasets:
            with self.spans.span("tpch.datagen"):
                data = TpchData(name, seed=self.data_seed)
                data.tables()
            self._datasets[name] = data
        return self._datasets[name]

    def profile_query(self, engine, number, setting=None, tier=None,
                      pstate=None):
        db = self.database(engine, setting, tier)
        result: list = []

        def run() -> None:
            result[:] = run_query(db, number)

        t0 = time.perf_counter()
        with self.spans.span("core.profile"):
            profile = self.profile_callable(f"{engine}/Q{number}", run,
                                            pstate)
        self.query_spans.append((t0, time.perf_counter(), 1))
        self.checksums[(engine, number)] = rows_checksum(result)
        self.agreement[(engine, number)] = rows_checksum(result, digits=10)
        self.profiles[(engine, number)] = profile
        return profile


def paper_profile(seed: int, exec_mode: str = "batched", small: bool = False,
                  spans=None) -> Round:
    """MBS calibration, VMBS verification (Table 3), then Figure 7:
    every TPC-H query profiled on the three engine profiles."""
    spans = spans or NO_SPANS
    queries = (1, 6, 14) if small else ALL_QUERY_NUMBERS
    with spans.span("setup"):
        lab = _SeededLab(
            LabConfig(scale=16, tier="10MB" if small else "100MB",
                      seed=derive_seed(seed, "bench", "machine-noise"),
                      exec_mode=exec_mode),
            data_seed=derive_seed(seed, "bench", "tpch-datagen"),
            spans=spans,
        )
        with spans.span("micro.calibrate"):
            lab.calibration()
        for engine in ENGINE_ORDER:
            lab.dataset()
            with spans.span("tpch.load"):
                lab.database(engine)
    return lambda: _paper_timed(lab, queries, small, spans)


def _paper_timed(lab, queries, small, spans) -> Round:
    machine = lab.machine
    instr0 = _instructions([machine])
    t0 = time.perf_counter()
    with spans.span("timed"):
        with spans.span("micro.verify"):
            verification = tab03(lab)
        t1 = time.perf_counter()
        figure = fig07(lab, queries=queries)
    t2 = time.perf_counter()

    checks = {f"tab03.{k}": v for k, v in verification.checks.items()}
    shape = figure.checks
    if small:
        # The shape bands are statements about the average over all 22
        # queries; a three-query subset only keeps the ordering sanity.
        shape = {k: v for k, v in shape.items() if k == "movement_majority"}
    checks.update({f"fig07.{k}": v for k, v in shape.items()})
    failed = 0
    for number in queries:
        sums = {lab.agreement[(e, number)] for e in ENGINE_ORDER}
        ok = len(sums) == 1
        checks[f"rows_agree.Q{number}"] = ok
        if not ok:
            failed += len(ENGINE_ORDER)
    n_ops = len(queries) * len(ENGINE_ORDER)
    if not all(v for k, v in checks.items() if not k.startswith("rows_")):
        failed = n_ops

    avg_l1d = figure.data["avg_l1d_share"]
    accuracy = verification.data["average_accuracy_pct"]
    sim = machine_sim([machine])
    sim["paper.vmbs_accuracy_pct"] = accuracy
    sim["paper.l1d_share_err_pp"] = sum(
        abs(avg_l1d[e] - PAPER_L1D_SHARE_PCT[e]) for e in ENGINE_ORDER
    ) / len(ENGINE_ORDER)
    fingerprint = digest({
        "machine": machine_numbers(machine),
        "delta_e": lab.calibration().delta_e.nanojoules(),
        "vmbs": verification.data,
        "queries": [
            [e, n, lab.checksums[(e, n)], p.time_s, p.busy_s,
             p.breakdown.active_energy_j, p.counters.as_dict()]
            for (e, n), p in sorted(lab.profiles.items())
        ],
    })
    sim.update(pool_sim(lab.database(e) for e in ENGINE_ORDER))
    return Round(
        window=(t0, t2), attempted=n_ops, ops=n_ops, ops_window=(t1, t2),
        op_spans=list(lab.query_spans),
        instructions=_instructions([machine]) - instr0,
        failed=failed, checks=checks, fingerprint=fingerprint, sim=sim,
    )


# ------------------------------------------------------------ serve / cluster

class _TimedDriver(ClosedLoopDriver):
    """Closed-loop driver that stamps the host clock at every terminal
    request (see :func:`_batches`)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.stamps: list = []

    def on_terminal(self, client_index, now):
        self.stamps.append(time.perf_counter())
        return super().on_terminal(client_index, now)


#: Host time per served operation is sampled over this many batches of
#: consecutive completions per round: completions interleave on the
#: simulated cores, so single completion gaps mix unrelated requests.
OP_BATCHES = 30


def _batches(start: float, stamps: list) -> list:
    """``(start, end, ops)`` spans over ``OP_BATCHES`` equal runs of
    consecutive completion stamps."""
    n = len(stamps)
    edges = [n * i // OP_BATCHES for i in range(OP_BATCHES + 1)]
    marks = [start] + stamps
    return [(marks[lo], marks[hi], hi - lo)
            for lo, hi in zip(edges, edges[1:]) if hi > lo]


class _TimedWork:
    """Work-iterator proxy that brackets each quantum in a span."""

    __slots__ = ("_it", "_span")

    def __init__(self, it, span):
        self._it = it
        self._span = span

    def __iter__(self):
        return self

    def __next__(self):
        with self._span("serve.work"):
            return next(self._it)

    def run_rows(self, n: int) -> int:
        with self._span("serve.work"):
            return self._it.run_rows(n)


def _traced_mix(mix: QueryMix, n_clients: int, spans) -> QueryMix:
    if not spans.enabled:
        return mix

    def wrap(job):
        make = job.make
        return replace(job, make=lambda slot: _TimedWork(make(slot),
                                                          spans.span))

    return QueryMix(mix.name, [
        [wrap(job) for job in mix.jobs_for_client(i)]
        for i in range(n_clients)
    ])


#: Rows a completed request of each serve job delivers: the job's fixed
#: size, counted apart from the serve loop's ``request.rows``.
JOB_ROWS = {"points": POINT_ROWS_PER_JOB, "ycsb-a": KV_OPS_PER_JOB,
            "ycsb-b": KV_OPS_PER_JOB, "ycsb-c": KV_OPS_PER_JOB}

#: Serve workload shapes (full, small).  ``points`` is the serve-scale
#: shape cut to a steady-state length; ``kv`` drives the LSM store, the
#: full span tracer and the retry path.
SERVE_SHAPES = {
    "serve-points": (
        dict(workload="points", queries=12_000, clients=400, tenants=200,
             cores=8, mpl=4, max_queue=512, telemetry="sampler",
             think_s=2e-5),
        dict(workload="points", queries=600, clients=40, tenants=20,
             cores=8, mpl=4, max_queue=152, telemetry="sampler",
             think_s=2e-5),
    ),
    "serve-kv": (
        dict(workload="kv", queries=450, clients=12, tenants=6, cores=4,
             mpl=2, telemetry="full", think_s=2e-5,
             faults=FaultPlan(request_error_p=0.02), retries=3),
        dict(workload="kv", queries=60, clients=6, tenants=3, cores=4,
             mpl=2, telemetry="full", think_s=2e-5,
             faults=FaultPlan(request_error_p=0.02), retries=3),
    ),
}


def serve(name: str, seed: int, exec_mode: str = "batched",
          small: bool = False, spans=None) -> Round:
    """``run_serve`` re-composed from its public parts so set-up, the
    event loop and report building are timed apart."""
    spans = spans or NO_SPANS
    shape = SERVE_SHAPES[name][1 if small else 0]
    config = ServeConfig(mode="closed", seed=seed, exec_mode=exec_mode,
                         **shape).validate()
    with spans.span("setup"):
        machine = Machine(
            intel_i7_4790(scale=config.scale),
            seed=derive_seed(seed, "serve", "machine-noise"),
            exec_mode=config.exec_mode,
        )
        injector = None
        if config.faults is not None:
            injector = FaultInjector(config.faults,
                                     seed=derive_seed(seed, "faults"),
                                     metrics=machine.metrics)
        apply_dvfs(machine, config.dvfs, injector=injector)
        db = Database(machine, engine_profile(config.engine, config.setting),
                      name=config.engine)
        mix = _traced_mix(build_mix(config.workload, db, config.clients,
                                    seed), config.clients, spans)
        driver = _TimedDriver(mix, config.clients, config.queries, seed,
                              config.tenants, config.think_s)
        background = measure_background(machine)
        core_set = CoreSet(machine, config.cores)
        if injector is not None:
            machine.fault_injector = injector
            machine.disk.injector = injector
            core_set.injector = injector
        admission = AdmissionController(machine.metrics,
                                        max_queue=config.max_queue)
        retry = None
        if config.retries > 0:
            retry = RetryManager(seed, max_retries=config.retries,
                                 backoff_s=config.retry_backoff_s,
                                 jitter=config.retry_jitter,
                                 metrics=machine.metrics)
        server = QueryServer(db, core_set, admission,
                             make_policy(config.policy), driver,
                             mpl=config.mpl,
                             quantum_rows=config.quantum_rows,
                             injector=injector, retry=retry)
        if config.telemetry == "sampler":
            tracer = SamplingAggregator(
                machine, background=background,
                seed=derive_seed(seed, "obs", "exemplars"),
                exemplar_rate=config.exemplar_rate,
                reservoir_size=config.reservoir_size, name="serve")
        else:
            tracer = Tracer(machine, background=background, name="serve")
    return lambda: _serve_timed(config, server, driver, tracer, retry,
                                injector, spans)


def _serve_timed(config, server, driver, tracer, retry, injector,
                 spans) -> Round:
    machine = server.machine
    instr0 = _instructions([machine])
    t0 = time.perf_counter()
    with spans.span("timed"):
        with spans.span("serve.loop"):
            with tracer:
                server.run()
        with spans.span("serve.report"):
            trace = tracer.finish()
            report = build_report(config, server, trace, injector=injector)
    t2 = time.perf_counter()

    requests = server.requests
    counts = report["counts"]
    split = energy_split(trace, requests)
    active_j = split["useful_j"] + split["wasted_j"]
    completed = [r for r in requests if r.state == COMPLETED]
    tenant_rows = sum(t["rows"] for t in report["tenants"].values())
    checks = {
        "energy_partition": _close(active_j, trace.total_active_j),
        # Every completed request delivered its whole job, and the
        # report's tenant rows are those jobs' sizes.
        "rows_delivered": (
            all(r.rows == JOB_ROWS[r.job.name] for r in completed)
            and tenant_rows == sum(JOB_ROWS[r.job.name] for r in completed)),
        "states_sum_to_issued": (
            sum(v for k, v in counts.items() if k != "issued")
            == counts["issued"] == len(requests)),
    }
    n_ops = len(requests)
    failed = 0 if all(checks.values()) else n_ops
    by_request = trace.active_energy_by_meta("request")
    latencies = [r.latency_s for r in completed]
    sim = machine_sim([machine])
    sim.update({
        "serve.quanta": server.quanta,
        "serve.retries": retry.spent if retry is not None else 0,
        "serve.failed": counts.get("failed", 0),
        "serve.rejected": counts["rejected_queue"] + counts["rejected_quota"],
        "serve.latency_ms_p50": 1e3 * percentile(latencies, 50),
        "serve.latency_ms_p99": 1e3 * percentile(latencies, 99),
        "serve.useful_share": split["useful_j"] / active_j,
        "db.pool_hit_rate": 0.0,
        "db.pool_evictions": 0,
    })
    fingerprint = digest({
        "machine": machine_numbers(machine),
        "requests": [
            [r.request_id, r.tenant, r.state, r.arrival_s, r.finish_s,
             r.rows, r.quanta, r.failures, by_request.get(r.request_id)]
            for r in requests
        ],
    })
    return Round(
        window=(t0, t2), attempted=n_ops, ops=counts["completed"],
        ops_window=(t0, t2), op_spans=_batches(t0, driver.stamps[:n_ops]),
        instructions=_instructions([machine]) - instr0,
        failed=failed, checks=checks, fingerprint=fingerprint, sim=sim,
    )


#: The cluster's dataset is part of the workload's definition, like its
#: tier: at 10MB a shard holds a few dozen rows, so a seed-drawn dataset
#: would move the work per query by about 10% from seed to seed.  The
#: benchmark seed drives the request stream, link latencies and faults.
CLUSTER_DATA_SEED = 20200330

CLUSTER_SHAPES = (
    dict(nodes=4, replication=2, clients=8, queries=450, tenants=4,
         tier="10MB", think_s=2e-4,
         faults=FaultPlan(node_crash_p=0.005, net_drop_p=0.005)),
    dict(nodes=4, replication=2, clients=4, queries=16, tenants=2,
         tier="10MB", think_s=2e-4,
         faults=FaultPlan(node_crash_p=0.03, net_drop_p=0.03)),
)


def cluster_sql(seed: int, exec_mode: str = "batched", small: bool = False,
                spans=None) -> Round:
    """``run_cluster`` re-composed from its public parts: a 4-node RF=2
    cluster with node-crash and message-drop faults, failover and
    hedging on, serving plan-backed shard aggregates."""
    spans = spans or NO_SPANS
    config = ClusterConfig(mode="closed", seed=seed, exec_mode=exec_mode,
                           **CLUSTER_SHAPES[1 if small else 0]).validate()
    with spans.span("setup"):
        coord, nodes = build_nodes(config, seed)
        shard_map = ShardMap(n_shards=config.nodes,
                             replication=config.replication,
                             n_nodes=config.nodes)
        with spans.span("tpch.datagen"):
            data = TpchData(config.tier, seed=CLUSTER_DATA_SEED)
            data.tables()
        with spans.span("tpch.load"):
            load_sharded(nodes, shard_map, data)
        injector = FaultInjector(config.faults,
                                 seed=derive_seed(seed, "faults"),
                                 metrics=coord.metrics)
        machines = {"coord": coord}
        machines.update((node.name, node.machine) for node in nodes)
        network = NetworkModel(
            machines, seed, base_latency_s=config.net_latency_s,
            bytes_per_s=config.net_bytes_per_s,
            payload_factor=config.net_payload_factor, injector=injector)
        specs = cluster_jobs(shard_map)
        mix = cluster_mix(specs, shard_map, config.clients)
        driver = _TimedDriver(mix, config.clients, config.queries, seed,
                              config.tenants, config.think_s)
        backgrounds = {name: measure_background(machines[name])
                       for name in sorted(machines)}
        for node in nodes:
            node.machine.fault_injector = injector
            node.machine.disk.injector = injector
        coordinator = ClusterCoordinator(config, coord, nodes, network,
                                         shard_map, specs, driver, seed,
                                         injector=injector)
        tracers = {name: Tracer(machines[name],
                                background=backgrounds[name],
                                name=f"cluster/{name}")
                   for name in sorted(machines)}
    return lambda: _cluster_timed(config, coordinator, machines, tracers,
                                  network, injector, shard_map, specs,
                                  driver, spans)


def _cluster_timed(config, coordinator, machines, tracers, network,
                   injector, shard_map, specs, driver, spans) -> Round:
    ordered = [machines[name] for name in sorted(machines)]
    instr0 = _instructions(ordered)

    t0 = time.perf_counter()
    with spans.span("timed"):
        with spans.span("cluster"), ExitStack() as stack:
            for name in sorted(tracers):
                stack.enter_context(tracers[name])
            coordinator.run()
        with spans.span("cluster.report"):
            traces = {name: tracers[name].finish() for name in sorted(tracers)}
            report = build_cluster_report(config, coordinator, traces,
                                          network, injector=injector)
    t2 = time.perf_counter()

    requests = coordinator.requests
    counts = report["counts"]
    energy = report["energy"]
    table_rows = {spec_name: sum(shard_map.rows[spec.table])
                  for spec_name, spec in specs.items()}
    checks = {
        "energy_partition": _close(energy["active_energy_j"],
                                   energy["node_active_sum_j"]),
        # Every cluster job is a full-table count+sum: a complete
        # answer must count exactly the rows loaded for its table.
        "rows_delivered": all(
            r.result[0] == table_rows[r.job.name]
            for r in requests if r.state == COMPLETED),
        "states_sum_to_issued": (
            sum(v for k, v in counts.items() if k != "issued")
            == counts["issued"] == len(requests)),
    }
    n_ops = len(requests)
    failed = 0 if all(checks.values()) else n_ops
    sub = report["subrequests"]
    sim = machine_sim(ordered)
    sim.update({
        "cluster.subrequests": sub["sent"],
        "cluster.failovers": sub["failovers"],
        "cluster.timeouts": sub["timeouts"],
        "cluster.hedges": sub["hedges"],
        "cluster.degraded": counts["degraded_partial"],
        "cluster.useful_share": (energy["useful_energy_j"]
                                 / energy["active_energy_j"]),
    })
    per_request: dict = {}
    for name in sorted(traces):
        for rid, joules in traces[name].active_energy_by_meta(
                "request").items():
            if rid is not None:
                per_request.setdefault(rid, []).append([name, joules])
    fingerprint = digest({
        "machines": {name: machine_numbers(machines[name])
                     for name in sorted(machines)},
        "requests": [
            [r.request_id, r.tenant, r.state, r.arrival_s, r.finish_s,
             list(r.result) if r.result is not None else None,
             per_request.get(r.request_id)]
            for r in requests
        ],
    })
    sim.update(pool_sim(node.db for node in coordinator.nodes))
    return Round(
        window=(t0, t2), attempted=n_ops,
        ops=counts["completed"] + counts["degraded_partial"],
        ops_window=(t0, t2), op_spans=_batches(t0, driver.stamps[:n_ops]),
        instructions=_instructions(ordered) - instr0,
        failed=failed, checks=checks, fingerprint=fingerprint, sim=sim,
    )


#: Workload name -> one-round function.
WORKLOADS = {
    "paper-profile": paper_profile,
    "serve-points": partial(serve, "serve-points"),
    "serve-kv": partial(serve, "serve-kv"),
    "cluster-sql": cluster_sql,
}
