"""Serve-run accounting: latency percentiles, energy, and the report.

The report is a plain JSON-serialisable dict with one key shape for
every config (schema v2): all request states, the resilience config and
section, the useful/wasted energy split and the telemetry section are
always present.  Two properties matter:

* **Determinism** — every value is a pure function of the run, so two
  runs with the same config and seed produce byte-identical JSON.
* **Exact attribution** — per-tenant Active energy comes from the span
  tree's partition (see
  :meth:`~repro.obs.span.Trace.active_energy_by_meta`), so the tenant
  shares plus the untagged system share sum to the run's measured
  Active energy to float precision.  ``energy.check_sum_j`` carries the
  recomputed sum so consumers can verify without re-walking spans.

The waste ledger, state counter, request-energy summary and summary
lines here are shared with :mod:`repro.cluster.report`.

Percentiles use the nearest-rank definition (no interpolation): the
p-th percentile of n sorted samples is the ``ceil(p/100 * n)``-th.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

from repro.obs.sampler import meta_order
from repro.obs.span import Trace
from repro.serve.loop import QueryServer, ServeConfig
from repro.serve.request import COMPLETED, TERMINAL_STATES, Request

PERCENTILES = (50, 95, 99)

#: Version stamp on every serve report; ``repro diff`` refuses to
#: compare reports with different stamps.
SERVE_SCHEMA_VERSION = 2

#: Span-meta keys the wasted-energy partition groups by.
WASTE_KEYS = ("request", "attempt", "wasted")

#: Waste reasons a summary names before it stops listing them.
SUMMARY_REASONS = 6


def percentile(samples: Sequence[float], p: float) -> Optional[float]:
    """Nearest-rank percentile; None on an empty sample set."""
    if not samples:
        return None
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def _summary(samples: Sequence[float], unit: str) -> dict:
    out: dict = {"n": len(samples)}
    out[f"mean_{unit}"] = (sum(samples) / len(samples)) if samples else None
    for p in PERCENTILES:
        out[f"p{p}_{unit}"] = percentile(samples, p)
    return out


def latency_summary(latencies: Sequence[float]) -> dict:
    return _summary(latencies, "s")


def state_counts(requests: Sequence, states: Sequence[str]) -> dict:
    """``issued`` plus one count per state in ``states`` (zeros kept)."""
    tally = dict.fromkeys(states, 0)
    for request in requests:
        if request.state in tally:
            tally[request.state] += 1
    return {"issued": len(requests), **tally}


def request_energy(traces: dict) -> dict:
    """Per-request Active joules (attempts and tags summed) summarised.

    ``traces`` maps machine name -> trace; each machine's partition is
    folded by request id in sorted machine order, so the sums are
    deterministic floats.
    """
    per_request: dict = {}
    for name in sorted(traces):
        by_request = traces[name].active_energy_by_meta("request")
        by_request.pop(None, None)
        for rid in sorted(by_request):
            per_request[rid] = per_request.get(rid, 0.0) + by_request[rid]
    return _summary([per_request[k] for k in sorted(per_request)], "j")


def waste_ledger(traces: dict, requests: Sequence,
                 lost_attempt: Callable[[object, object], Optional[str]],
                 delivered: tuple = (COMPLETED,)) -> dict:
    """Split every machine's Active energy into useful vs wasted joules.

    ``traces`` maps machine name -> trace.  Built on the exact multi-key
    span partition (:meth:`~repro.obs.span.Trace.active_energy_by_metas`
    over :data:`WASTE_KEYS`), so per machine ``useful_j + wasted_j`` is
    the partition total *exactly* (the same float sum, split two ways).
    Classification, per group ``(request, attempt, wasted)``:

    * a request whose state is not in ``delivered``: every joule it
      touched is wasted under its terminal state;
    * a delivered request's attempt: wasted under
      ``lost_attempt(request, attempt)`` when that names a reason;
    * otherwise spans tagged ``wasted`` (fault handling: transient-read
      idle, page repair, injected stalls) are wasted under the tag;
    * everything else — winning attempts, untagged idle gaps, scheduler
      work, data load if traced — is useful: the cost of running the
      service, not of faults.
    """
    state_of = {r.request_id: r.state for r in requests}
    useful_j = 0.0
    wasted_j = 0.0
    by_reason: dict = {}
    per_machine: dict = {}
    for name in sorted(traces):
        groups = traces[name].active_energy_by_metas(WASTE_KEYS)
        m_useful = 0.0
        m_wasted = 0.0
        for key in sorted(groups, key=meta_order):
            req, attempt, tag = key
            joules = groups[key]
            reason = None
            if req is not None:
                state = state_of.get(req)
                if state not in delivered:
                    reason = state or "unknown"
                else:
                    reason = lost_attempt(req, attempt)
            if reason is None:
                reason = tag
            if reason is None:
                m_useful += joules
            else:
                m_wasted += joules
                by_reason[reason] = by_reason.get(reason, 0.0) + joules
        useful_j += m_useful
        wasted_j += m_wasted
        per_machine[name] = {"useful_j": m_useful, "wasted_j": m_wasted}
    return {
        "useful_j": useful_j,
        "wasted_j": wasted_j,
        "by_reason_j": dict(sorted(by_reason.items())),
        "per_machine": per_machine,
    }


def energy_split(trace: Trace, requests: Sequence[Request]) -> dict:
    """The serve run's :func:`waste_ledger`: a request that COMPLETED at
    attempt N wastes its attempts before N under ``retried``."""
    final_attempt = {r.request_id: r.failures + 1 for r in requests}

    def retried(req, attempt) -> Optional[str]:
        if attempt is not None and attempt < final_attempt[req]:
            return "retried"
        return None

    return waste_ledger({"serve": trace}, requests, retried)


def build_report(config: ServeConfig, server: QueryServer,
                 trace: Trace, injector=None) -> dict:
    """Assemble the serve run's JSON report."""
    requests = server.requests
    machine = server.machine
    completed = [r for r in requests if r.state == COMPLETED]
    latencies = [r.latency_s for r in completed]

    by_meta = trace.active_energy_by_meta("tenant")
    system_j = by_meta.pop(None, 0.0)
    tenant_j = dict(sorted(by_meta.items()))
    total_active_j = trace.total_active_j
    n_completed = len(completed)
    energy_per_query_j = (total_active_j / n_completed
                          if n_completed else None)
    mean_latency = (sum(latencies) / len(latencies)) if latencies else None
    edp = (energy_per_query_j * mean_latency
           if energy_per_query_j is not None and mean_latency is not None
           else None)

    tenants: dict = {}
    # Single-pass bucketing: one scan of the request list, not one per
    # tenant (the per-tenant filter was O(requests x tenants), minutes
    # at a million requests over a thousand tenants).  Bucket order
    # preserves request order, so per-tenant sums are the same floats.
    by_tenant: dict = {}
    for r in requests:
        by_tenant.setdefault(r.tenant, []).append(r)
    tenant_names = sorted(by_tenant.keys() | set(tenant_j))
    for tenant in tenant_names:
        t_requests = by_tenant.get(tenant, [])
        t_completed = [r for r in t_requests if r.state == COMPLETED]
        t_latencies = [r.latency_s for r in t_completed]
        active_j = tenant_j.get(tenant, 0.0)
        tenants[tenant] = {
            "counts": state_counts(t_requests, TERMINAL_STATES),
            "latency_s": latency_summary(t_latencies),
            "active_j": active_j,
            "energy_per_query_j": (active_j / len(t_completed)
                                   if t_completed else None),
            "rows": sum(r.rows for r in t_completed),
        }

    snapshot = machine.metrics.snapshot()
    serve_counters = {
        name: value for name, value in sorted(snapshot.items())
        if name.startswith(("serve.", "cores.", "faults."))
        and isinstance(value, (int, float))
    }
    disk_retries = sum(
        value for name, value in snapshot.items()
        if name.startswith("bufferpool.disk_retries")
        and isinstance(value, (int, float))
    )
    split = energy_split(trace, requests)

    telemetry: dict = {"mode": config.telemetry}
    if config.telemetry == "sampler" and hasattr(trace, "group_table"):
        # Sampler mode: the summary carries the streaming aggregates.
        telemetry["groups"] = trace.group_table()
        telemetry["exemplars"] = {
            "rate": trace.exemplar_rate,
            "reservoir_size": config.reservoir_size,
            "offered": trace.exemplars_offered,
            "kept": len(trace.exemplars),
            "sample": [e.as_dict() for e in trace.exemplars[:5]],
        }

    return {
        "schema_version": SERVE_SCHEMA_VERSION,
        "config": {
            "workload": config.workload,
            "policy": config.policy,
            "dvfs": config.dvfs,
            "mode": config.mode,
            "clients": config.clients,
            "queries": config.queries,
            "tenants": config.tenants,
            "cores": config.cores,
            "mpl": config.mpl,
            "quantum_rows": config.quantum_rows,
            "max_queue": config.max_queue,
            "tenant_quota": config.tenant_quota,
            "queue_timeout_s": config.queue_timeout_s,
            "rate_qps": config.rate_qps,
            "think_s": config.think_s,
            "seed": config.seed,
            "engine": config.engine,
            "setting": config.setting,
            "tier": config.tier,
            "scale": config.scale,
            "exec_mode": config.exec_mode,
            "faults": (config.faults.as_dict()
                       if config.faults is not None else None),
            "retries": config.retries,
            "retry_backoff_s": config.retry_backoff_s,
            "retry_jitter": config.retry_jitter,
            "retry_budget": config.retry_budget,
            "deadline_s": config.deadline_s,
            "breaker_threshold": config.breaker_threshold,
            "breaker_window": config.breaker_window,
            "breaker_cooloff_s": config.breaker_cooloff_s,
            "degrade_keep_tenants": config.degrade_keep_tenants,
            "telemetry": config.telemetry,
            "exemplar_rate": config.exemplar_rate,
            "reservoir_size": config.reservoir_size,
            "timeline_out": config.timeline_out,
            "timeline_window_s": config.timeline_window_s,
        },
        "counts": state_counts(requests, TERMINAL_STATES),
        "latency_s": latency_summary(latencies),
        "tenants": tenants,
        "energy": {
            "domain": trace.domain,
            "total_active_j": total_active_j,
            "system_active_j": system_j,
            "tenant_active_j": tenant_j,
            "check_sum_j": system_j + sum(tenant_j.values()),
            "energy_per_query_j": energy_per_query_j,
            "edp_js": edp,
            "request_energy_j": request_energy({"serve": trace}),
            "useful_energy_j": split["useful_j"],
            "wasted_energy_j": split["wasted_j"],
            # The exact identity the chaos suite asserts: useful plus
            # wasted IS the active total, by construction.
            "active_energy_j": split["useful_j"] + split["wasted_j"],
            "wasted_by_reason_j": split["by_reason_j"],
        },
        "clock": {
            "wall_s": machine.time_s,
            "busy_s": machine.busy_s,
            "idle_s": machine.idle_s,
            "context_switches": server.core_set.context_switches,
            "quanta": server.quanta,
        },
        "counters": serve_counters,
        "resilience": {
            "faults_injected": (injector.counts()
                                if injector is not None else {}),
            "retries_spent": (server.retry.spent
                              if server.retry is not None else 0),
            "breaker_trips": (server.breaker.trips
                              if server.breaker is not None else 0),
            "core_stalls": server.core_set.stalls,
            "disk_fault_errors": machine.disk.fault_errors,
            "disk_fault_slowdowns": machine.disk.fault_slowdowns,
            "disk_read_retries": disk_retries,
        },
        "telemetry": telemetry,
    }


def _fmt(value, unit: str, precision: str = ".4g") -> str:
    return "n/a" if value is None else f"{value:{precision}} {unit}"


def summary_lines(report: dict, wall_s: float) -> list[str]:
    """The summary lines serve and cluster reports share: state counts,
    latency and per-request energy percentiles, Active energy over the
    run's simulated ``wall_s``, and the useful/wasted split with its
    largest reasons."""
    latency = report["latency_s"]
    energy = report["energy"]
    request_j = energy["request_energy_j"]
    reasons = ", ".join(
        f"{reason}={joules:.3g} J" for reason, joules in
        list(energy["wasted_by_reason_j"].items())[:SUMMARY_REASONS]
    ) or "none"
    return [
        "counts: " + "  ".join(
            f"{key}={value}" for key, value in report["counts"].items()
        ),
        f"latency: p50={_fmt(latency['p50_s'], 's')}  "
        f"p95={_fmt(latency['p95_s'], 's')}  "
        f"p99={_fmt(latency['p99_s'], 's')}  "
        f"mean={_fmt(latency['mean_s'], 's')}",
        f"energy/request: p50={_fmt(request_j['p50_j'], 'J')}  "
        f"p95={_fmt(request_j['p95_j'], 'J')}  "
        f"p99={_fmt(request_j['p99_j'], 'J')}  "
        f"mean={_fmt(request_j['mean_j'], 'J')}",
        f"energy: active={energy['active_energy_j']:.4g} J "
        f"({energy['domain']})  "
        f"per-query={_fmt(energy['energy_per_query_j'], 'J')}  "
        f"wall={wall_s:.4g} s",
        f"waste: useful={energy['useful_energy_j']:.4g} J  "
        f"wasted={energy['wasted_energy_j']:.4g} J  "
        f"reasons: {reasons}",
    ]


def render_serve_summary(report: dict, elapsed_s: float | None = None) -> str:
    """Human-readable one-screen summary of a serve report.

    The CLI prints this next to the JSON report; it surfaces what an
    operator looks at first — completion counts, latency percentiles,
    joules per request, and where energy was wasted.  ``elapsed_s`` is
    the *host* wall time of the run (measured by the caller, never
    stored in the report — the JSON stays a pure function of the
    config); when given, the summary adds an engine/throughput line
    with requests/s and quanta/s.
    """
    cfg = report["config"]
    clock = report["clock"]
    resilience = report["resilience"]
    telemetry = report["telemetry"]
    faults = " ".join(
        f"{site}={n}" for site, n in resilience["faults_injected"].items()
    ) or "none"
    lines = [
        f"serve: workload={cfg['workload']} queries={cfg['queries']} "
        f"clients={cfg['clients']} policy={cfg['policy']} "
        f"dvfs={cfg['dvfs']} seed={cfg['seed']}",
        *summary_lines(report, clock["wall_s"]),
        f"resilience: faults=[{faults}]  "
        f"retries={resilience['retries_spent']}  "
        f"breaker_trips={resilience['breaker_trips']}  "
        f"stalls={resilience['core_stalls']}  "
        f"disk_retries={resilience['disk_read_retries']}",
    ]
    if "exemplars" in telemetry:
        exemplars = telemetry["exemplars"]
        lines.append(
            f"telemetry: mode={telemetry['mode']}  "
            f"groups={len(telemetry.get('groups', {}))}  "
            f"exemplars={exemplars['kept']}/{exemplars['offered']} "
            f"(rate {exemplars['rate']:g})"
        )
    else:
        lines.append(f"telemetry: mode={telemetry['mode']}")
    if elapsed_s is not None and elapsed_s > 0:
        lines.append(
            f"engine: mode={cfg['exec_mode']}  "
            f"host={elapsed_s:.3f} s  "
            f"requests/s={report['counts']['issued'] / elapsed_s:.1f}  "
            f"quanta/s={clock['quanta'] / elapsed_s:.1f}"
        )
    return "\n".join(lines)
