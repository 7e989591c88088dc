"""Cluster-run accounting: the scatter-gather report and energy split.

Same two properties as :mod:`repro.serve.report`, cluster-wide:

* **Determinism** — the report is a pure function of the config, so two
  runs with the same seed produce byte-identical JSON, across
  ``exec_mode`` reference/batched too.
* **Exact attribution** — every machine's Active energy is partitioned
  by the span-meta keys ``(request, attempt, wasted)``; the coordinator
  supplies a waste reason per losing attempt, so hedge-loser joules, a
  crashed node's lost partial work, and every failover re-read are
  itemised by cause in ``wasted_by_reason_j``.  Per machine,
  ``useful_j + wasted_j`` is *exactly* the partition total (one float
  sum, split two ways); the reported cluster ``active_energy_j`` is
  defined as ``useful + wasted`` so the conservation identity holds by
  construction, and ``node_active_sum_j`` carries the independently
  measured total for cross-checking.
"""

from __future__ import annotations

from typing import Sequence

from repro.cluster.coordinator import (
    DEGRADED_PARTIAL,
    ClusterCoordinator,
    ClusterRequest,
)
from repro.serve.report import (
    latency_summary,
    request_energy,
    state_counts,
    summary_lines,
    waste_ledger,
)
from repro.serve.request import COMPLETED, FAILED, SHED_DEGRADED

#: Version stamp on every cluster report.
CLUSTER_SCHEMA_VERSION = 1

#: Request states whose results reached the client (energy spent on
#: their winning attempts is useful).
DELIVERED_STATES = (COMPLETED, DEGRADED_PARTIAL)

#: Terminal request states a cluster report counts, in report order.
CLUSTER_STATES = (COMPLETED, DEGRADED_PARTIAL, FAILED, SHED_DEGRADED)


def cluster_energy_split(traces: dict, requests: Sequence[ClusterRequest],
                         attempt_outcomes: dict) -> dict:
    """The cluster run's :func:`~repro.serve.report.waste_ledger`.

    A delivered request's losing attempt (hedge loser, failover
    duplicate, crashed node's partial work, message lost on the wire,
    timed-out straggler) is wasted under the coordinator's recorded
    reason for it, ``attempt_outcomes[attempt]``.
    """
    return waste_ledger(
        traces, requests,
        lambda _request, attempt: attempt_outcomes.get(attempt),
        delivered=DELIVERED_STATES,
    )


def build_cluster_report(config, coordinator: ClusterCoordinator,
                         traces: dict, network, injector=None) -> dict:
    """Assemble the cluster run's JSON report.

    ``traces`` maps machine name ("coord", "node0", ...) to that
    machine's :class:`~repro.obs.span.Trace`.
    """
    requests = coordinator.requests
    delivered = [r for r in requests if r.state in DELIVERED_STATES]
    latencies = [r.latency_s for r in delivered]

    split = cluster_energy_split(traces, requests,
                                 coordinator.attempt_outcomes)
    node_active_sum_j = sum(traces[name].total_active_j
                            for name in sorted(traces))
    n_delivered = len(delivered)
    active_energy_j = split["useful_j"] + split["wasted_j"]
    energy_per_query_j = (active_energy_j / n_delivered
                          if n_delivered else None)

    nodes_section: dict = {}
    for node in coordinator.nodes:
        machine_split = split["per_machine"][node.name]
        nodes_section[node.name] = {
            "active_j": (machine_split["useful_j"]
                         + machine_split["wasted_j"]),
            "useful_j": machine_split["useful_j"],
            "wasted_j": machine_split["wasted_j"],
            "wall_s": node.machine.time_s,
            "busy_s": node.machine.busy_s,
            "idle_s": node.machine.idle_s,
            "subreqs_served": node.subreqs_served,
            "crashes": node.crashes,
            "slowdowns": node.slowdowns,
        }
    coord_split = split["per_machine"]["coord"]
    coord_machine = coordinator.machine
    coord_section = {
        "active_j": coord_split["useful_j"] + coord_split["wasted_j"],
        "useful_j": coord_split["useful_j"],
        "wasted_j": coord_split["wasted_j"],
        "wall_s": coord_machine.time_s,
        "busy_s": coord_machine.busy_s,
        "idle_s": coord_machine.idle_s,
    }

    makespan_s = max(
        [coord_machine.time_s]
        + [node.machine.time_s for node in coordinator.nodes]
    )

    report = {
        "schema_version": CLUSTER_SCHEMA_VERSION,
        "config": {
            "nodes": config.nodes,
            "replication": config.replication,
            "mode": config.mode,
            "clients": config.clients,
            "queries": config.queries,
            "tenants": config.tenants,
            "rate_qps": config.rate_qps,
            "think_s": config.think_s,
            "seed": config.seed,
            "engine": config.engine,
            "setting": config.setting,
            "tier": config.tier,
            "scale": config.scale,
            "exec_mode": config.exec_mode,
            "net_latency_s": config.net_latency_s,
            "net_bytes_per_s": config.net_bytes_per_s,
            "net_payload_factor": config.net_payload_factor,
            "faults": (config.faults.as_dict()
                       if config.faults is not None else None),
            "subreq_timeout_s": config.subreq_timeout_s,
            "failover_attempts": config.failover_attempts,
            "failover_backoff_s": config.failover_backoff_s,
            "hedge_quantile": config.hedge_quantile,
            "hedge_min_samples": config.hedge_min_samples,
            "allow_partial": config.allow_partial,
            "breaker_threshold": config.breaker_threshold,
            "breaker_window": config.breaker_window,
            "breaker_cooloff_s": config.breaker_cooloff_s,
            "degrade_keep_tenants": config.degrade_keep_tenants,
        },
        "counts": state_counts(requests, CLUSTER_STATES),
        "latency_s": latency_summary(latencies),
        "subrequests": {
            "sent": coordinator.subreqs_sent,
            "hedges": coordinator.hedges,
            "hedge_wins": coordinator.hedge_wins,
            "failovers": coordinator.failovers,
            "timeouts": coordinator.timeouts,
        },
        "energy": {
            "domain": next(iter(traces.values())).domain,
            "useful_energy_j": split["useful_j"],
            "wasted_energy_j": split["wasted_j"],
            # The conservation identity the chaos suite asserts: useful
            # plus wasted IS the cluster active total, by construction.
            "active_energy_j": active_energy_j,
            "node_active_sum_j": node_active_sum_j,
            "wasted_by_reason_j": split["by_reason_j"],
            "energy_per_query_j": energy_per_query_j,
            "request_energy_j": request_energy(traces),
        },
        "coordinator": coord_section,
        "nodes": nodes_section,
        "network": {
            "messages": network.messages,
            "bytes_sent": network.bytes_sent,
            "dropped": network.dropped,
            "partitioned": network.partitioned,
            "partition_episodes": network.partition_episodes,
            "link_latencies": network.link_latencies(),
        },
        "resilience": {
            "faults_injected": (injector.counts()
                                if injector is not None else {}),
            "breaker_trips": (coordinator.breaker.trips
                              if coordinator.breaker is not None else 0),
            "shed_degraded": coordinator.shed_degraded,
        },
        "clock": {
            "makespan_s": makespan_s,
            "events": coordinator.events,
        },
    }
    return report


def render_cluster_summary(report: dict,
                           elapsed_s: float | None = None) -> str:
    """Human-readable one-screen summary of a cluster report."""
    cfg = report["config"]
    subreqs = report["subrequests"]
    lines = [
        f"cluster: nodes={cfg['nodes']} rf={cfg['replication']} "
        f"queries={cfg['queries']} clients={cfg['clients']} "
        f"seed={cfg['seed']}",
        *summary_lines(report, report["clock"]["makespan_s"]),
        f"subrequests: sent={subreqs['sent']}  "
        f"hedged={subreqs['hedges']} (won {subreqs['hedge_wins']})  "
        f"failovers={subreqs['failovers']}  "
        f"timeouts={subreqs['timeouts']}  "
        f"shed={report['resilience']['shed_degraded']}",
    ]
    if elapsed_s is not None and elapsed_s > 0:
        lines.append(
            f"engine: mode={cfg['exec_mode']}  host={elapsed_s:.3f} s  "
            f"events/s={report['clock']['events'] / elapsed_s:.1f}"
        )
    return "\n".join(lines)
