"""The one waste ledger behind serve and cluster energy accounting.

``repro.serve.report.waste_ledger`` classifies every machine's Active
energy for both subsystems; only the rule for a delivered request's
losing attempt differs.  The digests below pin whole cluster reports
and serve ``energy`` sections at fixed seeds, as computed when each
subsystem still kept its own copy of the classification loop: sharing
the ledger must not move a single float.
"""

import hashlib
import json

import pytest

from repro.cluster import ClusterConfig, run_cluster
from repro.faults import FaultPlan
from repro.serve import ServeConfig, run_serve
from repro.serve.report import state_counts, waste_ledger

CLUSTER_REPORT_SHA256 = (
    "39c38638f47c142feb44ce9abb026f19859fb46a053db2c5dfc1c19169845ea3")

#: Serve ``energy`` section digests per telemetry mode (the full span
#: tracer and the sampler's streaming partition).
SERVE_ENERGY_SHA256 = {
    "full": "4c935d8c2bf012425ef49976dfc077a0887f4abdfc9f77390dd667d937ec2153",
    "sampler":
        "90397d67bdf325c13c724851c1941ec1188b2e84d6c57b5be51a13ee26e2e880",
}


def _digest(doc: dict) -> str:
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True).encode()).hexdigest()


class TestPinnedReports:
    def test_cluster_report_bytes(self):
        report = run_cluster(ClusterConfig(
            nodes=3, replication=2, clients=3, queries=12, tier="10MB",
            seed=11,
            faults=FaultPlan(node_crash_p=0.05, node_slow_p=0.1,
                             net_drop_p=0.05, net_partition_p=0.02),
        ))
        assert _digest(report) == CLUSTER_REPORT_SHA256

    @pytest.mark.parametrize("telemetry", sorted(SERVE_ENERGY_SHA256))
    def test_resilient_serve_energy_bytes(self, telemetry):
        report = run_serve(ServeConfig(
            tier="10MB", queries=24, clients=3, seed=5, scale=64,
            retries=2, deadline_s=0.05, telemetry=telemetry,
            faults=FaultPlan(disk_error_p=0.3, request_error_p=0.1,
                             core_stall_p=0.1, page_corrupt_p=0.1),
        ))
        energy = report["energy"]
        # Waste from both the attempt rule and span tags is pinned.
        assert {"retried", "page_repair"} <= set(
            energy["wasted_by_reason_j"])
        assert _digest(energy) == SERVE_ENERGY_SHA256[telemetry]


class _Req:
    def __init__(self, request_id, state):
        self.request_id = request_id
        self.state = state


class _Partition:
    """A trace stand-in: a fixed ``(request, attempt, wasted)`` partition."""

    def __init__(self, groups: dict):
        self.groups = groups

    def active_energy_by_metas(self, keys):
        assert keys == ("request", "attempt", "wasted")
        return dict(self.groups)


class TestLedgerRules:
    REQUESTS = [_Req(0, "completed"), _Req(1, "failed")]

    def test_classification_and_per_machine_exactness(self):
        traces = {
            "b": _Partition({(0, 1, None): 1.0, (0, 2, None): 2.0,
                             (None, None, None): 0.5}),
            "a": _Partition({(1, 1, None): 4.0, (0, 2, "stall"): 0.25,
                             (None, None, "page_repair"): 0.125}),
        }
        split = waste_ledger(
            traces, self.REQUESTS,
            lambda req, attempt: "retried" if attempt < 2 else None)
        assert split["by_reason_j"] == {
            "failed": 4.0, "page_repair": 0.125, "retried": 1.0,
            "stall": 0.25,
        }
        assert split["per_machine"] == {
            "a": {"useful_j": 0.0, "wasted_j": 4.375},
            "b": {"useful_j": 2.5, "wasted_j": 1.0},
        }
        assert split["useful_j"] == 2.5 and split["wasted_j"] == 5.375

    def test_delivered_states_decide_what_is_charged_whole(self):
        traces = {"m": _Partition({(1, 1, None): 4.0})}
        split = waste_ledger(traces, self.REQUESTS, lambda r, a: None,
                             delivered=("completed", "failed"))
        assert split["wasted_j"] == 0.0 and split["by_reason_j"] == {}

    def test_state_counts_keeps_zero_states(self):
        assert state_counts(self.REQUESTS, ("completed", "shed")) == {
            "issued": 2, "completed": 1, "shed": 0,
        }
