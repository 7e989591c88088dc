"""Resilient serving under injected faults: retries, deadlines, the
circuit breaker, and the exact useful/wasted energy split."""

import json

import pytest

from repro.bench import run_rows_by_next
from repro.errors import ConfigError, FaultError
from repro.faults import FaultPlan
from repro.obs.metrics import MetricsRegistry
from repro.serve import ServeConfig, run_serve
from repro.serve.request import JobTemplate, Request
from repro.serve.resilience import CircuitBreaker, RetryManager


def small_config(**overrides) -> ServeConfig:
    base = dict(workload="basic", clients=4, queries=8, tenants=2,
                cores=2, mpl=2, quantum_rows=8, seed=42, tier="10MB",
                mode="closed")
    base.update(overrides)
    return ServeConfig(**base)


def request(i, failures=0):
    job = JobTemplate(name="j", tables=("t",), cost=1.0,
                      make=lambda slot: iter(()))
    return Request(request_id=i, tenant="tenant0", client=i, job=job,
                   arrival_s=0.0, failures=failures)


class TestRetryManager:
    def test_respects_per_request_limit(self):
        retry = RetryManager(root_seed=1, max_retries=2)
        r = request(0, failures=1)
        assert retry.admit_retry(r)
        r.failures = 3  # past the limit
        assert not retry.admit_retry(r)

    def test_budget_is_global(self):
        retry = RetryManager(root_seed=1, max_retries=5, budget=2)
        assert retry.admit_retry(request(0, failures=1))
        assert retry.admit_retry(request(1, failures=1))
        assert not retry.admit_retry(request(2, failures=1))
        assert retry.spent == 2

    def test_backoff_doubles_per_failure(self):
        retry = RetryManager(root_seed=1, backoff_s=0.01, jitter=0.0)
        assert retry.backoff_s(request(0, failures=1)) == pytest.approx(0.01)
        assert retry.backoff_s(request(0, failures=3)) == pytest.approx(0.04)

    def test_jitter_is_deterministic_and_bounded(self):
        a = RetryManager(root_seed=9, backoff_s=0.01, jitter=0.5)
        b = RetryManager(root_seed=9, backoff_s=0.01, jitter=0.5)
        r = request(4, failures=2)
        assert a.backoff_s(r) == b.backoff_s(r)
        assert 0.01 <= a.backoff_s(r) <= 0.03
        # A different attempt of the same request draws differently.
        assert a.backoff_s(r) != a.backoff_s(request(4, failures=3))

    def test_counter_recorded(self):
        metrics = MetricsRegistry()
        retry = RetryManager(root_seed=1, metrics=metrics)
        retry.admit_retry(request(0, failures=1))
        assert metrics.snapshot()["serve.retries"] == 1

    def test_validation(self):
        with pytest.raises(ConfigError):
            RetryManager(root_seed=1, max_retries=-1)
        with pytest.raises(ConfigError):
            RetryManager(root_seed=1, backoff_s=0.0)
        with pytest.raises(ConfigError):
            RetryManager(root_seed=1, jitter=1.0)


class TestCircuitBreaker:
    def test_trips_on_full_failing_window(self):
        breaker = CircuitBreaker(0.5, window=4, cooloff_s=1.0)
        for _ in range(3):
            breaker.record(False, now=0.0)
        assert not breaker.degraded(0.0)  # window not yet full
        breaker.record(False, now=0.0)
        assert breaker.trips == 1
        assert breaker.degraded(0.5)

    def test_cooloff_closes_in_sim_time(self):
        breaker = CircuitBreaker(0.5, window=2, cooloff_s=1.0)
        breaker.record(False, now=0.0)
        breaker.record(False, now=0.0)
        assert breaker.degraded(0.9)
        assert not breaker.degraded(1.0)
        assert breaker.open_until is None

    def test_successes_keep_it_closed(self):
        breaker = CircuitBreaker(0.75, window=4, cooloff_s=1.0)
        for outcome in (True, True, True, False) * 5:
            breaker.record(outcome, now=0.0)
        assert breaker.trips == 0

    def test_window_cleared_on_trip(self):
        breaker = CircuitBreaker(0.5, window=2, cooloff_s=0.1)
        breaker.record(False, 0.0)
        breaker.record(False, 0.0)
        assert breaker.trips == 1
        # After the cooloff one more failure is not a full window yet.
        breaker.record(False, 1.0)
        assert breaker.trips == 1

    def test_validation(self):
        with pytest.raises(ConfigError):
            CircuitBreaker(0.0)
        with pytest.raises(ConfigError):
            CircuitBreaker(0.5, window=0)
        with pytest.raises(ConfigError):
            CircuitBreaker(0.5, cooloff_s=0.0)

    def test_half_open_recovery_after_window_clears(self):
        """Regression: outcomes observed while the breaker is open must
        be dropped, not windowed.  Before the fix, failures recorded
        during the cooloff lingered in the sliding window and re-tripped
        the breaker on the very first post-cooloff *success*, so the
        server never actually left degraded mode under sustained load.
        """
        breaker = CircuitBreaker(0.5, window=2, cooloff_s=0.1)
        breaker.record(False, 0.0)
        breaker.record(False, 0.0)
        assert breaker.trips == 1
        assert breaker.degraded(0.05)
        # In-flight attempts keep failing during the cooloff...
        breaker.record(False, 0.05)
        breaker.record(False, 0.06)
        # ...but the first post-cooloff outcome is a success: the breaker
        # must close and judge only fresh evidence.
        breaker.record(True, 0.2)
        assert breaker.trips == 1
        assert not breaker.degraded(0.2)
        assert list(breaker.outcomes) == [True]
        # A healthy full window keeps it closed for good.
        breaker.record(True, 0.21)
        assert breaker.trips == 1
        assert not breaker.degraded(0.3)


def _key_shape(report: dict) -> dict:
    """The key sets of every section whose keys do not depend on what
    happened in the run (tenant names, fault sites, waste reasons,
    metric names and sampler telemetry do)."""
    shape = {
        "": set(report),
        "config": set(report["config"]),
        "counts": set(report["counts"]),
        "latency_s": set(report["latency_s"]),
        "energy": set(report["energy"]),
        "energy.request_energy_j": set(report["energy"]["request_energy_j"]),
        "clock": set(report["clock"]),
        "resilience": set(report["resilience"]),
    }
    for name, tenant in report["tenants"].items():
        shape[f"tenants.{name}"] = set(tenant)
        shape[f"tenants.{name}.counts"] = set(tenant["counts"])
        shape[f"tenants.{name}.latency_s"] = set(tenant["latency_s"])
    return shape


class TestOneReportShape:
    """Every serve config produces one report key shape (schema v2)."""

    def test_every_config_reports_one_shape(self):
        default = run_serve(small_config())
        chaos = run_serve(small_config(
            faults=FaultPlan(request_error_p=0.2, core_stall_p=0.1),
            retries=2, deadline_s=0.05,
        ))
        sampler = run_serve(small_config(telemetry="sampler"))
        off = run_serve(small_config(telemetry="off"))
        assert chaos["resilience"]["faults_injected"]
        shape = _key_shape(default)
        for report in (chaos, sampler, off):
            assert _key_shape(report) == shape
            assert "mode" in report["telemetry"]
        assert default["telemetry"] == {"mode": "full"}
        # A plain, fault-free run reports its split too: nothing wasted,
        # and the conservation identity holds exactly.
        energy = default["energy"]
        assert energy["wasted_energy_j"] == 0.0
        assert energy["wasted_by_reason_j"] == {}
        assert (energy["useful_energy_j"] + energy["wasted_energy_j"]
                == energy["active_energy_j"])


class TestPlainRunUnchanged:
    """Zero faults cost nothing: the simulation itself does not move."""

    def test_no_resilience_keys(self):
        """A plain run reports the resilience section, but nothing in it
        moved: no faults, retries, trips or stalls, and no wasted energy."""
        report = run_serve(small_config())
        assert report["config"]["faults"] is None
        assert report["resilience"] == {
            "faults_injected": {}, "retries_spent": 0, "breaker_trips": 0,
            "core_stalls": 0, "disk_fault_errors": 0,
            "disk_fault_slowdowns": 0, "disk_read_retries": 0,
        }
        counts = report["counts"]
        assert counts["failed"] == 0
        assert counts["deadline_exceeded"] == 0
        assert counts["shed_degraded"] == 0
        assert report["energy"]["wasted_energy_j"] == 0.0
        assert report["energy"]["wasted_by_reason_j"] == {}

    def test_all_zero_fault_plan_is_free(self):
        """FaultPlan() with every probability zero arms nothing: the
        energies match a plain run bit for bit (pay-as-you-go)."""
        plain = run_serve(small_config())
        chaos = run_serve(small_config(faults=FaultPlan()))
        assert "resilience" in chaos  # the section exists...
        assert chaos["resilience"]["faults_injected"] == {}
        # ...but the simulation itself is untouched.
        assert (chaos["energy"]["total_active_j"]
                == plain["energy"]["total_active_j"])
        assert chaos["clock"] == plain["clock"]
        assert chaos["counts"]["completed"] == plain["counts"]["completed"]


class TestChaosServing:
    def chaos_config(self, **overrides):
        base = dict(faults=FaultPlan(request_error_p=0.1), retries=3,
                    retry_jitter=0.0)
        base.update(overrides)
        return small_config(**base)

    def test_retries_recover_failed_attempts(self):
        report = run_serve(self.chaos_config())
        counts = report["counts"]
        res = report["resilience"]
        assert res["faults_injected"].get("request.error", 0) > 0
        assert res["retries_spent"] > 0
        terminal = (counts["completed"] + counts["failed"]
                    + counts["deadline_exceeded"] + counts["shed_degraded"]
                    + counts["rejected_queue"] + counts["rejected_quota"]
                    + counts["shed_timeout"])
        assert terminal == counts["issued"]
        assert counts["completed"] > 0

    def test_energy_split_identity_is_exact(self):
        report = run_serve(self.chaos_config())
        energy = report["energy"]
        # The acceptance identity: exact float equality by construction.
        assert (energy["useful_energy_j"] + energy["wasted_energy_j"]
                == energy["active_energy_j"])
        # And the split is a partition of the measured total.
        assert energy["active_energy_j"] == pytest.approx(
            energy["total_active_j"], rel=1e-9)
        assert energy["wasted_energy_j"] > 0
        assert sum(energy["wasted_by_reason_j"].values()) == pytest.approx(
            energy["wasted_energy_j"], rel=1e-12)

    def test_retried_energy_classified_as_wasted(self):
        report = run_serve(self.chaos_config())
        reasons = report["energy"]["wasted_by_reason_j"]
        assert "retried" in reasons or "failed" in reasons

    def test_same_seed_byte_identical_reports(self):
        config = self.chaos_config(
            faults=FaultPlan(request_error_p=0.1, core_stall_p=0.1),
            breaker_threshold=0.5, breaker_window=4,
        )
        a = json.dumps(run_serve(config), indent=2, sort_keys=True)
        b = json.dumps(run_serve(config), indent=2, sort_keys=True)
        assert a == b

    def test_different_seed_differs(self):
        a = run_serve(self.chaos_config(seed=42))
        b = run_serve(self.chaos_config(seed=43))
        assert (a["energy"]["total_active_j"]
                != b["energy"]["total_active_j"])

    def test_fail_fast_without_retries(self):
        report = run_serve(small_config(
            faults=FaultPlan(request_error_p=1.0), retries=0))
        counts = report["counts"]
        assert counts["completed"] == 0
        assert counts["failed"] == counts["issued"]
        # Everything the run burned was wasted.
        energy = report["energy"]
        assert energy["wasted_energy_j"] > 0
        assert "failed" in energy["wasted_by_reason_j"]

    def test_deadline_abandons_requests(self):
        report = run_serve(small_config(deadline_s=1e-7))
        counts = report["counts"]
        assert counts["deadline_exceeded"] > 0
        assert counts["completed"] + counts["deadline_exceeded"] == \
            counts["issued"]
        assert "deadline_exceeded" in report["energy"]["wasted_by_reason_j"]
        assert report["counters"]["serve.deadline_exceeded"] == \
            counts["deadline_exceeded"]

    def test_breaker_trips_and_sheds_low_priority(self):
        report = run_serve(small_config(
            faults=FaultPlan(request_error_p=1.0),
            retries=0,
            breaker_threshold=0.5,
            breaker_window=4,
            breaker_cooloff_s=10.0,  # stay open for the whole run
            degrade_keep_tenants=1,
        ))
        res = report["resilience"]
        counts = report["counts"]
        assert res["breaker_trips"] >= 1
        assert counts["shed_degraded"] > 0
        # Only tenant1 (the low-priority tenant) is shed.
        assert report["tenants"]["tenant1"]["counts"]["shed_degraded"] > 0
        assert report["tenants"]["tenant0"]["counts"]["shed_degraded"] == 0

    def test_disk_and_corruption_faults_are_repaired(self):
        report = run_serve(ServeConfig(
            workload="tpch", clients=2, queries=10, tenants=2, cores=2,
            quantum_rows=32, seed=7, tier="10MB",
            faults=FaultPlan(disk_error_p=0.2, disk_slow_p=0.2,
                             page_corrupt_p=0.2),
            retries=2, retry_jitter=0.0,
        ))
        res = report["resilience"]
        injected = res["faults_injected"]
        assert injected.get("disk.error", 0) > 0
        assert injected.get("disk.slow", 0) > 0
        assert res["disk_fault_errors"] == injected["disk.error"]
        # Transparent IO retries absorbed the transient errors.
        assert res["disk_read_retries"] > 0
        assert report["counts"]["completed"] > 0
        energy = report["energy"]
        assert (energy["useful_energy_j"] + energy["wasted_energy_j"]
                == energy["active_energy_j"])

    def test_core_stalls_charged_as_time(self):
        report = run_serve(small_config(
            faults=FaultPlan(core_stall_p=0.5, core_stall_s=1e-3)))
        res = report["resilience"]
        assert res["core_stalls"] > 0
        assert res["core_stalls"] == \
            report["counters"]["cores.stalls"]

    def test_metrics_counter_consistency(self):
        report = run_serve(self.chaos_config())
        counters = report["counters"]
        admitted = counters.get("serve.admitted", 0)
        rejected = sum(v for name, v in counters.items()
                       if name.startswith("serve.rejected"))
        shed_degraded = counters.get("serve.shed_degraded", 0)
        # First offers only: retries re-enter with record=False, so
        # admission counters still partition the issued requests.
        assert admitted + rejected + shed_degraded == \
            report["counts"]["issued"]
        assert counters.get("serve.retries", 0) == \
            report["resilience"]["retries_spent"]


class TestDeadlineRetryInterplay:
    """Satellite: retry-budget exhaustion under ``request.error`` with a
    deadline in play.  An attempt that fails *past* the deadline is a
    deadline miss — it must classify as DEADLINE_EXCEEDED, never burn
    retry budget, and never be re-queued."""

    def config(self, **overrides):
        base = dict(workload="basic", clients=2, queries=6, tenants=2,
                    cores=2, mpl=2, quantum_rows=8, seed=42, tier="10MB",
                    mode="closed", retry_jitter=0.0,
                    faults=FaultPlan(request_error_p=1.0))
        base.update(overrides)
        return ServeConfig(**base)

    def test_failed_attempt_past_deadline_is_deadline_exceeded(self):
        # Every attempt fails, and by the time the first failure lands
        # the (tiny) deadline has always passed: no request may classify
        # as FAILED, and the generous retry budget must stay untouched.
        report = run_serve(self.config(
            retries=4, retry_budget=64, deadline_s=1e-9))
        counts = report["counts"]
        assert counts["deadline_exceeded"] == counts["issued"]
        assert counts["failed"] == 0
        assert counts["completed"] == 0
        assert report["resilience"]["retries_spent"] == 0

    def test_budget_exhausted_at_deadline_boundary(self):
        # Budget already exhausted (0) when the deadline passes: the
        # deadline classification must win over budget-exhaustion
        # (DEADLINE_EXCEEDED, not FAILED).
        report = run_serve(self.config(
            retries=4, retry_budget=0, deadline_s=1e-9))
        counts = report["counts"]
        assert counts["deadline_exceeded"] == counts["issued"]
        assert counts["failed"] == 0

    def test_budget_exhaustion_without_deadline_is_failed(self):
        # Contrast: same failing load, no deadline — budget exhaustion
        # classifies as FAILED and spends exactly the budget.
        report = run_serve(self.config(retries=4, retry_budget=3))
        counts = report["counts"]
        assert counts["failed"] == counts["issued"]
        assert counts["deadline_exceeded"] == 0
        assert report["resilience"]["retries_spent"] == 3

    def test_wasted_energy_reason_is_deadline(self):
        report = run_serve(self.config(
            retries=4, retry_budget=64, deadline_s=1e-9))
        energy = report["energy"]
        assert energy["useful_energy_j"] + energy["wasted_energy_j"] \
            == energy["active_energy_j"]
        assert "deadline_exceeded" in energy["wasted_by_reason_j"]
        assert "failed" not in energy["wasted_by_reason_j"]


class TestFailedAttemptRowAccounting:
    """Regression: rows accrued by a fault-killed attempt must not stick
    to the request — the client never received them.  Faults can surface
    from *inside* the work iterator (disk faults between row pulls),
    after the quantum has already produced some of its rows."""

    def _server_with_faulty_job(self):
        from repro import Machine, tiny_intel
        from repro.db import Database, postgres_like
        from repro.serve.loop import QueryServer
        from repro.serve.admission import AdmissionController
        from repro.serve.policies import FifoPolicy
        from repro.sim.cores import CoreSet

        machine = Machine(tiny_intel())
        db = Database(machine, postgres_like(), name="rows")

        class Faulty:
            """Three rows into its first quantum, a fault surfaces."""

            def __init__(self):
                self._rows = iter(range(3))

            def __next__(self):
                for row in self._rows:
                    return row
                raise FaultError("injected mid-quantum")

            run_rows = run_rows_by_next

        def faulty(slot):
            return Faulty()

        class _Driver:
            tenants = 1

            def on_terminal(self, client, now):
                return None

        core_set = CoreSet(machine, 1)
        server = QueryServer(
            db, core_set, AdmissionController(machine.metrics),
            FifoPolicy(), _Driver(), mpl=1, quantum_rows=8,
        )
        job = JobTemplate(name="faulty", tables=("t",), cost=1.0,
                          make=faulty)
        return server, job

    def test_mid_quantum_fault_rolls_back_rows(self):
        from repro.serve.request import FAILED

        server, job = self._server_with_faulty_job()
        req = Request(request_id=0, tenant="tenant0", client=0, job=job,
                      arrival_s=0.0)
        server.requests.append(req)
        server.admission.offer(req, 0.0)
        server.admission.take(req, 0.0)
        core = server.core_set.cores[0]
        req.slot = server._free_slots[core.index].pop(0)
        core.run_list.append(req)
        server._run_quantum(core)
        assert req.state == FAILED
        # The attempt pulled 3 rows before dying; none were delivered.
        assert req.rows == 0

    def test_report_rows_equal_delivered_rows_under_faults(self):
        plain = run_serve(small_config())
        assert plain["counts"]["completed"] == plain["counts"]["issued"]
        chaos = run_serve(small_config(
            faults=FaultPlan(request_error_p=0.05), retries=8,
            retry_jitter=0.0,
        ))
        assert chaos["resilience"]["faults_injected"].get(
            "request.error", 0) > 0
        # With every request eventually completing, the rows delivered
        # must match the fault-free run exactly: failed attempts leave
        # no trace in the row totals.
        assert chaos["counts"]["completed"] == chaos["counts"]["issued"]
        for tenant, stats in plain["tenants"].items():
            assert chaos["tenants"][tenant]["rows"] == stats["rows"]
