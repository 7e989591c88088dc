"""Cross-engine equivalence of the serve core.

The event-driven serve loop batches whole quanta through the batched
executor; the contract is that nothing observable moves: per-tenant
joules, the useful/wasted split, fault sites hit, retry/deadline/
breaker decisions, latency percentiles, and counters are bit-identical
between ``exec_mode="reference"`` and ``exec_mode="batched"``.  These
tests serialise whole serve reports (the only differing config field,
``exec_mode``, dropped) and compare bytes across the policy, fault,
and driver matrix.

Also here: event-ordering determinism (equal-timestamp arrivals are
tie-broken by issue sequence, so repeated runs are byte-identical) and
the batched-quantum protocol (``run_rows`` versus per-row ``__next__``
charge identical micro-ops).
"""

import json

import pytest

from repro import Machine, intel_i7_4790
from repro.bench import run_rows_by_next
from repro.faults import FaultPlan
from repro.serve import ServeConfig, run_serve
from repro.serve.workload import (
    POINT_RING_LINES,
    _PointRun,
)


def _config(exec_mode: str, **overrides) -> ServeConfig:
    base = dict(workload="basic", clients=4, queries=12, tenants=2,
                cores=2, mpl=2, quantum_rows=8, seed=42, tier="10MB",
                mode="closed", exec_mode=exec_mode)
    base.update(overrides)
    return ServeConfig(**base)


def _report_bytes(exec_mode: str, **overrides) -> str:
    report = run_serve(_config(exec_mode, **overrides))
    del report["config"]["exec_mode"]
    return json.dumps(report, sort_keys=True)


def _assert_cross_mode_identical(**overrides) -> None:
    assert (_report_bytes("reference", **overrides)
            == _report_bytes("batched", **overrides))


class TestCrossEngineReports:
    @pytest.mark.parametrize("policy", ["fifo", "sjf", "locality"])
    def test_policies(self, policy):
        # Closed-loop initial arrivals all land at t=0: every dispatch
        # decision rides on tie order, so a policy-selection divergence
        # between engines would flip the whole report.
        _assert_cross_mode_identical(policy=policy)

    def test_locality_on_thrash_mix(self):
        _assert_cross_mode_identical(workload="thrash", policy="locality",
                                     clients=3, queries=6)

    def test_faults_retries_and_breaker(self):
        _assert_cross_mode_identical(
            faults=FaultPlan(request_error_p=0.2, disk_error_p=0.05),
            retries=2, breaker_threshold=0.6, breaker_window=8,
        )

    def test_deadlines_shed_identically(self):
        _assert_cross_mode_identical(
            deadline_s=0.0005, faults=FaultPlan(request_error_p=0.1),
            retries=1,
        )

    def test_open_loop_points_with_sampler(self):
        _assert_cross_mode_identical(
            workload="points", mode="open", rate_qps=2000.0,
            clients=6, queries=30, telemetry="sampler",
        )

    def test_kv_mix(self):
        _assert_cross_mode_identical(workload="kv", clients=3, queries=9)


class TestEventOrderingDeterminism:
    def test_closed_loop_runs_are_byte_identical(self):
        # All clients arrive at t=0.0 and every quantum boundary is an
        # exact float: the heap tie-break (arrival seq, core index)
        # must be total, never falling back to unstable comparisons.
        assert (_report_bytes("batched")
                == _report_bytes("batched"))

    def test_open_loop_runs_are_byte_identical(self):
        kwargs = dict(workload="points", mode="open", rate_qps=5000.0,
                      clients=8, queries=64)
        assert (_report_bytes("batched", **kwargs)
                == _report_bytes("batched", **kwargs))


class TestRunRowsProtocol:
    """``run_rows(n)`` must charge exactly what n ``__next__`` calls do."""

    @staticmethod
    def _counters(exec_mode, drive):
        machine = Machine(intel_i7_4790(scale=16), exec_mode=exec_mode)
        ring = machine.address_space.alloc_lines(POINT_RING_LINES, "ring")
        state = machine.address_space.alloc(256, label="state")
        run = _PointRun(machine, ring, state)
        drive(run)
        machine.settle()
        return machine.cpu.counters.as_dict()

    @staticmethod
    def _bulk(run, quantum=16):
        while run.run_rows(quantum):
            pass

    @staticmethod
    def _per_row(run):
        for _ in run:
            pass

    @pytest.mark.parametrize("exec_mode", ["reference", "batched"])
    def test_bulk_matches_per_row(self, exec_mode):
        assert (self._counters(exec_mode, self._bulk)
                == self._counters(exec_mode, self._per_row))

    def test_odd_quantum_split(self):
        # 48 rows in quanta of 7 exercises the short final quantum.
        assert (self._counters("batched", lambda r: self._bulk(r, 7))
                == self._counters("batched", self._per_row))

    def test_run_rows_reports_exhaustion(self):
        machine = Machine(intel_i7_4790(scale=16), exec_mode="batched")
        ring = machine.address_space.alloc_lines(POINT_RING_LINES, "ring")
        state = machine.address_space.alloc(256, label="state")
        run = _PointRun(machine, ring, state)
        done = run.run_rows(1000)
        assert done < 1000  # fewer than asked == request exhausted
        assert run.run_rows(1) == 0


class TestSqlMixRunRowsVsNext:
    """The serve loop runs every quantum through ``run_rows``; patching
    the per-row oracle (``n`` counted ``next`` pulls) over
    ``SessionRows.run_rows`` must produce byte-identical whole reports
    on the SQL mixes, across the policy x fault x deadline grid."""

    GRID = [
        dict(policy="fifo"),
        dict(policy="sjf"),
        dict(policy="locality"),
        dict(policy="fifo",
             faults=FaultPlan(request_error_p=0.15), retries=2),
        dict(policy="sjf",
             faults=FaultPlan(request_error_p=0.15), retries=2),
        dict(policy="locality", deadline_s=0.0008),
        dict(policy="fifo", deadline_s=0.0008,
             faults=FaultPlan(request_error_p=0.1), retries=1),
        dict(policy="sjf", deadline_s=0.0008,
             faults=FaultPlan(request_error_p=0.1), retries=1),
        dict(policy="locality",
             faults=FaultPlan(request_error_p=0.15), retries=2,
             deadline_s=0.0008),
    ]

    @staticmethod
    def _next_only_report(monkeypatch, exec_mode, **overrides) -> str:
        from repro.db.engine import SessionRows

        with monkeypatch.context() as m:
            m.setattr(SessionRows, "run_rows", run_rows_by_next)
            report = run_serve(_config(exec_mode, **overrides))
        report.pop("config")
        return json.dumps(report, sort_keys=True)

    @staticmethod
    def _run_rows_report(exec_mode, **overrides) -> str:
        report = run_serve(_config(exec_mode, **overrides))
        report.pop("config")
        return json.dumps(report, sort_keys=True)

    @pytest.mark.parametrize("cell", GRID,
                             ids=lambda c: "-".join(
                                 f"{k}" for k in sorted(c)))
    def test_grid_cell_byte_identical(self, monkeypatch, cell):
        kwargs = dict(clients=3, queries=8, **cell)
        assert (self._run_rows_report("batched", **kwargs)
                == self._next_only_report(monkeypatch, "batched", **kwargs))

    def test_reference_engine_cell(self, monkeypatch):
        kwargs = dict(policy="sjf",
                      faults=FaultPlan(request_error_p=0.15), retries=2,
                      clients=3, queries=8)
        assert (self._run_rows_report("reference", **kwargs)
                == self._next_only_report(monkeypatch, "reference",
                                          **kwargs))


class TestSuspendedSessionCounters:
    """A plan-backed session suspended and resumed across quantum
    boundaries (small ``run_rows`` quanta) must charge exactly the
    micro-ops of a straight drain — in both engines, with identical
    counters across engines — including suspension points that land
    mid-aggregate and mid-sort output."""

    AGG_SQL = ("SELECT l_orderkey, SUM(l_quantity), COUNT(*) "
               "FROM lineitem GROUP BY l_orderkey")
    SORT_SQL = ("SELECT l_orderkey, l_extendedprice FROM lineitem "
                "WHERE l_quantity < 30 ORDER BY l_extendedprice")

    @staticmethod
    def _drive(exec_mode: str, sql_text: str, quantum: int | None):
        from repro import tiny_intel
        from repro.db import Database, postgres_like
        from repro.workloads.tpch import TpchData, load_into

        machine = Machine(tiny_intel(), exec_mode=exec_mode)
        db = Database(machine, postgres_like(), name="chop")
        load_into(db, TpchData("10MB"))
        it = db.execute_iter(db.sql_plan(sql_text), slot=0)
        boundaries = 0
        if quantum is None:
            it.fetch_all()
        else:
            while it.run_rows(quantum) == quantum:
                boundaries += 1
        machine.settle()
        return machine.cpu.counters.as_dict(), boundaries

    @pytest.mark.parametrize("sql_text", [AGG_SQL, SORT_SQL],
                             ids=["mid-aggregate", "mid-sort"])
    def test_chopped_counters_identical_across_engines(self, sql_text):
        ref, ref_b = self._drive("reference", sql_text, quantum=5)
        bat, bat_b = self._drive("batched", sql_text, quantum=5)
        assert ref_b == bat_b
        assert ref_b > 3  # >= 3 suspend/resume boundaries mid-stream
        assert ref == bat

    @pytest.mark.parametrize("sql_text", [AGG_SQL, SORT_SQL],
                             ids=["mid-aggregate", "mid-sort"])
    def test_chopped_matches_straight_drain(self, sql_text):
        chopped, boundaries = self._drive("batched", sql_text, quantum=5)
        straight, _ = self._drive("batched", sql_text, quantum=None)
        assert boundaries > 3
        assert chopped == straight
