"""The benchmark's own checks: seeded, deterministic, exec-mode
independent fingerprints, invariants on a held-out seed, the traced
run's accounting, and the pinned fingerprints.

Run from the repository root::

    python3 -m pytest perfbench/tests -q

The pinned-fingerprint tests run each workload at full size
(paper-profile takes about a minute); the rest use the small shapes.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import perfbench.workloads
from perfbench.hostclock import HostClock
from perfbench.run import ROOT, SPEC, per_layer, verdict
from perfbench.trace import SpanRecorder
from perfbench.workloads import WORKLOADS

NAMES = sorted(WORKLOADS)
SMALL_SEED = 11
HELD_OUT_SEED = 424242


def small_round(name, seed=SMALL_SEED, exec_mode="batched"):
    return WORKLOADS[name](seed, exec_mode=exec_mode, small=True)()


@pytest.fixture(scope="module")
def batched():
    return {name: small_round(name) for name in NAMES}


@pytest.mark.parametrize("name", NAMES)
def test_exec_modes_give_identical_fingerprints(batched, name):
    reference = small_round(name, exec_mode="reference")
    assert reference.fingerprint == batched[name].fingerprint


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_same_fingerprint(batched, name):
    assert small_round(name).fingerprint == batched[name].fingerprint


@pytest.mark.parametrize("name", NAMES)
def test_seed_reaches_the_inputs(batched, name):
    assert (small_round(name, seed=SMALL_SEED + 1).fingerprint
            != batched[name].fingerprint)


@pytest.mark.parametrize("name", NAMES)
def test_held_out_seed_passes_every_check(name):
    result = small_round(name, seed=HELD_OUT_SEED)
    assert result.checks and all(result.checks.values()), result.checks
    assert result.failed == 0
    assert result.attempted >= 1 and result.ops >= 1


@pytest.mark.parametrize("name", NAMES)
def test_traced_round_accounts_for_its_wall_time(batched, name):
    with HostClock() as clock:
        base = small_round(name)
        rec = SpanRecorder(clock=clock.probe_free)
        with rec.installed():
            traced = WORKLOADS[name](SMALL_SEED, small=True, spans=rec)()
        metrics = per_layer(rec, traced, base, clock)
    # Tracing only times: the simulated outputs are unchanged.
    assert traced.fingerprint == batched[name].fingerprint
    phases = rec.phases()
    assert sorted(phases) == ["setup", "timed"]
    for root, rows in phases.items():
        assert sum(r["self_s"] for r in rows) == pytest.approx(
            rec.total_s(root), rel=1e-9)
    residual_bound = json.load(open(SPEC))["residual_bound_pct"]
    assert 0.0 <= metrics["trace.residual_pct"] < residual_bound
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    assert {m["name"] for m in bench["per_layer"]} == set(metrics)


@pytest.mark.parametrize("name", ["serve-points", "serve-kv"])
def test_rows_check_counts_apart_from_the_serve_loop(monkeypatch, name):
    # One row fewer per points job than the serve loop delivers, or per
    # YCSB job: the check compares against the job sizes, so it fails.
    sizes = {job: rows - 1 for job, rows
             in perfbench.workloads.JOB_ROWS.items()}
    monkeypatch.setattr(perfbench.workloads, "JOB_ROWS", sizes)
    result = small_round(name)
    assert result.checks["rows_delivered"] is False
    assert result.failed == result.attempted


def test_small_shape_mismatch_fails_every_operation(batched):
    rounds = [batched["serve-kv"], batched["serve-kv"]]
    pinned = {"seed": 1, "small": "0" * 64, "full": "0" * 64}
    failed, problems = verdict(batched["serve-kv"], rounds, 2, pinned)
    assert failed == sum(r.attempted for r in rounds)
    assert any("small-shape fingerprint" in p for p in problems)


@pytest.mark.parametrize("name", NAMES)
def test_pinned_small_fingerprint(name):
    pinned = json.load(open(SPEC))["pinned"][name]
    assert small_round(name, seed=pinned["seed"]).fingerprint == pinned["small"]


@pytest.mark.parametrize("name", NAMES)
def test_pinned_fingerprint(name):
    pinned = json.load(open(SPEC))["pinned"][name]
    result = WORKLOADS[name](pinned["seed"])()
    assert result.failed == 0 and all(result.checks.values())
    assert result.fingerprint == pinned["full"]


def test_spec_names_what_each_per_layer_metric_should_move():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    rationale = json.load(open(SPEC))["per_layer"]
    assert [m["name"] for m in bench["per_layer"]] == list(rationale)
    workloads = {w["name"] for w in bench["workloads"]} | {"all"}
    for entry in rationale.values():
        assert entry["moves"] and set(entry["on"]) <= workloads


def test_refuses_to_run_without_program_source(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-kv",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
