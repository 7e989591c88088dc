"""Tests of the streaming sampling aggregator (``repro.obs.sampler``).

The load-bearing properties:

* **Conservation** — on a chaos serve run, ``useful_energy_j +
  wasted_energy_j == active_energy_j`` *exactly*, at every exemplar
  rate: sampling only thins the exemplar reservoir, never the
  aggregates.
* **Rate independence** — aggregates (group table, energy totals,
  waste split) are byte-identical across exemplar rates.
* **Full-tracer agreement** — the sampler's totals match the full span
  tracer's on the same seeded run.
"""

import json

import pytest

from repro.faults import FaultPlan
from repro.obs.sampler import NullTelemetry, SamplingAggregator
from repro.serve import ServeConfig, run_serve

#: Fault rates high enough that every run wastes visible joules over
#: several reasons (disk errors, page repair, retries, stalls).
CHAOS = dict(
    faults=FaultPlan(disk_error_p=0.3, request_error_p=0.1,
                     core_stall_p=0.1, page_corrupt_p=0.1),
    retries=2,
)

RATES = (1.0, 0.1, 0.01)


def _chaos_config(**overrides) -> ServeConfig:
    base = dict(
        tier="10MB", queries=24, clients=3, seed=5, scale=64,
        telemetry="sampler", **CHAOS,
    )
    base.update(overrides)
    return ServeConfig(**base)


@pytest.fixture(scope="module")
def chaos_reports():
    """One chaos serve run per exemplar rate (module-scoped: slow)."""
    return {rate: run_serve(_chaos_config(exemplar_rate=rate))
            for rate in RATES}


class TestConservation:
    @pytest.mark.parametrize("rate", RATES)
    def test_useful_plus_wasted_is_active(self, chaos_reports, rate):
        energy = chaos_reports[rate]["energy"]
        assert (energy["useful_energy_j"] + energy["wasted_energy_j"]
                == energy["active_energy_j"])

    def test_waste_is_visible(self, chaos_reports):
        energy = chaos_reports[RATES[0]]["energy"]
        assert energy["wasted_energy_j"] > 0
        assert len(energy["wasted_by_reason_j"]) >= 2

    def test_split_matches_full_tracer(self, chaos_reports):
        full = run_serve(_chaos_config(telemetry="full"))
        sampled = chaos_reports[1.0]
        assert (sampled["energy"]["total_active_j"]
                == pytest.approx(full["energy"]["total_active_j"],
                                 abs=1e-12))
        assert (sampled["energy"]["wasted_energy_j"]
                == pytest.approx(full["energy"]["wasted_energy_j"],
                                 abs=1e-12))
        for reason, joules in full["energy"]["wasted_by_reason_j"].items():
            assert (sampled["energy"]["wasted_by_reason_j"][reason]
                    == pytest.approx(joules, abs=1e-12))


class TestRateIndependence:
    def test_aggregates_identical_across_rates(self, chaos_reports):
        def aggregates(report):
            doc = {
                "energy": report["energy"],
                "counts": report["counts"],
                "latency_s": report["latency_s"],
                "groups": report["telemetry"]["groups"],
            }
            return json.dumps(doc, sort_keys=True)

        baseline = aggregates(chaos_reports[RATES[0]])
        for rate in RATES[1:]:
            assert aggregates(chaos_reports[rate]) == baseline

    def test_exemplar_counts_scale_with_rate(self, chaos_reports):
        offered = [chaos_reports[rate]["telemetry"]["exemplars"]["offered"]
                   for rate in RATES]
        assert offered[0] > offered[1] > offered[2] >= 0


class TestAggregator:
    def test_exemplars_deterministic(self, quiet_machine):
        def run(machine):
            agg = SamplingAggregator(machine, seed=3, exemplar_rate=0.5,
                                     reservoir_size=4)
            region = machine.address_space.alloc(1 << 12, "d")
            with agg:
                for i in range(20):
                    with agg.span(f"work{i}", category="operator", op="W"):
                        machine.load(region.base + (i % 16) * 64)
            return [e.as_dict() for e in agg.finish().exemplars]

        import dataclasses

        from repro import Machine, tiny_intel

        config = dataclasses.replace(tiny_intel(), measurement_noise=0.0)
        first = run(quiet_machine)
        second = run(Machine(config))
        assert first == second
        assert 0 < len(first) <= 4

    def test_group_table_partitions_energy(self, quiet_machine):
        agg = SamplingAggregator(quiet_machine, seed=0)
        region = quiet_machine.address_space.alloc(1 << 12, "d")
        with agg:
            with agg.span("scan", category="operator", op="Scan"):
                for i in range(32):
                    quiet_machine.load(region.base + (i % 16) * 64)
            with agg.span("agg", category="operator", op="Agg"):
                for i in range(16):
                    quiet_machine.store(region.base + i * 64)
        summary = agg.finish()
        rows = summary.group_table()
        total = sum(row["active_j"] for row in rows.values())
        assert total == pytest.approx(summary.total_active_j, rel=1e-9)
        assert any(row["microops"]["load"] > 0 for row in rows.values())
        assert any(row["cache_levels"]["L1D"]["accesses"] > 0
                   for row in rows.values())

    def test_null_telemetry_totals(self, quiet_machine):
        null = NullTelemetry(quiet_machine)
        region = quiet_machine.address_space.alloc(1 << 12, "d")
        with null:
            with null.span("scan", category="operator"):
                for i in range(16):
                    quiet_machine.load(region.base + i * 64)
        summary = null.finish()
        assert summary.total_active_j > 0
        assert summary.group_table() == {}

    def test_invalid_rate_rejected(self, quiet_machine):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            SamplingAggregator(quiet_machine, exemplar_rate=1.5)
        with pytest.raises(ConfigError):
            SamplingAggregator(quiet_machine, reservoir_size=0)


class TestServeModes:
    def test_plain_serve_report_unchanged_by_default(self):
        """The default telemetry mode is "full": its section carries only
        the mode, and the simulated numbers match an explicit "full" run."""
        config = dict(tier="10MB", queries=8, clients=2, seed=2, scale=64)
        report = run_serve(ServeConfig(**config))
        assert report["telemetry"] == {"mode": "full"}
        assert report["config"]["telemetry"] == "full"
        full = run_serve(ServeConfig(telemetry="full", **config))
        assert (json.dumps(report, sort_keys=True)
                == json.dumps(full, sort_keys=True))

    def test_off_mode_matches_sampler_counts(self, chaos_reports):
        off = run_serve(_chaos_config(telemetry="off"))
        sampled = chaos_reports[1.0]
        assert off["counts"] == sampled["counts"]
        assert (off["energy"]["total_active_j"]
                == pytest.approx(sampled["energy"]["total_active_j"],
                                 abs=1e-12))
        assert "telemetry" in off  # mode recorded even when off
        assert off["telemetry"]["mode"] == "off"
        assert "groups" not in off["telemetry"]
