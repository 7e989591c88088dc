"""Ring-walk coverage of the batched executor on the ``points`` mix.

Every ``points`` request walks its 24-line ring (which fits L1D) and
every context switch walks the core set's cold ring (which does not).
The batched executor's :class:`~repro.sim.batch.ExecStats` counts each
ring probe by route; this pins that the verified walk carries almost
every walked probe, and that once a rotation of an L1D-fitting ring has
run, the rest of the call is folded instead of walked.
"""

from repro.serve import ServeConfig, run_serve
from repro.serve.workload import POINT_RING_LINES
from repro.sim.batch import BatchExecutor

_ROUTES = ("ring_folded", "ring_verified", "ring_generic")


def test_points_serve_ring_walk_coverage(monkeypatch):
    calls = []
    executors = set()
    load_ring = BatchExecutor.load_ring

    def spy(self, base, cursor, stride, count, n_lines, dependent=False):
        stats = self.stats
        before = [getattr(stats, name) for name in _ROUTES]
        cursor = load_ring(self, base, cursor, stride, count, n_lines,
                           dependent)
        after = [getattr(stats, name) for name in _ROUTES]
        calls.append((n_lines, count,
                      *(b - a for a, b in zip(before, after))))
        executors.add(self)
        return cursor

    monkeypatch.setattr(BatchExecutor, "load_ring", spy)
    report = run_serve(ServeConfig(
        workload="points", mode="closed", clients=40, tenants=20,
        queries=300, cores=8, mpl=4, max_queue=152, telemetry="sampler",
        think_s=2e-5, seed=5))
    assert report["counts"]["completed"] == 300
    assert len(executors) == 1

    folded = sum(c[2] for c in calls)
    verified = sum(c[3] for c in calls)
    generic = sum(c[4] for c in calls)
    assert folded + verified + generic == sum(c[1] for c in calls)
    # Every walked probe on this mix misses L1D; at least 99% of them
    # take the verified walk.
    assert verified >= 0.99 * (verified + generic)

    point_calls = [c for c in calls if c[0] == POINT_RING_LINES]
    assert point_calls and len(point_calls) < len(calls)
    for n_lines, count, folded, verified, generic in point_calls:
        # One rotation is walked; no probe of a later rotation is.
        assert verified + generic == min(count, n_lines)
        assert folded == count - min(count, n_lines)
