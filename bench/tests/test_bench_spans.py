"""Self-test of the benchmark's span bookkeeping, host-speed scaling and oracles.

    python3 -m pytest bench/tests
"""

import importlib
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import hostspeed  # noqa: E402
import layers  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402
from spans import NullTracer, Span, Tracer, self_times  # noqa: E402


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_of_nested_spans():
    # parent [0, 10] holds child a [1, 3] and child b [5, 9]; b holds c [6, 7]
    tracer = Tracer(clock=FakeClock([0, 1, 3, 5, 6, 7, 9, 10]))
    with tracer.span("parent"):
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            with tracer.span("c"):
                pass
    names = [s.name for s in tracer.spans]
    assert names == ["parent", "a", "b", "c"]
    assert [s.parent for s in tracer.spans] == [None, 0, 0, 2]
    assert self_times(tracer.spans) == [4, 2, 3, 1]


def test_self_time_counts_overlapping_children_once():
    spans = [Span("p", 0.0, 10.0, None, 1), Span("x", 2.0, 6.0, 0, 1), Span("y", 4.0, 8.0, 0, 1),
             Span("z", 9.0, 12.0, 0, 1)]
    assert self_times(spans)[0] == 10.0 - 6.0 - 1.0


def test_operations_share_an_id():
    tracer = Tracer()
    with tracer.operation("query"):
        with tracer.span("inner"):
            pass
    with tracer.operation("query"):
        pass
    assert [(s.name, s.op) for s in tracer.spans] == [("op.query", 1), ("inner", 1), ("op.query", 2)]


def _targets():
    return [(importlib.import_module(m), attr) for m, attr, *_ in layers.WRAPS]


def test_tracing_off_installs_no_wrappers():
    before = [getattr(mod, attr) for mod, attr in _targets()]
    with NullTracer().operation("query"):
        pass
    assert [getattr(mod, attr) for mod, attr in _targets()] == before
    assert not any(hasattr(getattr(mod, attr), "__wrapped__") for mod, attr in _targets())


def test_install_wraps_where_callers_resolve_and_uninstall_restores():
    before = [getattr(mod, attr) for mod, attr in _targets()]
    tracer = Tracer()
    layers.install(tracer)
    try:
        assert all(getattr(mod, attr).__wrapped__ is orig for (mod, attr), orig in zip(_targets(), before))
        rng = np.random.default_rng(0)
        model = workloads.core.RqModel(rng.normal(size=(4, 3)), 0.5, 20.0, 2)
        db = workloads.index.encode_database(rng.normal(size=(10, 3)), model)
        with tracer.operation("query"):
            workloads.index.search(rng.normal(size=3), db, 3, prefix_m=1)
    finally:
        tracer.uninstall()
    assert [getattr(mod, attr) for mod, attr in _targets()] == before
    by_name = {s.name: i for i, s in enumerate(tracer.spans)}
    spans = tracer.spans
    assert spans[by_name["core.encode_batch"]].parent == by_name["index.encode_database"]
    assert spans[by_name["index.adc_distances"]].parent == by_name["index.search"]
    assert spans[by_name["index.build_adc_table"]].parent == by_name["index.adc_distances"]
    metrics = layers.metrics(spans)
    assert metrics["index.build_adc_table.calls"] == 1
    assert metrics["index.adc_distances.items_scanned"] == 10
    assert metrics["index.adc_distances.self_s.prefix"] > 0
    assert metrics["index.adc_distances.self_s.full"] == 0
    assert metrics["core.encode_batch.vectors_per_s"] > 0


def test_oracle_decodes_written_codes(tmp_path):
    rng = np.random.default_rng(1)
    for k, m in ((4, 3), (256, 4), (32, 5)):
        model = workloads.core.RqModel(rng.normal(size=(k, 6)).astype(np.float32).astype(np.float64), 0.5, 20.0, m)
        db = workloads.index.encode_database(rng.normal(size=(37, 6)), model)
        workloads.rio.save_codes(db, tmp_path / "c.drqc")
        codes, norms = oracle.read_codes(tmp_path / "c.drqc")
        assert np.array_equal(codes, db.codes)
        assert np.array_equal(norms, db.recon_sq_norms.astype(np.float32))


def test_tail_has_ten_samples_beyond_it():
    values = list(range(100))
    value, percentile = workloads.tail(values)
    assert sum(v > value for v in values) == 10
    assert percentile == 90.0


def test_host_speed_scaling_uses_blocks_near_the_operation():
    clock = hostspeed.Clock()
    ref = hostspeed.REFERENCE_S
    # host at full speed until t=10, then at half speed
    clock.at = [0.0, 0.3, 9.8, 10.2, 10.4, 20.0]
    clock.took = [ref, ref, ref, 2 * ref, 2 * ref, 2 * ref]
    assert abs(clock.seconds((0.1, 0.2)) - 0.1) < 1e-12
    assert abs(clock.seconds((10.25, 10.35)) - 0.05) < 1e-12
    assert abs(clock.seconds((15.0, 15.1)) - 0.05) < 1e-12  # none within the window: the nearest block
    assert abs(clock.median_ms() - 1.5 * ref * 1e3) < 1e-12


def test_tick_runs_one_block_per_interval_up_to_a_cap():
    clock = hostspeed.Clock()
    clock.tick()
    assert len(clock.took) == hostspeed.MAX_BLOCKS and min(clock.took) > 0
    clock.tick()
    assert len(clock.took) == hostspeed.MAX_BLOCKS
