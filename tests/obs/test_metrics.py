"""Unit tests of the metrics registry, exposition, merge, and timed()."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import (
    DEFAULT_OCCUPANCY_BUCKETS,
    MetricsRegistry,
    collecting,
    collection_enabled,
    default_registry,
    maybe_registry,
    timed,
)

pytestmark = pytest.mark.tier1


class TestCounter:
    def test_inc_and_value(self):
        reg = MetricsRegistry()
        c = reg.counter("repro_drops_total", "drops")
        c.inc(cause="fault")
        c.inc(2, cause="fault")
        c.inc(cause="capacity")
        assert c.value(cause="fault") == 3
        assert c.value(cause="capacity") == 1
        assert c.value(cause="never") == 0

    def test_counters_only_go_up(self):
        c = MetricsRegistry().counter("c")
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_get_or_create_is_idempotent(self):
        reg = MetricsRegistry()
        assert reg.counter("c") is reg.counter("c")

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("m")
        with pytest.raises(TypeError):
            reg.gauge("m")

    def test_invalid_names_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("1starts_with_digit")
        with pytest.raises(ValueError):
            reg.counter("has space")


class TestGauge:
    def test_set_and_set_max(self):
        g = MetricsRegistry().gauge("g")
        g.set(5, stage="1")
        g.set_max(3, stage="1")  # lower: ignored
        assert g.value(stage="1") == 5
        g.set_max(9, stage="1")
        assert g.value(stage="1") == 9

    def test_inc_can_go_down(self):
        g = MetricsRegistry().gauge("g")
        g.inc(3)
        g.inc(-1)
        assert g.value() == 2


class TestHistogram:
    def test_cumulative_buckets_and_sum(self):
        h = MetricsRegistry().histogram("h", buckets=(1, 2, 4))
        for v in (1, 2, 3, 100):
            h.observe(v)
        assert h.count() == 4
        assert h.sum() == 106
        assert h._series[()]["counts"] == [1, 1, 1, 1]  # le1, le2, le4, +Inf

    def test_needs_buckets(self):
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("h", buckets=())

    def test_bucket_rule_is_first_bound_at_or_above(self):
        h = MetricsRegistry().histogram("h", buckets=(1, 2.5, 4))
        for v in (0, 1, 1.5, 2.5, 2.6, 4, 4.01, float("inf"), float("nan")):
            h.observe(v)
        assert h._series[()]["counts"] == [2, 2, 2, 3]  # le1, le2.5, le4, +Inf


def looped_and_bulk(buckets, batches):
    """Two registries fed the same integer batches: ``observe`` one value
    at a time, and one ``observe_many`` call per batch."""
    looped, bulk = MetricsRegistry(), MetricsRegistry()
    for label, values, offset in batches:
        h = looped.histogram("repro_h", "help", buckets=buckets)
        if offset is not None:  # a non-integer sum makes the bulk add go value by value
            h.observe(offset, stage=label)
            bulk.histogram("repro_h", "help", buckets=buckets).observe(offset, stage=label)
        for v in values:
            h.observe(v, stage=label)
        bulk.histogram("repro_h", "help", buckets=buckets).observe_many(
            np.asarray(values, dtype=np.int64), stage=label
        )
    return looped, bulk


class TestObserveMany:
    @settings(max_examples=80, deadline=None)
    @given(
        buckets=st.lists(st.integers(-5, 300), min_size=1, max_size=8, unique=True),
        batches=st.lists(
            st.tuples(
                st.sampled_from(["1", "2", "7"]),
                st.lists(st.integers(-10, 1000), max_size=40),
                st.none() | st.floats(-1e3, 1e3, allow_nan=False),
            ),
            max_size=6,
        ),
    )
    def test_bytes_equal_a_loop_of_observe(self, buckets, batches):
        looped, bulk = looped_and_bulk(tuple(buckets), batches)
        assert bulk.render_prometheus() == looped.render_prometheus()
        assert bulk.to_json() == looped.to_json()

    def test_empty_input_records_nothing(self):
        looped, bulk = looped_and_bulk((1, 2), [("1", [], None)])
        assert bulk.render_prometheus() == looped.render_prometheus()
        assert bulk.get("repro_h").labelsets() == []

    def test_values_above_the_last_bucket_land_in_inf(self):
        looped, bulk = looped_and_bulk(
            DEFAULT_OCCUPANCY_BUCKETS, [("3", [1, 256, 257, 10**6], None)]
        )
        assert bulk.render_prometheus() == looped.render_prometheus()
        assert bulk.get("repro_h")._series[(("stage", "3"),)]["counts"][-1] == 2

    def test_huge_sums_stay_sequential(self):
        # Past 2**53 float addition rounds: the bulk path must add value
        # by value there, as the loop does.
        looped, bulk = looped_and_bulk((1,), [("1", [2**53, 1, 1], None)])
        assert bulk.to_json() == looped.to_json()
        assert bulk.get("repro_h").sum(stage="1") == 2**53  # each +1 rounds away
        # A non-integer running sum: 0.5 + (2**52 + 1) rounds up to even.
        looped, bulk = looped_and_bulk((1,), [("2", [2**52 + 1, 1], 0.5)])
        assert bulk.to_json() == looped.to_json()
        assert bulk.get("repro_h").sum(stage="2") == 2**52 + 3

    def test_float_input_is_refused(self):
        h = MetricsRegistry().histogram("h", buckets=(1,))
        with pytest.raises(TypeError, match="integers"):
            h.observe_many(np.array([0.5]))


class TestExposition:
    def test_prometheus_format(self):
        reg = MetricsRegistry()
        reg.counter("repro_drops_total", "drops by cause").inc(cause="fault")
        h = reg.histogram("repro_link_occupancy", buckets=(1, 2))
        h.observe(1, stage="1")
        h.observe(5, stage="1")
        text = reg.render_prometheus()
        assert "# HELP repro_drops_total drops by cause" in text
        assert "# TYPE repro_drops_total counter" in text
        assert 'repro_drops_total{cause="fault"} 1' in text
        assert 'repro_link_occupancy_bucket{stage="1",le="1"} 1' in text
        assert 'repro_link_occupancy_bucket{stage="1",le="+Inf"} 2' in text
        assert 'repro_link_occupancy_sum{stage="1"} 6' in text
        assert 'repro_link_occupancy_count{stage="1"} 2' in text

    def test_deterministic_rendering(self):
        def build(order):
            reg = MetricsRegistry()
            for name in order:
                reg.counter(name).inc(k=name)
            return reg.render_prometheus()

        assert build(["b", "a", "c"]) == build(["c", "a", "b"])

    def test_label_escaping(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(path='a"b\\c\nd')
        line = reg.render_prometheus().splitlines()[-1]
        assert line == 'c{path="a\\"b\\\\c\\nd"} 1'

    def test_to_json_parses(self):
        reg = MetricsRegistry()
        reg.gauge("g", "help").set(2, stage="3")
        data = json.loads(reg.to_json())
        assert data["g"]["kind"] == "gauge"
        assert data["g"]["series"] == [{"labels": {"stage": "3"}, "value": 2}]

    def test_write_json_vs_prometheus(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        prom, jsn = tmp_path / "m.prom", tmp_path / "m.json"
        reg.write(str(prom))
        reg.write(str(jsn))
        assert prom.read_text().startswith("# TYPE c counter")
        assert json.loads(jsn.read_text())["c"]["kind"] == "counter"


class TestMerge:
    def test_counters_add_gauges_max_histograms_add(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        for reg, n in ((a, 1), (b, 2)):
            reg.counter("c").inc(n)
            reg.gauge("g").set(n, stage="1")
            reg.histogram("h", buckets=(1, 4)).observe(n)
        a.merge(b)
        assert a.counter("c").value() == 3
        assert a.gauge("g").value(stage="1") == 2  # max, not sum
        assert a.histogram("h").count() == 2
        assert a.histogram("h").sum() == 3

    def test_merge_accepts_snapshots(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        b.counter("c").inc(5)
        a.merge(b.snapshot())
        assert a.counter("c").value() == 5

    def test_merge_order_invariant(self):
        regs = []
        for n in (1, 2, 3):
            reg = MetricsRegistry()
            reg.counter("c").inc(n)
            reg.gauge("g").set_max(n)
            regs.append(reg)
        forward, backward = MetricsRegistry(), MetricsRegistry()
        for reg in regs:
            forward.merge(reg)
        for reg in reversed(regs):
            backward.merge(reg)
        assert forward.render_prometheus() == backward.render_prometheus()

    def test_bucket_mismatch_raises(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("h", buckets=(1, 2)).observe(1)
        b.histogram("h", buckets=(1, 3)).observe(1)
        with pytest.raises(ValueError, match="bucket"):
            a.merge(b)

    def test_snapshot_is_a_copy(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        snap = reg.snapshot()
        reg.counter("c").inc()
        assert snap["c"]["series"][()] == 1


class TestCollection:
    def test_disabled_by_default(self):
        assert not collection_enabled()
        assert maybe_registry() is None

    def test_collecting_swaps_default_registry(self):
        outer = default_registry()
        with collecting() as reg:
            assert collection_enabled()
            assert maybe_registry() is reg
            assert default_registry() is reg
            reg.counter("c").inc()
        assert not collection_enabled()
        assert default_registry() is outer
        assert "c" not in outer

    def test_collecting_into_explicit_registry(self):
        mine = MetricsRegistry()
        with collecting(mine) as reg:
            assert reg is mine

    def test_collecting_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with collecting():
                raise RuntimeError
        assert not collection_enabled()


class TestTimed:
    def test_context_manager_records(self):
        reg = MetricsRegistry()
        with timed("repro_route", registry=reg, stage="2"):
            pass
        h = reg.get("repro_route_seconds")
        assert h is not None
        assert h.count(stage="2") == 1

    def test_untimed_without_registry(self):
        before = len(default_registry())
        with timed("repro_nothing"):
            pass
        assert len(default_registry()) == before

    def test_decorator_records_under_collection(self):
        @timed("repro_fn")
        def fn(x):
            return x + 1

        assert fn(1) == 2  # fast path, no collection
        with collecting() as reg:
            assert fn(2) == 3
        assert reg.histogram("repro_fn_seconds").count() == 1

    def test_occupancy_buckets_cover_small_loads(self):
        assert DEFAULT_OCCUPANCY_BUCKETS[0] == 1
