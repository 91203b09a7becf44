"""Tests of the benchmark's own helpers: tail percentiles and span self time."""

from __future__ import annotations

import json

import pytest

from dbwbench.spans import Span, Tracer, covered_length, patched, self_time_by_name, self_times
from dbwbench.stats import host_scaled, tail_percentile
from dbwbench.workloads import low_discrepancy, repeat_share


class TestTailPercentile:
    def test_p90_needs_ten_samples_beyond(self):
        assert tail_percentile(list(range(1, 100))) is None  # 99 samples: 9 beyond
        assert tail_percentile(list(range(1, 101))) == 90  # 100 samples: 10 beyond

    def test_nearest_rank_ignores_input_order(self):
        samples = [float(v) for v in range(200, 0, -1)]
        assert tail_percentile(samples) == 180.0

    def test_p99_needs_a_thousand(self):
        assert tail_percentile(list(range(999)), q=0.99) is None
        assert tail_percentile(list(range(1000)), q=0.99) == 989

    def test_empty_and_bad_q(self):
        assert tail_percentile([]) is None
        with pytest.raises(ValueError):
            tail_percentile([1.0], q=1.0)


class TestHostScaled:
    def test_each_sample_uses_the_readings_nearest_in_time(self):
        # The host runs at half speed (kernel 2.0 s) from t=10 on.
        readings = [(float(t), 1.0 if t < 10 else 2.0) for t in range(0, 20, 2)]
        samples = [(1.0, 3.0), (19.0, 6.0)]
        assert host_scaled(samples, readings, reference=1.0, k=3) == pytest.approx([3.0, 3.0])

    def test_the_median_of_k_readings_ignores_one_outlier(self):
        readings = [(0.0, 1.0), (1.0, 9.0), (2.0, 1.0)]
        assert host_scaled([(1.0, 4.0)], readings, reference=2.0, k=3) == [8.0]

    def test_fewer_readings_than_k_and_none(self):
        assert host_scaled([(5.0, 1.0)], [(0.0, 0.5)], reference=1.0) == [2.0]
        assert host_scaled([(5.0, 1.5)], [], reference=1.0) == [1.5]


def _span(span_id, start, end, parent=None, name="x"):
    return Span(span_id, name, start, end, parent, 0)


class TestSelfTime:
    def test_nested_children_are_subtracted_once(self):
        spans = [
            _span(0, 0.0, 10.0, name="root"),
            _span(1, 1.0, 4.0, parent=0, name="child"),
            _span(2, 2.0, 3.0, parent=1, name="grandchild"),
            _span(3, 5.0, 6.0, parent=0, name="child"),
        ]
        got = self_times(spans)
        assert got == pytest.approx({0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0})
        # Self times partition the root's wall time.
        assert sum(got.values()) == pytest.approx(10.0)
        assert self_time_by_name(spans) == pytest.approx(
            {"root": 6.0, "child": 3.0, "grandchild": 1.0}
        )

    def test_overlapping_children_count_their_union(self):
        spans = [
            _span(0, 0.0, 10.0),
            _span(1, 1.0, 5.0, parent=0),
            _span(2, 3.0, 7.0, parent=0),  # overlaps child 1 on [3, 5]
        ]
        assert self_times(spans)[0] == pytest.approx(10.0 - 6.0)

    def test_children_are_clipped_to_the_parent(self):
        spans = [_span(0, 2.0, 4.0), _span(1, 1.0, 3.0, parent=0)]
        assert self_times(spans)[0] == pytest.approx(1.0)

    def test_covered_length_merges_touching_and_disjoint(self):
        assert covered_length([(0, 1), (1, 2), (3, 4)], 0, 10) == pytest.approx(3.0)
        assert covered_length([], 0, 10) == 0.0


class TestTracer:
    def test_spans_nest_and_inherit_the_request(self):
        tracer = Tracer()
        with tracer.span("cycle", request=7):
            with tracer.span("layer"):
                pass
        by_name = {s.name: s for s in tracer.spans}
        assert by_name["layer"].parent == by_name["cycle"].id
        assert by_name["layer"].request == 7
        assert by_name["cycle"].parent is None

    def test_patched_wraps_and_restores(self, tmp_path):
        class Layer:
            def work(self, n):
                return list(range(n))

        tracer = Tracer()
        original = Layer.__dict__["work"]
        patches = [(Layer, "work", "layer.work", lambda a, k, r: {"items": len(r)})]
        with patched(tracer, patches):
            assert Layer().work(3) == [0, 1, 2]
        assert Layer.__dict__["work"] is original
        Layer().work(5)  # unwrapped again: no span
        assert [s.name for s in tracer.spans] == ["layer.work"]
        assert tracer.counts["items"] == 3
        path = tmp_path / "spans.jsonl"
        tracer.dump(path)
        lines = path.read_text().splitlines()
        assert json.loads(lines[0])["name"] == "layer.work"
        assert json.loads(lines[-1]) == {"counts": {"items": 3}}


def test_repeat_share():
    assert repeat_share([]) == 0.0
    assert repeat_share(["a", "b", "c"]) == 0.0
    assert repeat_share(["a", "a", "a", "a"]) == 0.75


def test_low_discrepancy_prefixes_cover_the_box():
    import numpy as np

    draws = low_discrepancy(np.random.default_rng(0), [(0.0, 8.0), (10.0, 12.0)])
    points = [next(draws) for _ in range(16)]
    assert all(0.0 <= x < 8.0 and 10.0 <= y < 12.0 for x, y in points)
    # Every eighth of each range holds one to three of the first 16 points.
    xs = np.histogram([p[0] for p in points], bins=8, range=(0, 8))[0]
    ys = np.histogram([p[1] for p in points], bins=8, range=(10, 12))[0]
    assert xs.min() >= 1 and xs.max() <= 3
    assert ys.min() >= 1 and ys.max() <= 3
