"""Span arithmetic on synthetic spans: self time, unions across
threads, pilot windows and layer attribution."""
import pytest

from spans import (Span, accounted_share, layer_metrics, pilot_window,
                   self_times, union_length)


def span(id, name, metric, start, end, parent=None, thread=1, **note):
    return Span(id, name, metric, thread, start, end, parent, note)


def test_union_length_merges_overlaps_and_clips():
    assert union_length([]) == 0.0
    assert union_length([(0, 1), (2, 3)]) == 2.0
    assert union_length([(0, 2), (1, 3)]) == 3.0
    assert union_length([(0, 5), (1, 2), (3, 4)]) == 5.0
    assert union_length([(0, 4), (6, 10)], lo=2, hi=8) == 4.0
    assert union_length([(5, 6)], lo=0, hi=4) == 0.0


def test_self_time_of_nested_spans():
    spans = [
        span(1, "estimate", "estimator.self_s", 0, 10),
        span(2, "simulate_paths", "market.rotate_s", 1, 4, parent=1),
        span(3, "paths_from_increments", "market.paths_s", 2, 3, parent=2),
        span(4, "evaluate", "payoffs.evaluate_s", 5, 9, parent=1),
    ]
    assert self_times(spans) == {1: 3.0, 2: 2.0, 3: 1.0, 4: 4.0}
    metrics = layer_metrics(spans, workers=1, wall=10.0)
    assert metrics["estimator.self_s"] == 3.0
    assert metrics["market.rotate_s"] == 2.0
    assert metrics["market.paths_s"] == 1.0
    assert metrics["payoffs.evaluate_s"] == 4.0
    assert metrics["estimator.thread_busy"] == pytest.approx(0.7)
    assert accounted_share(metrics, 10.0) == pytest.approx(1.0)


def test_overlapping_spans_on_two_threads():
    spans = [
        span(1, "estimate", "estimator.self_s", 0, 10),
        span(2, "simulate_paths", "market.rotate_s", 1, 6, parent=1, thread=2),
        span(3, "simulate_paths", "market.rotate_s", 3, 8, parent=1, thread=3),
    ]
    metrics = layer_metrics(spans, workers=2, wall=10.0)
    # the union [1, 8] is covered once, however many threads cover it
    assert metrics["estimator.self_s"] == 3.0
    assert metrics["market.rotate_s"] == 10.0
    assert metrics["estimator.thread_busy"] == pytest.approx(0.5)
    assert accounted_share(metrics, 10.0) == pytest.approx(1.3)


def test_lt_build_absorbs_its_callees_and_best_of_contains_jets():
    spans = [
        span(1, "build_lt_matrix", "lt.build_s", 0, 4),
        span(2, "simulate_paths", "market.rotate_s", 1, 2, parent=1, paths=1),
        span(3, "simulate_paths", "market.rotate_s", 2, 3, parent=1, paths=1),
        span(4, "estimate", "estimator.self_s", 10, 20),
        span(5, "best_of_weight", "weights.best_of_s", 11, 19, parent=4),
        span(6, "lincomb_jet", "weights.jet_s", 12, 17, parent=5),
    ]
    metrics = layer_metrics(spans, workers=1, wall=10.0)
    assert metrics["lt.build_s"] == 4.0
    assert metrics["lt.build_sim_calls"] == 2
    assert metrics["market.rotate_s"] == 0.0
    assert metrics["market.paths"] == 0
    assert metrics["weights.best_of_s"] == 8.0
    assert metrics["weights.jet_s"] == 5.0
    assert metrics["weights.calls"] == 2
    assert accounted_share(metrics, 10.0) == pytest.approx(1.0)


def test_pilot_window_runs_from_first_pilot_to_first_main_request():
    def request(id, start, index, points=256):
        return span(id, "replication_normals", "qmc.assemble_s", start, start + 1,
                    parent=1, index=index, replications=4, points=points)

    pilot = [request(2, 1, 4), request(3, 2, 5)]
    main = [request(4, 5, 0, 2048), request(5, 7, 1, 2048)]
    assert pilot_window(pilot + main) == (1, 5)
    assert pilot_window(main) is None
    spans = [span(1, "estimate", "estimator.self_s", 0, 10)] + pilot + main
    metrics = layer_metrics(spans, workers=1, wall=10.0)
    assert metrics["estimator.pilot_s"] == 4.0
    assert metrics["estimator.pilot_paths"] == 512


def test_only_the_outermost_draw_request_counts():
    spans = [
        span(1, "estimate", "estimator.self_s", 0, 10),
        span(2, "replication_normals", "qmc.assemble_s", 1, 4, parent=1,
             index=4, replications=4, points=256),
        span(3, "lss_assemble", "qmc.assemble_s", 1.5, 3, parent=2,
             index=4, replications=4, points=256),
        span(4, "replication_normals", "qmc.assemble_s", 5, 8, parent=1,
             index=0, replications=4, points=2048),
    ]
    metrics = layer_metrics(spans, workers=1, wall=10.0)
    assert metrics["estimator.pilot_s"] == 4.0
    assert metrics["estimator.pilot_paths"] == 256
