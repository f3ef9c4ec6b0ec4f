"""Tests of the benchmark's own arithmetic: proxy counts, span self time,
best-of timing and the per-layer figures derived from spans.

    python3 -m pytest perfbench/test_harness.py
"""

import dataclasses
import sys
from pathlib import Path
from typing import Callable, Optional

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from harness import BestTimes, TargetMeter, Tracer, layer_metrics, layer_wrappers  # noqa: E402
from postmix import density, gola  # noqa: E402


class FakeClock:
    """Returns the queued instants in order."""

    def __init__(self, *instants):
        self.instants = list(instants)

    def __call__(self):
        return self.instants.pop(0)


def _gaussian_target(dim=2):
    mixture = density.MixtureModel(
        (density.GaussianComponent(np.zeros(dim), np.eye(dim)),), np.ones(1))
    return mixture.as_target()


def test_proxy_counts_calls_and_points_per_field():
    meter = TargetMeter()
    target = meter.wrap(_gaussian_target())
    z = np.array([0.3, -0.2])
    density.eval_log_density(target, z)
    density.eval_gradient(target, z)
    density.eval_hessian(target, z)
    density.eval_log_density_batch(target, np.zeros((7, 2)))
    assert meter.points == {"log_phi": 1, "gradient": 1, "hessian": 1, "log_phi_batch": 7}
    assert meter.total_points() == 10


def test_proxy_forwards_results_unchanged():
    plain = _gaussian_target()
    target = TargetMeter().wrap(plain)
    z = np.array([0.5, 1.5])
    assert target.log_phi(z) == plain.log_phi(z)
    np.testing.assert_array_equal(target.gradient(z), plain.gradient(z))
    np.testing.assert_array_equal(target.search_box, plain.search_box)


def test_finite_difference_gradient_counts_every_stencil_point():
    meter = TargetMeter()
    plain = _gaussian_target(dim=3)
    target = meter.wrap(dataclasses.replace(plain, gradient=None, hessian=None))
    density.eval_gradient(target, np.ones(3))
    assert meter.points == {"log_phi": 6}


def test_proxy_wraps_a_field_added_later():
    @dataclasses.dataclass(frozen=True)
    class BatchedTarget(density.UnnormalizedTarget):
        gradient_batch: Optional[Callable] = None

    meter = TargetMeter()
    plain = _gaussian_target()
    target = meter.wrap(BatchedTarget(
        dim=2, log_phi=plain.log_phi, search_box=plain.search_box,
        gradient_batch=lambda pts: -np.asarray(pts)))
    out = target.gradient_batch(np.ones((5, 2)))
    np.testing.assert_array_equal(out, -np.ones((5, 2)))
    assert meter.points == {"gradient_batch": 5}


def test_proxy_records_density_spans_when_traced():
    meter = TargetMeter()
    meter.tracer = Tracer(clock=FakeClock(0.0, 1.0, 2.0, 5.0))
    target = meter.wrap(_gaussian_target())
    target.log_phi(np.zeros(2))
    target.log_phi_batch(np.zeros((4, 2)))
    spans = meter.tracer.spans
    assert [(s.name, s.duration, s.attrs) for s in spans] == [
        ("density.log_phi", 1.0, {"points": 1}),
        ("density.log_phi_batch", 3.0, {"points": 4}),
    ]


def test_span_self_time_subtracts_direct_children_only():
    tracer = Tracer(clock=FakeClock(0.0, 2.0, 5.0, 6.0, 6.2, 6.5, 7.0, 10.0))
    outer = tracer.begin("outer")
    first = tracer.begin("first")
    tracer.end(first)
    second = tracer.begin("second")
    inner = tracer.begin("inner")
    tracer.end(inner)
    tracer.end(second)
    tracer.end(outer)
    assert outer.duration == 10.0
    assert outer.self_s == pytest.approx(10.0 - 3.0 - 1.0)
    assert first.self_s == 3.0
    assert second.self_s == pytest.approx(1.0 - 0.3)
    assert inner.self_s == pytest.approx(0.3)
    assert inner.parent is second and second.parent is outer
    assert [s.name for s in tracer.spans] == ["first", "inner", "second", "outer"]


def test_spans_serialize_with_parent_indices():
    tracer = Tracer(clock=FakeClock(1.0, 2.0, 3.0, 4.0))
    outer = tracer.begin("outer")
    tracer.end(tracer.begin("inner"))
    tracer.end(outer)
    assert tracer.to_json() == [["inner", 1.0, 2.0, 1, None],
                                ["outer", 0.0, 3.0, None, None]]


def test_best_times_keep_the_fastest_repeat_of_a_unit_without_target_calls():
    times = BestTimes(TargetMeter(
        clock=FakeClock(0.0, 3.0, 10.0, 11.0, 20.0, 22.0, 30.0, 34.0)))
    for _ in range(2):
        with times.unit("fit", fit=True):
            pass
        with times.unit("score"):
            pass
    assert times.best == {"fit": [2.0], "score": [1.0]}
    assert times.fit_s() == 2.0
    assert times.wall_s() == 3.0


def test_best_times_keep_the_fastest_repeat_of_each_stretch():
    # Each pass: unit start, call entry, call exit, call entry, call exit, unit end.
    meter = TargetMeter(clock=FakeClock(0.0, 1.0, 3.0, 4.0, 5.0, 9.0,
                                        10.0, 14.0, 15.0, 17.0, 18.0, 19.0))
    target = meter.wrap(_gaussian_target())
    times = BestTimes(meter)
    for _ in range(2):
        with times.unit("fit", fit=True):
            target.log_phi(np.zeros(2))
            target.log_phi(np.zeros(2))
    assert times.best == {"fit": [1.0, 1.0, 1.0, 1.0, 1.0]}
    assert times.wall_s() == 5.0
    assert meter.marks is None


def test_best_times_fall_back_to_the_whole_unit_when_stretches_differ():
    meter = TargetMeter(clock=FakeClock(0.0, 1.0, 2.0, 6.0, 10.0, 15.0))
    target = meter.wrap(_gaussian_target())
    times = BestTimes(meter)
    with times.unit("fit"):
        target.log_phi(np.zeros(2))
    with times.unit("fit"):
        pass
    assert times.best == {"fit": [5.0]}


def test_layer_metrics_split_refine_time_and_points():
    clock = FakeClock(0.0, 1.0, 2.0, 2.0, 3.0, 4.0, 7.0, 10.0, 11.0, 12.0)
    tracer = Tracer(clock=clock)
    refine = tracer.begin("vi.refine")
    for points in (256, 256):
        span = tracer.begin("density.log_phi_batch")
        span.attrs = {"points": points}
        tracer.end(span)
    jsd = tracer.begin("metrics.jsd")
    tracer.end(jsd)
    tracer.end(refine)
    refine.attrs = {"epochs": 4}
    lone = tracer.begin("density.log_phi")
    lone.attrs = {"points": 1}
    tracer.end(lone)
    got = {k: v for k, (v, _) in layer_metrics(tracer).items()}
    assert got["vi.refine_s"] == 10.0
    assert got["metrics.jsd_s"] == 3.0
    assert got["vi.epoch_s"] == (10.0 - 3.0) / 4
    assert got["vi.mc_points"] == 512
    assert got["density.logphi_points"] == 513
    assert got["density.logphi_calls"] == 3
    assert got["density.points_per_call"] == 513 / 3
    assert got["density.target_s"] == 1.0 + 1.0 + 1.0


def test_layer_wrappers_count_a_fit_and_restore_the_module():
    original = gola.multistart_minimize
    tracer = Tracer()
    target = _gaussian_target()
    with layer_wrappers(tracer):
        report = gola.run_gola(target, gola.GolaConfig(n_starts=4))
    assert gola.multistart_minimize is original
    got = {k: v for k, (v, _) in layer_metrics(tracer).items()}
    assert got["gola.local_searches"] == 4
    assert got["gola.converged_per_start"] == len(report.raw_minima) / 4
    assert got["gola.modes_per_converged"] == 1 / len(report.raw_minima)
    assert got["gola.hessian_calls"] == 1
    assert got["gola.multistart_self_s"] > 0.0
