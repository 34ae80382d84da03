"""Span bookkeeping: nesting, self-time arithmetic, roll-up, wrappers."""

import threading

import pytest

import report
import tracing
from tracing import Span, Tracer, rollup, self_times


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def span(name, start, end, parent=None):
    return Span(name, start, end, parent, None, 0)


def test_self_time_of_nested_spans():
    # sweep [0, 10) > session [1, 9) > grid [2, 5), sim [5, 8) > amoebot [6, 7)
    spans = [span("sweep", 0, 10), span("session.execute", 1, 9, 0),
             span("grid.compute_metrics", 2, 5, 1), span("sim.dle", 5, 8, 1),
             span("amoebot.scheduler_run", 6, 7, 3)]
    assert self_times(spans) == [2, 2, 3, 2, 1]
    roll = rollup(spans)
    assert roll.layer_self == {"sweep": 2, "session": 2, "grid": 3, "sim": 2,
                               "amoebot": 1}
    assert roll.rooted_self == pytest.approx(10) == roll.rooted_wall
    assert roll.busy["sim.dle"] == 3 and roll.calls["grid.compute_metrics"] == 1


def test_busy_time_counts_only_the_outermost_of_a_reentrant_name():
    spans = [span("sweep", 0, 10), span("grid.diameter_within", 1, 9, 0),
             span("grid.diameter_within", 2, 4, 1)]
    roll = rollup(spans)
    assert roll.busy["grid.diameter_within"] == 8
    assert roll.calls["grid.diameter_within"] == 2
    assert roll.layer_self["grid"] == 8


def test_spans_outside_the_sweep_root_are_not_accounted():
    spans = [span("sweep", 0, 4), span("cache.get", 1, 2, 0),
             span("other.root", 0, 3), span("session.execute", 0.5, 2.5, 2)]
    roll = rollup(spans)
    assert roll.rooted_wall == 4 and roll.rooted_self == pytest.approx(4)
    assert roll.layer_self["session"] == 2


def test_tracer_records_parents_ids_and_errors():
    clock = FakeClock()
    tracer = Tracer(clock)
    tracer.active = True

    def inner():
        clock.now += 2
        return "done"

    def boom():
        clock.now += 1
        raise KeyError("status")

    traced_inner = tracer.wrap("grid.compute_metrics", inner)
    traced_boom = tracer.wrap("sim.dle", boom)

    def outer(_config):
        clock.now += 1
        traced_inner()
        with pytest.raises(KeyError):
            traced_boom()
        clock.now += 1
        return "ok"

    traced_outer = tracer.wrap("session.execute", outer, ident=lambda c: c)
    assert traced_outer("cfg-1") == "ok"
    names = [s.name for s in tracer.spans]
    assert names == ["session.execute", "grid.compute_metrics", "sim.dle"]
    assert [s.parent for s in tracer.spans] == [None, 0, 0]
    assert [s.ident for s in tracer.spans] == ["cfg-1"] * 3
    assert self_times(tracer.spans) == [2, 2, 1]
    assert tracer.counts["sim.dle.errors"] == 1


def test_inactive_tracer_records_nothing():
    tracer = Tracer()
    assert tracer.wrap("grid.make_shape", lambda: 3)() == 3
    assert tracer.spans == []


def test_threads_keep_separate_stacks():
    tracer = Tracer()
    tracer.active = True
    root = tracer.begin("sweep")
    thread = threading.Thread(target=lambda: tracer.end(tracer.begin("session.execute")))
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    tracer.end(root)
    assert [s.parent for s in tracer.spans] == [None, None]


def test_wrap_iterator_times_each_next():
    clock = FakeClock()
    tracer = Tracer(clock)
    tracer.active = True

    def source():
        for item in range(2):
            clock.now += 1
            yield item

    assert list(tracer.wrap_iterator("transport.next", source())) == [0, 1]
    assert [s.duration for s in tracer.spans] == [1, 1, 0]


def test_install_wraps_and_uninstall_restores():
    from repro.analysis.experiments import ALGORITHMS
    from repro.orchestrator.cache import ResultCache
    from repro.orchestrator import pool

    before = (ALGORITHMS["dle"], ResultCache.get, pool.compute_metrics)
    tracer = Tracer()
    installation = tracing.install(tracer)
    try:
        assert installation.missing == []
        assert ALGORITHMS["dle"] is not before[0]
        assert ResultCache.get is not before[1]
        assert pool.compute_metrics is not before[2]
    finally:
        installation.uninstall()
    assert (ALGORITHMS["dle"], ResultCache.get, pool.compute_metrics) == before


def test_patch_of_an_inherited_method_is_undone():
    class Base:
        def run(self):
            return "base"

    class Child(Base):
        pass

    installation = tracing.Installation()
    installation.patch(Child, "run", lambda self: "patched")
    assert Child().run() == "patched"
    installation.uninstall()
    assert "run" not in vars(Child) and Child().run() == "base"


def test_spans_share_the_ledger_digest_of_their_config():
    from repro.orchestrator import RunConfig
    from repro.orchestrator.cache import config_digest, default_code_version

    config = RunConfig("dle", "hexagon", 2, 0)
    digest = config_digest(config, default_code_version())[:16]
    assert tracing._config_ident(config) == digest
    assert tracing._ident_from_digest(None, config_digest(config, default_code_version())) == digest


def test_layer_metrics_account_for_wall_time():
    spans = [span("sweep", 0, 10), span("session.execute", 1, 9, 0),
             span("grid.compute_metrics", 2, 5, 1), span("cache.get", 9, 9.5, 0)]
    metrics = report.layer_metrics(spans, {"cache.get.hits": 1}, wall_s=10.0)
    selves = sum(metrics[f"{layer}.self_s"] for layer in report.SELF_LAYERS)
    assert selves + metrics["transport.wait_s"] == pytest.approx(10.0)
    assert metrics["trace.accounted_frac"] == pytest.approx(1.0)
    assert metrics["grid.compute_metrics.share"] == pytest.approx(0.3)
    assert metrics["cache.hit_ratio"] == 1.0


def test_percentile_interpolates_between_ranks():
    assert report.percentile([1, 2, 3, 4], 50) == 2.5
    assert report.percentile([5], 90) == 5
    assert report.percentile(list(range(11)), 90) == pytest.approx(9.0)
