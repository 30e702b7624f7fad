"""Span accounting and patching of the benchmark's layer wrappers."""

import os
import sys
import types

import pytest

from perfbench import tracing
from perfbench.tracing import ROOT_SPAN, Tracer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_is_span_minus_children():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def leaf():
        clock.now += 2.0

    def parent():
        clock.now += 1.0
        leaf_w()
        leaf_w()
        clock.now += 3.0

    leaf_w = tracer.wrap("leaf", leaf)
    tracer.wrap(ROOT_SPAN, parent)()
    assert tracer.calls("leaf") == 2
    assert tracer.total(ROOT_SPAN) == pytest.approx(8.0)
    assert tracer.self_time(ROOT_SPAN) == pytest.approx(4.0)
    assert tracer.self_time("leaf") == pytest.approx(4.0)
    assert tracer.root_children == [("leaf", 2.0), ("leaf", 2.0)]
    assert tracer.under("leaf", {ROOT_SPAN}).calls == 2
    assert tracer.under("leaf", {None}).calls == 0


def test_patch_function_rebinds_every_module_and_restores():
    def work():
        return 42

    names = ("repro.perfbench_fake_a", "repro.perfbench_fake_b")
    mods = []
    for name in names:
        mod = types.ModuleType(name)
        mod.work = work
        mod.alias = work
        sys.modules[name] = mod
        mods.append(mod)
    try:
        tracer = Tracer()
        assert tracer.patch_function(names[0], "work", "fake") == 4
        assert mods[1].alias() == 42 and mods[0].work() == 42
        assert tracer.calls("fake") == 2
        tracer.restore()
        assert all(m.work is work and m.alias is work for m in mods)
    finally:
        for name in names:
            del sys.modules[name]


def test_patch_method_handles_classmethods_and_restores():
    class Thing:
        @classmethod
        def make(cls, x):
            return (cls, x)

        def twice(self, x):
            return 2 * x

    raw_make, raw_twice = Thing.__dict__["make"], Thing.__dict__["twice"]
    tracer = Tracer()
    tracer.patch_method(Thing, "make", "make")
    tracer.patch_method(Thing, "twice", "twice")
    assert Thing.make(3) == (Thing, 3)
    assert Thing().twice(4) == 8
    assert tracer.calls("make") == 1 and tracer.calls("twice") == 1
    tracer.restore()
    assert Thing.__dict__["make"] is raw_make
    assert Thing.__dict__["twice"] is raw_twice


def test_require_fired_names_the_silent_layers():
    tracer = Tracer()
    tracer.wrap("a", lambda: None)()
    tracing.require_fired(tracer, ["a"])
    with pytest.raises(RuntimeError, match="b, c"):
        tracing.require_fired(tracer, ["a", "c", "b"])


def test_json_round_trip_keeps_aggregates():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def inner():
        clock.now += 1.0

    inner_w = tracer.wrap("inner", inner)

    def outer():
        inner_w()
        clock.now += 0.5

    tracer.wrap("outer", outer)()
    tracer.count("widgets", 3)
    back = Tracer.from_json(tracer.to_json())
    assert back.total("outer") == pytest.approx(1.5)
    assert back.self_time("outer") == pytest.approx(0.5)
    assert back.under("inner", {"outer"}).calls == 1
    assert back.counters["widgets"] == 3
    assert back.top_level == [("outer", 0.0, 1.5)]


def test_fit_phases_orders_trainer_fits():
    tracer = Tracer()
    tracer.root_children = [
        ("entropy.relative", 1.0), ("entropy.sequences", 2.0),
        ("gnn.fit", 3.0), ("gnn.fit", 4.0), ("gnn.eval", 0.5),
        ("rl.collect", 5.0), ("rl.update", 6.0), ("graph.homophily", 0.25),
        ("gnn.fit", 7.0),
    ]
    phases = tracing.fit_phases(tracer, 30.0)
    assert phases["phase.entropy_s"] == 3.0
    assert phases["phase.baseline_s"] == 3.0
    assert phases["phase.warmstart_s"] == 4.0
    assert phases["phase.final_s"] == 7.0
    assert phases["phase.select_s"] == 0.75
    assert phases["phase.unattributed_s"] == pytest.approx(30.0 - 28.75)


def test_install_wraps_every_layer_and_restores():
    from repro.core import framework
    from repro.gnn import Trainer, evaluate

    raw_fit = Trainer.__dict__["fit"]
    tracer = tracing.install(Tracer())
    try:
        assert framework.evaluate is not evaluate
        assert Trainer.__dict__["fit"] is not raw_fit
    finally:
        tracer.restore()
    assert framework.evaluate is evaluate
    assert Trainer.__dict__["fit"] is raw_fit


def test_cold_call_runs_in_a_child_that_is_waited_for():
    assert tracing.cold_call(os.getpid) != os.getpid()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
