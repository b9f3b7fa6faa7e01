"""Span recorder: self-time arithmetic, wrapper install/restore, forks."""

from __future__ import annotations

import multiprocessing
import os
import sys
import types

import numpy as np
import pytest

from perfbench import layers
from perfbench.tracing import (
    ROOT_SPAN,
    ProcessSpans,
    SpanRecorder,
    Target,
    install,
)


class FakeClock:
    """Each read advances time by ``step`` ns."""

    def __init__(self, step: int = 10) -> None:
        self.now = 0
        self.step = step

    def __call__(self) -> int:
        self.now += self.step
        return self.now


def test_self_time_subtracts_direct_children_only():
    recorder = SpanRecorder("t", clock=FakeClock())

    inner = recorder.wrap("inner", lambda: None)

    def middle_body():
        inner()
        inner()

    middle = recorder.wrap("middle", middle_body)
    outer = recorder.wrap("outer", lambda: middle())

    root = recorder.open(ROOT_SPAN)
    outer()
    recorder.close(root)

    proc = recorder.snapshot()
    dur = dict(zip((proc.names[n] for n in proc.spans[:, 1]), proc.durations()))
    # Clock reads in order: root 10, outer 20, middle 30, inner 40/50,
    # inner 60/70, middle end 80, outer end 90, root end 100.
    assert dur == {ROOT_SPAN: 90, "outer": 70, "middle": 50, "inner": 10}
    assert proc.self_ns_by_name() == {
        ROOT_SPAN: 90 - 70,
        "outer": 70 - 50,
        "middle": 50 - 2 * 10,
        "inner": 2 * 10,
    }
    # Self times of every span add up to the root's duration.
    assert int(proc.self_times().sum()) == 90


def test_calls_do_not_count_same_name_delegation():
    recorder = SpanRecorder("t", clock=FakeClock())
    inner = recorder.wrap("layer", lambda: None)
    outer = recorder.wrap("layer", lambda: inner())
    outer()
    outer()
    inner()
    assert recorder.snapshot().calls_by_name() == {"layer": 3}


def test_hook_counts_and_tags():
    recorder = SpanRecorder("t", clock=FakeClock())

    def hook(rec, args, kwargs, result):
        rec.count("calls")
        rec.sample("width", result)
        return args[0]

    square = recorder.wrap("square", lambda x: x * x, hook)
    assert square(3) == 9
    assert square(4) == 16
    proc = recorder.snapshot()
    assert proc.counters == {"calls": 2}
    assert proc.samples == {"width": [9, 16]}
    assert proc.spans[:, 4].tolist() == [3, 4]


def test_exception_still_closes_the_span():
    recorder = SpanRecorder("t", clock=FakeClock())

    def boom():
        raise ValueError("x")

    wrapped = recorder.wrap("boom", boom)
    with pytest.raises(ValueError):
        wrapped()
    assert recorder.stack == []
    assert recorder.snapshot().durations().tolist() == [10]


class Widget:
    def spin(self, n):
        return n + 1


def test_install_and_restore_class_and_module_functions():
    module = types.ModuleType("perfbench_fake_mod")
    module.helper = lambda: 7
    copy = types.ModuleType("perfbench_fake_mod.copy")
    copy.helper = module.helper  # a ``from x import helper`` copy
    sys.modules[module.__name__] = module
    sys.modules[copy.__name__] = copy
    original_spin = Widget.__dict__["spin"]
    original_helper = module.helper
    try:
        recorder = SpanRecorder("t")
        installed = install(
            recorder,
            [Target(Widget, "spin", "widget"), Target(module, "helper", "helper")],
            package="perfbench_fake_mod",
        )
        assert Widget.__dict__["spin"] is not original_spin
        assert copy.helper is module.helper is not original_helper
        assert Widget().spin(1) == 2 and copy.helper() == 7
        assert recorder.snapshot().calls_by_name() == {"widget": 1, "helper": 1}
        installed.restore()
        assert Widget.__dict__["spin"] is original_spin
        assert module.helper is original_helper and copy.helper is original_helper
        assert installed.restored()
    finally:
        del sys.modules[module.__name__], sys.modules[copy.__name__]


def test_install_rejects_an_inherited_attribute():
    class Child(Widget):
        pass

    with pytest.raises(AttributeError):
        install(SpanRecorder("t"), [Target(Child, "spin", "x")])
    assert "spin" not in Child.__dict__


def test_layer_wrappers_are_removed_after_the_traced_run():
    table = layers.targets()
    before = {
        (id(t.owner), t.attr): (
            t.owner.__dict__[t.attr]
            if isinstance(t.owner, type)
            else getattr(t.owner, t.attr)
        )
        for t in table
    }
    installed = install(SpanRecorder("t"), table)
    assert installed.patches and not installed.restored()
    installed.restore()
    assert installed.restored()
    for t in table:
        now = (
            t.owner.__dict__[t.attr]
            if isinstance(t.owner, type)
            else getattr(t.owner, t.attr)
        )
        assert now is before[(id(t.owner), t.attr)]


def _child_work(fn):
    fn()
    fn()


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs the fork start method",
)
def test_forked_worker_flushes_its_spans(tmp_path):
    recorder = SpanRecorder("t", spool_dir=str(tmp_path))
    recorder.active = True
    wrapped = recorder.wrap("work", lambda: None)
    wrapped()  # a parent span the child must not inherit
    process = multiprocessing.get_context("fork").Process(
        target=_child_work, args=(wrapped,)
    )
    process.start()
    process.join(timeout=30)
    assert not process.is_alive() and process.exitcode == 0
    files = os.listdir(tmp_path)
    assert files == [f"spans-{process.pid}.npz"]
    worker = ProcessSpans.load(str(tmp_path / files[0]))
    assert worker.role == "worker" and worker.pid == process.pid
    assert worker.calls_by_name()["work"] == 2
    # Both calls nest under the worker's root span.
    roots = worker.spans[worker.spans[:, 0] < 0]
    assert len(roots) == 1 and worker.names[roots[0, 1]] == "worker"
    assert recorder.snapshot().calls_by_name()["work"] == 1


def _worker(rounds):
    """Fabricated worker spans: ``rounds`` is [[(member, ns), ...], ...]."""
    rows, clock = [[-1, 1, 0, 0, 0]], 0
    for members in rounds:
        for member, ns in members:
            rows.append([0, 0, clock, clock + ns, member])
            clock += ns
    rows[0][3] = clock
    return ProcessSpans(
        pid=1,
        role="worker",
        names=["fleet.member_round", "worker"],
        spans=np.asarray(rows, dtype=np.int64),
    )


def test_fleet_busy_and_straggler_per_round():
    ms = 1_000_000
    fast = _worker([[(0, 1 * ms), (2, 1 * ms)], [(0, 2 * ms), (2, 2 * ms)]])
    slow = _worker([[(1, 3 * ms), (3, 3 * ms)], [(1, 1 * ms), (3, 1 * ms)]])
    out = layers.fleet_metrics([fast, slow])
    assert out["fleet.worker_busy_ms"] == (6 + 8) / 2
    # Round 0: 6 ms vs 2 ms; round 1: 2 ms vs 4 ms.
    assert out["fleet.straggler_ms"] == 4.0 + 2.0
