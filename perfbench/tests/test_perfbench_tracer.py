"""Tests of the benchmark's tracer: wrapping, restoring, absent targets and
the self-time arithmetic the per-layer report relies on."""

import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import probes  # noqa: E402
from tracer import SetupDone, Tracer, analyse  # noqa: E402


@pytest.fixture
def fake_module(monkeypatch):
    mod = types.ModuleType("perfbench_fake_layer")

    def leaf(x):
        return x + 1

    def outer(x):
        return mod.leaf(x) * 2  # looked up at call time, like the program does

    class Engine:
        def step(self, x):
            return mod.leaf(x)

    mod.leaf, mod.outer, mod.Engine = leaf, outer, Engine
    monkeypatch.setitem(sys.modules, mod.__name__, mod)
    return mod


def test_absent_targets_are_reported_not_raised(fake_module):
    tr = Tracer()
    # a deleted module, a deleted function and a deleted method
    assert not tr.wrap("perfbench_no_such_module:jacobi_eigh", "kernels.eigh")
    assert not tr.wrap("perfbench_fake_layer:jacobi_eigh", "kernels.eigh")
    assert not tr.wrap("perfbench_fake_layer:Engine.gone", "x.gone")
    assert not tr.wrap("perfbench_fake_layer:Missing.step", "x.step")
    assert tr.absent == [
        "perfbench_no_such_module:jacobi_eigh",
        "perfbench_fake_layer:jacobi_eigh",
        "perfbench_fake_layer:Engine.gone",
        "perfbench_fake_layer:Missing.step",
    ]
    assert tr.wrap("perfbench_fake_layer:leaf", "fake.leaf")
    assert fake_module.outer(1) == 4
    assert tr.names == ["fake.leaf"]


def test_absent_layer_reports_zero_metrics():
    tr = Tracer()
    tr.wrap("perfbench_no_such_module:jacobi_eigh", "kernels.eigh")
    out = probes.op_metrics({}, {}, tr.counters, 1.0, tr.absent)
    assert out["trace.absent_targets"] == 1
    assert out["kernels.eigh_calls"] == 0 and out["kernels.eigh_ms"] == 0.0
    assert out["trace.unattributed_ms"] == pytest.approx(1000.0)
    assert {name for name, _ in probes.PER_OP} == set(out)


def test_wrap_and_restore_functions_and_methods(fake_module):
    original_leaf = fake_module.leaf
    original_step = fake_module.Engine.__dict__["step"]
    tr = Tracer()
    tr.wrap("perfbench_fake_layer:outer", "fake.outer")
    tr.wrap("perfbench_fake_layer:leaf", "fake.leaf")
    tr.wrap("perfbench_fake_layer:Engine.step", "fake.step")
    assert fake_module.outer(1) == 4
    assert fake_module.Engine().step(1) == 2
    assert tr.names == ["fake.outer", "fake.leaf", "fake.step", "fake.leaf"]
    assert tr.parents == [-1, 0, -1, 2]
    tr.restore()
    assert fake_module.leaf is original_leaf
    assert fake_module.Engine.__dict__["step"] is original_step


def test_result_hook_and_span_less_wrap(fake_module):
    tr = Tracer()
    tr.wrap("perfbench_fake_layer:leaf", None,
            lambda t, result, args: t.count("fake.sum", result))
    fake_module.outer(1)
    fake_module.outer(2)
    assert tr.names == []
    assert tr.counters == {"fake.sum": 5}


def test_begin_hook_can_stop_before_the_first_timed_call(fake_module):
    tr = Tracer()
    tr.wrap("perfbench_fake_layer:leaf", "fake.leaf")

    def stop():
        raise SetupDone

    tr.on_begin("fake.leaf", stop)
    with pytest.raises(SetupDone):
        fake_module.outer(1)
    assert tr.names == [] and tr._stack == []


def test_self_times_partition_the_covered_window():
    tr = Tracer()
    # outer [0, 10] holds a [1, 3] and b [4, 8]; b holds a [5, 6]
    spans = [("x.outer", 0, 10, -1), ("x.a", 1, 3, 0), ("x.b", 4, 8, 0), ("x.a", 5, 6, 2)]
    for name, start, end, parent in spans:
        tr.names.append(name)
        tr.starts.append(float(start))
        tr.ends.append(float(end))
        tr.parents.append(parent)
    stats = analyse(tr, 0.0, 12.0)
    assert stats["x.outer"].self_time == pytest.approx(4.0)
    assert stats["x.b"].self_time == pytest.approx(3.0)
    assert stats["x.a"].self_time == pytest.approx(3.0)
    assert stats["x.a"].inclusive == pytest.approx(3.0)
    assert stats["x.a"].calls == 2
    assert sum(s.self_time for s in stats.values()) == pytest.approx(10.0)
    # clipping to a window that starts inside the outer span
    clipped = analyse(tr, 4.5, 12.0)
    assert sum(s.self_time for s in clipped.values()) == pytest.approx(5.5)
    assert clipped["x.b"].calls == 0 and clipped["x.a"].calls == 1
