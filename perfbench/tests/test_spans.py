"""Span arithmetic and wrapper restore of the traced run's recorder."""

import json
import types

import pytest

from perfbench.spans import SpanRecorder, patched


class FakeClock:
    def __init__(self, ticks):
        self.ticks = list(ticks)

    def __call__(self):
        return self.ticks.pop(0)


def nested(rec):
    """outer() calls a() then b(); b() calls c()."""
    c = rec.wrap(lambda: None, "c")
    a = rec.wrap(lambda: None, "a")
    b = rec.wrap(lambda: c(), "b")
    return rec.wrap(lambda: (a(), b()), "outer")


def test_self_time_is_duration_minus_covered_child_time():
    # outer [0, 10] holds a [1, 4] and b [5, 6]; b holds c [5.5, 5.75]
    rec = SpanRecorder(clock=FakeClock([0, 1, 4, 5, 5.5, 5.75, 6, 10]))
    nested(rec)()
    assert rec.self_s("outer") == pytest.approx(10 - 3 - 1)
    assert rec.self_s("a") == pytest.approx(3)
    assert rec.self_s("b") == pytest.approx(1 - 0.25)
    assert rec.self_s("c") == pytest.approx(0.25)
    assert rec.calls("outer") == 1 and rec.calls("missing") == 0
    by_name = {name: (span_id, parent) for span_id, parent, name, _, _ in rec.spans}
    assert by_name["outer"][1] == -1
    assert by_name["a"][1] == by_name["outer"][0]
    assert by_name["c"][1] == by_name["b"][0]


def test_self_time_of_repeated_calls_accumulates():
    rec = SpanRecorder(clock=FakeClock([0, 1, 2, 3, 4, 8]))
    body = rec.wrap(lambda: None, "body")
    rec.wrap(lambda: [body() for _ in range(2)], "loop")()
    assert rec.calls("body") == 2
    assert rec.self_s("body") == pytest.approx(2)
    assert rec.self_s("loop") == pytest.approx(8 - 2)


def test_a_raising_call_still_closes_its_span():
    rec = SpanRecorder(clock=FakeClock([0, 1, 2, 3]))

    def fail():
        raise ValueError("boom")

    outer = rec.wrap(lambda: rec.wrap(fail, "inner")(), "outer")
    with pytest.raises(ValueError):
        outer()
    assert rec.calls("inner") == 1 and rec.calls("outer") == 1
    assert rec.self_s("outer") == pytest.approx(3 - 1)


def test_spans_beyond_the_cap_are_counted_not_kept(tmp_path):
    rec = SpanRecorder(keep_spans=3)
    x = rec.wrap(lambda: None, "x")
    for _ in range(5):
        x()
    assert rec.calls("x") == 5
    assert len(rec.spans) == 3 and rec.dropped == 2
    out = tmp_path / "spans.jsonl"
    rec.write(out)
    lines = out.read_text().splitlines()
    assert json.loads(lines[0]) == {"spans": 3, "dropped": 2}
    assert len(lines) == 4


class Target:
    def method(self, x):
        return x + 1

    @classmethod
    def factory(cls, x):
        return x * 2

    @staticmethod
    def helper(x):
        return x - 1


def module_function(x):
    return -x


def test_wrapped_attributes_are_traced_and_restored_after_a_raise():
    module = types.ModuleType("fake")
    module.fn = module_function
    originals = {
        name: vars(Target)[name] for name in ("method", "factory", "helper")
    }
    rec = SpanRecorder()
    targets = [
        ("t.method", Target, "method"),
        ("t.factory", Target, "factory"),
        ("t.helper", Target, "helper"),
        ("m.fn", module, "fn"),
    ]
    with pytest.raises(ValueError):
        with patched(rec, targets):
            assert Target().method(1) == 2
            assert Target.factory(3) == 6
            assert Target.helper(3) == 2
            assert module.fn(4) == -4
            raise ValueError("workload failed")
    for name in ("t.method", "t.factory", "t.helper", "m.fn"):
        assert rec.calls(name) == 1
    for name, original in originals.items():
        assert vars(Target)[name] is original
    assert module.fn is module_function


def test_a_failing_target_restores_the_ones_already_wrapped():
    original = vars(Target)["method"]
    with pytest.raises(KeyError):
        with patched(SpanRecorder(), [("ok", Target, "method"), ("bad", Target, "nope")]):
            pass
    assert vars(Target)["method"] is original
