"""Self-time arithmetic on synthetic span trees."""

import pytest

import spans


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _tree():
    """A[0,10] { B[2,5] { A[3,4] }  C[6,8] }, then B[11,12] at the root."""
    clock = FakeClock()
    rec = spans.SpanRecorder(clock)

    def at(t):
        clock.now = t

    a = rec.enter("A")
    at(2); b = rec.enter("B")
    at(3); inner = rec.enter("A")
    at(4); rec.exit(inner)
    at(5); rec.exit(b)
    at(6); c = rec.enter("C")
    at(8); rec.exit(c)
    at(10); rec.exit(a)
    at(11); b2 = rec.enter("B")
    at(12); rec.exit(b2)
    return rec


def test_self_time_with_recursion_and_reentry():
    out = spans.self_times(_tree().to_dict())
    # outer A: 10 - B(3) - C(2) = 5; inner A (recursion): 1
    assert out["A"] == (pytest.approx(6.0), 2)
    # B under A: 3 - inner A(1) = 2; B re-entered at the root: 1
    assert out["B"] == (pytest.approx(3.0), 2)
    assert out["C"] == (pytest.approx(2.0), 1)
    # self times add up to the time covered by root spans
    assert sum(s for s, _ in out.values()) == pytest.approx(11.0)


def test_windows_keep_only_spans_inside():
    out = spans.self_times(_tree().to_dict(), windows=[(10.5, 12.5)])
    assert out == {"B": (pytest.approx(1.0), 1)}


def test_exception_closes_every_open_span():
    clock = FakeClock()
    rec = spans.SpanRecorder(clock)

    def boom():
        clock.now += 1.0
        raise ValueError("x")

    outer = rec.wrap("outer", lambda: rec.wrap("inner", boom)())
    with pytest.raises(ValueError):
        outer()
    payload = rec.to_dict()
    assert None not in payload["end"]
    out = spans.self_times(payload)
    assert out["inner"] == (pytest.approx(1.0), 1)
    assert out["outer"] == (pytest.approx(0.0), 1)


def test_startup_span_and_dump_round_trip(tmp_path):
    rec = spans.SpanRecorder(FakeClock())
    rec.add("startup", -0.5, 0.0)
    path = str(tmp_path / "spans.json")
    spans.dump(path, rec, counters={"mcf.pivots": 3.0}, unbound=["m:f"])
    payload = spans.load(path)
    assert spans.self_times(payload) == {"startup": (0.5, 1)}
    assert payload["counters"] == {"mcf.pivots": 3.0}
    assert payload["unbound"] == ["m:f"]
