import pytest

from perfbench import stats
from perfbench.tracing import SAMPLE_EVERY, Tracer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class Request:
    def __init__(self, request_id):
        self.request_id = request_id


class Base:
    def inherited(self):
        return "base"


class Layered(Base):
    """Three 'layers' calling each other, each advancing a fake clock."""

    clock = None

    def handle_arrival(self, request):
        self.clock.now += 1.0
        self.middle(request)
        self.clock.now += 2.0
        self.middle(request)
        self.clock.now += 0.5

    def middle(self, request):
        self.clock.now += 1.0
        self.inner()
        self.clock.now += 1.0

    def inner(self):
        self.clock.now += 0.25

    @classmethod
    def build(cls):
        return cls()


@pytest.fixture
def traced():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    originals = dict(vars(Layered))
    tracer.patch(Layered, "handle_arrival", "top", "Layered.handle_arrival")
    tracer.patch(Layered, "middle", "mid", "Layered.middle")
    tracer.patch(Layered, "inner", "low", "Layered.inner")
    tracer.patch(Layered, "build", "top", "Layered.build")
    tracer.patch(Base, "inherited", "low", "Base.inherited")
    Layered.clock = clock
    yield tracer, clock
    tracer.uninstall()
    Layered.clock = None
    assert {k: vars(Layered)[k] for k in ("handle_arrival", "middle", "inner")} == {
        k: originals[k] for k in ("handle_arrival", "middle", "inner")
    }


def test_self_time_subtracts_child_spans(traced):
    tracer, clock = traced
    Layered.build().handle_arrival(Request(4))
    # outer: 1 + 2 + 0.5 own; each middle: 2 own; each inner: 0.25.
    assert tracer.self_s("top") == pytest.approx(3.5)
    assert tracer.self_s("mid") == pytest.approx(4.0)
    assert tracer.self_s("low") == pytest.approx(0.5)
    assert sum(acc[0] for acc in tracer.layers.values()) == pytest.approx(clock.now)
    assert tracer.calls("mid") == 2 and tracer.count("Layered.inner") == 2
    assert tracer.inclusive_s("Layered.handle_arrival") == pytest.approx(clock.now)


def test_tracer_matches_reference_self_times(traced):
    tracer, _ = traced
    Layered().handle_arrival(Request(SAMPLE_EVERY))
    spans = [(name, start, end) for _, _, name, _, start, end in tracer.spans]
    reference = stats.self_times(spans)
    assert reference["Layered.handle_arrival"] == pytest.approx(tracer.self_s("top"))
    assert reference["Layered.middle"] == pytest.approx(tracer.self_s("mid"))
    assert reference["Layered.inner"] == pytest.approx(tracer.self_s("low"))


def test_spans_kept_only_for_sampled_requests(traced):
    tracer, _ = traced
    Layered().handle_arrival(Request(3))
    assert tracer.spans == []
    Layered().handle_arrival(Request(2 * SAMPLE_EVERY))
    assert {span[0] for span in tracer.spans} == {2 * SAMPLE_EVERY}
    parents = {span[2]: span[3] for span in tracer.spans}
    assert parents == {
        "Layered.inner": "Layered.middle",
        "Layered.middle": "Layered.handle_arrival",
        "Layered.handle_arrival": None,
    }


def test_wrappers_keep_names_and_inherited_identity(traced):
    assert Layered.handle_arrival.__qualname__ == "Layered.handle_arrival"
    assert Layered.inherited is Base.inherited
    assert Layered().inherited() == "base"
    assert isinstance(Layered.build(), Layered)


def test_exceptions_still_close_the_span():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def boom():
        clock.now += 1.0
        raise RuntimeError("x")

    wrapped = tracer.wrap(boom, "layer", "boom")
    with pytest.raises(RuntimeError):
        wrapped()
    assert tracer.self_s("layer") == 1.0
    assert tracer._stack == []
