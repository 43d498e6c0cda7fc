"""TickProfiler unit tests: enable/disable contract and the counter report."""

from repro.perf import profile
from repro.perf.profile import TickProfiler


def test_enable_disable_roundtrip():
    assert profile.PROFILER is None
    prof = profile.enable()
    assert profile.PROFILER is prof
    assert profile.disable() is prof
    assert profile.PROFILER is None
    # disabling when already off is a harmless no-op
    assert profile.disable() is None


def test_enable_replaces_previous_profiler():
    first = profile.enable()
    second = profile.enable()
    try:
        assert second is not first
        assert profile.PROFILER is second
    finally:
        profile.disable()


def test_report_lists_every_counter():
    prof = TickProfiler()
    for name in TickProfiler.__slots__:
        setattr(prof, name, 3)
    rep = prof.report()
    assert "3 ticks" in rep and "3 assignments" in rep
    for name in TickProfiler.__slots__:
        if name not in ("ticks", "assignments"):
            assert f"{name}=3" in rep


def test_report_on_empty_profiler_does_not_divide_by_zero():
    assert "0 ticks" in TickProfiler().report()
