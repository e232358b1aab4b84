"""Tests for the startup-contention pool (batch and shared modes)."""

import pytest

from repro.errors import ProcessError
from repro.procmgr.contention import StartupContention


def complete_recorder(kernel):
    done = []

    def make(name):
        return lambda: done.append((name, kernel.now))

    return done, make


def test_single_startup_uncontended_batch(kernel):
    pool = StartupContention(kernel, coefficient=0.1, mode="batch")
    done, make = complete_recorder(kernel)
    pool.begin("a", 5.0, make("a"), batch_size=1)
    kernel.run()
    assert done == [("a", 5.0)]


def test_batch_mode_inflates_by_batch_size(kernel):
    pool = StartupContention(kernel, coefficient=0.1, mode="batch")
    done, make = complete_recorder(kernel)
    pool.begin("a", 10.0, make("a"), batch_size=5)
    kernel.run()
    assert done[0][1] == pytest.approx(10.0 * (1 + 0.1 * 4))


def test_batch_mode_fixed_despite_other_finishers(kernel):
    pool = StartupContention(kernel, coefficient=0.1, mode="batch")
    done, make = complete_recorder(kernel)
    pool.begin("fast", 1.0, make("fast"), batch_size=2)
    pool.begin("slow", 10.0, make("slow"), batch_size=2)
    kernel.run()
    assert dict(done)["fast"] == pytest.approx(1.1)
    assert dict(done)["slow"] == pytest.approx(11.0)


def test_shared_mode_two_equal_startups(kernel):
    pool = StartupContention(kernel, coefficient=0.5, mode="shared")
    done, make = complete_recorder(kernel)
    pool.begin("a", 2.0, make("a"))
    pool.begin("b", 2.0, make("b"))
    kernel.run()
    # Both run at rate 1/1.5 until both finish: 2.0 * 1.5 = 3.0
    assert dict(done)["a"] == pytest.approx(3.0)
    assert dict(done)["b"] == pytest.approx(3.0)


def test_shared_mode_contention_fades(kernel):
    pool = StartupContention(kernel, coefficient=0.5, mode="shared")
    done, make = complete_recorder(kernel)
    pool.begin("short", 1.0, make("short"))
    pool.begin("long", 10.0, make("long"))
    kernel.run()
    results = dict(done)
    # short: 1.0 work at rate 2/3 -> 1.5s.
    assert results["short"] == pytest.approx(1.5)
    # long: 1.0 progress by 1.5s, remaining 9.0 at full rate -> 10.5s.
    assert results["long"] == pytest.approx(10.5)


def test_shared_mode_late_joiner_slows_existing(kernel):
    pool = StartupContention(kernel, coefficient=0.5, mode="shared")
    done, make = complete_recorder(kernel)
    pool.begin("first", 4.0, make("first"))
    kernel.schedule_after(2.0, pool.begin, "second", 4.0, make("second"))
    kernel.run()
    results = dict(done)
    # first: 2.0 done solo; remaining 2.0 at rate 2/3 -> finishes at 5.0.
    assert results["first"] == pytest.approx(5.0)
    # second: 2.0 at 2/3 rate (until 5.0), then 2.0 solo -> 7.0.
    assert results["second"] == pytest.approx(7.0)


def test_abort_prevents_completion(kernel):
    pool = StartupContention(kernel, coefficient=0.0, mode="batch")
    done, make = complete_recorder(kernel)
    pool.begin("a", 5.0, make("a"))
    kernel.schedule_after(1.0, pool.abort, "a")
    kernel.run()
    assert done == []
    assert not pool.is_starting("a")


def test_abort_speeds_up_survivors_shared(kernel):
    pool = StartupContention(kernel, coefficient=1.0, mode="shared")
    done, make = complete_recorder(kernel)
    pool.begin("a", 4.0, make("a"))
    pool.begin("b", 4.0, make("b"))
    kernel.schedule_after(2.0, pool.abort, "b")
    kernel.run()
    # a: 2s at rate 1/2 (1.0 banked), then 3.0 remaining solo -> 5.0.
    assert dict(done)["a"] == pytest.approx(5.0)


def test_abort_unknown_is_noop(kernel):
    pool = StartupContention(kernel, mode="shared")
    pool.abort("ghost")
    pool = StartupContention(kernel, mode="batch")
    pool.abort("ghost")


def test_duplicate_begin_rejected(kernel):
    pool = StartupContention(kernel)
    pool.begin("a", 1.0, lambda: None)
    with pytest.raises(ProcessError):
        pool.begin("a", 1.0, lambda: None)


def test_invalid_parameters_rejected(kernel):
    with pytest.raises(ProcessError):
        StartupContention(kernel, coefficient=-0.1)
    with pytest.raises(ProcessError):
        StartupContention(kernel, mode="magic")
    pool = StartupContention(kernel)
    with pytest.raises(ProcessError):
        pool.begin("a", -1.0, lambda: None)
    with pytest.raises(ProcessError):
        pool.begin("b", 1.0, lambda: None, batch_size=0)


def test_zero_coefficient_means_independent(kernel):
    pool = StartupContention(kernel, coefficient=0.0, mode="batch")
    done, make = complete_recorder(kernel)
    pool.begin("a", 3.0, make("a"), batch_size=10)
    kernel.run()
    assert done == [("a", 3.0)]


def test_rate_formula():
    from repro.sim.kernel import Kernel

    pool = StartupContention(Kernel(), coefficient=0.25)
    assert pool.rate(1) == 1.0
    assert pool.rate(5) == pytest.approx(1.0 / 2.0)


def test_active_count_tracks(kernel):
    pool = StartupContention(kernel, mode="shared")
    pool.begin("a", 1.0, lambda: None)
    pool.begin("b", 2.0, lambda: None)
    assert pool.active_count == 2
    kernel.run()
    assert pool.active_count == 0


def test_a_stale_completion_does_not_finish_a_restarted_startup(kernel):
    """Abort ``a`` and begin it again inside the first startup's window:
    the first completion (due at 5.0) holds a stale ticket and returns, so
    only the second startup's own completion finishes ``a``."""
    pool = StartupContention(kernel, coefficient=0.0, mode="batch")
    done, make = complete_recorder(kernel)
    pool.begin("a", 5.0, make("a"))
    kernel.schedule_after(1.0, pool.abort, "a")
    kernel.schedule_after(2.0, pool.begin, "a", 10.0, make("a"))
    kernel.run(until=11.0)
    assert done == [] and pool.is_starting("a")
    kernel.run()
    assert done == [("a", 12.0)]
    assert not pool.is_starting("a")


def test_shared_mode_membership_changes_complete_each_startup_once(kernel):
    """Three startups, two joins: every join re-times the others, leaving
    their earlier completions in the queue with stale tickets.  Each
    ``on_complete`` fires exactly once, at the instant the cancelling pool
    produced (c: 1.0 work from t=2 at rate 1/2 → 4.0; a and b then share
    rate 2/3 and finish together at 6.0)."""
    pool = StartupContention(kernel, coefficient=0.5, mode="shared")
    done, make = complete_recorder(kernel)
    pool.begin("a", 4.0, make("a"))
    kernel.schedule_after(1.0, pool.begin, "b", 3.0, make("b"))
    kernel.schedule_after(2.0, pool.begin, "c", 1.0, make("c"))
    kernel.run()
    assert done == [("c", 4.0), ("a", 6.0), ("b", 6.0)]
    assert pool.active_count == 0
