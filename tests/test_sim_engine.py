"""Tests for the DES event engine."""

import pytest

from repro.sim import DeadlockError, Process, Simulator, Sleep


class TestScheduling:
    def test_clock_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_events_fire_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(2.0, lambda: order.append("b"))
        sim.schedule(1.0, lambda: order.append("a"))
        sim.schedule(3.0, lambda: order.append("c"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_ties_fire_in_schedule_order(self):
        sim = Simulator()
        order = []
        for tag in range(5):
            sim.schedule(1.0, lambda t=tag: order.append(t))
        sim.run()
        assert order == [0, 1, 2, 3, 4]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [1.5]
        assert sim.now == 1.5

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Simulator().schedule(-0.1, lambda: None)

    def test_schedule_during_callback(self):
        sim = Simulator()
        order = []

        def first():
            order.append("first")
            sim.schedule(0.5, lambda: order.append("second"))

        sim.schedule(1.0, first)
        sim.run()
        assert order == ["first", "second"]
        assert sim.now == 1.5

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(4.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [4.0]

    def test_schedule_at_past_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.schedule_at(0.5, lambda: None)


class TestCancel:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, lambda: fired.append(1))
        sim.cancel(handle)
        sim.run()
        assert fired == []

    def test_cancel_after_fire_is_noop(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        sim.run()
        sim.cancel(handle)  # must not raise
        sim.run()

    def test_peek_skips_cancelled(self):
        sim = Simulator()
        h = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.cancel(h)
        assert sim.peek() == 2.0

    def test_cancel_after_fire_leaves_no_state(self):
        # regression: the seed kept every post-fire cancelled seq in a
        # set forever, so long-running simulations leaked memory
        sim = Simulator()
        handles = [sim.schedule(1.0, lambda: None) for _ in range(100)]
        sim.run()
        for h in handles:
            sim.cancel(h)
        assert sim._heap == []
        fired = []
        sim.schedule(1.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [2.0]

    def test_cancelled_pending_event_is_dropped_when_reached(self):
        sim = Simulator()
        for _ in range(50):
            sim.cancel(sim.schedule(1.0, lambda: None))
        sim.run()
        assert sim._heap == []

    def test_double_cancel_is_noop(self):
        sim = Simulator()
        fired = []
        h = sim.schedule(1.0, lambda: fired.append(1))
        sim.cancel(h)
        sim.cancel(h)
        later = sim.schedule(2.0, lambda: fired.append(2))
        sim.run()
        assert fired == [2]
        assert sim._heap == []
        # cancelling handles that already fired or were cancelled must
        # not touch an event scheduled afterwards
        sim.cancel(h)
        sim.cancel(later)
        sim.schedule(1.0, lambda: fired.append(3))
        sim.run()
        assert fired == [2, 3]


class TestRunBounds:
    def test_run_until_stops_clock_at_bound(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(5.0, lambda: fired.append(2))
        sim.run(until=2.0)
        assert fired == [1]
        assert sim.now == 2.0
        sim.run()
        assert fired == [1, 2]

    def test_run_until_advances_clock_past_last_event(self):
        sim = Simulator()
        sim.run(until=10.0)
        assert sim.now == 10.0

    def test_max_events(self):
        sim = Simulator()
        fired = []
        for _ in range(5):
            sim.schedule(1.0, lambda: fired.append(1))
        sim.run(max_events=3)
        assert len(fired) == 3

        # cancelled entries between live ones do not count against the budget
        sim = Simulator()
        fired = []
        for t in range(1, 8):
            h = sim.schedule(float(t), lambda t=t: fired.append(t))
            if t % 2 == 0:
                sim.cancel(h)
        sim.run(max_events=3)
        assert fired == [1, 3, 5]
        assert sim.now == 5.0
        sim.run()
        assert fired == [1, 3, 5, 7]

    def test_step_empty_returns_false(self):
        assert Simulator().step() is False


class TestDeadlockDetection:
    def test_blocked_process_raises(self):
        from repro.sim import SimEvent

        sim = Simulator()
        ev = SimEvent(sim)

        def prog():
            yield ev  # never triggered

        Process(sim, prog(), name="stuck")
        with pytest.raises(DeadlockError, match="stuck"):
            sim.run_to_completion()

    def test_finished_processes_ok(self):
        sim = Simulator()

        def prog():
            yield Sleep(1.0)

        Process(sim, prog())
        sim.run_to_completion()
        assert sim.now == 1.0


class TestTailLane:
    def test_tail_runs_after_all_ordinary_events_of_the_instant(self):
        sim = Simulator()
        ran = []
        sim.schedule_tail(lambda: ran.append("tail"))
        # ordinary events scheduled *after* the tail still run first ...
        sim.schedule(0.0, lambda: ran.append("a"))
        # ... including zero-delay events added while the instant executes
        sim.schedule(0.0, lambda: sim.schedule(0.0, lambda: ran.append("b")))
        sim.run()
        assert ran == ["a", "b", "tail"]

    def test_tail_does_not_leak_into_later_instants(self):
        sim = Simulator()
        ran = []

        def first():
            sim.schedule_tail(lambda: ran.append("tail@0"))
            sim.schedule(1.0, lambda: ran.append("later"))

        sim.schedule(0.0, first)
        sim.run()
        assert ran == ["tail@0", "later"]

    def test_tail_is_cancellable(self):
        sim = Simulator()
        ran = []
        handle = sim.schedule_tail(lambda: ran.append("tail"))
        sim.schedule(0.0, lambda: ran.append("a"))
        sim.cancel(handle)
        sim.run()
        assert ran == ["a"]

    def test_tail_events_keep_schedule_order_among_themselves(self):
        sim = Simulator()
        ran = []
        sim.schedule_tail(lambda: ran.append(1))
        sim.schedule_tail(lambda: ran.append(2))
        sim.run()
        assert ran == [1, 2]

    def test_tail_runs_after_shuffled_ordinary_events(self):
        from repro.sim import Tail

        def order(seed):
            sim = Simulator()
            if seed is not None:
                sim.instrument(tie_shuffle_seed=seed)
            ran = []

            def parker():
                yield Tail()
                ran.append("tail")

            Process(sim, parker())
            for i in range(5):
                sim.schedule(0.0, lambda i=i: ran.append(i))
            sim.run()
            return ran

        for seed in (None, 1, 2, 3):
            ran = order(seed)
            assert ran[-1] == "tail"
            assert sorted(ran[:-1]) == [0, 1, 2, 3, 4]
