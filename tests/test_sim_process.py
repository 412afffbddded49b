"""Tests for coroutine processes, Sleep, SimEvent, wait_all."""

import pytest

from repro.sim import Process, SimEvent, Simulator, Sleep, on_trigger, wait_all


class TestSleep:
    def test_sleep_advances_time(self):
        sim = Simulator()
        times = []

        def prog():
            yield Sleep(1.0)
            times.append(sim.now)
            yield Sleep(2.5)
            times.append(sim.now)

        Process(sim, prog())
        sim.run_to_completion()
        assert times == [1.0, 3.5]

    def test_negative_sleep_rejected(self):
        with pytest.raises(ValueError):
            Sleep(-1.0)

    def test_zero_sleep_allowed(self):
        sim = Simulator()

        def prog():
            yield Sleep(0.0)

        Process(sim, prog())
        sim.run_to_completion()


class TestSimEvent:
    def test_trigger_resumes_waiter_with_value(self):
        sim = Simulator()
        ev = SimEvent(sim)
        got = []

        def waiter():
            got.append((yield ev))

        def firer():
            yield Sleep(2.0)
            ev.trigger("payload")

        Process(sim, waiter())
        Process(sim, firer())
        sim.run_to_completion()
        assert got == ["payload"]
        assert sim.now == 2.0

    def test_wait_on_already_triggered_event_returns_immediately(self):
        sim = Simulator()
        ev = SimEvent(sim)
        ev.trigger(42)
        got = []

        def prog():
            yield Sleep(1.0)
            got.append((yield ev))
            got.append(sim.now)

        Process(sim, prog())
        sim.run_to_completion()
        assert got == [42, 1.0]

    def test_multiple_waiters_all_resume(self):
        sim = Simulator()
        ev = SimEvent(sim)
        got = []

        def waiter(tag):
            value = yield ev
            got.append((tag, value, sim.now))

        for i in range(3):
            Process(sim, waiter(i))

        def firer():
            yield Sleep(1.0)
            ev.trigger("x")

        Process(sim, firer())
        sim.run_to_completion()
        assert got == [(0, "x", 1.0), (1, "x", 1.0), (2, "x", 1.0)]

    def test_double_trigger_rejected(self):
        sim = Simulator()
        ev = SimEvent(sim)
        ev.trigger()
        with pytest.raises(RuntimeError):
            ev.trigger()

    def test_format_tuple_name_renders_on_read(self):
        sim = Simulator()
        ev = SimEvent(sim, name=("send:{}->{}t{}", 3, 5, 7))
        assert ev.name == "send:3->5t7"
        assert repr(ev) == "<SimEvent 'send:3->5t7' 0 waiting>"
        assert SimEvent(sim, name="plain").name == "plain"
        assert SimEvent(sim).name == ""

    def test_double_trigger_error_quotes_lazy_name(self):
        sim = Simulator()
        ev = SimEvent(sim, name=("xfer:{}->{}:{}", 0, 1, 1024))
        ev.trigger()
        with pytest.raises(RuntimeError, match=r"^SimEvent 'xfer:0->1:1024' triggered twice$"):
            ev.trigger()


class TestOnTrigger:
    """Glue callbacks on a pending event run synchronously inside
    ``trigger``; only an already-triggered event defers them."""

    def test_callback_runs_inside_trigger_without_queueing(self):
        sim = Simulator()
        sim.run(until=2.5)
        ev = SimEvent(sim)
        got = []
        on_trigger(ev, lambda value: got.append((value, sim.now)))
        ev.trigger("v")
        assert got == [("v", 2.5)]
        assert sim.now == 2.5
        assert sim.peek() is None

    def test_callbacks_fire_in_registration_order(self):
        sim = Simulator()
        ev = SimEvent(sim)
        order = []
        for i in range(5):
            on_trigger(ev, lambda value, i=i: order.append(i))
        ev.trigger()
        assert order == [0, 1, 2, 3, 4]

    def test_already_triggered_event_defers_to_the_queue(self):
        sim = Simulator()
        ev = SimEvent(sim)
        ev.trigger(7)
        got = []
        on_trigger(ev, got.append)
        assert got == []
        assert sim.peek() == 0.0
        sim.run()
        assert got == [7]
        assert sim.now == 0.0

    def test_chained_trigger_resumes_waiters_at_the_same_instant(self):
        sim = Simulator()
        first, second = SimEvent(sim), SimEvent(sim)
        on_trigger(first, lambda value: second.trigger(value + 1))
        got = []

        def waiter():
            got.append(((yield second), sim.now))

        Process(sim, waiter())
        sim.schedule(1.5, lambda: first.trigger(41))
        sim.run_to_completion()
        assert second.triggered
        assert got == [(42, 1.5)]


class TestResumeInPlace:
    """Resumes never touch the heap: a trigger outside a step runs the
    waiter at once, one inside a step queues it on the run list."""

    def test_long_done_event_chain_does_not_recurse(self):
        sim = Simulator()
        procs = []

        # each process waits for the previous one's done_event
        def chained(prev, i):
            if prev is not None:
                value = yield prev.done_event
                assert value == i - 1
            else:
                yield Sleep(1.0)
            return i

        prev = None
        for i in range(2000):
            prev = Process(sim, chained(prev, i), name=f"p{i}")
            procs.append(prev)
        sim.run_to_completion()
        assert all(p.finished for p in procs)
        assert procs[-1].result == 1999
        assert sim.now == 1.0

    def test_resume_inside_a_step_runs_after_it_in_fifo_order(self):
        sim = Simulator()
        evs = [SimEvent(sim) for _ in range(3)]
        order = []

        def waiter(i):
            yield evs[i]
            order.append((f"w{i}", sim.now))

        def firer():
            yield Sleep(2.0)
            heap = list(sim._heap)
            for ev in (evs[2], evs[0], evs[1]):
                ev.trigger()
            order.append(("firer", sim.now))
            assert sim._heap == heap  # the three resumes queued nothing
            yield Sleep(1.0)

        for i in range(3):
            Process(sim, waiter(i))
        Process(sim, firer())
        sim.run_to_completion()
        assert order == [("firer", 2.0), ("w2", 2.0), ("w0", 2.0), ("w1", 2.0)]

    def test_trigger_outside_a_step_resumes_at_once(self):
        sim = Simulator()
        ev = SimEvent(sim)
        got = []

        def waiter():
            got.append((yield ev))

        Process(sim, waiter())
        sim.run()
        ev.trigger("now")
        assert got == ["now"]
        assert sim.peek() is None

    def test_yield_of_a_triggered_event_continues_in_the_same_step(self):
        sim = Simulator()
        ev = SimEvent(sim)
        ev.trigger(5)
        seen = []

        def prog():
            yield Sleep(1.0)
            heap = list(sim._heap)
            seen.append((yield ev))
            seen.append((yield ev))
            assert sim._heap == heap
            seen.append(sim.now)

        Process(sim, prog())
        sim.run_to_completion()
        assert seen == [5, 5, 1.0]

    def test_a_raising_step_leaves_no_pending_resume(self):
        sim = Simulator()
        ev = SimEvent(sim)
        ran = []

        def waiter():
            yield ev
            ran.append(True)

        def bad():
            yield Sleep(1.0)
            ev.trigger()
            raise ValueError("boom")

        Process(sim, waiter())
        Process(sim, bad())
        with pytest.raises(ValueError, match="boom"):
            sim.run()
        assert not sim._stepping and not sim._run_list
        assert ran == []


class TestDelegation:
    def test_yield_from_subroutine(self):
        sim = Simulator()
        results = []

        def sub(x):
            yield Sleep(1.0)
            return x * 2

        def prog():
            value = yield from sub(21)
            results.append((value, sim.now))

        Process(sim, prog())
        sim.run_to_completion()
        assert results == [(42, 1.0)]

    def test_process_result_and_done_event(self):
        sim = Simulator()

        def prog():
            yield Sleep(1.0)
            return "done-value"

        p = Process(sim, prog())
        watched = []

        def watcher():
            value = yield p.done_event
            watched.append(value)

        Process(sim, watcher())
        sim.run_to_completion()
        assert p.finished
        assert p.result == "done-value"
        assert watched == ["done-value"]

    def test_invalid_yield_raises_typeerror(self):
        sim = Simulator()

        def prog():
            yield "not a primitive"

        Process(sim, prog(), name="bad")
        with pytest.raises(TypeError, match="bad"):
            sim.run()


class TestWaitAll:
    def test_wait_all_completes_at_last_trigger(self):
        sim = Simulator()
        evs = [SimEvent(sim) for _ in range(3)]
        got = []

        def prog():
            values = yield from wait_all(evs)
            got.append((values, sim.now))

        Process(sim, prog())
        for i, (ev, t) in enumerate(zip(evs, [3.0, 1.0, 2.0])):
            sim.schedule(t, lambda ev=ev, i=i: ev.trigger(i))
        sim.run_to_completion()
        assert got == [([0, 1, 2], 3.0)]

    def test_wait_all_empty(self):
        sim = Simulator()
        got = []

        def prog():
            values = yield from wait_all([])
            got.append(values)
            yield Sleep(0.0)

        Process(sim, prog())
        sim.run_to_completion()
        assert got == [[]]


class TestDeterminism:
    def test_two_identical_runs_produce_identical_traces(self):
        def build():
            sim = Simulator()
            trace = []

            def prog(tag, delay):
                yield Sleep(delay)
                trace.append((tag, sim.now))
                yield Sleep(delay)
                trace.append((tag, sim.now))

            for tag in range(8):
                Process(sim, prog(tag, 0.5 + 0.25 * (tag % 3)))
            sim.run_to_completion()
            return trace

        assert build() == build()
