"""Discrete-event engine: ordering and bounds."""

import pytest

from repro.simulation.events import EventLoop


class TestScheduling:
    def test_events_run_in_time_order(self):
        loop = EventLoop()
        order = []
        loop.schedule_at(2.0, lambda lp: order.append("b"))
        loop.schedule_at(1.0, lambda lp: order.append("a"))
        loop.schedule_at(3.0, lambda lp: order.append("c"))
        loop.run_until(3.0)
        assert order == ["a", "b", "c"]

    def test_fifo_for_equal_times(self):
        loop = EventLoop()
        order = []
        for tag in ("first", "second", "third"):
            loop.schedule_at(1.0, lambda lp, t=tag: order.append(t))
        loop.run_until(1.0)
        assert order == ["first", "second", "third"]

    def test_clock_advances(self):
        loop = EventLoop()
        seen = []
        loop.schedule_at(5.0, lambda lp: seen.append(lp.now_s))
        loop.run_until(5.0)
        assert seen == [5.0]
        assert loop.now_s == 5.0

    def test_schedule_in_relative(self):
        loop = EventLoop()
        seen = []
        loop.schedule_at(2.0, lambda lp: lp.schedule_in(3.0, lambda l2: seen.append(l2.now_s)))
        loop.run_until(5.0)
        assert seen == [5.0]

    def test_scheduling_in_past_rejected(self):
        loop = EventLoop()
        loop.schedule_at(5.0, lambda lp: None)
        loop.run_until(5.0)
        with pytest.raises(ValueError):
            loop.schedule_at(1.0, lambda lp: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            EventLoop().schedule_in(-1.0, lambda lp: None)


class TestRunUntil:
    def test_stops_at_boundary(self):
        loop = EventLoop()
        ran = []
        loop.schedule_at(1.0, lambda lp: ran.append(1))
        loop.schedule_at(10.0, lambda lp: ran.append(10))
        loop.run_until(5.0)
        assert ran == [1]
        assert loop.now_s == 5.0
        loop.run_until(20.0)
        assert ran == [1, 10]

    def test_boundary_inclusive(self):
        loop = EventLoop()
        ran = []
        loop.schedule_at(5.0, lambda lp: ran.append(5))
        loop.run_until(5.0)
        assert ran == [5]


class TestEdgeCases:
    def test_schedule_at_exactly_now(self):
        loop = EventLoop()
        loop.schedule_at(5.0, lambda lp: None)
        loop.run_until(5.0)
        ran = []
        loop.schedule_at(5.0, lambda lp: ran.append(lp.now_s))  # == now_s
        loop.run_until(5.0)
        assert ran == [5.0]
        assert loop.now_s == 5.0

    def test_schedule_at_now_from_within_callback(self):
        loop = EventLoop()
        order = []

        def first(lp):
            order.append("first")
            lp.schedule_at(lp.now_s, lambda l2: order.append("second"))

        loop.schedule_at(1.0, first)
        loop.run_until(1.0)
        assert order == ["first", "second"]

    def test_callback_exception_does_not_corrupt_loop(self):
        loop = EventLoop()
        ran = []

        def explode(lp):
            raise RuntimeError("boom")

        loop.schedule_at(1.0, explode)
        loop.schedule_at(2.0, lambda lp: ran.append(lp.now_s))
        with pytest.raises(RuntimeError, match="boom"):
            loop.run_until(2.0)
        # The failing event is consumed; clock and heap stay consistent.
        assert loop.now_s == 1.0
        loop.run_until(2.0)
        assert ran == [2.0]
        assert loop.now_s == 2.0
