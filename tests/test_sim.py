"""Unit tests for the discrete-event engine."""

import random

import pytest

from repro.net.sim import Event, SimulationError, Simulator, Timer


class TestScheduling:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(2.0, order.append, "b")
        sim.schedule(1.0, order.append, "a")
        sim.schedule(3.0, order.append, "c")
        sim.run()
        assert order == ["a", "b", "c"]

    def test_ties_run_in_fifo_order(self):
        sim = Simulator()
        order = []
        sim.schedule(1.0, order.append, 1)
        sim.schedule(1.0, order.append, 2)
        sim.schedule(1.0, order.append, 3)
        sim.run()
        assert order == [1, 2, 3]

    def test_now_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(5.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [5.0]

    def test_schedule_in_past_raises(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_schedule_at_in_past_raises(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(0.5, lambda: None)

    def test_nested_scheduling(self):
        sim = Simulator()
        times = []

        def outer():
            times.append(sim.now)
            sim.schedule(1.0, inner)

        def inner():
            times.append(sim.now)

        sim.schedule(1.0, outer)
        sim.run()
        assert times == [1.0, 2.0]


class TestRunControl:
    def test_run_until_stops_and_advances_clock(self):
        sim = Simulator()
        ran = []
        sim.schedule(1.0, ran.append, 1)
        sim.schedule(5.0, ran.append, 5)
        sim.run(until=2.0)
        assert ran == [1]
        assert sim.now == 2.0
        sim.run(until=10.0)
        assert ran == [1, 5]

    def test_run_until_advances_clock_with_empty_queue(self):
        sim = Simulator()
        sim.run(until=7.0)
        assert sim.now == 7.0

    def test_max_events(self):
        sim = Simulator()
        ran = []
        for i in range(10):
            sim.schedule(float(i + 1), ran.append, i)
        processed = sim.run(max_events=3)
        assert processed == 3
        assert ran == [0, 1, 2]

    def test_cancelled_events_do_not_run(self):
        sim = Simulator()
        ran = []
        event = sim.schedule(1.0, ran.append, "x")
        event.cancel()
        sim.run()
        assert ran == []

    def test_pending_counts_only_live_events(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        assert sim.pending() == 2
        event.cancel()
        assert sim.pending() == 1

    def test_clear_drops_everything(self):
        sim = Simulator()
        ran = []
        sim.schedule(1.0, ran.append, 1)
        sim.clear()
        sim.run()
        assert ran == []

    def test_run_returns_processed_count(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        assert sim.run() == 2


class TestHeapCompaction:
    """Lazy-cancellation bookkeeping at scale (the megaload hot path)."""

    def test_cancel_then_fire_never_runs_at_compaction_scale(self):
        # Enough churn to force multiple compactions; no cancelled
        # callback may ever run, and every live one must run exactly once.
        sim = Simulator()
        ran = []
        events = [sim.schedule(float(i + 1) * 1e-3, ran.append, i)
                  for i in range(2000)]
        for i in range(2000):
            if i % 3 != 2:
                events[i].cancel()
        for i in range(0, 2000, 6):   # double-cancel must stay idempotent
            events[i].cancel()
        sim.run()
        assert sim.compactions >= 1
        assert ran == [i for i in range(2000) if i % 3 == 2]

    def test_pending_stays_exact_through_compaction(self):
        sim = Simulator()
        events = [sim.schedule(float(i + 1), lambda: None)
                  for i in range(1024)]
        assert sim.pending() == 1024
        for event in events[:700]:
            event.cancel()
        assert sim.pending() == 324
        assert sim.compactions >= 1
        # The physical queue shrank: dead entries were actually dropped.
        assert len(sim._queue) < 1024
        processed = sim.run()
        assert processed == 324
        assert sim.pending() == 0

    def test_no_compaction_below_min_queue(self):
        sim = Simulator()
        events = [sim.schedule(float(i + 1), lambda: None)
                  for i in range(100)]
        for event in events[:90]:
            event.cancel()
        assert sim.compactions == 0
        assert sim.pending() == 10

    def test_cancel_after_run_does_not_skew_counters(self):
        # A stale handle (event already fired or cleared) must be inert.
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.run(until=1.5)
        event.cancel()
        event.cancel()
        assert sim.pending() == 1
        assert sim.run() == 1

    def test_cancel_during_callback_compaction_keeps_order(self):
        # A callback that mass-cancels (triggering compaction mid-run)
        # must not disturb the ordering of the survivors.
        sim = Simulator()
        ran = []
        victims = [sim.schedule(10.0 + i * 1e-3, ran.append, f"v{i}")
                   for i in range(600)]
        sim.schedule(1.0, lambda: [e.cancel() for e in victims])
        sim.schedule(2.0, ran.append, "mid")
        sim.schedule(20.0, ran.append, "end")
        sim.run()
        assert ran == ["mid", "end"]
        assert sim.compactions >= 1

    def test_schedule_stats(self):
        sim = Simulator()
        for i in range(5):
            sim.schedule(float(i + 1), lambda: None)
        assert sim.events_scheduled == 5
        assert sim.peak_queue == 5

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_survivors_run_in_time_then_fifo_order(self, seed):
        # 10^4 events on a coarse time grid (so most times tie), most of
        # them cancelled at random - between scheduling rounds and from
        # inside running callbacks - across several compactions: what
        # runs is exactly the survivors, sorted by (time, schedule order).
        rng = random.Random(seed)
        sim = Simulator()
        ran = []
        times = []                          # seq -> time
        events = []                         # seq -> Event
        alive = []                          # seqs neither run nor cancelled
        cancelled = set()

        def cancel_one():
            index = rng.randrange(len(alive))
            alive[index], alive[-1] = alive[-1], alive[index]
            cancelled.add(alive[-1])
            events[alive.pop()].cancel()

        def fire(seq):
            ran.append(seq)
            alive.remove(seq)
            if alive and rng.random() < 0.5:
                cancel_one()

        for _ in range(4):
            for _ in range(2_500):
                seq = len(events)
                times.append(rng.randrange(1, 200) * 0.5)
                events.append(sim.schedule_at(times[seq], fire, seq))
                alive.append(seq)
            for _ in range(1_800):
                cancel_one()
        assert sim.pending() == len(alive) == 2_800
        assert sim.compactions >= 2
        sim.run()
        assert sim.pending() == 0 and not alive
        assert len(cancelled) > 4 * 1_800   # the run itself cancelled some
        assert ran == sorted(set(range(10_000)) - cancelled,
                             key=lambda seq: (times[seq], seq))

    def test_events_are_not_orderable(self):
        # Heap order is decided on (time, seq) tuples in C; nothing may
        # quietly fall back to comparing Event objects in Python.
        sim = Simulator()
        first = sim.schedule(1.0, lambda: None)
        second = sim.schedule(1.0, lambda: None)
        assert "__lt__" not in Event.__dict__
        with pytest.raises(TypeError):
            first < second


class TestTimer:
    def test_timer_fires_after_delay(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(3.0)
        sim.run()
        assert fired == [3.0]

    def test_restart_replaces_previous_deadline(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(3.0)
        sim.schedule(1.0, timer.start, 5.0)
        sim.run()
        assert fired == [6.0]

    def test_stop_prevents_firing(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(3.0)
        sim.schedule(1.0, timer.stop)
        sim.run()
        assert fired == []

    def test_armed_reflects_state(self):
        sim = Simulator()
        timer = Timer(sim, lambda: None)
        assert not timer.armed
        timer.start(1.0)
        assert timer.armed
        sim.run()
        assert not timer.armed


class TestTickCalendar:
    """The contract is per tick: ``dispatch(idx, keys, codes)`` once per
    occupied tick, the two lists in ``wake`` order."""

    def _calendar(self, tick=0.1, then=None):
        """A calendar whose dispatch records each tick in ``fired`` and
        then calls ``then(calendar, idx, keys)``, if given."""
        from repro.net.sim import TickCalendar
        sim = Simulator()
        fired = []

        def dispatch(idx, keys, codes):
            fired.append((idx, keys, codes))
            if then is not None:
                then(calendar, idx, keys)

        calendar = TickCalendar(sim, tick, dispatch)
        return sim, calendar, fired

    def test_dispatches_key_code_pairs_at_tick_time(self):
        sim, calendar, fired = self._calendar(tick=0.5)
        calendar.wake(4, 17, 3)
        sim.run()
        assert fired == [(4, [17], [3])]
        assert sim.now == 2.0   # 4 * 0.5

    def test_code_defaults_to_zero(self):
        sim, calendar, fired = self._calendar()
        calendar.wake(1, 99)
        sim.run()
        assert fired == [(1, [99], [0])]

    def test_same_tick_preserves_append_order(self):
        sim, calendar, fired = self._calendar()
        calendar.wake(3, 2, 20)
        calendar.wake(3, 1, 10)
        calendar.wake(3, 3, 30)
        sim.run()
        assert fired == [(3, [2, 1, 3], [20, 10, 30])]

    def test_one_heap_event_per_occupied_tick(self):
        sim, calendar, fired = self._calendar()
        for key in range(100):
            calendar.wake(5, key)
        for key in range(50):
            calendar.wake(9, key)
        assert sim.events_scheduled == 2    # not 150
        sim.run()
        # ... and one dispatch call per occupied tick, in tick order.
        assert [(idx, len(keys)) for idx, keys, _ in fired] == \
            [(5, 100), (9, 50)]
        assert calendar._buckets == {}

    def test_buckets_are_recycled_through_the_freelist(self):
        sim, calendar, fired = self._calendar()
        calendar.wake(1, 7, 70)
        sim.run()
        first_bucket = calendar._freelist[0]
        calendar.wake(20, 8, 80)
        assert calendar._buckets[20] is first_bucket
        sim.run()
        # The lists handed out are the owner's: recycling the bucket's
        # columns does not reach back into them.
        assert fired == [(1, [7], [70]), (20, [8], [80])]

    def test_wakes_queued_during_dispatch_land_on_later_ticks(self):
        sim, calendar, fired = self._calendar(
            then=lambda calendar, idx, keys:
            keys == [1] and calendar.wake(10, 2, 0))
        calendar.wake(1, 1, 0)
        sim.run()
        assert fired == [(1, [1], [0]), (10, [2], [0])]

    def test_dispatch_assigned_after_construction_is_the_one_fired(self):
        # `dispatch` is read when the tick fires: the ledger wraps it in
        # a timer after the workload (and its calendar) is constructed.
        sim, calendar, fired = self._calendar()
        calendar.wake(2, 5, 50)        # queued before the reassignment
        record, wrapped = calendar.dispatch, []

        def timed(*args):
            wrapped.append(args[0])
            record(*args)

        calendar.dispatch = timed
        calendar.wake(3, 6, 60)
        sim.run()
        assert wrapped == [2, 3]
        assert fired == [(2, [5], [50]), (3, [6], [60])]

    def test_wake_for_the_tick_being_fired_opens_a_fresh_bucket(self):
        # The order rule: the bucket has left the calendar when dispatch
        # runs, so a same-tick wake is a second event at the same time,
        # dispatched after the first bucket and before any later tick —
        # where one simulator event per wake would have put it.
        sim, calendar, fired = self._calendar(
            then=lambda calendar, idx, keys:
            keys[0] == 1 and calendar.wake(idx, 9, 90))
        calendar.wake(4, 1, 10)
        calendar.wake(4, 2, 20)
        calendar.wake(5, 3, 30)
        sim.run()
        assert fired == [(4, [1, 2], [10, 20]), (4, [9], [90]),
                         (5, [3], [30])]
        assert sim.events_scheduled == 3
        assert calendar._buckets == {}

    def test_rejects_nonpositive_tick(self):
        from repro.net.sim import TickCalendar
        with pytest.raises(SimulationError):
            TickCalendar(Simulator(), 0.0, lambda idx, keys, codes: None)
