"""Unit tests for stage-latency attribution (`repro.obs.stages`)."""

import types

import pytest

from repro.obs import stages


@pytest.fixture(autouse=True)
def _fresh_sampling_state():
    stages.reset_for_tests()
    yield
    stages.reset_for_tests()
    stages.set_current(None)


class TestStageClock:
    def test_mark_closes_intervals_in_order(self):
        clock = stages.StageClock()
        clock.mark(stages.S_DECODE)
        clock.mark(stages.S_ENCODE)
        assert clock.durs[stages.S_DECODE] >= 0.0
        assert clock.durs[stages.S_ENCODE] >= 0.0

    def test_add_attributes_externally_measured_time(self):
        clock = stages.StageClock()
        clock.add(stages.S_LOCK, 0.25)
        clock.add(stages.S_LOCK, 0.25)
        assert clock.durs[stages.S_LOCK] == 0.5

    def test_mark_dispatch_subtracts_nested_stages(self):
        clock = stages.StageClock()
        # Pretend the handler ran and 100% of its time was lock wait.
        clock.add(stages.S_LOCK, 10.0)
        clock.mark_dispatch()
        # dispatch = elapsed - nested(10s) < 0 -> clamped to no addition.
        assert clock.durs[stages.S_DISPATCH] == 0.0


class TestSampling:
    def test_maybe_start_arms_every_nth(self):
        state = types.SimpleNamespace(sample_n=0)
        armed = [
            stages.maybe_start(state)
            for _ in range(stages.SAMPLE_EVERY * 2)
        ]
        clocks = [c for c in armed if c is not None]
        assert len(clocks) == 2
        assert armed[stages.SAMPLE_EVERY - 1] is not None

    def test_maybe_start_counts_per_state(self):
        # Two connections sample independently: each arms on its own Nth.
        a = types.SimpleNamespace(sample_n=0)
        b = types.SimpleNamespace(sample_n=stages.SAMPLE_EVERY - 1)
        assert stages.maybe_start(a) is None
        assert stages.maybe_start(b) is not None

    def test_io_sample_fires_every_nth(self):
        fires = [stages.io_sample() for _ in range(stages.IO_SAMPLE_EVERY * 3)]
        assert fires.count(True) == 3

    def test_current_roundtrip(self):
        assert stages.current() is None
        clock = stages.StageClock()
        stages.set_current(clock)
        assert stages.current() is clock
        stages.set_current(None)
        assert stages.current() is None

    def test_armed_clocks_tracks_set_current(self):
        # The scheduler core short-circuits on this counter, so it must
        # rise and fall with the armed clock and tolerate redundant sets.
        assert stages.ARMED_CLOCKS == 0
        clock = stages.StageClock()
        stages.set_current(clock)
        assert stages.ARMED_CLOCKS == 1
        stages.set_current(clock)  # redundant set: no double count
        assert stages.ARMED_CLOCKS == 1
        stages.set_current(None)
        assert stages.ARMED_CLOCKS == 0
        stages.set_current(None)  # redundant clear: never negative
        assert stages.ARMED_CLOCKS == 0


class TestFinish:
    def test_finish_observes_stages_and_total(self):
        before = {
            name: child.sample()["count"]
            for name, child in zip(stages.STAGES, stages._STAGE_CHILDREN)
        }
        clock = stages.StageClock()
        clock.add(stages.S_LOCK, 0.001)
        clock.add(stages.S_DISPATCH, 0.002)
        total = stages.finish(clock, msg_type="alloc_request")
        assert total >= 0.0
        after = {
            name: child.sample()["count"]
            for name, child in zip(stages.STAGES, stages._STAGE_CHILDREN)
        }
        assert after["lock"] == before["lock"] + 1
        assert after["dispatch"] == before["dispatch"] + 1
        assert after["recv"] == before["recv"]  # zero stages not observed

    def test_slow_request_enters_slow_buffer(self):
        clock = stages.StageClock()
        clock.add(stages.S_FSYNC, stages.SLOW_SECONDS * 2)
        clock.began -= stages.SLOW_SECONDS * 2  # simulate elapsed wall time
        stages.finish(clock, msg_type="alloc_request", container="c9")
        traces = stages.slow_traces()
        assert traces and traces[-1]["type"] == "alloc_request"
        assert traces[-1]["container"] == "c9"
        assert "fsync_wait" in traces[-1]["stages"]

    def test_slow_buffer_is_bounded(self):
        for i in range(stages.SLOW_CAPACITY + 10):
            stages.note_slow(msg_type=f"x{i}", container="", total=1.0)
        assert len(stages.slow_traces()) == stages.SLOW_CAPACITY


class TestDumpSections:
    def test_sections_describe_observed_stages(self):
        stages.observe_stage(stages.S_DECODE, 0.001)
        lines = list(stages.dump_sections())
        summaries = {
            line["stage"]: line for line in lines
            if line["kind"] == "stage_summary"
        }
        assert "decode" in summaries
        decode = summaries["decode"]
        assert decode["count"] >= 1
        assert decode["sum"] > 0.0
        assert decode["buckets"]

    def test_slow_traces_ride_in_sections(self):
        stages.note_slow(msg_type="alloc_request", container="c1", total=0.5)
        lines = list(stages.dump_sections())
        assert any(
            line["kind"] == "slow_trace" and line["container"] == "c1"
            for line in lines
        )
