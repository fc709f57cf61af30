"""Dispatch accounting: per-point records, merging, utilization."""

import pytest

from repro.runtime.scheduler import SchedulerStats


class TestSchedulerStats:
    def test_merge_adds_and_maxes(self):
        a = SchedulerStats(
            chunks_completed=2, jobs_completed=4,
            steals=1, splits=0, chunk_seconds_total=2.0,
            chunk_seconds_max=1.5, dispatch_seconds=2.0,
        )
        a.worker_busy_seconds = {0: 2.0}
        b = SchedulerStats(
            chunks_completed=3, jobs_completed=6,
            steals=2, splits=1, chunk_seconds_total=6.0,
            chunk_seconds_max=4.0, dispatch_seconds=3.0,
        )
        b.worker_busy_seconds = {0: 1.0, 1: 5.0}
        b.record_stream_lag(0.25)
        a.merge(b)
        assert a.chunks_completed == 5
        assert a.jobs_completed == 10
        assert a.steals == 3
        assert a.splits == 1
        assert a.chunk_seconds_max == pytest.approx(4.0)
        assert a.worker_busy_seconds == {0: 3.0, 1: 5.0}
        assert a.dispatch_seconds == pytest.approx(5.0)
        assert a.stream_lag_count == 1
        assert a.mean_stream_lag == pytest.approx(0.25)

    def test_worker_utilization_is_busy_over_dispatch(self):
        stats = SchedulerStats(dispatch_seconds=4.0)
        stats.worker_busy_seconds = {0: 4.0, 1: 1.0}
        assert stats.worker_utilization() == {0: 1.0, 1: 0.25}

    def test_worker_utilization_capped_and_safe(self):
        stats = SchedulerStats(dispatch_seconds=1.0)
        stats.worker_busy_seconds = {0: 1.5}  # clock skew can overshoot
        assert stats.worker_utilization() == {0: 1.0}
        idle = SchedulerStats()
        idle.worker_busy_seconds = {0: 1.0}
        assert idle.worker_utilization() == {0: 0.0}

    def test_empty_means_are_zero(self):
        stats = SchedulerStats()
        assert stats.mean_chunk_seconds == 0.0
        assert stats.mean_stream_lag == 0.0

    def test_a_point_is_one_chunk_on_its_worker(self):
        stats = SchedulerStats()
        stats.record_point(7, 0.5)
        stats.record_point(7, 1.5)
        stats.record_point(9, 1.0)
        assert stats.chunks_completed == stats.jobs_completed == 3
        assert stats.mean_chunk_seconds == pytest.approx(1.0)
        assert stats.chunk_seconds_max == pytest.approx(1.5)
        assert stats.worker_busy_seconds == {7: 2.0, 9: 1.0}
        assert stats.steals == stats.splits == 0
