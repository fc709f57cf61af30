"""The job-scheduler core: chunking, stealing, rebalance, accounting."""

import pytest

from repro.runtime.scheduler import (
    Chunk,
    Job,
    JobQueue,
    Plan,
    RESULT_NEUTRAL,
    SchedulerStats,
)


def jobs(n):
    return [Job(index=i, key=f"k{i}", payload=(i,)) for i in range(n)]


class TestPlan:
    def test_explicit_chunk_size_wins(self):
        assert Plan(chunk_size=5).resolve_chunk_size(jobs=100, slots=8) == 5

    def test_explicit_chunk_size_validated(self):
        with pytest.raises(ValueError, match="chunk_size"):
            Plan(chunk_size=0).resolve_chunk_size(jobs=10, slots=1)

    def test_automatic_targets_chunks_per_worker(self):
        # 24 jobs on 2 slots with 4 chunks/worker -> 8 chunks of 3.
        assert Plan().resolve_chunk_size(jobs=24, slots=2) == 3

    def test_automatic_rounds_up(self):
        # 25 jobs / 8 target chunks -> ceil = 4 points per chunk.
        assert Plan().resolve_chunk_size(jobs=25, slots=2) == 4

    def test_never_below_one_point(self):
        assert Plan().resolve_chunk_size(jobs=2, slots=8) == 1
        assert Plan().resolve_chunk_size(jobs=0, slots=4) == 1

    def test_zero_slots_treated_as_one(self):
        # One slot, 4 chunks/worker -> ceil(6 / 4) points per chunk.
        assert Plan().resolve_chunk_size(jobs=6, slots=0) == 2

    def test_every_field_declared_result_neutral(self):
        # The contract CACHE003 enforces statically, restated here: a
        # Plan knob may never change what a point computes, so every
        # field must be on the declared scheduling-only list.
        import dataclasses

        fields = {f"Plan.{f.name}" for f in dataclasses.fields(Plan)}
        assert fields == set(RESULT_NEUTRAL)


class TestJobQueue:
    def test_partitions_in_order(self):
        queue = JobQueue(jobs(7), chunk_size=3)
        chunks = []
        while True:
            chunk = queue.pull(0)
            if chunk is None:
                break
            chunks.append(chunk)
        assert [len(c) for c in chunks] == [3, 3, 1]
        assert [c.chunk_id for c in chunks] == [0, 1, 2]
        flat = [job.index for c in chunks for job in c.jobs]
        assert flat == list(range(7))

    def test_rejects_bad_chunk_size(self):
        with pytest.raises(ValueError, match="chunk_size"):
            JobQueue(jobs(3), chunk_size=0)

    def test_pull_counts_steals_against_round_robin(self):
        # Round-robin would give chunk i to worker i % 2; worker 0
        # pulling everything steals every odd chunk.
        queue = JobQueue(jobs(8), chunk_size=2, workers=2)
        while queue.pull(0) is not None:
            pass
        assert queue.stats.steals == 2

    def test_pull_in_own_share_is_not_a_steal(self):
        queue = JobQueue(jobs(4), chunk_size=2, workers=2)
        assert queue.pull(0).chunk_id == 0
        assert queue.pull(1).chunk_id == 1
        assert queue.stats.steals == 0

    def test_exhausted_tracks_in_flight(self):
        queue = JobQueue(jobs(2), chunk_size=2)
        chunk = queue.pull(0)
        assert not queue.exhausted  # pulled but not done
        queue.chunk_done(chunk, 0, 0.5)
        assert queue.exhausted

    def test_chunk_done_accounting(self):
        queue = JobQueue(jobs(4), chunk_size=2, workers=2)
        first, second = queue.pull(0), queue.pull(1)
        queue.chunk_done(first, 0, 1.0)
        queue.chunk_done(second, 1, 3.0)
        stats = queue.stats
        assert stats.chunks_completed == 2
        assert stats.jobs_completed == 4
        assert stats.chunk_seconds_total == pytest.approx(4.0)
        assert stats.chunk_seconds_max == pytest.approx(3.0)
        assert stats.worker_busy_seconds == {0: 1.0, 1: 3.0}
        assert stats.mean_chunk_seconds == pytest.approx(2.0)

    def test_rebalance_splits_tail_for_idle_workers(self):
        # One 6-point chunk left, 3 idle workers: split until they can
        # share (6 -> 3+3 -> 2+1+3... stops at 3 chunks).
        queue = JobQueue(jobs(6), chunk_size=6, workers=3)
        splits = queue.rebalance(idle_workers=3)
        assert splits == 2
        assert len(queue) == 3
        assert queue.stats.splits == 2
        pulled = [queue.pull(w) for w in range(3)]
        flat = [job.index for c in pulled for job in c.jobs]
        assert sorted(flat) == list(range(6))  # no job lost or doubled

    def test_rebalance_keeps_single_points_whole(self):
        queue = JobQueue(jobs(2), chunk_size=1, workers=4)
        assert queue.rebalance(idle_workers=4) == 0
        assert len(queue) == 2

    def test_rebalance_noop_when_queue_has_enough(self):
        queue = JobQueue(jobs(8), chunk_size=2, workers=2)
        assert queue.rebalance(idle_workers=2) == 0
        assert queue.stats.splits == 0


class TestSchedulerStats:
    def test_merge_adds_and_maxes(self):
        a = SchedulerStats(
            chunks_total=2, chunks_completed=2, jobs_completed=4,
            steals=1, splits=0, chunk_seconds_total=2.0,
            chunk_seconds_max=1.5, dispatch_seconds=2.0,
        )
        a.worker_busy_seconds = {0: 2.0}
        b = SchedulerStats(
            chunks_total=3, chunks_completed=3, jobs_completed=6,
            steals=2, splits=1, chunk_seconds_total=6.0,
            chunk_seconds_max=4.0, dispatch_seconds=3.0,
        )
        b.worker_busy_seconds = {0: 1.0, 1: 5.0}
        b.record_stream_lag(0.25)
        a.merge(b)
        assert a.chunks_total == 5
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


class TestChunk:
    def test_len_is_job_count(self):
        assert len(Chunk(0, jobs(3))) == 3
