"""parallel.forked_map: results in job order, the serial run's error, and no worker left behind."""

import os
import threading
import time

import numpy as np
import pytest

from odrelease.parallel import forked_map
from helpers import assert_no_child_left


def fail_from(first):
    """A job function that returns (job, its process id), or raises for a job of at least `first`."""

    def run(job):
        if job >= first:
            raise ValueError(f"job {job} failed")
        return job, os.getpid()

    return run


def test_results_come_back_in_job_order_from_one_process_per_job():
    results = forked_map(fail_from(99), range(4))
    assert [job for job, _ in results] == [0, 1, 2, 3]
    pids = [pid for _, pid in results]
    assert pids[0] == os.getpid() and len(set(pids)) == 4
    assert_no_child_left()


def test_no_job_or_one_job_runs_here():
    assert forked_map(fail_from(99), []) == []
    assert forked_map(fail_from(99), [5]) == [(5, os.getpid())]


def test_a_worker_sends_back_a_large_result():
    results = forked_map(lambda job: np.full(1 << 20, job, dtype=np.int64), range(3))  # 8 MiB each
    assert [int(r.sum()) for r in results] == [0, 1 << 20, 2 << 20]
    assert_no_child_left()


@pytest.mark.parametrize("first", [0, 1, 2])
def test_the_first_failing_job_gives_the_error(first):
    with pytest.raises(ValueError, match=f"job {first} failed"):
        forked_map(fail_from(first), range(3))
    assert_no_child_left()


def test_a_worker_that_dies_is_a_child_process_error():
    with pytest.raises(ChildProcessError, match="job 2 of 3 exited with code 7"):
        forked_map(lambda job: os._exit(7) if job == 1 else job, range(3))
    assert_no_child_left()


def test_an_earlier_job_error_wins_over_a_later_dead_worker():
    def run(job):
        if job == 2:
            os._exit(7)
        return fail_from(1)(job)

    with pytest.raises(ValueError, match="job 1 failed"):
        forked_map(run, range(3))
    assert_no_child_left()


def test_a_worker_still_running_is_ended_when_the_first_job_fails():
    def run(job):
        if job == 0:
            raise ValueError("job 0 failed")
        time.sleep(60)

    started = time.monotonic()
    with pytest.raises(ValueError, match="job 0 failed"):
        forked_map(run, range(2))
    assert time.monotonic() - started < 30
    assert_no_child_left()


def test_a_process_with_other_threads_runs_every_job_here():
    done = threading.Event()
    other = threading.Thread(target=done.wait)
    other.start()
    try:
        results = forked_map(fail_from(99), range(3))
    finally:
        done.set()
        other.join(timeout=10)
    assert not other.is_alive()
    assert results == [(0, os.getpid()), (1, os.getpid()), (2, os.getpid())]
