"""parallel.forked_map: results in item order from one contiguous chunk per
CPU, the serial run's error, and no worker left behind."""

import itertools
import os
import threading
import time

import numpy as np
import pytest

from odrelease import parallel
from odrelease.parallel import MAX_WORKERS, forked_map
from helpers import assert_no_child_left

CPUS = [1, 2, 3, 64]


@pytest.fixture
def on_cpus(monkeypatch):
    """Sets the CPU count forked_map sees."""
    return lambda cpus: monkeypatch.setattr(parallel, "cpus_available", lambda: cpus)


def fail_from(first):
    """A function that returns (item, its process id), or raises for an item of at least `first`."""

    def run(item):
        if item >= first:
            raise ValueError(f"item {item} failed")
        return item, os.getpid()

    return run


@pytest.mark.parametrize("cpus", CPUS)
@pytest.mark.parametrize("items", [0, 1, 3, 9])
def test_results_come_back_in_item_order_from_one_process_per_chunk(on_cpus, cpus, items):
    on_cpus(cpus)
    results = forked_map(fail_from(99), range(items))
    assert [item for item, _ in results] == list(range(items))
    pids = [pid for _, pid in results]
    count = min(cpus, MAX_WORKERS, items)
    runs = [(pid, len(list(run))) for pid, run in itertools.groupby(pids)]
    assert len(set(pids)) == len(runs) == count  # each process runs one contiguous chunk
    assert [size for _, size in runs] == [items * (i + 1) // count - items * i // count for i in range(count)]
    assert not pids or pids[0] == os.getpid()  # the first chunk runs in the caller
    assert_no_child_left()


def test_a_worker_sends_back_a_large_result(on_cpus):
    on_cpus(3)
    results = forked_map(lambda item: np.full(1 << 20, item, dtype=np.int64), range(3))  # 8 MiB each
    assert [int(r.sum()) for r in results] == [0, 1 << 20, 2 << 20]
    assert_no_child_left()


@pytest.mark.parametrize("cpus", CPUS)
@pytest.mark.parametrize("first", [0, 1, 2, 4, 5])
def test_the_first_failing_item_gives_the_error(on_cpus, cpus, first):
    on_cpus(cpus)
    with pytest.raises(ValueError, match=f"item {first} failed"):  # every later item fails too
        forked_map(fail_from(first), range(6))
    assert_no_child_left()


@pytest.mark.parametrize("cpus", [2, 3, 64])  # on one CPU no worker runs
def test_a_worker_that_dies_is_a_child_process_error_naming_its_chunk(on_cpus, cpus):
    on_cpus(cpus)
    count = min(cpus, MAX_WORKERS)
    last = 8 * (count - 1) // count  # the first item of the last chunk
    with pytest.raises(ChildProcessError, match=f"chunk {count} of {count} exited with code 7"):
        forked_map(lambda item: os._exit(7) if item == last else item, range(8))
    assert_no_child_left()


def test_an_earlier_item_error_wins_over_a_later_dead_worker(on_cpus):
    on_cpus(3)

    def run(item):
        if item == 2:
            os._exit(7)
        return fail_from(1)(item)

    with pytest.raises(ValueError, match="item 1 failed"):
        forked_map(run, range(3))
    assert_no_child_left()


def test_a_worker_still_running_is_ended_when_the_first_chunk_fails(on_cpus):
    on_cpus(2)

    def run(item):
        if item == 0:
            raise ValueError("item 0 failed")
        time.sleep(60)

    started = time.monotonic()
    with pytest.raises(ValueError, match="item 0 failed"):
        forked_map(run, range(2))
    assert time.monotonic() - started < 30
    assert_no_child_left()


def test_a_process_with_other_threads_runs_every_item_here(on_cpus):
    on_cpus(64)
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
