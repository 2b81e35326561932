"""forked_map, the one way the package runs work in parallel, and the one
place that decides how many processes run it.

A worker is forked from its caller, so a function may be a closure over
anything the caller built; only results and errors are pickled back.
"""

from __future__ import annotations

import os
import threading
from typing import Callable, Sequence

# The most processes one map runs in: a worker's pages are shared with its
# caller only until one of them writes to them.
MAX_WORKERS = 4


def cpus_available() -> int:
    """The number of CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def forked_map(fn: Callable, items: Sequence) -> list:
    """[fn(item) for item in items] on count processes, one per CPU available
    and at most MAX_WORKERS, with the items dealt round-robin: process k runs
    items k, k + count, ..., process 0 is this one and each other a forked
    worker.  Dealt so, costs that grow or shrink along the items are shared
    out evenly.

    A fork copies no thread but its caller's, so a process with other
    threads, or a platform without os.fork, runs every item here, in order.
    Each process stops at its first failing item, and the lowest failing
    item's error is raised, as a serial run would raise it: at once if item 0
    fails, or else once every worker has replied.  A worker that ends without
    a reply counts as failing at its first item, with a ChildProcessError
    naming its chunk (chunk k + 1 of count holds items k, k + count, ...).
    Every worker has ended, terminated first if still running, by the time
    this returns or raises.
    """
    count = min(cpus_available(), MAX_WORKERS, len(items))
    if count < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return [fn(item) for item in items]
    import multiprocessing  # only here: about 10 ms to import

    context = multiprocessing.get_context("fork")
    workers = []
    try:
        for k in range(1, count):
            receive, send = context.Pipe(duplex=False)
            worker = context.Process(target=_reply, args=(send, fn, items[k::count]))
            worker.start()
            send.close()
            workers.append((worker, receive))
        done, error = _run(fn, items[::count])
        if error is not None and not done:
            raise error  # item 0 failed: no other item comes before it
        shares = [(done, error)]
        for k, (worker, receive) in enumerate(workers, 1):
            try:
                shares.append(receive.recv())
            except EOFError:  # the worker died before it could reply
                worker.join()
                shares.append(([], ChildProcessError(
                    f"the worker running chunk {k + 1} of {count} exited with code {worker.exitcode}"
                )))
        failed = {k + count * len(done): error for k, (done, error) in enumerate(shares) if error is not None}
        if failed:
            raise failed[min(failed)]
        results = [None] * len(items)
        for k, (done, _) in enumerate(shares):
            results[k::count] = done
        return results
    finally:
        for worker, receive in workers:
            receive.close()
            if worker.is_alive():
                worker.terminate()
            worker.join()


def _run(fn, items) -> tuple[list, BaseException | None]:
    """([fn(item) for item in items], None), or the results before the first
    item that fails and its error."""
    results = []
    try:
        for item in items:
            results.append(fn(item))
    except Exception as exc:  # raised by forked_map once it knows no earlier item failed
        return results, exc
    return results, None


def _reply(send, fn, items) -> None:
    """In a forked worker: send _run(fn, items), or the error that escaped it
    as failing at the first item."""
    try:
        reply = _run(fn, items)
    except BaseException as exc:  # sent back to be raised in the calling process
        reply = ([], exc)
    send.send(reply)
    send.close()
