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
    """[fn(item) for item in items], in contiguous chunks of items, one per
    CPU available and at most MAX_WORKERS: this process runs the first chunk
    and a forked worker each of the others.

    A fork copies no thread but its caller's, so a process with other
    threads, or a platform without os.fork, runs every item here, in order.
    If several items fail, the first failing item's error is raised, as a
    serial run would raise it.  A worker that ends without a reply raises
    ChildProcessError naming its chunk.  Every worker has ended, terminated
    first if still running, by the time this returns or raises.
    """
    count = min(cpus_available(), MAX_WORKERS, len(items))
    if count < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return [fn(item) for item in items]
    import multiprocessing  # only here: about 10 ms to import

    context = multiprocessing.get_context("fork")
    chunks = [items[len(items) * i // count:len(items) * (i + 1) // count] for i in range(count)]
    workers = []
    try:
        for chunk in chunks[1:]:
            receive, send = context.Pipe(duplex=False)
            worker = context.Process(target=_reply, args=(send, fn, chunk))
            worker.start()
            send.close()
            workers.append((worker, receive))
        results = [fn(item) for item in chunks[0]]
        for i, (worker, receive) in enumerate(workers, 2):
            try:
                ok, value = receive.recv()
            except EOFError:  # the worker died before it could reply
                worker.join()
                raise ChildProcessError(
                    f"the worker running chunk {i} of {count} exited with code {worker.exitcode}"
                ) from None
            if not ok:
                raise value
            results.extend(value)
        return results
    finally:
        for worker, receive in workers:
            receive.close()
            if worker.is_alive():
                worker.terminate()
            worker.join()


def _reply(send, fn, chunk) -> None:
    """In a forked worker: send (True, [fn(item) for item in chunk]), or (False, the error that stopped it)."""
    try:
        reply = (True, [fn(item) for item in chunk])
    except BaseException as exc:  # sent back to be raised in the calling process
        reply = (False, exc)
    send.send(reply)
    send.close()
