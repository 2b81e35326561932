"""forked_map, the one way the package runs work in parallel.

A worker is forked from its caller, so a job function may be a closure over
anything the caller built; only results and errors are pickled back.
"""

from __future__ import annotations

import os
import threading
from typing import Callable, Sequence

# The most jobs a caller splits its work into: a worker's pages are shared
# with its caller only until one of them writes to them.
MAX_WORKERS = 4


def forked_map(fn: Callable, jobs: Sequence) -> list:
    """[fn(job) for job in jobs], with every job but the first in a forked worker.

    A fork copies no thread but its caller's, so a process with other
    threads, or a platform without os.fork, runs every job here, in order.
    If several jobs fail, the first failing job's error is raised, as a
    serial run would raise it.  A worker that ends without a reply raises
    ChildProcessError.  Every worker has ended, terminated first if still
    running, by the time this returns or raises.
    """
    if len(jobs) < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return [fn(job) for job in jobs]
    import multiprocessing  # only here: about 10 ms to import

    context = multiprocessing.get_context("fork")
    workers = []
    try:
        for job in jobs[1:]:
            receive, send = context.Pipe(duplex=False)
            worker = context.Process(target=_reply, args=(send, fn, job))
            worker.start()
            send.close()
            workers.append((worker, receive))
        results = [fn(jobs[0])]
        for i, (worker, receive) in enumerate(workers, 2):
            try:
                ok, value = receive.recv()
            except EOFError:  # the worker died before it could reply
                worker.join()
                raise ChildProcessError(
                    f"the worker running job {i} of {len(jobs)} exited with code {worker.exitcode}"
                ) from None
            if not ok:
                raise value
            results.append(value)
        return results
    finally:
        for worker, receive in workers:
            receive.close()
            if worker.is_alive():
                worker.terminate()
            worker.join()


def _reply(send, fn, job) -> None:
    """In a forked worker: send (True, fn(job)), or (False, the error that stopped it)."""
    try:
        reply = (True, fn(job))
    except BaseException as exc:  # sent back to be raised in the calling process
        reply = (False, exc)
    send.send(reply)
    send.close()
