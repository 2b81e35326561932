"""Helper process that runs CLI children for the benchmark, one at a time.

Linux counts the memory of the process that forks a child into the child's
peak RSS, so children forked from the benchmark itself, which holds the
generated inputs, would report its memory as theirs.  This helper starts
before the benchmark grows and stays small.  It reads one JSON request per
line on stdin, runs the child to completion and answers with one JSON line:
exit code, wall seconds, peak RSS in MB and CPU seconds from wait4.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time


def spawn(argv, log, env, cwd, timeout):
    with open(log + ".out", "wb") as out, open(log + ".err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=cwd)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
            killer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "code": proc.returncode,
        "wall_s": wall,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
    }


def main() -> int:
    for line in sys.stdin:
        print(json.dumps(spawn(**json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
