"""Run one command and print its wall time, CPU time, peak RSS and exit code.

Usage::

    python -I -S perfbench/spawn.py TIMEOUT_S STDERR_PATH -- <argv>

Prints one JSON object ``{"wall", "cpu", "maxrss_kib", "code"}``.  The
command is timed from spawn to exit.  It runs with standard output
discarded and standard error written to ``STDERR_PATH``, and is killed
after ``TIMEOUT_S`` seconds.

Why a separate launcher: Linux counts the resident size of the image a
process replaces at ``exec`` into its peak RSS.  A child started straight
from the harness, which holds parsed outputs and library results, would
report the harness's peak instead of its own.  This launcher stays small.
"""

import json
import os
import signal
import sys
import time


def main(argv):
    timeout, stderr_path, sep, *command = argv
    if sep != "--" or not command:
        raise SystemExit("usage: spawn.py TIMEOUT_S STDERR_PATH -- <argv>")
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),
        (os.POSIX_SPAWN_OPEN, 2, stderr_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(command[0], command, os.environ, file_actions=actions)
    signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
    signal.setitimer(signal.ITIMER_REAL, float(timeout))
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    signal.setitimer(signal.ITIMER_REAL, 0.0)
    print(json.dumps({
        "wall": wall,
        "cpu": usage.ru_utime + usage.ru_stime,
        "maxrss_kib": usage.ru_maxrss,
        "code": os.waitstatus_to_exitcode(status),
    }))


if __name__ == "__main__":
    main(sys.argv[1:])
