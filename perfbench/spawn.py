"""Run one command to completion, or kill it at a deadline, and report its usage.

    python3 perfbench/spawn.py DEADLINE_S OUT ERR -- ARGV...

Prints one JSON object: ``exit`` (None when killed at the deadline),
``wall_s``, ``cpu_s`` (user plus system) and ``rss_mb`` (maximum RSS).

On Linux a child's maximum RSS starts from the RSS of the process that
spawned it, so the benchmark runs each measured command from this small
process instead of from itself: the figure is then the command's own.
"""

from __future__ import annotations

import json
import os
import select
import signal
import sys
import time

_WRITE = os.O_WRONLY | os.O_CREAT | os.O_TRUNC


def spawn(argv: list[str], out: str, err: str, deadline_s: float):
    """Run argv with stdout/stderr to files; return (exit or None, wall, rusage)."""
    actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
               (os.POSIX_SPAWN_OPEN, 1, out, _WRITE, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, err, _WRITE, 0o644)]
    start = time.perf_counter()
    pid = os.posix_spawnp(argv[0], argv, os.environ, file_actions=actions)
    killed = False
    try:
        pidfd = os.pidfd_open(pid)
        try:
            ready, _, _ = select.select([pidfd], [], [], max(deadline_s, 0.0))
        finally:
            os.close(pidfd)
        if not ready:
            os.kill(pid, signal.SIGKILL)
            killed = True
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    return (None if killed else os.waitstatus_to_exitcode(status)), wall, usage


def exit_on_sigterm() -> None:
    """Turn SIGTERM into SystemExit so pending children are killed and reaped."""
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))


def main(argv: list[str]) -> int:
    deadline, out, err, sep, *command = argv
    if sep != "--" or not command:
        raise SystemExit("usage: spawn.py DEADLINE_S OUT ERR -- ARGV...")
    exit_on_sigterm()
    code, wall, usage = spawn(command, out, err, float(deadline))
    print(json.dumps({"exit": code, "wall_s": wall,
                      "cpu_s": usage.ru_utime + usage.ru_stime,
                      "rss_mb": usage.ru_maxrss / 1024}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
