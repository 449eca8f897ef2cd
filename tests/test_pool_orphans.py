"""Pool workers never outlive their supervisor.

``kill -9`` of the ``repro serve --workers N`` process runs no cleanup,
and EOF on the worker pipes is no signal either (sibling workers hold
inherited copies of the supervisor's ends), so each worker watches its
parent pid and exits once it has been re-parented.  Exercised against a
real subprocess: every worker pid must be gone within 5 s.
"""

import os
import signal
import time

from test_worker_chaos import ServerProcess


def _running(pid: int) -> bool:
    """True while *pid* exists and is not a zombie awaiting its reaper."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False
    except OSError:  # no procfs: fall back to a signal-0 probe
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        return True


def test_workers_exit_when_supervisor_is_killed():
    server = ServerProcess("--workers", "2")
    pids = []
    try:
        server.wait_ready()
        pids = [w["pid"] for w in server.health()["pool"]["workers"]]
        assert len(pids) == 2 and all(pids)
        assert all(_running(pid) for pid in pids)
        os.kill(server.proc.pid, signal.SIGKILL)
        server.proc.wait(timeout=10)
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline and any(map(_running, pids)):
            time.sleep(0.05)
        survivors = [pid for pid in pids if _running(pid)]
    finally:
        server.cleanup()
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
    assert survivors == []
