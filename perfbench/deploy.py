"""Run ``python -m repro serve`` as a subprocess and drive its lifecycle.

Each :class:`ServeProcess` is one real deployment: its own session (so a
SIGKILL reaches the pool workers too), its own log file, and a port the
server picks itself (``--port 0``; the URL is read from its banner).
Every process started here is stopped and waited for.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

from repro.obs.metrics import parse_exposition
from repro.server.client import OnexClient

_URL = re.compile(r"listening on (http://\S+)")


class DeployError(RuntimeError):
    """A deployment failed to start, become ready, or stop."""


class ServeProcess:
    """One ``serve`` subprocess.

    *args* are the extra ``serve`` flags (mode, workers, data dir);
    snapshots always go under *workdir* so nothing is written outside it.
    """

    def __init__(self, root: Path, workdir: Path, label: str, args: list[str]) -> None:
        self.root = root
        self.workdir = workdir
        self.label = label
        self.args = list(args)
        self.proc: subprocess.Popen | None = None
        self.url: str | None = None
        self._log_path = workdir / f"serve-{label}.log"
        self._log_offset = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def spawn(self) -> None:
        cmd = [
            sys.executable, "-m", "repro", "serve",
            "--host", "127.0.0.1", "--port", "0",
            *self.args,
        ]
        if "--workers" in self.args and "--snapshot-dir" not in self.args:
            cmd += ["--snapshot-dir", str(self.workdir / f"snapshots-{self.label}")]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        env["PYTHONUNBUFFERED"] = "1"
        # A restart appends to the same log; only the new banner counts.
        self._log_offset = (
            self._log_path.stat().st_size if self._log_path.exists() else 0
        )
        with self._log_path.open("ab") as log:
            self.proc = subprocess.Popen(
                cmd,
                cwd=self.root,
                env=env,
                stdin=subprocess.DEVNULL,
                stdout=log,
                stderr=subprocess.STDOUT,
                start_new_session=True,
            )
        self.url = None

    def wait_ready(self, timeout: float = 120.0) -> None:
        """Block until the banner names the URL and ``/ready`` is true."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise DeployError(f"serve {self.label} exited: {self.log_tail()}")
            if self.url is None:
                with self._log_path.open("rb") as log:
                    log.seek(self._log_offset)
                    match = _URL.search(log.read().decode(errors="replace"))
                if match:
                    self.url = match.group(1)
            if self.url is not None and self._ready():
                return
            time.sleep(0.01)
        raise DeployError(f"serve {self.label} not ready in {timeout}s")

    def _ready(self) -> bool:
        try:
            with urllib.request.urlopen(f"{self.url}/ready", timeout=5) as resp:
                return resp.status == 200
        except (urllib.error.URLError, ConnectionError, TimeoutError):
            return False

    def client(self, timeout_s: float = 120.0) -> OnexClient:
        """A client that never retries: every failure is counted."""
        return OnexClient(self.url, timeout_s=timeout_s, max_retries=0)

    def stop(self) -> None:
        """SIGKILL the whole deployment (server and pool workers) and wait.

        Nothing a run measures depends on a graceful drain, and a kill
        also ends pool workers that a dead supervisor would orphan.
        """
        if self.proc is None:
            return
        pids = self.process_tree()
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait(30)
        deadline = time.monotonic() + 30
        while any(_alive(pid) for pid in pids) and time.monotonic() < deadline:
            time.sleep(0.01)
        self.proc = None

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------

    def process_tree(self) -> list[int]:
        """The server pid followed by every live descendant (pool workers)."""
        if self.proc is None:
            return []
        out, frontier = [], [self.proc.pid]
        while frontier:
            pid = frontier.pop()
            out.append(pid)
            frontier.extend(_children(pid))
        return out

    def peak_rss_mb(self) -> float:
        """Sum of ``VmHWM`` over the server and its pool workers."""
        total_kb = 0
        for pid in self.process_tree():
            try:
                status = Path(f"/proc/{pid}/status").read_text()
            except OSError:
                continue
            for line in status.splitlines():
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
        return total_kb / 1024.0

    def health(self) -> dict:
        return self.client().health()

    def scrape(self) -> dict:
        """``/metrics`` as ``{name: summed value}`` over every label set."""
        parsed = parse_exposition(self.client().scrape_metrics())
        return {name: sum(series.values()) for name, series in parsed.items()}

    def log_tail(self, lines: int = 20) -> str:
        try:
            text = self._log_path.read_text(errors="replace")
        except OSError:
            return ""
        return "\n".join(text.splitlines()[-lines:])


def _children(pid: int) -> list[int]:
    kids: list[int] = []
    try:
        tids = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return kids
    for tid in tids:
        try:
            text = Path(f"/proc/{pid}/task/{tid}/children").read_text()
        except OSError:
            continue
        kids.extend(int(k) for k in text.split())
    return kids


def _alive(pid: int) -> bool:
    """True while *pid* exists and is not a zombie."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"
