"""The gateway server as a child process: spawn, observe through /proc, stop."""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENTRY = Path(__file__).resolve().parent / "serve_traced.py"
BANNER = re.compile(r"listening on (\S+)")
CLOCK_TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")


class ServerError(RuntimeError):
    """The server did not start, or did not stop when asked."""


class ServerProcess:
    """One ``serve`` process; :meth:`stop` must run on every exit path."""

    def __init__(self, serve_args: list[str], workdir: Path, spans_path: Path | None = None):
        self.log_path = workdir / "server.log"
        self.spans_path = spans_path
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        env.pop("PERFBENCH_SPANS", None)
        if spans_path is not None:
            env["PERFBENCH_SPANS"] = str(spans_path)
        self._log = open(self.log_path, "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            [sys.executable, str(ENTRY), "serve", *serve_args],
            cwd=str(ROOT),
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=self._log,
            stderr=subprocess.STDOUT,
        )
        self.url: str | None = None

    def wait_ready(self, timeout: float = 60.0) -> str:
        """Block until the listening banner appears; returns the server URL."""
        deadline = time.monotonic() + timeout
        with open(self.log_path, encoding="utf-8") as log:
            text = ""
            while time.monotonic() < deadline:
                text += log.read()
                match = BANNER.search(text)
                if match:
                    self.url = match.group(1)
                    return self.url
                if self.proc.poll() is not None:
                    raise ServerError("server exited with %s:\n%s" % (self.proc.returncode, text))
                time.sleep(0.002)
        raise ServerError("server printed no banner within %.0fs:\n%s" % (timeout, text))

    def cpu_s(self) -> float:
        """utime + stime of the server process so far."""
        with open("/proc/%d/stat" % self.proc.pid, encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        # Fields 14 and 15 of stat(5); the split drops the first two.
        return (int(fields[11]) + int(fields[12])) * CLOCK_TICK_S

    def peak_rss_mb(self) -> float:
        with open("/proc/%d/status" % self.proc.pid, encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise ServerError("no VmHWM in /proc/%d/status" % self.proc.pid)

    def stop(self, timeout: float = 15.0) -> bool:
        """SIGTERM, wait, reap; SIGKILL as a last resort.  True if it exited cleanly."""
        clean = True
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                clean = False
                self.proc.kill()
                self.proc.wait()
        self._log.close()
        return clean
