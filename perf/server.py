"""The system under test: ``python -m repro serve --store DIR``, no other flag.

Threaded core, 256 MiB array cache, 64 MiB selection cache, checksums on,
flight recorder / profiler / SLO on — whatever the CLI defaults are at this
commit is what gets measured.  The process runs in its own session so that
a failed run can kill the whole group and leave no listener behind.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
_BANNER = re.compile(r"NDP server on ([\d.]+):(\d+) ")
_DRAIN_SECONDS = 15.0


class DefaultServer:
    """Context manager around one default-flag server subprocess."""

    def __init__(self, store_dir: str):
        self.store_dir = store_dir
        self.process: subprocess.Popen | None = None
        self.host = ""
        self.port = 0

    def __enter__(self) -> "DefaultServer":
        env = dict(os.environ, PYTHONPATH=SRC, PYTHONUNBUFFERED="1")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--store", self.store_dir],
            stdout=subprocess.PIPE, env=env, text=True, start_new_session=True,
        )
        try:
            banner = self.process.stdout.readline()
            match = _BANNER.search(banner)
            if match is None:
                raise RuntimeError(f"no server banner, got {banner!r}")
        except BaseException:
            self.kill()
            raise
        self.host, self.port = match.group(1), int(match.group(2))
        return self

    def peak_rss_mb(self) -> float:
        """VmHWM of the server process, in MB (0.0 where /proc lacks it)."""
        try:
            status = Path(f"/proc/{self.process.pid}/status").read_text()
        except OSError:
            return 0.0
        match = re.search(r"VmHWM:\s+(\d+) kB", status)
        return int(match.group(1)) / 1024.0 if match else 0.0

    def stop(self) -> None:
        """SIGTERM and require a clean drain (exit code 0)."""
        self.process.send_signal(signal.SIGTERM)
        try:
            code = self.process.wait(timeout=_DRAIN_SECONDS)
        except subprocess.TimeoutExpired:
            self.kill()
            raise RuntimeError("server did not drain after SIGTERM") from None
        self.process.stdout.close()
        if code != 0:
            raise RuntimeError(f"server drain exited with code {code}")

    def kill(self) -> None:
        """Kill the server's process group and reap it."""
        if self.process.poll() is None:
            try:
                os.killpg(self.process.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        self.process.wait()
        self.process.stdout.close()

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.stop()
        else:
            self.kill()
