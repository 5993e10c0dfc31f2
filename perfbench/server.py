"""Start, stop, kill and measure the real ``repro serve --port`` server.

The server stays in the benchmark's process group, so a signal to that
group reaches the router and every shard worker it forked; the
benchmark kills a server by pid (the router and the workers it had
forked when it started listening).  The router is also told to die with
the benchmark process.  The benchmark process makes itself a child
subreaper where Linux allows it, so the orphaned workers of a killed
router are reparented to it and reaped here instead of lingering as
zombies, and :func:`reap_children` kills and reaps whatever is left on
the way out.
"""

from __future__ import annotations

import ctypes
import functools
import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 20.0
_PR_SET_PDEATHSIG = 1
_PR_SET_CHILD_SUBREAPER = 36
_LIBC = ctypes.CDLL(None, use_errno=True)


def become_subreaper() -> bool:
    """Adopt orphaned descendants (Linux only; harmless elsewhere)."""
    try:
        return _LIBC.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except AttributeError:
        return False


def _die_with(parent: int) -> None:
    """Runs in the forked server before it execs: SIGKILL it when
    ``parent`` ends, and give up at once if that already happened."""
    _LIBC.prctl(_PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0)
    if os.getppid() != parent:
        os._exit(1)


def _children(parent: int) -> list[int]:
    """Every live (not zombie) child process of ``parent``."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                stat = handle.read()
        except OSError:
            continue
        fields = stat[stat.rindex(b")") + 2 :].split()
        if fields[0] != b"Z" and int(fields[1]) == parent:
            pids.append(int(entry))
    return pids


def reap_children() -> None:
    """SIGKILL every child of this process, the orphans it adopted as a
    subreaper included, and reap each, until it has no child left."""
    while True:
        for pid in _children(os.getpid()):
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if not pid:
            time.sleep(0.01)


def peak_rss_mb(pids: list[int]) -> float:
    """Sum of the peak resident set sizes (``VmHWM``) of ``pids``."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


class Server:
    """One ``serve`` process tree on a store directory.

    ``launcher`` replaces ``-m repro`` with a script path (the traced
    launcher), which receives the same ``serve`` arguments."""

    def __init__(
        self,
        root: Path,
        scheme_path: Path,
        store: Path,
        shards: int,
        log_path: Path,
        launcher: Optional[list[str]] = None,
    ) -> None:
        self.root = root
        self.scheme_path = scheme_path
        self.store = store
        self.shards = shards
        self.log_path = log_path
        self.launcher = launcher
        self.proc: Optional[subprocess.Popen] = None
        self.port: Optional[int] = None
        self._workers: list[int] = []

    def command(self) -> list[str]:
        entry = self.launcher or ["-m", "repro"]
        return [
            sys.executable,
            *entry,
            "serve",
            str(self.scheme_path),
            "--store",
            str(self.store),
            "--shards",
            str(self.shards),
            "--port",
            "0",
        ]

    def start(self) -> None:
        """Spawn and wait until the frontend announces its port."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        env["PYTHONUNBUFFERED"] = "1"
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                self.command(),
                cwd=self.root,
                env=env,
                stdin=subprocess.DEVNULL,
                stdout=log,
                stderr=subprocess.STDOUT,
                preexec_fn=functools.partial(_die_with, os.getpid()),
            )
        deadline = time.monotonic() + START_TIMEOUT_S
        with open(self.log_path, "rb") as log:
            buffered = b""
            while True:
                chunk = log.read()
                if chunk:
                    buffered += chunk
                    for line in buffered.split(b"\n"):
                        port = _listening_port(line)
                        if port is not None:
                            self.port = port
                            self._workers = _children(self.proc.pid)
                            return
                if self.proc.poll() is not None:
                    raise RuntimeError(
                        f"server exited with {self.proc.returncode} before "
                        f"listening; see {self.log_path}"
                    )
                if time.monotonic() > deadline:
                    self.kill()
                    raise RuntimeError("server did not start listening in time")
                time.sleep(0.002)

    def connect(self) -> socket.socket:
        sock = socket.create_connection(("127.0.0.1", self.port), timeout=120)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    def pids(self) -> list[int]:
        if self.proc is None:
            return []
        return [self.proc.pid, *_children(self.proc.pid)]

    def kill(self) -> None:
        """SIGKILL the router and its workers and reap every one."""
        if self.proc is None:
            return
        # A reaped router's pid may already name another process.
        live = []
        if self.proc.poll() is None:
            live = [self.proc.pid]
            self._workers = sorted({*self._workers, *_children(self.proc.pid)})
        for pid in live + self._workers:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        self._reap()

    def stop(self) -> int:
        """A clean shutdown: SIGTERM to the router, which closes its
        workers itself.  Falls back to SIGKILL after a timeout."""
        if self.proc is None:
            return 0
        try:
            self.proc.send_signal(signal.SIGTERM)
            self.proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
        self._reap()
        return self.proc.returncode

    def _reap(self) -> None:
        assert self.proc is not None
        self.proc.wait()
        deadline = time.monotonic() + STOP_TIMEOUT_S
        for pid in self._workers:
            while time.monotonic() < deadline:
                try:
                    done, _ = os.waitpid(pid, os.WNOHANG)
                except ChildProcessError:
                    # Not our child (no subreaper): wait until it is gone.
                    if not os.path.exists(f"/proc/{pid}") or _is_zombie(pid):
                        break
                    time.sleep(0.01)
                    continue
                if done:
                    break
                time.sleep(0.01)
        self._workers = []


def _is_zombie(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            stat = handle.read()
    except OSError:
        return True
    return stat[stat.rindex(b")") + 2 :].split()[0] == b"Z"


def _listening_port(line: bytes) -> Optional[int]:
    line = line.strip()
    if not line.startswith(b"{"):
        return None
    try:
        announce = json.loads(line)
    except ValueError:
        return None
    if isinstance(announce, dict) and "listening" in announce:
        return int(announce["listening"][1])
    return None
