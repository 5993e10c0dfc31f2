"""A router killed outright must not strand its shard workers.

Each worker blocks in ``recv_frame`` on its socket to the router; it
exits when that read returns EOF, which needs every copy of the
router-side socket end closed.  A router that dies by SIGKILL closes
its own copies, so the workers must not hold any: a worker forked
after its siblings inherits their router ends and its own, and has to
close them before serving.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")

ROUTER_SCRIPT = """
import time
from repro.shard.router import ShardRouter
from repro.workloads.scaling import tiled_university

router = ShardRouter.in_memory(tiled_university(2), 2)
print(" ".join(str(process.pid) for process in router._procs), flush=True)
time.sleep(120)
"""

#: Seconds each worker gets to notice EOF and exit.
EXIT_BOUND = 10.0


def _gone(pid: int) -> bool:
    """Exited: no such process, or a zombie waiting for its reaper."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return True
    except OSError:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return True
        return False
    return stat.rsplit(")", 1)[1].split()[0] == "Z"


@pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="reads /proc"
)
def test_workers_exit_when_the_router_is_killed():
    env = dict(os.environ, PYTHONPATH=REPO_SRC)
    router = subprocess.Popen(
        [sys.executable, "-c", ROUTER_SCRIPT],
        env=env,
        stdout=subprocess.PIPE,
        text=True,
    )
    pids: list[int] = []
    try:
        line = router.stdout.readline()
        pids = [int(pid) for pid in line.split()]
        assert len(pids) == 2
        router.send_signal(signal.SIGKILL)
        router.wait(timeout=10)
        deadline = time.monotonic() + EXIT_BOUND
        while time.monotonic() < deadline and not all(map(_gone, pids)):
            time.sleep(0.05)
        assert all(map(_gone, pids)), (
            f"shard workers {pids} still running {EXIT_BOUND}s after "
            "their router was killed"
        )
    finally:
        if router.poll() is None:
            router.kill()
            router.wait(timeout=10)
        router.stdout.close()
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
