"""The product under test, launched as users launch it.

``python -m repro serve --port 0 --backend pool ...`` runs as a
subprocess in its own process group; the port is read from the banner
it prints.  CPU and memory are read from ``/proc`` over the whole
process tree (server + pool workers), so work moved between the two
still shows.
"""

from __future__ import annotations

import atexit
import os
import re
import select
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional, Set, Tuple

from repro.serve import ServeClient, ServeError

_CLK_TCK = os.sysconf("SC_CLK_TCK")
_BANNER_PORT = re.compile(rb"listening on http://[^:]+:(\d+)")


class HarnessError(RuntimeError):
    """The benchmark itself could not run (as opposed to a failed request)."""


# -- /proc readers ------------------------------------------------------


def _stat_fields(pid: int) -> Optional[List[str]]:
    """``/proc/<pid>/stat`` fields after the ``(comm)``; index 0 is the
    state (field 3 of proc(5)), so field N of the man page is N - 3."""
    try:
        with open(f"/proc/{pid}/stat", "r", encoding="ascii", errors="replace") as fh:
            text = fh.read()
    except OSError:
        return None
    return text[text.rindex(")") + 2 :].split()


def process_tree(root: int) -> List[int]:
    """``root`` and every live descendant (pool workers are children)."""
    children: Dict[int, List[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        fields = _stat_fields(int(name))
        if fields is not None:
            children.setdefault(int(fields[1]), []).append(int(name))
    tree, frontier = [], [root]
    while frontier:
        pid = frontier.pop()
        tree.append(pid)
        frontier.extend(children.get(pid, ()))
    return tree


def cpu_seconds(pids: List[int]) -> float:
    """User + system CPU consumed so far by ``pids``."""
    ticks = 0
    for pid in pids:
        fields = _stat_fields(pid)
        if fields is not None:
            ticks += int(fields[11]) + int(fields[12])  # utime, stime
    return ticks / _CLK_TCK


def peak_rss_mb(pids: List[int]) -> float:
    """Sum of each process's peak resident set (``VmHWM``)."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status", "r", encoding="ascii", errors="replace") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


# -- CPU placement -------------------------------------------------------


def cpu_plan() -> Tuple[Set[int], Set[int]]:
    """``(front, back)``: the core the client and the server share, and
    the cores left to the pool workers.

    Left to the scheduler, three processes float over two cores: on
    ``warm_batch`` a round trip costs a cross-core wake-up or not
    depending on where client and server happened to land, and
    ``jobs_per_s`` swung 40 % between identical runs.  Pinning makes the
    placement the protocol states a fact.  One allowed CPU: no plan.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return set(cpus), set(cpus)
    return {cpus[0]}, set(cpus[1:])


# -- the server subprocess ---------------------------------------------


class ServerProcess:
    """One ``repro serve`` subprocess with a fresh cache directory.

    Use as a context manager; :meth:`stop` is also registered with
    ``atexit`` while the server lives, so no exit path leaks it.
    """

    def __init__(self, repo_root: str, work_dir: str, worker_cpus: Set[int]):
        self.repo_root = repo_root
        self.work_dir = work_dir
        #: Where pool workers are pinned; one worker per CPU.  The
        #: server itself inherits the launching process's affinity.
        self.worker_cpus = worker_cpus
        self.port = 0
        self.cache_dir: Optional[str] = None
        self._proc: Optional[subprocess.Popen] = None

    def __enter__(self) -> "ServerProcess":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    @property
    def pid(self) -> int:
        assert self._proc is not None
        return self._proc.pid

    def alive(self) -> bool:
        return self._proc is not None and self._proc.poll() is None

    def start(self, timeout: float = 30.0) -> None:
        """Launch, read the port off the banner, wait for ``/healthz``."""
        self.cache_dir = tempfile.mkdtemp(prefix="cache-", dir=self.work_dir)
        env = dict(os.environ)
        src = os.path.join(self.repo_root, "src")
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        atexit.register(self.stop)
        self._proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--backend", "pool", "--workers", str(len(self.worker_cpus)),
             "--cache-dir", self.cache_dir],
            stdout=subprocess.PIPE,
            stdin=subprocess.DEVNULL,
            cwd=self.work_dir,
            env=env,
            # Own group: teardown can reach pool workers even after the
            # server process itself is gone.
            start_new_session=True,
        )
        try:
            deadline = time.monotonic() + timeout
            self.port = self._read_banner_port(deadline)
            with ServeClient(port=self.port) as client:
                while True:
                    try:
                        client.healthz()
                        return
                    except ServeError:
                        if not self.alive() or time.monotonic() >= deadline:
                            raise HarnessError("server never answered /healthz") from None
                        time.sleep(0.01)
        except BaseException:
            self.stop()
            raise

    def _read_banner_port(self, deadline: float) -> int:
        assert self._proc is not None and self._proc.stdout is not None
        fd = self._proc.stdout.fileno()
        banner = b""
        while b"\n" not in banner:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise HarnessError(f"no server banner within the timeout: {banner!r}")
            if select.select([fd], [], [], min(remaining, 0.5))[0]:
                chunk = os.read(fd, 4096)
                if not chunk:
                    raise HarnessError(
                        f"server exited ({self._proc.wait()}) before its banner"
                    )
                banner += chunk
        match = _BANNER_PORT.search(banner)
        if match is None:
            raise HarnessError(f"no port in server banner: {banner!r}")
        return int(match.group(1))

    def tree(self) -> List[int]:
        return process_tree(self.pid)

    def pin_workers(self) -> None:
        """Move every pool worker that exists by now onto its CPUs."""
        for pid in self.tree()[1:]:
            try:
                for task in os.listdir(f"/proc/{pid}/task"):
                    os.sched_setaffinity(int(task), self.worker_cpus)
            except OSError:
                continue  # gone already

    def stop(self) -> None:
        """Interrupt (the server's own graceful path, which joins its
        pool workers) -> wait -> terminate the group -> wait -> kill.

        A plain SIGTERM to the server alone would orphan the pool
        workers: the default handler exits without closing the backend.
        """
        proc, self._proc = self._proc, None
        if proc is not None:
            pgid = proc.pid
            if proc.poll() is None:
                os.kill(proc.pid, signal.SIGINT)
                _wait_exit(proc, 5.0)
            for sig in (signal.SIGTERM, signal.SIGKILL):
                if proc.poll() is not None and _wait_group_gone(pgid, 1.0):
                    break
                try:
                    os.killpg(pgid, sig)
                except ProcessLookupError:
                    pass
                _wait_exit(proc, 3.0)
            else:
                _wait_group_gone(pgid, 3.0)
            if proc.stdout is not None:
                proc.stdout.close()
        if self.cache_dir is not None:
            shutil.rmtree(self.cache_dir, ignore_errors=True)
            self.cache_dir = None
        atexit.unregister(self.stop)


def _wait_exit(proc: subprocess.Popen, timeout: float) -> None:
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        pass


def _wait_group_gone(pgid: int, timeout: float) -> bool:
    """Whether every process of group ``pgid`` ended within ``timeout``."""
    deadline = time.monotonic() + timeout
    while True:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return True
        except PermissionError:
            return True  # the id now names someone else's group: ours is gone
        if time.monotonic() >= deadline:
            return False
        time.sleep(0.01)
