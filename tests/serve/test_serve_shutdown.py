"""``repro serve`` as a real process: a signal shuts down the whole tree.

Each test starts ``python -m repro serve --backend pool`` in its own
session and runs one point so pool workers exist.  A signal to the
server process alone must leave no process of its tree, a port that
refuses connections and a log without a traceback; a worker that the
broken-pool path terminates must leave the server running, and a
worker ignores a SIGINT sent to it alone.
"""

import contextlib
import os
import re
import signal
import socket
import subprocess
import sys
import time

import pytest

from repro.serve import ServeClient

SRC = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")
BANNER = re.compile(r"listening on http://127\.0\.0\.1:(\d+)")

pytestmark = pytest.mark.skipif(
    sys.platform != "linux", reason="reads the process tree from /proc"
)


def process_tree(root):
    """``root`` and its descendants, parents before children."""
    parents = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat") as stat:
                    # The fields after the parenthesised command name.
                    parents[int(entry)] = int(stat.read().rsplit(")", 1)[1].split()[1])
            except (OSError, IndexError, ValueError):
                continue  # exited while we looked
    tree = [root]
    for pid in tree:
        tree.extend(child for child, parent in parents.items() if parent == pid)
    return tree


def alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def wait_for(predicate, timeout):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() >= deadline:
            return False
        time.sleep(0.05)
    return True


@contextlib.contextmanager
def pool_server(tmp_path, workers):
    """Yield ``(process, port, log path)`` of a running pool server; kill
    whatever of its tree is left on the way out."""
    log_path = tmp_path / "serve.log"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    with open(log_path, "wb") as log:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", "--backend", "pool",
             "--workers", str(workers), "--cache-dir", str(tmp_path / "cache")],
            stdout=log, stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL,
            env=env, start_new_session=True,
        )
    seen = {proc.pid}
    try:
        wait_for(lambda: BANNER.search(log_path.read_text()) or proc.poll() is not None, 60)
        banner = BANNER.search(log_path.read_text())
        assert banner, log_path.read_text()
        yield proc, int(banner.group(1)), log_path
    finally:
        if proc.poll() is None:
            seen.update(process_tree(proc.pid))
        for pid in seen:
            if alive(pid):
                os.kill(pid, signal.SIGKILL)
        proc.wait()


def run_point(port, seed):
    with ServeClient(port=port, timeout=60) as client:
        return client.run("collectives", [{"ranks": 4}], seed=seed)


@pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT], ids=["SIGTERM", "SIGINT"])
def test_signal_shuts_down_server_and_workers(signum, tmp_path):
    with pool_server(tmp_path, workers=1) as (proc, port, log_path):
        payload = run_point(port, seed=1)
        assert payload["state"] == "done"
        assert payload["dedupe"]["scheduled"] == 1
        tree = process_tree(proc.pid)
        assert len(tree) >= 2, "the pooled point left no worker process"

        os.kill(proc.pid, signum)
        assert proc.wait(timeout=30) == 0
        assert wait_for(lambda: not any(alive(pid) for pid in tree), 10), (
            [pid for pid in tree if alive(pid)]
        )
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(("127.0.0.1", port), timeout=5).close()
        log = log_path.read_text()
        assert "repro serve: shut down" in log
        assert "Traceback" not in log, log
        assert "Error" not in log, log


def test_broken_pool_terminating_a_worker_keeps_the_server(tmp_path):
    """A dead worker breaks the pool, which SIGTERMs the other worker;
    that signal must end the worker, not the server it forked from."""
    with pool_server(tmp_path, workers=2) as (proc, port, log_path):
        assert run_point(port, seed=1)["state"] == "done"
        workers = process_tree(proc.pid)[1:]
        assert len(workers) == 2, workers
        os.kill(workers[0], signal.SIGKILL)
        assert wait_for(lambda: not alive(workers[1]), 10), "the pool kept its other worker"
        time.sleep(0.5)  # time for a stray shutdown to act
        assert proc.poll() is None, log_path.read_text()
        # A worker killed while idle fails no point: the first one is
        # rerun alone, the next one runs on the replaced pool.
        states = [run_point(port, seed)["state"] for seed in (2, 3)]
        assert states == ["done", "done"], states
        os.kill(proc.pid, signal.SIGTERM)
        assert proc.wait(timeout=30) == 0


def test_worker_ignores_sigint_sent_to_it_alone(tmp_path):
    """Ctrl-C belongs to the server: a SIGINT to a worker alone neither
    ends it nor breaks the pool."""
    with pool_server(tmp_path, workers=1) as (proc, port, log_path):
        assert run_point(port, seed=1)["state"] == "done"
        tree = process_tree(proc.pid)
        assert len(tree) == 2, tree
        os.kill(tree[1], signal.SIGINT)
        time.sleep(0.5)  # time for the signal to act
        assert alive(tree[1])
        payload = run_point(port, seed=2)
        assert payload["state"] == "done"
        assert payload["dedupe"]["scheduled"] == 1
        assert process_tree(proc.pid) == tree  # the same worker served it
        os.kill(proc.pid, signal.SIGTERM)
        assert proc.wait(timeout=30) == 0
        assert "Traceback" not in log_path.read_text()
