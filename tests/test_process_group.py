"""One supervisor under both process tiers.

The clans' :class:`~repro.cluster.transport.WorkerPool` and the serving
fleet's replicas run on one :class:`~repro.cluster.transport
.ProcessGroup`. These tests pin what that group guarantees — forked
children start untraced, per-slot FIFO under concurrent senders, one
``"died"`` per death, retired pipes, a close that reaps everything —
and that no other module forks, waits on pipes or absorbs spans.
"""

import ast
import multiprocessing
import os
import pathlib
import signal
import threading
import time

import pytest

from repro.cluster import transport
from repro.cluster.runtime import DistributedClanRuntime
from repro.neat.config import NEATConfig
from repro.obs import tracer as obs

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"


class PidTracer(obs.Tracer):
    """Appends the recording process's pid to a file per event."""

    def __init__(self, path):
        super().__init__()
        self.path = path

    def _record(self, event):
        with open(self.path, "a", encoding="utf-8") as out:
            out.write(f"{os.getpid()}\n")
        super()._record(event)


class TestForkedChildrenStartUntraced:
    def test_barrier_run_records_only_in_the_driver(self, tmp_path):
        # a clan worker forked while the driver traces must not record
        # into its copy of the driver's tracer: nobody drains that copy
        path = tmp_path / "pids.txt"
        previous = obs.activate(PidTracer(path))
        try:
            with DistributedClanRuntime(
                "CartPole-v0",
                n_clans=2,
                config=NEATConfig.for_env("CartPole-v0", pop_size=12),
                seed=3,
            ) as runtime:
                runtime.run(2, fitness_threshold=1e9)
        finally:
            if previous is None:
                obs.deactivate()
            else:
                obs.activate(previous)
        pids = set(path.read_text(encoding="utf-8").split())
        assert pids == {str(os.getpid())}


def _echo(conn, slot):
    """Child target: answer every message with ``("echo", message)``
    until a ``None`` one."""
    while (message := conn.recv()) is not None:
        conn.send(("echo", message))


def _wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.01)


@pytest.mark.lock_check
class TestGroupUnderConcurrency:
    #: above the pipe's 16 KiB single-write limit, so unlocked
    #: concurrent sends would interleave header and body writes
    BLOB = b"x" * 20_000
    POSTS = 100

    def test_kill_respawn_and_concurrent_posts(self):
        group = transport.ProcessGroup(2, _echo)
        received = {0: [], 1: []}
        deaths = []
        errors = []
        stop = threading.Event()

        def reader():
            try:
                while not stop.is_set():
                    for slot, kind, value in group.read(0.05):
                        if kind == "died":
                            deaths.append(slot)
                        else:
                            assert kind == "echo"
                            received[slot].append(value)
            except Exception as exc:  # surfaced by the assertions
                errors.append(exc)

        def post(tag):
            for i in range(self.POSTS):
                group.send(1, (tag, i, self.BLOB))

        reading = threading.Thread(target=reader)
        reading.start()
        posters = [
            threading.Thread(target=post, args=(tag,)) for tag in "ab"
        ]
        try:
            for poster in posters:
                poster.start()
            os.kill(group.procs[0].pid, signal.SIGKILL)
            _wait_until(lambda: deaths == [0])
            group.respawn(0)
            # respawning a live slot retires its pipe while the reader
            # may still be waiting on it: retired, so not closed yet
            retired = []
            for _ in range(3):
                retired.append(group.conns[0])
                group.respawn(0)
            assert not any(conn.closed for conn in retired)
            group.send(0, ("after", 0, b""))
            for poster in posters:
                poster.join()
            _wait_until(
                lambda: len(received[1]) == 2 * self.POSTS
                and len(received[0]) == 1
            )
        finally:
            stop.set()
            reading.join()
            for slot in (0, 1):
                group.send(slot, None)
            group.close()
        assert all(conn.closed for conn in retired)
        assert errors == []
        assert deaths == [0]
        assert received[0] == [("after", 0, b"")]
        for tag in "ab":
            assert [
                i for t, i, _ in received[1] if t == tag
            ] == list(range(self.POSTS))
        assert all(blob == self.BLOB for _, _, blob in received[1])
        assert multiprocessing.active_children() == []


def _block_in_recv(conn, slot):
    """Child target: wait for a message that never comes; exit on EOF."""
    try:
        conn.recv()
    except EOFError:
        pass


class TestChildrenSeeEof:
    @pytest.mark.parametrize("n", [1, 2])
    def test_closing_the_parent_ends_stops_every_child(self, n):
        # each fork copies every parent-side end the group holds: its
        # own, its siblings' and (after a respawn) retired ones. A child
        # that kept any of them would hold some slot's pipe open
        group = transport.ProcessGroup(n, _block_in_recv)
        group.respawn(0)
        procs = list(group.procs)
        for conn in group.conns + group._retired:
            conn.close()
        for proc in procs:
            proc.join(timeout=5)
        exitcodes = [proc.exitcode for proc in procs]
        group.close()
        assert exitcodes == [0] * n

    def test_a_clan_worker_exits_cleanly_on_eof(self):
        pool = transport.WorkerPool(
            1, "CartPole-v0", NEATConfig.for_env("CartPole-v0", pop_size=12)
        )
        proc = pool._procs[0]
        pool._group.conns[0].close()  # the parent goes without a stop
        proc.join(timeout=5)
        exitcode = proc.exitcode
        pool.shutdown()
        assert exitcode == 0


#: calls that fork, make pipes, wait on pipes or merge span batches
PROCESS_CALLS = {"Process", "Pipe", "get_context", "absorb"}


def _process_mechanics(path) -> list[str]:
    """``line: call`` for every process-mechanics call in ``path``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = getattr(func, "attr", getattr(func, "id", None))
        owner = getattr(func, "value", None)
        owner = getattr(owner, "id", getattr(owner, "attr", ""))
        if name in PROCESS_CALLS:
            found.append(f"{node.lineno}: {name}")
        elif name == "wait" and owner.endswith("connection"):
            found.append(f"{node.lineno}: connection.wait")
    return found


class TestOneSupervisor:
    def test_only_the_transport_forks_and_absorbs(self):
        offenders = {
            str(path.relative_to(SRC)): calls
            for path in sorted(SRC.rglob("*.py"))
            if path.relative_to(SRC).as_posix() != "cluster/transport.py"
            and (calls := _process_mechanics(path))
        }
        assert offenders == {}

    def test_the_guard_sees_the_transport(self):
        calls = _process_mechanics(SRC / "cluster" / "transport.py")
        for name in ("Process", "Pipe", "get_context", "absorb"):
            assert any(call.endswith(name) for call in calls)
        assert any(call.endswith("connection.wait") for call in calls)
