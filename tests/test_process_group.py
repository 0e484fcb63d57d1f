"""One supervisor under both process tiers.

The clans' :class:`~repro.cluster.transport.WorkerPool` and the serving
fleet's replicas run on one :class:`~repro.cluster.transport
.ProcessGroup`. These tests pin what that group guarantees — forked
children start untraced, per-slot FIFO under concurrent senders, one
``"died"`` per death, retired pipes, a close that reaps everything —
and that no other module forks, waits on pipes or absorbs spans. The
serving tier's :class:`~repro.cluster.transport.Channel` — a slot's pipe
as framed messages on an event loop at each end — is pinned here too:
its frames, its deaths, its non-blocking writes and its final flush.
"""

import ast
import asyncio
import multiprocessing
import os
import pathlib
import signal
import threading
import time

import numpy as np
import pytest

from repro.cluster import transport
from repro.cluster.serialization import encode_chunk
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


def _channel_echo(conn, slot):
    """Child target: on a channel, echo every message until ``("close",
    n)``, answer it with ``("closed", n bytes)`` and flush that out."""
    asyncio.run(_echo_on_channel(conn))


async def _echo_on_channel(conn):
    done = asyncio.get_running_loop().create_future()

    def on_message(kind, value):
        if kind == "close":
            channel.send(("closed", b"c" * value))
        elif kind != "died":
            channel.send((kind, value))
            return
        if not done.done():
            done.set_result(None)

    channel = await transport.open_channel(conn, on_message)
    await done
    await channel.close()


class _Inbox:
    """Collects one channel's messages; ``until`` waits (bounded) for a
    predicate over them."""

    def __init__(self):
        self.messages = []

    def __call__(self, kind, value):
        self.messages.append((kind, value))

    def kinds(self):
        return [kind for kind, _ in self.messages]

    async def until(self, predicate, rounds=2000):
        for _ in range(rounds):
            if predicate(self):
                return
            await asyncio.sleep(0.005)
        raise AssertionError(f"gave up waiting: {self.kinds()[-5:]}")


class TestFrames:
    def test_every_message_kind_round_trips_in_any_split(self):
        rows = np.arange(12, dtype=np.float64).reshape(3, 4) / 7
        answers = np.array([[0, 1, 1], [2, 2, 2], [3, 3, 3]])
        stats = (17, 16, 1, (0.5, 0.25))
        messages = [
            ("publish", (3, 2, b"plan bytes")),
            ("infer", encode_chunk(5, rows, "<f8")),
            ("stats", None),
            ("close", None),
            ("published", (3, 2)),
            ("answers", encode_chunk(5, answers, "<i8")),
            ("failed", (6, "closed")),
            ("stats", stats),
            ("closed", stats),
            ("spans", [{"name": "batch_flush", "track": "replica:0",
                        "start_s": 1.0, "dur_s": 2.0}]),
            ("echo", b""),
        ]
        stream = b"".join(map(transport.encode_frame, messages))
        tracer = obs.Tracer(track="parent")
        previous = obs.activate(tracer)
        try:
            for step in (1, 7, len(stream)):
                inbox = _Inbox()
                channel = transport.Channel(None, inbox)
                # a frame split anywhere is delivered once it is whole;
                # the head of the next one waits for its rest
                for start in range(0, len(stream), step):
                    channel.data_received(stream[start:start + step])
                channel.data_received(stream[:9])
                # spans are absorbed into the active tracer, not passed on
                assert inbox.messages == messages[:-2] + messages[-1:]
        finally:
            if previous is None:
                obs.deactivate()
            else:
                obs.activate(previous)
        assert [event["name"] for event in tracer.drain()] == [
            "batch_flush"
        ] * 3


@pytest.mark.lock_check
class TestChannel:
    def test_one_death_per_eof_and_none_from_a_retired_pipe(self):
        async def run():
            group = transport.ProcessGroup(1, _channel_echo)
            first = _Inbox()
            await group.attach(0, first)
            os.kill(group.procs[0].pid, signal.SIGKILL)
            await first.until(lambda inbox: inbox.kinds() == ["died"])
            group.respawn(0)
            second = _Inbox()
            retired = await group.attach(0, second)
            retired.send(("echo", 1))
            await second.until(lambda inbox: inbox.kinds() == ["echo"])
            # respawning a live slot kills the process behind the
            # retired channel: its EOF must report nothing
            group.respawn(0)
            third = _Inbox()
            current = await group.attach(0, third)
            current.send(("echo", 2))
            await third.until(lambda inbox: inbox.kinds() == ["echo"])
            await second.until(lambda _: retired.transport.is_closing())
            current.send(("close", 0))
            await third.until(lambda inbox: "died" in inbox.kinds())
            group.close()
            return first.kinds(), second.kinds(), third.messages

        first, second, third = asyncio.run(run())
        assert first == ["died"]
        assert second == ["echo"]
        assert third == [("echo", 2), ("closed", b""), ("died", None)]
        assert multiprocessing.active_children() == []

    def test_both_ends_flooding_at_once_cannot_deadlock(self):
        """Each end writes far more than a pipe holds before it reads:
        blocking writes would wedge both processes (a watchdog kills
        the child then); buffered ones deliver everything in order."""
        blob = b"f" * 100_000
        posts = 40

        async def run():
            group = transport.ProcessGroup(1, _channel_echo)
            inbox = _Inbox()
            channel = await group.attach(0, inbox)
            watchdog = threading.Timer(30.0, group.kill, (0,))
            watchdog.start()
            try:
                for i in range(posts):
                    channel.send(("echo", blob + bytes([i])))
                buffered = channel.transport.get_write_buffer_size()
                await inbox.until(lambda got: len(got.messages) == posts)
                channel.send(("close", 0))
                await inbox.until(lambda got: "died" in got.kinds())
            finally:
                watchdog.cancel()
                group.close()
            return buffered, inbox.messages

        buffered, messages = asyncio.run(run())
        # nothing was lost or reordered, and the write buffer held no
        # more than what was offered
        assert messages[:posts] == [
            ("echo", blob + bytes([i])) for i in range(posts)
        ]
        assert messages[posts:] == [("closed", b""), ("died", None)]
        assert 0 < buffered <= posts * (len(blob) + 64)

    def test_close_flushes_the_final_reply(self):
        """The last reply is larger than the pipe holds: the child's
        close must flush it before the process exits."""
        size = 4_000_000

        async def run():
            group = transport.ProcessGroup(1, _channel_echo)
            inbox = _Inbox()
            channel = await group.attach(0, inbox)
            channel.send(("close", size))
            await inbox.until(lambda got: "died" in got.kinds())
            group.close()
            return inbox.messages

        messages = asyncio.run(run())
        assert [kind for kind, _ in messages] == ["closed", "died"]
        assert messages[0][1] == b"c" * size


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
