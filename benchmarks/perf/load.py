"""The benchmark's own load driver for the serving tier.

``repro.serve.loadgen.LoadGenerator`` is not reused: it records neither
when a request was *due* nor how late it was sent, and at high rates it
silently offers less than it was asked for. Here the whole arrival
schedule is drawn from the seed before the run starts, every request is
timed from its due time - so a stall is charged to every request that
had to wait behind it, not only to the one in flight - and the
generator's own lateness is part of the result. One process, one event
loop thread: the box has two cores and the fleet's two replicas need
them.

* open loop (``open_loop``): requests leave on the Poisson schedule
  whatever the fleet does - independent users; the queue can grow.
* closed loop (``closed_loop``): a fixed number of clients, each
  sending its next request when the previous answer arrives - callers
  that wait; a slow fleet is offered less.
"""

from __future__ import annotations

import asyncio
import random
from array import array

from benchmarks.perf.stats import INF, percentile

#: outcome codes per request
OK, SHED, FAILED = 0, 1, 2


def poisson_schedule(rate_hz: float, duration_s: float, rng: random.Random):
    """Due times (seconds from phase start) of a Poisson process."""
    due, t = [], rng.expovariate(rate_hz)
    while t < duration_s:
        due.append(t)
        t += rng.expovariate(rate_hz)
    return due


def observations(count: int, obs_dim: int, rng: random.Random):
    return [
        [rng.uniform(-1.0, 1.0) for _ in range(obs_dim)]
        for _ in range(count)
    ]


class PhaseResult:
    """Per-request columns of one load window (index = request).

    Columns are typed arrays, not objects, so the driver process's peak
    RSS reflects the fleet it drives rather than this bookkeeping.
    Request ``i`` carries ``pool[(base + i) % len(pool)]``.
    """

    def __init__(self, pool, base: int, dues):
        n = len(dues)
        self.pool = pool
        self.base = base
        #: loop-clock time each request was due (open loop) or
        #: submitted (closed loop), handed to ``submit``, and answered
        self.due = array("d", dues)
        self.sent = array("d", bytes(8 * n))
        self.done = array("d", bytes(8 * n))
        self.outcome = array("b", [FAILED]) * n
        #: from the ``ServedAction`` of each answered request
        self.version = array("i", bytes(4 * n))
        self.action = array("i", bytes(4 * n))
        self.served_latency_s = array("d", bytes(8 * n))
        self.started = 0.0
        self.finished = 0.0

    def observation(self, i: int):
        return self.pool[(self.base + i) % len(self.pool)]

    @property
    def offered(self) -> int:
        return len(self.due)

    def count(self, outcome: int) -> int:
        return self.outcome.count(outcome)

    def answered(self):
        return [i for i, o in enumerate(self.outcome) if o == OK]

    def latencies_ms(self, indices=None) -> list[float]:
        """Latency from *due* time; a request that was shed or failed
        counts as +inf, so it can only push a percentile up."""
        indices = range(self.offered) if indices is None else indices
        return [
            (self.done[i] - self.due[i]) * 1e3
            if self.outcome[i] == OK else INF
            for i in indices
        ]

    def lateness_ms(self) -> list[float]:
        return [
            (sent - due) * 1e3 for sent, due in zip(self.sent, self.due)
        ]

    def answers_per_s(self) -> float:
        return self.count(OK) / (max(self.done) - self.started)

    def backlog_grows(self) -> bool:
        """Whether latency in the last quarter of the window is more
        than twice that of the first quarter and above 10 ms - the sign
        of a queue that is not draining at this rate."""
        quarter = max(1, self.offered // 4)
        head = percentile(self.latencies_ms(range(quarter)), 50)
        tail = percentile(
            self.latencies_ms(range(self.offered - quarter, self.offered)),
            50,
        )
        return tail > 10.0 and tail > 2.0 * head


async def _one(submit, result: PhaseResult, i: int, clock):
    from repro.serve.batcher import Overloaded

    result.sent[i] = clock()
    try:
        served = await submit(result.observation(i))
        result.outcome[i] = OK
        result.version[i] = served.champion_version
        result.action[i] = served.action
        result.served_latency_s[i] = served.latency_s
    except Overloaded:
        result.outcome[i] = SHED
    except Exception:  # counted, not raised: the run reports it failed
        result.outcome[i] = FAILED
    result.done[i] = clock()


async def open_loop(submit, schedule, pool, base: int) -> PhaseResult:
    """Offer one request at each ``schedule`` offset (seconds from
    now)."""
    loop = asyncio.get_running_loop()
    clock = loop.time
    start = clock()
    result = PhaseResult(pool, base, [start + offset for offset in schedule])
    result.started = start
    due = result.due
    tasks = []
    i, n = 0, len(schedule)
    while i < n:
        now = clock()
        while i < n and due[i] <= now:
            tasks.append(loop.create_task(_one(submit, result, i, clock)))
            i += 1
        if i < n:
            await asyncio.sleep(max(0.0, due[i] - clock()))
    if tasks:
        await asyncio.wait(tasks)
    result.finished = clock()
    return result


async def closed_loop(
    submit, pool, base: int, clients: int, n_requests: int
) -> PhaseResult:
    """``clients`` callers, each sending its next request when the last
    one is answered, until ``n_requests`` have been sent. Due time ==
    send time: a closed loop has no schedule to be late for."""
    clock = asyncio.get_running_loop().time
    result = PhaseResult(pool, base, [0.0] * n_requests)
    result.started = clock()
    cursor = 0

    async def client():
        nonlocal cursor
        while cursor < n_requests:
            i, cursor = cursor, cursor + 1
            result.due[i] = clock()
            await _one(submit, result, i, clock)

    await asyncio.gather(*(client() for _ in range(clients)))
    result.finished = clock()
    return result
