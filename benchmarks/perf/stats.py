"""Small statistics shared by the workloads, the tracer and ``compare``.

Everything here is pure Python over plain lists so the harness
self-tests can pin the arithmetic without forking anything.
"""

from __future__ import annotations

import hashlib
import math
import statistics
from typing import Iterable, Sequence

INF = float("inf")


def percentile(values: Iterable[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0 < q <= 100).

    Failed or shed requests are passed in as ``+inf`` so they sit at the
    top of the ranking: a run that fails more than ``100 - q`` percent
    of its requests reports an infinite percentile instead of a latency
    computed over the survivors.
    """
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    if not 0 < q <= 100:
        raise ValueError(f"percentile {q!r} outside (0, 100]")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def window_summary(
    readings, factors=None, rate: bool = True, pick=statistics.median
) -> dict:
    """The reported value, min and max over the measurement windows of
    one run.

    ``readings`` holds one raw reading per window and ``factors`` the
    machine-speed factor measured around that window (see
    ``calibrate.py``): a rate is multiplied by it, a time divided. The
    median of many short windows is what keeps a burst of host
    contention out of the reported value, where a whole-run mean would
    carry all of it. ``pick`` chooses another window than the median
    one (see ``quiet_quartile``).
    """
    readings = list(readings)
    if not readings:
        raise ValueError("no complete measurement window")
    factors = [1.0] * len(readings) if factors is None else list(factors)
    values = [
        reading * factor if rate else reading / factor
        for reading, factor in zip(readings, factors)
    ]
    return {
        "value": pick(values),
        "min": min(values),
        "max": max(values),
        "windows": len(values),
        "raw": pick(readings),
    }


def quiet_quartile(latencies) -> float:
    """The lower-quartile window of a latency (nearest rank: the third
    best of ten).

    Latency under a fixed offered load does not degrade gracefully when
    the host stalls: one window's p95 reads 120 ms where its neighbours
    read 8, and on the seed box such spells last up to 20 s - more than
    half of a phase, so they capture the median window too. Interference
    only ever adds latency, so the quiet end of the windows is the
    reading with the host out of the way, and a regression in the
    program moves the quiet windows like all the others.
    """
    return percentile(latencies, 25)


def chain_digest(previous: str, *fields) -> str:
    """Next link of a trajectory hash chain.

    Floats enter through ``float.hex`` so two trajectories share a link
    only when they agree bit for bit.
    """
    parts = [previous]
    for field in fields:
        parts.append(
            float(field).hex() if isinstance(field, float) else str(field)
        )
    return hashlib.sha256("|".join(parts).encode()).hexdigest()[:16]


def common_prefix_agrees(chain_a: Sequence[str], chain_b: Sequence[str]):
    """Whether two hash chains agree on every link both of them have
    (time-bounded runs of one seed stop at different generations)."""
    shared = min(len(chain_a), len(chain_b))
    return shared > 0 and chain_a[shared - 1] == chain_b[shared - 1]


def derive_seed(seed: int, purpose: str) -> int:
    """A 31-bit seed for ``purpose``, stable across processes."""
    digest = hashlib.sha256(f"{seed}:{purpose}".encode()).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF
