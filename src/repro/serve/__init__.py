"""Continuous-learning inference serving (the evolve->deploy loop).

The subsystem closes the loop the paper's title opens: clans keep
evolving while the deployed champion keeps answering requests.

* :class:`ChampionRegistry` — versioned, pre-compiled champions with
  atomic hot-swap and rollback.
* :class:`MicroBatcher` — work-conserving coalescing of concurrent
  requests (single observations or whole blocks) into batched forward
  passes (scalar-parity per row); no coalescing window, nothing to tune.
* :class:`InferenceGateway` — asyncio ``submit(obs) -> action`` plus
  service-quality stats (p50/p95, qps, batch histogram, shed count).
* :class:`ContinuousService` — background barrier-free evolution
  promoting new champions into the registry mid-traffic.
* :class:`ServingFleet` — N gateway replicas in worker processes behind
  a seeded balancer, with monotone champion propagation over pipes.
* :class:`LoadGenerator` — seeded open-loop Poisson arrivals to drive it.

See ``docs/serving.md``, ``examples/continuous_serving.py`` and
``examples/fleet_serving.py``.
"""

from repro.serve.batcher import (
    MicroBatcher,
    Overloaded,
    ServedAction,
    ServedBlock,
    ServiceClosed,
)
from repro.serve.fleet import ReplicaDied, ServingFleet
from repro.serve.gateway import InferenceGateway
from repro.serve.loadgen import (
    LoadGenerator,
    LoadReport,
    observation_sampler,
)
from repro.serve.registry import (
    ChampionRecord,
    ChampionRegistry,
    RegistryClosed,
    Subscription,
)
from repro.serve.service import ContinuousService
