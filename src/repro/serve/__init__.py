"""HTTP serving layer: stdlib servers over :class:`ValidationService`.

Every server rides one asyncio HTTP/1.1 front
(:mod:`repro.serve.transport`) and answers the same versioned ``/v1``
contract (:mod:`repro.serve.gateway`: health, pipeline stats, metrics,
monitor, rules, validate, repair, validate_stream):

* :class:`AsyncGateway` — the front over one service (``repro-serve``):
  one loop parses HTTP, a :class:`RequestScheduler` coalesces
  concurrent small validate requests into fused engine slabs under a
  latency budget, with bounded-queue admission control (429 +
  ``Retry-After``);
* :class:`RouterGateway` + :class:`GatewayFleet` — the multi-node tier
  (``repro-serve --replicas N``): a router process consistent-hashes
  pipelines across N ``repro-serve`` replicas, scatters large streams
  with the exact ``fold_partials`` merge, health-checks the fleet, and
  aggregates ``/v1/metrics`` with a ``replica`` label;
* :class:`RequestScheduler` — the dynamic micro-batching scheduler,
  the one request queue of a gateway process;
* :class:`Client` — stdlib ``http.client`` counterpart that decodes
  responses back into the in-process result objects (one pooled
  keep-alive connection per thread, ``close()``/context-manager);
* :mod:`repro.serve.cli` — the ``repro-serve`` console entry point
  (also ``python -m repro.serve``).
"""

from repro.serve.client import Client
from repro.serve.fleet import GatewayFleet, WorkerHandle
from repro.serve.router import RouterGateway, RouterTarget
from repro.serve.scheduler import RequestScheduler
from repro.serve.transport import AsyncGateway

__all__ = [
    "AsyncGateway",
    "Client",
    "GatewayFleet",
    "RequestScheduler",
    "RouterGateway",
    "RouterTarget",
    "WorkerHandle",
]
