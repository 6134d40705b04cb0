"""Service mode: a long-lived query server over the warm caches.

The package splits along transport-independent seams:

* ``protocol`` — the versioned line-delimited JSON wire format, the
  op table ``OP_PARAMS`` and their validation (pure functions, no
  sockets);
* ``scheduler`` — the compile pool: a bound on concurrent
  compilations with in-flight dedupe (pure threading, no sockets);
* ``server`` — ``ServiceFrontEnd``, the request front end both
  deployments share, and ``ReproServer``, which adds the compute ops
  over the ``wmc`` auto policy and two-tier circuit cache: a warm
  circuit is read on the request thread, and only a cold one goes
  through the compile pool;
* ``dispatch`` — ``ReproDispatcher`` (``repro serve --workers N``),
  the same front end proxying compute requests to worker processes;
* ``worker`` — ``python -m repro.service.worker``, one such process;
* ``tenants`` — token authentication and per-tenant quotas (request
  rate windows + cumulative compile budgets);
* ``metrics`` — the Prometheus-style text rendering of ``stats``;
* ``client`` — ``ServiceClient``, the library behind ``repro query``;
* ``smoke`` — ``python -m repro.service.smoke``, the end-to-end check
  CI runs against a real server subprocess.

Start one with ``repro serve``; talk to it with ``repro query`` or
``ServiceClient``.
"""

from repro.service.client import ServiceClient, ServiceError
from repro.service.protocol import (
    OPS,
    PROTOCOL_VERSION,
    ProtocolError,
)
from repro.service.scheduler import CompilePool
from repro.service.server import ReproServer
from repro.service.tenants import TenantQuota, TenantRegistry

__all__ = [
    "CompilePool",
    "OPS",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "ReproServer",
    "ServiceClient",
    "ServiceError",
    "TenantQuota",
    "TenantRegistry",
]
