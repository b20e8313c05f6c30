"""Multi-node serving cluster for packed routing shards.

``repro.cluster`` promotes the single-process serving stack
(:mod:`repro.routing.serving`) to a fleet of worker processes:

* :mod:`~repro.cluster.placement` — deterministic, replica-aware map of
  pack groups onto workers (pure arithmetic on the manifest; client and
  workers derive it independently).
* :mod:`~repro.cluster.wire` — versioned length-prefixed binary RPC;
  every wire-crossing failure is a typed
  :class:`~repro.routing.serving.ServingError` /
  :class:`~repro.routing.shard_codec.ShardCodecError` subclass,
  re-raised typed client-side.
* :mod:`~repro.cluster.worker` — one process per worker: a restricted
  :class:`~repro.routing.serving.ShardStore` over its assigned
  groups behind a threading TCP server.
* :mod:`~repro.cluster.pump` — the routing loop, run by the worker a
  packet is injected at: steps its own groups in-process, forwards the
  rest straight to the owning peers, fails over between replicas.
* :mod:`~repro.cluster.router` — the client: fetches labels, injects
  each packet once and collects
  :class:`~repro.routing.simulator.RouteResult` objects bit-identical
  to the single-process loop.
* :mod:`~repro.cluster.driver` — lifecycle: start/stop/kill workers,
  reconnect specs (``repro cluster`` CLI).
"""

from .driver import (
    ClusterHandle,
    connect_cluster,
    load_cluster_spec,
    save_cluster_spec,
    start_cluster,
)
from .placement import Placement
from .router import ClusterRouter
from .wire import (
    ClusterError,
    NotOwnerError,
    WireProtocolError,
    WorkerUnavailableError,
)
from .worker import WorkerServer, build_worker_store, run_worker

__all__ = [
    "ClusterHandle",
    "ClusterRouter",
    "ClusterError",
    "NotOwnerError",
    "Placement",
    "WireProtocolError",
    "WorkerUnavailableError",
    "WorkerServer",
    "build_worker_store",
    "connect_cluster",
    "load_cluster_spec",
    "run_worker",
    "save_cluster_spec",
    "start_cluster",
]
