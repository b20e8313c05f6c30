"""Cluster lifecycle: start workers, hand out routers, kill, stop.

:func:`start_cluster` spawns one OS process per placement worker (stdlib
:mod:`multiprocessing` — the workers are real processes, a SIGKILL to
one is indistinguishable from a node loss) over a shard directory laid
down by ``write_shards([replicas=R])``.  Each worker binds
an ephemeral TCP port, builds its restricted store from
``placement.assignment(w)``, and reports ``("ready", port)`` — or a
typed startup failure — back over a :func:`multiprocessing.Pipe` before
the driver declares the cluster up.  A worker that refuses to start
(e.g. a partially-written replica directory, surfaced as
:class:`~repro.routing.serving.ShardUnavailableError`) fails the whole
``start_cluster`` call with that same typed error, workers already
running torn down.

The returned :class:`ClusterHandle` owns the processes.  ``.router()``
connects a :class:`~repro.cluster.router.ClusterRouter`;
``.kill_worker(w)`` is the chaos harness's hammer (SIGKILL, no
cleanup); ``.stop()`` shuts the fleet down politely (``MSG_SHUTDOWN``
RPC, then join, then terminate stragglers).  ``.spec()`` serialises
everything a later process needs to reconnect — the ``cluster.json``
the CLI writes — and :func:`connect_cluster` rebuilds a router from it.
"""

from __future__ import annotations

import json
import multiprocessing
import os
from typing import Any, Dict, List, Optional, Tuple

from ..routing.serving import ServingError, _load_manifest
from .placement import Placement
from .router import ClusterRouter
from .wire import ClusterError, raise_remote
from .worker import run_worker

__all__ = [
    "ClusterHandle",
    "start_cluster",
    "connect_cluster",
    "save_cluster_spec",
    "load_cluster_spec",
]

#: manifest identity fields carried into the cluster spec
_IDENTITY_FIELDS = ("spec", "scheme", "name")


class ClusterHandle:
    """A running worker fleet (owns the processes and their pipes)."""

    def __init__(
        self,
        *,
        shard_dir: str,
        placement: Placement,
        processes: List[multiprocessing.Process],
        addresses: Dict[int, Tuple[str, int]],
        identity: Dict[str, Any],
    ) -> None:
        self.shard_dir = shard_dir
        self.placement = placement
        self.processes = processes
        self.addresses = addresses
        self.identity = identity
        self._stopped = False

    def router(self, **kwargs: Any) -> ClusterRouter:
        """A fresh :class:`ClusterRouter` over this fleet."""
        return ClusterRouter(
            self.addresses,
            self.placement,
            identity=self.identity,
            **kwargs,
        )

    def alive(self) -> List[int]:
        """Worker ids whose processes are still running."""
        return [
            w
            for w, proc in enumerate(self.processes)
            if proc.is_alive()
        ]

    def kill_worker(self, w: int) -> None:
        """SIGKILL worker ``w`` — the chaos harness's node loss.

        No shutdown handshake, no flush: connections to it break
        mid-frame, exactly like a machine dropping off the network.
        """
        proc = self.processes[w]
        proc.kill()
        proc.join(timeout=10.0)

    def stop(self) -> None:
        """Stop every worker: polite SHUTDOWN RPC first, then join,
        then terminate whatever is left."""
        if self._stopped:
            return
        self._stopped = True
        if any(proc.is_alive() for proc in self.processes):
            try:
                with self.router(timeout_s=5.0) as router:
                    router.shutdown_workers()
            except (ServingError, OSError):
                pass  # falling back to terminate below
        for proc in self.processes:
            proc.join(timeout=2.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)
            proc.close()

    def spec(self) -> Dict[str, Any]:
        """JSON-able reconnect spec (the ``cluster.json`` contents)."""
        out: Dict[str, Any] = {
            "shard_dir": os.path.abspath(self.shard_dir),
            "placement": self.placement.spec(),
            "addresses": {
                str(w): list(addr)
                for w, addr in sorted(self.addresses.items())
            },
        }
        out.update(self.identity)
        return out

    def __enter__(self) -> "ClusterHandle":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    def __repr__(self) -> str:
        return (
            f"ClusterHandle(workers={self.placement.workers}, "
            f"alive={len(self.alive())}, shard_dir={self.shard_dir!r})"
        )


def start_cluster(
    shard_dir: str,
    *,
    workers: int,
    max_resident: Optional[int] = None,
    fault_spec: Optional[Dict[str, Any]] = None,
    host: str = "127.0.0.1",
    startup_timeout_s: float = 30.0,
) -> ClusterHandle:
    """Start ``workers`` processes over ``shard_dir`` and wait until
    every one is serving.  See the module docstring."""
    manifest = _load_manifest(shard_dir)
    placement = Placement.from_manifest(manifest, workers=workers)
    identity = {
        field: manifest.get(field) for field in _IDENTITY_FIELDS
    }
    processes: List[multiprocessing.Process] = []
    pipes = []
    addresses: Dict[int, Tuple[str, int]] = {}
    try:
        for w in range(workers):
            parent_conn, child_conn = multiprocessing.Pipe()
            proc = multiprocessing.Process(
                target=run_worker,
                args=(child_conn,),
                kwargs={
                    "shard_dir": shard_dir,
                    "worker_id": w,
                    "assignment": placement.assignment(w),
                    "host": host,
                    "max_resident": max_resident,
                    "fault_spec": fault_spec,
                },
                daemon=True,
                name=f"repro-cluster-worker-{w}",
            )
            proc.start()
            child_conn.close()
            processes.append(proc)
            pipes.append(parent_conn)
        for w, parent_conn in enumerate(pipes):
            if not parent_conn.poll(startup_timeout_s):
                raise ClusterError(
                    f"worker {w} did not report within "
                    f"{startup_timeout_s:.0f}s of starting"
                )
            try:
                report = parent_conn.recv()
            except EOFError as exc:
                raise ClusterError(
                    f"worker {w} died before reporting its port"
                ) from exc
            if (
                isinstance(report, tuple)
                and len(report) == 2
                and report[0] == "ready"
            ):
                addresses[w] = (host, int(report[1]))
            elif (
                isinstance(report, tuple)
                and len(report) == 3
                and report[0] == "error"
            ):
                raise_remote(report[1], report[2], worker=w)
            else:
                raise ClusterError(
                    f"worker {w} sent malformed startup report "
                    f"{report!r}"
                )
    except BaseException:
        for proc in processes:
            if proc.is_alive():
                proc.terminate()
        for proc in processes:
            proc.join(timeout=5.0)
        raise
    finally:
        for parent_conn in pipes:
            parent_conn.close()
    return ClusterHandle(
        shard_dir=shard_dir,
        placement=placement,
        processes=processes,
        addresses=addresses,
        identity=identity,
    )


def connect_cluster(spec: Dict[str, Any], **kwargs: Any) -> ClusterRouter:
    """A :class:`ClusterRouter` over an already-running fleet,
    reconstructed from a :meth:`ClusterHandle.spec` dict."""
    placement_spec = spec.get("placement")
    if not isinstance(placement_spec, dict):
        raise ValueError(
            f"cluster spec has no placement dict: {spec!r}"
        )
    placement = Placement(
        n=int(placement_spec["n"]),
        group_size=int(placement_spec["group_size"]),
        workers=int(placement_spec["workers"]),
        replicas=int(placement_spec["replicas"]),
    )
    raw_addresses = spec.get("addresses")
    if not isinstance(raw_addresses, dict):
        raise ValueError(
            f"cluster spec has no addresses dict: {spec!r}"
        )
    addresses = {
        int(w): (str(addr[0]), int(addr[1]))
        for w, addr in raw_addresses.items()
    }
    identity = {
        field: spec.get(field) for field in _IDENTITY_FIELDS
    }
    return ClusterRouter(
        addresses, placement, identity=identity, **kwargs
    )


def save_cluster_spec(path: str, spec: Dict[str, Any]) -> None:
    """Write a reconnect spec as JSON (the CLI's ``cluster.json``)."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(spec, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_cluster_spec(path: str) -> Dict[str, Any]:
    """Read and shape-check a reconnect spec written by
    :func:`save_cluster_spec`."""
    with open(path, "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    if not isinstance(spec, dict):
        raise ValueError(
            f"cluster spec {path!r} is {type(spec).__name__}, "
            f"want a JSON object"
        )
    return spec
