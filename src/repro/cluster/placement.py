"""Replica-aware placement of pack groups onto cluster workers.

The packed layouts already partition the vertex set into groups
(``g = v // group_size``); placement maps those groups onto ``W`` worker
processes:

* ``primary(g) = g * W // G`` — contiguous group ranges, so a worker's
  working set is a contiguous byte range of the packed store (the same
  locality argument as the layout itself), and
* ``owners(g) = (primary, primary + 1, ..., primary + R - 1) mod W`` —
  a group's R replica copies land on R *distinct* workers (enforced by
  ``W >= R``), so killing any single worker leaves every group with a
  live owner.  Replica copy ``k`` of group ``g`` is served by
  ``owners(g)[k]`` from ``replica/<k>/groups/<g>.pack`` — the exact
  files ``write_shards(replicas=R)`` already lays down, read in place,
  no re-partitioning step.

Placement is pure arithmetic on ``(n, group_size, workers, replicas)``:
the client and every worker derive the same ownership map independently
from the manifest, so no membership service crosses the wire.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Tuple

from ..routing.serving import require_current_layout

__all__ = ["Placement"]


@dataclass(frozen=True)
class Placement:
    """Deterministic ``group -> workers`` ownership map.

    ``replicas`` is the layout's copy count: 1 for single-copy layouts
    (no failover possible — a worker kill loses its groups), R >= 2 for
    replicated ones.
    """

    n: int
    group_size: int
    workers: int
    replicas: int = 1

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"placement needs n >= 1, got {self.n}")
        if self.group_size < 1:
            raise ValueError(
                f"placement needs group_size >= 1, got {self.group_size}"
            )
        if self.workers < 1:
            raise ValueError(
                f"placement needs workers >= 1, got {self.workers}"
            )
        if self.replicas < 1:
            raise ValueError(
                f"placement needs replicas >= 1, got {self.replicas}"
            )
        if self.workers < self.replicas:
            raise ValueError(
                f"{self.workers} workers cannot place {self.replicas} "
                f"replicas on distinct workers — a single worker kill "
                f"must never take out every copy of a group; start at "
                f"least {self.replicas} workers"
            )

    @classmethod
    def from_manifest(
        cls, manifest: Dict[str, Any], *, workers: int
    ) -> "Placement":
        """Placement for a shard-directory manifest (retired layouts
        raise :class:`~repro.routing.serving.RetiredLayoutError`)."""
        require_current_layout(manifest)
        return cls(
            n=int(manifest["n"]),
            group_size=int(manifest["group_size"]),
            workers=workers,
            replicas=int(manifest["replicas"]),
        )

    # -- group arithmetic ---------------------------------------------
    @property
    def groups(self) -> int:
        return (self.n + self.group_size - 1) // self.group_size

    def group_of(self, v: int) -> int:
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} outside 0..{self.n - 1}")
        return v // self.group_size

    # -- ownership -----------------------------------------------------
    def primary(self, g: int) -> int:
        """Preferred owner of group ``g`` (serves replica copy 0)."""
        if not 0 <= g < self.groups:
            raise ValueError(
                f"group {g} outside 0..{self.groups - 1}"
            )
        return g * self.workers // self.groups

    def owners(self, g: int) -> Tuple[int, ...]:
        """Workers holding group ``g``, in failover order; index ``k``
        serves replica copy ``k``."""
        first = self.primary(g)
        return tuple(
            (first + k) % self.workers for k in range(self.replicas)
        )

    def owner_of(self, v: int) -> int:
        return self.primary(self.group_of(v))

    def assignment(self, w: int) -> Dict[int, int]:
        """``{group: replica copy index}`` served by worker ``w``.

        The worker's startup contract: for each entry ``(g, k)`` it maps
        copy ``k`` of the group's :func:`~repro.routing.serving.pack_paths`
        and serves lookups for exactly those groups.
        """
        if not 0 <= w < self.workers:
            raise ValueError(
                f"worker {w} outside 0..{self.workers - 1}"
            )
        owned: Dict[int, int] = {}
        for g in range(self.groups):
            for k, owner in enumerate(self.owners(g)):
                if owner == w:
                    owned[g] = k
                    break
        return owned

    def spec(self) -> Dict[str, int]:
        """JSON-able identity (the ``cluster.json`` placement fields)."""
        return {
            "n": self.n,
            "group_size": self.group_size,
            "workers": self.workers,
            "replicas": self.replicas,
        }
