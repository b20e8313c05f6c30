"""Local-knowledge serving: route on per-vertex shards loaded from disk.

The deployment story of a compact routing scheme (ROADMAP follow-up (b)):
each node holds *its own* ``o(n)``-word table and forwards using that
table plus the packet header — nothing global.  This module makes that
executable:

* :func:`write_shards` — lay a compiled scheme out on disk, either as one
  binary shard per vertex (:mod:`repro.routing.shard_codec`) under a
  fan-out directory tree (layout v1), or — with ``packed=True`` — as a
  handful of packed group files holding many shard payloads each behind
  a sorted offset/length index (layout v2), plus one small
  ``manifest.json`` with the scheme identity, codec version, layout and
  byte/word accounting,
* :class:`ShardStore` / :class:`PackedShardStore` — lazy shard loaders
  over the two layouts, sharing one LRU residency bound and one set of
  serve statistics (loads, cache hits, bytes read); the packed store
  maps each group file once (``mmap``) and decodes a record through
  a zero-copy ``memoryview`` of the mapped buffer — no per-vertex
  ``open()``, no intermediate ``bytes``,
* :func:`open_store` — layout dispatch from the manifest, so callers
  (and ``RoutingSession.load``) never care which layout is on disk,
* :class:`LocalRouter` — the serving engine: a step-only scheme instance
  (``SchemeBase.restore_serving``) whose table, label and port accesses
  all resolve from the *current vertex's* shard.  It implements the
  simulator's engine protocol (``step``/``label_of``/``local_edge``), so
  :func:`repro.routing.simulator.route` drives it exactly like an
  in-memory scheme — and the local-knowledge tests prove the step
  decisions are identical even when every shard (or group) but the
  visited ones is deleted from disk.  Every forwarded header is pushed
  through the wire codec (:mod:`repro.routing.header_codec`): the header
  the next hop sees is the decoded wire bytes, and ``serve_stats()``
  reports the true header bytes sent.

Layouts on disk::

    <dir>/manifest.json             # identity + accounting, JSON
    <dir>/shards/<g>/<v>.shard      # v1: g = v // fanout, zero-padded hex
    <dir>/groups/<g>.pack           # v2: g = v // group_size

Cold-start cost is the point: serving vertex ``v`` reads the manifest
and ``v``'s shard — a few hundred bytes — instead of parsing the whole
JSON session blob.  The packed layout extends that to ``n >= 10^5``:
``O(n / group_size)`` files instead of ``n`` inodes, and the group index
is binary-searched in the mapped file (``benchmarks/bench_serving.py``
gates both the 10x cold start and the >= 100x file-count reduction).
"""

from __future__ import annotations

import errno
import json
import mmap
import os
import shutil
import time
import zlib
from collections import OrderedDict
from contextlib import contextmanager
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    IO,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
)

if TYPE_CHECKING:  # import cycle: ports imports graph helpers
    from .ports import PortAssignment

from ..graph.core import Graph
from . import header_codec
from .model import RouteAction, Forward, SchemeStats, aggregate_scheme_stats
from .shard_codec import (
    CODEC_VERSION,
    ChecksumError,
    ShardCodecError,
    check_pack,
    decode_node_table_fast,
    _encode_record,
    encode_pack,
    find_pack_entry,
    parse_pack_header,
    verify_pack,
)
from .tables import NodeTable

__all__ = [
    "ServingError",
    "ShardUnavailableError",
    "ShardIntegrityError",
    "ReplicaExhaustedError",
    "WireContractError",
    "ShardAccountingError",
    "DirectIO",
    "ShardStore",
    "PackedShardStore",
    "ReplicatedShardStore",
    "open_store",
    "verify_shard_dir",
    "LocalRouter",
    "write_shards",
    "write_shard_records",
    "shard_path",
    "group_path",
    "replica_root",
    "is_shard_dir",
]

MANIFEST_NAME = "manifest.json"
FORMAT = "repro.routing.shards"
#: layout version 1: one file per vertex under shards/<g>/<v>.shard
FORMAT_VERSION = 1
#: layout version 2: packed group files under groups/<g>.pack
PACKED_FORMAT_VERSION = 2
#: layout version 3: packed group files whose index and payloads carry
#: CRC32 checksums (pack v2); with ``replicas=R > 1`` every group exists
#: on R replica paths under replica/<r>/groups/<g>.pack
CHECKSUM_FORMAT_VERSION = 3
#: shards per leaf directory (keeps directories small at n ~ 10^6)
DEFAULT_FANOUT = 256
#: shard payloads per packed group file: at n = 10^6 this is ~245 files
#: (vs 10^6 inodes), while one group stays small enough to map lazily
DEFAULT_GROUP_SIZE = 4096
#: transient-IO retry policy defaults (see _ShardStoreBase)
DEFAULT_RETRY_BUDGET = 2
DEFAULT_BACKOFF_S = 0.002


class ServingError(RuntimeError):
    """Base of the typed serving-failure hierarchy.

    Degraded-mode callers catch this one type; the subclasses say what
    failed (and multiple-inherit the legacy exception types earlier
    releases raised, so existing handlers keep working).
    """


class ShardUnavailableError(ServingError, FileNotFoundError):
    """A shard/group file that the manifest covers cannot be opened."""


class ShardIntegrityError(ServingError, ShardCodecError):
    """Stored bytes are corrupt: checksum mismatch, lying index, or a
    manifest-covered vertex missing from a structurally valid index."""


class WireContractError(ServingError):
    """A header violates the wire codec's contract (bool leaves, or a
    value that does not survive an encode/decode round trip)."""


class ShardAccountingError(ServingError):
    """Compiled shard bytes disagree with the scheme's word accounting."""


class ReplicaExhaustedError(ServingError):
    """Every replica of a group failed; carries the per-replica causes."""

    def __init__(self, message: str, causes: Dict[int, Exception]) -> None:
        super().__init__(message)
        #: replica index -> the exception that disqualified it
        self.causes = causes


class DirectIO:
    """The real filesystem behind a shard store.

    Stores never touch ``open``/``mmap`` directly — they go through one
    of these, which is the seam the fault-injection layer
    (:class:`repro.routing.faults.FaultInjector`) wraps.  Owns the maps
    it hands out; :meth:`close` releases them (the ``close()``
    discipline the leak tests enforce).
    """

    def __init__(self) -> None:
        self._views: List[memoryview] = []
        self._mmaps: List[mmap.mmap] = []

    def map_group(self, path: str, *, sequential: bool = False) -> memoryview:
        """Map ``path`` read-only; the view stays valid until close().

        ``sequential=True`` advises the kernel the map will be scanned
        front to back (``MADV_SEQUENTIAL`` readahead) — the verify
        sweeps touch every byte of every pack exactly once, which is the
        opposite of the random-access pattern serving exhibits.  Advice
        only: platforms without ``mmap.madvise`` (or without the flag)
        serve identical bytes, just without the readahead hint.
        """
        with open(path, "rb") as fh:
            mapped = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        if (
            sequential
            and hasattr(mapped, "madvise")
            and hasattr(mmap, "MADV_SEQUENTIAL")
        ):
            mapped.madvise(mmap.MADV_SEQUENTIAL)
        view = memoryview(mapped)
        self._views.append(view)
        self._mmaps.append(mapped)
        return view

    def read_bytes(self, path: str) -> bytes:
        with open(path, "rb") as fh:
            return fh.read()

    def close(self) -> None:
        views, self._views = self._views, []
        for view in views:
            view.release()
        mmaps, self._mmaps = self._mmaps, []
        collected = False
        for mapped in mmaps:
            try:
                mapped.close()
            except BufferError:
                # a stray sub-view of this map is pinned in a reference
                # cycle (typically an exception traceback from a failed
                # verify) — one gc pass frees it; a second BufferError
                # is a real leak and propagates
                if not collected:
                    import gc

                    gc.collect()
                    collected = True
                mapped.close()


def shard_path(root: str, v: int, fanout: int) -> str:
    """On-disk path of vertex ``v``'s shard under a v1 layout ``root``."""
    return os.path.join(
        root, "shards", f"{v // fanout:04x}", f"{v}.shard"
    )


def group_path(root: str, g: int) -> str:
    """On-disk path of packed group ``g`` under a v2/v3 layout ``root``."""
    return os.path.join(root, "groups", f"{g:04x}.pack")


def replica_root(root: str, r: int) -> str:
    """Root of replica ``r`` under a replicated (v3) layout ``root``."""
    return os.path.join(root, "replica", str(r))


@contextmanager
def _atomic_file(target: str, mode: str = "wb") -> Iterator[IO[Any]]:
    """Write ``target`` via a tmp sibling and ``os.replace``: it appears
    whole or not at all, and a failed write removes the tmp (operators
    should never wonder whether a half-written .tmp is load-bearing)."""
    tmp = f"{target}.tmp.{os.getpid()}"
    try:
        with open(tmp, mode) as fh:
            yield fh
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _clear_stale_layouts(path: str) -> None:
    # A previous, larger or differently-packed layout would leave orphan
    # shards the new manifest cannot reach — and the directory's on-disk
    # size would no longer match the manifest's byte accounting.  Start
    # clean, whichever layout was there before.  The old manifest goes
    # FIRST: every reader gates on it, so a write interrupted anywhere
    # after this point leaves an unambiguous "not a shard directory"
    # (the new manifest only appears, atomically, after the last shard
    # landed) instead of a stale manifest describing deleted shards.
    manifest = os.path.join(path, MANIFEST_NAME)
    if os.path.isfile(manifest):
        os.remove(manifest)
    for sub in ("shards", "groups", "replica"):
        stale = os.path.join(path, sub)
        if os.path.isdir(stale):
            shutil.rmtree(stale)


def _write_per_file(
    path: str, blobs: Iterable[Tuple[int, bytes]], fanout: int
) -> Dict[str, Any]:
    # Streaming: each shard hits disk as it arrives — O(1) residency.
    made_dirs = set()
    count = 0
    for v, blob in blobs:
        target = shard_path(path, v, fanout)
        leaf = os.path.dirname(target)
        if leaf not in made_dirs:
            os.makedirs(leaf, exist_ok=True)
            made_dirs.add(leaf)
        with _atomic_file(target) as fh:
            fh.write(blob)
        count += 1
    return {
        "version": FORMAT_VERSION,
        "layout": "files",
        "fanout": fanout,
        "files": {"shards": count, "dirs": len(made_dirs)},
    }


def _write_packed(
    path: str,
    blobs: Iterable[Tuple[int, bytes]],
    group_size: int,
    *,
    checksums: bool = True,
    replicas: int = 1,
) -> Dict[str, Any]:
    # Streaming with O(group) residency: a group flushes as soon as a
    # record of a later group arrives, so a 10^6-vertex layout never
    # holds more than one group's payloads.  That requires records in
    # nondecreasing group order — what every producer in this repository
    # emits (compile_tables, iter_nodes and the benches walk vertices in
    # order; within a group, encode_pack sorts).
    #
    # ``replicas=R > 1`` lands every encoded group on R replica roots
    # (encode once, write R times) — the redundancy the
    # ReplicatedShardStore fails over across.  Replication without
    # checksums would fail over on *loud* faults only, so it is refused.
    if replicas < 1:
        raise ValueError(f"replicas must be >= 1, got {replicas}")
    if replicas > 1 and not checksums:
        raise ValueError(
            "replicas > 1 requires checksums=True — failover is driven "
            "by checksum verification, a replica set without checksums "
            "could silently serve a corrupted group"
        )
    roots = (
        [path] if replicas == 1
        else [replica_root(path, r) for r in range(replicas)]
    )
    for root in roots:
        os.makedirs(os.path.join(root, "groups"), exist_ok=True)
    groups_written = 0

    def flush(g: int, entries: List[Tuple[int, bytes]]) -> None:
        nonlocal groups_written
        pack = encode_pack(entries, checksums=checksums)
        for root in roots:
            with _atomic_file(group_path(root, g)) as fh:
                fh.write(pack)
        groups_written += 1

    current: Optional[int] = None
    entries: List[Tuple[int, bytes]] = []
    for v, blob in blobs:
        g = v // group_size
        if current is None:
            current = g
        elif g != current:
            if g < current:
                raise ValueError(
                    f"packed layout needs records in nondecreasing "
                    f"group order; got group {g} after {current} "
                    f"(vertex {v})"
                )
            flush(current, entries)
            current, entries = g, []
        entries.append((v, blob))
    if current is not None:
        flush(current, entries)
    return {
        "version": (
            CHECKSUM_FORMAT_VERSION if checksums else PACKED_FORMAT_VERSION
        ),
        "layout": "packed",
        "group_size": group_size,
        "checksums": checksums,
        "replicas": replicas,
        "files": {"groups": groups_written, "replicas": replicas},
    }


def write_shard_records(
    records: Iterable[NodeTable],
    path: str,
    *,
    identity: Dict[str, Any],
    packed: bool = False,
    fanout: int = DEFAULT_FANOUT,
    group_size: int = DEFAULT_GROUP_SIZE,
    checksums: bool = True,
    replicas: int = 1,
) -> Dict[str, Any]:
    """Write encoded :class:`NodeTable` records under ``path``.

    The record-level half of :func:`write_shards`: callers that already
    hold records (re-export of a shard-backed session, the storage-layer
    benchmark) use it directly; ``identity`` supplies the manifest's
    scheme-identity fields (``spec``, ``scheme``, ``name``, ``params``,
    ``routing_params``, ``seed``).  ``records`` may be a generator — it
    is consumed in one streaming pass with bounded residency (one shard
    for the per-file layout, one group for the packed layout; packed
    writing needs records in nondecreasing ``owner // group_size``
    order, which every producer here emits).  Returns the manifest dict
    (also written to ``manifest.json``).

    Packed layouts default to ``checksums=True`` (layout v3: CRC32 per
    payload and per index); ``checksums=False`` writes the legacy v2
    packs.  ``replicas=R > 1`` (packed + checksummed only) lands every
    group on R replica paths for :class:`ReplicatedShardStore` failover.
    """
    manifest = _write_unpublished(
        records, path, identity, packed, fanout, group_size, checksums,
        replicas,
    )
    _publish_manifest(path, manifest)
    return manifest


def _write_unpublished(
    records: Iterable[NodeTable],
    path: str,
    identity: Dict[str, Any],
    packed: bool,
    fanout: int,
    group_size: int,
    checksums: bool,
    replicas: int,
) -> Dict[str, Any]:
    """Write the shards and return the manifest dict, unpublished (the
    encoding pass also counts each record's table words)."""
    if replicas > 1 and not packed:
        raise ValueError("replicas > 1 requires packed=True")
    os.makedirs(path, exist_ok=True)
    _clear_stale_layouts(path)
    stats = {"n": 0, "bytes": 0, "max_bytes": 0, "words": 0, "max_words": 0}

    def encoded() -> Iterator[Tuple[int, bytes]]:
        for record in records:
            blob, words = _encode_record(record)
            stats["n"] += 1
            stats["bytes"] += len(blob)
            stats["max_bytes"] = max(stats["max_bytes"], len(blob))
            stats["words"] += words
            stats["max_words"] = max(stats["max_words"], words)
            yield record.owner, blob

    if packed:
        layout = _write_packed(
            path, encoded(), group_size,
            checksums=checksums, replicas=replicas,
        )
    else:
        layout = _write_per_file(path, encoded(), fanout)
    manifest = {
        "format": FORMAT,
        "codec": CODEC_VERSION,
        "n": stats["n"],
        "bytes": {
            "total": stats["bytes"],
            "max_shard": stats["max_bytes"],
            "avg_shard": round(stats["bytes"] / max(stats["n"], 1), 1),
        },
        "words": {
            "total_table_words": stats["words"],
            "max_table_words": stats["max_words"],
        },
    }
    manifest.update(layout)
    manifest.update(identity)
    return manifest


def _publish_manifest(path: str, manifest: Dict[str, Any]) -> None:
    """Land ``manifest.json`` — the file every reader gates on — last."""
    with _atomic_file(os.path.join(path, MANIFEST_NAME), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_shards(
    scheme: Any,
    path: str,
    *,
    spec_name: str,
    params: Optional[Dict[str, Any]] = None,
    seed: int = 0,
    fanout: int = DEFAULT_FANOUT,
    packed: bool = False,
    group_size: int = DEFAULT_GROUP_SIZE,
    checksums: bool = True,
    replicas: int = 1,
) -> Dict[str, Any]:
    """Compile ``scheme`` and write the sharded layout under ``path``.

    ``packed=False`` writes one file per vertex (layout v1);
    ``packed=True`` writes ``O(n / group_size)`` packed group files —
    same payload bytes, same manifest accounting, a fraction of the
    inodes — checksummed by default (layout v3; ``checksums=False``
    reverts to the legacy v2 packs) and optionally replicated
    (``replicas=R`` places every group on R replica paths for
    :class:`ReplicatedShardStore` failover).  Returns the manifest
    dict.  Before the manifest is published, the word total counted
    while encoding is checked against :class:`SchemeStats` (counted
    apart, with ``words_of``): on drift, :class:`ShardAccountingError`
    is raised and the directory stays "not a shard dir".
    """
    identity = {
        "spec": spec_name,
        # LocalRouter re-exports carry the original scheme class through
        # scheme_class_name; built schemes are their own class.
        "scheme": getattr(
            scheme, "scheme_class_name", type(scheme).__name__
        ),
        "name": scheme.name,
        "seed": seed,
        "params": dict(params or {}),
        "routing_params": scheme.routing_params(),
    }
    manifest = _write_unpublished(
        scheme.compile_tables(), path, identity, packed, fanout,
        group_size, checksums, replicas,
    )
    total_words = manifest["words"]["total_table_words"]
    stats = scheme.stats()
    if total_words != stats.total_table_words:
        raise ShardAccountingError(
            f"compiled shards hold {total_words} table words, scheme "
            f"reports {stats.total_table_words} — accounting drift"
        )
    _publish_manifest(path, manifest)
    return manifest


def is_shard_dir(path: str) -> bool:
    """Whether ``path`` looks like a :func:`write_shards` layout."""
    return os.path.isdir(path) and os.path.isfile(
        os.path.join(path, MANIFEST_NAME)
    )


#: manifest fields every layout must carry, with their validators —
#: _load_manifest refuses arbitrary JSON instead of letting a missing
#: or mistyped field surface later as a KeyError in the serving path
_MANIFEST_COMMON = {
    "version": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "n": lambda v: (
        isinstance(v, int) and not isinstance(v, bool) and v >= 0
    ),
    "spec": lambda v: isinstance(v, str) and v != "",
    "scheme": lambda v: isinstance(v, str) and v != "",
}
_MANIFEST_LAYOUT = {
    FORMAT_VERSION: {
        "fanout": lambda v: (
            isinstance(v, int) and not isinstance(v, bool) and v >= 1
        ),
    },
    PACKED_FORMAT_VERSION: {
        "group_size": lambda v: (
            isinstance(v, int) and not isinstance(v, bool) and v >= 1
        ),
    },
    CHECKSUM_FORMAT_VERSION: {
        "group_size": lambda v: (
            isinstance(v, int) and not isinstance(v, bool) and v >= 1
        ),
        "checksums": lambda v: v is True,
        "replicas": lambda v: (
            isinstance(v, int) and not isinstance(v, bool) and v >= 1
        ),
    },
}


def _validate_manifest(manifest: Any, path: str) -> Dict[str, Any]:
    """Refuse manifests that are not what :func:`write_shard_records`
    writes, with the precise field named — a manifest is operator-edited
    JSON, and a typo'd ``n`` or ``group_size`` must fail at open, not as
    a wrong-shaped lookup mid-route."""
    if not isinstance(manifest, dict):
        raise ValueError(
            f"shard manifest of {path!r} is not a JSON object "
            f"(got {type(manifest).__name__})"
        )
    if manifest.get("format") != FORMAT:
        raise ValueError(
            f"not a shard manifest (format={manifest.get('format')!r})"
        )
    checks = dict(_MANIFEST_COMMON)
    version = manifest.get("version")
    if version in _MANIFEST_LAYOUT:
        checks.update(_MANIFEST_LAYOUT[version])
    for field, ok in checks.items():
        if field not in manifest:
            raise ValueError(
                f"shard manifest of {path!r} is missing required "
                f"field {field!r} (layout version {version!r})"
            )
        if not ok(manifest[field]):
            raise ValueError(
                f"shard manifest of {path!r} has invalid "
                f"{field}={manifest[field]!r}"
            )
    return manifest


def _load_manifest(path: str) -> Dict[str, Any]:
    manifest_path = os.path.join(path, MANIFEST_NAME)
    try:
        with open(manifest_path) as fh:
            manifest = json.load(fh)
    except FileNotFoundError:
        # ShardUnavailableError multiple-inherits FileNotFoundError, so
        # callers keyed on the legacy type keep working.
        raise ShardUnavailableError(
            f"{path!r} is not a shard directory (no {MANIFEST_NAME})"
        ) from None
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"shard manifest of {path!r} is not valid JSON: {exc}"
        ) from None
    return _validate_manifest(manifest, path)


class _ShardStoreBase:
    """Shared store machinery: LRU residency, serve counters, decoding.

    Subclasses implement one method — ``_read_shard(v)`` returning the
    raw shard bytes (or a zero-copy view of them) — and everything else
    (decode, owner check, LRU, statistics) is identical across layouts,
    which is what makes the packed-vs-per-file equivalence tests
    meaningful: the counters count the same events.
    """

    #: subclass-provided layout tag for stats()/repr
    layout = "?"

    def __init__(
        self, path: str, manifest: Dict[str, Any],
        max_resident: Optional[int],
        io: Optional[DirectIO] = None,
        retry_budget: int = DEFAULT_RETRY_BUDGET,
        backoff_s: float = DEFAULT_BACKOFF_S,
    ) -> None:
        self.path = path
        self.manifest = manifest
        self.n = int(manifest["n"])
        self.max_resident = max_resident
        self._io = io if io is not None else DirectIO()
        #: transient-IO retry policy: an EIO read is retried up to
        #: ``retry_budget`` times with exponential backoff before the
        #: error escapes (or, in the replicated store, fails over)
        self.retry_budget = retry_budget
        self.backoff_s = backoff_s
        self._resident: "OrderedDict[int, NodeTable]" = OrderedDict()
        #: serve statistics
        self.loads = 0
        self.hits = 0
        self.bytes_read = 0
        #: fault-tolerance counters (every layout reports them; only
        #: the checksummed/replicated paths can move most of them)
        self.retries = 0
        self.checksum_failures = 0
        self.failovers = 0
        self.repairs = 0

    def _with_retries(self, op: Callable[[], Any], describe: str) -> Any:
        """Run ``op()`` retrying transient IO errors (EIO/EAGAIN).

        A NAS hiccup or an injected transient fault is not corruption:
        it is retried up to ``retry_budget`` times with exponential
        backoff, counted in ``retries``.  Anything else (missing file,
        checksum mismatch) propagates immediately — retrying those
        wastes the budget and delays failover.
        """
        attempt = 0
        while True:
            try:
                return op()
            except OSError as exc:
                if isinstance(exc, FileNotFoundError) or exc.errno not in (
                    errno.EIO, errno.EAGAIN,
                ):
                    raise
                if attempt >= self.retry_budget:
                    raise
                self.retries += 1
                if self.backoff_s:
                    time.sleep(self.backoff_s * (2 ** attempt))
                attempt += 1

    # -- layout hooks --------------------------------------------------
    def _read_shard(self, v: int) -> Union[bytes, memoryview]:
        raise NotImplementedError

    def _diagnose(self, v: int) -> None:
        """Layout-specific deep check when a shard fails to decode.

        Called before re-raising a decode/owner error so a layout can
        replace a vague symptom with the precise cause (the packed
        store runs the full index validation here).  Default: no-op.
        """

    # ------------------------------------------------------------------
    def node(self, v: int) -> NodeTable:
        """Vertex ``v``'s record, loaded from its shard on first touch."""
        record = self._resident.get(v)
        if record is not None:
            self._resident.move_to_end(v)
            self.hits += 1
            return record
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} outside 0..{self.n - 1}")
        blob = self._read_shard(v)
        try:
            # Native-scanner dispatch (kernel-mode gated); identical
            # results and errors to the pure decoder in every mode.
            record = decode_node_table_fast(blob)
        except ShardCodecError:
            self._diagnose(v)
            raise
        if record.owner != v:
            self._diagnose(v)
            raise ValueError(
                f"shard of vertex {v} holds vertex {record.owner}"
            )
        self.loads += 1
        self.bytes_read += len(blob)
        self._resident[v] = record
        if (
            self.max_resident is not None
            and len(self._resident) > self.max_resident
        ):
            self._resident.popitem(last=False)
        return record

    def iter_nodes(self) -> Iterator[NodeTable]:
        """Every record in vertex order (a full scan — stats/export only)."""
        for v in range(self.n):
            yield self.node(v)

    def stats(self) -> Dict[str, Any]:
        """Serve counters: shard loads, cache hits, bytes read, residency,
        and the fault-tolerance counters (retries, checksum failures,
        failovers, repairs)."""
        return {
            "n": self.n,
            "layout": self.layout,
            "loads": self.loads,
            "hits": self.hits,
            "bytes_read": self.bytes_read,
            "resident": len(self._resident),
            "max_resident": self.max_resident,
            "retries": self.retries,
            "checksum_failures": self.checksum_failures,
            "failovers": self.failovers,
            "repairs": self.repairs,
        }

    def health(self) -> Dict[str, Any]:
        """One-look serving-health summary.

        ``status`` is ``"ok"`` until the store has observed (and
        survived) a fault — retried IO, a checksum failure, a failover —
        then ``"degraded"``; a store that cannot serve raises instead of
        reporting.  Subclasses extend this with layout detail (the
        replicated store adds its quarantine list).
        """
        degraded = bool(
            self.retries or self.checksum_failures or self.failovers
        )
        return {
            "status": "degraded" if degraded else "ok",
            "layout": self.layout,
            "n": self.n,
            "retries": self.retries,
            "checksum_failures": self.checksum_failures,
            "failovers": self.failovers,
            "repairs": self.repairs,
        }

    def close(self) -> None:
        """Release every IO resource (the store is unusable afterwards)."""
        self._io.close()

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({self.path!r}, n={self.n}, "
            f"loads={self.loads}, hits={self.hits})"
        )


class ShardStore(_ShardStoreBase):
    """Layout-v1 store: one file per vertex, opened lazily.

    Parameters
    ----------
    path:
        Directory :func:`write_shards` produced (``packed=False``).
    max_resident:
        Optional LRU bound on decoded shards kept in memory — the
        serving-node memory budget.  ``None`` keeps everything touched.
    """

    layout = "files"

    def __init__(
        self,
        path: str,
        *,
        max_resident: Optional[int] = None,
        manifest: Optional[Dict[str, Any]] = None,
        io: Optional[DirectIO] = None,
        retry_budget: int = DEFAULT_RETRY_BUDGET,
        backoff_s: float = DEFAULT_BACKOFF_S,
    ) -> None:
        # ``manifest`` lets open_store hand over the parse it already
        # did — cold-open reads the file once, not per-dispatch-step.
        if manifest is None:
            manifest = _load_manifest(path)
        if manifest.get("version") != FORMAT_VERSION:
            raise ValueError(
                f"unsupported shard layout version "
                f"{manifest.get('version')!r} (per-file store reads "
                f"version {FORMAT_VERSION}; use open_store for dispatch)"
            )
        super().__init__(
            path, manifest, max_resident, io, retry_budget, backoff_s
        )
        self.fanout = int(manifest.get("fanout", DEFAULT_FANOUT))

    def shard_path(self, v: int) -> str:
        return shard_path(self.path, v, self.fanout)

    def _read_shard(self, v: int) -> bytes:
        target = self.shard_path(v)
        try:
            return self._with_retries(
                lambda: self._io.read_bytes(target), target
            )
        except FileNotFoundError:
            raise ShardUnavailableError(
                f"shard of vertex {v} is missing ({target}); a "
                f"local-knowledge route only touches visited vertices — "
                f"this one was needed"
            ) from None


class PackedShardStore(_ShardStoreBase):
    """Layout-v2/v3 store: ``mmap``-ed group files, zero-copy decode.

    Each ``groups/<g>.pack`` file is mapped once on first touch with its
    header validated (magic, version, index-fits-in-file — and, for the
    checksummed v3 layout, the index CRC32, so a lying index is caught
    before the first binary search trusts it); serving vertex ``v`` then
    binary-searches the mapped index and decodes the record straight
    from a ``memoryview`` slice of the map — no per-vertex
    ``open()``/``read()`` syscalls and no intermediate ``bytes`` copy on
    the hot path.  On v3 the payload's CRC32 is verified *before* the
    decoder touches the bytes, so a flipped bit in a stored weight —
    which would decode to a structurally valid but wrong table — raises
    :class:`ShardIntegrityError` instead.  The full O(count) structural
    index validation (:func:`repro.routing.shard_codec.check_pack`) is
    deferred off the hot path: it runs on the first anomaly — a lookup
    miss, a decode failure, an owner mismatch — so corruption still
    fails loudly with the codec's precise error, and eagerly (including
    every payload checksum) via :meth:`verify`.

    ``group_paths`` restricts the store to an explicit
    ``{group: pack path}`` assignment: only those groups are servable
    (any other raises :class:`ShardUnavailableError` — the precise
    failure a cluster worker must report when handed a vertex it does
    not own) and each group's pack is read from the given path rather
    than the default ``groups/<g>.pack``.  This is how a cluster worker
    (:mod:`repro.cluster.worker`) serves its owned slice of a
    replicated (v3) layout — each owned group mapped from one specific
    ``replica/<r>/groups/<g>.pack`` — which is also why the
    replicated-manifest refusal is lifted when an assignment is given:
    the placement, not this store, decides which copy serves.
    """

    layout = "packed"

    def __init__(
        self,
        path: str,
        *,
        max_resident: Optional[int] = None,
        manifest: Optional[Dict[str, Any]] = None,
        io: Optional[DirectIO] = None,
        retry_budget: int = DEFAULT_RETRY_BUDGET,
        backoff_s: float = DEFAULT_BACKOFF_S,
        group_paths: Optional[Dict[int, str]] = None,
    ) -> None:
        if manifest is None:
            manifest = _load_manifest(path)
        version = manifest.get("version")
        if (
            version not in (PACKED_FORMAT_VERSION, CHECKSUM_FORMAT_VERSION)
            or manifest.get("layout") != "packed"
        ):
            raise ValueError(
                f"unsupported shard layout version {version!r}/"
                f"{manifest.get('layout')!r} (packed store reads "
                f"versions {PACKED_FORMAT_VERSION} and "
                f"{CHECKSUM_FORMAT_VERSION}, layout 'packed')"
            )
        if int(manifest.get("replicas", 1)) > 1 and group_paths is None:
            raise ValueError(
                f"shard directory {path!r} is replicated "
                f"(replicas={manifest['replicas']}); use "
                f"ReplicatedShardStore or open_store"
            )
        super().__init__(
            path, manifest, max_resident, io, retry_budget, backoff_s
        )
        self.group_size = int(manifest["group_size"])
        self.checksums = bool(manifest.get("checksums", False))
        self._maps: Dict[int, memoryview] = {}
        self._group_paths = (
            None if group_paths is None else dict(group_paths)
        )

    def group_path(self, g: int) -> str:
        if self._group_paths is not None:
            target = self._group_paths.get(g)
            if target is None:
                raise ShardUnavailableError(
                    f"group {g} is not in this store's assignment "
                    f"({len(self._group_paths)} owned groups under "
                    f"{self.path!r}) — route the lookup to the group's "
                    f"owner"
                )
            return target
        return group_path(self.path, g)

    def owns(self, v: int) -> bool:
        """Whether vertex ``v``'s shard is servable from this store."""
        if not 0 <= v < self.n:
            return False
        if self._group_paths is None:
            return True
        return self.group_of(v) in self._group_paths

    def owned_groups(self) -> Optional[Tuple[int, ...]]:
        """Sorted assignment groups, or ``None`` when unrestricted."""
        if self._group_paths is None:
            return None
        return tuple(sorted(self._group_paths))

    def group_of(self, v: int) -> int:
        return v // self.group_size

    @property
    def groups_mapped(self) -> int:
        return len(self._maps)

    def _map_group_file(
        self, target: str, g: int, *, sequential: bool = False
    ) -> memoryview:
        try:
            view = self._with_retries(
                lambda: self._io.map_group(target, sequential=sequential),
                target,
            )
        except FileNotFoundError:
            raise ShardUnavailableError(
                f"group {g} of the packed layout is missing "
                f"({target}); a local-knowledge route only touches "
                f"visited vertices' groups — this one was needed"
            ) from None
        # Header validation per mapping (plus the index CRC on v3)
        # keeps cold lookups syscall-light; the O(count) structural
        # index check runs on demand (_diagnose / verify) and every
        # corruption it would catch still surfaces through a failed
        # lookup, checksum, decode or owner check first.
        parse_pack_header(view)
        return view

    def _group_view(self, g: int, *, sequential: bool = False) -> memoryview:
        view = self._maps.get(g)
        if view is None:
            view = self._map_group_file(
                self.group_path(g), g, sequential=sequential
            )
            self._maps[g] = view
        return view

    def _quarantine_mapping(self, g: int) -> None:
        """Drop group ``g``'s mapping so the next access re-maps the
        file — a repaired/replaced pack must not be shadowed by a map
        of its corrupt predecessor."""
        self._maps.pop(g, None)

    def _read_shard(self, v: int) -> memoryview:
        g = self.group_of(v)
        view = self._group_view(g)
        found = find_pack_entry(view, v)
        if found is None:
            # The manifest covers v and write_shard_records packs every
            # record of a group into its file — an in-range miss means
            # the index lied (or the pack is incomplete), never that
            # deleting the file would help.  Quarantine the mapping and
            # raise the *integrity* error, not FileNotFoundError: the
            # structural check may name the corruption precisely.
            try:
                check_pack(view)
            except ShardCodecError as exc:
                self._quarantine_mapping(g)
                raise ShardIntegrityError(
                    f"index of group {g} is corrupt "
                    f"({self.group_path(g)}): {exc}"
                ) from exc
            self._quarantine_mapping(g)
            raise ShardIntegrityError(
                f"index of group {g} ({self.group_path(g)}) has no "
                f"entry for vertex {v}, which the manifest covers — "
                f"the index is corrupt or the pack is incomplete; the "
                f"mapping is quarantined (do NOT delete the pack: the "
                f"other entries may be intact)"
            )
        offset, length, crc = found
        if crc is not None:
            if zlib.crc32(view[offset:offset + length]) != crc:
                self.checksum_failures += 1
                self._quarantine_mapping(g)
                raise ShardIntegrityError(
                    f"payload of vertex {v} in group {g} fails its "
                    f"CRC32 ({self.group_path(g)}) — refusing to "
                    f"decode corrupted bytes"
                )
        return view[offset:offset + length]

    def _diagnose(self, v: int) -> None:
        # A shard that fails to decode (or holds the wrong owner) from
        # an mmap slice means the group's index lied about its bounds —
        # replace the symptom with check_pack's precise diagnosis.
        check_pack(self._group_view(self.group_of(v)))

    def group_count(self) -> int:
        return (self.n + self.group_size - 1) // self.group_size

    def _sweep_groups(self) -> List[int]:
        """Groups a verify sweep covers: the assignment when restricted,
        every group of the layout otherwise."""
        if self._group_paths is not None:
            return sorted(self._group_paths)
        return list(range(self.group_count()))

    def verify(self) -> int:
        """Eagerly validate every group — full index check plus every
        payload checksum (v3) or structural decode (v2); returns the
        number of groups checked.  Offline tooling / release checks —
        serving itself validates lazily.  Sweep mappings are made with
        sequential readahead advice (the scan touches every byte once)."""
        groups = self._sweep_groups()
        for g in groups:
            verify_pack(self._group_view(g, sequential=True))
        return len(groups)

    def verify_report(self) -> Dict[str, str]:
        """Non-raising :meth:`verify`: per-group ``"ok"`` or the error.

        The ``shard --verify`` sweep prints this — operators want the
        whole corruption picture, not the first bad group.
        """
        report: Dict[str, str] = {}
        for g in self._sweep_groups():
            name = f"group {g:04x}"
            try:
                verify_pack(self._group_view(g, sequential=True))
                report[name] = "ok"
            except (ShardCodecError, OSError) as exc:
                self._quarantine_mapping(g)
                report[name] = f"{type(exc).__name__}: {exc}"
        return report

    def stats(self) -> Dict[str, Any]:
        out = super().stats()
        out["groups_mapped"] = self.groups_mapped
        out["group_size"] = self.group_size
        out["checksums"] = self.checksums
        return out

    def close(self) -> None:
        """Release every mapping (the store is unusable afterwards)."""
        self._maps = {}
        self._io.close()


class ReplicatedShardStore(_ShardStoreBase):
    """Layout-v3 store over R replica roots with checksum-driven failover.

    Every group exists as ``replica/<r>/groups/<g>.pack`` for each
    replica ``r``; the store maps one replica per group and, because v3
    packs are fully checksummed, runs :func:`verify_pack` over the whole
    group *at map time* — so a corrupt or truncated replica is rejected
    before a single entry is served from it, and the store fails over to
    the next replica.  A replica that fails (missing file, short map,
    checksum mismatch, persistent I/O error) is **quarantined** for that
    group: subsequent maps skip it until :meth:`repair` rewrites it from
    a healthy copy.  Transient I/O errors (EIO/EAGAIN) are retried with
    backoff before counting as a replica failure.  If every replica of a
    group is bad, :class:`ReplicaExhaustedError` reports each replica's
    individual cause — the operator's starting point for manual
    recovery.

    Full-group verification at map time costs O(group) once per mapped
    group (amortised to nothing over a warm serving run) and buys a hard
    guarantee the chaos suite asserts: no corrupted table is ever
    silently decoded, and every injected corruption produces exactly one
    observable failover.
    """

    layout = "packed"

    def __init__(
        self,
        path: str,
        *,
        max_resident: Optional[int] = None,
        manifest: Optional[Dict[str, Any]] = None,
        io: Optional[DirectIO] = None,
        retry_budget: int = DEFAULT_RETRY_BUDGET,
        backoff_s: float = DEFAULT_BACKOFF_S,
    ) -> None:
        if manifest is None:
            manifest = _load_manifest(path)
        if (
            manifest.get("version") != CHECKSUM_FORMAT_VERSION
            or manifest.get("layout") != "packed"
            or int(manifest.get("replicas", 1)) < 2
        ):
            raise ValueError(
                f"unsupported shard layout "
                f"version={manifest.get('version')!r} "
                f"layout={manifest.get('layout')!r} "
                f"replicas={manifest.get('replicas')!r} (replicated "
                f"store needs version {CHECKSUM_FORMAT_VERSION}, "
                f"layout 'packed', replicas >= 2)"
            )
        super().__init__(
            path, manifest, max_resident, io, retry_budget, backoff_s
        )
        self.group_size = int(manifest["group_size"])
        self.checksums = True
        self.replicas = int(manifest["replicas"])
        self._maps: Dict[int, memoryview] = {}
        self._map_replica: Dict[int, int] = {}
        # group -> set of quarantined replica indices
        self._quarantined: Dict[int, set] = {}

    # -- paths ---------------------------------------------------------
    def group_path(self, g: int, r: int = 0) -> str:
        return group_path(replica_root(self.path, r), g)

    def group_of(self, v: int) -> int:
        return v // self.group_size

    def group_count(self) -> int:
        return (self.n + self.group_size - 1) // self.group_size

    @property
    def groups_mapped(self) -> int:
        return len(self._maps)

    def quarantined(self) -> Dict[int, Tuple[int, ...]]:
        """``{group: (replica, ...)}`` of currently quarantined copies."""
        return {
            g: tuple(sorted(rs))
            for g, rs in self._quarantined.items()
            if rs
        }

    # -- failover core -------------------------------------------------
    def _replica_unavailable(
        self, g: int, r: int, target: str
    ) -> ShardUnavailableError:
        """Typed translation of a missing replica file.

        Names the replica (the operator's unit of repair) and detects
        the partially-written case — a ``replica/<r>`` directory whose
        ``groups/`` subdir never landed (an interrupted ``write_shards``
        or a botched copy) — instead of letting a raw
        ``FileNotFoundError`` cross the store (or, one layer up, the
        cluster RPC) boundary untyped.
        """
        groups_dir = os.path.join(replica_root(self.path, r), "groups")
        if not os.path.isdir(groups_dir):
            return ShardUnavailableError(
                f"replica {r} of {self.path!r} is partially written: "
                f"its groups/ directory is missing ({groups_dir}) — "
                f"the replica never finished landing; repair() can "
                f"rewrite it from a healthy replica"
            )
        return ShardUnavailableError(
            f"replica {r} of group {g} is missing ({target})"
        )

    def _map_verified(
        self, g: int, r: int, *, sequential: bool = False
    ) -> memoryview:
        """Map replica ``r`` of group ``g`` and verify it end to end."""
        target = self.group_path(g, r)
        try:
            view = self._with_retries(
                lambda: self._io.map_group(target, sequential=sequential),
                target,
            )
        except FileNotFoundError as exc:
            raise self._replica_unavailable(g, r, target) from exc
        try:
            verify_pack(view)
        except ShardCodecError:
            view.release()
            raise
        return view

    def _group_view(self, g: int) -> memoryview:
        view = self._maps.get(g)
        if view is not None:
            return view
        bad = self._quarantined.setdefault(g, set())
        causes: Dict[int, Exception] = {}
        for r in range(self.replicas):
            if r in bad:
                causes[r] = ReplicaExhaustedError(
                    "quarantined earlier this session", {}
                )
                continue
            try:
                view = self._map_verified(g, r)
            except (OSError, ShardCodecError) as exc:
                # strip the traceback before keeping the exception: its
                # frames hold memoryview slices of the just-released
                # map in a reference cycle, which would keep the mmap
                # un-closeable until a gc pass
                causes[r] = exc.with_traceback(None)
                bad.add(r)
                if isinstance(exc, ChecksumError):
                    self.checksum_failures += 1
                self.failovers += 1
                continue
            self._maps[g] = view
            self._map_replica[g] = r
            return view
        raise ReplicaExhaustedError(
            f"every replica of group {g} is unavailable or corrupt "
            f"(root {self.path})",
            causes,
        )

    def _quarantine_mapping(self, g: int) -> None:
        """Quarantine the *currently mapped* replica of group ``g`` and
        drop the mapping, so the next access fails over."""
        view = self._maps.pop(g, None)
        if view is not None:
            view.release()
        r = self._map_replica.pop(g, None)
        if r is not None:
            self._quarantined.setdefault(g, set()).add(r)

    def _read_shard(self, v: int) -> memoryview:
        g = self.group_of(v)
        view = self._group_view(g)
        found = find_pack_entry(view, v)
        if found is None:
            # The mapped replica passed verify_pack, so its index is
            # structurally sound and checksummed — a miss for an
            # in-range vertex means this replica's pack is incomplete.
            # Quarantine it and fail over.
            self._quarantine_mapping(g)
            self.failovers += 1
            view = self._group_view(g)
            found = find_pack_entry(view, v)
            if found is None:
                self._quarantine_mapping(g)
                raise ShardIntegrityError(
                    f"no replica of group {g} holds vertex {v}, which "
                    f"the manifest covers — the packs are incomplete"
                )
        offset, length, crc = found
        if crc is not None and zlib.crc32(
            view[offset:offset + length]
        ) != crc:
            # verify_pack passed at map time, so the bytes rotted
            # *after* mapping (or the medium is flaky) — quarantine
            # and fail over once.
            self.checksum_failures += 1
            self._quarantine_mapping(g)
            self.failovers += 1
            return self._read_shard(v)
        return view[offset:offset + length]

    def _diagnose(self, v: int) -> None:
        check_pack(self._group_view(self.group_of(v)))

    # -- sweeps --------------------------------------------------------
    def _map_for_sweep(self, g: int, r: int) -> memoryview:
        """Map one replica copy for a verify sweep: sequential readahead
        (the sweep scans every byte once), missing files translated to
        the typed :class:`ShardUnavailableError` naming the replica."""
        target = self.group_path(g, r)
        try:
            return self._io.map_group(target, sequential=True)
        except FileNotFoundError as exc:
            raise self._replica_unavailable(g, r, target) from exc

    def verify(self) -> int:
        """Validate every replica of every group; returns the number of
        groups checked.  Raises on the first corrupt copy — use
        :meth:`verify_report` for the full picture."""
        groups = self.group_count()
        for g in range(groups):
            for r in range(self.replicas):
                verify_pack(self._map_for_sweep(g, r))
        return groups

    def verify_report(self) -> Dict[str, str]:
        """Per-``(group, replica)`` map of ``"ok"`` or the error."""
        report: Dict[str, str] = {}
        for g in range(self.group_count()):
            for r in range(self.replicas):
                name = f"group {g:04x} replica {r}"
                try:
                    verify_pack(self._map_for_sweep(g, r))
                    report[name] = "ok"
                except (ShardCodecError, OSError) as exc:
                    report[name] = f"{type(exc).__name__}: {exc}"
        return report

    def repair(self) -> Dict[str, int]:
        """Rewrite every bad replica copy from a healthy one.

        Sweeps all ``(group, replica)`` pairs on the real filesystem
        (deliberately *not* through the store's I/O seam — repair is an
        administrative operation, and running it through a fault
        injector would let the chaos schedule corrupt the repair
        itself), rewriting any copy that is missing or fails
        :func:`verify_pack` from the first healthy copy of the same
        group, via tmp + ``os.replace`` so a crash mid-repair never
        leaves a torn pack.  Quarantined replicas that turn out healthy
        on disk (e.g. a transient error burned their budget) are simply
        requalified.  Returns counters; raises
        :class:`ReplicaExhaustedError` if some group has no healthy
        copy at all.
        """
        repaired = 0
        requalified = 0
        admin = DirectIO()
        try:
            for g in range(self.group_count()):
                healthy: Optional[int] = None
                bad: List[int] = []
                causes: Dict[int, Exception] = {}
                for r in range(self.replicas):
                    try:
                        try:
                            blob = admin.read_bytes(self.group_path(g, r))
                        except FileNotFoundError as exc:
                            # typed, replica-named cause — a partially
                            # written replica (missing groups/ subdir)
                            # says so, instead of a raw OSError
                            raise self._replica_unavailable(
                                g, r, self.group_path(g, r)
                            ) from exc
                        verify_pack(blob)
                    except (OSError, ShardCodecError) as exc:
                        bad.append(r)
                        causes[r] = exc.with_traceback(None)
                    else:
                        if healthy is None:
                            healthy = r
                if healthy is None:
                    raise ReplicaExhaustedError(
                        f"group {g} has no healthy replica to repair "
                        f"from (root {self.path})",
                        causes,
                    )
                if bad:
                    blob = admin.read_bytes(self.group_path(g, healthy))
                    for r in bad:
                        target = self.group_path(g, r)
                        os.makedirs(
                            os.path.dirname(target), exist_ok=True
                        )
                        with _atomic_file(target) as fh:
                            fh.write(blob)
                        repaired += 1
                        self.repairs += 1
                # every copy of g is now healthy on disk: lift the
                # quarantine and drop any mapping of a replaced file
                quarantined = self._quarantined.pop(g, set())
                requalified += len(quarantined - set(bad))
                if g in self._maps and self._map_replica.get(g) in bad:
                    view = self._maps.pop(g)
                    view.release()
                    self._map_replica.pop(g, None)
        finally:
            admin.close()
        return {"repaired": repaired, "requalified": requalified}

    def stats(self) -> Dict[str, Any]:
        out = super().stats()
        out["groups_mapped"] = self.groups_mapped
        out["group_size"] = self.group_size
        out["checksums"] = True
        out["replicas"] = self.replicas
        out["quarantined"] = sum(
            len(rs) for rs in self._quarantined.values()
        )
        return out

    def health(self) -> Dict[str, Any]:
        out = super().health()
        quarantined = sum(len(rs) for rs in self._quarantined.values())
        out["quarantined"] = quarantined
        if quarantined:
            out["status"] = "degraded"
        return out

    def close(self) -> None:
        self._maps = {}
        self._map_replica = {}
        self._io.close()


def open_store(
    path: str,
    *,
    max_resident: Optional[int] = None,
    io: Optional[DirectIO] = None,
    retry_budget: int = DEFAULT_RETRY_BUDGET,
    backoff_s: float = DEFAULT_BACKOFF_S,
) -> _ShardStoreBase:
    """Open a shard directory with the store matching its manifest.

    Layout dispatch lives here (and only here): per-file v1 manifests
    get a :class:`ShardStore`, packed v2 and single-copy v3 manifests a
    :class:`PackedShardStore`, replicated v3 manifests a
    :class:`ReplicatedShardStore`; anything else fails loudly instead
    of being misread by the wrong backend.
    """
    manifest = _load_manifest(path)
    version = manifest.get("version")
    if version == FORMAT_VERSION:
        return ShardStore(
            path,
            max_resident=max_resident,
            manifest=manifest,
            io=io,
            retry_budget=retry_budget,
            backoff_s=backoff_s,
        )
    if version in (PACKED_FORMAT_VERSION, CHECKSUM_FORMAT_VERSION):
        cls = (
            ReplicatedShardStore
            if int(manifest.get("replicas", 1)) > 1
            else PackedShardStore
        )
        return cls(
            path,
            max_resident=max_resident,
            manifest=manifest,
            io=io,
            retry_budget=retry_budget,
            backoff_s=backoff_s,
        )
    raise ValueError(f"unsupported shard layout version {version!r}")


def verify_shard_dir(path: str) -> Dict[str, str]:
    """Offline integrity sweep of a shard directory, any layout.

    Returns a ``{unit: "ok" | "<Error>: <detail>"}`` report — per group
    for packed layouts (per group *and replica* when replicated), per
    shard file for the v1 per-file layout.  Never raises on corruption
    (only on an unreadable/invalid manifest): operators want the whole
    picture in one sweep.
    """
    manifest = _load_manifest(path)
    if manifest.get("version") == FORMAT_VERSION:
        report: Dict[str, str] = {}
        store = ShardStore(path, manifest=manifest)
        try:
            for v in range(store.n):
                try:
                    store.node(v)
                except (ShardCodecError, OSError) as exc:
                    report[f"shard {v}"] = f"{type(exc).__name__}: {exc}"
                else:
                    report[f"shard {v}"] = "ok"
        finally:
            store.close()
        return report
    store = open_store(path)
    try:
        return store.verify_report()
    finally:
        store.close()


def _contains_bool(header: Any) -> bool:
    """Whether a (nested-tuple) header carries a bool leaf anywhere.

    The bool-free header contract's checker: ``LocalRouter._wire_len``
    runs it on value-cache misses, and the serving conformance tests
    run it on every header every registered scheme forwards.
    """
    if isinstance(header, bool):
        return True
    if isinstance(header, tuple):
        return any(_contains_bool(item) for item in header)
    return False


# ----------------------------------------------------------------------
# Shard-backed views handed to SchemeBase.restore_serving
# ----------------------------------------------------------------------
class _ShardPorts:
    """Footnote-2 port translation answered from the local shard only."""

    def __init__(self, store: _ShardStoreBase) -> None:
        self._store = store

    def port_to(self, u: int, v: int) -> int:
        return self._store.node(u).port_to(v)

    def neighbor(self, u: int, port: int) -> int:
        return self._store.node(u).neighbor(port)

    def degree(self, u: int) -> int:
        return self._store.node(u).degree()


class _ShardTables:
    """``tables[v]`` view resolving to the shard's :class:`SizedTable`."""

    def __init__(self, store: _ShardStoreBase) -> None:
        self._store = store
        self._sized: Dict[int, Any] = {}

    def __getitem__(self, v: int) -> Any:
        table = self._sized.get(v)
        if table is None:
            table = self._store.node(v).sized_table()
            self._sized[v] = table
            if (
                self._store.max_resident is not None
                and len(self._sized) > self._store.max_resident
            ):
                self._sized.clear()  # cheap reset; rebuilt from residents
        return table


class _ShardLabels:
    """``labels[v]`` view resolving to the shard's label."""

    def __init__(self, store: _ShardStoreBase) -> None:
        self._store = store

    def __getitem__(self, v: int) -> Any:
        return self._store.node(v).label


class LocalRouter:
    """The serving engine: step decisions from the current shard alone.

    Implements the simulator's engine protocol — ``step``, ``label_of``,
    ``local_edge`` and ``n`` — so :func:`repro.routing.simulator.route`
    executes a message with *zero* global knowledge: each decision reads
    vertex ``u``'s shard, and the move across the returned port reads the
    same shard's neighbour list.  The inner stepper is the real scheme
    class (resolved from the registry via the manifest), rebuilt step-only
    via ``SchemeBase.restore_serving`` — so decisions are byte-identical
    to the monolithic in-memory scheme, which the serving tests assert
    hop by hop for every registered scheme.

    Every forwarded header crosses the wire codec
    (:mod:`repro.routing.header_codec`): the first time a header value is
    forwarded it is encoded, decoded back, and checked for exact
    round-trip — a header shape the codec cannot carry fails at serve
    time, not in a hypothetical future deployment — and its wire length
    is cached by value, so the per-hop cost of accounting the true
    header bytes (``header_stats()``, surfaced through
    ``RoutingSession.serve_stats()``) is one dict probe.  The verified
    round-trip is what makes forwarding the in-memory header equivalent
    to forwarding the wire bytes, which keeps warm shard throughput
    within the ~10%-of-in-memory budget the serving benchmark gates.
    """

    def __init__(self, store: _ShardStoreBase) -> None:
        # Resolved lazily to keep repro.routing import-independent from
        # repro.api (which imports the schemes, which import routing).
        from ..api.registry import get_spec

        self.store = store
        manifest = store.manifest
        spec = get_spec(manifest["spec"])
        if spec.factory.__name__ != manifest["scheme"]:
            raise ValueError(
                f"shards were compiled by {manifest['scheme']}, spec "
                f"{manifest['spec']!r} maps to {spec.factory.__name__}"
            )
        self.spec_name = manifest["spec"]
        self.scheme_class_name = manifest["scheme"]
        self.n = store.n
        self._stepper = spec.factory.restore_serving(
            ports=_ShardPorts(store),
            tables=_ShardTables(store),
            labels=_ShardLabels(store),
            params=manifest.get("routing_params") or {},
            name=manifest.get("name"),
        )
        self.name = self._stepper.name
        self._graph: Optional[Graph] = None
        self._ports: Optional[Any] = None
        #: wire-header accounting (headers forwarded, total/max bytes)
        self.headers_encoded = 0
        self.header_bytes = 0
        self.max_header_bytes = 0
        #: header value -> verified wire length (bounded; see _wire_len)
        self._wire_cache: Dict[Any, int] = {}

    def _wire_len(self, header: Any) -> int:
        """Wire byte length of ``header``, round-trip-verified once.

        A cache miss pays the full ``decode(encode(h)) == h`` check;
        hits (the overwhelming majority — tree-phase headers repeat
        unchanged hop after hop, technique headers recur by value
        across routes) cost one dict probe.

        Contract: headers must be bool-free (use 0/1 ints).  Python
        equality conflates ``True``/``1`` — whose wire encodings differ
        — so a bool-leafed header that happened to equal a cached int
        shape would be misaccounted by its twin's length; a per-lookup
        deep check would cost more than the encode it avoids (measured:
        warm shard throughput drops from ~0.9x of in-memory to ~0.7x),
        so the contract is enforced where it is free — the miss path
        below refuses bool leaves outright, and the serving conformance
        tests assert bool-freedom for every header every registered
        scheme forwards, hop by hop.
        """
        length = self._wire_cache.get(header)
        if length is None:
            if _contains_bool(header):
                raise WireContractError(
                    f"header {header!r} carries a bool leaf; the "
                    f"serving engine's wire-length cache cannot tell "
                    f"True/False from 1/0 (Python value equality) — "
                    f"encode the flag as an int instead"
                )
            wire = header_codec.encode(header)
            if header_codec.decode(wire) != header:
                raise WireContractError(
                    f"header {header!r} does not survive the wire codec"
                )
            length = len(wire)
            if len(self._wire_cache) >= 65536:
                self._wire_cache.clear()
            self._wire_cache[header] = length
        return length

    # -- engine protocol -----------------------------------------------
    def step(self, u: int, header: Any, dest_label: Any) -> RouteAction:
        action = self._stepper.step(u, header, dest_label)
        if isinstance(action, Forward):
            length = self._wire_len(action.header)
            self.headers_encoded += 1
            self.header_bytes += length
            if length > self.max_header_bytes:
                self.max_header_bytes = length
        return action

    def label_of(self, v: int) -> Any:
        return self.store.node(v).label

    def local_edge(self, u: int, port: int) -> Tuple[int, float]:
        """``(neighbour, weight)`` of ``u``'s link ``port`` — shard-local."""
        return self.store.node(u).edge(port)

    def header_stats(self) -> Dict[str, int]:
        """True wire cost of every header this engine forwarded."""
        return {
            "headers_encoded": self.headers_encoded,
            "header_bytes": self.header_bytes,
            "max_header_bytes": self.max_header_bytes,
        }

    # -- scheme-compatible surface (measurement/accounting) ------------
    def table_of(self, v: int) -> Any:
        return self._stepper.table_of(v)

    def stretch_bound(self) -> Any:
        return self._stepper.stretch_bound()

    def routing_params(self) -> Dict[str, Any]:
        return self._stepper.routing_params()

    @property
    def graph(self) -> Graph:
        """The graph reassembled from every shard's neighbour list.

        Serving never needs this — it exists so a shard-backed session
        can still ``measure``/``validate`` against the exact metric.
        Loads all shards on first use (and says so in the docstring
        rather than pretending to be cheap).
        """
        if self._graph is None:
            adjacency: List[List[Tuple[int, float]]] = [
                [(nb, w) for nb, w in self.store.node(v).neighbors]
                for v in range(self.n)
            ]
            self._graph = Graph.from_adjacency(adjacency)
        return self._graph

    @property
    def ports(self) -> "PortAssignment":
        """The global port numbering reassembled from the shards.

        Like :attr:`graph`, a full-scan convenience for re-export and
        offline inspection — serving resolves ports shard-locally.
        """
        if self._ports is None:
            from .ports import PortAssignment

            order = [
                [nb for nb, _ in self.store.node(v).neighbors]
                for v in range(self.n)
            ]
            self._ports = PortAssignment.from_order(self.graph, order)
        return self._ports

    def compile_tables(self) -> List[NodeTable]:
        """The resident shape itself: every shard's record (full scan)."""
        return list(self.store.iter_nodes())

    def stats(self) -> SchemeStats:
        """Aggregate table/label sizes over all shards (full scan)."""
        records = list(self.store.iter_nodes())
        return aggregate_scheme_stats(
            self.name,
            self.n,
            (r.sized_table() for r in records),
            (r.label for r in records),
        )

    def __repr__(self) -> str:
        return f"LocalRouter({self.name!r}, n={self.n}, {self.store!r})"
