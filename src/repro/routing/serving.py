"""Local-knowledge serving: route on per-vertex shards loaded from disk.

The deployment story of a compact routing scheme (ROADMAP follow-up (b)):
each node holds *its own* ``o(n)``-word table and forwards using that
table plus the packet header — nothing global.  This module makes that
executable:

* :func:`write_shards` — lay a compiled scheme out on disk as checksummed
  packs: every ``group_size`` consecutive vertices' binary shards
  (:mod:`repro.routing.shard_codec`) share one group file behind a
  sorted, CRC32-sealed offset/length/crc index, plus one small
  ``manifest.json`` with the scheme identity, codec version, layout and
  byte/word accounting; ``replicas=R`` writes every group to R replica
  roots,
* :class:`ShardStore` — the lazy shard loader: maps each group file
  once (``mmap``), decodes a record through a zero-copy ``memoryview``
  of the mapped buffer, checks every payload's CRC32 before decoding it,
  keeps an LRU residency bound and the serve statistics (loads, cache
  hits, bytes read, fault counters); with R copies of a group it fails
  over between them,
* :func:`open_store` — the store for a shard directory, configured from
  its manifest (``RoutingSession.load`` goes through it),
* :class:`LocalRouter` — the serving engine: a step-only scheme instance
  (``SchemeBase.restore_serving``) whose table, label and port accesses
  all resolve from the *current vertex's* shard.  It implements the
  simulator's engine protocol (``step``/``label_of``/``local_edge``), so
  :func:`repro.routing.simulator.route` drives it exactly like an
  in-memory scheme — and the local-knowledge tests prove the step
  decisions are identical even when every shard (or group) but the
  visited ones is deleted from disk.  Every forwarded header is sized
  with the value codec the cluster wire ships
  (:func:`repro.routing.shard_codec.encode_value`): each distinct header
  value is round-trip-checked once, then the in-memory header is
  forwarded, and ``serve_stats()`` reports the true header bytes sent.

Layout on disk (manifest version 3)::

    <dir>/manifest.json                      # identity + accounting, JSON
    <dir>/groups/<g>.pack                    # replicas=1: g = v // group_size
    <dir>/replica/<r>/groups/<g>.pack        # replicas=R >= 2, r < R

Earlier releases also wrote one file per vertex (version 1) and packs
without checksums (version 2); this build refuses both with
:class:`RetiredLayoutError`, which names the command that rebuilds the
directory.  Cold-start cost is the point: serving vertex ``v`` reads the
manifest and ``v``'s group index entry and payload — a few hundred bytes
— instead of decoding every vertex's shard, from ``O(n / group_size)``
files instead of ``n`` inodes.
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
)

if TYPE_CHECKING:  # import cycle: ports imports graph helpers
    from .ports import PortAssignment

from ..graph.core import Graph
from .model import RouteAction, Forward, SchemeStats, aggregate_scheme_stats
from .shard_codec import (
    CODEC_VERSION,
    ChecksumError,
    ShardCodecError,
    check_pack,
    decode_node_table_fast,
    decode_value,
    _encode_record,
    encode_pack,
    encode_value,
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
    "RetiredLayoutError",
    "WireContractError",
    "ShardAccountingError",
    "DirectIO",
    "ShardStore",
    "open_store",
    "verify_shard_dir",
    "LocalRouter",
    "write_shards",
    "write_shard_records",
    "group_path",
    "replica_root",
    "pack_paths",
    "partial_replica_error",
    "require_current_layout",
    "is_shard_dir",
]

MANIFEST_NAME = "manifest.json"
FORMAT = "repro.routing.shards"
#: retired layout version 1: one file per vertex under shards/<g>/<v>.shard
FORMAT_VERSION = 1
#: retired layout version 2: packs without checksums under groups/<g>.pack
PACKED_FORMAT_VERSION = 2
#: the layout this build writes and serves: packs whose index and
#: payloads carry CRC32 checksums (pack v2); with ``replicas=R > 1``
#: every group exists on R replica paths under replica/<r>/groups/<g>.pack
CHECKSUM_FORMAT_VERSION = 3
#: shard payloads per packed group file: at n = 10^6 this is ~245 files
#: (vs 10^6 inodes), while one group stays small enough to map lazily
DEFAULT_GROUP_SIZE = 4096
#: transient-IO retry policy defaults (see ShardStore._with_retries)
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


class RetiredLayoutError(ServingError, ValueError):
    """A persisted layout this build no longer serves: a manifest of one
    file per vertex or of packs without checksums, or (from
    :func:`repro.api.load`) a regular file such as a JSON session blob of
    an earlier release.  The message names the command that rebuilds it
    as checksummed packs."""


class WireContractError(ServingError):
    """A header violates the wire codec's contract (bool leaves, an
    unhashable or unencodable value, or a value that does not survive
    an encode/decode round trip)."""


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
    it hands out: :meth:`release` unmaps one, :meth:`close` all of them
    (the ``close()`` discipline the leak tests enforce).
    """

    def __init__(self) -> None:
        self._maps: List[Tuple[memoryview, mmap.mmap]] = []

    def map_group(self, path: str, *, sequential: bool = False) -> memoryview:
        """Map ``path`` read-only; the view stays valid until released.

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
        self._maps.append((view, mapped))
        return view

    def read_bytes(self, path: str) -> bytes:
        with open(path, "rb") as fh:
            return fh.read()

    def release(self, view: memoryview) -> None:
        """Unmap one view :meth:`map_group` handed out.

        Best effort: a map some live sub-view still pins (typically one
        held by an exception traceback) stays owned here and is
        unmapped by :meth:`close` instead.
        """
        for i, (held, mapped) in enumerate(self._maps):
            if held is view:
                try:
                    view.release()
                    mapped.close()
                except BufferError:
                    return
                del self._maps[i]
                return
        try:
            view.release()  # not a map of ours (e.g. a faulted copy)
        except BufferError:
            pass

    def close(self) -> None:
        maps, self._maps = self._maps, []
        for view, _ in maps:
            view.release()
        collected = False
        for _, mapped in maps:
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


def group_path(root: str, g: int) -> str:
    """On-disk path of packed group ``g`` under a layout root."""
    return os.path.join(root, "groups", f"{g:04x}.pack")


def replica_root(root: str, r: int) -> str:
    """Root of replica ``r`` under a replicated layout ``root``."""
    return os.path.join(root, "replica", str(r))


def pack_paths(root: str, g: int, replicas: int) -> List[str]:
    """Every copy of group ``g`` under a layout written with
    ``replicas`` copies: ``groups/<g>.pack`` for one copy,
    ``replica/<r>/groups/<g>.pack`` for each ``r`` otherwise."""
    if replicas == 1:
        return [group_path(root, g)]
    return [group_path(replica_root(root, r), g) for r in range(replicas)]


def partial_replica_error(
    root: str, r: int, groups_dir: str
) -> ShardUnavailableError:
    """The typed error for a replica whose ``groups/`` directory never
    landed (an interrupted ``write_shards`` or a botched copy)."""
    return ShardUnavailableError(
        f"replica {r} of {root!r} is partially written: its groups/ "
        f"directory is missing ({groups_dir}) — the replica never "
        f"finished landing; repair() can rewrite it from a healthy "
        f"replica"
    )


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
    # A previous, larger or differently-replicated layout (or a retired
    # per-file ``shards/`` tree) would leave orphan files the new
    # manifest cannot reach — and the directory's on-disk size would no
    # longer match the manifest's byte accounting.  Start clean.  The
    # old manifest goes FIRST: every reader gates on it, so a write
    # interrupted anywhere after this point leaves an unambiguous "not a
    # shard directory" (the new manifest only appears, atomically, after
    # the last group landed) instead of a stale manifest describing
    # deleted groups.
    manifest = os.path.join(path, MANIFEST_NAME)
    if os.path.isfile(manifest):
        os.remove(manifest)
    for sub in ("shards", "groups", "replica"):
        stale = os.path.join(path, sub)
        if os.path.isdir(stale):
            shutil.rmtree(stale)


def _write_packs(
    path: str,
    blobs: Iterable[Tuple[int, bytes]],
    group_size: int,
    replicas: int,
) -> Dict[str, Any]:
    # Streaming with O(group) residency: a group flushes as soon as a
    # record of a later group arrives, so a 10^6-vertex layout never
    # holds more than one group's payloads.  That requires records in
    # nondecreasing group order — what every producer in this repository
    # emits (compile_tables, iter_nodes and the benches walk vertices in
    # order; within a group, encode_pack sorts).  With ``replicas=R``
    # every encoded group lands on R replica roots (encode once, write
    # R times) — the redundancy ShardStore fails over across.
    roots = (
        [path] if replicas == 1
        else [replica_root(path, r) for r in range(replicas)]
    )
    for root in roots:
        os.makedirs(os.path.join(root, "groups"), exist_ok=True)
    groups_written = 0

    def flush(g: int, entries: List[Tuple[int, bytes]]) -> None:
        nonlocal groups_written
        pack = encode_pack(entries)
        for target in pack_paths(path, g, replicas):
            with _atomic_file(target) as fh:
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
        "version": CHECKSUM_FORMAT_VERSION,
        "layout": "packed",
        "group_size": group_size,
        "checksums": True,
        "replicas": replicas,
        "files": {"groups": groups_written, "replicas": replicas},
    }


def write_shard_records(
    records: Iterable[NodeTable],
    path: str,
    *,
    identity: Dict[str, Any],
    group_size: int = DEFAULT_GROUP_SIZE,
    replicas: int = 1,
) -> Dict[str, Any]:
    """Write encoded :class:`NodeTable` records under ``path``.

    The record-level half of :func:`write_shards`: callers that already
    hold records (re-export of a shard-backed session, the storage-layer
    benchmark) use it directly; ``identity`` supplies the manifest's
    scheme-identity fields (``spec``, ``scheme``, ``name``, ``params``,
    ``routing_params``, ``seed``).  ``records`` may be a generator — it
    is consumed in one streaming pass holding one group at a time, so
    it needs records in nondecreasing ``owner // group_size`` order,
    which every producer here emits.  ``replicas=R > 1`` lands every
    group on R replica paths for :class:`ShardStore` failover.  Returns
    the manifest dict (also written to ``manifest.json``).
    """
    manifest = _write_unpublished(
        records, path, identity, group_size, replicas
    )
    _publish_manifest(path, manifest)
    return manifest


def _write_unpublished(
    records: Iterable[NodeTable],
    path: str,
    identity: Dict[str, Any],
    group_size: int,
    replicas: int,
) -> Dict[str, Any]:
    """Write the packs and return the manifest dict, unpublished (the
    encoding pass also counts each record's table words).  Arguments
    are checked before the directory is touched: a bad call must not
    delete the layout already there."""
    for name, value in (("replicas", replicas), ("group_size", group_size)):
        if not _positive_int(value):
            raise ValueError(f"{name} must be an int >= 1, got {value!r}")
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

    layout = _write_packs(path, encoded(), group_size, replicas)
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
    packed: bool = True,
    group_size: int = DEFAULT_GROUP_SIZE,
    replicas: int = 1,
) -> Dict[str, Any]:
    """Compile ``scheme`` and write its checksummed packs under ``path``.

    ``O(n / group_size)`` group files, each holding ``group_size``
    vertices' shards behind a CRC32-sealed index; ``replicas=R`` places
    every group on R replica paths for :class:`ShardStore` failover.
    ``packed`` accepts only ``True`` (the one layout there is).  Returns
    the manifest dict.  Before the manifest is published, the word total
    counted while encoding is checked against :class:`SchemeStats`
    (counted apart, with ``words_of``): on drift,
    :class:`ShardAccountingError` is raised and the directory stays
    "not a shard dir".
    """
    if packed is not True:
        raise ValueError(
            f"packed={packed!r}: the one-file-per-vertex layout is "
            f"retired; shards are always written as checksummed packs"
        )
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
        scheme.compile_tables(), path, identity, group_size, replicas
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


def _positive_int(v: Any) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and v >= 1


#: manifest fields, with their validators — _load_manifest refuses
#: arbitrary JSON instead of letting a missing or mistyped field surface
#: later as a KeyError in the serving path
_MANIFEST_FIELDS = {
    "version": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "n": lambda v: (
        isinstance(v, int) and not isinstance(v, bool) and v >= 0
    ),
    "spec": lambda v: isinstance(v, str) and v != "",
    "scheme": lambda v: isinstance(v, str) and v != "",
    "group_size": _positive_int,
    "checksums": lambda v: v is True,
    "replicas": _positive_int,
}

#: what each retired layout version was, for the refusal message
_RETIRED_LAYOUTS = {
    FORMAT_VERSION: "one file per vertex",
    PACKED_FORMAT_VERSION: "packs without checksums",
}


def require_current_layout(
    manifest: Dict[str, Any], path: Optional[str] = None
) -> None:
    """Refuse a manifest of any layout but checksummed packs.

    A retired layout (version 1 or 2) raises :class:`RetiredLayoutError`
    naming the rebuild command, filled in from the manifest; an unknown
    version raises :class:`ValueError`.
    """
    version = manifest.get("version")
    if version in _RETIRED_LAYOUTS:
        where = "shard directory" if path is None else repr(path)
        raise RetiredLayoutError(
            f"{where} holds shard layout version {version} "
            f"({_RETIRED_LAYOUTS[version]}), which this build no longer "
            f"serves: only checksummed packs (layout version "
            f"{CHECKSUM_FORMAT_VERSION}) are read.  Rebuild it with "
            f"`python -m repro shard --scheme {manifest.get('spec', '<spec>')}"
            f" --seed {manifest.get('seed', '<seed>')} --out "
            f"{path or '<dir>'}` (from Python: write_shards(scheme, dir, "
            f"packed=True))"
        )
    if version != CHECKSUM_FORMAT_VERSION or manifest.get("layout") != "packed":
        raise ValueError(
            f"unsupported shard layout version={version!r} "
            f"layout={manifest.get('layout')!r} (this build reads "
            f"version {CHECKSUM_FORMAT_VERSION}, layout 'packed')"
        )


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
    if "version" in manifest:
        require_current_layout(manifest, path)
    for field, ok in _MANIFEST_FIELDS.items():
        if field not in manifest:
            raise ValueError(
                f"shard manifest of {path!r} is missing required "
                f"field {field!r}"
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


class ShardStore:
    """The shard store: ``mmap``-ed checksummed packs, zero-copy decode.

    Each group has a list of candidate pack files: the layout's R
    copies (:func:`pack_paths`), or — when ``group_paths`` restricts
    the store to an explicit ``{group: pack path}`` assignment — the
    one path assigned.  Serving vertex ``v`` maps a candidate of its
    group once, binary-searches the mapped index and decodes the record
    straight from a ``memoryview`` slice of the map — no per-vertex
    ``open()``/``read()`` syscalls and no intermediate ``bytes`` copy on
    the hot path.  The payload's CRC32 is verified *before* the decoder
    touches the bytes, so a flipped bit in a stored weight — which would
    decode to a structurally valid but wrong table — is never decoded.

    How a group's copy is trusted depends on how many candidates it
    has, the store's one policy choice:

    * **one candidate** — mapping checks the header and the index CRC
      (:func:`~repro.routing.shard_codec.parse_pack_header`), so a lying
      index is caught before the first binary search trusts it; the
      full O(count) index check
      (:func:`~repro.routing.shard_codec.check_pack`) runs on the first
      anomaly — a lookup miss, a decode failure, an owner mismatch.  A
      failure raises :class:`ShardIntegrityError` and only drops the
      mapping (the next access re-maps the file), so the healthy
      entries of a partly corrupt sole copy keep serving.
    * **two or more candidates** — mapping runs
      :func:`~repro.routing.shard_codec.verify_pack` over the whole copy,
      so a corrupt or truncated copy is rejected before a single entry
      is served from it and the store fails over to the next one.  A
      copy that fails (missing file, short map, checksum mismatch,
      persistent I/O error, or a payload that rots after mapping) is
      **quarantined** until :meth:`repair` rewrites it from a healthy
      copy; if every copy of a group is bad,
      :class:`ReplicaExhaustedError` reports each copy's cause.  The
      chaos suite asserts the guarantee this buys: no corrupted table is
      ever silently decoded, and every injected corruption produces
      exactly one observable failover.

    Transient I/O errors (EIO/EAGAIN) are retried with backoff before
    they count as failures.  An unassigned group of a restricted store
    raises :class:`ShardUnavailableError` — the precise failure a
    cluster worker (:mod:`repro.cluster.worker`) must report when handed
    a vertex it does not own.

    Parameters
    ----------
    path:
        Directory :func:`write_shards` produced.
    max_resident:
        Optional LRU bound on decoded shards kept in memory — the
        serving-node memory budget.  ``None`` keeps everything touched.
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
        # ``manifest`` lets callers hand over a parse they already did.
        if manifest is None:
            manifest = _load_manifest(path)
        else:
            manifest = _validate_manifest(manifest, path)
        self.path = path
        self.manifest = manifest
        self.n = int(manifest["n"])
        self.group_size = int(manifest["group_size"])
        self.replicas = int(manifest["replicas"])
        self.max_resident = max_resident
        self._io = io if io is not None else DirectIO()
        #: transient-IO retry policy: an EIO read is retried up to
        #: ``retry_budget`` times with exponential backoff before the
        #: error escapes (or fails over to another copy)
        self.retry_budget = retry_budget
        self.backoff_s = backoff_s
        self._group_paths = (
            None if group_paths is None else dict(group_paths)
        )
        self._resident: "OrderedDict[int, NodeTable]" = OrderedDict()
        # group -> (mapped view, index of the candidate it maps)
        self._maps: Dict[int, Tuple[memoryview, int]] = {}
        # group -> quarantined candidate indices
        self._quarantined: Dict[int, set] = {}
        #: serve statistics
        self.loads = 0
        self.hits = 0
        self.bytes_read = 0
        #: fault-tolerance counters
        self.retries = 0
        self.checksum_failures = 0
        self.failovers = 0
        self.repairs = 0

    # -- groups and their copies ----------------------------------------
    def group_of(self, v: int) -> int:
        return v // self.group_size

    def group_count(self) -> int:
        return (self.n + self.group_size - 1) // self.group_size

    def copies(self, g: int) -> List[str]:
        """Candidate pack files of group ``g``, in failover order."""
        if self._group_paths is None:
            return pack_paths(self.path, g, self.replicas)
        target = self._group_paths.get(g)
        if target is None:
            raise ShardUnavailableError(
                f"group {g} is not in this store's assignment "
                f"({len(self._group_paths)} owned groups under "
                f"{self.path!r}) — route the lookup to the group's "
                f"owner"
            )
        return [target]

    def group_path(self, g: int, r: int = 0) -> str:
        """Path of candidate ``r`` of group ``g``."""
        return self.copies(g)[r]

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

    def _sweep_groups(self) -> List[int]:
        """Groups a verify/repair sweep covers: the assignment when
        restricted, every group of the layout otherwise."""
        if self._group_paths is not None:
            return sorted(self._group_paths)
        return list(range(self.group_count()))

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

    # -- mapping ---------------------------------------------------------
    def _with_retries(self, op: Callable[[], Any]) -> Any:
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

    def _missing_copy(self, g: int, r: int) -> ShardUnavailableError:
        """The typed error for a missing copy: it names the replica (the
        operator's unit of repair) and detects a partially written one —
        a ``replica/<r>`` directory whose ``groups/`` subdir never landed
        (an interrupted ``write_shards`` or a botched copy)."""
        copies = self.copies(g)
        target = copies[r]
        if len(copies) == 1:
            return ShardUnavailableError(
                f"group {g} of the packed layout is missing "
                f"({target}); a local-knowledge route only touches "
                f"visited vertices' groups — this one was needed"
            )
        groups_dir = os.path.dirname(target)
        if not os.path.isdir(groups_dir):
            return partial_replica_error(self.path, r, groups_dir)
        return ShardUnavailableError(
            f"replica {r} of group {g} is missing ({target})"
        )

    def _map_copy(
        self, g: int, r: int, *, sequential: bool = False
    ) -> memoryview:
        """Map candidate ``r`` of group ``g`` (transient errors retried)."""
        target = self.copies(g)[r]
        try:
            return self._with_retries(
                lambda: self._io.map_group(target, sequential=sequential)
            )
        except FileNotFoundError as exc:
            raise self._missing_copy(g, r) from exc

    def _verified(self, view: memoryview) -> memoryview:
        """``view`` once :func:`verify_pack` passes over it; on failure
        the map is released and the error re-raised."""
        try:
            verify_pack(view)
            return view
        except ShardCodecError as exc:
            # drop the traceback first: its frames pin slices of the map
            failure = exc.with_traceback(None)
        self._io.release(view)
        raise failure

    def _group_view(self, g: int) -> memoryview:
        mapped = self._maps.get(g)
        if mapped is not None:
            return mapped[0]
        copies = self.copies(g)
        if len(copies) == 1:
            view = self._map_copy(g, 0)
            # Header validation per mapping (plus the index CRC) keeps
            # cold lookups syscall-light; the O(count) structural index
            # check runs on demand (_diagnose / verify) and every
            # corruption it would catch still surfaces through a failed
            # lookup, checksum, decode or owner check first.
            parse_pack_header(view)
            self._maps[g] = (view, 0)
            return view
        bad = self._quarantined.setdefault(g, set())
        causes: Dict[int, Exception] = {}
        for r in range(len(copies)):
            if r in bad:
                causes[r] = ReplicaExhaustedError(
                    "quarantined earlier this session", {}
                )
                continue
            try:
                view = self._verified(self._map_copy(g, r))
            except (OSError, ShardCodecError) as exc:
                # strip the traceback before keeping the exception: its
                # frames hold memoryview slices of the released map
                causes[r] = exc.with_traceback(None)
                bad.add(r)
                if isinstance(exc, ChecksumError):
                    self.checksum_failures += 1
                self.failovers += 1
                continue
            self._maps[g] = (view, r)
            return view
        raise ReplicaExhaustedError(
            f"every replica of group {g} is unavailable or corrupt "
            f"(root {self.path})",
            causes,
        )

    def _drop_mapping(self, g: int) -> bool:
        """Drop group ``g``'s mapping so the next access re-maps — a
        repaired pack must not be shadowed by a map of its corrupt
        predecessor.  With other candidates to fail over to, the mapped
        copy is also quarantined; returns whether it was."""
        view, r = self._maps.pop(g)
        self._io.release(view)
        if len(self.copies(g)) == 1:
            return False
        self._quarantined.setdefault(g, set()).add(r)
        return True

    def _unmap_if(self, g: int, bad: Iterable[int]) -> None:
        """Drop group ``g``'s serving map if it maps one of the ``bad``
        copies (no quarantine: the sweep or repair speaks for them)."""
        mapped = self._maps.get(g)
        if mapped is not None and mapped[1] in bad:
            del self._maps[g]
            self._io.release(mapped[0])

    # -- lookups ---------------------------------------------------------
    def _read_shard(self, v: int) -> memoryview:
        g = self.group_of(v)
        view = self._group_view(g)
        found = find_pack_entry(view, v)
        if found is None:
            self._index_miss(g, view, v)
            # the mapped copy passed verify_pack, so its index is sound —
            # a miss means this copy's pack is incomplete: fail over once
            self.failovers += 1
            view = self._group_view(g)
            found = find_pack_entry(view, v)
            if found is None:
                self._drop_mapping(g)
                raise ShardIntegrityError(
                    f"no replica of group {g} holds vertex {v}, which "
                    f"the manifest covers — the packs are incomplete"
                )
        offset, length, crc = found
        if zlib.crc32(view[offset:offset + length]) != crc:
            self.checksum_failures += 1
            if not self._drop_mapping(g):
                raise ShardIntegrityError(
                    f"payload of vertex {v} in group {g} fails its "
                    f"CRC32 ({self.group_path(g)}) — refusing to "
                    f"decode corrupted bytes"
                )
            # verify_pack passed at map time, so the bytes rotted
            # *after* mapping (or the medium is flaky) — fail over
            self.failovers += 1
            return self._read_shard(v)
        return view[offset:offset + length]

    def _index_miss(self, g: int, view: memoryview, v: int) -> None:
        """Handle an in-range index miss: the manifest covers ``v`` and
        write_shard_records packs every record of a group into its
        file, so the index lied or the pack is incomplete — never a
        reason to delete the file.  Drops the mapping; returns when
        another copy can be tried, else raises the *integrity* error
        (check_pack may name the corruption precisely)."""
        try:
            check_pack(view)
            failure: Optional[Exception] = None
        except ShardCodecError as exc:
            failure = exc.with_traceback(None)
        if self._drop_mapping(g):
            return
        if failure is not None:
            raise ShardIntegrityError(
                f"index of group {g} is corrupt "
                f"({self.group_path(g)}): {failure}"
            ) from failure
        raise ShardIntegrityError(
            f"index of group {g} ({self.group_path(g)}) has no "
            f"entry for vertex {v}, which the manifest covers — "
            f"the index is corrupt or the pack is incomplete; the "
            f"mapping is quarantined (do NOT delete the pack: the "
            f"other entries may be intact)"
        )

    def _diagnose(self, v: int) -> None:
        # A shard that fails to decode (or holds the wrong owner) from
        # an mmap slice means the group's index lied about its bounds —
        # replace the symptom with check_pack's precise diagnosis.
        check_pack(self._group_view(self.group_of(v)))

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

    # -- sweeps ----------------------------------------------------------
    def _check_copy(self, g: int, r: int) -> None:
        """Map candidate ``r`` of group ``g`` for a sweep (sequential
        readahead: the sweep scans every byte once), verify it and unmap
        it again.  A bad copy also loses its serving map, if it has one."""
        view = self._map_copy(g, r, sequential=True)
        try:
            self._io.release(self._verified(view))
        except ShardCodecError:
            self._unmap_if(g, (r,))
            raise

    def _unit(self, g: int, r: int) -> str:
        if len(self.copies(g)) == 1:
            return f"group {g:04x}"
        return f"group {g:04x} replica {r}"

    def verify(self) -> int:
        """Validate every copy of every group — full index check plus
        every payload checksum; returns the number of groups checked.
        Raises on the first corrupt copy — use :meth:`verify_report` for
        the full picture.  Offline tooling / release checks — serving
        itself validates lazily."""
        groups = self._sweep_groups()
        for g in groups:
            for r in range(len(self.copies(g))):
                self._check_copy(g, r)
        return len(groups)

    def verify_report(self) -> Dict[str, str]:
        """Non-raising :meth:`verify`: per group (and replica, when a
        group has several copies) ``"ok"`` or the error.

        The ``shard --verify`` sweep prints this — operators want the
        whole corruption picture, not the first bad group.
        """
        report: Dict[str, str] = {}
        for g in self._sweep_groups():
            for r in range(len(self.copies(g))):
                try:
                    self._check_copy(g, r)
                    report[self._unit(g, r)] = "ok"
                except (ShardCodecError, OSError) as exc:
                    report[self._unit(g, r)] = f"{type(exc).__name__}: {exc}"
        return report

    def repair(self) -> Dict[str, int]:
        """Rewrite every bad copy of a group from a healthy one.

        Sweeps all ``(group, copy)`` pairs on the real filesystem
        (deliberately *not* through the store's I/O seam — repair is an
        administrative operation, and running it through a fault
        injector would let the chaos schedule corrupt the repair
        itself), rewriting any copy that is missing or fails
        :func:`verify_pack` from the first healthy copy of the same
        group, via tmp + ``os.replace`` so a crash mid-repair never
        leaves a torn pack.  Quarantined copies that turn out healthy
        on disk (e.g. a transient error burned their budget) are simply
        requalified.  Returns counters; raises
        :class:`ReplicaExhaustedError` if some group has no healthy
        copy at all.
        """
        repaired = 0
        requalified = 0
        admin = DirectIO()
        try:
            for g in self._sweep_groups():
                copies = self.copies(g)
                healthy: Optional[int] = None
                bad: List[int] = []
                causes: Dict[int, Exception] = {}
                for r, target in enumerate(copies):
                    try:
                        try:
                            blob = admin.read_bytes(target)
                        except FileNotFoundError as exc:
                            raise self._missing_copy(g, r) from exc
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
                    blob = admin.read_bytes(copies[healthy])
                    for r in bad:
                        os.makedirs(
                            os.path.dirname(copies[r]), exist_ok=True
                        )
                        with _atomic_file(copies[r]) as fh:
                            fh.write(blob)
                        repaired += 1
                        self.repairs += 1
                # every copy of g is now healthy on disk: lift the
                # quarantine and drop any mapping of a replaced file
                quarantined = self._quarantined.pop(g, set())
                requalified += len(quarantined - set(bad))
                self._unmap_if(g, bad)
        finally:
            admin.close()
        return {"repaired": repaired, "requalified": requalified}

    # -- observability ---------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Serve counters: shard loads, cache hits, bytes read, residency,
        mapped groups, and the fault-tolerance counters (retries,
        checksum failures, failovers, repairs, quarantined copies)."""
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
            "groups_mapped": self.groups_mapped,
            "group_size": self.group_size,
            "replicas": self.replicas,
            "quarantined": sum(len(rs) for rs in self._quarantined.values()),
        }

    def health(self) -> Dict[str, Any]:
        """One-look serving-health summary.

        ``status`` is ``"ok"`` until the store has observed (and
        survived) a fault — retried IO, a checksum failure, a failover,
        a quarantined copy — then ``"degraded"``; a store that cannot
        serve raises instead of reporting.
        """
        quarantined = sum(len(rs) for rs in self._quarantined.values())
        degraded = bool(
            self.retries or self.checksum_failures or self.failovers
            or quarantined
        )
        return {
            "status": "degraded" if degraded else "ok",
            "layout": self.layout,
            "n": self.n,
            "retries": self.retries,
            "checksum_failures": self.checksum_failures,
            "failovers": self.failovers,
            "repairs": self.repairs,
            "quarantined": quarantined,
        }

    def close(self) -> None:
        """Release every mapping (the store is unusable afterwards)."""
        self._maps = {}
        self._io.close()

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({self.path!r}, n={self.n}, "
            f"loads={self.loads}, hits={self.hits})"
        )


def open_store(
    path: str,
    *,
    max_resident: Optional[int] = None,
    io: Optional[DirectIO] = None,
    retry_budget: int = DEFAULT_RETRY_BUDGET,
    backoff_s: float = DEFAULT_BACKOFF_S,
) -> ShardStore:
    """Open a shard directory for serving (a :class:`ShardStore`
    configured from its manifest; retired layouts are refused with
    :class:`RetiredLayoutError`)."""
    return ShardStore(
        path,
        max_resident=max_resident,
        io=io,
        retry_budget=retry_budget,
        backoff_s=backoff_s,
    )


def verify_shard_dir(path: str) -> Dict[str, str]:
    """Offline integrity sweep of a shard directory.

    Returns a ``{unit: "ok" | "<Error>: <detail>"}`` report — per group,
    and per replica when the layout is replicated.  Never raises on
    corruption (only on an unreadable/invalid manifest): operators want
    the whole picture in one sweep.
    """
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

    def __init__(self, store: ShardStore) -> None:
        self._store = store

    def port_to(self, u: int, v: int) -> int:
        return self._store.node(u).port_to(v)

    def neighbor(self, u: int, port: int) -> int:
        return self._store.node(u).neighbor(port)

    def degree(self, u: int) -> int:
        return self._store.node(u).degree()


class _ShardTables:
    """``tables[v]`` view resolving to the shard's :class:`SizedTable`."""

    def __init__(self, store: ShardStore) -> None:
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

    def __init__(self, store: ShardStore) -> None:
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

    Every forwarded header is sized with the value codec the cluster
    wire ships (:func:`~repro.routing.shard_codec.encode_value`): the
    first time a header value is forwarded it is encoded, decoded back,
    and checked for exact round-trip — a header the codec cannot carry
    fails at serve time with :class:`WireContractError` — and its wire
    length is cached by value, so the per-hop cost of accounting the
    true header bytes (``header_stats()``, surfaced through
    ``RoutingSession.serve_stats()``) is one dict probe.  The verified
    round-trip is what makes forwarding the in-memory header equivalent
    to forwarding the wire bytes, without paying the encode on every
    hop.
    """

    def __init__(self, store: ShardStore) -> None:
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
        try:
            length = self._wire_cache.get(header)
        except TypeError as exc:  # an unhashable list/dict/set inside
            raise WireContractError(
                f"header {header!r} is not hashable: {exc}"
            ) from exc
        if length is None:
            if _contains_bool(header):
                raise WireContractError(
                    f"header {header!r} carries a bool leaf; the "
                    f"serving engine's wire-length cache cannot tell "
                    f"True/False from 1/0 (Python value equality) — "
                    f"encode the flag as an int instead"
                )
            try:
                wire = encode_value(header)
            except ShardCodecError as exc:
                raise WireContractError(
                    f"header {header!r} cannot be encoded: {exc}"
                ) from exc
            if decode_value(wire) != header:
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
