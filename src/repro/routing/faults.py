"""Deterministic fault injection for the shard-serving I/O seam.

Every byte a store reads goes through its ``DirectIO`` object
(:mod:`repro.routing.serving`), so wrapping that seam is enough to
subject the *entire* serving stack — mapping, checksum verification,
failover, retry/backoff, quarantine, repair — to disk-level faults
without touching a single store internal.  :class:`FaultInjector` is
that wrapper: construct a store with ``io=FaultInjector(seed=...,
rates=...)`` and a seeded fraction of its reads fail in one of four
ways:

``missing``
    The file vanishes: ``FileNotFoundError`` exactly as if it had been
    unlinked.
``truncate``
    The mapped bytes stop early at a seeded cut point — a torn write or
    a short copy.
``bitflip``
    One seeded bit of the returned buffer is inverted — silent media
    corruption, the case checksums exist for.
``transient``
    :class:`TransientIOError` (``errno.EIO``): a flaky medium that
    succeeds on retry.  Stores retry these with backoff
    (``retry_budget``/``backoff_s``), so a transient fault costs a retry
    counter tick, never a failover.

The injector is a *bounded* adversary, which is what makes chaos runs
assertable rather than merely noisy:

* deterministic — all draws come from one seeded ``random.Random``, and
  every injected fault is appended to :attr:`events`, so a chaos test
  reconciles the store's ``retries``/``failovers``/``checksum_failures``
  counters against the exact schedule that ran;
* at most one fault per group file — after faulting a path, its
  basename is protected from further injection, so a replicated store's
  failover (same group, different replica root) and a retried transient
  read always find healthy bytes.  With ``replicas >= 2`` every route
  must therefore complete with hop decisions identical to the
  fault-free run, and the chaos suite asserts exactly that.

Repair deliberately bypasses the injector
(:meth:`ShardStore.repair` opens its own ``DirectIO``): it is
an administrative operation, and letting the schedule corrupt the
repair would turn a bounded adversary into an unbounded one.
"""

from __future__ import annotations

import errno
import os
import random
from typing import Any, Dict, List, Optional

from .serving import DirectIO

__all__ = [
    "FAULT_KINDS",
    "TransientIOError",
    "FaultInjector",
]

#: recognised keys of a ``rates`` schedule, in draw order
FAULT_KINDS = ("missing", "truncate", "bitflip", "transient")


class TransientIOError(OSError):
    """Injected ``EIO``: fails once, succeeds when retried."""

    def __init__(self, path: str) -> None:
        super().__init__(
            errno.EIO, "injected transient I/O error", path
        )


class FaultInjector:
    """Seeded fault-injecting wrapper around a :class:`DirectIO`.

    Implements the same ``map_group``/``read_bytes``/``release``/``close``
    protocol, so a :class:`~repro.routing.serving.ShardStore` accepts it
    via its ``io=`` parameter.  Faulted buffers (truncations, bit flips) are served from
    private ``bytes`` copies — the files on disk are never modified, so
    one shard directory can back both the faulted and the fault-free leg
    of a chaos comparison.
    """

    def __init__(
        self,
        io: Optional[DirectIO] = None,
        *,
        seed: int = 0,
        rates: Optional[Dict[str, float]] = None,
    ) -> None:
        rates = dict(rates or {})
        unknown = set(rates) - set(FAULT_KINDS)
        if unknown:
            raise ValueError(
                f"unknown fault kinds {sorted(unknown)!r} "
                f"(known: {FAULT_KINDS})"
            )
        self._io = io if io is not None else DirectIO()
        self._rng = random.Random(seed)
        self.rates = rates
        #: every injected fault, in order: {"kind", "op", "path"}
        self.events: List[Dict[str, str]] = []
        # basenames already faulted once — never faulted again, so
        # failover and transient retries always find healthy bytes
        self._protected: set = set()

    # -- schedule ------------------------------------------------------
    def _draw(self, path: str, op: str) -> Optional[str]:
        if os.path.basename(path) in self._protected:
            return None
        for kind in FAULT_KINDS:
            p = self.rates.get(kind, 0.0)
            if p > 0.0 and self._rng.random() < p:
                self._protected.add(os.path.basename(path))
                self.events.append(
                    {"kind": kind, "op": op, "path": path}
                )
                return kind
        return None

    def fault_counts(self) -> Dict[str, int]:
        """``{kind: times injected}`` over :attr:`events`."""
        out = {kind: 0 for kind in FAULT_KINDS}
        for event in self.events:
            out[event["kind"]] += 1
        return out

    # -- corrupted-buffer fabrication ---------------------------------
    def _corrupted(self, kind: str, path: str) -> bytes:
        data = self._io.read_bytes(path)
        if kind == "truncate" and len(data) >= 2:
            return data[: self._rng.randrange(1, len(data))]
        if kind == "bitflip" and data:
            flipped = bytearray(data)
            i = self._rng.randrange(len(flipped))
            flipped[i] ^= 1 << self._rng.randrange(8)
            return bytes(flipped)
        return data

    def _serve(self, kind: Optional[str], path: str) -> Optional[bytes]:
        """Bytes to serve for a faulted access, or ``None`` = healthy.

        Raising kinds (``missing``, ``transient``) raise from here.
        """
        if kind is None:
            return None
        if kind == "missing":
            # The injected fault *is* the raw OS-level failure the typed
            # hierarchy must be proven to translate — raising it typed
            # would make the fault-tolerance tests test nothing.
            raise FileNotFoundError(  # repro: noqa ERR001 — injected raw fault under test
                errno.ENOENT, "injected missing file", path
            )
        if kind == "transient":
            raise TransientIOError(path)
        return self._corrupted(kind, path)

    @classmethod
    def from_spec(cls, spec: Dict[str, Any]) -> "FaultInjector":
        """Build an injector from a plain-dict spec: ``{"seed": int,
        "rates": {kind: probability}}``.

        The cluster driver sends fault schedules to worker processes as
        JSON-able dicts (a live injector holds an RNG and an open
        ``DirectIO`` — not something to ship across ``fork``/a wire);
        each worker rebuilds its own injector from the spec, so a chaos
        run's schedule is reproducible per worker from ``(seed, rates)``
        alone.
        """
        unknown = set(spec) - {"seed", "rates"}
        if unknown:
            raise ValueError(
                f"unknown fault-spec keys {sorted(unknown)!r} "
                f"(known: seed, rates)"
            )
        return cls(
            seed=int(spec.get("seed", 0)),
            rates=spec.get("rates") or {},
        )

    # -- DirectIO protocol --------------------------------------------
    def map_group(self, path: str, *, sequential: bool = False) -> memoryview:
        faulted = self._serve(self._draw(path, "map"), path)
        if faulted is None:
            return self._io.map_group(path, sequential=sequential)
        return memoryview(faulted)

    def read_bytes(self, path: str) -> bytes:
        faulted = self._serve(self._draw(path, "read"), path)
        if faulted is None:
            return self._io.read_bytes(path)
        return faulted

    def release(self, view: memoryview) -> None:
        self._io.release(view)

    def close(self) -> None:
        self._io.close()

    # -- diagnostics ---------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        return {
            "seed_events": len(self.events),
            "by_kind": self.fault_counts(),
            "protected_files": len(self._protected),
        }
