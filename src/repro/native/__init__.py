"""The native C kernel tier: compile-on-demand ctypes kernels.

The compiled half of the 10^6-preprocessing goal (the multiprocess half
is :mod:`repro.graph.parallel`): a small hand-rolled C source file
(``_kernels.c``) is compiled on first use with the *system* compiler —
``cc``/``gcc``/``clang``, no new Python dependencies — into a
content-hash-named shared library under a cache directory, and loaded
via ``ctypes`` with zero-copy pointers into the existing CSR numpy
arrays.  Three kernels ride in it:

* the delta-stepping relax/scatter-min inner loop over the flattened
  ``(source, vertex)`` space (:meth:`repro.graph.csr.CSRGraph._delta_batch`
  calls it per open bucket),
* the next-hop column toward one target
  (:meth:`repro.graph.csr.CSRGraph.hop_column`, behind
  :meth:`repro.graph.metric.MetricView.next_hop`): one CSR pass over the
  target's distance row, and
* the zigzag-varint ``NodeTable`` payload scanner behind
  :func:`repro.routing.shard_codec.decode_node_table_fast` (the
  ``ShardStore`` cold-lookup path).

Dispatch
--------
The tier hangs off the existing ``REPRO_KERNEL`` switch (resolved once
per process by :func:`repro.graph.shortest_paths.kernel_mode`):

* ``native`` *forces* the tier — a missing compiler with no cached
  library raises the typed :class:`NativeUnavailableError` instead of
  silently running numpy;
* ``auto`` (or unset) *prefers* native when it loads, and otherwise
  falls back to the numpy kernel recording why
  (:func:`fallback_reason` / :func:`native_status`);
* ``numpy`` pins the numpy kernel, ``pure`` the pure-Python one — both
  stay differential references with bit-identical outputs.

``REPRO_NATIVE_CC`` overrides the compiler (a path/name), and the
values ``off``/``none``/``0`` mask it entirely — with an empty
``REPRO_NATIVE_CACHE`` that is exactly the "compiler-less host" the
fallback tests simulate.  Builds are process-safe: each builder
compiles into a private temporary directory and publishes the library
with an atomic ``os.replace``, so concurrent spawn workers (the
``REPRO_PARALLEL`` tier resolves native independently per worker) race
benignly toward the same content-addressed file.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from typing import Any, Dict, Optional, Tuple

import numpy as np

__all__ = [
    "NativeError",
    "NativeUnavailableError",
    "NativeBuildError",
    "NativeExecutionError",
    "NativeKernels",
    "compiler",
    "cache_dir",
    "source_path",
    "source_hash",
    "kernel_library_path",
    "load_kernels",
    "try_kernels",
    "fallback_reason",
    "native_status",
    "reset_native",
]

#: compilers probed (in order) when REPRO_NATIVE_CC does not pick one
_CC_CANDIDATES = ("cc", "gcc", "clang")
#: REPRO_NATIVE_CC values that mask the compiler entirely
_CC_OFF = ("off", "none", "0")
#: flags are part of the build, not of the cache key — the key is the
#: source content, so a host without a compiler still finds a library
#: another process (or an earlier run) built from identical source
_CC_FLAGS = ("-O3", "-std=c99", "-shared", "-fPIC")


class NativeError(RuntimeError):
    """Base of the native tier's typed error hierarchy."""


class NativeUnavailableError(NativeError):
    """No compiler on the host and no cached kernel library."""


class NativeBuildError(NativeError):
    """The compiler was found but failed to build the kernels."""


class NativeExecutionError(NativeError):
    """A loaded kernel reported a runtime failure (allocation)."""


def compiler() -> Optional[str]:
    """The C compiler to use, or ``None`` when masked/absent.

    ``REPRO_NATIVE_CC`` picks an explicit compiler (resolved on PATH);
    ``off``/``none``/``0`` mask compilation entirely (the forced-
    fallback tests use this to simulate a compiler-less host).
    """
    override = os.environ.get("REPRO_NATIVE_CC", "").strip()
    if override:
        if override.lower() in _CC_OFF:
            return None
        return shutil.which(override)
    for name in _CC_CANDIDATES:
        found = shutil.which(name)
        if found is not None:
            return found
    return None


def cache_dir() -> str:
    """Directory holding built kernel libraries.

    ``REPRO_NATIVE_CACHE`` overrides; the default is
    ``$XDG_CACHE_HOME/repro-native`` (``~/.cache/repro-native``).
    """
    override = os.environ.get("REPRO_NATIVE_CACHE", "").strip()
    if override:
        return override
    base = os.environ.get("XDG_CACHE_HOME", "").strip() or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return os.path.join(base, "repro-native")


def source_path() -> str:
    """The bundled ``_kernels.c`` source file."""
    return os.path.join(os.path.dirname(__file__), "_kernels.c")


def source_hash() -> str:
    """Content hash naming the built library (source bytes only)."""
    with open(source_path(), "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()[:16]


def kernel_library_path() -> str:
    """Where the built library for the current source content lives."""
    return os.path.join(cache_dir(), f"repro_kernels-{source_hash()}.so")


def _build_library(cc: str, target: str) -> None:
    """Compile ``_kernels.c`` and publish it at ``target`` atomically.

    The compile runs inside a private temporary directory under the
    cache dir and the finished library moves into place with
    ``os.replace`` — concurrent builders (parallel-tier spawn workers
    resolving native at the same moment) each publish a byte-equivalent
    file and the last rename wins without ever exposing a torn write.
    """
    directory = os.path.dirname(target)
    try:
        os.makedirs(directory, exist_ok=True)
    except OSError as exc:
        raise NativeUnavailableError(
            f"native kernel cache dir {directory!r} is not writable: {exc}"
        ) from exc
    with tempfile.TemporaryDirectory(dir=directory) as tmp:
        tmp_so = os.path.join(tmp, "repro_kernels.so")
        cmd = [cc, *_CC_FLAGS, "-o", tmp_so, source_path()]
        try:
            proc = subprocess.run(
                cmd, capture_output=True, text=True, timeout=120
            )
        except (OSError, subprocess.SubprocessError) as exc:
            raise NativeBuildError(
                f"failed to run the C compiler {cc!r}: {exc}"
            ) from exc
        if proc.returncode != 0:
            raise NativeBuildError(
                f"C compiler {cc!r} failed (exit {proc.returncode}):\n"
                f"{proc.stderr.strip() or proc.stdout.strip()}"
            )
        os.replace(tmp_so, target)


def _ptr(arr: np.ndarray) -> int:
    return arr.ctypes.data


_I64 = ctypes.c_longlong
_I32_P = ctypes.POINTER(ctypes.c_int32)
_I64_P = ctypes.POINTER(ctypes.c_longlong)
_F64_P = ctypes.POINTER(ctypes.c_double)


class NativeKernels:
    """Owner of the loaded kernel library and its call surface.

    Holds the ``ctypes.CDLL`` handle for its whole lifetime (``close()``
    drops it; the OS unmaps the library when the last reference dies)
    and exposes numpy-facing wrappers around the three C entry points.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        try:
            lib = ctypes.CDLL(path)
        except OSError as exc:
            raise NativeUnavailableError(
                f"cached kernel library {path!r} failed to load: {exc}"
            ) from exc
        c_i64 = _I64
        c_ptr = ctypes.c_void_p
        lib.repro_delta_batch.restype = ctypes.c_int
        lib.repro_delta_batch.argtypes = [
            c_ptr, c_ptr, c_ptr,                 # indptr, indices, weights
            c_i64, c_i64,                        # n, nb
            c_ptr,                               # start
            c_ptr, c_ptr,                        # vtx, cap
            c_ptr,                               # thr (or NULL)
            ctypes.c_double,                     # delta
            c_i64, c_i64, ctypes.c_double,       # ring, ell, tol
            c_i64,                               # gen
            ctypes.POINTER(_I32_P), ctypes.POINTER(_F64_P),
            ctypes.POINTER(c_i64),
        ]
        lib.repro_scan_table.restype = ctypes.c_int
        lib.repro_scan_table.argtypes = [
            c_ptr, c_i64,                        # data, len
            c_ptr, c_ptr, c_ptr, c_ptr, c_ptr,   # ids, wts, tags, aux, meta
        ]
        lib.repro_hop_column.restype = None
        lib.repro_hop_column.argtypes = [
            c_ptr, c_ptr, c_ptr,                 # indptr, indices, weights
            c_i64, c_ptr, c_i64,                 # n, row, v
            ctypes.c_double, c_ptr,              # tol, out
        ]
        lib.repro_release.restype = None
        lib.repro_release.argtypes = [c_ptr]
        self._lib: Optional[ctypes.CDLL] = lib

    def close(self) -> None:
        """Drop the library handle (test hook; idempotent)."""
        self._lib = None

    # -- kernel 1: delta-stepping batch engine --------------------------
    def delta_batch(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        weights: np.ndarray,
        n: int,
        nb: int,
        start: np.ndarray,
        vtx: np.ndarray,
        cap: np.ndarray,
        thr: Optional[np.ndarray],
        delta: float,
        ring: int,
        ell: Optional[int],
        tol: float,
        gen: int,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Run one whole delta-stepping batch in C.

        Returns ``(settled, settled_d)``: settled flattened ids in
        bucket order (ball mode: each bucket chunk sorted by
        ``(distance, id)``; bounded mode: settle order) with their final
        distances.  ``cap`` is mutated in place, exactly like the numpy
        engine; ``vtx`` is the caller-owned generation-stamped scratch;
        ``thr`` (bounded mode, length ``n``) drops every relaxation into
        ``v`` at or beyond ``thr[v]``.
        """
        lib = self._lib
        if lib is None:
            raise NativeExecutionError("kernel library handle is closed")
        settled_p = _I32_P()
        settled_d_p = _F64_P()
        settled_n = _I64()
        rc = lib.repro_delta_batch(
            _ptr(indptr), _ptr(indices), _ptr(weights),
            int(n), int(nb),
            _ptr(start),
            _ptr(vtx), _ptr(cap),
            _ptr(thr) if thr is not None else None,
            float(delta),
            int(ring), -1 if ell is None else int(ell), float(tol),
            int(gen),
            ctypes.byref(settled_p), ctypes.byref(settled_d_p),
            ctypes.byref(settled_n),
        )
        if rc != 0:
            # Allocation failure (or an impossible ring overflow): cap
            # is partially mutated, so a silent numpy retry would be
            # wrong — surface the typed error.
            raise NativeExecutionError(
                f"delta_batch: native kernel failed (rc={rc})"
            )
        settled = self._take(settled_p, settled_n.value, np.int32)
        settled_d = self._take(settled_d_p, settled_n.value, np.float64)
        return settled, settled_d

    def _take(self, ptr: Any, count: int, dtype: Any) -> np.ndarray:
        """Copy a C-allocated result array out and free it."""
        lib = self._lib
        assert lib is not None
        if not ptr or count <= 0:
            if ptr:
                lib.repro_release(ptr)
            return np.empty(0, dtype=dtype)
        out = np.empty(count, dtype=dtype)
        ctypes.memmove(out.ctypes.data, ptr, count * out.itemsize)
        lib.repro_release(ptr)
        return out

    # -- kernel 2: shard payload scan -----------------------------------
    def scan_table(
        self,
        data: np.ndarray,
        ids: np.ndarray,
        wts: np.ndarray,
        tags: np.ndarray,
        aux: np.ndarray,
        meta: np.ndarray,
    ) -> bool:
        """Scan one shard payload; ``False`` means "use the pure decoder".

        ``data`` is the payload as a uint8 array (zero-copy over the
        caller's bytes/memoryview); the other arrays are caller scratch
        of at least ``data.size`` entries (``meta``: 4).  On ``True``,
        ``meta`` holds ``(owner, degree, unit_flag, ntok)`` and the
        ids/wts/tags/aux prefixes are filled (see ``_kernels.c``).
        """
        lib = self._lib
        if lib is None:
            raise NativeExecutionError("kernel library handle is closed")
        rc = lib.repro_scan_table(
            _ptr(data), int(data.size),
            _ptr(ids), _ptr(wts), _ptr(tags), _ptr(aux), _ptr(meta),
        )
        return rc == 0

    # -- kernel 3: next-hop column ---------------------------------------
    def hop_column(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        weights: np.ndarray,
        row: np.ndarray,
        v: int,
        tol: float,
    ) -> np.ndarray:
        """First hops toward ``v`` from every vertex (int32, length n).

        ``indptr``/``indices`` are int32 CSR arrays, ``weights`` and
        ``row`` (``v``'s distance row) contiguous float64; the rule and
        the ``-1``/``-2`` markers are ``_kernels.c``'s.
        """
        lib = self._lib
        if lib is None:
            raise NativeExecutionError("kernel library handle is closed")
        n = row.size
        out = np.empty(n, dtype=np.int32)
        lib.repro_hop_column(
            _ptr(indptr), _ptr(indices), _ptr(weights),
            int(n), _ptr(row), int(v), float(tol), _ptr(out),
        )
        return out


#: once-per-process load outcome: (tried, handle, error)
_TRIED = False
_HANDLE: Optional[NativeKernels] = None
_ERROR: Optional[NativeError] = None


def _load() -> NativeKernels:
    target = kernel_library_path()
    if os.path.exists(target):
        return NativeKernels(target)
    cc = compiler()
    if cc is None:
        raise NativeUnavailableError(
            f"no C compiler on PATH (tried REPRO_NATIVE_CC, "
            f"{', '.join(_CC_CANDIDATES)}) and no cached kernel library "
            f"at {target!r} — set REPRO_KERNEL=numpy (or auto) to run "
            f"without the native tier"
        )
    _build_library(cc, target)
    return NativeKernels(target)


def try_kernels() -> Optional[NativeKernels]:
    """The loaded kernels, or ``None`` with the reason recorded.

    Resolved once per process (spawn workers resolve their own copy);
    :func:`reset_native` drops the cached outcome for tests.
    """
    global _TRIED, _HANDLE, _ERROR
    if not _TRIED:
        _TRIED = True
        try:
            _HANDLE = _load()
        except NativeError as exc:
            _ERROR = exc
            _HANDLE = None
    return _HANDLE


def load_kernels() -> NativeKernels:
    """The loaded kernels; raises the typed load error when unavailable.

    ``REPRO_KERNEL=native`` resolves through this — a compiler-less
    host with a cold cache gets :class:`NativeUnavailableError`, a
    broken toolchain :class:`NativeBuildError`, never a silent numpy
    fallback.
    """
    handle = try_kernels()
    if handle is None:
        assert _ERROR is not None
        raise _ERROR
    return handle


def fallback_reason() -> Optional[str]:
    """Why native is off (after a resolve), or ``None`` when loaded."""
    return str(_ERROR) if _ERROR is not None else None


def native_status() -> Dict[str, Any]:
    """One-look status: availability, library path, fallback reason."""
    handle = try_kernels()
    return {
        "available": handle is not None,
        "library": handle.path if handle is not None else None,
        "compiler": compiler(),
        "reason": fallback_reason(),
    }


def reset_native() -> None:
    """Drop the cached load outcome (test hook).

    The next :func:`try_kernels` re-reads ``REPRO_NATIVE_CC`` /
    ``REPRO_NATIVE_CACHE`` and re-resolves; a previously loaded handle
    is closed.
    """
    global _TRIED, _HANDLE, _ERROR
    if _HANDLE is not None:
        _HANDLE.close()
    _TRIED = False
    _HANDLE = None
    _ERROR = None
