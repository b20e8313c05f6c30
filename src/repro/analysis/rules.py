"""The domain rules: static counterparts of the runtime invariants.

Each rule mirrors a check the repository already enforces dynamically —
the point is to catch the drift *before* a test (or a production route)
has to.  See the module docstrings below and the README rule table for
the invariant each one guards and the runtime check it mirrors.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .framework import Finding, Rule, rule
from .layouts import DECLARED_LAYOUTS

__all__ = [
    "LocalKnowledgeRule",
    "DeterminismRule",
    "ErrorTaxonomyRule",
    "ResourceHygieneRule",
    "StampDisciplineRule",
    "CodecLayoutRule",
]


# ----------------------------------------------------------------------
# shared AST helpers
# ----------------------------------------------------------------------
def _dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _import_aliases(tree: ast.Module) -> Dict[str, str]:
    """``{local name: full dotted origin}`` from the module's imports."""
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                aliases[item.asname or item.name.split(".")[0]] = item.name
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for item in node.names:
                aliases[item.asname or item.name] = (
                    f"{node.module}.{item.name}"
                )
    return aliases


def _resolve(call_target: str, aliases: Dict[str, str]) -> str:
    """Rewrite the first component of a dotted target via the imports."""
    head, _, rest = call_target.partition(".")
    origin = aliases.get(head)
    if origin is None:
        return call_target
    return f"{origin}.{rest}" if rest else origin


def _fstring_prefix(node: ast.JoinedStr) -> str:
    """The constant leading text of an f-string (``f"ctree{i}"`` -> ``ctree``)."""
    prefix = []
    for value in node.values:
        if isinstance(value, ast.Constant) and isinstance(value.value, str):
            prefix.append(value.value)
        else:
            break
    return "".join(prefix)


def _methods(cls: ast.ClassDef) -> Dict[str, ast.FunctionDef]:
    return {
        item.name: item
        for item in cls.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


# ----------------------------------------------------------------------
# LK001 — local-knowledge category manifest
# ----------------------------------------------------------------------
@rule
class LocalKnowledgeRule(Rule):
    """Serving-path code may only read declared ``shard_categories()``.

    The static counterpart of the compile-time refusal in
    :func:`repro.routing.tables.compile_tables`: the runtime check
    rejects *built* tables holding categories ``step`` never declared;
    this rule rejects *code* reading categories the declaration does not
    cover — the other half of the same drift, caught before a single
    scheme is built.  In any class defining both ``shard_categories``
    and ``step``, every literal (or f-string-prefixed) category passed
    to ``table.get/has/category`` in a serving-path method must appear
    in the literals (or f-string prefixes) of ``shard_categories``.
    """

    id = "LK001"
    title = (
        "serving-path table reads stay inside the declared "
        "shard_categories() manifest"
    )
    paths = ("repro/schemes/", "repro/baselines/")

    #: methods that run at build/declaration time, not on the serving path
    _BUILD_TIME = frozenset({"__init__", "shard_categories"})

    def check(
        self, tree: ast.Module, source: str, relpath: str
    ) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            methods = _methods(node)
            decl = methods.get("shard_categories")
            if decl is None or "step" not in methods:
                continue
            literals, prefixes = self._declared(decl)
            if not literals and not prefixes:
                continue  # no extractable declaration (e.g. returns None)
            for name, method in methods.items():
                if name in self._BUILD_TIME:
                    continue
                findings.extend(
                    self._check_method(
                        relpath, node.name, method, literals, prefixes
                    )
                )
        return findings

    def _declared(
        self, decl: ast.FunctionDef
    ) -> Tuple[Set[str], Set[str]]:
        literals: Set[str] = set()
        prefixes: Set[str] = set()
        for node in ast.walk(decl):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                literals.add(node.value)
            elif isinstance(node, ast.JoinedStr):
                prefix = _fstring_prefix(node)
                if prefix:
                    prefixes.add(prefix)
        return literals, prefixes

    def _table_names(self, method: ast.FunctionDef) -> Set[str]:
        """Local names that hold a routing table inside ``method``."""
        names = {
            arg.arg
            for arg in (
                method.args.posonlyargs
                + method.args.args
                + method.args.kwonlyargs
            )
            if arg.arg == "table"
        }
        for node in ast.walk(method):
            if isinstance(node, ast.Assign) and isinstance(
                node.value, ast.Call
            ):
                target_fn = node.value.func
                if (
                    isinstance(target_fn, ast.Attribute)
                    and target_fn.attr == "table_of"
                ):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            names.add(target.id)
        return names

    def _check_method(
        self,
        relpath: str,
        class_name: str,
        method: ast.FunctionDef,
        literals: Set[str],
        prefixes: Set[str],
    ) -> Iterator[Finding]:
        tables = self._table_names(method)
        if not tables:
            return
        for node in ast.walk(method):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("get", "has", "category")
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in tables
                and node.args
            ):
                continue
            category = node.args[0]
            if isinstance(category, ast.Constant) and isinstance(
                category.value, str
            ):
                used = category.value
                if used in literals or any(
                    used.startswith(p) for p in prefixes
                ):
                    continue
                yield self.finding(
                    relpath,
                    node,
                    f"{class_name}.{method.name} reads table category "
                    f"{used!r}, which {class_name}.shard_categories() "
                    f"never declares — a shard served to this step "
                    f"function would not carry it",
                )
            elif isinstance(category, ast.JoinedStr):
                prefix = _fstring_prefix(category)
                if not prefix or prefix in prefixes or prefix in literals:
                    continue
                yield self.finding(
                    relpath,
                    node,
                    f"{class_name}.{method.name} reads table categories "
                    f"{prefix!r}* (f-string), which "
                    f"{class_name}.shard_categories() never declares",
                )


# ----------------------------------------------------------------------
# DET001 — determinism discipline
# ----------------------------------------------------------------------
@rule
class DeterminismRule(Rule):
    """No unseeded global RNG, wall-clock values, or bare-set iteration.

    Protects every bit-identical differential test (kernel-vs-reference
    distances, save/load step decisions, single-copy-vs-replicated routes):
    all randomness must flow through a seeded ``random.Random`` /
    ``numpy`` generator instance, no algorithmic value may derive from
    the wall clock, and loops must not iterate a bare ``set`` (whose
    order is salted per process) where the order can reach an output.
    ``time.perf_counter``/``monotonic``/``sleep`` stay legal: timing
    instrumentation and retry backoff measure duration, they never
    become algorithmic output.
    """

    id = "DET001"
    title = (
        "seeded RNG instances only; no wall clock or bare-set iteration "
        "in algorithmic code"
    )
    paths = ("repro/",)

    #: constructors of explicitly seeded generators — allowed
    _RNG_OK = frozenset({"Random", "SystemRandom"})
    _NP_OK = frozenset(
        {"default_rng", "Generator", "RandomState", "SeedSequence"}
    )
    _WALL_CLOCK = frozenset(
        {
            "time.time",
            "time.time_ns",
            "datetime.datetime.now",
            "datetime.datetime.utcnow",
            "datetime.datetime.today",
            "datetime.date.today",
        }
    )

    def check(
        self, tree: ast.Module, source: str, relpath: str
    ) -> List[Finding]:
        findings: List[Finding] = []
        aliases = _import_aliases(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                findings.extend(self._check_call(relpath, node, aliases))
            elif isinstance(node, ast.For):
                findings.extend(
                    self._check_iterable(relpath, node.iter, aliases)
                )
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
            ):
                for gen in node.generators:
                    findings.extend(
                        self._check_iterable(relpath, gen.iter, aliases)
                    )
        return findings

    def _check_call(
        self, relpath: str, node: ast.Call, aliases: Dict[str, str]
    ) -> Iterator[Finding]:
        target = _dotted_name(node.func)
        if target is None:
            return
        resolved = _resolve(target, aliases)
        if resolved in self._WALL_CLOCK:
            yield self.finding(
                relpath,
                node,
                f"wall-clock call {resolved}() in algorithmic code — "
                f"outputs must be a function of (input, seed), use "
                f"perf_counter for instrumentation-only timing",
            )
            return
        parts = resolved.split(".")
        if parts[:1] == ["random"] and len(parts) == 2:
            fn = parts[1]
            if fn not in self._RNG_OK:
                yield self.finding(
                    relpath,
                    node,
                    f"module-level random.{fn}() draws from the global "
                    f"unseeded RNG stream — construct a seeded "
                    f"random.Random(seed) instance instead",
                )
            elif fn == "Random" and not (node.args or node.keywords):
                yield self.finding(
                    relpath,
                    node,
                    "random.Random() without a seed is as nondeterministic "
                    "as the global stream — pass an explicit seed",
                )
        elif parts[:2] == ["numpy", "random"] and len(parts) == 3:
            fn = parts[2]
            if fn not in self._NP_OK:
                yield self.finding(
                    relpath,
                    node,
                    f"np.random.{fn}() draws from numpy's global RNG — "
                    f"use np.random.default_rng(seed)",
                )
            elif not (node.args or node.keywords):
                yield self.finding(
                    relpath,
                    node,
                    f"np.random.{fn}() without a seed is nondeterministic "
                    f"— pass an explicit seed",
                )

    def _check_iterable(
        self, relpath: str, iterable: ast.AST, aliases: Dict[str, str]
    ) -> Iterator[Finding]:
        if isinstance(iterable, ast.Set):
            yield self.finding(
                relpath,
                iterable,
                "iterating a set literal: set order is salted per "
                "process — wrap in sorted() if the loop order can "
                "reach an output",
            )
        elif isinstance(iterable, ast.Call):
            target = _dotted_name(iterable.func)
            if target in ("set", "frozenset"):
                yield self.finding(
                    relpath,
                    iterable,
                    f"iterating a bare {target}(): set order is salted "
                    f"per process — wrap in sorted() if the loop order "
                    f"can reach an output",
                )


# ----------------------------------------------------------------------
# ERR001 — error taxonomy at the serving boundary
# ----------------------------------------------------------------------
@rule
class ErrorTaxonomyRule(Rule):
    """Raises escaping the serving/codec core stay typed; no blanket
    ``except Exception`` swallows.

    The static face of the :class:`~repro.routing.serving.ServingError`
    hierarchy: a future RPC boundary can only translate failures it can
    *name*, so the serving and codec modules must raise the typed
    hierarchy (``ServingError``/``ShardCodecError`` subclasses — or
    ``ValueError`` for caller-side API misuse that never crosses the
    wire), never bare ``Exception``/``RuntimeError``/``OSError``.
    Symmetrically, a broad ``except Exception`` handler in these modules
    hides exactly the failures the hierarchy exists to surface — it is
    only legal when it re-raises.
    """

    id = "ERR001"
    title = (
        "serving/codec raises use the typed error hierarchy; broad "
        "excepts must re-raise"
    )
    paths = (
        "routing/serving.py",
        "routing/faults.py",
        "routing/shard_codec.py",
        "eval/validation.py",
        # every cluster module crosses the RPC boundary: untyped raises
        # there cannot be re-raised typed client-side
        "repro/cluster/",
        # the native tier's load/build/execute failures must stay the
        # NativeError hierarchy — REPRO_KERNEL=native surfaces them to
        # callers who dispatch on the type
        "repro/native/",
    )

    #: raising these crosses the boundary untyped
    _BANNED_RAISES = frozenset(
        {
            "Exception",
            "BaseException",
            "RuntimeError",
            "OSError",
            "IOError",
            "EnvironmentError",
            "FileNotFoundError",
            "PermissionError",
            "KeyError",
            "IndexError",
            "LookupError",
            "TypeError",
            "AttributeError",
        }
    )

    def check(
        self, tree: ast.Module, source: str, relpath: str
    ) -> List[Finding]:
        findings: List[Finding] = []
        local_classes = {
            node.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise):
                findings.extend(
                    self._check_raise(relpath, node, local_classes)
                )
            elif isinstance(node, ast.ExceptHandler):
                findings.extend(self._check_handler(relpath, node))
        return findings

    def _check_raise(
        self, relpath: str, node: ast.Raise, local_classes: Set[str]
    ) -> Iterator[Finding]:
        exc = node.exc
        if exc is None:
            return  # bare re-raise
        if isinstance(exc, ast.Call):
            exc = exc.func
        if not isinstance(exc, ast.Name):
            return  # dynamic/attribute raise: out of static reach
        name = exc.id
        if name in local_classes:
            return  # module-defined (typed) exception
        if name in self._BANNED_RAISES:
            yield self.finding(
                relpath,
                node,
                f"raise {name} crosses the serving boundary untyped — "
                f"raise a ServingError/ShardCodecError subclass so a "
                f"remote caller can translate the failure",
            )

    def _check_handler(
        self, relpath: str, node: ast.ExceptHandler
    ) -> Iterator[Finding]:
        broad = node.type is None or (
            isinstance(node.type, ast.Name)
            and node.type.id in ("Exception", "BaseException")
        )
        if not broad:
            return
        for child in ast.walk(node):
            if isinstance(child, ast.Raise) and child.exc is None:
                return  # cleanup-and-reraise is fine
        caught = (
            "bare except"
            if node.type is None
            else f"except {node.type.id}"  # type: ignore[union-attr]
        )
        yield self.finding(
            relpath,
            node,
            f"{caught} swallows the typed error hierarchy — catch "
            f"(ServingError, ShardCodecError, ...) explicitly, or "
            f"re-raise from a narrow fallback",
        )


# ----------------------------------------------------------------------
# RES001 — resource hygiene
# ----------------------------------------------------------------------
@rule
class ResourceHygieneRule(Rule):
    """Every raw OS resource in ``routing/`` / ``graph/parallel.py`` /
    ``native/`` has an owner.

    The static face of the ``pytest.ini`` ResourceWarning escalation:
    a raw handle — ``open()``, ``mmap.mmap()``, and since the parallel
    tier also ``multiprocessing.shared_memory.SharedMemory`` segments
    and process pools (``ProcessPoolExecutor`` / ``Pool``) — is legal
    only when (a) it is the context expression of a ``with`` block, or
    (b) it is created inside a class that defines ``close()`` (the
    ``DirectIO``/``SharedCSR`` discipline — something owns the
    resource's lifetime and the leak tests can see it).  Shared-memory
    segments leak *kernel* objects in ``/dev/shm``, not just fds, so an
    unowned one outlives the process.  The native tier adds two more
    raw-resource kinds: ``ctypes.CDLL`` handles (a loaded library stays
    mapped until the handle dies — ``NativeKernels`` owns it behind
    ``close()``) and compile temporary directories
    (``TemporaryDirectory``/``mkdtemp`` — an unowned one strands build
    litter in the kernel cache dir on every crashed compile).
    """

    id = "RES001"
    title = (
        "open()/mmap/SharedMemory/pools/CDLL/tempdirs in routing/, "
        "graph/parallel and native/ are owned by a with-block or a "
        "close()-bearing class"
    )
    paths = (
        "repro/routing/",
        "repro/graph/parallel.py",
        "repro/native/",
    )

    #: dotted spellings of calls that create a raw OS resource
    _TARGETS = (
        "open",
        "mmap.mmap",
        "SharedMemory",
        "shared_memory.SharedMemory",
        "multiprocessing.shared_memory.SharedMemory",
        "Pool",
        "multiprocessing.Pool",
        "ProcessPoolExecutor",
        "concurrent.futures.ProcessPoolExecutor",
        "futures.ProcessPoolExecutor",
        "CDLL",
        "ctypes.CDLL",
        "TemporaryDirectory",
        "tempfile.TemporaryDirectory",
        "mkdtemp",
        "tempfile.mkdtemp",
    )

    def check(
        self, tree: ast.Module, source: str, relpath: str
    ) -> List[Finding]:
        findings: List[Finding] = []
        in_with: Set[int] = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    for child in ast.walk(item.context_expr):
                        in_with.add(id(child))
        self._scan(tree, relpath, in_with, owns_close=False, out=findings)
        return findings

    def _scan(
        self,
        node: ast.AST,
        relpath: str,
        in_with: Set[int],
        owns_close: bool,
        out: List[Finding],
    ) -> None:
        for child in ast.iter_child_nodes(node):
            owns = owns_close
            if isinstance(child, ast.ClassDef):
                owns = any(
                    isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and item.name == "close"
                    for item in child.body
                )
            if isinstance(child, ast.Call):
                target = _dotted_name(child.func)
                if target in self._TARGETS and not (
                    id(child) in in_with or owns
                ):
                    out.append(
                        self.finding(
                            relpath,
                            child,
                            f"{target}() outside a with-block in a class "
                            f"without close() — nothing owns this "
                            f"resource's lifetime (the DirectIO/"
                            f"SharedCSR seam or a context manager must)",
                        )
                    )
            self._scan(child, relpath, in_with, owns, out)


# ----------------------------------------------------------------------
# GEN001 — generation-stamp discipline
# ----------------------------------------------------------------------
@rule
class StampDisciplineRule(Rule):
    """Identity-keyed caches must consult generation/version stamps.

    Substrate artifacts are shared across schemes on the strength of
    the generation stamps (:mod:`repro.api.substrate`): a cache keyed
    by object identity (``id(obj)``) outlives mutation *and* id reuse
    after garbage collection unless it also checks a stamp
    (``generation`` / ``_version`` / ``substrate_stamp``).  Likewise
    ``functools.lru_cache`` on a *method* keys the instance by
    equality/identity with no stamp at all (and pins it alive) — both
    are exactly how stale-artifact bugs are born.
    """

    id = "GEN001"
    title = (
        "id()-keyed caches check a generation/version stamp; no "
        "lru_cache on methods"
    )
    paths = ("repro/",)

    _STAMPS = frozenset(
        {"generation", "_version", "version", "substrate_stamp"}
    )
    _CACHE_DECOS = frozenset(
        {"lru_cache", "cache", "functools.lru_cache", "functools.cache"}
    )

    def check(
        self, tree: ast.Module, source: str, relpath: str
    ) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(
                        item, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        findings.extend(
                            self._check_decorators(relpath, node, item)
                        )
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                findings.extend(self._check_id_keys(relpath, node))
        return findings

    def _check_decorators(
        self,
        relpath: str,
        cls: ast.ClassDef,
        method: ast.FunctionDef,
    ) -> Iterator[Finding]:
        for deco in method.decorator_list:
            target = deco.func if isinstance(deco, ast.Call) else deco
            name = _dotted_name(target)
            if name in self._CACHE_DECOS:
                yield self.finding(
                    relpath,
                    deco,
                    f"functools caching on method "
                    f"{cls.name}.{method.name} keys (and pins) self with "
                    f"no generation stamp — memoize onto the instance "
                    f"behind a stamp check instead",
                )

    def _check_id_keys(
        self, relpath: str, fn: ast.FunctionDef
    ) -> Iterator[Finding]:
        id_key_nodes = [
            node
            for node in ast.walk(fn)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "id"
            and self._in_key_position(fn, node)
        ]
        if not id_key_nodes:
            return
        if self._mentions_stamp(fn):
            return
        yield self.finding(
            relpath,
            id_key_nodes[0],
            f"{fn.name} caches by object identity (id(...) key) without "
            f"consulting a generation/version stamp — ids are reused "
            f"after garbage collection and mutation invalidates nothing",
        )

    def _in_key_position(self, fn: ast.FunctionDef, call: ast.Call) -> bool:
        """Whether the ``id(...)`` call is used as a subscript key or a
        ``.get``/``.setdefault``/``.pop`` argument anywhere in ``fn``."""
        for node in ast.walk(fn):
            if isinstance(node, ast.Subscript):
                for child in ast.walk(node.slice):
                    if child is call:
                        return True
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("get", "setdefault", "pop")
            ):
                for arg in node.args:
                    for child in ast.walk(arg):
                        if child is call:
                            return True
        return False

    def _mentions_stamp(self, fn: ast.FunctionDef) -> bool:
        for node in ast.walk(fn):
            if isinstance(node, ast.Name) and node.id in self._STAMPS:
                return True
            if isinstance(node, ast.Attribute) and node.attr in self._STAMPS:
                return True
            if isinstance(node, ast.Constant) and node.value in self._STAMPS:
                return True
        return False


# ----------------------------------------------------------------------
# CODEC001 — codec layout audit
# ----------------------------------------------------------------------
@rule
class CodecLayoutRule(Rule):
    """Wire constants and struct formats match the declared layout table.

    The codecs' magic bytes, format versions, tag bytes and ``struct``
    formats are the on-disk/wire contract; the single source of truth is
    :data:`repro.analysis.layouts.DECLARED_LAYOUTS`.  This rule verifies
    every declared module-level constant still holds exactly its
    declared value, that none went missing, and that no *undeclared*
    literal struct format sneaks into a ``struct`` call — the static
    companion of the codec fuzz/rejection suites, which can only prove
    the implemented format is self-consistent, not that it is still the
    format we committed to.

    The native C scanner mirrors the same wire layout, so the rule also
    runs in text mode over declared ``.c`` files: every layout constant
    must appear as a ``#define NAME <int>`` with exactly the declared
    value — Python codec and C scanner can then only drift from the
    committed format together with the reviewable table, never apart.
    """

    id = "CODEC001"
    title = (
        "codec magic/version constants and struct formats match the "
        "declared layout table"
    )
    paths = tuple(DECLARED_LAYOUTS)

    _STRUCT_FNS = frozenset(
        {
            "struct.Struct",
            "struct.pack",
            "struct.unpack",
            "struct.pack_into",
            "struct.unpack_from",
            "struct.iter_unpack",
            "struct.calcsize",
            "Struct",
        }
    )

    #: ``#define NAME <integer literal>`` (hex or decimal) in a C source
    _C_DEFINE = re.compile(
        r"^\s*#\s*define\s+(?P<name>\w+)\s+"
        r"(?P<value>0[xX][0-9a-fA-F]+|\d+)\s*(?:/\*|//|$)"
    )

    def _layout_for(self, relpath: str) -> Optional[dict]:
        norm = relpath.replace("\\", "/")
        for key, declared in DECLARED_LAYOUTS.items():
            if norm == key or norm.endswith("/" + key):
                return declared
        return None

    def check_text(self, source: str, relpath: str) -> List[Finding]:
        """The C-file face of the rule: audit ``#define`` constants."""
        layout = self._layout_for(relpath)
        if layout is None:
            return []
        constants = dict(layout.get("constants", {}))
        findings: List[Finding] = []
        seen: Set[str] = set()
        for lineno, text in enumerate(source.splitlines(), start=1):
            match = self._C_DEFINE.match(text)
            if match is None:
                continue
            name = match.group("name")
            if name not in constants:
                continue
            seen.add(name)
            actual = int(match.group("value"), 0)
            if actual != constants[name]:
                findings.append(
                    Finding(
                        file=relpath,
                        line=lineno,
                        col=1,
                        rule=self.id,
                        message=(
                            f"#define {name} {match.group('value')} "
                            f"disagrees with the declared layout table "
                            f"({constants[name]!r}) — update "
                            f"repro/analysis/layouts.py in the same "
                            f"change as the wire format, or revert"
                        ),
                    )
                )
        for name in sorted(set(constants) - seen):
            findings.append(
                Finding(
                    file=relpath,
                    line=1,
                    col=1,
                    rule=self.id,
                    message=(
                        f"declared layout constant {name} has no "
                        f"#define in this C source — the layout table "
                        f"and the native scanner have drifted apart"
                    ),
                )
            )
        return findings

    def check(
        self, tree: ast.Module, source: str, relpath: str
    ) -> List[Finding]:
        layout = self._layout_for(relpath)
        if layout is None:
            return []
        findings: List[Finding] = []
        constants = dict(layout.get("constants", {}))
        structs = dict(layout.get("structs", {}))
        declared_formats = set(structs.values())
        seen: Set[str] = set()
        aliases = _import_aliases(tree)

        for node in tree.body:
            if not (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
            ):
                continue
            name = node.targets[0].id
            if name in constants:
                seen.add(name)
                expected = constants[name]
                actual = self._const_value(node.value)
                if actual != expected:
                    findings.append(
                        self._mismatch(
                            relpath, node.value, name, expected, actual
                        )
                    )
            elif name in structs:
                seen.add(name)
                fmt = self._struct_format(node.value, aliases)
                if fmt != structs[name]:
                    findings.append(
                        self._mismatch(
                            relpath, node.value, name, structs[name], fmt
                        )
                    )
        for name in sorted((set(constants) | set(structs)) - seen):
            findings.append(
                Finding(
                    file=relpath,
                    line=1,
                    col=1,
                    rule=self.id,
                    message=(
                        f"declared layout constant {name} has no "
                        f"module-level assignment — the layout table "
                        f"and the codec have drifted apart"
                    ),
                )
            )
        findings.extend(
            self._check_inline_formats(
                tree, relpath, declared_formats, aliases
            )
        )
        return findings

    def _mismatch(
        self,
        relpath: str,
        node: ast.AST,
        name: str,
        expected: object,
        actual: object,
    ) -> Finding:
        return Finding(
            file=relpath,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule=self.id,
            message=(
                f"{name} = {actual!r} disagrees with the declared "
                f"layout table ({expected!r}) — update "
                f"repro/analysis/layouts.py in the same change as the "
                f"wire format, or revert"
            ),
        )

    def _const_value(self, node: ast.AST):
        if isinstance(node, ast.Constant):
            return node.value
        return ast.dump(node)

    def _struct_format(
        self, node: ast.AST, aliases: Dict[str, str]
    ) -> Optional[str]:
        if (
            isinstance(node, ast.Call)
            and _resolve(_dotted_name(node.func) or "", aliases)
            == "struct.Struct"
            and node.args
            and isinstance(node.args[0], ast.Constant)
        ):
            value = node.args[0].value
            return value if isinstance(value, str) else None
        return None

    def _check_inline_formats(
        self,
        tree: ast.Module,
        relpath: str,
        declared_formats: Set[str],
        aliases: Dict[str, str],
    ) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            target = _resolve(_dotted_name(node.func) or "", aliases)
            if target not in self._STRUCT_FNS:
                continue
            if not (
                node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                continue
            fmt = node.args[0].value
            if fmt not in declared_formats:
                yield Finding(
                    file=relpath,
                    line=node.lineno,
                    col=node.col_offset + 1,
                    rule=self.id,
                    message=(
                        f"struct format {fmt!r} is not in the declared "
                        f"layout table — every wire format must be "
                        f"declared in repro/analysis/layouts.py"
                    ),
                )
