"""Per-rule fixtures: every bad snippet flags, every good snippet passes,
suppression comments are honored."""

import textwrap

import pytest

from repro.analysis import analyze_source


def check(source, relpath, rule_id):
    """Rule ids of the findings ``rule_id`` produces on ``source``."""
    report = analyze_source(
        textwrap.dedent(source), relpath, select=[rule_id]
    )
    return report


def rules_fired(source, relpath, rule_id):
    return [f.rule for f in check(source, relpath, rule_id).findings]


# ----------------------------------------------------------------------
# LK001 — local knowledge
# ----------------------------------------------------------------------
LK_BAD = """\
    class FakeScheme:
        def shard_categories(self):
            return ("ball", f"ctree{0}")

        def step(self, v, header, target):
            table = self.table_of(v)
            return table.get("radius", v)
    """

LK_GOOD = """\
    class FakeScheme:
        def shard_categories(self):
            return ("ball", f"ctree{0}")

        def step(self, v, header, target, lvl=0):
            table = self.table_of(v)
            if table.has("ball", target):
                return table.get("ball", target)
            return table.get(f"ctree{lvl}", target)

        def _helper(self, table, root):
            return table.get("ball", root)
    """


def test_lk001_flags_undeclared_category_read():
    fired = rules_fired(LK_BAD, "repro/schemes/fake.py", "LK001")
    assert fired == ["LK001"]
    finding = check(LK_BAD, "repro/schemes/fake.py", "LK001").findings[0]
    assert "radius" in finding.message


def test_lk001_passes_declared_literals_and_fstring_prefixes():
    assert rules_fired(LK_GOOD, "repro/schemes/fake.py", "LK001") == []


def test_lk001_ignores_build_time_and_out_of_scope_code():
    # __init__ may read anything (it runs at build time), and modules
    # outside schemes/baselines are not scoped.
    source = """\
        class FakeScheme:
            def __init__(self):
                table = self.table_of(0)
                table.get("scratch", 0)

            def shard_categories(self):
                return ("ball",)

            def step(self, v, header, target):
                table = self.table_of(v)
                return table.get("ball", target)
        """
    assert rules_fired(source, "repro/schemes/fake.py", "LK001") == []
    assert rules_fired(LK_BAD, "repro/eval/fake.py", "LK001") == []


def test_lk001_suppression():
    suppressed = LK_BAD.replace(
        'table.get("radius", v)',
        'table.get("radius", v)  # repro: noqa LK001 — fixture',
    )
    report = check(suppressed, "repro/schemes/fake.py", "LK001")
    assert report.findings == []
    assert report.suppressed == 1


# ----------------------------------------------------------------------
# DET001 — determinism
# ----------------------------------------------------------------------
def test_det001_flags_global_rng():
    source = """\
        import random
        x = random.randrange(10)
        """
    assert rules_fired(source, "repro/structures/fake.py", "DET001") == [
        "DET001"
    ]


def test_det001_flags_unseeded_random_instance():
    source = """\
        import random
        rng = random.Random()
        """
    assert rules_fired(source, "repro/structures/fake.py", "DET001") == [
        "DET001"
    ]


def test_det001_flags_wall_clock():
    source = """\
        import time
        stamp = time.time()
        """
    assert rules_fired(source, "repro/eval/fake.py", "DET001") == [
        "DET001"
    ]


def test_det001_flags_bare_set_iteration():
    source = """\
        def order(items):
            out = []
            for x in set(items):
                out.append(x)
            return out + [y for y in {1, 2}]
        """
    assert rules_fired(source, "repro/core/fake.py", "DET001") == [
        "DET001",
        "DET001",
    ]


def test_det001_good_patterns_pass():
    source = """\
        import random
        import time
        from numpy.random import default_rng

        def run(items, seed):
            rng = random.Random(seed)
            gen = default_rng(seed)
            t0 = time.perf_counter()
            ordered = [x for x in sorted(set(items))]
            return rng.randrange(10), time.perf_counter() - t0, ordered
        """
    assert rules_fired(source, "repro/core/fake.py", "DET001") == []


def test_det001_resolves_import_aliases():
    source = """\
        from random import randrange
        x = randrange(10)
        """
    assert rules_fired(source, "repro/core/fake.py", "DET001") == [
        "DET001"
    ]


# ----------------------------------------------------------------------
# ERR001 — error taxonomy
# ----------------------------------------------------------------------
def test_err001_flags_untyped_raise():
    source = "raise RuntimeError('boom')\n"
    assert rules_fired(source, "repro/routing/serving.py", "ERR001") == [
        "ERR001"
    ]


def test_err001_flags_swallowing_broad_except():
    source = """\
        try:
            work()
        except Exception:
            pass
        """
    assert rules_fired(source, "repro/routing/serving.py", "ERR001") == [
        "ERR001"
    ]


def test_err001_allows_typed_raises_and_reraising_excepts():
    source = """\
        class LocalTypedError(ValueError):
            pass

        def a():
            raise LocalTypedError("typed")

        def b():
            raise ValueError("api misuse stays legal")

        def c():
            try:
                work()
            except BaseException:
                cleanup()
                raise
        """
    assert rules_fired(source, "repro/routing/serving.py", "ERR001") == []


def test_err001_out_of_scope_module_is_ignored():
    source = "raise RuntimeError('boom')\n"
    assert rules_fired(source, "repro/schemes/fake.py", "ERR001") == []


def test_err001_suppression():
    source = (
        "raise FileNotFoundError('x')"
        "  # repro: noqa ERR001 — injected fault\n"
    )
    report = check(source, "repro/routing/faults.py", "ERR001")
    assert report.findings == []
    assert report.suppressed == 1


# every cluster module crosses the RPC boundary, so the whole package
# is in ERR001's scope — untyped raises there could never be re-raised
# typed client-side
ERR_CLUSTER_BAD = """\
    import socket

    def pump(sock):
        try:
            sock.sendall(b"x")
        except OSError:
            raise RuntimeError("worker gone")
    """

ERR_CLUSTER_GOOD = """\
    import socket

    class WorkerUnavailableError(ConnectionError):
        pass

    def pump(sock):
        try:
            sock.sendall(b"x")
        except OSError as exc:
            raise WorkerUnavailableError(f"worker gone: {exc}") from exc
    """


@pytest.mark.parametrize(
    "relpath",
    [
        "repro/cluster/wire.py",
        "repro/cluster/worker.py",
        "repro/cluster/router.py",
        "repro/cluster/driver.py",
        "repro/cluster/placement.py",
    ],
)
def test_err001_covers_every_cluster_module(relpath):
    assert rules_fired(ERR_CLUSTER_BAD, relpath, "ERR001") == ["ERR001"]
    assert rules_fired(ERR_CLUSTER_GOOD, relpath, "ERR001") == []


# ----------------------------------------------------------------------
# RES001 — resource hygiene
# ----------------------------------------------------------------------
def test_res001_flags_unowned_open():
    source = """\
        def peek(path):
            fh = open(path, "rb")
            return fh.read(2)
        """
    assert rules_fired(source, "repro/routing/fake.py", "RES001") == [
        "RES001"
    ]


def test_res001_flags_unowned_mmap():
    source = """\
        import mmap

        class NoClose:
            def load(self, fh):
                self.m = mmap.mmap(fh.fileno(), 0)
        """
    assert rules_fired(source, "repro/routing/fake.py", "RES001") == [
        "RES001"
    ]


def test_res001_allows_with_blocks_and_close_bearing_classes():
    source = """\
        import mmap

        def peek(path):
            with open(path, "rb") as fh:
                return fh.read(2)

        class OwnedIO:
            def load(self, path):
                with open(path, "rb") as fh:
                    self.m = mmap.mmap(fh.fileno(), 0)
                self.fh = open(path, "rb")

            def close(self):
                self.m.close()
                self.fh.close()
        """
    assert rules_fired(source, "repro/routing/fake.py", "RES001") == []


def test_res001_only_scopes_routing():
    source = "fh = open('x', 'rb')\n"
    assert rules_fired(source, "repro/eval/fake.py", "RES001") == []


def test_res001_flags_unowned_shared_memory():
    source = """\
        from multiprocessing import shared_memory

        def publish(nbytes):
            shm = shared_memory.SharedMemory(create=True, size=nbytes)
            return shm.name
        """
    assert rules_fired(source, "repro/graph/parallel.py", "RES001") == [
        "RES001"
    ]


def test_res001_flags_unowned_pool():
    source = """\
        from concurrent.futures import ProcessPoolExecutor

        def fan_out(tasks):
            ex = ProcessPoolExecutor(max_workers=4)
            return [f.result() for f in map(ex.submit, tasks)]
        """
    assert rules_fired(source, "repro/graph/parallel.py", "RES001") == [
        "RES001"
    ]


def test_res001_allows_owned_shared_memory_and_pools():
    source = """\
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import shared_memory

        class SharedSegment:
            def __init__(self, nbytes):
                self.shm = shared_memory.SharedMemory(
                    create=True, size=nbytes
                )

            def close(self):
                self.shm.close()
                self.shm.unlink()

        def fan_out(tasks):
            with ProcessPoolExecutor(max_workers=4) as ex:
                return [f.result() for f in map(ex.submit, tasks)]
        """
    assert rules_fired(source, "repro/graph/parallel.py", "RES001") == []


def test_res001_scopes_graph_to_parallel_module_only():
    # graph/ outside parallel.py is out of scope (csr.py etc. hold no
    # OS resources); parallel.py is in scope per the extended rule.
    source = "shm = SharedMemory(create=True, size=64)\n"
    assert rules_fired(source, "repro/graph/csr.py", "RES001") == []
    assert rules_fired(source, "repro/graph/parallel.py", "RES001") == [
        "RES001"
    ]


# ----------------------------------------------------------------------
# GEN001 — stamp discipline
# ----------------------------------------------------------------------
def test_gen001_flags_lru_cache_on_method():
    source = """\
        import functools

        class Substrate:
            @functools.lru_cache(maxsize=None)
            def balls(self):
                return compute(self)
        """
    assert rules_fired(source, "repro/api/fake.py", "GEN001") == [
        "GEN001"
    ]


def test_gen001_flags_id_keyed_cache_without_stamp():
    source = """\
        def cached(cache, graph):
            hit = cache.get(id(graph))
            if hit is None:
                hit = build(graph)
                cache[id(graph)] = hit
            return hit
        """
    assert rules_fired(source, "repro/api/fake.py", "GEN001") == [
        "GEN001"
    ]


def test_gen001_allows_stamped_id_cache_and_module_level_lru():
    source = """\
        import functools

        @functools.lru_cache(maxsize=None)
        def pure(n):
            return n * n

        def cached(cache, graph):
            version = getattr(graph, "_version", 0)
            entry = cache.get(id(graph))
            if entry is not None and entry[0] == version:
                return entry[1]
            built = build(graph)
            cache[id(graph)] = (version, built)
            return built
        """
    assert rules_fired(source, "repro/api/fake.py", "GEN001") == []


# ----------------------------------------------------------------------
# CODEC001 — codec layout audit
# ----------------------------------------------------------------------
#: mirrors the declared ``shard_codec.py`` layout, constant by constant
CODEC_PY_FIXTURE = """\
import struct
MAGIC = b"RT"
CODEC_VERSION = 1
PACK_MAGIC = b"RTPK"
PACK_VERSION = 1
PACK_VERSION_CRC = 2
_FLAG_UNIT_WEIGHTS = 0x01
_T_NONE = 0x00
_T_FALSE = 0x01
_T_TRUE = 0x02
_T_INT = 0x03
_T_FLOAT = 0x04
_T_STR = 0x05
_T_TUPLE = 0x06
_T_LIST = 0x07
_T_DICT = 0x08
_T_COUNT = 0xF1
_STR_OFFSET_BITS = 40
MAX_VALUE_DEPTH = 200
_PACK_ENTRY = struct.Struct("<IQI")
_PACK_ENTRY_CRC = struct.Struct("<IQII")
_INDEX_CRC = struct.Struct("<I")
_PACK_HEADER = struct.Struct("<4sBBI")
_DOUBLE = struct.Struct("<d")
"""


def test_codec001_flags_constant_drift():
    source = CODEC_PY_FIXTURE.replace("_T_NONE = 0x00", "_T_NONE = 9")
    report = check(source, "repro/routing/shard_codec.py", "CODEC001")
    assert [f.rule for f in report.findings] == ["CODEC001"]
    assert "_T_NONE" in report.findings[0].message


def test_codec001_flags_missing_declared_constant():
    source = "_T_NONE = 0\n"
    report = check(source, "repro/routing/shard_codec.py", "CODEC001")
    missing = {
        f.message.split()[3] for f in report.findings
    }  # "declared layout constant NAME has no ..."
    assert "_T_INT" in missing


def test_codec001_flags_undeclared_struct_format():
    source = CODEC_PY_FIXTURE + '_ROGUE = struct.Struct("<QQ")\n'
    report = check(source, "repro/routing/shard_codec.py", "CODEC001")
    assert [f.rule for f in report.findings] == ["CODEC001"]
    assert "<QQ" in report.findings[0].message


def test_codec001_real_codecs_match_declared_layouts():
    """Every layout entry names a file under ``src/`` that CODEC001
    passes, so an entry for a deleted codec fails here."""
    from pathlib import Path

    import repro
    from repro.analysis.layouts import DECLARED_LAYOUTS

    src = Path(repro.__file__).resolve().parent.parent
    for relpath in DECLARED_LAYOUTS:
        path = src / relpath
        assert path.is_file(), f"{relpath} is declared but missing"
        report = analyze_source(
            path.read_text(encoding="utf-8"), relpath,
            select=["CODEC001"],
        )
        assert report.findings == [], [
            f.render() for f in report.findings
        ]


# ----------------------------------------------------------------------
# native tier coverage: ERR001 / RES001 scope, CODEC001 C mode
# ----------------------------------------------------------------------
def test_err001_covers_native_modules():
    bad = "raise RuntimeError('compiler exploded')\n"
    assert rules_fired(bad, "repro/native/__init__.py", "ERR001") == [
        "ERR001"
    ]
    good = """\
        class NativeBuildError(RuntimeError):
            pass

        def build():
            raise NativeBuildError("cc failed")
        """
    assert rules_fired(good, "repro/native/__init__.py", "ERR001") == []


def test_res001_flags_unowned_cdll_and_tempdirs():
    source = """\
        import ctypes
        import tempfile

        def load(path):
            lib = ctypes.CDLL(path)
            scratch = tempfile.mkdtemp()
            return lib, scratch
        """
    assert rules_fired(source, "repro/native/__init__.py", "RES001") == [
        "RES001",
        "RES001",
    ]


def test_res001_allows_owned_cdll_and_tempdirs():
    source = """\
        import ctypes
        import tempfile

        class Kernels:
            def __init__(self, path):
                self.lib = ctypes.CDLL(path)

            def close(self):
                self.lib = None

        def build(cc, target):
            with tempfile.TemporaryDirectory() as tmp:
                compile_into(cc, tmp, target)
        """
    assert rules_fired(source, "repro/native/__init__.py", "RES001") == []


CODEC_C_FIXTURE = """\
#define RT_MAGIC_0 0x52
#define RT_MAGIC_1 0x54
#define RT_CODEC_VERSION 1
#define RT_FLAG_UNIT_WEIGHTS 0x01
#define RT_T_NONE 0x00
#define RT_T_FALSE 0x01
#define RT_T_TRUE 0x02
#define RT_T_INT 0x03
#define RT_T_FLOAT 0x04
#define RT_T_STR 0x05
#define RT_T_TUPLE 0x06
#define RT_T_LIST 0x07
#define RT_T_DICT 0x08
#define RT_T_COUNT 0xF1
#define STR_OFFSET_BITS 40
#define MAX_VALUE_DEPTH 200
"""


def test_codec001_c_mode_accepts_matching_defines():
    report = check(CODEC_C_FIXTURE, "repro/native/_kernels.c", "CODEC001")
    assert report.findings == []


def test_codec001_c_mode_flags_value_drift():
    drifted = CODEC_C_FIXTURE.replace(
        "#define RT_T_DICT 0x08", "#define RT_T_DICT 0x09"
    )
    report = check(drifted, "repro/native/_kernels.c", "CODEC001")
    assert [f.rule for f in report.findings] == ["CODEC001"]
    assert "RT_T_DICT" in report.findings[0].message


def test_codec001_c_mode_flags_missing_define():
    gone = CODEC_C_FIXTURE.replace("#define RT_T_COUNT 0xF1\n", "")
    report = check(gone, "repro/native/_kernels.c", "CODEC001")
    assert any("RT_T_COUNT" in f.message for f in report.findings)


def test_codec001_c_mode_honors_slash_noqa():
    drifted = CODEC_C_FIXTURE.replace(
        "#define RT_T_DICT 0x08",
        "#define RT_T_DICT 0x09 // repro: noqa CODEC001 - fixture",
    )
    report = check(drifted, "repro/native/_kernels.c", "CODEC001")
    assert report.findings == []
    assert report.suppressed == 1


def test_codec001_real_c_scanner_matches_declared_layout():
    import repro.native as native

    with open(native.source_path(), encoding="utf-8") as fh:
        source = fh.read()
    report = analyze_source(
        source, "repro/native/_kernels.c", select=["CODEC001"]
    )
    assert report.findings == [], [f.render() for f in report.findings]


def test_c_files_pass_through_pure_ast_rules():
    # DET001 scopes all of repro/ but is a pure-AST rule: the text-mode
    # dispatch must leave it inert on C sources instead of crashing.
    report = check("int x = 1;\n", "repro/native/_kernels.c", "DET001")
    assert report.findings == []
