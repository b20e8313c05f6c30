"""Shared benchmark infrastructure.

Every bench records its paper-style rows through the ``report`` fixture;
the rows are printed in the terminal summary, so ``pytest
benchmarks/bench_table1_weighted.py`` shows the regenerated table next
to pytest-benchmark's timing table.  Nothing is written to disk from the
summary.

Smoke mode
----------
Setting ``REPRO_BENCH_SMOKE=1`` switches benches that opt in (via the
``bench_scale`` fixture or :func:`smoke_scale`) to toy problem sizes, so
``REPRO_BENCH_SMOKE=1 pytest benchmarks/bench_parallel.py`` completes in
seconds.  This keeps the benchmarks exercised (and un-bit-rotted) by
cheap CI runs without paying full experiment cost; full-size runs simply
omit the variable.  Smoke runs never write ``BENCH_kernel.json``: only
full runs of ``bench_parallel.py`` and ``bench_presets.py`` merge their
key into it.
"""

from __future__ import annotations

import json
import os
from collections import OrderedDict
from typing import Dict, List

import pytest

from repro.eval.reporting import banner

#: REPRO_BENCH_SMOKE in {1, true, yes, on} => benches shrink to smoke
#: sizes; anything else (including "off"/"no") keeps the full run, so an
#: unrecognized value never silently skips the full-size gates.
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "").strip().lower() in (
    "1",
    "true",
    "yes",
    "on",
)


def smoke_scale(full, smoke):
    """``smoke`` under REPRO_BENCH_SMOKE=1, ``full`` otherwise."""
    return smoke if SMOKE else full


def available_cores() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def host_stamp() -> dict:
    """What a recorded number was measured with: usable cores, the
    resolved ``REPRO_KERNEL`` mode and the ``REPRO_PARALLEL`` setting."""
    from repro.graph.shortest_paths import kernel_mode

    return {
        "cores": available_cores(),
        "kernel": kernel_mode(),
        "repro_parallel": os.environ.get("REPRO_PARALLEL", ""),
    }


def merge_bench_results(path: str, updates: dict) -> None:
    """Read-merge-write a shared JSON results file.

    Two benches own sibling keys in ``BENCH_kernel.json``
    (``bench_parallel`` the ``parallel`` key, ``bench_presets`` the
    ``preset_frontier`` key); merging instead of overwriting keeps one
    bench's full-run numbers alive across the other's runs.  The
    write is atomic (tmp file + rename) so an interrupted run can never
    leave a truncated file, and a corrupt existing file raises instead
    of being silently reset — committed numbers must not vanish.
    """
    merged: dict = {}
    try:
        with open(path) as fh:
            merged = json.load(fh)
    except FileNotFoundError:
        merged = {}  # no file yet — first full run
    except ValueError as exc:
        raise RuntimeError(
            f"{path} holds invalid JSON; refusing to overwrite committed "
            f"bench results — repair or delete it first"
        ) from exc
    merged.update(updates)
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w") as fh:
        json.dump(merged, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


@pytest.fixture(scope="session")
def bench_scale():
    """Fixture form of :func:`smoke_scale` for bench test functions."""
    return smoke_scale


_SECTIONS: "OrderedDict[str, List[str]]" = OrderedDict()


class Reporter:
    """Collects output lines per experiment section."""

    def section(self, title: str) -> None:
        _SECTIONS.setdefault(title, [])
        self._current = title

    def line(self, text: str, title: str | None = None) -> None:
        key = title if title is not None else self._current
        _SECTIONS.setdefault(key, []).append(text)


@pytest.fixture(scope="session")
def report() -> Reporter:
    return Reporter()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _SECTIONS:
        return
    terminalreporter.write_line("")
    for title, lines in _SECTIONS.items():
        terminalreporter.write_line(banner(title), bold=True)
        for line in lines:
            terminalreporter.write_line(line)
        terminalreporter.write_line("")
