"""Paper-style text tables for benchmark output.

Each benchmark prints the table or figure series it regenerates; these
helpers keep the formatting consistent and embed the paper's *theoretical*
reference rows next to measured ones (for comparators we do not reimplement,
e.g. Abraham–Gavoille and Chechik, whose rows are the paper's stated bounds).
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

__all__ = ["banner", "reference_row", "table", "PAPER_TABLE1_REFERENCE"]

#: The paper's Table 1 reference rows (scheme, graph class, stretch, table
#: size) — printed alongside measured numbers.
PAPER_TABLE1_REFERENCE: List[tuple] = [
    ("Abraham-Gavoille [1]", "unweighted", "(2,1)", "Õ(n^3/4)  [reference only]"),
    ("Thorup-Zwick [21] k=2", "weighted", "3", "Õ(n^1/2)"),
    ("Thorup-Zwick [21] k=3", "weighted", "7", "Õ(n^1/3)"),
    ("Chechik [10]", "weighted", "10.52", "Õ(n^1/4 logD) [reference only]"),
    ("Theorem 10", "unweighted", "(2+eps,1)", "Õ(n^2/3 /eps)"),
    ("Theorem 13 (l=3)", "unweighted", "(2 1/3+eps,2)", "Õ(n^3/5 /eps)"),
    ("Theorem 15 (l=2)", "unweighted", "(4+eps,2)", "Õ(n^2/5 /eps)"),
    ("Theorem 11", "weighted", "5+eps", "Õ(n^1/3 logD /eps)"),
    ("Theorem 16 (k=4)", "weighted", "9+eps", "Õ(n^1/4 logD /eps)"),
]


def banner(title: str, width: int = 100) -> str:
    """A section banner line."""
    pad = max(0, width - len(title) - 4)
    return f"== {title} {'=' * pad}"


def reference_row(entry: tuple) -> str:
    """One Table 1 reference row."""
    scheme, graph, stretch, size = entry
    return f"   [paper] {scheme:<26} {graph:<11} stretch={stretch:<14} tables={size}"


def table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """A fixed-width text table."""
    rows = [list(map(str, r)) for r in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(row: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
    lines = [fmt(list(headers)), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)
