"""Name-independent (3+eps)-stretch routing (Section 4 remark).

The paper notes that Technique 1 plus the hash-based coloring of Abraham et
al. yields a *name-independent* scheme: the sender knows only the
destination's name ``v`` (no preprocessing-assigned label).  Everything the
warm-up scheme read from the label is recomputed locally:

* the color ``c(v) = hash(v; seed) mod q`` is a seeded hash of the name —
  every vertex stores the (single-word) seed and evaluates it locally,
* the Lemma 7 sequence and any tree label for ``v`` are stored at the
  *routing-side* vertices (the color class of ``v``), never at the sender.

Tables stay ``Õ(sqrt(n)/eps)``; the label is literally the vertex name.
"""

from __future__ import annotations

from typing import Any, List

from ..routing.model import SizedTable
from ..structures.coloring import hash_color
from .warmup3 import Warmup3Scheme

__all__ = ["NameIndependent3Eps"]


class NameIndependent3Eps(Warmup3Scheme):
    """Name-independent (3+eps)-stretch scheme with ``Õ(sqrt n/eps)`` tables.

    The warm-up's construction and routing with a hashed coloring: the
    label is the name, and a vertex evaluates ``c(name)`` from the
    hash seed and color count in its own table.
    """

    name = "name-independent 3+eps"

    def _coloring(self, seed: int) -> List[int]:
        self.hash_seed, colors = self._substrate.hash_coloring(
            self.family.ell, self.q, seed
        )
        return colors

    def _install_consts(self, table: SizedTable) -> None:
        # The hash seed and color count are O(1) global constants each
        # vertex carries so it can evaluate c(name) locally.
        table.put("const", "hash_seed", self.hash_seed)
        table.put("const", "q", self.q)

    def _label(self, v: int) -> Any:
        return v  # the name itself — nothing else

    @staticmethod
    def _name(label: Any) -> int:
        return label

    def _color_of(self, table: SizedTable, label: Any) -> int:
        return hash_color(
            label, table.get("const", "q"), table.get("const", "hash_seed")
        )

    def shard_categories(self) -> frozenset:
        """As the warm-up, plus the ``const`` hash-seed words."""
        return super().shard_categories() | {"const"}
