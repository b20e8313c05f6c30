"""Graph substrate: representation, generators, shortest paths, metric view.

Every shortest-path search runs on one engine, the flat-array CSR kernel
(:mod:`repro.graph.csr`, native when the compiled library loads, else
numpy): its threshold scan gives distance rows and cluster scans, its
hop columns give first hops and shortest-path trees.  ``REPRO_KERNEL=pure``
switches to the pure-Python references in
:mod:`repro.graph.shortest_paths`.  Nothing here imports scipy;
:meth:`Graph.to_csr` converts to a scipy matrix on request.
"""

from .core import Graph, GraphError
# numpy is a hard dependency of the metric import above, so the CSR
# kernel import needs no guard here; REPRO_KERNEL=pure still bypasses it
# at dispatch time.
from .csr import CSRGraph, csr_graph
from .metric import MetricView
from .trees import RootedTree

__all__ = [
    "Graph",
    "GraphError",
    "MetricView",
    "RootedTree",
    "CSRGraph",
    "csr_graph",
]
