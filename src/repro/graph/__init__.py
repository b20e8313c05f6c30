"""Graph substrate: representation, generators, shortest paths, metric view.

Every shortest-path search of a build runs on one engine, the flat-array
CSR kernel (:mod:`repro.graph.csr`, native when the compiled library
loads, else numpy): its threshold scan gives distance rows and cluster
scans, its hop columns give first hops and shortest-path trees.  The one
other search is :func:`repro.graph.shortest_paths.bounded_distance`, a
heap Dijkstra over a graph that is still growing.  Nothing here imports
scipy;
:meth:`Graph.to_csr` converts to a scipy matrix on request.
"""

from .core import Graph, GraphError
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
