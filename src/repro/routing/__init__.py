"""Distributed routing substrate: fixed-port model, simulator, Lemmas 2–3."""

from .ball_routing import BallRoutingScheme, BallRoutingTables
from .interval_routing import IntervalTreeRouting
from .model import (
    CompactRoutingScheme,
    Deliver,
    Forward,
    RouteAction,
    SchemeStats,
    SizedTable,
    words_of,
)
from .ports import PortAssignment
from .serving import (
    LocalRouter,
    ShardStore,
    open_store,
    write_shards,
)
from .shard_codec import decode_node_table, encode_node_table, header_bits
from .simulator import (
    RouteResult,
    SchemeEngine,
    StretchReport,
    as_engine,
    measure_stretch,
    route,
)
from .tables import NodeTable, compile_tables
from .tree_routing import TreeRouting, tree_step

__all__ = [
    "BallRoutingScheme",
    "header_bits",
    "IntervalTreeRouting",
    "BallRoutingTables",
    "CompactRoutingScheme",
    "Deliver",
    "Forward",
    "RouteAction",
    "SchemeStats",
    "SizedTable",
    "words_of",
    "PortAssignment",
    "LocalRouter",
    "ShardStore",
    "open_store",
    "write_shards",
    "decode_node_table",
    "encode_node_table",
    "NodeTable",
    "compile_tables",
    "RouteResult",
    "SchemeEngine",
    "StretchReport",
    "as_engine",
    "measure_stretch",
    "route",
    "TreeRouting",
    "tree_step",
]
