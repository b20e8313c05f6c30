"""``repro.api`` — the public build/serve surface of the reproduction.

Three layers, one import::

    from repro.api import build, SubstrateCache, load

    cache = SubstrateCache()            # share substrates across schemes
    session = build("thm11", graph, cache=cache, eps=0.6)
    result = session.route(0, 42)       # fixed-port simulator
    report = session.measure(count=500) # stretch vs the exact metric
    session.save("thm11.packs")         # checksummed per-vertex packs
    session2 = load("thm11.packs")      # serves without preprocessing

* **Registry** (:mod:`repro.api.registry`) — every scheme and baseline as
  a declarative :class:`SchemeSpec` (name, factory, parameter schema with
  defaults and validation, stretch bound, accepted graph classes).
* **Substrates** (:mod:`repro.api.substrate`) — per-graph memoized
  builders for the artifacts every scheme shares (metric, ports, ball
  families and first-edge ports, landmark samples, bunches, hierarchies),
  with generation stamps proving reuse.
* **Sessions** (:mod:`repro.api.session`) — a built scheme wrapped with
  ``route``/``measure``/``stats``/``validate``; ``save`` writes checksummed
  packs and ``load`` serves them lazily.
"""

from .registry import (
    ParamSpec,
    SchemeParamError,
    SchemeSpec,
    TABLE1_SCHEMES,
    UnknownPresetError,
    UnknownSchemeError,
    all_specs,
    get_spec,
    register,
    scheme_names,
)
from .session import RoutingSession, build_session as build, load
from .substrate import Substrate, SubstrateCache

__all__ = [
    "ParamSpec",
    "SchemeParamError",
    "SchemeSpec",
    "TABLE1_SCHEMES",
    "UnknownPresetError",
    "UnknownSchemeError",
    "all_specs",
    "get_spec",
    "register",
    "scheme_names",
    "RoutingSession",
    "build",
    "load",
    "Substrate",
    "SubstrateCache",
]
