"""End-to-end evaluation harness: build a scheme, route a workload, report.

This is what the benchmarks call: one function turns a (graph, scheme
factory, workload) triple into an :class:`Evaluation` record holding build
time, stretch statistics, space statistics and bound checks — the columns
of the paper's Table 1.

Comparative runs pass a shared :class:`repro.api.Substrate` handle so the
exact metric, port numbering and ball structures are built once per graph
instead of once per scheme; ``Evaluation`` then separates the shared
substrate-build time from the scheme's own construction time.  The
``factory`` may be a callable or a registered scheme name
(:mod:`repro.api.registry`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional, Sequence, Tuple, Union

from ..graph.core import Graph
from ..graph.metric import MetricView
from ..routing.model import CompactRoutingScheme, SchemeStats
from ..routing.simulator import StretchReport, measure_stretch

__all__ = ["Evaluation", "evaluate_scheme", "evaluate_oracle", "OracleEvaluation"]


@dataclass
class Evaluation:
    """One scheme on one graph on one workload."""

    name: str
    n: int
    m: int
    #: scheme construction time, excluding shared substrate builds
    build_seconds: float
    stretch: StretchReport
    stats: SchemeStats
    #: (alpha, beta) guarantee the scheme advertises
    bound: Tuple[float, float]
    #: time spent materializing the shared metric + ports (0.0 when the
    #: caller handed in a pre-built metric or warm substrate)
    substrate_seconds: float = 0.0

    @property
    def within_bound(self) -> bool:
        alpha, beta = self.bound
        return self.stretch.max_additive_over <= beta + 1e-9

    def row(self) -> str:
        alpha, beta = self.bound
        bound_text = (
            f"{alpha:.2f}" if beta == 0 else f"({alpha:.2f},{beta:.0f})"
        )
        flag = "ok" if self.within_bound else "VIOLATION"
        return (
            f"{self.name:<28} n={self.n:<6} bound={bound_text:<12} "
            f"max={self.stretch.max_stretch:<7.3f} "
            f"avg={self.stretch.avg_stretch:<7.3f} "
            f"tbl-avg={self.stats.avg_table_words:<9.1f} "
            f"tbl-max={self.stats.max_table_words:<8} "
            f"lbl={self.stats.max_label_words:<4} "
            f"hdr={self.stretch.max_header_words:<4} {flag}"
        )


def _normalize_bound(
    bound: Union[float, Tuple[float, float]]
) -> Tuple[float, float]:
    if isinstance(bound, tuple):
        return (float(bound[0]), float(bound[1]))
    return (float(bound), 0.0)


def _accepts_substrate(factory: Callable[..., Any]) -> bool:
    """Whether ``factory`` can take a ``substrate=`` keyword.

    Plain callables (the ``lambda g, metric: scheme`` idiom the benches
    use) must keep working when the caller also passes a substrate for
    timing/metric purposes — substrate injection is an opt-in extension
    of the factory contract, not part of it.
    """
    import inspect

    try:
        signature = inspect.signature(factory)
    except (TypeError, ValueError):
        return False
    for param in signature.parameters.values():
        if param.kind is inspect.Parameter.VAR_KEYWORD:
            return True
        if param.name == "substrate" and param.kind in (
            inspect.Parameter.KEYWORD_ONLY,
            inspect.Parameter.POSITIONAL_OR_KEYWORD,
        ):
            return True
    return False


def evaluate_scheme(
    graph: Graph,
    factory: Union[str, Callable[..., CompactRoutingScheme]],
    pairs: Iterable[Tuple[int, int]],
    *,
    metric: Optional[MetricView] = None,
    substrate: Optional[Any] = None,
    **factory_kwargs,
) -> Evaluation:
    """Build the scheme, route ``pairs``, report.

    ``factory`` is either a callable (invoked as
    ``factory(graph, metric=..., **kwargs)``) or a registered scheme name
    resolved through :mod:`repro.api.registry`.  A ``substrate`` handle is
    injected into the build and its core (metric + ports) is timed
    separately as ``substrate_seconds`` — on a warm handle that is ~0 and
    ``build_seconds`` is the scheme's own marginal cost.
    """
    if isinstance(factory, str):
        # Resolve and validate the spec BEFORE any substrate build: an
        # incompatible graph must fail fast, before any distance row.
        from ..api.registry import get_spec

        spec = get_spec(factory)
        spec.check_graph(graph)
        overrides = {
            k: v for k, v in factory_kwargs.items() if k != "seed"
        }
        params = spec.resolve_params(overrides)
        if "seed" in factory_kwargs:
            params["seed"] = factory_kwargs["seed"]
        factory_kwargs = params
        factory = spec.factory
    substrate_seconds = 0.0
    if substrate is not None:
        if metric is None:
            start = time.perf_counter()
            substrate.ensure_core()
            substrate_seconds = time.perf_counter() - start
            metric = substrate.metric
        if _accepts_substrate(factory):
            factory_kwargs["substrate"] = substrate
    elif metric is None:
        start = time.perf_counter()
        metric = MetricView(graph)
        substrate_seconds = time.perf_counter() - start
    start = time.perf_counter()
    scheme = factory(graph, metric=metric, **factory_kwargs)
    build_seconds = time.perf_counter() - start
    bound = _normalize_bound(scheme.stretch_bound())
    report = measure_stretch(
        scheme, metric, pairs, multiplicative_slack=bound[0]
    )
    return Evaluation(
        name=scheme.name,
        n=graph.n,
        m=graph.m,
        build_seconds=build_seconds,
        stretch=report,
        stats=scheme.stats(),
        bound=bound,
        substrate_seconds=substrate_seconds,
    )


@dataclass
class OracleEvaluation:
    """One distance oracle on one graph on one workload."""

    name: str
    n: int
    build_seconds: float
    pairs: int
    max_stretch: float
    avg_stretch: float
    max_additive_over: float
    total_words: int
    max_words_per_vertex: int
    bound: Tuple[float, float]

    @property
    def within_bound(self) -> bool:
        return self.max_additive_over <= self.bound[1] + 1e-9

    def row(self) -> str:
        alpha, beta = self.bound
        bound_text = f"{alpha:.2f}" if beta == 0 else f"({alpha:.2f},{beta:.0f})"
        flag = "ok" if self.within_bound else "VIOLATION"
        return (
            f"{self.name:<28} n={self.n:<6} bound={bound_text:<12} "
            f"max={self.max_stretch:<7.3f} avg={self.avg_stretch:<7.3f} "
            f"space-total={self.total_words:<10} "
            f"space-max={self.max_words_per_vertex:<8} {flag}"
        )


def evaluate_oracle(
    graph: Graph,
    factory: Callable[..., object],
    pairs: Sequence[Tuple[int, int]],
    *,
    metric: Optional[MetricView] = None,
    **factory_kwargs,
) -> OracleEvaluation:
    """Build a distance oracle and compare its answers with the exact metric."""
    metric = metric if metric is not None else MetricView(graph)
    start = time.perf_counter()
    oracle = factory(graph, metric=metric, **factory_kwargs)
    build_seconds = time.perf_counter() - start
    bound = _normalize_bound(oracle.stretch_bound())
    count = 0
    max_stretch = 0.0
    sum_stretch = 0.0
    max_over = float("-inf")
    for u, v in pairs:
        d = metric.d(u, v)
        if d <= 0:
            continue
        est = oracle.query(u, v)
        if est < d - metric.tol:
            raise RuntimeError(
                f"oracle {oracle.name} underestimates d({u},{v}): {est} < {d}"
            )
        count += 1
        stretch = est / d
        sum_stretch += stretch
        max_stretch = max(max_stretch, stretch)
        max_over = max(max_over, est - bound[0] * d)
    space = oracle.space_words()
    return OracleEvaluation(
        name=oracle.name,
        n=graph.n,
        build_seconds=build_seconds,
        pairs=count,
        max_stretch=max_stretch,
        avg_stretch=sum_stretch / count if count else 1.0,
        max_additive_over=max_over if count else 0.0,
        total_words=space["total"],
        max_words_per_vertex=space["max_per_vertex"],
        bound=bound,
    )
