"""Command-line entry point: ``python -m repro``.

Subcommands (all scheme names resolve through the ``repro.api`` registry):

* ``list-schemes`` — print every registered scheme spec (parameters,
  defaults, stretch bound, accepted graph classes),
* ``table1`` — regenerate the paper's Table 1 on a chosen topology,
  sharing one substrate (metric, ports, balls) across all five schemes,
* ``route`` — build one scheme and trace one message (or serve one from
  a shard directory with ``--shards``, loading only the visited shards),
* ``validate`` — run the structural validation checklist on a scheme,
* ``shard`` — build a scheme and persist it: per-vertex binary shards
  (the deployment layout: each node gets only its own table), packed
  into ``O(n / group_size)`` checksummed, mmap-able group files;
  ``--replicas R`` writes every group R times, ``--verify DIR`` sweeps
  an existing directory,
* ``load`` — open a shard directory (no preprocessing) and route or
  measure stretch on it,
* ``check`` — run the static invariant linter (``repro.analysis``) over
  the source tree; ``--json`` emits machine-readable findings,
* ``cluster`` — multi-process serving over a packed shard directory
  (``repro.cluster``): ``cluster serve`` starts a worker fleet and
  writes a ``cluster.json`` reconnect spec, ``cluster route`` routes
  through a fleet (ephemeral ``--shards``/``--workers`` or a running
  one via ``--cluster``) printing the same hop lines as ``route``,
  ``cluster status`` prints fleet health and aggregated serve counters.

Build-style subcommands accept ``--preset`` to apply the scheme's
workload-aware parameter preset for a graph family (see
``SchemeSpec.presets``); by default the preset matching ``--family`` is
applied automatically when the scheme defines one.
"""

from __future__ import annotations

import argparse
import sys

from .api import (
    SchemeParamError,
    SubstrateCache,
    TABLE1_SCHEMES,
    all_specs,
    build,
    get_spec,
    load as load_session,
    scheme_names,
)
from .eval.reporting import table
from .eval.workloads import FAMILIES, family_graph, sample_pairs


def _build_graph(family: str, n: int, seed: int, weighted: bool):
    try:
        return family_graph(family, n, seed, weighted=weighted)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None


def _resolve_preset(spec, family: str, preset_arg: str):
    """The preset a build-style subcommand should apply.

    ``auto`` (the default) picks the preset named after the graph family
    when the scheme defines one — the workload-aware default; ``none``
    disables presets; anything else is passed through verbatim (unknown
    names fail with the spec's preset list).
    """
    if preset_arg == "none":
        return None
    if preset_arg == "auto":
        return family if family in spec.presets else None
    return preset_arg


def _build_session(
    name: str, n: int, family: str, seed: int, preset_arg: str = "auto"
):
    """Build one scheme on its preferred variant of the topology."""
    spec = get_spec(name)
    weighted = spec.prefers_weighted and family != "geo"
    g = _build_graph(family, n, seed, weighted)
    preset = _resolve_preset(spec, family, preset_arg)
    try:
        spec.check_graph(g)
        session = build(name, g, seed=seed, preset=preset)
    except SchemeParamError as exc:
        raise SystemExit(str(exc)) from None
    if preset is not None and spec.preset_params(preset):
        print(
            f"[preset {preset}: "
            + ", ".join(
                f"{k}={v}" for k, v in spec.preset_params(preset).items()
            )
            + "]"
        )
    return session


def cmd_list_schemes(args) -> int:
    rows = []
    for spec in all_specs():
        params = ", ".join(
            f"{p.name}={p.default}" for p in spec.params
        )
        graphs = "any" if spec.weighted_capable else "unweighted"
        rows.append([spec.name, spec.stretch, graphs, params])
    print(f"{len(rows)} registered schemes:")
    print(table(["name", "stretch", "graphs", "parameters"], rows))
    print("\ndetails:")
    for spec in all_specs():
        print(f"  {spec.name:<12} {spec.summary}")
    return 0


def _wrap_pair(source: int, target: int, n: int) -> tuple:
    return source % n, target % n


def _hop_line(s: int, t: int, result) -> str:
    """The canonical `route s -> t: ...` line (built and shard-served
    routes must print it byte-identically — the CLI parity tests diff
    them)."""
    return f"route {s} -> {t}: {' -> '.join(map(str, result.path))}"


def _print_route(session, source: int, target: int) -> None:
    """Trace one message and print the path + measured stretch lines."""
    s, t = _wrap_pair(source, target, session.graph.n)
    result = session.route(s, t)
    print(_hop_line(s, t, result))
    d = session.metric.d(s, t)
    if d > 0:
        print(
            f"length {result.length:.4f} vs optimal {d:.4f} "
            f"(stretch {result.length / d:.4f})"
        )


def cmd_route(args) -> int:
    if args.max_resident is not None and not args.shards:
        raise SystemExit(
            "--max-resident bounds the shard LRU of a served directory; "
            "it requires --shards"
        )
    if args.shards:
        from .api import RoutingSession
        from .routing.serving import ServingError

        _reject_build_flags_with_shards(args)
        try:
            session = RoutingSession.from_shards(
                args.shards, max_resident=args.max_resident
            )
        except (OSError, ValueError, KeyError) as exc:
            raise SystemExit(
                f"cannot serve from {args.shards!r}: {exc}"
            ) from None
        print(session.describe())
        s, t = _wrap_pair(args.source, args.target, session.scheme.n)
        try:
            result = session.route(s, t)
        except ServingError as exc:
            raise SystemExit(
                f"cannot serve from {args.shards!r}: {exc}"
            ) from None
        # Snapshot the counters before anything global (e.g. the exact
        # metric) could touch more shards: the whole point is that one
        # route reads only the visited vertices' tables.
        stats = session.serve_stats()
        print(_hop_line(s, t, result))
        print(f"length {result.length:.4f} in {result.hops} hops")
        print(
            f"served from {stats['loads']} shard loads "
            f"({stats['bytes_read']} bytes; {stats['n']} shards on disk, "
            f"{stats['layout']} layout)"
        )
        if stats.get("headers_encoded"):
            print(
                f"wire headers: {stats['headers_encoded']} encoded, "
                f"{stats['header_bytes']} bytes total "
                f"(max {stats['max_header_bytes']})"
            )
        health = session.health()
        if health is not None and health["status"] != "ok":
            print(
                f"health: {health['status']} "
                f"(retries {health['retries']}, checksum failures "
                f"{health['checksum_failures']}, failovers "
                f"{health['failovers']}, repairs {health['repairs']})"
            )
        return 0
    session = _build_session(
        args.scheme, args.n, args.family, args.seed, args.preset
    )
    print(f"{session.name} on {session.graph}")
    _print_route(session, args.source, args.target)
    return 0


def cmd_validate(args) -> int:
    session = _build_session(
        args.scheme, args.n, args.family, args.seed, args.preset
    )
    result = session.validate(sample=args.pairs, seed=args.seed)
    print(f"{session.name} on {session.graph}")
    print(
        f"checked {result.checked_pairs} pairs: max stretch "
        f"{result.max_stretch:.4f}, max header {result.max_header_words} "
        f"words, max label {result.max_label_words} words"
    )
    if result.ok:
        print("validation: OK")
        return 0
    print("validation: FAILED")
    for problem in result.problems[:20]:
        print(f"  - {problem}")
    return 1


def cmd_table1(args) -> int:
    rows = []
    cache = SubstrateCache()
    graphs = {}  # one graph per (weighted?) variant, substrates shared
    substrate_seconds = 0.0
    scheme_seconds = 0.0
    presets_applied = set()  # presets that changed at least one param
    if args.preset not in ("auto", "none"):
        # Fail on a typo'd preset before any scheme is built, not after
        # the whole table has been computed at defaults.
        known = sorted(
            {p for s in map(get_spec, TABLE1_SCHEMES) for p in s.presets}
        )
        if args.preset not in known:
            raise SystemExit(
                f"unknown preset {args.preset!r}: no Table-1 scheme "
                f"defines it (known presets: {', '.join(known)})"
            )
    for name in TABLE1_SCHEMES:
        spec = get_spec(name)
        weighted = spec.prefers_weighted and args.family != "geo"
        if not spec.weighted_capable:
            if args.family == "geo":
                continue  # geometric graphs are weighted
            weighted = False
        if weighted not in graphs:
            graphs[weighted] = _build_graph(
                args.family, args.n, args.seed, weighted
            )
        g = graphs[weighted]
        if not spec.weighted_capable and not g.is_unweighted():
            continue
        preset = _resolve_preset(spec, args.family, args.preset)
        if preset is not None and preset not in spec.presets:
            preset = None  # baselines without presets build at defaults
        if preset is not None and spec.preset_params(preset):
            presets_applied.add(preset)
        session = build(name, g, cache=cache, seed=args.seed, preset=preset)
        substrate_seconds += session.substrate_seconds
        scheme_seconds += session.build_seconds
        pairs = sample_pairs(g.n, args.pairs, seed=args.seed + 5)
        rep = session.measure(pairs)
        stats = session.stats()
        rows.append(
            f"{session.name:<26} max={rep.max_stretch:<7.3f} "
            f"avg={rep.avg_stretch:<7.3f} tbl-avg={stats.avg_table_words:<9.1f}"
        )
    note = (
        f" [preset {', '.join(sorted(presets_applied))}]"
        if presets_applied else ""
    )
    print(f"Table 1 on family={args.family}, n={args.n}:{note}")
    for row in rows:
        print("  " + row)
    print(
        f"  [substrate {substrate_seconds:.2f}s shared across "
        f"{len(rows)} schemes; scheme builds {scheme_seconds:.2f}s]"
    )
    return 0


def cmd_shard(args) -> int:
    from .routing.serving import write_shards

    if args.verify is not None:
        return _verify_shard_dir(args.verify)
    if args.out is None:
        raise SystemExit("shard: --out is required (or use --verify DIR)")
    if args.replicas < 1:
        raise SystemExit(f"--replicas must be >= 1, got {args.replicas}")
    session = _build_session(
        args.scheme, args.n, args.family, args.seed, args.preset
    )
    manifest = write_shards(
        session.scheme,
        args.out,
        spec_name=session.spec_name,
        params=session.params,
        seed=session.seed,
        replicas=args.replicas,
    )
    print(f"{session.name} on {session.graph}")
    layout_note = (
        f"{manifest['files']['groups']} packed group files "
        f"(group size {manifest['group_size']}, checksummed"
        + (
            f", x{manifest['replicas']} replicas"
            if manifest["replicas"] > 1 else ""
        )
        + ")"
    )
    print(
        f"sharded to {args.out}: {manifest['n']} shards in "
        f"{layout_note}, {manifest['bytes']['total']} bytes total "
        f"(max {manifest['bytes']['max_shard']}, "
        f"avg {manifest['bytes']['avg_shard']}), codec v{manifest['codec']}"
    )
    print(
        f"word accounting: {manifest['words']['total_table_words']} table "
        f"words (reconciled with the in-memory scheme)"
    )
    return 0


def _verify_shard_dir(path: str) -> int:
    """`shard --verify DIR`: offline integrity sweep, exit 1 on damage."""
    from .routing.serving import verify_shard_dir

    try:
        report = verify_shard_dir(path)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"cannot verify {path!r}: {exc}") from None
    bad = {unit: err for unit, err in report.items() if err != "ok"}
    print(
        f"verified {path}: {len(report) - len(bad)}/{len(report)} "
        f"units intact"
    )
    for unit, err in sorted(bad.items()):
        print(f"  CORRUPT {unit}: {err}")
    return 1 if bad else 0


def cmd_check(args) -> int:
    from .analysis.__main__ import run as run_analysis

    forwarded = list(args.paths)
    if args.json:
        forwarded.append("--json")
    for rule_id in args.select or ():
        forwarded.extend(["--select", rule_id])
    if args.list_rules:
        forwarded.append("--list-rules")
    return run_analysis(forwarded)


def _print_cluster_routes(session, args) -> int:
    """Route through a cluster-backed session, printing the canonical
    hop lines (byte-identical to single-process ``route --shards``)."""
    router = session.scheme
    n = router.n
    if args.pairs:
        pairs = [
            _wrap_pair(s, t, n)
            for s, t in sample_pairs(n, args.pairs, seed=args.seed)
        ]
    else:
        pairs = [_wrap_pair(args.source, args.target, n)]
    print(session.describe())
    results = router.route_batch(pairs)
    for (s, t), result in zip(pairs, results):
        print(_hop_line(s, t, result))
    stats = session.serve_stats()
    print(
        f"{stats['routes']} routes, {stats['total_hops']} hops over "
        f"{stats['rpcs']} RPCs ({stats['wire']['frame_header_bytes']} "
        f"frame-header bytes, "
        f"{stats['wire']['payload_bytes_sent'] + stats['wire']['payload_bytes_received']} "
        f"payload bytes)"
    )
    print(
        f"fleet stores: {stats['store']['loads']} shard loads "
        f"({stats['store']['bytes_read']} bytes), failovers "
        f"{stats['failovers']}"
    )
    health = session.health()
    print(
        f"health: {health['status']} (serving: {health['serving']}, "
        f"dead workers: {health['dead_workers']})"
    )
    return 0


def cmd_cluster_serve(args) -> int:
    import signal
    import threading

    from .cluster import save_cluster_spec, start_cluster
    from .routing.serving import ServingError

    try:
        handle = start_cluster(
            args.shards,
            workers=args.workers,
            max_resident=args.max_resident,
            host=args.host,
        )
    except (OSError, ValueError, ServingError) as exc:
        raise SystemExit(
            f"cannot serve {args.shards!r}: {exc}"
        ) from None
    with handle:
        save_cluster_spec(args.out, handle.spec())
        print(
            f"cluster up: {handle.placement.workers} workers "
            f"x{handle.placement.replicas} replicas over {args.shards}"
        )
        for w, (host, port) in sorted(handle.addresses.items()):
            print(f"  worker {w}: {host}:{port}")
        print(f"spec written to {args.out}; SIGINT/SIGTERM stops")
        stop = threading.Event()

        def _stop(signum, frame):
            stop.set()

        signal.signal(signal.SIGINT, _stop)
        signal.signal(signal.SIGTERM, _stop)
        stop.wait()
        print("stopping cluster")
    return 0


def cmd_cluster_route(args) -> int:
    from .api import RoutingSession
    from .cluster import start_cluster
    from .routing.serving import ServingError

    if (args.cluster is None) == (args.shards is None):
        raise SystemExit(
            "cluster route: pass exactly one of --cluster SPEC "
            "(a running fleet) or --shards DIR (ephemeral fleet)"
        )
    if args.cluster is not None:
        try:
            session = RoutingSession.connect(args.cluster)
        except (OSError, ValueError, ServingError) as exc:
            raise SystemExit(
                f"cannot connect to {args.cluster!r}: {exc}"
            ) from None
        with session.scheme:
            return _print_cluster_routes(session, args)
    try:
        handle = start_cluster(
            args.shards,
            workers=args.workers,
            max_resident=args.max_resident,
        )
    except (OSError, ValueError, ServingError) as exc:
        raise SystemExit(
            f"cannot serve {args.shards!r}: {exc}"
        ) from None
    with handle:
        with handle.router() as router:
            session = RoutingSession(
                router,
                spec_name=router.spec_name or "?",
                loaded=True,
            )
            return _print_cluster_routes(session, args)


def cmd_cluster_status(args) -> int:
    from .api import RoutingSession
    from .routing.serving import ServingError

    try:
        session = RoutingSession.connect(args.cluster)
    except (OSError, ValueError, ServingError) as exc:
        raise SystemExit(
            f"cannot connect to {args.cluster!r}: {exc}"
        ) from None
    with session.scheme as router:
        print(session.describe())
        health = router.health()
        stats = router.cluster_stats()
        print(
            f"health: {health['status']} (serving: {health['serving']})"
        )
        for w in sorted(stats["per_worker"]):
            status = stats["per_worker"][w]
            if status is None:
                print(f"  worker {w}: DEAD")
                continue
            store = status["store"]
            print(
                f"  worker {w}: {len(status['owned_groups'] or ())} "
                f"groups, {store['loads']} loads, "
                f"{store['bytes_read']} bytes read, "
                f"{sum(status['requests'].values())} requests"
            )
        print(
            f"fleet: {stats['store']['loads']} loads, "
            f"{stats['store']['bytes_read']} bytes read, "
            f"checksum failures {stats['store']['checksum_failures']}, "
            f"store failovers {stats['store']['failovers']}"
        )
    return 0


def cmd_load(args) -> int:
    from .routing.serving import ServingError

    if args.measure is not None and args.measure < 1:
        raise SystemExit(f"--measure must be >= 1, got {args.measure}")
    try:
        session = load_session(args.path)
    except (OSError, ValueError, KeyError) as exc:
        raise SystemExit(f"cannot load {args.path!r}: {exc}") from None
    try:
        # the graph is reassembled from every shard, so even this line
        # reads (and checksums) the whole directory
        print(
            f"loaded {session.name} [{session.spec_name}] on {session.graph}"
        )
        if args.measure is None:
            _print_route(session, args.source, args.target)
            return 0
        rep = session.measure(count=args.measure, seed=args.seed)
    except ServingError as exc:
        raise SystemExit(f"cannot serve from {args.path!r}: {exc}") from None
    print(
        f"measured {args.measure} pairs: max stretch "
        f"{rep.max_stretch:.4f}, avg {rep.avg_stretch:.4f}"
    )
    return 0


#: build-style flag defaults — single source for _add_build_args and the
#: `route --shards` conflict check
_BUILD_DEFAULTS = {
    "scheme": "thm11",
    "family": "er",
    "n": 200,
    "seed": 0,
    "preset": "auto",
}


def _add_build_args(parser) -> None:
    parser.add_argument(
        "--scheme", default=_BUILD_DEFAULTS["scheme"],
        choices=scheme_names(),
    )
    parser.add_argument(
        "--family", default=_BUILD_DEFAULTS["family"], choices=FAMILIES
    )
    parser.add_argument("--n", type=int, default=_BUILD_DEFAULTS["n"])
    parser.add_argument("--seed", type=int, default=_BUILD_DEFAULTS["seed"])
    parser.add_argument(
        "--preset", default=_BUILD_DEFAULTS["preset"], metavar="NAME",
        help="workload-aware parameter preset: 'auto' (match --family, "
             "the default), 'none', or an explicit preset name",
    )


def _reject_build_flags_with_shards(args) -> None:
    """`--shards` serves what the manifest says — build flags conflict.

    Silently ignoring `--scheme thm10` while serving whatever the shard
    directory holds would let a user measure the wrong scheme without
    noticing; refuse instead.
    """
    overridden = [
        f"--{name}" for name, default in _BUILD_DEFAULTS.items()
        if getattr(args, name) != default
    ]
    if overridden:
        raise SystemExit(
            f"--shards serves the scheme/parameters recorded in the "
            f"shard manifest; {', '.join(overridden)} cannot apply — "
            f"drop the flag(s) or re-run `shard` with them"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser(
        "list-schemes", help="print the scheme registry"
    )
    p_list.set_defaults(func=cmd_list_schemes)

    p_route = sub.add_parser("route", help="trace one message")
    _add_build_args(p_route)
    p_route.add_argument("--source", type=int, default=0)
    p_route.add_argument("--target", type=int, default=42)
    p_route.add_argument(
        "--shards", default=None, metavar="DIR",
        help="serve from a shard directory written by `shard` instead "
             "of building (loads only the shards the route visits)",
    )
    p_route.add_argument(
        "--max-resident", type=int, default=None, metavar="K",
        help="with --shards: keep at most K decoded shards resident "
             "(the serving node's memory budget)",
    )
    p_route.set_defaults(func=cmd_route)

    p_val = sub.add_parser("validate", help="structural validation")
    _add_build_args(p_val)
    p_val.add_argument("--pairs", type=int, default=300)
    p_val.set_defaults(func=cmd_validate)

    p_t1 = sub.add_parser("table1", help="regenerate Table 1")
    p_t1.add_argument("--family", default="er", choices=FAMILIES)
    p_t1.add_argument("--n", type=int, default=250)
    p_t1.add_argument("--seed", type=int, default=0)
    p_t1.add_argument("--pairs", type=int, default=500)
    p_t1.add_argument(
        "--preset", default="auto", metavar="NAME",
        help="workload-aware parameter preset per scheme: 'auto' "
             "(match --family, the default), 'none', or a preset name",
    )
    p_t1.set_defaults(func=cmd_table1)

    p_shard = sub.add_parser(
        "shard",
        help="build a scheme and persist it as per-vertex binary "
             "shards in checksummed pack files",
    )
    _add_build_args(p_shard)
    p_shard.add_argument(
        "--out", default=None, help="output shard directory"
    )
    p_shard.add_argument(
        "--replicas", type=int, default=1, metavar="R",
        help="write every group to R replica roots; serving fails over "
             "on read/checksum errors",
    )
    p_shard.add_argument(
        "--verify", default=None, metavar="DIR",
        help="skip building: run an offline integrity sweep over an "
             "existing shard directory (exit 1 if any unit is corrupt)",
    )
    p_shard.set_defaults(func=cmd_shard)

    p_check = sub.add_parser(
        "check",
        help="run the static invariant linter (repro.analysis rules)",
    )
    p_check.add_argument(
        "paths", nargs="*", default=["src/repro"],
        help="files or directories to scan (default: src/repro)",
    )
    p_check.add_argument(
        "--select", action="append", metavar="RULE",
        help="run only this rule id (repeatable)",
    )
    p_check.add_argument(
        "--json", action="store_true",
        help="emit findings as JSON objects (file, line, col, rule, message)",
    )
    p_check.add_argument(
        "--list-rules", action="store_true",
        help="print the rule registry and exit",
    )
    p_check.set_defaults(func=cmd_check)

    p_cluster = sub.add_parser(
        "cluster",
        help="multi-process serving over packed shards (repro.cluster)",
    )
    cluster_sub = p_cluster.add_subparsers(
        dest="cluster_command", required=True
    )

    p_cserve = cluster_sub.add_parser(
        "serve", help="start a worker fleet and block until signalled"
    )
    p_cserve.add_argument(
        "--shards", required=True, metavar="DIR",
        help="shard directory (`shard [--replicas R]`)",
    )
    p_cserve.add_argument("--workers", type=int, default=4)
    p_cserve.add_argument(
        "--max-resident", type=int, default=None, metavar="K",
        help="per-worker decoded-shard LRU bound",
    )
    p_cserve.add_argument("--host", default="127.0.0.1")
    p_cserve.add_argument(
        "--out", default="cluster.json", metavar="PATH",
        help="where to write the reconnect spec (default cluster.json)",
    )
    p_cserve.set_defaults(func=cmd_cluster_serve)

    p_croute = cluster_sub.add_parser(
        "route", help="route messages through a worker fleet"
    )
    p_croute.add_argument(
        "--cluster", default=None, metavar="SPEC",
        help="cluster.json of a running fleet (from `cluster serve`)",
    )
    p_croute.add_argument(
        "--shards", default=None, metavar="DIR",
        help="start an ephemeral fleet over this shard directory",
    )
    p_croute.add_argument("--workers", type=int, default=4)
    p_croute.add_argument(
        "--max-resident", type=int, default=None, metavar="K",
        help="per-worker decoded-shard LRU bound (ephemeral fleet)",
    )
    p_croute.add_argument("--source", type=int, default=0)
    p_croute.add_argument("--target", type=int, default=42)
    p_croute.add_argument(
        "--pairs", type=int, default=0, metavar="P",
        help="route P seeded sampled pairs instead of --source/--target",
    )
    p_croute.add_argument("--seed", type=int, default=0)
    p_croute.set_defaults(func=cmd_cluster_route)

    p_cstatus = cluster_sub.add_parser(
        "status", help="fleet health and aggregated serve counters"
    )
    p_cstatus.add_argument(
        "--cluster", required=True, metavar="SPEC",
        help="cluster.json of the running fleet",
    )
    p_cstatus.set_defaults(func=cmd_cluster_status)

    p_load = sub.add_parser(
        "load", help="open a shard directory and serve it"
    )
    p_load.add_argument(
        "path", help="shard directory written by `shard --out`"
    )
    p_load.add_argument("--source", type=int, default=0)
    p_load.add_argument("--target", type=int, default=42)
    p_load.add_argument("--seed", type=int, default=0)
    p_load.add_argument(
        "--measure", type=int, default=None, metavar="PAIRS",
        help="measure stretch over PAIRS >= 1 sampled pairs instead of "
             "routing",
    )
    p_load.set_defaults(func=cmd_load)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
