"""Command-line interface: regenerate any paper exhibit from a shell.

Installed as ``python -m repro``.  Subcommands map one-to-one onto the
exhibits and evaluation tools::

    python -m repro machines                 # the testbed roster
    python -m repro linpack --order 25000    # exhibit T4-4a
    python -m repro funding                  # exhibit T4-3
    python -m repro responsibilities         # exhibit T4-2
    python -m repro network --gigabytes 1    # exhibit T4-5
    python -m repro trajectory               # the teraops projection
    python -m repro scaling --workload cfd --ranks 1,2,4,8
    python -m repro challenges               # Grand Challenge registry
    python -m repro lint examples            # static rank-program checks
    python -m repro profile lu --export trace.json   # critical path + trace
    python -m repro serve --port 8732        # simulation-as-a-service API
    python -m repro cache stats              # run-cache management
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.util.errors import ReproError


def _cmd_machines(args) -> str:
    from repro.machine import PRESETS, get_machine

    lines = []
    for name in sorted(PRESETS):
        lines.append(f"[{name}] {get_machine(name).describe()}")
    return "\n".join(lines)


def _cmd_linpack(args) -> str:
    from repro.linalg import HPLModel, delta_linpack
    from repro.machine import touchstone_delta
    from repro.util.tables import render_table

    point = delta_linpack(args.order)
    model = HPLModel(touchstone_delta())
    sweep = model.sweep(sorted({1000, 5000, 10000, args.order}))
    table = render_table(
        ["Order", "GFLOPS", "% of peak", "Time (s)"],
        [[p.n, p.gflops, 100 * p.fraction_of_peak, p.time_s] for p in sweep],
        title="Touchstone Delta LINPACK model",
        float_fmt=",.2f",
    )
    return (
        f"peak {point['peak_gflops']:.1f} GFLOPS; LINPACK at n={args.order}: "
        f"{point['linpack_gflops']:.2f} GFLOPS\n\n{table}"
    )


def _cmd_funding(args) -> str:
    from repro.program.budget import render

    return render()


def _cmd_responsibilities(args) -> str:
    from repro.program.responsibilities import render, validate_matrix

    validate_matrix()
    return render()


def _cmd_network(args) -> str:
    from repro.network import DELTA_SITE, delta_consortium, transfer_time
    from repro.util.tables import render_table
    from repro.util.units import format_time

    net = delta_consortium()
    nbytes = args.gigabytes * 1e9
    rows = []
    for site in net.sites:
        if site.name == DELTA_SITE:
            continue
        est = transfer_time(net, DELTA_SITE, site.name, nbytes)
        rows.append([site.name, est.effective_mbps, format_time(est.time_s)])
    rows.sort(key=lambda r: -r[1])
    return render_table(
        ["Partner", "Eff. Mbps", f"{args.gigabytes:g} GB transfer"],
        rows,
        title="Consortium reachability of the Delta",
        float_fmt=",.2f",
    )


def _cmd_trajectory(args) -> str:
    from repro.machine import darpa_mpp_series
    from repro.program import fit_machines, teraflops_year, trajectory_table
    from repro.util.tables import render_table

    series = darpa_mpp_series()
    fit = fit_machines(series)
    table = render_table(
        ["Year", "Projected GF", "Installed GF"],
        [[y, proj, inst if inst else ""] for y, proj, inst in
         trajectory_table(series, horizon=args.horizon)],
        title="Teraops trajectory",
        float_fmt=",.1f",
    )
    return (
        f"{table}\n\ngrowth {fit.annual_growth:.2f}x/yr; "
        f"1 TFLOPS projected {teraflops_year(series):.1f}"
    )


def _cmd_scaling(args) -> str:
    from repro.core import WORKLOADS, scaling_study, scaling_table, amdahl_summary
    from repro.machine import get_machine

    try:
        factory = WORKLOADS[args.workload]
    except KeyError:
        raise ReproError(
            f"unknown workload {args.workload!r}; available: {sorted(WORKLOADS)}"
        ) from None
    ranks = [int(x) for x in args.ranks.split(",")]
    study = scaling_study(factory(), get_machine(args.machine), ranks,
                          seed=args.seed)
    return scaling_table(study) + "\n\n" + amdahl_summary(study)


def _cmd_sweep(args) -> str:
    import json

    from repro.sweep import (
        Lu2dPoint,
        RunCache,
        config_from_dict,
        get_workload,
        run_sweep,
    )
    from repro.util.errors import ConfigurationError
    from repro.util.tables import render_table

    try:
        entry = get_workload(args.workload)
    except ConfigurationError as exc:
        raise ReproError(str(exc)) from None

    if args.points is not None:
        try:
            raw_points = json.loads(args.points)
        except ValueError as exc:
            raise ReproError(f"--points is not valid JSON: {exc}") from None
        if not isinstance(raw_points, list) or not raw_points:
            raise ReproError("--points must be a non-empty JSON list of config objects")
        try:
            configs = [config_from_dict(entry.config_type, p) for p in raw_points]
        except (ConfigurationError, TypeError) as exc:
            raise ReproError(f"bad --points entry: {exc}") from None
        labels = []
        for p in raw_points:
            text = json.dumps(p, sort_keys=True, separators=(",", ":"))
            labels.append(text if len(text) <= 42 else text[:39] + "...")
        title = f"{entry.name} sweep: {len(configs)} point(s)"
    elif entry.name == "lu2d":
        configs = []
        for spec in args.grids.split(","):
            try:
                prows, pcols = (int(x) for x in spec.lower().split("x"))
            except ValueError:
                raise ReproError(
                    f"bad grid {spec!r}: expected PRxPC, e.g. 8x16"
                ) from None
            configs.append(
                Lu2dPoint(
                    prows=prows,
                    pcols=pcols,
                    n=args.order,
                    nb=args.nb,
                    machine=args.machine,
                    overlap=args.overlap,
                )
            )
        labels = [f"{c.prows}x{c.pcols}" for c in configs]
        title = f"lu2d sweep: n={args.order}, nb={args.nb}, machine={args.machine}"
    else:
        raise ReproError(
            f"workload {entry.name!r} needs --points (a JSON list of "
            f"{entry.config_type.__name__} config objects); "
            "--grids only shapes lu2d sweeps"
        )

    cache = RunCache(args.cache_dir) if args.cache else None
    results = run_sweep(
        configs, entry.fn, workers=args.workers, seed=args.seed, cache=cache
    )
    rows = [
        [
            label,
            r["ranks"],
            r["virtual_time_s"],
            r["messages"],
            r["events"],
            r["wall_s"],
            r["events_per_sec"],
        ]
        for label, r in zip(labels, results)
    ]
    table = render_table(
        ["Point", "Ranks", "Virtual (s)", "Messages", "Events", "Wall (s)", "Events/s"],
        rows,
        title=title,
        float_fmt=",.4f",
    )
    if not all(r.get("exact", True) for r in results):
        raise ReproError("sweep point diverged from the serial factorisation")
    cache_info = {"enabled": cache is not None}
    if cache is not None:
        cache_info.update(cache.stats())
        table += (
            f"\n\ncache {args.cache_dir}: "
            f"{cache.hits} hit(s), {cache.misses} miss(es)"
        )
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(
                {
                    "workload": entry.name,
                    "results": {
                        label: r for label, r in zip(labels, results)
                    },
                    "cache": cache_info,
                },
                fh,
                indent=2,
                sort_keys=True,
            )
        table += f"\n\nwrote {args.json}"
    return table


def _cmd_serve(args) -> str:
    from repro.serve import run_server

    run_server(
        host=args.host,
        port=args.port,
        backend=args.backend,
        workers=args.workers,
        cache_dir=None if args.no_cache else args.cache_dir,
        shards=args.shards,
        max_jobs=args.max_jobs,
    )
    return ""


def _cmd_cache(args) -> str:
    import json

    from repro.sweep import RunCache, parse_age
    from repro.util.tables import render_table

    cache = RunCache(args.cache_dir)
    if args.cache_command == "stats":
        info = cache.disk_stats()
        if args.json:
            return json.dumps(info, indent=2, sort_keys=True)
        rows = [[schema, count] for schema, count in sorted(info["by_schema"].items())]
        table = render_table(
            ["Schema", "Entries"],
            rows or [["-", 0]],
            title=f"run cache {info['dir']}: {info['entries']} entr"
                  f"{'y' if info['entries'] == 1 else 'ies'}, {info['bytes']:,} bytes",
        )
        return (
            f"{table}\n\ncurrent schema {info['schema_version']}; "
            f"{info['stale_entries']} stale entr"
            f"{'y' if info['stale_entries'] == 1 else 'ies'}"
        )
    report = cache.prune(parse_age(args.older_than))
    if args.json:
        return json.dumps(report, indent=2, sort_keys=True)
    return (
        f"pruned {report['dir']}: removed {report['removed']} entr"
        f"{'y' if report['removed'] == 1 else 'ies'} "
        f"({report['bytes_freed']:,} bytes), kept {report['kept']}"
    )


def _cmd_goals(args) -> str:
    from repro.program.goals import render

    return render()


def _cmd_challenges(args) -> str:
    from repro.program import GRAND_CHALLENGES, validate_registry
    from repro.util.tables import render_table

    validate_registry()
    return render_table(
        ["Grand Challenge", "Agencies", "Proxy", "Pattern"],
        [[gc.name, ", ".join(gc.agencies), gc.proxy_workload, gc.pattern]
         for gc in GRAND_CHALLENGES],
        title="Grand Challenge registry",
        align_right_from=99,
    )


def _cmd_lint(args):
    from repro.analyze import (
        RULES,
        analyze_paths,
        format_findings,
        format_findings_json,
    )
    from repro.analyze.registry import ALIASES

    if args.list_rules:
        return "\n".join(
            [f"{r.code} {r.name} ({r.severity}): {r.summary}"
             + (" [symbolic]" if r.cross_rank else "")
             for r in RULES.values()]
            + [f"{alias} alias of {target} ({RULES[target].name})"
               for alias, target in ALIASES.items()]
        )
    if not args.paths:
        raise ReproError("lint: no paths given (or use --list-rules)")
    findings = analyze_paths(args.paths, select=args.select, n_ranks=args.ranks)
    if args.json:
        return format_findings_json(findings), (1 if findings else 0)
    return format_findings(findings), (1 if findings else 0)


def _cmd_certify(args):
    import json

    from repro.analyze.certify import bundled_certificate, certify_macro

    if args.program in ("ocean", "summa"):
        certificate = bundled_certificate(args.program, args.ranks)
    else:
        try:
            with open(args.program, "r", encoding="utf-8") as handle:
                source = handle.read()
        except OSError as exc:
            raise ReproError(f"certify: cannot read {args.program}: {exc}") from None
        certificate = certify_macro(source, args.ranks)
    return json.dumps(certificate.to_dict(), indent=2, sort_keys=False)


def _cmd_profile(args):
    from repro.machine import get_machine
    from repro.obs import PROFILES, profile_report, run_profile, write_chrome_trace

    if args.list:
        return "\n".join(sorted(PROFILES))
    if not args.workload:
        raise ReproError("profile: no workload given (or use --list)")
    res = run_profile(
        args.workload,
        get_machine(args.machine),
        ranks=args.ranks,
        size=args.size,
        overlap=args.overlap,
        eager_threshold_bytes=args.eager_threshold,
        delivery=args.delivery,
        seed=args.seed,
    )
    out = profile_report(res, top=args.top, timeline=args.timeline)
    if args.export:
        write_chrome_trace(res, args.export)
        out += (
            f"\nwrote Chrome trace to {args.export} "
            "(load in chrome://tracing or ui.perfetto.dev)"
        )
    return out


def _cmd_profile_summary(args) -> str:
    """One traced run, one line: the ``repro all`` teaser."""
    from repro.machine import get_machine
    from repro.obs import profile_summary_line, run_profile

    res = run_profile("summa", get_machine("delta"), ranks=16, size=64)
    return profile_summary_line("summa 4x4 on the Delta", res)


def _cmd_all(args) -> str:
    """Every exhibit, in paper order, as one report."""
    sections = [
        ("T4-1  GOALS AND APPROACH", _cmd_goals),
        ("T4-2  RESPONSIBILITIES", _cmd_responsibilities),
        ("T4-3  FUNDING FY 92-93", _cmd_funding),
        ("T4-4  MACHINES AND LINPACK", _cmd_machines),
        ("", _cmd_linpack),
        ("T4-5  CONSORTIUM NETWORK", _cmd_network),
        ("TERAOPS TRAJECTORY", _cmd_trajectory),
        ("GRAND CHALLENGES", _cmd_challenges),
        ("PROFILE", _cmd_profile_summary),
    ]
    out = []
    for title, fn in sections:
        if title:
            out.append("=" * 72)
            out.append(title)
            out.append("=" * 72)
        out.append(fn(args))
        out.append("")
    return "\n".join(out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the HPCC paper's exhibits from the "
                    "simulation library.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("machines", help="testbed machine roster").set_defaults(
        func=_cmd_machines
    )

    linpack = sub.add_parser("linpack", help="exhibit T4-4a (Delta LINPACK)")
    linpack.add_argument("--order", type=int, default=25_000)
    linpack.set_defaults(func=_cmd_linpack)

    sub.add_parser("funding", help="exhibit T4-3 (FY92-93 table)").set_defaults(
        func=_cmd_funding
    )
    sub.add_parser(
        "responsibilities", help="exhibit T4-2 (agency matrix)"
    ).set_defaults(func=_cmd_responsibilities)

    network = sub.add_parser("network", help="exhibit T4-5 (consortium WAN)")
    network.add_argument("--gigabytes", type=float, default=1.0)
    network.set_defaults(func=_cmd_network)

    trajectory = sub.add_parser("trajectory", help="teraops projection")
    trajectory.add_argument("--horizon", type=int, default=1996)
    trajectory.set_defaults(func=_cmd_trajectory)

    scaling = sub.add_parser("scaling", help="run a scaling study")
    scaling.add_argument("--workload", default="cfd")
    scaling.add_argument("--machine", default="delta")
    scaling.add_argument("--ranks", default="1,2,4,8")
    scaling.add_argument("--seed", type=int, default=0)
    scaling.set_defaults(func=_cmd_scaling)

    lint = sub.add_parser(
        "lint",
        help="static communication-correctness checks over rank programs",
    )
    lint.add_argument(
        "paths", nargs="*",
        help="Python files or directories to analyse",
    )
    lint.add_argument(
        "--select", default=None, metavar="CODES",
        help="comma-separated rule codes to run (default: all), e.g. W001,W009",
    )
    lint.add_argument(
        "--list-rules", action="store_true",
        help="list the registered rules and exit",
    )
    lint.add_argument(
        "--ranks", type=int, default=8, metavar="N",
        help="world size the cross-rank rules instantiate (default 8)",
    )
    lint.add_argument(
        "--json", action="store_true",
        help="emit findings as JSON lines instead of human-readable text",
    )
    lint.set_defaults(func=_cmd_lint)

    certify = sub.add_parser(
        "certify",
        help="prove a rank program macro-pure; print its certificate",
    )
    certify.add_argument(
        "program",
        help="a bundled program name (ocean, summa) or a Python file "
             "containing one rank program",
    )
    certify.add_argument(
        "--ranks", type=int, default=8, metavar="N",
        help="world size to certify at (default 8)",
    )
    certify.set_defaults(func=_cmd_certify)

    profile = sub.add_parser(
        "profile",
        help="trace a workload, report its critical path, export traces",
    )
    profile.add_argument(
        "workload", nargs="?", default=None,
        help="named workload (see --list), e.g. lu, summa, cg, ocean",
    )
    profile.add_argument("--machine", default="delta")
    profile.add_argument(
        "--ranks", type=int, default=0,
        help="rank count (0 = workload default)",
    )
    profile.add_argument(
        "--size", type=int, default=0,
        help="problem size (0 = workload default)",
    )
    profile.add_argument(
        "--overlap", action="store_true",
        help="use the non-blocking (overlapped) communication variant",
    )
    profile.add_argument(
        "--eager-threshold", type=float, default=float("inf"), metavar="BYTES",
        help="rendezvous protocol above this message size",
    )
    profile.add_argument(
        "--delivery", default="alphabeta", choices=["alphabeta", "contention"],
    )
    profile.add_argument("--seed", type=int, default=0)
    profile.add_argument(
        "--export", metavar="PATH",
        help="write a Chrome trace_event JSON to PATH",
    )
    profile.add_argument(
        "--timeline", action="store_true",
        help="append the plain-text per-rank timeline",
    )
    profile.add_argument(
        "--top", type=int, default=5,
        help="entries in the elongation / phase reports",
    )
    profile.add_argument(
        "--list", action="store_true", help="list available workloads"
    )
    profile.set_defaults(func=_cmd_profile)

    sweep = sub.add_parser(
        "sweep",
        help="fan a workload sweep over worker processes (deterministic)",
    )
    sweep.add_argument(
        "--workload", default="lu2d",
        help="registered workload name (lu2d, collectives, halo, ...)",
    )
    sweep.add_argument(
        "--points", default=None, metavar="JSON",
        help="JSON list of workload config objects, e.g. "
             '\'[{"ranks": 16}, {"ranks": 32}]\' (overrides --grids; '
             "required for non-lu2d workloads)",
    )
    sweep.add_argument(
        "--grids", default="4x4,8x8,8x16",
        help="comma-separated lu2d process grids, e.g. 4x4,8x16,16x32",
    )
    sweep.add_argument(
        "--order", type=int, default=96, help="matrix order per point"
    )
    sweep.add_argument("--nb", type=int, default=2, help="block size")
    sweep.add_argument("--machine", default="delta")
    sweep.add_argument(
        "--overlap", action="store_true",
        help="use the non-blocking broadcast variant",
    )
    sweep.add_argument(
        "--workers", type=int, default=None,
        help="process count (default: all cores); results do not depend on it",
    )
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument(
        "--json", metavar="PATH", help="also write results as JSON to PATH"
    )
    sweep.add_argument(
        "--cache", action=argparse.BooleanOptionalAction, default=False,
        help="serve identical (config, seed) points from the run cache "
             "and store fresh ones (--no-cache disables)",
    )
    sweep.add_argument(
        "--cache-dir", default=".repro-cache", metavar="DIR",
        help="run-cache directory (default: .repro-cache)",
    )
    sweep.set_defaults(func=_cmd_sweep)

    serve = sub.add_parser(
        "serve",
        help="run the simulation-as-a-service job server (HTTP/JSON)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8732)
    serve.add_argument(
        "--backend", default="pool", choices=["pool", "inprocess"],
        help="execution backend: persistent process pool (default) or "
             "in-process threads",
    )
    serve.add_argument(
        "--workers", type=int, default=None,
        help="backend worker count (default: all cores for pool, 1 for inprocess)",
    )
    serve.add_argument(
        "--shards", type=int, default=0, metavar="N",
        help="run N independent backend instances behind consistent-hash "
             "routing on the point cache key (N >= 2; default: unsharded)",
    )
    serve.add_argument(
        "--max-jobs", type=int, default=1024, metavar="N",
        help="job-table cap: oldest finished jobs are evicted beyond N "
             "(default: 1024; 0 disables eviction)",
    )
    serve.add_argument(
        "--cache-dir", default=".repro-cache", metavar="DIR",
        help="run-cache directory identical submissions are answered from",
    )
    serve.add_argument(
        "--no-cache", action="store_true",
        help="disable the run cache (in-flight coalescing still applies)",
    )
    serve.set_defaults(func=_cmd_serve)

    cache = sub.add_parser(
        "cache",
        help="inspect or prune the content-addressed run cache",
    )
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    cache_stats = cache_sub.add_parser(
        "stats", help="entry count, bytes on disk, schema mix"
    )
    cache_prune = cache_sub.add_parser(
        "prune", help="delete entries not touched within --older-than"
    )
    cache_prune.add_argument(
        "--older-than", default="0s", metavar="AGE",
        help="age like 3600, 30m, 12h, 7d (default 0s: everything)",
    )
    for sub_parser in (cache_stats, cache_prune):
        sub_parser.add_argument(
            "--cache-dir", default=".repro-cache", metavar="DIR",
            help="run-cache directory (default: .repro-cache)",
        )
        sub_parser.add_argument(
            "--json", action="store_true",
            help="emit machine-readable JSON instead of a table",
        )
    cache.set_defaults(func=_cmd_cache)

    sub.add_parser("challenges", help="Grand Challenge registry").set_defaults(
        func=_cmd_challenges
    )
    sub.add_parser(
        "goals", help="exhibit T4-1 (goals, quotes, approach)"
    ).set_defaults(func=_cmd_goals)

    everything = sub.add_parser("all", help="every exhibit as one report")
    everything.add_argument("--order", type=int, default=25_000)
    everything.add_argument("--gigabytes", type=float, default=1.0)
    everything.add_argument("--horizon", type=int, default=1996)
    everything.set_defaults(func=_cmd_all)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        result = args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    # Commands that drive CI (lint) return (text, exit_code).
    text, code = result if isinstance(result, tuple) else (result, 0)
    print(text)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
