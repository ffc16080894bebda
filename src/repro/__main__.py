"""Command-line interface: ``python -m repro <command>``.

Integrator-facing entry points over the library:

* ``demo`` — run the Sect. 6 prototype demonstration (fault injection +
  schedule switch) and print the VITRAL frame;
* ``validate <config.json>`` — offline verification of a serialized
  configuration (eqs. (20)-(23) + configuration cross-checks);
* ``analyze <config.json>`` — process-level schedulability analysis of
  every partition under every schedule;
* ``run <config.json> --ticks N`` — execute the scheduling skeleton of a
  serialized configuration (bodies are code and are not serialized; the
  partitions idle inside their windows) and report window occupancy;
* ``observe <trace.jsonl>`` — offline analysis of a saved trace: derived
  metrics (occupancy vs. entitlement, jitter, latencies) and/or a
  Perfetto timeline, no simulator required;
* ``campaign`` — fan a multi-scenario campaign (fault matrix, seed sweep,
  config sweep, or a JSON spec file) out over a worker pool and report the
  deterministic aggregate; ``--live``/``--telemetry-out`` stream the
  campaign telemetry bus, ``--flight-recorder-dir`` captures post-mortem
  bundles for failed scenarios, and ``--metrics-out-dir`` /
  ``--timeline-out-dir`` dump per-scenario observability artifacts;
* ``telemetry topics|validate`` — print the governed telemetry topic
  registry, or batch-validate an event log (or plain topic list) against
  it.

The ``demo`` and ``run`` commands accept ``--metrics-out`` (deterministic
metrics registry JSON), ``--timeline-out`` (Chrome trace-event JSON for
``ui.perfetto.dev``) and — ``run`` only — ``--trace-out`` (JSON Lines
event log) and ``--profile`` (host time per ``repro`` module, measured
with cProfile, on stderr).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .analysis.report import build_report
from .config.loader import read_config
from .kernel.simulator import Simulator


def _write_metrics(observer, path: str) -> None:
    with open(path, "w", encoding="utf-8") as stream:
        stream.write(observer.collect().to_json() + "\n")
    print(f"metrics written to {path}")


def _write_timeline(trace, path: str) -> None:
    from .obs import save_timeline

    count = save_timeline(trace, path)
    print(f"timeline written to {path} ({count} trace events; "
          f"open in ui.perfetto.dev)")


def _cmd_demo(args: argparse.Namespace) -> int:
    from .apps.prototype import (
        build_prototype,
        inject_faulty_process,
        make_simulator,
    )
    from .kernel.trace import DeadlineMissed, ScheduleSwitched
    from .vitral.windows import VitralScreen

    handles = build_prototype()
    simulator = make_simulator(handles)
    observer = None
    if args.metrics_out:
        from .obs import instrument

        observer = instrument(simulator)
    screen = VitralScreen(simulator)
    simulator.run_mtf(args.mtfs)
    inject_faulty_process(simulator)
    simulator.run_mtf(args.mtfs)
    handles.ttc_stats.queue_schedule_command("chi2")
    simulator.run_mtf(args.mtfs)
    handles.ttc_stats.queue_schedule_command("chi1")
    simulator.run_mtf(args.mtfs)
    print(screen.render())
    print(f"\ndeadline misses: {simulator.trace.count(DeadlineMissed)}")
    print(f"schedule switches: {simulator.trace.count(ScheduleSwitched)}")
    print(f"telemetry frames: {handles.ttc_stats.frames}")
    if observer is not None:
        _write_metrics(observer, args.metrics_out)
    if args.timeline_out:
        _write_timeline(simulator.trace, args.timeline_out)
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    config = read_config(args.config)
    report = config.validate()
    print(report.render())
    return 0 if report.ok else 1


def _cmd_analyze(args: argparse.Namespace) -> int:
    config = read_config(args.config)
    report = build_report(config)
    print(report.render())
    return 0 if report.ok else 1


def _profile_run_fast(simulator: Simulator, ticks: int) -> str:
    """``simulator.run_fast(ticks)`` under cProfile; returns the report.

    Self time and call counts are summed by the ``repro`` module each
    function lives in (``core.pmk``, ``pos.pal``, ``comm.router``, ...),
    named from its file path; builtins share one ``(builtins)`` bucket and
    code outside the package one ``(other)`` bucket.  Host time is
    nondeterministic by nature, so the report says so and never enters
    the metrics registry.
    """
    import cProfile
    import json
    import os
    import pstats
    from time import perf_counter

    profile = cProfile.Profile()
    started = perf_counter()
    profile.runcall(simulator.run_fast, ticks)
    wall = perf_counter() - started
    package = os.path.dirname(os.path.abspath(__file__))
    seconds: dict = {}
    calls: dict = {}
    for (filename, _, _), (_, ncalls, tottime, _, _) in \
            pstats.Stats(profile).stats.items():
        path = os.path.relpath(os.path.abspath(filename), package)
        if filename == "~":
            module = "(builtins)"
        elif path.startswith(os.pardir):
            module = "(other)"
        else:
            module = os.path.splitext(path)[0].replace(os.sep, ".") \
                .removesuffix(".__init__")
        seconds[module] = seconds.get(module, 0.0) + tottime
        calls[module] = calls.get(module, 0) + ncalls
    accounted = sum(seconds.values())
    stats = simulator.event_core_stats
    executed = stats["ticks_batched"] + stats["ticks_stepped"]
    return json.dumps({
        "deterministic": False,
        "wall_seconds": wall,
        "accounted_seconds": accounted,
        "subsystems": {
            module: {"seconds": seconds[module], "calls": calls[module],
                     "share": (seconds[module] / accounted
                               if accounted else 0.0)}
            for module in seconds},
        "event_core": dict(stats, batched_fraction=(
            stats["ticks_batched"] / executed if executed else 0.0)),
        "cycle_cache": simulator.cycle_cache_stats,
    }, sort_keys=True, indent=2)


def _cmd_run(args: argparse.Namespace) -> int:
    config = read_config(args.config)
    simulator = Simulator(config)
    observer = None
    if args.metrics_out:
        from .obs import instrument

        observer = instrument(simulator)
    profile = None
    if args.profile:
        profile = _profile_run_fast(simulator, args.ticks)
    else:
        simulator.run_fast(args.ticks)
    pmk = simulator.pmk
    print(f"ran {simulator.now} ticks under "
          f"{pmk.scheduler.current_schedule!r}")
    occupancy = sorted(pmk.partition_ticks.items())
    occupancy.append(("(idle)", pmk.idle_ticks))
    for label, ticks in occupancy:
        if ticks:
            print(f"  {label:12s} {ticks:8d} ticks "
                  f"({ticks / simulator.now:6.1%})")
    if args.trace_out:
        count = simulator.trace.save_jsonl(args.trace_out)
        print(f"trace written to {args.trace_out} ({count} events)")
    if observer is not None:
        _write_metrics(observer, args.metrics_out)
    if args.timeline_out:
        _write_timeline(simulator.trace, args.timeline_out)
    if profile is not None:
        print(profile, file=sys.stderr)
    return 0


def _cmd_observe(args: argparse.Namespace) -> int:
    from .kernel.trace import Trace
    from .obs import derived_metrics, derived_to_json

    try:
        trace = Trace.load_jsonl(args.trace)
    except OSError as exc:
        print(f"error: cannot read trace: {exc}", file=sys.stderr)
        return 1
    config = read_config(args.config) if args.config else None
    summary = trace.summary()
    print(f"{summary['events']} events "
          f"(ticks {summary['first_tick']}..{summary['last_tick']}, "
          f"digest {summary['digest']})")
    for kind, count in summary["counts"].items():
        print(f"  {kind:28s} {count:8d}")
    report = derived_metrics(trace, config)
    for partition, entry in report["occupancy"].items():
        print(f"occupancy {partition}: {entry['ticks']} ticks "
              f"({entry['fraction']:.1%})")
    if args.metrics_out:
        with open(args.metrics_out, "w", encoding="utf-8") as stream:
            stream.write(derived_to_json(report) + "\n")
        print(f"derived metrics written to {args.metrics_out}")
    if args.timeline_out:
        _write_timeline(trace, args.timeline_out)
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    from .campaign import (
        ScenarioArtifacts,
        chaos_campaign,
        config_sweep_campaign,
        fault_matrix_campaign,
        load_campaign_spec,
        render_summary,
        report_json,
        run_campaign,
        seed_sweep_campaign,
    )

    if args.spec:
        scenarios = load_campaign_spec(args.spec)
    elif args.suite == "fault-matrix":
        scenarios = fault_matrix_campaign(count=args.scenarios,
                                          mtfs=args.mtfs, seed=args.seed)
    elif args.suite == "seed-sweep":
        scenarios = seed_sweep_campaign(count=args.scenarios,
                                        mtfs=args.mtfs, base_seed=args.seed)
    elif args.suite == "chaos":
        scenarios = chaos_campaign(count=args.scenarios,
                                   mtfs=max(args.mtfs, 4),
                                   base_seed=args.seed,
                                   shared_seed=args.shared_seed,
                                   prefix_mtfs=args.prefix_mtfs,
                                   shared_faults=args.shared_faults,
                                   crash_scenarios=args.crash_scenarios)
    elif args.suite == "constellation":
        from .constellation import constellation_campaign

        scenarios = constellation_campaign(count=args.scenarios,
                                           nodes=args.nodes,
                                           mtfs=max(args.mtfs, 6),
                                           base_seed=args.seed)
    else:
        scenarios = config_sweep_campaign(count=args.scenarios,
                                          base_seed=args.seed)

    artifacts = None
    if (args.metrics_out_dir or args.timeline_out_dir
            or args.flight_recorder_dir):
        artifacts = ScenarioArtifacts(
            metrics_dir=args.metrics_out_dir,
            timeline_dir=args.timeline_out_dir,
            flight_recorder_dir=args.flight_recorder_dir)
    bus = None
    panel = None
    if args.live or args.telemetry_out:
        from .obs.telemetry import TelemetryAggregator, campaign_spec_digest
        from .vitral import CampaignPanel

        panel = CampaignPanel(total=len(scenarios))
        bus = TelemetryAggregator(campaign_spec_digest(scenarios),
                                  log_path=args.telemetry_out,
                                  live=args.live, panel=panel,
                                  total=len(scenarios))

    telemetry: dict = {}
    results = run_campaign(scenarios, workers=args.workers,
                           chunksize=args.chunksize,
                           timeout_s=args.timeout,
                           prefix_cache=args.prefix_cache,
                           telemetry=telemetry,
                           bus=bus,
                           artifacts=artifacts)
    if args.verify_serial and args.workers > 1:
        serial = run_campaign(scenarios, workers=1, timeout_s=args.timeout,
                              prefix_cache=args.prefix_cache)
        if report_json(results) != report_json(serial):
            print("DETERMINISM VIOLATION: pooled aggregate differs from "
                  "serial aggregate", file=sys.stderr)
            return 2
        print(f"verified: pooled ({args.workers} workers) == serial "
              f"aggregate")
    if args.live and panel is not None:
        print(panel.render())
    if args.telemetry_out:
        stream_stats = telemetry.get("telemetry_stream") or {}
        print(f"telemetry written to {args.telemetry_out} "
              f"({stream_stats.get('timing_events', 0)} timing + "
              f"{stream_stats.get('deterministic_events', 0)} deterministic "
              f"events, {stream_stats.get('invalid_topics', 0)} invalid "
              f"topics)")
    print(render_summary(results))
    if args.json:
        meta = {"suite": args.spec or args.suite,
                "scenarios": len(scenarios), "workers": args.workers}
        with open(args.json, "w", encoding="utf-8") as stream:
            stream.write(report_json(results, include_timing=True,
                                     meta=meta,
                                     telemetry=telemetry) + "\n")
        print(f"report written to {args.json}")
    return 0 if all(result.ok for result in results) else 1


def _cmd_telemetry(args: argparse.Namespace) -> int:
    import json

    from .obs.telemetry import default_registry

    registry = default_registry()
    if args.action == "topics":
        print(json.dumps(registry.to_dict(), sort_keys=True, indent=2))
        return 0
    # validate: the batch governance check over an event log (JSON Lines
    # of telemetry records, `topic` + optional `channel` per line) or a
    # plain list of one topic per line.
    entries = []
    try:
        with open(args.file, "r", encoding="utf-8") as stream:
            for line in stream:
                line = line.strip()
                if not line:
                    continue
                if line.startswith("{"):
                    record = json.loads(line)
                    entries.append((record.get("topic", ""),
                                    record.get("channel")))
                else:
                    entries.append((line, None))
    except (OSError, ValueError) as exc:
        print(f"error: cannot read {args.file}: {exc}", file=sys.stderr)
        return 1
    report = registry.validate_batch(entries)
    invalid = [entry for entry in report if not entry["valid"]]
    document = {
        "file": args.file,
        "topics": len(report),
        "invalid": len(invalid),
        "results": report if args.verbose else invalid,
    }
    print(json.dumps(document, sort_keys=True, indent=2))
    return 1 if invalid else 0


def _count(text: str) -> int:
    """argparse type for a tick or MTF count: a non-negative integer."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="AIR TSP architecture reproduction (Rufino, Craveiro & "
                    "Verissimo, 2009)")
    commands = parser.add_subparsers(dest="command", required=True)

    demo = commands.add_parser("demo", help="run the Sect. 6 prototype demo")
    demo.add_argument("--mtfs", type=_count, default=3,
                      help="MTFs per demo phase (default 3)")
    demo.add_argument("--metrics-out", default=None,
                      help="write the deterministic metrics registry JSON "
                           "here")
    demo.add_argument("--timeline-out", default=None,
                      help="write a Chrome trace-event / Perfetto JSON "
                           "timeline here")
    demo.set_defaults(handler=_cmd_demo)

    validate = commands.add_parser("validate",
                                   help="offline verification of a config")
    validate.add_argument("config", help="path to a config JSON document")
    validate.set_defaults(handler=_cmd_validate)

    analyze = commands.add_parser("analyze",
                                  help="schedulability analysis of a config")
    analyze.add_argument("config", help="path to a config JSON document")
    analyze.set_defaults(handler=_cmd_analyze)

    run = commands.add_parser("run",
                              help="execute a config's scheduling skeleton")
    run.add_argument("config", help="path to a config JSON document")
    run.add_argument("--ticks", type=_count, default=10_000,
                     help="ticks to simulate (default 10000)")
    run.add_argument("--trace-out", default=None,
                     help="write the trace as JSON Lines here")
    run.add_argument("--metrics-out", default=None,
                     help="write the deterministic metrics registry JSON "
                          "here")
    run.add_argument("--timeline-out", default=None,
                     help="write a Chrome trace-event / Perfetto JSON "
                          "timeline here")
    run.add_argument("--profile", action="store_true",
                     help="profile the run with cProfile and print host "
                          "time per repro module to stderr")
    run.set_defaults(handler=_cmd_run)

    observe = commands.add_parser(
        "observe", help="offline metrics/timeline from a saved trace")
    observe.add_argument("trace", help="path to a save_jsonl trace file")
    observe.add_argument("--config", default=None,
                         help="config JSON for PST entitlement comparison")
    observe.add_argument("--metrics-out", default=None,
                         help="write the derived-metrics JSON here")
    observe.add_argument("--timeline-out", default=None,
                         help="write a Chrome trace-event / Perfetto JSON "
                              "timeline here")
    observe.set_defaults(handler=_cmd_observe)

    campaign = commands.add_parser(
        "campaign", help="run a deterministic multi-scenario campaign")
    campaign.add_argument("--suite",
                          choices=["fault-matrix", "seed-sweep",
                                   "config-sweep", "chaos",
                                   "constellation"],
                          default="fault-matrix",
                          help="built-in campaign builder (default "
                               "fault-matrix); 'chaos' barrages the "
                               "FDIR-supervised prototype under the "
                               "invariant oracle; 'constellation' runs "
                               "multi-node chaos with leader failover "
                               "under the cross-node oracle")
    campaign.add_argument("--nodes", type=int, default=3,
                          help="constellation suite: nodes per "
                               "constellation (default 3)")
    campaign.add_argument("--spec", default=None,
                          help="JSON campaign spec file (overrides --suite)")
    campaign.add_argument("--scenarios", type=int, default=64,
                          help="scenario count for built-in suites "
                               "(default 64)")
    campaign.add_argument("--mtfs", type=int, default=6,
                          help="tick horizon in MTFs for prototype suites "
                               "(default 6)")
    campaign.add_argument("--seed", type=int, default=0,
                          help="base seed (default 0)")
    campaign.add_argument("--workers", type=int, default=1,
                          help="worker processes; 0 = autodetect "
                               "(default 1, serial)")
    campaign.add_argument("--chunksize", type=int, default=None,
                          help="scenarios per pool work item "
                               "(default: auto)")
    campaign.add_argument("--timeout", type=float, default=None,
                          help="per-scenario wall-clock timeout in seconds")
    campaign.add_argument("--json", default=None,
                          help="write the full JSON report here")
    campaign.add_argument("--verify-serial", action="store_true",
                          help="re-run serially and require identical "
                               "deterministic reports")
    campaign.add_argument("--prefix-cache", dest="prefix_cache",
                          action="store_true", default=True,
                          help="fork scenarios from cached snapshots of "
                               "their shared fault-free prefixes (default)")
    campaign.add_argument("--no-prefix-cache", dest="prefix_cache",
                          action="store_false",
                          help="always simulate scenarios from tick 0")
    campaign.add_argument("--shared-seed", action="store_true",
                          help="chaos suite: one seed for every scenario "
                               "(maximizes prefix sharing)")
    campaign.add_argument("--prefix-mtfs", type=int, default=0,
                          help="chaos suite: keep the first N MTFs "
                               "fault-free (default 0)")
    campaign.add_argument("--shared-faults", type=int, default=0,
                          help="chaos suite: prepend N identical leading "
                               "faults to every scenario — the deep "
                               "shared-fault workload the divergence trie "
                               "accelerates (default 0)")
    campaign.add_argument("--crash-scenarios", type=int, default=0,
                          help="chaos suite: make the first N scenarios "
                               "crash deterministically (flight-recorder "
                               "drills; default 0)")
    campaign.add_argument("--live", action="store_true",
                          help="stream live per-scenario telemetry "
                               "(started/forked/finished) to stdout while "
                               "the campaign runs")
    campaign.add_argument("--telemetry-out", default=None,
                          help="write the full telemetry event log (JSON "
                               "Lines; timing channel in arrival order, "
                               "deterministic channel derived at the end) "
                               "here")
    campaign.add_argument("--flight-recorder-dir", default=None,
                          help="write a post-mortem flight-record bundle "
                               "for every crashed or oracle-violating "
                               "scenario into this directory")
    campaign.add_argument("--metrics-out-dir", default=None,
                          help="write per-scenario deterministic metrics "
                               "registry JSON files into this directory")
    campaign.add_argument("--timeline-out-dir", default=None,
                          help="write per-scenario Perfetto timeline JSON "
                               "files into this directory")
    campaign.set_defaults(handler=_cmd_campaign)

    telemetry = commands.add_parser(
        "telemetry",
        help="governed telemetry-topic namespace: list or validate")
    telemetry_actions = telemetry.add_subparsers(dest="action",
                                                 required=True)
    topics = telemetry_actions.add_parser(
        "topics", help="print the governed topic registry as JSON")
    topics.set_defaults(handler=_cmd_telemetry)
    validate_topics = telemetry_actions.add_parser(
        "validate",
        help="batch-validate a telemetry event log (JSON Lines) or a "
             "plain topic-per-line file against the registry")
    validate_topics.add_argument("file",
                                 help="telemetry JSONL event log or plain "
                                      "topic list")
    validate_topics.add_argument("--verbose", action="store_true",
                                 help="include valid topics in the JSON "
                                      "report (default: invalid only)")
    validate_topics.set_defaults(handler=_cmd_telemetry)

    args = parser.parse_args(argv)
    if getattr(args, "workers", None) == 0:
        from .campaign import autodetect_workers
        args.workers = autodetect_workers()
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
