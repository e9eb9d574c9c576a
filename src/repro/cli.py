"""Command-line interface: run guest programs under HTH from the shell.

Usage (also via ``python -m repro``)::

    # run a guest assembly program under the full monitor
    python -m repro run trojan.s --path /usr/bin/applet \
        --file /etc/secret="password" --peer evil.example.com:4000 \
        --arg input.txt --stdin "typed text"

    # static Secure Binary audit (Appendix B)
    python -m repro audit trojan.s

    # show the instrumented listing (Figure 5 view)
    python -m repro instrument trojan.s

    # reproduce a paper table
    python -m repro table 6

    # the full 62-workload sweep on 4 worker processes
    python -m repro fleet --workers 4

    # adversarial variant sweep: 1000+ mutated Trojans, evasion report
    python -m repro sweep --per-class 5 --json BENCH_adversarial.json

    # chaos stability: Table 8 exploits under 10 fault schedules
    python -m repro chaos --table 8 --trials 10

    # replay one fault schedule bit-for-bit from a RunReport seed
    python -m repro chaos --table 8 --workload pma --seed 42 --show-faults

    # the paper's section 9 overhead study: native vs three monitor configs
    python -m repro profile trojan.s

    # Perfetto-loadable trace + metrics dump of any run
    python -m repro run trojan.s --trace trace.json --metrics

    # warm-cache sweeps: repeat traffic answers from the verdict cache
    python -m repro fleet --workers 4 --cache-dir .repro-cache
    python -m repro cache stats --dir .repro-cache
"""

from __future__ import annotations

import argparse
import itertools
import json
import pathlib
import sys
from typing import List, Optional, Sequence

from repro.analysis.instrumentation import render_listing
from repro.analysis.secure_binary import check_secure_binary
from repro.api import Session
from repro.cache import CacheEnv, DiskStore, VerdictCache
from repro.core.options import DEFAULT_MAX_TICKS, RunOptions
from repro.core.report import RunReport
from repro.fleet import (
    DEFAULT_WORKERS,
    REGISTRIES,
    REGISTRY_ORDER,
    FleetRunRecord,
    WorkloadRef,
    merged_telemetry,
    run_fleet,
    workload_refs,
    write_fleet_trace,
)
from repro.harrier.config import HarrierConfig
from repro.isa.assembler import AssemblyError, assemble
from repro.programs.registry import entries
from repro.telemetry import Telemetry, render_samples


def _read_guest(source_path: str, guest_path: Optional[str]):
    """The guest's name (``guest_path`` or ``/bin/<stem>``) and source."""
    path = pathlib.Path(source_path)
    return guest_path or f"/bin/{path.stem}", path.read_text()


def _load_image(source_path: str, guest_path: Optional[str]):
    return assemble(*_read_guest(source_path, guest_path))


def _parse_kv(option: str, value: str) -> tuple:
    key, sep, rest = value.partition("=")
    if not sep:
        raise SystemExit(f"--{option} expects KEY=VALUE, got {value!r}")
    return key, rest


def _guest_env(args: argparse.Namespace) -> CacheEnv:
    """The guest's files and peers from ``--file``/``--peer``/``--serve``
    (a ``--peer`` is a ``--serve`` with payload ``""``: a data sink)."""
    files = dict(_parse_kv("file", entry) for entry in args.file or ())
    peers = {}
    for entry in args.peer or ():
        peers[entry] = ""
    for entry in args.serve or ():
        addr, payload = _parse_kv("serve", entry)
        peers[addr] = payload
    for addr in peers:
        if not addr.partition(":")[2].isdigit():
            raise SystemExit(f"a peer needs HOST:PORT, got {addr!r}")
    return CacheEnv.from_mappings(files, peers)


def _print_report(report: RunReport, show_events: bool) -> None:
    print(f"program : {report.program}")
    print(f"exit    : {report.exit_code} ({report.result.reason})")
    print(f"verdict : {report.verdict.value.upper()}")
    counts = report.warning_counts()
    print(f"warnings: LOW={counts['LOW']} MEDIUM={counts['MEDIUM']} "
          f"HIGH={counts['HIGH']}")
    if report.console_output:
        print("\n--- console ---")
        print(report.console_output.rstrip("\n"))
    if report.warnings:
        print("\n--- Secpert advice ---")
        print(report.render_warnings())
    if show_events:
        print("\n--- Harrier events ---")
        for event in report.events:
            print(event)


def _build_telemetry(args: argparse.Namespace) -> Optional[Telemetry]:
    """An enabled hub when the command asked for observability output."""
    trace = getattr(args, "trace", None)
    metrics = getattr(args, "metrics", False)
    if not (trace or metrics):
        return None
    return Telemetry.enabled(trace=bool(trace))


def _emit_telemetry(
    telemetry: Optional[Telemetry], args: argparse.Namespace
) -> None:
    """Write the trace file / print the metrics dump, as requested."""
    if telemetry is None:
        return
    if getattr(args, "metrics", False):
        print("\n--- telemetry metrics ---")
        print(telemetry.metrics.render())
    trace = getattr(args, "trace", None)
    if trace:
        telemetry.tracer.write(trace)
        print(
            f"wrote {trace} "
            f"({len(telemetry.tracer.finished())} spans)"
        )


def _run_options(args: argparse.Namespace, **overrides) -> RunOptions:
    """Fold the shared CLI execution flags into a :class:`RunOptions`."""
    return RunOptions(
        provenance=not getattr(args, "no_provenance", False),
        cache=not getattr(args, "no_cache", False),
        max_ticks=getattr(args, "max_ticks", DEFAULT_MAX_TICKS),
        **overrides,
    )


def _cache_dir(args: argparse.Namespace) -> Optional[str]:
    """The on-disk verdict cache the command asked for, if any.

    A purely in-memory cache is pointless for a one-shot CLI process,
    so the CLI only attaches a cache when ``--cache-dir`` names a store
    that outlives the invocation (and ``--no-cache`` is not given).
    """
    if getattr(args, "no_cache", False):
        return None
    return getattr(args, "cache_dir", None)


def _print_cache_line(stats: Optional[dict]) -> None:
    """One line of verdict-cache counters (a cache or fleet snapshot)."""
    if stats is None:
        return
    print(f"cache   : {stats['hits']} hit(s) ({stats['disk_hits']} from "
          f"disk), {stats['misses']} miss(es), {stats['stores']} stored")


def _select_refs(
    keys: Optional[Sequence[str]], names: Optional[Sequence[str]]
) -> List[WorkloadRef]:
    """Refs to the rows of registries ``keys`` (every table when None),
    narrowed to ``names`` when given (``--table``/``--workload``)."""
    refs = workload_refs(keys)
    if names:
        wanted = set(names)
        refs = [r for r in refs if r.name in wanted]
        missing = wanted - {r.name for r in refs}
        if missing:
            raise SystemExit(f"unknown workload(s) {sorted(missing)}")
    if not refs:
        raise SystemExit("no workloads selected")
    return refs


def _run_rows(args: argparse.Namespace, keys: Sequence[str]):
    """Run every row of registries ``keys`` in order, in process on one
    warm session with no retries: ``(key, row, record)`` per row, and
    the fleet report of the runs."""
    rows = list(entries(keys))
    fleet = run_fleet(
        [WorkloadRef.from_registry(key, w.name) for key, w in rows],
        options=_batch_options(args),
        workers=1,
        max_retries=0,
        cache_dir=_cache_dir(args),
    )
    return [
        (key, w, record) for (key, w), record in zip(rows, fleet.runs)
    ], fleet


def _batch_options(args: argparse.Namespace, **overrides) -> RunOptions:
    """:func:`_run_options` with per-run telemetry when ``--metrics`` or
    ``--trace`` asked for it; the batch merges it afterwards."""
    return _run_options(
        args,
        metrics=bool(getattr(args, "metrics", False)),
        trace=bool(getattr(args, "trace", None)),
        **overrides,
    )


def _emit_batch_telemetry(
    records: Sequence[FleetRunRecord], args: argparse.Namespace
) -> None:
    """Print the runs' merged metrics and write their trace (one track
    per run), as ``--metrics``/``--trace`` requested."""
    if getattr(args, "metrics", False):
        telemetry = merged_telemetry(records)
        print("\n--- telemetry metrics ---")
        print(render_samples(telemetry.metrics if telemetry else ()))
    trace = getattr(args, "trace", None)
    if trace:
        write_fleet_trace(trace, records)
        spans = sum(len(r.spans or ()) for r in records)
        print(f"wrote {trace} ({spans} spans)")


def _partial_exit() -> int:
    """The exit status of a batch that a SIGTERM/SIGINT drained: the
    rows printed are complete, the runs never started among them read
    as errors."""
    print("drained after shutdown signal; report is partial",
          file=sys.stderr)
    return 130


def _rules(record: FleetRunRecord) -> List[str]:
    """The rules that fired in a record's run, sorted."""
    report = record.report or {}
    return sorted({w["rule"] for w in report.get("warnings", ())})


def _mark(record: FleetRunRecord) -> str:
    """A row's outcome column: ``ok``, ``MISMATCH`` or ``ERROR``."""
    if record.failed:
        return "ERROR"
    return "ok " if record.ok else "MISMATCH"


def cmd_run(args: argparse.Namespace) -> int:
    image = _load_image(args.source, args.path)
    config = HarrierConfig(
        track_dataflow=not args.no_dataflow,
        track_bb_frequency=not args.no_bbfreq,
        complete_dataflow=not args.incomplete_dataflow,
    )
    telemetry = _build_telemetry(args)
    cache_dir = _cache_dir(args)
    cache = VerdictCache(disk_dir=cache_dir) if cache_dir else None
    session = Session(
        _run_options(args, harrier_config=config), telemetry=telemetry,
        cache=cache,
    )
    report = session.run(
        image,
        argv=[image.name] + list(args.arg or ()),
        stdin=args.stdin,
        cache_env=_guest_env(args),
    )
    _print_report(report, args.events)
    _print_cache_line(cache.snapshot() if cache is not None else None)
    _emit_telemetry(telemetry, args)
    if args.json:
        out = pathlib.Path(args.json)
        out.write_text(report.to_json() + "\n")
        print(f"wrote {out}")
    if args.fail_on and report.max_severity is not None:
        threshold = {"low": 1, "medium": 2, "high": 3}[args.fail_on]
        if int(report.max_severity) >= threshold:
            return 1
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    """Render the evidence trail of every warning in an archived report.

    Accepts the JSON ``repro run --json`` / ``RunReport.to_dict()``
    writes (schema v2+); v1 archives load too, they just have no
    evidence to show.
    """
    from repro.telemetry.provenance import render_evidence

    data = json.loads(pathlib.Path(args.report).read_text())
    warnings = data.get("warnings") or []
    if args.rule:
        warnings = [w for w in warnings if w.get("rule") == args.rule]
    if not warnings:
        print("no warnings"
              + (f" for rule {args.rule}" if args.rule else "")
              + f" in {args.report}")
        return 0
    program = data.get("program", "?")
    print(f"{program}: {len(warnings)} warning(s), "
          f"verdict {str(data.get('verdict', '?')).upper()}")
    for warning in warnings:
        print(f"\n[{warning.get('severity', '?'):6s}] "
              f"{warning.get('rule')}: {warning.get('headline')}"
              f"  (pid {warning.get('pid')}, tick {warning.get('time')})")
        print(render_evidence(warning.get("evidence")))
    return 0


def cmd_audit(args: argparse.Namespace) -> int:
    image = _load_image(args.source, args.path)
    report = check_secure_binary(image)
    print(report.render())
    return 0 if report.is_secure else 1


def cmd_instrument(args: argparse.Namespace) -> int:
    image = _load_image(args.source, args.path)
    print(render_listing(image))
    return 0


def cmd_table(args: argparse.Namespace) -> int:
    rows, fleet = _run_rows(args, [args.number])
    width = max(len(w.name) for _, w, _ in rows)
    for _, workload, record in rows:
        print(f"{workload.name:{width}s}  {record.verdict or '-':7s} "
              f"(expected {workload.expected_verdict.value:7s})  "
              f"{_mark(record)}  {','.join(_rules(record)) or '-'}")
    _print_cache_line(fleet.cache_stats)
    _emit_batch_telemetry(fleet.runs, args)
    if fleet.partial:
        return _partial_exit()
    return 1 if fleet.failures else 0


def _chaos_profile(args: argparse.Namespace):
    from dataclasses import replace as _dc_replace

    from repro.faultinject import SEMANTIC_PROFILE, TRANSPARENT_PROFILE

    profile = {
        "transparent": TRANSPARENT_PROFILE,
        "semantic": SEMANTIC_PROFILE,
    }[args.profile]
    overrides = {
        name: getattr(args, name)
        for name in ("stall_rate", "errno_rate", "connect_reset_rate",
                     "resolve_fail_rate", "quantum_jitter", "max_faults")
        if getattr(args, name) is not None
    }
    if not overrides:
        return profile
    try:
        return _dc_replace(profile, **overrides)
    except ValueError as exc:  # a rate outside [0, 1], a negative cap
        args.parser.error(str(exc))


def cmd_chaos(args: argparse.Namespace) -> int:
    """Replay paper scenarios under deterministic fault schedules."""
    from repro.faultinject import run_chaos_suite

    profile = _chaos_profile(args)
    # --seed S replays one schedule: chaos_seeds(S, 1) == [S].
    replay = args.seed is not None
    results = run_chaos_suite(
        _select_refs([args.table], args.workload),
        base_seed=args.seed if replay else args.base_seed,
        trials=1 if replay else args.trials,
        profile=profile,
        options=_batch_options(args, wall_timeout=args.wall_timeout),
        workers=args.workers,
    )
    # With guest-visible (semantic) faults the verdict may legitimately
    # move; the assertable property is graceful termination, not
    # classification.
    assert_verdicts = args.profile == "transparent"

    width = max(len(r.workload) for r in results)
    failures = 0
    for result in results:
        verdicts = ",".join(sorted({v.value for v in result.verdicts}))
        if assert_verdicts:
            ok = result.stable
            status = "stable" if ok else "UNSTABLE"
        else:
            ok = all(t.reason != "watchdog" for t in result.trials)
            status = "graceful" if ok else "WEDGED"
        failures += not ok
        print(f"{result.workload:{width}s}  "
              f"expected={result.expected.value:7s}"
              f" seen={verdicts:7s} faults={result.total_faults:4d}"
              f"  {status}")
        if not ok and assert_verdicts:
            print(f"{'':{width}s}  replay: repro chaos --table "
                  f"{args.table} --workload {result.workload} "
                  f"--seed {result.failing_seeds()[0]} --show-faults")
        if args.show_faults:
            for trial in result.trials:
                print(f"  seed {trial.seed}: verdict={trial.verdict.value} "
                      f"reason={trial.reason} "
                      f"rules={','.join(trial.rules) or '-'}")
                for fault in trial.faults:
                    print(f"    {fault}")
    records = [t.record for r in results for t in r.trials]
    _emit_batch_telemetry(records, args)
    if any(record.cancelled for record in records):
        return _partial_exit()
    return 1 if failures else 0


def cmd_profile(args: argparse.Namespace) -> int:
    """The paper's §9 overhead study: time the guest natively and under
    three monitor configs, then count one full run's work."""
    from repro.telemetry.overhead import measure_overhead

    name, source = _read_guest(args.source, args.path)
    options = _run_options(args)
    argv = [name] + list(args.arg or ())
    env = _guest_env(args)

    # The counters come from one production run with a registry, the
    # same run `repro run --metrics` makes.
    telemetry = Telemetry.enabled(trace=bool(args.trace))
    report = Session(options, telemetry=telemetry).run(
        source, path=name, argv=argv, stdin=args.stdin, cache_env=env,
    )
    print(report.summary_line())
    print()
    study = measure_overhead(
        name, source, options, argv=argv, stdin=args.stdin,
        setup=env.install,
    )
    print(study.render(f"Overhead profile: {name}"))
    registry = telemetry.metrics
    print()
    print(f"instructions retired : {registry.total('cpu_instructions_total'):,.0f}")
    print(f"syscalls serviced    : {registry.total('kernel_syscalls_total'):,.0f}")
    print(f"harrier events       : {registry.total('harrier_events_emitted_total'):,.0f}")
    print(f"secpert facts        : {registry.total('secpert_facts_asserted_total'):,.0f}")
    print(f"secpert rule firings : {registry.total('secpert_rule_firings_total'):,.0f}")
    _emit_telemetry(telemetry, args)
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """Run every evaluation table and write one consolidated report."""
    lines = [
        "# HTH reproduction report",
        "",
        "Generated by `python -m repro report`.",
        "",
    ]
    rows = []
    results, fleet = _run_rows(args, REGISTRY_ORDER)
    for key, group in itertools.groupby(results, key=lambda row: row[0]):
        title = f"Table {key}" if key.isdigit() else key
        lines.append(f"## {title}")
        lines.append("")
        lines.append("| benchmark | expected | measured | rules | match |")
        lines.append("|---|---|---|---|---|")
        for _, workload, record in group:
            ok = bool(record.ok)
            fired = _rules(record)
            rules = ", ".join(fired) or "—"
            measured = record.verdict or "error"
            lines.append(
                f"| {workload.name} | {workload.expected_verdict.value} "
                f"| {measured} | {rules} "
                f"| {'yes' if ok else 'NO'} |"
            )
            rows.append({
                "table": key,
                "benchmark": workload.name,
                "expected": workload.expected_verdict.value,
                "measured": measured,
                "rules": fired,
                "match": ok,
                "degraded": (record.report or {}).get("degraded", True),
            })
        lines.append("")
    failures = len(fleet.failures)
    text = "\n".join(lines) + "\n"
    out_path = pathlib.Path(args.output)
    out_path.write_text(text)
    json_path = out_path.with_suffix(".json")
    json_path.write_text(json.dumps(
        {
            "generated_by": "python -m repro report",
            "mismatches": failures,
            "rows": rows,
        },
        indent=2,
    ) + "\n")
    print(f"wrote {out_path} and {json_path} ({failures} mismatches)")
    if fleet.partial:
        return _partial_exit()
    return 1 if failures else 0


def cmd_fleet(args: argparse.Namespace) -> int:
    """Run a workload sweep on worker processes (``repro fleet``)."""
    fleet = run_fleet(
        _select_refs(args.table or None, args.workload),
        options=_batch_options(args),
        workers=args.workers,
        max_retries=args.max_retries,
        cache_dir=_cache_dir(args),
    )
    width = max(len(r.name) for r in fleet.runs)
    for record in fleet.runs:
        extras = f" retried={','.join(record.retries)}" if record.retries \
            else ""
        print(f"{record.name:{width}s}  {record.verdict or '-':7s} "
              f"worker={record.worker}  {_mark(record)}{extras}")
    print(fleet.summary_line())
    if fleet.cache_stats is not None:
        stats = fleet.cache_stats
        print(f"cache   : {stats['hits']} hit(s), {stats['misses']} "
              f"miss(es), {stats['stores']} stored "
              f"(hit rate {stats['hit_rate']:.2f})")
    _emit_batch_telemetry(fleet.runs, args)
    if args.json:
        out = pathlib.Path(args.json)
        out.write_text(fleet.to_json() + "\n")
        print(f"wrote {out}")
    if fleet.partial:
        return _partial_exit()
    return 1 if fleet.failures else 0


def cmd_sweep(args: argparse.Namespace) -> int:
    """Adversarial variant sweep (``repro sweep``): mutate every Trojan
    parent N times per class, fan out through the fleet, report the
    detection-rate matrix and any evasions."""
    from repro.advers import plan_sweep, run_sweep
    from repro.programs.registry import find

    parents = args.parent or None
    if parents is None and args.table:
        parents = [
            w.name for w in find({"trojan"}, keys=tuple(args.table))
        ]
        if not parents:
            raise SystemExit(
                f"no trojan rows in table(s) {', '.join(args.table)}"
            )
    try:
        # A bad class, parent or --per-class is a usage error.
        plan_sweep(parents, args.klass or None, args.per_class, args.seed)
    except (ValueError, LookupError) as exc:
        args.parser.error(str(exc))
    result = run_sweep(
        parents=parents,
        classes=args.klass or None,
        per_class=args.per_class,
        seed=args.seed,
        options=_run_options(args),
        workers=args.workers,
        max_retries=args.max_retries,
        cache_dir=_cache_dir(args),
    )
    text = result.render_report()
    print(text, end="")
    if args.json:
        out = pathlib.Path(args.json)
        out.write_text(result.to_json() + "\n")
        print(f"wrote {out}")
    if args.report:
        out = pathlib.Path(args.report)
        out.write_text(text)
        print(f"wrote {out}")
    if result.errors:
        print(f"{len(result.errors)} variant(s) failed to run",
              file=sys.stderr)
        return 2
    if args.fail_under is not None \
            and result.detection_rate < args.fail_under:
        print(f"detection rate {result.detection_rate:.4f} below "
              f"--fail-under {args.fail_under}", file=sys.stderr)
        return 1
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the always-on detection daemon (``repro serve``)."""
    import asyncio

    from repro.serve import ServeDaemon, run_daemon

    host, port = None, 0
    if args.http:
        h, _, p = args.http.partition(":")
        host, port = (h or "127.0.0.1"), int(p or 0)
    daemon = ServeDaemon(
        unix_path=args.socket,
        host=host,
        port=port,
        workers=args.workers,
        queue_limit=args.queue_limit,
        rate=args.rate,
        burst=args.burst,
        tick_rate=args.tick_rate,
        tick_burst=args.tick_burst,
        job_timeout=args.job_timeout,
        max_retries=args.max_retries,
        cache=not args.no_cache,
        cache_dir=args.cache_dir,
        cache_entries=args.cache_entries,
    )

    async def main() -> None:
        await daemon.start()
        await daemon.wait_ready()
        print(f"repro serve: {args.workers} warm worker(s), "
              f"queue limit {args.queue_limit}")
        if args.socket:
            print(f"  unix socket : {args.socket}")
        if host is not None:
            print(f"  http        : http://{host}:{daemon.port} "
                  f"(POST /submit, GET /healthz, /stats, /metrics)")
        await run_daemon(daemon)

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        pass
    if args.metrics:
        print("\n--- serve telemetry metrics ---")
        print(daemon.metrics.render())
    print("repro serve: drained and stopped")
    return 0


def _submission_from_args(args: argparse.Namespace):
    from repro.serve import Submission

    options = _run_options(args).replaced(
        wall_timeout=args.wall_timeout,
    )
    if args.table:
        if not args.workload:
            raise SystemExit("--table needs --workload NAME")
        return Submission(
            workload=(args.table, args.workload),
            options=options, tenant=args.tenant,
            name=args.workload,
        )
    if not args.source:
        raise SystemExit("need a guest source file or --table/--workload")
    path = pathlib.Path(args.source)
    env = _guest_env(args)
    guest_path = args.path or f"/bin/{path.stem}"
    return Submission(
        source=path.read_text(),
        path=guest_path,
        argv=tuple([guest_path] + list(args.arg or ())),
        stdin=args.stdin,
        files=dict(env.files),
        peers=dict(env.peers),
        options=options,
        tenant=args.tenant,
        name=path.name,
    )


def cmd_submit(args: argparse.Namespace) -> int:
    """Submit one run to a live daemon and stream its warnings."""
    from repro.serve import ServeClient, ServeError

    submission = _submission_from_args(args)
    client = ServeClient(args.socket, timeout=args.timeout)

    def show(event: dict) -> None:
        if args.json:
            print(json.dumps(event))
            return
        kind = event.get("kind")
        if kind == "accepted":
            cached = " [cached]" if event.get("cached") else ""
            print(f"accepted as {event['job']} "
                  f"(queue depth {event['queue_depth']}){cached}")
        elif kind == "warning":
            w = event["warning"]
            print(f"  [{w['severity']:6s}] {w['rule']}: {w['headline']}")
        elif kind == "retry":
            print(f"  (attempt {event['attempt']} lost to "
                  f"{event['reason']}; retrying)")

    try:
        terminal = client.submit(submission, on_event=show)
    except (ConnectionRefusedError, FileNotFoundError):
        print(f"error: no daemon listening on {args.socket}",
              file=sys.stderr)
        return 2
    except ServeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.json:
        return 0 if terminal.get("kind") == "report" else 1
    kind = terminal.get("kind")
    if kind == "rejected":
        print(f"rejected: {terminal['reason']} {terminal.get('detail', '')}")
        return 1
    if kind == "error":
        print(f"error ({terminal.get('code')}): "
              f"{str(terminal.get('error', '')).strip().splitlines()[-1]}")
        return 1
    report = terminal["report"]
    counts = {"LOW": 0, "MEDIUM": 0, "HIGH": 0}
    for warning in report.get("warnings", ()):
        counts[warning["severity"]] = counts.get(warning["severity"], 0) + 1
    timing = terminal.get("timing", {})
    print(f"verdict : {report['verdict'].upper()}")
    print(f"warnings: LOW={counts['LOW']} MEDIUM={counts['MEDIUM']} "
          f"HIGH={counts['HIGH']}")
    print(f"timing  : queue {timing.get('queue_wait', 0):.3f}s, "
          f"exec {timing.get('exec', 0):.3f}s "
          f"({timing.get('attempts', 1)} attempt(s))")
    if terminal.get("cached"):
        print("cache   : hit (answered without execution)")
    if args.fail_on:
        threshold = {"low": 1, "medium": 2, "high": 3}[args.fail_on]
        order = {"LOW": 1, "MEDIUM": 2, "HIGH": 3}
        worst = max(
            (order[w["severity"]] for w in report.get("warnings", ())),
            default=0,
        )
        if worst >= threshold:
            return 1
    return 0


def cmd_cache(args: argparse.Namespace) -> int:
    """Inspect or clear an on-disk verdict cache (``repro cache``)."""
    root = pathlib.Path(args.dir)
    if not root.is_dir():
        # Opening a store creates its root: a typo must not read as an
        # empty store.
        print(f"error: no cache directory at {root}", file=sys.stderr)
        return 2
    store = DiskStore(str(root))
    if args.action == "clear":
        removed = store.clear()
        print(f"removed {removed} entr{'y' if removed == 1 else 'ies'} "
              f"from {root}")
        return 0

    entries = list(store.entries())
    if args.action == "stats":
        total = sum(size for _, _, size in entries)
        namespaces: dict = {}
        for key, _, _ in entries:
            ns = key.partition("-")[0]
            namespaces[ns] = namespaces.get(ns, 0) + 1
        print(f"store   : {root}")
        print(f"entries : {len(entries)}")
        print(f"bytes   : {total}")
        for ns in sorted(namespaces):
            print(f"  {ns:8s}: {namespaces[ns]}")
        return 0

    # inspect: one line per entry, meta included.
    if not entries:
        print(f"empty store at {root}")
        return 0
    for key, meta, size in entries:
        meta = meta or {}
        label = meta.get("workload") or meta.get("program") or "-"
        verdict = meta.get("verdict", "?")
        warnings = meta.get("warnings", "?")
        print(f"{key}  {size:6d}B  {label}  verdict={verdict} "
              f"warnings={warnings}")
    return 0


def _add_cache_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--no-cache", action="store_true",
        help="never answer from (or remember into) the verdict cache",
    )
    parser.add_argument(
        "--cache-dir", metavar="DIR",
        help="content-addressed on-disk verdict cache shared across "
             "invocations (and fleet workers)",
    )


def _tick_budget(text: str) -> int:
    """``--max-ticks``: a virtual-time budget of at least one tick."""
    try:
        ticks = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer, got {text!r}"
        ) from None
    if ticks < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {ticks}")
    return ticks


def _add_telemetry_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace", metavar="FILE",
        help="write a span trace (Chrome trace-event JSON; *.jsonl for "
             "one span per line)",
    )
    parser.add_argument(
        "--metrics", action="store_true",
        help="print the telemetry metrics registry after the run",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="HTH (Hunting Trojan Horses) — run guest programs "
                    "under the Harrier/Secpert monitor",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a guest program under HTH")
    run.add_argument("source", help="guest assembly file (.s)")
    run.add_argument("--path", help="guest path identity for the binary")
    run.add_argument("--arg", action="append", help="argv entry (repeat)")
    run.add_argument("--stdin", help="scripted user input")
    run.add_argument("--file", action="append", metavar="PATH=CONTENT",
                     help="seed a file in the simulated fs (repeat)")
    run.add_argument("--peer", action="append", metavar="HOST:PORT",
                     help="register a data-sink peer (repeat)")
    run.add_argument("--serve", action="append",
                     metavar="HOST:PORT=DATA",
                     help="register a peer that pushes DATA on connect")
    run.add_argument("--events", action="store_true",
                     help="dump the raw Harrier event log")
    run.add_argument("--no-dataflow", action="store_true",
                     help="disable instruction-level taint tracking")
    run.add_argument("--no-bbfreq", action="store_true",
                     help="disable basic-block frequency counting")
    run.add_argument("--incomplete-dataflow", action="store_true",
                     help="emulate the paper's incomplete prototype")
    run.add_argument("--no-provenance", action="store_true",
                     help="skip recording per-warning evidence trails")
    run.add_argument("--max-ticks", type=_tick_budget,
                     default=DEFAULT_MAX_TICKS)
    run.add_argument("--json", metavar="FILE",
                     help="write the machine-readable RunReport as JSON "
                          "(feed it to `repro explain`)")
    run.add_argument("--fail-on", choices=("low", "medium", "high"),
                     help="exit nonzero when warnings reach this severity")
    _add_cache_options(run)
    _add_telemetry_options(run)
    run.set_defaults(func=cmd_run)

    explain = sub.add_parser(
        "explain",
        help="render the evidence trails inside an archived report JSON",
    )
    explain.add_argument("report",
                         help="report JSON written by `repro run --json`")
    explain.add_argument("--rule", metavar="NAME",
                         help="only explain warnings from this rule")
    explain.set_defaults(func=cmd_explain)

    audit = sub.add_parser(
        "audit", help="Secure Binary static check (Appendix B)"
    )
    audit.add_argument("source")
    audit.add_argument("--path")
    audit.set_defaults(func=cmd_audit)

    instrument = sub.add_parser(
        "instrument", help="show the instrumented listing (Figure 5)"
    )
    instrument.add_argument("source")
    instrument.add_argument("--path")
    instrument.set_defaults(func=cmd_instrument)

    table = sub.add_parser(
        "table", help="reproduce one of the paper's evaluation tables"
    )
    table.add_argument("number", choices=sorted(REGISTRIES))
    table.add_argument("--no-provenance", action="store_true",
                       help="skip recording per-warning evidence trails")
    _add_cache_options(table)
    _add_telemetry_options(table)
    table.set_defaults(func=cmd_table)

    chaos = sub.add_parser(
        "chaos",
        help="replay paper scenarios under deterministic fault schedules",
    )
    chaos.add_argument("--table", choices=sorted(REGISTRIES),
                       default="8",
                       help="workload table to perturb (default: 8)")
    chaos.add_argument("--workload", action="append", metavar="NAME",
                       help="restrict to named workload(s) (repeat)")
    chaos.add_argument("--trials", type=int, default=10,
                       help="fault schedules per workload (default: 10)")
    chaos.add_argument("--base-seed", type=int, default=1337,
                       help="base seed the trial seeds derive from")
    chaos.add_argument("--seed", type=int,
                       help="run exactly one schedule with this seed "
                            "(bit-for-bit replay of a reported run)")
    chaos.add_argument("--profile",
                       choices=("transparent", "semantic"),
                       default="transparent",
                       help="transparent: semantics-preserving faults, "
                            "verdicts asserted stable; semantic: guest-"
                            "visible errno/reset/DNS faults, graceful "
                            "degradation asserted instead")
    chaos.add_argument("--stall-rate", type=float, dest="stall_rate")
    chaos.add_argument("--errno-rate", type=float, dest="errno_rate")
    chaos.add_argument("--connect-reset-rate", type=float,
                       dest="connect_reset_rate")
    chaos.add_argument("--resolve-fail-rate", type=float,
                       dest="resolve_fail_rate")
    chaos.add_argument("--quantum-jitter", type=float,
                       dest="quantum_jitter")
    chaos.add_argument("--max-faults", type=int, dest="max_faults")
    chaos.add_argument("--wall-timeout", type=float, default=60.0,
                       help="per-run watchdog in real seconds")
    chaos.add_argument("--show-faults", action="store_true",
                       help="dump every injected fault per trial")
    chaos.add_argument("--workers", type=int, default=1,
                       help="run the (workload x seed) grid on this "
                            "many worker processes (default: 1, serial)")
    _add_telemetry_options(chaos)
    chaos.set_defaults(func=cmd_chaos, parser=chaos)

    fleet = sub.add_parser(
        "fleet",
        help="run a workload sweep on worker processes",
    )
    fleet.add_argument("--table", action="append",
                       choices=sorted(REGISTRIES), metavar="KEY",
                       help="registry to include (repeat; default: every "
                            "table, 62 workloads)")
    fleet.add_argument("--workload", action="append", metavar="NAME",
                       help="restrict to named workload(s) (repeat)")
    fleet.add_argument("--workers", type=int, default=DEFAULT_WORKERS,
                       help="worker processes (default: one per CPU, at "
                            f"most 4, here {DEFAULT_WORKERS}; clamped to "
                            "the task count)")
    fleet.add_argument("--max-retries", type=int, default=1,
                       help="retries per run on watchdog/monitor-fault "
                            "outcomes (default: 1)")
    fleet.add_argument("--no-provenance", action="store_true",
                       help="skip recording per-warning evidence trails")
    fleet.add_argument("--json", metavar="FILE",
                       help="write the merged FleetReport as JSON")
    _add_cache_options(fleet)
    _add_telemetry_options(fleet)
    fleet.set_defaults(func=cmd_fleet)

    sweep = sub.add_parser(
        "sweep",
        help="adversarial variant sweep: seed-deterministic Trojan "
             "mutations, fleet fan-out, detection-rate matrix",
    )
    sweep.add_argument("--parent", action="append", metavar="NAME",
                       help="parent workload(s) to mutate (repeat; "
                            "default: every Trojan of tables 4/5/6/8)")
    sweep.add_argument("--table", action="append",
                       choices=sorted(REGISTRIES), metavar="KEY",
                       help="draw parents from these registries' Trojan "
                            "rows (repeat; ignored with --parent)")
    sweep.add_argument("--class", action="append", dest="klass",
                       metavar="CLASS",
                       help="mutation class(es) to sweep (repeat; "
                            "default: all seven)")
    sweep.add_argument("--per-class", type=int, default=1,
                       help="variants per parent per class (default: 1; "
                            "9 exceeds 1000 variants on the default "
                            "parent set)")
    sweep.add_argument("--seed", type=int, default=0,
                       help="base seed; same seed => bit-identical "
                            "matrix (default: 0)")
    sweep.add_argument("--workers", type=int, default=DEFAULT_WORKERS,
                       help="fleet worker processes (default: one per "
                            f"CPU, at most 4, here {DEFAULT_WORKERS})")
    sweep.add_argument("--max-retries", type=int, default=1,
                       help="retries per run on watchdog/monitor-fault "
                            "outcomes (default: 1)")
    sweep.add_argument("--no-provenance", action="store_true",
                       help="skip recording per-warning evidence trails")
    sweep.add_argument("--json", metavar="FILE",
                       help="write the deterministic BENCH payload "
                            "(matrix + evasions) as JSON")
    sweep.add_argument("--report", metavar="FILE",
                       help="write the human-readable evasion report")
    sweep.add_argument("--fail-under", type=float, metavar="RATE",
                       help="exit nonzero when the Trojan detection "
                            "rate drops below RATE (e.g. 0.95)")
    _add_cache_options(sweep)
    sweep.set_defaults(func=cmd_sweep, parser=sweep)

    serve = sub.add_parser(
        "serve",
        help="run the always-on detection daemon (warm worker pool, "
             "streamed warnings, admission control)",
    )
    serve.add_argument("--socket", default="repro-serve.sock",
                       help="unix socket path for the NDJSON protocol "
                            "(default: ./repro-serve.sock)")
    serve.add_argument("--http", metavar="HOST:PORT",
                       help="also speak HTTP (POST /submit streams "
                            "chunked NDJSON; GET /healthz, /stats, "
                            "/metrics); port 0 picks a free one")
    serve.add_argument("--workers", type=int, default=2,
                       help="warm worker processes (default: 2)")
    serve.add_argument("--queue-limit", type=int, default=64,
                       help="max submissions in the system; beyond this "
                            "clients get rejected:queue-full / HTTP 429 "
                            "(default: 64)")
    serve.add_argument("--rate", type=float,
                       help="per-tenant submissions per second "
                            "(default: unlimited)")
    serve.add_argument("--burst", type=float,
                       help="per-tenant submission burst "
                            "(default: 2x rate)")
    serve.add_argument("--tick-rate", type=float,
                       help="per-tenant guest-tick budget per second — "
                            "a submission costs its max_ticks "
                            "(default: unlimited)")
    serve.add_argument("--tick-burst", type=float,
                       help="per-tenant tick burst (default: 2x tick "
                            "rate)")
    serve.add_argument("--job-timeout", type=float, default=60.0,
                       help="wall deadline per submission before its "
                            "worker is killed and recycled "
                            "(default: 60s)")
    serve.add_argument("--max-retries", type=int, default=1,
                       help="retries when a worker crashes mid-job "
                            "(default: 1)")
    serve.add_argument("--metrics", action="store_true",
                       help="print the daemon's metrics registry after "
                            "shutdown")
    serve.add_argument("--no-cache", action="store_true",
                       help="disable the daemon's verdict cache (every "
                            "submission executes)")
    serve.add_argument("--cache-dir", metavar="DIR",
                       help="persist the daemon's verdict cache on disk")
    serve.add_argument("--cache-entries", type=int, default=512,
                       help="in-memory verdict cache capacity "
                            "(default: 512)")
    serve.set_defaults(func=cmd_serve)

    submit = sub.add_parser(
        "submit",
        help="submit one run to a live daemon and stream its warnings",
    )
    submit.add_argument("source", nargs="?",
                        help="guest assembly file (.s); or use "
                             "--table/--workload")
    submit.add_argument("--socket", default="repro-serve.sock",
                        help="daemon unix socket (default: "
                             "./repro-serve.sock)")
    submit.add_argument("--table", choices=sorted(REGISTRIES),
                        help="submit a registry workload instead of a "
                             "source file")
    submit.add_argument("--workload", metavar="NAME",
                        help="registry row name (with --table)")
    submit.add_argument("--path", help="guest path identity")
    submit.add_argument("--arg", action="append", help="argv entry")
    submit.add_argument("--stdin", help="scripted user input")
    submit.add_argument("--file", action="append", metavar="PATH=CONTENT",
                        help="seed a file in the simulated fs (repeat)")
    submit.add_argument("--peer", action="append", metavar="HOST:PORT",
                        help="register a data-sink peer (repeat)")
    submit.add_argument("--serve", action="append",
                        metavar="HOST:PORT=DATA",
                        help="register a peer that pushes DATA on "
                             "connect")
    submit.add_argument("--tenant", default="default",
                        help="admission identity for rate/tick budgets")
    submit.add_argument("--max-ticks", type=_tick_budget,
                        default=DEFAULT_MAX_TICKS)
    submit.add_argument("--wall-timeout", type=float,
                        help="per-run wall deadline hint for the daemon")
    submit.add_argument("--timeout", type=float, default=120.0,
                        help="client-side socket timeout (default: 120s)")
    submit.add_argument("--no-provenance", action="store_true",
                        help="skip recording per-warning evidence trails")
    submit.add_argument("--no-cache", action="store_true",
                        help="ask the daemon to execute fresh instead of "
                             "answering from its verdict cache")
    submit.add_argument("--fail-on", choices=("low", "medium", "high"),
                        help="exit nonzero when warnings reach this "
                             "severity")
    submit.add_argument("--json", action="store_true",
                        help="print the raw NDJSON event stream")
    submit.set_defaults(func=cmd_submit)

    profile = sub.add_parser(
        "profile",
        help="monitor overhead study (paper section 9): native vs "
             "no-dataflow, no-bbfreq and the full monitor",
    )
    profile.add_argument("source", help="guest assembly file (.s)")
    profile.add_argument("--path", help="guest path identity")
    profile.add_argument("--arg", action="append", help="argv entry")
    profile.add_argument("--stdin", help="scripted user input")
    profile.add_argument("--file", action="append", metavar="PATH=CONTENT",
                         help="seed a file in the simulated fs (repeat)")
    profile.add_argument("--peer", action="append", metavar="HOST:PORT",
                         help="register a data-sink peer (repeat)")
    profile.add_argument("--serve", action="append",
                         metavar="HOST:PORT=DATA",
                         help="register a peer that pushes DATA on connect")
    profile.add_argument("--no-provenance", action="store_true",
                         help="skip recording per-warning evidence trails")
    profile.add_argument("--max-ticks", type=_tick_budget,
                         default=DEFAULT_MAX_TICKS)
    _add_telemetry_options(profile)
    profile.set_defaults(func=cmd_profile)

    report = sub.add_parser(
        "report", help="run every table and write a consolidated report"
    )
    report.add_argument("-o", "--output", default="hth_report.md")
    report.set_defaults(func=cmd_report)

    cache = sub.add_parser(
        "cache",
        help="inspect or clear an on-disk verdict cache",
    )
    cache.add_argument("action", choices=("stats", "inspect", "clear"))
    cache.add_argument("--dir", required=True, metavar="DIR",
                       help="cache directory (the --cache-dir of the "
                            "runs that filled it)")
    cache.set_defaults(func=cmd_cache)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except AssemblyError as exc:
        print(f"assembly error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
