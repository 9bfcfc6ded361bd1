"""Command-line front end.

One executable with subcommands mirroring the binutils-style workflow
the paper's artifact users would expect::

    repro cc prog.bc -o prog.rexf          # compile BombC
    repro run prog.rexf -- arg1 arg2       # execute on the VM
    repro dis prog.rexf                    # disassemble
    repro nm prog.rexf                     # symbol table
    repro taint prog.rexf -- 77            # taint summary of one run
    repro solve --tool tritonx prog.rexf --seed 1
    repro bombs                            # list the dataset
    repro table2 --tools tritonx --bombs cp_stack sa_l1_array
    repro explain sa_l1_array tritonx      # why does that cell say Es3?
    repro solverlab capture --cache lab    # record every SMT query
    repro solverlab replay --cache lab     # re-run them, check verdicts
    repro stats run.jsonl --prom           # Prometheus text exposition

Installed as the ``repro`` console script; also runnable as
``python -m repro.cli``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from pathlib import Path


@contextlib.contextmanager
def _metrics(args, want: bool = False, capture: bool = False):
    """Install a recorder for the command when metrics were requested.

    ``--metrics-out FILE`` streams JSONL events to *FILE*; *want* forces
    a sink-less in-memory recorder (used by ``table2 --json``, which
    needs per-stage timings even without an output file); *capture*
    additionally attaches a :class:`MemorySink` so the caller can read
    the full event stream back (``--trace-out``).  Yields the recorder,
    or ``None`` when observability stays off.
    """
    from . import obs

    out = getattr(args, "metrics_out", None)
    if out is None and not want and not capture:
        yield None
        return
    try:
        sinks = [obs.JsonlSink(out)] if out is not None else []
    except OSError as err:
        raise SystemExit(f"cannot open {out}: {err.strerror}")
    if capture:
        sinks.append(obs.MemorySink())
    with obs.recording(obs.Recorder(sinks=sinks)) as rec:
        yield rec


def _load_image(path: str):
    from .binfmt import Image

    return Image.from_bytes(Path(path).read_bytes())


#: ``--env`` syntax: integer fields by key, byte maps by key prefix.
_ENV_INTS = {"time": "time_value", "pid": "pid", "magic": "magic"}
_ENV_MAPS = {"file": "files", "url": "network"}


def _parse_env(specs: list[str]):
    """Parse ``--env key=value`` pairs into an Environment."""
    from .vm import Environment

    env = Environment()
    for spec in specs or []:
        key, _, value = spec.partition("=")
        kind, colon, name = key.partition(":")
        if key in _ENV_INTS:
            setattr(env, _ENV_INTS[key], int(value))
        elif colon and kind in _ENV_MAPS:
            getattr(env, _ENV_MAPS[kind])[name] = value.encode()
        else:
            raise SystemExit(f"unknown env key {key!r} "
                             "(use time/pid/magic/file:<path>/url:<url>)")
    return env


# -- subcommands ------------------------------------------------------------

def cmd_cc(args) -> int:
    from .lang import compile_single

    source = Path(args.source).read_text()
    image = compile_single(source, Path(args.source).name)
    out = args.output or (Path(args.source).stem + ".rexf")
    Path(out).write_bytes(image.to_bytes())
    print(f"{out}: {image.file_size} bytes, entry 0x{image.entry:x}, "
          f"{len(image.symbols)} symbols")
    return 0


def cmd_run(args) -> int:
    from . import obs
    from .vm import Machine

    image = _load_image(args.binary)
    argv = [Path(args.binary).name.encode()] + [a.encode() for a in args.args]
    with _metrics(args):
        with obs.span("run", binary=Path(args.binary).name):
            result = Machine(image, argv, _parse_env(args.env)).run(args.max_steps)
    sys.stdout.write(result.stdout.decode("latin1"))
    if result.bomb_triggered:
        print("[bomb triggered]", file=sys.stderr)
    if result.timed_out:
        print("[timed out]", file=sys.stderr)
        return 124
    return result.exit_code or 0


def cmd_dis(args) -> int:
    from .asm import format_listing

    image = _load_image(args.binary)
    symbols = image.symbols_by_addr()
    for section in image.sections:
        if not section.executable:
            continue
        if args.no_lib and section.library:
            continue
        print(f"; section {section.name} @ 0x{section.vaddr:x}")
        print(format_listing(section.data, section.vaddr, symbols))
    return 0


def cmd_nm(args) -> int:
    image = _load_image(args.binary)
    for name, sym in sorted(image.symbols.items(), key=lambda kv: kv[1].addr):
        print(f"0x{sym.addr:08x} {sym.kind:10s} {name}")
    return 0


def cmd_taint(args) -> int:
    from .trace import taint_summary

    image = _load_image(args.binary)
    argv = [Path(args.binary).name.encode()] + [a.encode() for a in args.args]
    summary = taint_summary(image, argv, _parse_env(args.env))
    print(f"instructions executed : {summary.total_instructions}")
    print(f"tainted instructions  : {summary.tainted_instructions} "
          f"({summary.tainted_fraction:.1%})")
    print(f"symbolic branches     : {summary.symbolic_branches}")
    print(f"constraint-model nodes: {summary.model_nodes}")
    return 0


class _BinaryTarget:
    """A binary on disk in the shape of the :class:`~repro.bombs.Bomb`
    that ``Tool.analyze_bomb`` reads: its file name is the bomb id (and
    argv0), the parsed ``--env`` its base environment."""

    expected_unreachable = False

    def __init__(self, path: str, seed_argv: list[bytes], env_specs):
        self.bomb_id = Path(path).name
        self.image = _load_image(path)
        self.seed_argv = seed_argv
        self._env_specs = env_specs

    def base_env(self):
        return _parse_env(self._env_specs)

    def triggers(self, argv_tail: list[bytes], env=None) -> bool:
        from .vm import Machine

        run_env = self.base_env().merged(env)
        argv = [self.bomb_id.encode()] + list(argv_tail)
        return Machine(self.image, argv, run_env).run().bomb_triggered


def _env_flags(base, overlay) -> list[str]:
    """The ``--env`` flags that turn *base* into ``base.merged(overlay)``."""
    import shlex

    env = base.merged(overlay)
    flags = [f"{key}={getattr(env, attr)}" for key, attr in _ENV_INTS.items()
             if getattr(env, attr) != getattr(base, attr)]
    for kind, attr in _ENV_MAPS.items():
        known = getattr(base, attr)
        for name, data in sorted(getattr(env, attr).items()):
            if known.get(name) != data:
                flags.append(f"{kind}:{name}={data.decode('latin1')}")
    return [f"--env {shlex.quote(flag)}" for flag in flags]


def cmd_solve(args) -> int:
    from .tools import get_tool

    try:
        tool = get_tool(args.tool)
    except KeyError:
        raise SystemExit(f"unknown tool {args.tool!r}")
    seed = [s.encode() for s in (args.seed or ["1"])]
    target = _BinaryTarget(args.binary, seed, args.env)
    with _metrics(args):
        report = tool.analyze_bomb(target)
    if report.solved:
        print("SOLVED:", [s.decode("latin1") for s in report.solution])
        if report.solution_env is not None:
            print("with", " ".join(_env_flags(target.base_env(),
                                              report.solution_env)))
        return 0
    print("not solved; diagnostics:")
    for diag in report.diagnostics:
        print(f"  {diag}")
    return 1


def cmd_bombs(args) -> int:
    from .bombs import all_bombs

    for bomb in all_bombs():
        marker = "  " if bomb.in_table2 else "* "
        print(f"{marker}{bomb.bomb_id:20s} {bomb.challenge:30s} {bomb.case}")
    print("\n(* = auxiliary program, not a Table II row)")
    return 0


def cmd_table2(args) -> int:
    from .bombs import TABLE2_BOMB_IDS, TOOL_COLUMNS
    from .eval import render_table2, run_table2

    bombs = tuple(args.bombs) if args.bombs else TABLE2_BOMB_IDS
    tools = tuple(args.tools) if args.tools else TOOL_COLUMNS
    if args.jobs is not None and args.jobs < 0:
        raise SystemExit("table2: --jobs must be >= 0 (0 = auto-detect)")
    if args.timeout is not None and args.timeout <= 0:
        raise SystemExit("table2: --timeout must be > 0 seconds")
    if args.explain:
        from .eval import explain_matrix
        from .service import ResultStore

        store = ResultStore(args.cache) if args.cache else None
        with _metrics(args, want=True):
            diagnoses = explain_matrix(bombs, tools, store=store,
                                       verbose=not args.json)
        if args.json:
            print(json.dumps([d.to_json() for d in diagnoses], indent=2))
        else:
            print()
            print("\n\n".join(d.render() for d in diagnoses))
        return 0
    trace_out = args.trace_out
    hotspot_text = None
    with _metrics(args, want=args.json or bool(trace_out),
                  capture=bool(trace_out)) as rec:
        from . import obs
        from .obs import session

        prof = obs.Profiler() if trace_out else None
        with session.overlay(profiler=prof):
            result = run_table2(bomb_ids=bombs, tools=tools,
                                verbose=not args.json, jobs=args.jobs,
                                timeout=args.timeout, cache=args.cache)
        if trace_out:
            mem = next(s for s in rec.sinks
                       if isinstance(s, obs.MemorySink))
            Path(trace_out).write_text(
                json.dumps(obs.chrome_trace(mem.events)))
            hotspot_text = obs.render_hotspots(prof.snapshot(),
                                               top=args.top)
    if args.json:
        print(json.dumps(result.to_json(), indent=2))
    else:
        print()
        print(render_table2(result))
    if hotspot_text is not None:
        print()
        print(hotspot_text)
        print(f"\ntrace written to {trace_out} "
              "(load it in https://ui.perfetto.dev)", file=sys.stderr)
    if args.check:
        mismatches = result.mismatches()
        for cell in mismatches:
            print(f"check: {cell.bomb_id}/{cell.tool} observed "
                  f"{cell.label}, paper says {cell.expected}",
                  file=sys.stderr)
        if mismatches:
            print(f"check: {len(mismatches)} cell(s) deviate from the "
                  "paper's Table II", file=sys.stderr)
            return 1
        print("check: all labelled cells match the paper", file=sys.stderr)
    return 0


def cmd_profile(args) -> int:
    from . import obs
    from .obs import session
    from .bombs import get_bomb
    from .eval.harness import _print_cell, run_cell
    from .tools.api import all_tool_names

    try:
        bomb = get_bomb(args.bomb)
    except KeyError:
        raise SystemExit(f"profile: unknown bomb {args.bomb!r} "
                         "(see `repro bombs`)")
    known = all_tool_names()
    if args.tool not in known:
        raise SystemExit(f"profile: unknown tool {args.tool!r} "
                         f"(known: {', '.join(known)})")
    profiler = obs.Profiler()
    # The profiler's overlay sits inside the recorder's, so it flushes
    # its buckets into the recorder before the recorder closes.
    with _metrics(args, capture=True) as rec, \
            session.overlay(profiler=profiler):
        cell = run_cell(bomb, args.tool)
    mem = next(s for s in rec.sinks if isinstance(s, obs.MemorySink))
    if args.trace_out:
        Path(args.trace_out).write_text(
            json.dumps(obs.chrome_trace(mem.events)))
    if args.flame_out:
        Path(args.flame_out).write_text(obs.collapsed_stacks(mem.events))
    if args.json:
        print(json.dumps({"cell": cell.to_json(),
                          **obs.hotspots(profiler.snapshot(), args.top)},
                         indent=2))
        return 0
    _print_cell(cell)
    print()
    print(obs.render_hotspots(profiler.snapshot(), top=args.top,
                              stage_wall=cell.timings,
                              stage_self=cell.timings_self))
    for path, what in ((args.trace_out, "Chrome trace (Perfetto)"),
                       (args.flame_out, "collapsed stacks (flamegraph)")):
        if path:
            print(f"\n{what} written to {path}", file=sys.stderr)
    return 0


def cmd_explain(args) -> int:
    from .bombs import get_bomb
    from .eval import explain_cell
    from .tools.api import all_tool_names

    try:
        bomb = get_bomb(args.bomb)
    except KeyError:
        raise SystemExit(f"explain: unknown bomb {args.bomb!r} "
                         "(see `repro bombs`)")
    known = all_tool_names()
    if args.tool not in known:
        raise SystemExit(f"explain: unknown tool {args.tool!r} "
                         f"(known: {', '.join(known)})")
    with _metrics(args, want=True):
        diagnosis = explain_cell(bomb, args.tool)
    if args.store:
        from .service import ResultStore, cell_key

        ResultStore(args.store).put_diagnosis(
            cell_key(bomb, args.tool), diagnosis)
    if args.json:
        print(json.dumps(diagnosis.to_json(), indent=2))
    else:
        print(diagnosis.render())
    return 0


# -- campaign service -------------------------------------------------------

def _campaign_service(args):
    from .service import CampaignService

    return CampaignService(args.root)


def cmd_campaign_submit(args) -> int:
    from .service import QuotaExceeded, SpecError, build_spec, load_spec_file

    if args.spec and (args.bombs or args.tools):
        raise SystemExit("campaign submit: --spec already selects the "
                         "matrix; drop --bombs/--tools")
    try:
        doc = load_spec_file(args.spec) if args.spec else {}
        # Flags given on the command line override the document's keys.
        for key in ("bombs", "tools", "jobs", "timeout", "retries", "name",
                    "tenant"):
            value = getattr(args, key)
            if value not in (None, []):
                doc[key] = value
        spec = build_spec(doc)
    except SpecError as err:
        raise SystemExit(f"campaign submit: {err}")
    service = _campaign_service(args)
    try:
        cid = service.submit(spec)
    except QuotaExceeded as err:
        print(f"campaign submit: quota rejected: {err}", file=sys.stderr)
        return 3
    print(f"submitted {cid}: {len(spec.bombs)} bombs x {len(spec.tools)} "
          f"tools = {len(spec.cells())} cells")
    if args.run:
        with _metrics(args):
            report = service.run(cid)
        print(report.summary())
    return 0


def cmd_campaign_run(args) -> int:
    if args.jobs is not None and args.jobs < 0:
        raise SystemExit("campaign run: --jobs must be >= 0 "
                         "(0 = auto-detect)")
    service = _campaign_service(args)
    with _metrics(args):
        report = service.run(args.campaign, jobs=args.jobs)
    print(report.summary())
    return 0


def cmd_campaign_status(args) -> int:
    service = _campaign_service(args)
    if args.watch:
        from .service import watch_status

        if args.campaign is None:
            raise SystemExit("campaign status: --watch needs a campaign id")
        if args.interval <= 0:
            raise SystemExit("campaign status: --interval must be > 0")
        final = watch_status(service, args.campaign, interval=args.interval)
        exhausted = final["states"]["exhausted"]
        if exhausted:
            # Scripts and CI gate on this: the campaign *finished*, but
            # some cells ended E only because retries ran out.
            print(f"watch: campaign ended with {exhausted} exhausted "
                  "cell(s)", file=sys.stderr)
            return 1
        return 0
    if args.campaign is None:
        cids = service.campaigns()
        if not cids:
            print(f"{args.root}: no campaigns")
            return 0
        for cid in cids:
            status = service.status(cid)
            states = status["states"]
            print(f"{cid:24s} cells={status['cells']:4d} "
                  f"pending={states['pending']:4d} "
                  f"done={states['done']:4d} "
                  f"exhausted={states['exhausted']:4d}")
        return 0
    print(json.dumps(service.status(args.campaign), indent=2))
    return 0


def cmd_campaign_results(args) -> int:
    from .eval import render_table2

    service = _campaign_service(args)
    result = service.results(args.campaign)
    unserved = service.unserved(args.campaign, result)
    if unserved:
        from .service import engine_digest

        print(f"campaign results: {unserved} done cell(s) are not in the "
              f"store under engine {engine_digest()[:12]}; resubmitting "
              "the campaign recomputes them", file=sys.stderr)
    if args.json:
        print(json.dumps(result.to_json(), indent=2))
    else:
        print(render_table2(result))
    return 0


def cmd_serve(args) -> int:
    from .service.api import serve_forever

    if args.poll <= 0:
        raise SystemExit("serve: --poll must be > 0")

    def ready(bound):
        host, port = bound
        print(f"serving campaign API on http://{host}:{port} "
              f"(root {args.root})", flush=True)
        print("submit with: curl -X POST --data @spec.json "
              f"http://{host}:{port}/campaigns", flush=True)

    with _metrics(args, want=True) as recorder:
        serve_forever(args.root, args.host, args.port,
                      recorder=recorder, poll_s=args.poll, ready=ready)
    return 0


def cmd_worker(args) -> int:
    from .service import run_fleet

    if args.jobs < 0:
        raise SystemExit("worker: --jobs must be >= 0 (0 = auto-detect)")
    if args.lease <= 0:
        raise SystemExit("worker: --lease must be > 0 seconds")
    slots = run_fleet(args.root, args.jobs, lease_s=args.lease,
                      poll_s=args.poll, drain=args.drain,
                      max_idle=args.max_idle, metrics_out=args.metrics_out)
    print(f"worker: 1 loop(s) exited, {slots} slot(s) (root {args.root})")
    return 0


# -- solver lab -------------------------------------------------------------

def cmd_solverlab_capture(args) -> int:
    from .eval import solverlab

    with _metrics(args):
        doc = solverlab.capture_matrix(
            bombs=args.bombs, tools=args.tools, cache=args.cache,
            verbose=not args.json)
    if args.json:
        print(json.dumps(doc, indent=2))
    else:
        print()
        print(solverlab.render_capture(doc))
    return 0


def cmd_solverlab_replay(args) -> int:
    from . import obs
    from .eval import solverlab

    mode = "incremental" if args.incremental else "fresh"
    trace_out = args.trace_out
    with _metrics(args, capture=bool(trace_out)) as rec:
        doc = solverlab.replay_corpus(args.cache, mode=mode,
                                      bombs=args.bombs, tools=args.tools)
        if trace_out:
            mem = next(s for s in rec.sinks
                       if isinstance(s, obs.MemorySink))
            Path(trace_out).write_text(
                json.dumps(obs.chrome_trace(mem.events)))
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=2))
    if args.json:
        print(json.dumps(doc, indent=2))
    else:
        print(solverlab.render_replay(doc))
    if trace_out:
        print(f"trace written to {trace_out} "
              "(load it in https://ui.perfetto.dev)", file=sys.stderr)
    return 1 if doc["drift"] or doc["effort_drift"] else 0


def cmd_solverlab_report(args) -> int:
    from .eval import solverlab

    doc = solverlab.report_corpus(args.cache, top=args.top)
    if args.prom:
        from .obs.export import solverlab_class_wall

        sys.stdout.write(solverlab_class_wall(doc))
        return 0
    if args.json:
        print(json.dumps(doc, indent=2))
    else:
        print(solverlab.render_report(doc, top=args.top))
    return 0


def cmd_solverlab_diff(args) -> int:
    from .eval import solverlab

    try:
        index_a = solverlab.corpus_index(args.a)
        index_b = solverlab.corpus_index(args.b)
    except (OSError, ValueError, json.JSONDecodeError) as err:
        raise SystemExit(f"solverlab diff: {err}")
    doc = solverlab.diff_indices(index_a, index_b)
    if args.json:
        print(json.dumps(doc, indent=2))
    else:
        print(solverlab.render_diff(doc))
    return 1 if doc["drift"] or doc["effort_drift"] else 0


def cmd_stats(args) -> int:
    from .obs import (
        Recorder,
        prometheus_text,
        read_events,
        render_profile,
        render_stats,
        self_time_profile,
    )

    try:
        events = read_events(args.metrics)
    except OSError as err:
        raise SystemExit(f"stats: cannot read {args.metrics}: {err.strerror}")
    except ValueError as err:
        raise SystemExit(
            f"stats: {args.metrics} is not a JSONL event stream ({err})")
    if not events:
        print(f"{args.metrics}: no events")
        return 1
    if args.profile and not args.prom:
        print(render_profile(self_time_profile(events)))
        return 0
    rec = Recorder()
    rec.absorb(events)
    # Streams written before hist events carried their values: a
    # summary alone cannot be merged, so name what absorb left out.
    unmerged = sorted({e["name"] for e in events
                       if e.get("t") == "hist" and "values" not in e})
    if unmerged:
        print(f"stats: {args.metrics} has histograms without raw values "
              f"(not merged): {', '.join(unmerged)}", file=sys.stderr)
    if args.prom:
        sys.stdout.write(prometheus_text(rec.snapshot()))
        return 0
    print(render_stats(rec.snapshot(), len(events)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Concolic execution on small-size binaries — "
                    "reproduction toolkit (DSN 2017)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cc", help="compile a BombC source to a REXF binary")
    p.add_argument("source")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_cc)

    p = sub.add_parser("run", help="execute a REXF binary on the VM")
    p.add_argument("binary")
    p.add_argument("args", nargs="*")
    p.add_argument("--env", action="append", metavar="KEY=VALUE")
    p.add_argument("--max-steps", type=int, default=2_000_000)
    p.add_argument("--metrics-out", metavar="FILE.jsonl",
                   help="stream observability events to FILE (JSONL)")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("dis", help="disassemble a REXF binary")
    p.add_argument("binary")
    p.add_argument("--no-lib", action="store_true",
                   help="skip the library section")
    p.set_defaults(func=cmd_dis)

    p = sub.add_parser("nm", help="print the symbol table")
    p.add_argument("binary")
    p.set_defaults(func=cmd_nm)

    p = sub.add_parser("taint", help="taint summary of one concrete run")
    p.add_argument("binary")
    p.add_argument("args", nargs="*")
    p.add_argument("--env", action="append", metavar="KEY=VALUE")
    p.set_defaults(func=cmd_taint)

    p = sub.add_parser("solve", help="hunt the bomb with a tool")
    p.add_argument("binary")
    p.add_argument("--tool", default="tritonx",
                   help="bapx | tritonx | angrx | angrx_nolib | sandshrewx "
                        "| hybridx | rexx")
    p.add_argument("--seed", action="append", metavar="ARG")
    p.add_argument("--env", action="append", metavar="KEY=VALUE")
    p.add_argument("--metrics-out", metavar="FILE.jsonl",
                   help="stream observability events to FILE (JSONL)")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("bombs", help="list the logic-bomb dataset")
    p.set_defaults(func=cmd_bombs)

    p = sub.add_parser("table2", help="run (a slice of) the Table II matrix")
    p.add_argument("--bombs", nargs="*")
    p.add_argument("--tools", nargs="*")
    p.add_argument("--jobs", type=int, metavar="N",
                   help="keep N cells in flight in up to N long-lived "
                        "worker processes (default: serial, in-process; "
                        "same output; 0 = one per usable CPU)")
    p.add_argument("--timeout", type=float, metavar="SECONDS",
                   help="per-cell wall-clock budget; an overrun kills the "
                        "cell's worker process and classifies the cell E")
    p.add_argument("--cache", metavar="DIR",
                   help="serve unchanged cells from the content-addressed "
                        "result store at DIR (created on first use)")
    p.add_argument("--check", action="store_true",
                   help="exit nonzero when any cell label deviates from "
                        "the paper's Table II (CI gate)")
    p.add_argument("--json", action="store_true",
                   help="emit the matrix as JSON (outcome, expected, "
                        "matches_paper, per-stage timings)")
    p.add_argument("--explain", action="store_true",
                   help="run every cell with forensics on and emit a "
                        "per-cell diagnosis report instead of the matrix")
    p.add_argument("--metrics-out", metavar="FILE.jsonl",
                   help="stream observability events to FILE (JSONL)")
    p.add_argument("--trace-out", metavar="FILE.json",
                   help="write the run's stitched span trace as Chrome "
                        "trace-event JSON (load in Perfetto) and print "
                        "a hotspot report")
    p.add_argument("--top", type=int, default=10, metavar="N",
                   help="hotspot report depth for --trace-out "
                        "(default 10)")
    p.set_defaults(func=cmd_table2)

    p = sub.add_parser(
        "profile",
        help="attribution profile of one (bomb, tool) cell: hot PCs, "
             "hot guards, optional Perfetto trace / flamegraph")
    p.add_argument("bomb", help="bomb id (see `repro bombs`)")
    p.add_argument("tool", help="bapx | tritonx | angrx | angrx_nolib | "
                                "sandshrewx | hybridx | rexx")
    p.add_argument("--top", type=int, default=10, metavar="N",
                   help="rows per hotspot table (default 10)")
    p.add_argument("--trace-out", metavar="FILE.json",
                   help="write Chrome trace-event JSON (Perfetto)")
    p.add_argument("--flame-out", metavar="FILE.txt",
                   help="write collapsed-stack flamegraph text "
                        "(flamegraph.pl / speedscope)")
    p.add_argument("--json", action="store_true",
                   help="emit the cell summary and hotspot tables as JSON")
    p.add_argument("--metrics-out", metavar="FILE.jsonl",
                   help="stream observability events to FILE (JSONL)")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser(
        "explain",
        help="forensic diagnosis of one Table II cell (why that label?)")
    p.add_argument("bomb", help="bomb id (see `repro bombs`)")
    p.add_argument("tool", help="bapx | tritonx | angrx | angrx_nolib | "
                                "sandshrewx | hybridx | rexx")
    p.add_argument("--json", action="store_true",
                   help="emit the diagnosis as JSON")
    p.add_argument("--store", metavar="DIR",
                   help="also persist the diagnosis next to the result "
                        "store at DIR")
    p.add_argument("--metrics-out", metavar="FILE.jsonl",
                   help="stream observability events to FILE (JSONL)")
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser(
        "campaign",
        help="durable analysis campaigns (submit/run/status/results)")
    camp = p.add_subparsers(dest="verb", required=True)

    c = camp.add_parser("submit", help="persist a campaign and enqueue "
                                       "its (bomb, tool) cells")
    c.add_argument("--root", default=".repro-service", metavar="DIR",
                   help="service root (store + campaign journals); "
                        "default ./.repro-service")
    c.add_argument("--bombs", nargs="*")
    c.add_argument("--tools", nargs="*")
    c.add_argument("--jobs", type=int, metavar="N",
                   help="cells in flight when the campaign runs "
                        "(default 1; 0 = one per usable CPU)")
    c.add_argument("--timeout", type=float, metavar="SECONDS",
                   help="per-cell wall-clock budget (overruns become E)")
    c.add_argument("--retries", type=int, metavar="K",
                   help="crash retries per cell before it is "
                        "classified E (default 2)")
    c.add_argument("--name", metavar="LABEL")
    c.add_argument("--tenant", metavar="TENANT",
                   help="quota-accounting tag (budgets in "
                        "<root>/quotas.json)")
    c.add_argument("--spec", metavar="FILE",
                   help="submit a declarative spec document (.json or "
                        ".toml; see the README's spec format); the other "
                        "flags override its keys")
    c.add_argument("--run", action="store_true",
                   help="drive the campaign to completion immediately")
    c.add_argument("--metrics-out", metavar="FILE.jsonl")
    c.set_defaults(func=cmd_campaign_submit)

    c = camp.add_parser("run", help="drive a submitted campaign to "
                                    "completion (resumable)")
    c.add_argument("campaign")
    c.add_argument("--root", default=".repro-service", metavar="DIR")
    c.add_argument("--jobs", type=int, metavar="N",
                   help="override the spec's worker count "
                        "(0 = one per usable CPU)")
    c.add_argument("--metrics-out", metavar="FILE.jsonl")
    c.set_defaults(func=cmd_campaign_run)

    c = camp.add_parser("status", help="queue-level progress (no "
                                       "execution)")
    c.add_argument("campaign", nargs="?")
    c.add_argument("--root", default=".repro-service", metavar="DIR")
    c.add_argument("--watch", action="store_true",
                   help="poll the campaign, printing one progress line "
                        "per interval, until no job is pending/claimed")
    c.add_argument("--interval", type=float, default=2.0, metavar="SECONDS",
                   help="poll interval for --watch (default 2s)")
    c.set_defaults(func=cmd_campaign_status)

    c = camp.add_parser("results", help="render a campaign's matrix "
                                        "from the result store")
    c.add_argument("campaign")
    c.add_argument("--root", default=".repro-service", metavar="DIR")
    c.add_argument("--json", action="store_true")
    c.set_defaults(func=cmd_campaign_results)

    p = sub.add_parser(
        "serve",
        help="asyncio HTTP API over a service root: submit/status/"
             "results, NDJSON progress streams, Prometheus /metrics")
    p.add_argument("--root", default=".repro-service", metavar="DIR",
                   help="service root shared with the workers "
                        "(default ./.repro-service)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8737,
                   help="TCP port (default 8737; 0 = ephemeral)")
    p.add_argument("--poll", type=float, default=0.5, metavar="SECONDS",
                   help="status poll cadence of the /events stream "
                        "(default 0.5s)")
    p.add_argument("--metrics-out", metavar="FILE.jsonl",
                   help="also stream the server recorder's events to "
                        "FILE (JSONL)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "worker",
        help="fleet worker: pull cells from every campaign under a "
             "shared root with lease-based claims")
    p.add_argument("--root", "--store", dest="root",
                   default=".repro-service", metavar="DIR",
                   help="service root shared with `repro serve` and the "
                        "other workers (default ./.repro-service)")
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="cells this worker keeps in flight, in up to N "
                        "long-lived slot processes (default 1; 0 = one "
                        "per usable CPU)")
    p.add_argument("--lease", type=float, default=30.0, metavar="SECONDS",
                   help="claim lease duration; a worker missing two "
                        "renewal heartbeats forfeits its cell "
                        "(default 30s)")
    p.add_argument("--poll", type=float, default=0.2, metavar="SECONDS",
                   help="idle poll cadence while no cell is claimable "
                        "(default 0.2s)")
    p.add_argument("--drain", action="store_true",
                   help="exit once every campaign under the root is "
                        "terminal (batch/CI mode; default: keep "
                        "polling for new campaigns)")
    p.add_argument("--max-idle", type=float, metavar="SECONDS",
                   help="exit after this long without claiming a cell")
    p.add_argument("--metrics-out", metavar="FILE.jsonl",
                   help="stream worker metrics, with every cell's "
                        "merged in, to FILE (one stream for all --jobs "
                        "slots)")
    p.set_defaults(func=cmd_worker)

    p = sub.add_parser(
        "solverlab",
        help="SMT flight-recorder corpora: capture a matrix's solver "
             "queries, replay them offline, analyze the workload")
    lab = p.add_subparsers(dest="verb", required=True)

    c = lab.add_parser("capture", help="run (a slice of) the matrix "
                                       "serially in-process with query "
                                       "logging on and persist the "
                                       "corpus into the store")
    c.add_argument("--bombs", nargs="*")
    c.add_argument("--tools", nargs="*")
    c.add_argument("--cache", default=".repro-solverlab", metavar="DIR",
                   help="result store receiving the query corpus "
                        "(default ./.repro-solverlab; doubles as the "
                        "cell result cache)")
    c.add_argument("--json", action="store_true",
                   help="emit the capture summary as JSON")
    c.add_argument("--metrics-out", metavar="FILE.jsonl",
                   help="stream observability events to FILE (JSONL)")
    c.set_defaults(func=cmd_solverlab_capture)

    c = lab.add_parser("replay", help="re-run every captured query "
                                      "offline and check verdict "
                                      "identity and, fresh, one-shot "
                                      "search effort (exit 1 on drift)")
    c.add_argument("--cache", default=".repro-solverlab", metavar="DIR",
                   help="store holding the captured corpus")
    c.add_argument("--bombs", nargs="*",
                   help="restrict to these bombs' manifests")
    c.add_argument("--tools", nargs="*",
                   help="restrict to these tools' manifests")
    c.add_argument("--incremental", action="store_true",
                   help="replay through an IncrementalSolver (assert "
                        "prefix, answer via assumptions) instead of a "
                        "fresh solver per query")
    c.add_argument("--json", action="store_true",
                   help="emit the replay document as JSON")
    c.add_argument("--out", metavar="FILE.json",
                   help="also write the replay document to FILE "
                        "(feed it to `solverlab diff`)")
    c.add_argument("--trace-out", metavar="FILE.json",
                   help="write the replay's span trace as Chrome "
                        "trace-event JSON (load in Perfetto)")
    c.add_argument("--metrics-out", metavar="FILE.jsonl",
                   help="stream observability events to FILE (JSONL)")
    c.set_defaults(func=cmd_solverlab_replay)

    c = lab.add_parser("report", help="workload analytics: top offenders, "
                                      "per-class / per-kind / per-family "
                                      "solve effort")
    c.add_argument("--cache", default=".repro-solverlab", metavar="DIR",
                   help="store holding the captured corpus")
    c.add_argument("--top", type=int, default=10, metavar="N",
                   help="rows per top-offender table (default 10)")
    c.add_argument("--json", action="store_true",
                   help="emit the report as JSON")
    c.add_argument("--prom", action="store_true",
                   help="emit the per-class solve wall as the "
                        "repro_solverlab_class_wall_seconds Prometheus "
                        "gauge family")
    c.set_defaults(func=cmd_solverlab_report)

    c = lab.add_parser("diff", help="compare two corpora or replay "
                                    "documents: verdict drift, search "
                                    "effort and model drift between "
                                    "replays, per-class effort deltas "
                                    "(exit 1 on drift)")
    c.add_argument("a", help="corpus directory or replay JSON")
    c.add_argument("b", help="corpus directory or replay JSON")
    c.add_argument("--json", action="store_true",
                   help="emit the diff as JSON")
    c.set_defaults(func=cmd_solverlab_diff)

    p = sub.add_parser("stats", help="summarize a --metrics-out JSONL file")
    p.add_argument("metrics", help="path to a FILE.jsonl event stream")
    p.add_argument("--prom", action="store_true",
                   help="emit Prometheus text exposition instead of the "
                        "human summary")
    p.add_argument("--profile", action="store_true",
                   help="emit a self-time span profile (wall minus child "
                        "wall, per span path)")
    p.set_defaults(func=cmd_stats)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
