"""Matrix ledger: end-to-end and per-layer benchmark of the Table II matrix.

Run from the root of a checkout::

    python3 matrix_ledger/ledger.py --workload symbolic --seed 0 \\
        --seconds 34 --trace 0

It sets up once (imports ``repro`` and compiles the 22 Table II images),
then runs rounds over one workload's cells in a closed loop until
``--seconds`` is spent (always at least one round).  Each round forks
fresh children from the set-up process, so every round starts with the
same cold process-wide caches:

* the **cold** pass runs the cells through the workload's path —
  ``run_table2`` serially, or ``run_table2(jobs=2, cache=<fresh store>)``
  on ``campaign`` — and gives ``wall_s``, the per-cell times and
  ``peak_rss_mb``;
* the **fleet** pass submits the same cells as a campaign to a fresh
  service root and drains it with two fleet workers (``fleet_wall_s``);
* the **warm** pass is a fresh ``repro table2 --cache`` process over the
  fleet's store, timed from spawn to exit (``warm_rerun_s``).

Each pass timing is the fastest of the run's rounds, and each cell's
time is its fastest too: the host's speed drifts by tens of percent
from second to second, and the fastest repetition is the steady
estimate of what the code costs.  ``setup_s`` is the median of three
fresh processes that only set up.  With ``--trace 1`` a round is
instead an untraced cold pass followed by a traced one (entry-point
spans plus the program's ``repro.obs`` counters, see ``spans.py``),
and the metrics are the per-layer ones of the fastest traced pass.

``--seed`` permutes the bomb order within the workload (seed 0 is the
paper's row order); no engine sees it.  Outputs are checked: every cell
label must equal the dataset's expected label, the fleet must render
the same table as the cold pass with no exhausted job, and the warm
rerun must serve the fleet's cells unchanged.  The last line of stdout
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
The exit status is 1 on a harness inconsistency (a failed identity
check or a crashed pass) and 2 when the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for stores, spools and temporary files: inside the
#: checkout, removed when the run ends.
WORK = ROOT / ".ledger-work"

#: Set-up samples per run; ``setup_s`` is their median.
SETUP_SAMPLES = 3
#: Any single pass that runs longer than this is killed (a hung engine).
PASS_LIMIT_S = 150
#: Worker count of the parallel passes: the host's two CPUs.
SLOTS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    bombs: tuple[str, ...]
    tools: tuple[str, ...]
    #: Worker count of the cold pass: 1 is the serial ``run_table2``
    #: without a store; 2 is ``run_table2(jobs=2, cache=<fresh store>)``.
    cold_jobs: int


# Why each workload exists is in BENCHMARK.json and README.md.  Cell sets
# are bombs x tools products (the shape campaign specs and the table2 CLI
# accept).  Rows were dropped, costliest first, until a round took about
# 6 s on a 2-CPU host, so a 34 s run repeats it four to seven times
# (README.md lists what is left out).  cf_aes is out everywhere: under
# angrx it is the one cell whose label disagrees with its expected label.
WORKLOADS = {w.name: w for w in (
    # Explore and solve dominate: smt and symex changes show here.
    Workload("symbolic",
             ("sv_time", "sv_web", "sv_syscall", "sv_arglen", "cp_stack",
              "cp_file", "cp_syscall", "cp_file_exception", "pp_pthread",
              "cs_file_name", "fp_float", "ef_sin", "ef_srand"),
             ("angrx", "sandshrewx"), cold_jobs=1),
    # Fuzzing, the VM, tracing and replay dominate; symex is bypassed.
    Workload("concrete",
             ("sv_time", "sv_web", "sv_syscall", "sv_arglen", "cp_stack",
              "cp_syscall", "pp_pthread", "sa_l1_array", "sa_l2_array",
              "cs_file_name", "cs_syscall_name", "sj_jump", "sj_jump_array",
              "ef_sin"),
             ("bapx", "tritonx", "hybridx"), cold_jobs=1),
    # Many small cells through the service: per-cell fork, poll and
    # store overhead.
    Workload("campaign",
             ("sv_time", "sv_web", "sv_syscall", "sv_arglen", "cp_stack",
              "cp_syscall", "cp_exception", "pp_pthread", "pp_fork_pipe",
              "cs_file_name", "fp_float", "ef_sin"),
             ("bapx", "tritonx", "angrx"), cold_jobs=2),
)}

#: The end-to-end metrics: (name, unit).
END_TO_END = (
    ("wall_s", "s"),
    ("cell_p50_s", "s"),
    ("cell_tail_s", "s"),
    ("peak_rss_mb", "MB"),
    ("fleet_wall_s", "s"),
    ("warm_rerun_s", "s"),
    ("setup_s", "s"),
)


class HarnessError(Exception):
    """A pass crashed or an identity check failed."""


def permuted(bombs: tuple[str, ...], seed: int) -> list[str]:
    """*bombs* in the order seed *seed* gives: seed 0 keeps the paper's
    row order, any other seed is a fixed shuffle."""
    order = list(bombs)
    if seed != 0:
        random.Random(seed).shuffle(order)
    return order


def setup() -> None:
    """What the benchmark does once before its first cell: import the
    harness and the campaign service, compile the Table II images."""
    import repro.eval  # noqa: F401
    import repro.service  # noqa: F401
    from repro.bombs import TABLE2_BOMB_IDS, get_bomb

    for bomb_id in TABLE2_BOMB_IDS:
        get_bomb(bomb_id).image


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _timed_process(argv: list[str]) -> tuple[float, str]:
    """Run *argv* from the checkout root; (spawn-to-exit seconds, stdout)."""
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=_child_env(), text=True,
                          capture_output=True, timeout=PASS_LIMIT_S)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise HarnessError(f"{' '.join(argv[:4])} ... exited "
                           f"{proc.returncode}: {proc.stderr.strip()[-400:]}")
    return wall, proc.stdout


def _forked(fn, *args) -> tuple[dict, float]:
    """``fn(*args)`` in a forked child; (its JSON result, peak RSS in MB
    of the child and every descendant it reaped)."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # child
        code = 0
        try:
            os.close(read_fd)
            os.setpgid(0, 0)
            signal.alarm(PASS_LIMIT_S)
            payload = {"ok": fn(*args)}
        except BaseException:
            payload = {"error": traceback.format_exc()}
            code = 1
        try:
            with os.fdopen(write_fd, "w") as out:
                json.dump(payload, out)
        finally:
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd) as pipe:
        data = pipe.read()
    _, status, usage = os.wait4(pid, 0)
    if not os.WIFEXITED(status) or os.WEXITSTATUS(status) != 0:
        try:  # a pass that died may leave workers behind
            os.killpg(pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
    try:
        payload = json.loads(data)
    except ValueError:
        payload = {"error": f"pass died with wait status {status}"}
    if "error" in payload:
        raise HarnessError(f"{fn.__name__} failed:\n{payload['error']}")
    return payload["ok"], usage.ru_maxrss / 1024


def _cells(table) -> list[list]:
    return [[c.bomb_id, c.tool, c.label, c.expected, c.report.elapsed,
             c.infra_failure] for c in table.cells.values()]


def _cold(workload: Workload, bombs: list[str], store: Path) -> dict:
    from repro.eval import harness, render_table2

    start = time.perf_counter()
    if workload.cold_jobs == 1:
        table = harness.run_table2(tuple(bombs), workload.tools)
    else:
        table = harness.run_table2(tuple(bombs), workload.tools,
                                   jobs=workload.cold_jobs, cache=str(store))
    wall = time.perf_counter() - start
    return {"wall": wall, "cells": _cells(table),
            "render": render_table2(table)}


def _fleet(workload: Workload, bombs: list[str], root: Path) -> dict:
    from repro.eval import render_table2
    from repro.service import CampaignService, CampaignSpec, run_fleet

    start = time.perf_counter()
    service = CampaignService(root)
    cid = service.submit(CampaignSpec(bombs=tuple(bombs),
                                      tools=workload.tools, jobs=SLOTS))
    run_fleet(root, SLOTS, drain=True)
    wall = time.perf_counter() - start
    table = service.results(cid)
    return {"wall": wall, "states": service.status(cid)["states"],
            "render": render_table2(table),
            "json": table.to_json()["cells"], "cells": _cells(table)}


def _traced_cold(workload: Workload, bombs: list[str], store: Path,
                 spool: Path, trace_out: str | None) -> dict:
    from repro import obs

    spool.mkdir(parents=True)
    tracer = spans.Tracer(workload.name, spool)
    spans.install(tracer)
    recorder = obs.Recorder()
    with obs.recording(recorder):
        out = _cold(workload, bombs, store)
    collected = tracer.collected()
    if trace_out is not None:
        doc = obs.chrome_trace(tracer.events(collected))
        problems = obs.validate_chrome_trace(doc)
        if problems:
            raise HarnessError(f"trace not loadable: {problems[:3]}")
        Path(trace_out).write_text(json.dumps(doc))
    out["layers"] = spans.aggregate(collected)
    out["counters"] = dict(recorder.counters)
    return out


def _label_failures(cells: list[list]) -> int:
    """Cells whose label differs from the expected one, or that the
    service synthesized (timeout, crash)."""
    return sum(1 for _b, _t, label, expected, _e, infra in cells
               if label != expected or infra)


def run_round(workload: Workload, bombs: list[str], n: int) -> dict:
    """One untraced round: cold, fleet and warm passes, cross-checked."""
    base = WORK / f"round{n}"
    cold, rss = _forked(_cold, workload, bombs, base / "store")
    fleet, _ = _forked(_fleet, workload, bombs, base / "fleet")
    warm_s, stdout = _timed_process(
        [sys.executable, "-m", "repro.cli", "table2",
         "--bombs", *bombs, "--tools", *workload.tools,
         "--cache", str(base / "fleet" / "store"), "--json"])
    warm = json.loads(stdout)["cells"]
    problems = []
    if fleet["render"] != cold["render"]:
        problems.append("fleet table differs from the cold table")
    if fleet["states"].get("exhausted") or \
            fleet["states"].get("done") != len(cold["cells"]):
        problems.append(f"fleet job states {fleet['states']}")
    if warm != fleet["json"]:
        problems.append("warm rerun did not serve the fleet's cells unchanged")
    shutil.rmtree(base, ignore_errors=True)
    return {"cold": cold, "rss": rss, "fleet": fleet["wall"],
            "warm": warm_s, "problems": problems,
            "attempted": len(cold["cells"]) + len(fleet["cells"]) + len(warm),
            "failed": _label_failures(cold["cells"] + fleet["cells"])
            + sum(1 for c in warm if c["outcome"] != c["expected"])}


def run_traced_round(workload: Workload, bombs: list[str], n: int,
                     trace_out: str | None) -> dict:
    """One traced round: an untraced cold pass, then a traced one."""
    base = WORK / f"round{n}"
    plain, _ = _forked(_cold, workload, bombs, base / "plain")
    traced, _ = _forked(_traced_cold, workload, bombs, base / "traced",
                        base / "spool", trace_out)
    shutil.rmtree(base, ignore_errors=True)
    return {"plain": plain["wall"], "traced": traced, "problems": [],
            "attempted": len(plain["cells"]) + len(traced["cells"]),
            "failed": _label_failures(plain["cells"] + traced["cells"])}


def _closed_loop(seconds: float, run) -> list[dict]:
    """Call ``run(n)`` until the next round would overrun *seconds*."""
    rounds: list[dict] = []
    durations: list[float] = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        rounds.append(run(len(rounds)))
        durations.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(durations) > seconds:
            return rounds


def samples(rounds: list[dict], setup_walls: list[float]) -> dict:
    """Every timing sample of an untraced run, per end-to-end metric,
    plus each cold-pass cell's time to verdict per round."""
    cells: dict[str, list[float]] = {}
    for r in rounds:
        for bomb, tool, _l, _e, elapsed, _i in r["cold"]["cells"]:
            cells.setdefault(f"{bomb}/{tool}", []).append(elapsed)
    return {"wall_s": [r["cold"]["wall"] for r in rounds],
            "peak_rss_mb": [r["rss"] for r in rounds],
            "fleet_wall_s": [r["fleet"] for r in rounds],
            "warm_rerun_s": [r["warm"] for r in rounds],
            "setup_s": list(setup_walls), "cells": cells}


def end_to_end(sampled: dict) -> dict:
    """Each pass timing is the fastest of the run's rounds (each cell's
    too), ``peak_rss_mb`` the largest, ``setup_s`` the median sample."""
    cell_times = [min(v) for v in sampled["cells"].values()]
    metrics = {name: min(sampled[name])
               for name in ("wall_s", "fleet_wall_s", "warm_rerun_s")}
    metrics["setup_s"] = statistics.median(sampled["setup_s"])
    metrics["peak_rss_mb"] = max(sampled["peak_rss_mb"])
    metrics["cell_p50_s"] = statistics.median(cell_times)
    metrics["cell_tail_s"] = spans.tail_percentile(cell_times)[1]
    return {name: metrics[name] for name, _unit in END_TO_END}


def per_layer(workload: Workload, rounds: list[dict], lang: dict) -> dict:
    """The per-layer metrics of the fastest traced pass."""
    fastest = min((r["traced"] for r in rounds), key=lambda t: t["wall"])
    cells = fastest["cells"]
    out = spans.layer_metrics(
        fastest["layers"], fastest["counters"], wall=fastest["wall"],
        slots=workload.cold_jobs, cell_elapsed=[c[4] for c in cells],
        solved=sum(1 for c in cells if c[2] == "ok"), lang=lang)
    plain = min(r["plain"] for r in rounds)
    print(f"fastest cold pass: untraced {plain:.3f} s, "
          f"traced {fastest['wall']:.3f} s")
    out["obs.trace_overhead_frac"] = fastest["wall"] / plain - 1.0
    return out


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            trace_out: str | None) -> tuple[list[dict], dict, dict, dict]:
    """Set up, run the closed loop of rounds, derive the metrics:
    (rounds, metrics, their units, untraced samples)."""
    bombs = permuted(workload.bombs, seed)
    if trace:
        tracer = spans.Tracer(workload.name)
        spans.install(tracer, layers=("lang",))
        setup()
        lang = spans.aggregate(tracer.spans)["spans"].get("lang.compile", {})
        rounds = _closed_loop(seconds, lambda n: run_traced_round(
            workload, bombs, n, trace_out if n == 0 else None))
        units = {name: unit for name, unit, _ in spans.PER_LAYER}
        return rounds, per_layer(workload, rounds, lang), units, {}
    setup_walls = [
        _timed_process([sys.executable, str(Path(__file__).resolve()),
                        "--setup-only"])[0]
        for _ in range(SETUP_SAMPLES)]
    setup()
    rounds = _closed_loop(seconds, lambda n: run_round(workload, bombs, n))
    sampled = samples(rounds, setup_walls)
    return rounds, end_to_end(sampled), dict(END_TO_END), sampled


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=34.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", metavar="FILE.json",
                        help="with --trace 1, write the first traced "
                             "pass as Chrome trace-event JSON (Perfetto)")
    parser.add_argument("--out", metavar="FILE.jsonl",
                        help="append this run's result as one JSON line")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"ledger: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_only:
        setup()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    workload = WORKLOADS[args.workload]
    trace_out = (str(Path(args.trace_out).resolve())
                 if args.trace_out else None)

    shutil.rmtree(WORK, ignore_errors=True)
    (WORK / "tmp").mkdir(parents=True)
    # Stores, spools and the program's own temporary files stay inside
    # the checkout.
    os.environ["TMPDIR"] = tempfile.tempdir = str(WORK / "tmp")
    try:
        rounds, metrics, units, sampled = measure(
            workload, args.seed, args.seconds, bool(args.trace), trace_out)
    except (HarnessError, OSError, subprocess.SubprocessError) as err:
        print(f"ledger: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    problems = [p for r in rounds for p in r["problems"]]
    for problem in problems:
        print(f"ledger: {problem}", file=sys.stderr)
    failed = sum(r["failed"] for r in rounds)
    result = {
        "correct": not problems and failed == 0,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(f"{workload.name}: {len(rounds)} round(s), "
          f"{len(workload.bombs) * len(workload.tools)} cells, "
          f"seed {args.seed}, trace {args.trace}")
    for name, value in metrics.items():
        print(f"  {name:32s} {value:>16.6f} {units[name]}")
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fp:
            fp.write(json.dumps({"workload": workload.name,
                                 "seed": args.seed, "trace": args.trace,
                                 "rounds": len(rounds), "result": result,
                                 "samples": sampled}) + "\n")
    print(json.dumps(result))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
