"""Ledger comparison: did a candidate's runs regress against a baseline's?

    python3 matrix_ledger/compare.py BASELINE.jsonl CANDIDATE.jsonl
    python3 matrix_ledger/compare.py --summary RUNS.jsonl

Each file holds ledger results, one JSON line per run, as
``ledger.py --out`` appends them; runs are grouped by workload and by
traced (``--trace 1``) or untraced.  The rules, per group:

* every candidate run must be ``correct`` and fail exactly as many
  cells as the baseline's runs did;
* a deterministic per-layer metric (unit ``count``, ``ratio`` or
  ``pct``) must read exactly the baseline's value in every candidate
  run, except those :data:`RACY` names for the workload;
* an end-to-end metric regresses only when the candidate median is
  worse than the baseline median by more than the metric's bound in
  ``BENCHMARK.json`` and, when each side has at least three runs, also
  lies outside the baseline's interquartile range.

Per-layer timings have no bound; they are reported, never gated.
``--summary`` prints the median, quartiles and run count of every
metric per group (the form ``baseline.json`` records).  Exit status 0
when the candidate holds, 1 on any regression (one line each on
stderr).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

#: Units of work counts and ratios of counts, which must repeat exactly.
EXACT_UNITS = ("count", "ratio", "pct")

#: Deterministic-unit metrics that depend on worker interleaving: on
#: ``campaign`` two workers share one store, and an image lifted and
#: persisted by one is preloaded, not lifted, by the other.
RACY = {"campaign": ("ir.lift_instructions", "service.lift_stores")}


def load_runs(path: str | Path) -> dict[tuple[str, int], list[dict]]:
    """Results of *path* grouped by ``(workload, trace)``."""
    groups: dict[tuple[str, int], list[dict]] = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.strip():
            row = json.loads(line)
            groups.setdefault((row["workload"], row["trace"]), []).append(
                row["result"])
    return groups


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) of *values*."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def regressed(base: list[float], cand: list[float], bound: float,
              better: str) -> bool:
    """The noise-aware rule for one metric with a regression bound."""
    q1, median, q3 = quartiles(base)
    worse = statistics.median(cand) - median
    if better == "higher":
        worse = -worse
    if worse <= bound * abs(median):
        return False
    if len(base) >= 3 and len(cand) >= 3:
        inside = q1 <= statistics.median(cand) <= q3
        return not inside
    return True


def compare(baseline: dict, candidate: dict, benchmark: dict) -> list[str]:
    """Regression messages for *candidate* against *baseline* (both as
    :func:`load_runs` returns them); empty when the candidate holds."""
    bounds = {m["name"]: m for m in benchmark["end_to_end"]}
    problems = []
    for key in sorted(candidate):
        workload, trace = key
        cand = candidate[key]
        base = baseline.get(key)
        label = f"{workload}{' (traced)' if trace else ''}"
        if not all(r["correct"] for r in cand):
            problems.append(f"{label}: a candidate run is not correct")
        if base is None:
            continue
        base_failed = {r["failed"] for r in base}
        cand_failed = {r["failed"] for r in cand}
        if cand_failed != base_failed:
            problems.append(f"{label}: failed cells {sorted(base_failed)} "
                            f"-> {sorted(cand_failed)}")
        for name, first in base[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in cand
                      if name in r["metrics"]]
            if not values:
                problems.append(f"{label}: {name} missing")
                continue
            if first["unit"] in EXACT_UNITS and \
                    name not in RACY.get(workload, ()):
                if any(v != first["value"] for v in values):
                    problems.append(f"{label}: {name} changed "
                                    f"{first['value']} -> {values}")
            elif name in bounds:
                spec = bounds[name]
                old = [r["metrics"][name]["value"] for r in base]
                if regressed(old, values, spec["bound"], spec["better"]):
                    problems.append(
                        f"{label}: {name} regressed: median "
                        f"{statistics.median(old):.6g} -> "
                        f"{statistics.median(values):.6g} {first['unit']} "
                        f"(bound {spec['bound']:.0%}, baseline quartiles "
                        f"{quartiles(old)[0]:.6g}..{quartiles(old)[2]:.6g})")
    return problems


def summary(groups: dict) -> dict:
    """Median, quartiles and run count per group and metric."""
    out: dict = {}
    for (workload, trace), runs in sorted(groups.items()):
        metrics = {}
        for name, first in runs[0]["metrics"].items():
            q1, median, q3 = quartiles(
                [r["metrics"][name]["value"] for r in runs])
            metrics[name] = {"median": median, "q1": q1, "q3": q3,
                             "unit": first["unit"]}
        out.setdefault("traced" if trace else "untraced", {})[workload] = {
            "runs": len(runs), "failed": sorted({r["failed"] for r in runs}),
            "metrics": metrics}
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="compare ledger runs against a baseline")
    parser.add_argument("files", nargs="+", metavar="RUNS.jsonl",
                        help="BASELINE CANDIDATE, or one file with --summary")
    parser.add_argument("--summary", action="store_true",
                        help="print median/quartiles per metric instead")
    parser.add_argument("--benchmark", default=str(BENCHMARK),
                        metavar="BENCHMARK.json")
    args = parser.parse_args(argv)
    try:
        if args.summary:
            if len(args.files) != 1:
                parser.error("--summary takes one file")
            print(json.dumps(summary(load_runs(args.files[0])), indent=2))
            return 0
        if len(args.files) != 2:
            parser.error("give BASELINE and CANDIDATE")
        benchmark = json.loads(Path(args.benchmark).read_text())
        problems = compare(load_runs(args.files[0]),
                           load_runs(args.files[1]), benchmark)
    except (OSError, ValueError, KeyError) as err:
        print(f"compare: {err}", file=sys.stderr)
        return 1
    for problem in problems:
        print(f"compare: {problem}", file=sys.stderr)
    if problems:
        return 1
    print(f"compare: ok ({args.files[1]} holds against {args.files[0]})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
