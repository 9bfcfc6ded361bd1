"""Offline solver-workload analytics over captured query corpora.

The solve stage dominates the full-matrix wall clock, and the paper's
core finding is that capability gaps trace back to *specific constraint
shapes*.  This module turns the SMT flight recorder
(:mod:`repro.smt.querylog`) into a lab bench:

* :func:`capture_matrix` — run a (sliced) Table II matrix with query
  logging on and persist the content-addressed corpus + per-cell
  manifests into the campaign store.
* :func:`replay_corpus` — re-run every recorded query offline against a
  fresh (or incremental) solver, assert verdict identity (and, in fresh
  mode, the recorded search effort of one-shot queries), and report
  per-class effort deltas.  Replayed queries emit ``solverlab`` obs
  spans, so a replay under ``--trace-out`` renders in Perfetto like any
  other run.
* :func:`report_corpus` — the workload table: top offenders by wall and
  conflicts, aggregation by guard-tag kind, bomb family, and feature
  class — the table that says which constraint shapes to attack.
* :func:`corpus_index` / :func:`diff_indices` — normalize a store
  directory or a replay JSON into a comparable index and diff two of
  them: verdict drift and, between two replays, per-digest search
  effort and model drift (the hard failures) plus per-class effort
  regression.

Everything is plain dict/JSON: the CLI renders text, CI consumes
``--json`` artifacts, and :func:`repro.obs.export.solverlab_class_wall`
renders the report as the ``repro_solverlab_class_wall_seconds``
Prometheus family.
"""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path

from .. import obs
from ..errors import SolverError
from ..obs import session
from ..smt import querylog
from ..smt.solver import IncrementalSolver, Solver

#: Version stamp on replay/report JSON documents.
SOLVERLAB_SCHEMA = 1

#: The search counters a replay document records per digest.
EFFORT_KEYS = ("conflicts", "decisions", "restarts", "learnt", "gates")

#: The counters a one-shot query's occurrence records and a fresh
#: replay must reproduce exactly.
RECORDED_EFFORT_KEYS = ("conflicts", "gates", "learnt")


def _store(cache):
    from ..service.store import ResultStore

    return cache if isinstance(cache, ResultStore) else ResultStore(cache)


# -- capture -----------------------------------------------------------------

def capture_matrix(bombs=None, tools=None, cache=".repro-solverlab",
                   verbose: bool = False) -> dict:
    """Run a (sliced) matrix with the flight recorder on.

    Cells run serially in-process (the recorder is process-local; each
    tool's ``time_limit`` still bounds a cell), with the store at
    *cache* serving/storing cell results as usual — so a cold capture
    also warms the result cache, and a warm rerun issues (and captures)
    zero queries.  Returns the capture summary.
    """
    from ..bombs import TABLE2_BOMB_IDS, TOOL_COLUMNS
    from .harness import run_table2

    bombs = tuple(bombs) if bombs else TABLE2_BOMB_IDS
    tools = tuple(tools) if tools else TOOL_COLUMNS
    store = _store(cache)
    recorder = querylog.QueryRecorder()
    with obs.span("solverlab", verb="capture", cells=len(bombs) * len(tools)):
        with session.overlay(queries=recorder):
            result = run_table2(bomb_ids=bombs, tools=tools, verbose=verbose,
                                cache=store)
    persisted = recorder.persist(store)
    matched, labelled = result.agreement()
    summary = recorder.summary()
    summary.update({
        "schema": SOLVERLAB_SCHEMA,
        "kind": "solverlab-capture",
        "store": str(store.root),
        "stored": persisted["stored"],
        "store_dedup": persisted["skipped"],
        "manifests": persisted["cells"],
        "agreement": {"matched": matched, "labelled": labelled},
    })
    return summary


def render_capture(doc: dict) -> str:
    agreement = doc.get("agreement", {})
    return (
        f"captured {doc['queries']} queries "
        f"({doc['distinct']} distinct, dedup ratio "
        f"{doc['dedup_ratio']:.1%}) from {doc['cells']} cell(s)\n"
        f"persisted {doc['stored']} new record(s) "
        f"(+{doc['store_dedup']} already stored), "
        f"{doc['manifests']} manifest(s) -> {doc['store']}\n"
        f"matrix agreement: {agreement.get('matched')}/"
        f"{agreement.get('labelled')}"
    )


# -- replay ------------------------------------------------------------------

def _load_corpus(store, bombs=None, tools=None):
    """Yield ``(manifest, occurrence)`` pairs in manifest order; loads
    each distinct record body once."""
    manifests = store.query_manifests()
    if bombs:
        manifests = [m for m in manifests if m.get("bomb") in set(bombs)]
    if tools:
        manifests = [m for m in manifests if m.get("tool") in set(tools)]
    return manifests


def _model_digest(model: dict) -> str:
    doc = json.dumps(sorted(model.items()), separators=(",", ":"))
    return hashlib.sha256(doc.encode()).hexdigest()[:16]


def _replay_one(body: dict, mode: str) -> tuple[str, float, dict]:
    """Re-run one recorded query; returns (status, wall_s, effort).

    *effort* holds the query's :data:`EFFORT_KEYS` counters and, for a
    ``sat`` verdict, ``model``: a digest of the model.
    """
    tagged, assumptions = querylog.decode_record(body)
    budget = body.get("budget", {})
    kwargs = {
        "max_conflicts": budget.get("max_conflicts", 100_000),
        "max_clauses": budget.get("max_clauses", 1_500_000),
        "max_nodes": budget.get("max_nodes"),
    }
    result = None
    t0 = time.perf_counter()
    try:
        if mode == "incremental":
            solver = IncrementalSolver(**kwargs)
            for tag, expr in tagged:
                solver.assert_expr(expr, tag)
        else:
            solver = Solver(**kwargs)
            for tag, expr in tagged:
                solver.add(expr, tag)
        result = solver.check(assumptions)
        status = result.status
    except SolverError:
        status = "error"
    wall = time.perf_counter() - t0
    stats = solver._last_query_stats
    effort = {key: stats.get(key, 0) for key in EFFORT_KEYS}
    if result is not None and result.sat:
        effort["model"] = _model_digest(result.model)
    return status, wall, effort


def _class_bucket(classes: dict, cls: str) -> dict:
    bucket = classes.get(cls)
    if bucket is None:
        bucket = classes[cls] = {
            "n": 0,
            "wall_recorded_s": 0.0, "wall_replayed_s": 0.0,
            "conflicts_recorded": 0, "conflicts_replayed": 0,
        }
    return bucket


def replay_corpus(cache, mode: str = "fresh", bombs=None,
                  tools=None) -> dict:
    """Re-run a captured corpus offline and check verdict identity.

    Each *occurrence* is replayed (so per-class effort totals compare
    like for like with the capture), but record bodies are decoded once
    per distinct digest.  ``mode`` selects the solver: ``fresh`` is one
    :class:`Solver` per query; ``incremental`` asserts the prefix into
    an :class:`IncrementalSolver` and answers via one assumption query.
    Returns the replay document; ``drift`` is the list of verdict
    mismatches and ``effort_drift`` the list of fresh replays of a
    one-shot occurrence whose :data:`RECORDED_EFFORT_KEYS` counters
    differ from the recorded ones (the acceptance gate: both must be
    empty).  An incremental occurrence's effort depends on the history
    of its instance, so only its verdict compares.  ``effort`` maps
    each digest to its replayed search effort and model digest.
    """
    if mode not in ("fresh", "incremental"):
        raise ValueError(f"replay mode must be fresh|incremental, got {mode!r}")
    store = _store(cache)
    manifests = _load_corpus(store, bombs, tools)
    bodies: dict[str, dict] = {}
    verdicts: dict[str, str] = {}
    efforts: dict[str, dict] = {}
    classes: dict[str, dict] = {}
    drift: list[dict] = []
    effort_drift: list[dict] = []
    effort_checked = 0
    queries = 0
    missing = 0
    wall_recorded = wall_replayed = 0.0
    conflicts_recorded = conflicts_replayed = 0
    with obs.span("solverlab", verb="replay", mode=mode):
        for manifest in manifests:
            bomb, tool = manifest.get("bomb"), manifest.get("tool")
            with obs.span("cell", bomb=bomb, tool=tool):
                for i, occ in enumerate(manifest.get("queries", [])):
                    digest = occ["digest"]
                    body = bodies.get(digest)
                    if body is None:
                        body = store.get_query(digest)
                        if body is None:
                            missing += 1
                            continue
                        bodies[digest] = body
                    with obs.span("solve", bomb=bomb, tool=tool,
                                  cls=body["class"],
                                  digest=digest[:12]) as sp:
                        status, wall, stats = _replay_one(body, mode)
                        sp.set("status", status)
                    queries += 1
                    verdicts[digest] = status
                    efforts[digest] = stats
                    wall_recorded += occ.get("wall_s", 0.0)
                    wall_replayed += wall
                    conflicts_recorded += occ.get("conflicts", 0)
                    conflicts_replayed += stats.get("conflicts", 0)
                    bucket = _class_bucket(classes, body["class"])
                    bucket["n"] += 1
                    bucket["wall_recorded_s"] += occ.get("wall_s", 0.0)
                    bucket["wall_replayed_s"] += wall
                    bucket["conflicts_recorded"] += occ.get("conflicts", 0)
                    bucket["conflicts_replayed"] += stats.get("conflicts", 0)
                    if status != occ.get("status"):
                        drift.append({
                            "bomb": bomb, "tool": tool, "index": i,
                            "digest": digest, "pc": occ.get("pc"),
                            "kind": occ.get("kind"),
                            "recorded": occ.get("status"),
                            "replayed": status,
                        })
                        obs.count("smtlog.replay_drift")
                    if mode == "fresh" and occ.get("solver") == "oneshot":
                        effort_checked += 1
                        recorded = {k: occ.get(k, 0)
                                    for k in RECORDED_EFFORT_KEYS}
                        replayed = {k: stats[k]
                                    for k in RECORDED_EFFORT_KEYS}
                        if recorded != replayed:
                            effort_drift.append({
                                "bomb": bomb, "tool": tool, "index": i,
                                "digest": digest, "recorded": recorded,
                                "replayed": replayed,
                            })
                    obs.count("smtlog.replayed")
    for bucket in classes.values():
        bucket["wall_recorded_s"] = round(bucket["wall_recorded_s"], 6)
        bucket["wall_replayed_s"] = round(bucket["wall_replayed_s"], 6)
    return {
        "schema": SOLVERLAB_SCHEMA,
        "kind": "solverlab-replay",
        "mode": mode,
        "cells": len(manifests),
        "queries": queries,
        "distinct": len(bodies),
        "missing_records": missing,
        "drift": drift,
        "effort_drift": effort_drift,
        "effort_checked": effort_checked,
        "verdicts": verdicts,
        "effort": efforts,
        "classes": classes,
        "wall_recorded_s": round(wall_recorded, 6),
        "wall_replayed_s": round(wall_replayed, 6),
        "conflicts_recorded": conflicts_recorded,
        "conflicts_replayed": conflicts_replayed,
    }


def render_replay(doc: dict) -> str:
    lines = [
        f"replayed {doc['queries']} queries ({doc['distinct']} distinct) "
        f"from {doc['cells']} cell(s), mode={doc['mode']}",
        f"wall: recorded {doc['wall_recorded_s']:.3f}s -> replayed "
        f"{doc['wall_replayed_s']:.3f}s; conflicts: "
        f"{doc['conflicts_recorded']} -> {doc['conflicts_replayed']}",
    ]
    if doc.get("missing_records"):
        lines.append(f"warning: {doc['missing_records']} occurrence(s) "
                     "referenced a missing record")
    if doc["classes"]:
        lines.append("")
        lines.append(f"{'class':14s}{'n':>7s}{'rec wall':>11s}"
                     f"{'replay wall':>13s}{'rec cfl':>10s}{'replay cfl':>12s}")
        for cls in sorted(doc["classes"],
                          key=lambda c: -doc["classes"][c]["wall_replayed_s"]):
            b = doc["classes"][cls]
            lines.append(
                f"{cls:14s}{b['n']:>7d}{b['wall_recorded_s']:>10.3f}s"
                f"{b['wall_replayed_s']:>12.3f}s{b['conflicts_recorded']:>10d}"
                f"{b['conflicts_replayed']:>12d}")
    if doc["drift"]:
        lines.append("")
        for d in doc["drift"]:
            lines.append(
                f"DRIFT {d['bomb']}/{d['tool']}[{d['index']}] "
                f"{d['digest'][:12]}: recorded {d['recorded']}, "
                f"replayed {d['replayed']}")
        lines.append(f"replay: {len(doc['drift'])} verdict(s) drifted")
    else:
        lines.append("replay: every verdict reproduced exactly (0 drift)")
    if doc["effort_drift"]:
        for d in doc["effort_drift"]:
            lines.append(
                f"EFFORT DRIFT {d['bomb']}/{d['tool']}[{d['index']}] "
                f"{d['digest'][:12]}: recorded {_effort_text(d['recorded'])}"
                f", replayed {_effort_text(d['replayed'])}")
        lines.append(f"replay: {len(doc['effort_drift'])} one-shot "
                     "occurrence(s) drifted in search effort")
    elif doc["mode"] == "fresh":
        lines.append(f"replay: all {doc['effort_checked']} one-shot "
                     "occurrence(s) reproduced their recorded conflicts, "
                     "gates and learnt")
    return "\n".join(lines)


def _effort_text(effort: dict) -> str:
    return " ".join(f"{k}={v}" for k, v in effort.items())


# -- report ------------------------------------------------------------------

def _family(bomb: str | None) -> str:
    """Bomb family = the challenge prefix of the bomb id (``sa`` for
    ``sa_l1_array``, ``cf`` for ``cf_sha1``, ...)."""
    if not bomb:
        return "?"
    return bomb.split("_", 1)[0]


def _agg(table: dict, key: str, occ: dict) -> None:
    row = table.get(key)
    if row is None:
        row = table[key] = {"n": 0, "wall_s": 0.0, "conflicts": 0,
                            "sat": 0, "unsat": 0, "error": 0}
    row["n"] += 1
    row["wall_s"] += occ.get("wall_s", 0.0)
    row["conflicts"] += occ.get("conflicts", 0)
    status = occ.get("status")
    if status in ("sat", "unsat", "error"):
        row[status] += 1


def report_corpus(cache, top: int = 10) -> dict:
    """The workload analytics table over a captured corpus."""
    store = _store(cache)
    manifests = store.query_manifests()
    by_class: dict[str, dict] = {}
    by_kind: dict[str, dict] = {}
    by_family: dict[str, dict] = {}
    offenders: list[dict] = []
    total_wall = 0.0
    total_conflicts = 0
    queries = 0
    digests: set[str] = set()
    for manifest in manifests:
        bomb, tool = manifest.get("bomb"), manifest.get("tool")
        for occ in manifest.get("queries", []):
            queries += 1
            digests.add(occ["digest"])
            total_wall += occ.get("wall_s", 0.0)
            total_conflicts += occ.get("conflicts", 0)
            _agg(by_class, occ.get("class") or "?", occ)
            _agg(by_kind, occ.get("kind") or "?", occ)
            _agg(by_family, _family(bomb), occ)
            offenders.append({
                "bomb": bomb, "tool": tool, "pc": occ.get("pc"),
                "kind": occ.get("kind"), "class": occ.get("class"),
                "digest": occ["digest"], "status": occ.get("status"),
                "wall_s": occ.get("wall_s", 0.0),
                "conflicts": occ.get("conflicts", 0),
                "solver": occ.get("solver"),
            })
    # Every occurrence lands in exactly one named feature class, so the
    # attributed share is structurally 1.0 whenever any wall was spent;
    # the figure is still reported (and gated in CI) so a future class
    # regression is caught rather than assumed away.  Summed before the
    # per-row rounding below, so the fraction itself carries no
    # rounding noise.
    attributed = sum(row["wall_s"] for cls, row in by_class.items()
                     if cls != "?")
    for table in (by_class, by_kind, by_family):
        for row in table.values():
            row["wall_s"] = round(row["wall_s"], 6)
            row["wall_share"] = (round(row["wall_s"] / total_wall, 6)
                                 if total_wall else 0.0)
    top_wall = sorted(offenders, key=lambda o: -o["wall_s"])[:top]
    top_conflicts = sorted(offenders, key=lambda o: -o["conflicts"])[:top]
    return {
        "schema": SOLVERLAB_SCHEMA,
        "kind": "solverlab-report",
        "store": str(store.root),
        "cells": len(manifests),
        "queries": queries,
        "distinct": len(digests),
        "dedup_ratio": (round(1.0 - len(digests) / queries, 6)
                        if queries else 0.0),
        "wall_s": round(total_wall, 6),
        "conflicts": total_conflicts,
        "attributed_wall_fraction": (round(attributed / total_wall, 6)
                                     if total_wall else 1.0),
        "by_class": by_class,
        "by_kind": by_kind,
        "by_family": by_family,
        "top_wall": top_wall,
        "top_conflicts": top_conflicts,
    }


def _render_table(title: str, table: dict) -> list[str]:
    lines = [title,
             f"  {'key':16s}{'n':>7s}{'wall s':>10s}{'share':>8s}"
             f"{'conflicts':>11s}{'sat':>6s}{'unsat':>7s}{'err':>5s}"]
    for key in sorted(table, key=lambda k: -table[k]["wall_s"]):
        row = table[key]
        lines.append(
            f"  {key:16s}{row['n']:>7d}{row['wall_s']:>10.3f}"
            f"{row['wall_share']:>7.1%}{row['conflicts']:>11d}"
            f"{row['sat']:>6d}{row['unsat']:>7d}{row['error']:>5d}")
    return lines


def render_report(doc: dict, top: int = 10) -> str:
    lines = [
        f"corpus {doc['store']}: {doc['queries']} queries "
        f"({doc['distinct']} distinct, dedup ratio "
        f"{doc['dedup_ratio']:.1%}) over {doc['cells']} cell(s)",
        f"solve wall {doc['wall_s']:.3f}s, {doc['conflicts']} conflicts; "
        f"{doc['attributed_wall_fraction']:.1%} of wall attributed to "
        "named classes",
        "",
    ]
    lines.extend(_render_table("by feature class", doc["by_class"]))
    lines.append("")
    lines.extend(_render_table("by guard tag kind", doc["by_kind"]))
    lines.append("")
    lines.extend(_render_table("by bomb family", doc["by_family"]))
    for title, key in (("top offenders by wall", "top_wall"),
                       ("top offenders by conflicts", "top_conflicts")):
        rows = doc[key][:top]
        if not rows:
            continue
        lines.append("")
        lines.append(title)
        for o in rows:
            pc = f"0x{o['pc']:x}" if isinstance(o["pc"], int) else "-"
            lines.append(
                f"  {o['wall_s']:>9.4f}s {o['conflicts']:>8d}cfl "
                f"{(o['bomb'] or '?'):16s} {(o['tool'] or '?'):12s} "
                f"{pc:>10s} {(o['kind'] or '-'):10s} {o['class']:13s} "
                f"{o['status'] or '?'}")
    return "\n".join(lines)


# -- diff --------------------------------------------------------------------

def corpus_index(source) -> dict:
    """Normalize *source* into a diffable index.

    *source* may be a corpus directory (a store root — recorded
    verdicts/efforts are indexed) or a replay/report JSON file produced
    by ``solverlab replay --json`` (replayed verdicts/efforts).
    Returns ``{"label", "verdicts": {digest: status}, "effort":
    {digest: {counter: n, "model": digest}}, "classes": {class: {"n",
    "wall_s", "conflicts"}}}``; ``effort`` is empty for a corpus
    directory, whose occurrences of one digest may differ in effort.
    """
    path = Path(source)
    if path.is_dir():
        store = _store(source)
        verdicts: dict[str, str] = {}
        classes: dict[str, dict] = {}
        for manifest in store.query_manifests():
            for occ in manifest.get("queries", []):
                verdicts.setdefault(occ["digest"], occ.get("status"))
                bucket = classes.setdefault(
                    occ.get("class") or "?",
                    {"n": 0, "wall_s": 0.0, "conflicts": 0})
                bucket["n"] += 1
                bucket["wall_s"] += occ.get("wall_s", 0.0)
                bucket["conflicts"] += occ.get("conflicts", 0)
        return {"label": str(path), "verdicts": verdicts, "effort": {},
                "classes": classes}
    doc = json.loads(path.read_text(encoding="utf-8"))
    if doc.get("kind") != "solverlab-replay":
        raise ValueError(
            f"{source}: not a corpus directory or a solverlab replay "
            f"document (kind={doc.get('kind')!r})")
    classes = {}
    for cls, row in doc.get("classes", {}).items():
        classes[cls] = {
            "n": row.get("n", 0),
            "wall_s": row.get("wall_replayed_s", row.get("wall_s", 0.0)),
            "conflicts": row.get("conflicts_replayed",
                                 row.get("conflicts", 0)),
        }
    return {"label": str(path), "verdicts": dict(doc.get("verdicts", {})),
            "effort": dict(doc.get("effort", {})), "classes": classes}


def diff_indices(a: dict, b: dict) -> dict:
    """Compare two corpus/replay indices.

    ``drift`` lists digests present in both whose verdicts differ, and
    ``effort_drift`` those whose search effort or model digest differs
    (two replays carry both per digest) — the hard failures the CLI
    exits 1 on.  ``classes`` carries per-class effort deltas for
    classes present in both sides (b relative to a).
    """
    common = set(a["verdicts"]) & set(b["verdicts"])
    drift = [{"digest": d, "a": a["verdicts"][d], "b": b["verdicts"][d]}
             for d in sorted(common)
             if a["verdicts"][d] != b["verdicts"][d]]
    effort_a, effort_b = a["effort"], b["effort"]
    effort_drift = [{"digest": d, "a": effort_a[d], "b": effort_b[d]}
                    for d in sorted(common & set(effort_a) & set(effort_b))
                    if effort_a[d] != effort_b[d]]
    classes = {}
    for cls in sorted(set(a["classes"]) & set(b["classes"])):
        ra, rb = a["classes"][cls], b["classes"][cls]
        wall_a, wall_b = ra["wall_s"], rb["wall_s"]
        classes[cls] = {
            "wall_a_s": round(wall_a, 6),
            "wall_b_s": round(wall_b, 6),
            "wall_delta_pct": (round((wall_b - wall_a) / wall_a, 6)
                               if wall_a else None),
            "conflicts_a": ra["conflicts"],
            "conflicts_b": rb["conflicts"],
        }
    return {
        "schema": SOLVERLAB_SCHEMA,
        "kind": "solverlab-diff",
        "a": a["label"],
        "b": b["label"],
        "common": len(common),
        "only_a": len(set(a["verdicts"]) - common),
        "only_b": len(set(b["verdicts"]) - common),
        "drift": drift,
        "effort_drift": effort_drift,
        "classes": classes,
    }


def render_diff(doc: dict) -> str:
    lines = [
        f"a: {doc['a']}",
        f"b: {doc['b']}",
        f"{doc['common']} common queries, {doc['only_a']} only in a, "
        f"{doc['only_b']} only in b",
    ]
    if doc["classes"]:
        lines.append("")
        lines.append(f"{'class':14s}{'wall a':>10s}{'wall b':>10s}"
                     f"{'delta':>9s}{'cfl a':>9s}{'cfl b':>9s}")
        for cls, row in doc["classes"].items():
            delta = (f"{row['wall_delta_pct']:+.1%}"
                     if row["wall_delta_pct"] is not None else "-")
            lines.append(
                f"{cls:14s}{row['wall_a_s']:>9.3f}s{row['wall_b_s']:>9.3f}s"
                f"{delta:>9s}{row['conflicts_a']:>9d}{row['conflicts_b']:>9d}")
    if doc["drift"]:
        lines.append("")
        for d in doc["drift"]:
            lines.append(f"DRIFT {d['digest'][:12]}: a={d['a']} b={d['b']}")
        lines.append(f"diff: {len(doc['drift'])} verdict(s) drifted")
    else:
        lines.append("diff: no verdict drift")
    for d in doc["effort_drift"]:
        changed = sorted(k for k in set(d["a"]) | set(d["b"])
                         if d["a"].get(k) != d["b"].get(k))
        lines.append(f"EFFORT DRIFT {d['digest'][:12]}: " + ", ".join(
            f"{k} {d['a'].get(k)} -> {d['b'].get(k)}" for k in changed))
    if doc["effort_drift"]:
        lines.append(f"diff: {len(doc['effort_drift'])} digest(s) drifted "
                     "in search effort or model")
    return "\n".join(lines)
