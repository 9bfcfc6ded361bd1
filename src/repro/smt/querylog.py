"""Solve-stage flight recorder: capture, address, and classify queries.

Two halves, mirroring the IL codec in :mod:`repro.ir.superblock`:

* **A canonical JSON codec for** :class:`~repro.smt.expr.Expr` **DAGs.**
  :func:`encode_exprs` walks a set of roots iteratively (constraint
  DAGs from long traces — SHA1, AES — are far deeper than Python's
  recursion limit) and emits one shared node table with child *indices*,
  so interned sharing survives the round trip byte for byte.
  :func:`decode_exprs` rebuilds through :func:`~repro.smt.expr.intern_node`
  — not the ``mk_*`` smart constructors — so decoding never re-folds
  and the decoded DAG is node-for-node identical to the encoded one.

* **A** :class:`QueryRecorder` **that captures every**
  :meth:`~repro.smt.solver.Solver.check` /
  :meth:`~repro.smt.solver.IncrementalSolver.check` as a
  content-addressed record: the full constraint set + assumptions with
  their ``(pc, kind)`` guard tags, the solver budget, structural
  features (node/var counts, depth, max width, ite density), a named
  feature class, the verdict, and the query's CDCL effort.  Identical
  queries dedup by digest, so a full-matrix capture stores each
  distinct query exactly once; per-cell manifests keep the occurrence
  stream (which cell issued which query, in order, at what cost).

A recorder is on while it is the ``queries`` field of the session
(:mod:`repro.obs.session`), checked once per query on the solver's
existing telemetry slow path.  With no recorder on (and no metrics
recorder or profiler either) the solvers take their zero-cost fast
path and this module adds nothing.
"""

from __future__ import annotations

import hashlib
import json

from .. import obs
from ..obs import session
from .expr import (
    _BV_BINOPS,
    _CMP_OPS,
    FP_OPS,
    Expr,
    intern_node,
)

#: Version stamp on every persisted query record and manifest.
QUERYLOG_SCHEMA = 1

#: Every op the codec round-trips (the full Expr vocabulary).
CODEC_OPS = frozenset(
    {"const", "var", "bvnot", "ite", "extract", "concat", "zext", "sext"}
    | _BV_BINOPS | _CMP_OPS | FP_OPS)

#: Feature-class thresholds (documented, deterministic: every query
#: lands in exactly one named class, so a workload report attributes
#: 100% of solve wall to named classes).
CRYPTO_NODES = 20_000     #: node count above which a query is crypto-scale
SELECT_ITES = 8           #: ite count that marks a symbolic-select tower
SELECT_ITE_DENSITY = 0.04  #: ... or ite share of all nodes
DEEP_CHAIN = 256          #: DAG depth that marks a serial/hash-chain query
SMALL_NODES = 64          #: node count at or below which a query is trivial


# -- Expr codec --------------------------------------------------------------

def encode_exprs(roots) -> tuple[list, list[int]]:
    """Encode *roots* (an iterable of :class:`Expr`) as one node table.

    Returns ``(nodes, root_indices)``.  ``nodes`` is a JSON-able list in
    dependency order (children strictly before parents); each entry is

    * ``["c", width, value]`` — constant,
    * ``["v", width, name]`` — variable,
    * ``["x", width, [arg], packed_hi_lo]`` — extract,
    * ``[op, width, [arg indices...]]`` — everything else.

    Shared subterms appear once: the walk indexes nodes by identity, so
    the encoded table has exactly ``size()`` entries per distinct node.
    Iterative, like :func:`~repro.smt.expr.eval_expr`.
    """
    nodes: list = []
    index: dict[int, int] = {}
    order: list[int] = []
    for root in roots:
        stack = [root]
        while stack:
            node = stack[-1]
            nid = id(node)
            if nid in index:
                stack.pop()
                continue
            pending = [a for a in node.args if id(a) not in index]
            if pending:
                stack.extend(pending)
                continue
            stack.pop()
            index[nid] = len(nodes)
            if node.op == "const":
                nodes.append(["c", node.width, node.value])
            elif node.op == "var":
                nodes.append(["v", node.width, node.name])
            elif node.op == "extract":
                nodes.append(["x", node.width,
                              [index[id(node.args[0])]], node.value])
            else:
                nodes.append([node.op, node.width,
                              [index[id(a)] for a in node.args]])
        order.append(index[id(root)])
    return nodes, order


def decode_exprs(nodes: list) -> list[Expr]:
    """Rebuild the full node table; entry *i* is the :class:`Expr` for
    encoded node *i*.  Raises :class:`ValueError` on a malformed table
    (unknown op, forward reference)."""
    out: list[Expr] = []
    for i, rec in enumerate(nodes):
        kind, width = rec[0], rec[1]
        if kind == "c":
            node = intern_node("const", width, value=rec[2])
        elif kind == "v":
            node = intern_node("var", width, name=rec[2])
        else:
            if any(j >= i for j in rec[2]):
                raise ValueError(f"querylog: node {i} has a forward reference")
            args = tuple(out[j] for j in rec[2])
            if kind == "x":
                node = intern_node("extract", width, args, value=rec[3])
            elif kind in CODEC_OPS:
                node = intern_node(kind, width, args)
            else:
                raise ValueError(f"querylog: unknown op {kind!r}")
        out.append(node)
    return out


def encode_expr(expr: Expr) -> list:
    """Single-root convenience wrapper over :func:`encode_exprs`."""
    nodes, _ = encode_exprs([expr])
    return nodes


def decode_expr(nodes: list) -> Expr:
    """Inverse of :func:`encode_expr` (the root is the last node)."""
    table = decode_exprs(nodes)
    if not table:
        raise ValueError("querylog: empty node table")
    return table[-1]


# -- structural features -----------------------------------------------------

def query_features(nodes: list, n_constraints: int,
                   n_assumptions: int) -> dict:
    """Structural features of one encoded query (over its node table)."""
    var_names: set = set()
    max_width = 0
    ites = fp_ops = cmps = 0
    depth = [0] * len(nodes)
    max_depth = 0
    for i, rec in enumerate(nodes):
        kind, width = rec[0], rec[1]
        if width > max_width:
            max_width = width
        if kind == "v":
            var_names.add(rec[2])
            depth[i] = 1
        elif kind == "c":
            depth[i] = 1
        else:
            depth[i] = 1 + max(depth[j] for j in rec[2])
            if kind == "ite":
                ites += 1
            elif kind in FP_OPS:
                fp_ops += 1
            elif kind in _CMP_OPS:
                cmps += 1
        if depth[i] > max_depth:
            max_depth = depth[i]
    n = len(nodes)
    return {
        "nodes": n,
        "vars": len(var_names),
        "depth": max_depth,
        "max_width": max_width,
        "ites": ites,
        "ite_density": round(ites / n, 6) if n else 0.0,
        "fp_ops": fp_ops,
        "cmps": cmps,
        "constraints": n_constraints,
        "assumptions": n_assumptions,
    }


def feature_class(features: dict) -> str:
    """The named constraint-shape class of one query.

    Deterministic first-match rules over the structural features — the
    classes mirror the paper's challenge taxonomy: FP theory, crypto
    (one-way) scale, symbolic-select ite towers (arrays, jump tables),
    deep serial chains, and the trivial/linear remainder.
    """
    if features["fp_ops"] > 0:
        return "fp-theory"
    if features["nodes"] > CRYPTO_NODES:
        return "crypto-scale"
    if (features["ites"] >= SELECT_ITES
            or features["ite_density"] >= SELECT_ITE_DENSITY):
        return "select-ite"
    if features["depth"] >= DEEP_CHAIN:
        return "deep-serial"
    if features["nodes"] <= SMALL_NODES:
        return "small-linear"
    return "bitvector-mix"


#: Every class :func:`feature_class` can emit, for reports and gates.
FEATURE_CLASSES = ("fp-theory", "crypto-scale", "select-ite",
                   "deep-serial", "small-linear", "bitvector-mix")


# -- content-addressed records -----------------------------------------------

def _split_tag(tag) -> tuple:
    """Normalize a constraint tag to ``(pc, kind)`` (both JSON-able)."""
    if isinstance(tag, tuple) and len(tag) == 2:
        return tag[0], tag[1]
    if tag is None:
        return None, None
    return None, str(tag)


def build_record(tagged, extra, budget: dict) -> tuple[str, dict]:
    """Build the content-addressed record of one query.

    *tagged* is the solver's asserted ``(tag, expr)`` pairs, *extra*
    the per-query assumptions, *budget* the solver's effort caps (they
    shape the verdict — budget exhaustion is a recorded outcome — so
    they participate in the digest).  Returns ``(digest, body)``.
    """
    tagged = list(tagged)
    extra = list(extra or [])
    roots = [e for _, e in tagged] + extra
    nodes, order = encode_exprs(roots)
    constraints = []
    for (tag, _), root in zip(tagged, order):
        pc, kind = _split_tag(tag)
        constraints.append([root, pc, kind])
    assumptions = order[len(tagged):]
    addressed = {
        "schema": QUERYLOG_SCHEMA,
        "nodes": nodes,
        "constraints": constraints,
        "assumptions": assumptions,
        "budget": budget,
    }
    digest = hashlib.sha256(
        json.dumps(addressed, sort_keys=True,
                   separators=(",", ":")).encode()).hexdigest()
    features = query_features(nodes, len(constraints), len(assumptions))
    body = dict(addressed)
    body["features"] = features
    body["class"] = feature_class(features)
    return digest, body


def decode_record(body: dict):
    """Rebuild ``(tagged_constraints, assumptions)`` from a record body.

    ``tagged_constraints`` is a list of ``(tag, Expr)`` pairs ready for
    :meth:`Solver.add` / :meth:`IncrementalSolver.assert_expr`; tags
    are ``(pc, kind)`` tuples or ``None``.
    """
    if body.get("schema") != QUERYLOG_SCHEMA:
        raise ValueError(
            f"querylog: unsupported record schema {body.get('schema')!r}")
    table = decode_exprs(body["nodes"])
    tagged = []
    for root, pc, kind in body["constraints"]:
        tag = None if pc is None and kind is None else (pc, kind)
        tagged.append((tag, table[root]))
    assumptions = [table[i] for i in body["assumptions"]]
    return tagged, assumptions


# -- the recorder ------------------------------------------------------------

class QueryRecorder:
    """In-memory flight recorder for one capture run.

    ``records`` maps digest → record body (each distinct query once);
    ``occurrences`` maps ``(bomb, tool)`` → the cell's query stream in
    issue order, each entry naming the digest plus the per-occurrence
    verdict, latency, and CDCL effort.
    """

    def __init__(self):
        self.records: dict[str, dict] = {}
        self.occurrences: dict[tuple, list[dict]] = {}
        self.queries = 0
        self.dedup_hits = 0
        self._bomb: str | None = None
        self._tool: str | None = None
        # Interned Expr ids are stable for the process lifetime (the
        # intern table never evicts), so one encode per distinct
        # (constraint-set, budget) identity suffices.
        self._digest_memo: dict[tuple, str] = {}

    # -- cell context ----------------------------------------------------

    def set_cell(self, bomb: str | None, tool: str | None) -> tuple:
        """Attribute what follows to (*bomb*, *tool*); returns the
        previous pair."""
        prev = (self._bomb, self._tool)
        self._bomb, self._tool = bomb, tool
        return prev

    # -- recording -------------------------------------------------------

    def record_check(self, tagged, extra, tag, status: str, wall_s: float,
                     stats: dict, solver: str = "oneshot",
                     budget: dict | None = None) -> str:
        """Capture one solver query; returns its content digest."""
        tagged = list(tagged)
        extra = list(extra or [])
        budget = budget or {}
        memo_key = (tuple(id(e) for _, e in tagged),
                    tuple(id(e) for e in extra),
                    tuple(sorted(budget.items())))
        digest = self._digest_memo.get(memo_key)
        if digest is None or digest not in self.records:
            digest, body = build_record(tagged, extra, budget)
            self._digest_memo[memo_key] = digest
            if digest not in self.records:
                self.records[digest] = body
                obs.count("smtlog.records")
            else:
                self.dedup_hits += 1
                obs.count("smtlog.dedup_hits")
        else:
            self.dedup_hits += 1
            obs.count("smtlog.dedup_hits")
        self.queries += 1
        obs.count("smtlog.queries")
        pc, kind = _split_tag(tag)
        self.occurrences.setdefault((self._bomb, self._tool), []).append({
            "digest": digest,
            "pc": pc,
            "kind": kind,
            "status": status,
            "wall_s": wall_s,
            "conflicts": stats.get("conflicts", 0),
            "gates": stats.get("gates", 0),
            "learnt": stats.get("learnt", 0),
            "solver": solver,
            "class": self.records[digest]["class"],
        })
        return digest

    # -- reading ---------------------------------------------------------

    def summary(self) -> dict:
        """Capture totals: query count, distinct records, dedup ratio
        (fraction of queries served by an already-stored record)."""
        distinct = len(self.records)
        return {
            "queries": self.queries,
            "distinct": distinct,
            "dedup_hits": self.dedup_hits,
            "dedup_ratio": (round(1.0 - distinct / self.queries, 6)
                            if self.queries else 0.0),
            "cells": len(self.occurrences),
        }

    # -- persistence -----------------------------------------------------

    def persist(self, store) -> dict:
        """Write records + per-cell manifests into a result store.

        Records dedup across campaigns too: a digest already present in
        the store is skipped.  Cells that issued no queries write no
        manifest (a warm cache-served cell never clobbers the manifest
        of the run that actually computed it).
        """
        stored = skipped = 0
        for digest, body in self.records.items():
            if store.put_query(digest, body):
                stored += 1
            else:
                skipped += 1
        cells = 0
        for (bomb, tool), occs in sorted(
                self.occurrences.items(),
                key=lambda kv: (str(kv[0][0]), str(kv[0][1]))):
            if not occs:
                continue
            store.put_query_manifest(bomb, tool, {
                "bomb": bomb,
                "tool": tool,
                "queries": occs,
            })
            cells += 1
        return {"stored": stored, "skipped": skipped, "cells": cells}


# -- module hook -------------------------------------------------------------

def record_check(tagged, extra, tag, status: str, wall_s: float, stats: dict,
                 solver: str = "oneshot", budget: dict | None = None) -> None:
    """Module hook the solvers call from their telemetry slow path."""
    rec = session.current.queries
    if rec is not None:
        rec.record_check(tagged, extra, tag, status, wall_s, stats,
                         solver=solver, budget=budget)
