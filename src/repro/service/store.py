"""Content-addressed result store for Table II cells.

Layout (under the store root)::

    objects/<k[:2]>/<key>.json     one JSON document per cell result

Each document carries the full :class:`~repro.eval.harness.CellResult`
— outcome, per-stage timings, root-cause diagnostic, and the complete
:class:`~repro.tools.api.ToolReport` including the diagnostic log, the
validated solution bytes and any solution environment — so a cache hit
is indistinguishable from a fresh run (``table2 --json`` renders byte
for byte the same).

Writes are atomic (temp file + ``os.replace``) so a crashed writer can
never leave a torn object; a document that fails to parse is treated as
a miss, not an error.

Freshness is decided here alone: cell, lift, corpus and diagnosis
documents are stamped with :func:`~repro.service.fingerprint.engine_digest`
(their ``schema`` field), and any other stamp reads as a miss, so a
result never outlives the engine source that computed it.  Query records and manifests carry
:data:`~repro.smt.querylog.QUERYLOG_SCHEMA` instead: replaying an old
capture against a new engine is what the solver lab is for.

The paper-expected label is *not* stored: :func:`decode_cell` re-reads
it from the live bomb, so annotating the dataset never invalidates the
store (see :mod:`repro.service.fingerprint`).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

from .. import obs
from ..bombs.suite import Bomb
from ..errors import Diagnostic, DiagnosticKind, DiagnosticLog, ErrorStage
from ..eval.harness import CellResult
from ..smt.querylog import QUERYLOG_SCHEMA
from ..tools.api import ToolReport
from ..vm import Environment
from .fingerprint import engine_digest, environment_payload


def _decode_env(data: dict | None) -> Environment | None:
    if data is None:
        return None
    return Environment(
        time_value=data["time_value"],
        pid=data["pid"],
        magic=data["magic"],
        files={path: body.encode("latin1")
               for path, body in data["files"].items()},
        network={url: body.encode("latin1")
                 for url, body in data["network"].items()},
        stdin=data["stdin"].encode("latin1"),
    )


def _encode_argv(argv: list[bytes] | None) -> list[str] | None:
    if argv is None:
        return None
    return [arg.decode("latin1") for arg in argv]


def _decode_argv(data: list[str] | None) -> list[bytes] | None:
    if data is None:
        return None
    return [arg.encode("latin1") for arg in data]


def encode_cell(cell: CellResult) -> dict:
    """Serialize a cell result to a JSON-able document, losslessly but
    for ``expected`` and ``infra_failure`` (never set on a stored cell)."""
    report = cell.report
    return {
        "bomb": cell.bomb_id,
        "tool": cell.tool,
        "outcome": cell.outcome.value,
        "timings": dict(cell.timings),
        "timings_self": dict(cell.timings_self),
        "diagnostic": cell.diagnostic,
        "report": {
            "solved": report.solved,
            "solution": _encode_argv(report.solution),
            "solution_env": environment_payload(report.solution_env),
            "goal_claimed": report.goal_claimed,
            "claimed_inputs": [_encode_argv(claim)
                               for claim in report.claimed_inputs],
            "diagnostics": [
                {"kind": d.kind.value, "detail": d.detail, "pc": d.pc}
                for d in report.diagnostics
            ],
            "aborted": report.aborted,
            "elapsed": report.elapsed,
            "false_positive": report.false_positive,
        },
    }


def decode_cell(doc: dict, bomb: Bomb) -> CellResult:
    """Rebuild a cell result, re-reading the paper label from *bomb*."""
    rep = doc["report"]
    report = ToolReport(
        tool=doc["tool"],
        bomb_id=doc["bomb"],
        solved=rep["solved"],
        solution=_decode_argv(rep["solution"]),
        solution_env=_decode_env(rep["solution_env"]),
        goal_claimed=rep["goal_claimed"],
        claimed_inputs=[_decode_argv(claim) for claim in rep["claimed_inputs"]],
        diagnostics=DiagnosticLog([
            Diagnostic(DiagnosticKind(d["kind"]), d["detail"], d["pc"])
            for d in rep["diagnostics"]
        ]),
        aborted=rep["aborted"],
        elapsed=rep["elapsed"],
        false_positive=rep["false_positive"],
    )
    return CellResult(
        bomb_id=doc["bomb"],
        tool=doc["tool"],
        outcome=ErrorStage(doc["outcome"]),
        expected=bomb.expected.get(doc["tool"]),
        report=report,
        timings=dict(doc["timings"]),
        timings_self=dict(doc.get("timings_self", {})),
        diagnostic=doc["diagnostic"],
    )


class ResultStore:
    """Content-addressed store of cell results on the local filesystem.

    Forensic diagnoses (:class:`~repro.eval.explain.CellDiagnosis`) live
    under a sibling ``diagnoses/`` tree keyed by the same cell key, so
    explaining a campaign leaves one explanation per cached result.
    """

    def __init__(self, root: str | os.PathLike):
        self.root = Path(root)
        self._objects = self.root / "objects"
        self._objects.mkdir(parents=True, exist_ok=True)
        self._diagnoses = self.root / "diagnoses"
        self._lifts = self.root / "lift"
        self._corpora = self.root / "corpus"
        self._smtlog = self.root / "smtlog"

    def _path(self, key: str) -> Path:
        return self._objects / key[:2] / f"{key}.json"

    def _diagnosis_path(self, key: str) -> Path:
        return self._diagnoses / key[:2] / f"{key}.json"

    def __len__(self) -> int:
        return sum(1 for _ in self._objects.glob("*/*.json"))

    # -- one atomic write, one read ----------------------------------------

    @staticmethod
    def _write(path: Path, doc: dict, kind: str) -> None:
        """Write *doc* to *path* atomically (temp file + ``os.replace``,
        last writer wins) and count it under ``service.<kind>_stores``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fp:
                fp.write(text)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        obs.count(f"service.{kind}_stores")

    @staticmethod
    def _read(path: Path, schema: int | str | None = None) -> dict | None:
        """The document at *path*, or None when it is missing or torn,
        or was stored under another *schema* (when one is given)."""
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None
        if schema is not None and doc.get("schema") != schema:
            return None
        return doc

    # -- cell results -------------------------------------------------------

    def get(self, key: str, bomb: Bomb) -> CellResult | None:
        """The stored cell for *key*, or None (counted as hit/miss)."""
        doc = self._read(self._path(key), engine_digest())
        if doc is None:
            obs.count("service.cache_misses")
            return None
        obs.count("service.cache_hits")
        return decode_cell(doc, bomb)

    def put(self, key: str, cell: CellResult) -> None:
        """Store *cell* under *key* atomically (last writer wins)."""
        self._write(self._path(key),
                    {"schema": engine_digest(), **encode_cell(cell)}, "cache")

    # -- persisted lift caches ---------------------------------------------

    def _lift_path(self, digest: str) -> Path:
        return self._lifts / digest[:2] / f"{digest}.json"

    def put_lift(self, digest: str, payload: dict) -> None:
        """Store an image's serialized lift cache (last writer wins)."""
        self._write(self._lift_path(digest),
                    {"schema": engine_digest(), **payload}, "lift")

    def get_lift(self, digest: str) -> dict | None:
        """The persisted lift payload for an image digest, or None."""
        return self._read(self._lift_path(digest), engine_digest())

    # -- persisted fuzzing corpora -----------------------------------------

    def _corpus_path(self, key: str) -> Path:
        return self._corpora / key[:2] / f"{key}.json"

    def put_corpus(self, key: str, payload: dict) -> None:
        """Store a finished fuzz campaign's corpus and verdict."""
        self._write(self._corpus_path(key),
                    {"schema": engine_digest(), **payload}, "corpus")

    def get_corpus(self, key: str) -> dict | None:
        """The persisted campaign for *key*, or None."""
        return self._read(self._corpus_path(key), engine_digest())

    # -- captured solver queries (the SMT flight recorder) -----------------

    def _query_path(self, digest: str) -> Path:
        return self._smtlog / digest[:2] / f"{digest}.json"

    def _manifest_path(self, bomb: str, tool: str) -> Path:
        key = hashlib.sha256(f"{bomb}\x00{tool}".encode()).hexdigest()
        return self._smtlog / "manifests" / f"{key}.json"

    def put_query(self, digest: str, body: dict) -> bool:
        """Store one content-addressed query record.

        Returns True when the record was written, False when *digest*
        was already present (records are immutable by construction, so
        an existing digest is a cross-campaign dedup hit, not a
        conflict).
        """
        path = self._query_path(digest)
        if path.exists():
            obs.count("service.query_dedup")
            return False
        self._write(path, body, "query")
        return True

    def get_query(self, digest: str) -> dict | None:
        """The stored query record for *digest*, or None (its schema is
        :func:`repro.smt.querylog.decode_record`'s to check)."""
        return self._read(self._query_path(digest))

    def query_digests(self) -> list[str]:
        """Every stored query digest (sorted; manifests excluded)."""
        return sorted(p.stem for p in self._smtlog.glob("??/*.json"))

    def put_query_manifest(self, bomb: str, tool: str,
                           payload: dict) -> None:
        """Store one cell's query occurrence stream (last writer wins)."""
        self._write(self._manifest_path(bomb, tool),
                    {"schema": QUERYLOG_SCHEMA, "bomb": bomb, "tool": tool,
                     **payload}, "manifest")

    def get_query_manifest(self, bomb: str, tool: str) -> dict | None:
        """The stored manifest for one (bomb, tool) cell, or None."""
        return self._read(self._manifest_path(bomb, tool), QUERYLOG_SCHEMA)

    def query_manifests(self) -> list[dict]:
        """Every stored cell manifest, sorted by (bomb, tool); torn or
        stale-schema documents are skipped like any other miss."""
        docs = [self._read(path, QUERYLOG_SCHEMA) for path in
                (self._smtlog / "manifests").glob("*.json")]
        docs = [doc for doc in docs if doc is not None]
        docs.sort(key=lambda d: (d.get("bomb") or "", d.get("tool") or ""))
        return docs

    # -- forensic diagnoses ------------------------------------------------

    def put_diagnosis(self, key: str, diagnosis) -> None:
        """Store a cell's forensic diagnosis next to its result."""
        self._write(self._diagnosis_path(key),
                    {"schema": engine_digest(), **diagnosis.to_json()},
                    "diagnosis")

    def get_diagnosis(self, key: str):
        """The stored diagnosis for *key*, or None."""
        from ..eval.explain import CellDiagnosis

        doc = self._read(self._diagnosis_path(key), engine_digest())
        return None if doc is None else CellDiagnosis.from_json(doc)
