"""Declarative campaign specs: validated JSON/TOML workload documents.

A campaign spec is a small document — the shape binrec-tob ships as
``campaign_schema.json`` — that names *what* to evaluate and under
*which* budget, without scripting how::

    {
      "name":    "nightly-symbolic-array",
      "tenant":  "ci",
      "bombs":   ["sa_*", "cp_stack"],
      "tools":   ["tritonx", "angrx"],
      "levels":  [1, 2],
      "jobs":    4,
      "timeout": 60.0,
      "retries": 2
    }

The same document is accepted as TOML (``repro campaign submit --spec
run.toml``) and over HTTP (``POST /campaigns``).  Selector semantics:

* **bombs** — each entry is an exact bomb id, the keyword ``table2``
  (the paper's 22-bomb matrix, the default) or ``all`` (every program
  in the dataset), or an ``fnmatch`` glob (``sa_*``, ``*_file*``).
  Selection preserves dataset order and dedupes.
* **tools** — exact tool names, ``all``, or globs over the registered
  tool columns.
* **levels** — challenge difficulty levels to keep, following the
  authors' two-level hierarchy: a bomb id carrying ``_l<N>_`` is level
  *N* (``sa_l2_array`` is level 2); every other bomb is level 1.

Validation is strict — unknown keys, wrong types, empty selections and
unmatched selectors are :class:`SpecError`\\ s naming the offending
field — so a typo'd spec fails at submit time, not after a fleet has
burned an hour on the wrong matrix.

Per-tenant quotas live in ``<root>/quotas.json``::

    {"tenants": {"ci": {"max_pending_cells": 200}},
     "default": {"max_pending_cells": 1000}}

:func:`check_quota` compares a tenant's outstanding (pending or
claimed) cells across every campaign under the root against its
budget; an over-quota submit raises :class:`QuotaExceeded` (HTTP 429
at the API, a counted ``service.quota_rejected`` either way).
"""

from __future__ import annotations

import fnmatch
import json
import os
from dataclasses import dataclass
from pathlib import Path

from .. import obs

#: Keys a spec document may carry; anything else is a SpecError.
SPEC_KEYS = frozenset({
    "name", "tenant", "bombs", "tools", "levels",
    "jobs", "timeout", "retries",
})

#: Name of the per-root quota configuration file.
QUOTAS_FILE = "quotas.json"


class SpecError(ValueError):
    """A campaign spec document failed validation."""


class QuotaExceeded(RuntimeError):
    """A submit would push a tenant past its configured cell budget."""


# -- parsing ----------------------------------------------------------------

def parse_spec_text(text: str, fmt: str = "json") -> dict:
    """Parse a spec document from *text* (``json`` or ``toml``)."""
    if fmt == "json":
        try:
            doc = json.loads(text)
        except ValueError as err:
            raise SpecError(f"invalid JSON spec: {err}")
    elif fmt == "toml":
        try:
            import tomllib
        except ImportError:  # pragma: no cover - py3.10 fallback
            raise SpecError("TOML specs need Python >= 3.11 (tomllib); "
                            "use JSON instead")
        try:
            doc = tomllib.loads(text)
        except tomllib.TOMLDecodeError as err:
            raise SpecError(f"invalid TOML spec: {err}")
    else:
        raise SpecError(f"unknown spec format {fmt!r} (json or toml)")
    if not isinstance(doc, dict):
        raise SpecError("spec document must be a table/object, "
                        f"not {type(doc).__name__}")
    return doc


def load_spec_file(path: str | os.PathLike) -> dict:
    """Parse a spec file into a document for :func:`build_spec`; format
    chosen by extension."""
    path = Path(path)
    fmt = "toml" if path.suffix.lower() == ".toml" else "json"
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as err:
        raise SpecError(f"cannot read spec {path}: {err.strerror}")
    return parse_spec_text(text, fmt)


# -- selector resolution ----------------------------------------------------

def bomb_level(bomb_id: str) -> int:
    """The bomb's difficulty level: ``_l<N>_`` in the id, else 1."""
    for part in bomb_id.split("_"):
        if len(part) >= 2 and part[0] == "l" and part[1:].isdigit():
            return int(part[1:])
    return 1


def _select(entries: list[str], universe: list[str], default: list[str],
            keywords: dict[str, list[str]], field: str) -> list[str]:
    """Resolve id/keyword/glob selector entries against *universe*."""
    if not entries:
        return list(default)
    chosen: list[str] = []
    for entry in entries:
        if not isinstance(entry, str):
            raise SpecError(f"{field}: entries must be strings, "
                            f"got {entry!r}")
        if entry in keywords:
            matched = keywords[entry]
        elif entry in universe:
            matched = [entry]
        elif any(ch in entry for ch in "*?["):
            matched = [name for name in universe
                       if fnmatch.fnmatchcase(name, entry)]
            if not matched:
                raise SpecError(f"{field}: pattern {entry!r} matches "
                                "nothing in the dataset")
        else:
            raise SpecError(f"{field}: unknown id {entry!r} "
                            "(use an exact id, a glob, or a keyword)")
        for name in matched:
            if name not in chosen:
                chosen.append(name)
    # Dataset order, not mention order: campaigns stay byte-stable
    # however the selectors were spelled.
    return [name for name in universe if name in chosen]


def resolve_bombs(entries: list[str], levels: list[int]) -> list[str]:
    """Bomb ids selected by *entries*, filtered to *levels*."""
    from ..bombs import TABLE2_BOMB_IDS, all_bombs

    universe = [b.bomb_id for b in all_bombs()]
    keywords = {"table2": list(TABLE2_BOMB_IDS), "all": list(universe)}
    chosen = _select(entries, universe, list(TABLE2_BOMB_IDS),
                     keywords, "bombs")
    if levels:
        chosen = [b for b in chosen if bomb_level(b) in levels]
        if not chosen:
            raise SpecError(f"levels: {levels} leaves no bombs selected")
    return chosen


def resolve_tools(entries: list[str]) -> list[str]:
    """Tool names selected by *entries*.

    The universe, the ``all`` keyword and the default are all derived
    from the live :data:`~repro.bombs.suite.TOOL_COLUMNS` registry at
    resolve time, so a new Table II column is selectable (by name, glob
    or ``all``) with no spec-layer edits.  Selection order follows the
    column order, with non-column tools (``rexx``) after.
    """
    from ..bombs import TOOL_COLUMNS
    from ..tools.api import all_tool_names

    universe = list(TOOL_COLUMNS)
    for name in all_tool_names():
        if name not in universe:
            universe.append(name)
    keywords = {"all": list(TOOL_COLUMNS)}
    return _select(entries, universe, list(TOOL_COLUMNS), keywords, "tools")


# -- document validation ----------------------------------------------------

def _str_list(doc: dict, key: str) -> list[str]:
    value = doc.get(key, [])
    if isinstance(value, str):
        value = [value]
    if not isinstance(value, list):
        raise SpecError(f"{key}: expected a list of strings, "
                        f"got {type(value).__name__}")
    return value


def build_spec(doc: dict):
    """Validate a parsed document and resolve it to a CampaignSpec."""
    from .campaign import CampaignSpec
    from .executor import DEFAULT_RETRIES

    unknown = sorted(set(doc) - SPEC_KEYS)
    if unknown:
        raise SpecError(f"unknown spec key(s): {', '.join(unknown)} "
                        f"(allowed: {', '.join(sorted(SPEC_KEYS))})")

    levels = doc.get("levels", [])
    if not isinstance(levels, list) or \
            any(not isinstance(lv, int) or isinstance(lv, bool)
                for lv in levels):
        raise SpecError("levels: expected a list of integers")

    bombs = resolve_bombs(_str_list(doc, "bombs"), levels)
    tools = resolve_tools(_str_list(doc, "tools"))
    if not bombs or not tools:
        raise SpecError("spec selects an empty matrix")

    jobs = doc.get("jobs", 1)
    if not isinstance(jobs, int) or isinstance(jobs, bool) or jobs < 0:
        raise SpecError("jobs: expected an integer >= 0 (0 = auto-detect)")

    timeout = doc.get("timeout")
    if timeout is not None:
        if not isinstance(timeout, (int, float)) or isinstance(timeout, bool) \
                or timeout <= 0:
            raise SpecError("timeout: expected a positive number of seconds")
        timeout = float(timeout)

    retries = doc.get("retries", DEFAULT_RETRIES)
    if not isinstance(retries, int) or isinstance(retries, bool) or retries < 0:
        raise SpecError("retries: expected an integer >= 0")

    name = doc.get("name", "")
    tenant = doc.get("tenant", "")
    for key, value in (("name", name), ("tenant", tenant)):
        if not isinstance(value, str):
            raise SpecError(f"{key}: expected a string")

    return CampaignSpec(bombs=tuple(bombs), tools=tuple(tools), jobs=jobs,
                        timeout=timeout, retries=retries, name=name,
                        tenant=tenant)


# -- per-tenant quotas ------------------------------------------------------

@dataclass
class TenantQuota:
    """Budget for one tenant; ``None`` means unlimited."""

    max_pending_cells: int | None = None


def load_quotas(root: str | os.PathLike) -> dict[str, TenantQuota]:
    """Quota table from ``<root>/quotas.json`` (absent = no limits).

    Returns tenant name → :class:`TenantQuota`; the ``"default"`` entry
    (if present) applies to tenants without their own row.
    """
    path = Path(root) / QUOTAS_FILE
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except OSError:
        return {}
    except ValueError as err:
        raise SpecError(f"invalid {QUOTAS_FILE}: {err}")
    quotas: dict[str, TenantQuota] = {}
    for tenant, row in {**doc.get("tenants", {}),
                        **({"default": doc["default"]}
                           if "default" in doc else {})}.items():
        if not isinstance(row, dict):
            raise SpecError(f"{QUOTAS_FILE}: entry for {tenant!r} must "
                            "be an object")
        limit = row.get("max_pending_cells")
        if limit is not None and (not isinstance(limit, int)
                                  or isinstance(limit, bool) or limit < 0):
            raise SpecError(f"{QUOTAS_FILE}: {tenant}.max_pending_cells "
                            "must be a non-negative integer or null")
        quotas[tenant] = TenantQuota(max_pending_cells=limit)
    return quotas


def quota_for(quotas: dict[str, TenantQuota], tenant: str) -> TenantQuota:
    return quotas.get(tenant, quotas.get("default", TenantQuota()))


def check_quota(service, spec) -> None:
    """Raise :class:`QuotaExceeded` if submitting *spec* would push its
    tenant past ``max_pending_cells`` outstanding (pending or claimed)
    cells across all campaigns under the service root."""
    quotas = load_quotas(service.root)
    if not quotas:
        return
    quota = quota_for(quotas, spec.tenant)
    if quota.max_pending_cells is None:
        return
    outstanding = 0
    for cid in service.campaigns():
        existing = service.spec(cid)
        if existing.tenant != spec.tenant:
            continue
        states = service.status(cid)["states"]
        outstanding += states["pending"] + states["claimed"]
    requested = len(spec.cells())
    if outstanding + requested > quota.max_pending_cells:
        obs.count("service.quota_rejected")
        tenant = spec.tenant or "(default tenant)"
        raise QuotaExceeded(
            f"tenant {tenant}: {outstanding} cell(s) outstanding + "
            f"{requested} requested exceeds quota of "
            f"{quota.max_pending_cells} pending cells")
