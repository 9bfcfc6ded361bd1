"""Content-addressed cache keys for the campaign service.

A Table II cell is a pure function of three things:

1. **the bomb** — its compiled REXF image bytes plus the run context the
   harness feeds every tool (seed argv, fixed environment, whether the
   bomb is declared unreachable);
2. **the tool** — the engine family and the full capability/budget
   matrix of its policy (see :func:`repro.tools.capability_fingerprint`);
3. **the harness policy** — the classifier's rules and the cache schema
   itself (:data:`CACHE_SCHEMA`, bumped whenever the stored
   representation or the classification semantics change).

:func:`cell_key` hashes all three into one hex digest; the result store
files cells under that digest.  Editing a bomb source recompiles to a
different image and therefore a different key — only that bomb's cells
recompute — while an unchanged campaign is a 100% cache hit.

The paper's expected labels are deliberately *not* part of the key:
they only annotate agreement and are re-read from the live dataset when
a cached cell is decoded, so relabeling a row never invalidates results.
"""

from __future__ import annotations

import hashlib
import json

from ..binfmt import image_digest
from ..bombs.suite import Bomb
from ..eval.classify import CONCRETIZATION_THRESHOLD
from ..tools.api import capability_fingerprint
from ..vm import Environment

#: Version of the stored cell representation + classification semantics.
#: Part of every cache key: bumping it cold-starts the store rather than
#: serving results computed under older semantics.
CACHE_SCHEMA = 2


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def environment_payload(env: Environment | None) -> dict | None:
    """Canonical JSON-able form of an :class:`Environment` (or None)."""
    if env is None:
        return None
    return {
        "time_value": env.time_value,
        "pid": env.pid,
        "magic": env.magic,
        "files": {path: data.decode("latin1")
                  for path, data in sorted(env.files.items())},
        "network": {url: data.decode("latin1")
                    for url, data in sorted(env.network.items())},
        "stdin": env.stdin.decode("latin1"),
    }


def bomb_fingerprint(bomb: Bomb) -> str:
    """Digest of everything about *bomb* that a tool run can observe."""
    payload = {
        "image": image_digest(bomb.image),
        "seed_argv": [arg.decode("latin1") for arg in bomb.seed_argv],
        "fixed_env": environment_payload(bomb.fixed_env),
        "expected_unreachable": bomb.expected_unreachable,
    }
    return _sha256(_canonical(payload))


def harness_fingerprint() -> str:
    """Digest of the classification policy + cache schema."""
    payload = {
        "schema": CACHE_SCHEMA,
        "concretization_threshold": CONCRETIZATION_THRESHOLD,
    }
    return _sha256(_canonical(payload))


def cell_key(bomb: Bomb, tool_name: str) -> str:
    """The content address of one (bomb, tool) cell result."""
    payload = {
        "bomb": bomb_fingerprint(bomb),
        "tool": tool_name,
        "capabilities": capability_fingerprint(tool_name),
        "harness": harness_fingerprint(),
    }
    return _sha256(_canonical(payload))
