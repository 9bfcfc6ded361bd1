"""Content addresses and the engine stamp for the campaign service.

A Table II cell is a pure function of three things:

1. **the bomb** — its compiled REXF image bytes plus the run context the
   harness feeds every tool (seed argv, fixed environment, whether the
   bomb is declared unreachable);
2. **the tool** — the engine family and the full capability/budget
   matrix of its policy (see :func:`repro.tools.capability_fingerprint`);
3. **the engine** — the source that runs, classifies and stores the
   cell (:func:`engine_digest`).

:func:`cell_key` hashes the first two into one hex digest, and the
result store files cells under that digest; it stamps what it writes
with the third and reads any other stamp as a miss.  Editing a bomb
source changes only that bomb's keys, editing a tool profile only that
tool's, editing the engine cold-starts the store once, and an unchanged
campaign is a 100% cache hit.

The paper's expected labels are deliberately *not* part of the key:
they only annotate agreement and are re-read from the live dataset when
a cached cell is decoded, so relabeling a row never invalidates results.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from ..binfmt import image_digest
from ..bombs.suite import Bomb
from ..tools.api import capability_fingerprint
from ..vm import Environment

#: Source left out of :func:`engine_digest`.  It cannot change a stored
#: result (the CLI, telemetry), or changes it only through a value that
#: is already in the key: compiler, assembler, runtime and dataset act
#: through the image digest and bomb fingerprint (relabelling a bomb
#: never invalidates its cells), the two profile modules through the
#: capability fingerprint (editing one tool re-keys only its cells).
_NOT_ENGINE = ("cli.py", "tools/profiles.py", "tools/rexx.py",
               "obs/", "lang/", "asm/", "runtime/", "bombs/")

#: :func:`engine_digest`, once computed; a forked cell worker inherits it.
_ENGINE_DIGEST: str | None = None


def _source_digest(root: Path) -> str:
    """sha256 over the POSIX path and bytes of every engine ``*.py``
    file under the package root *root*, in sorted path order."""
    digest = hashlib.sha256()
    for rel in sorted(path.relative_to(root).as_posix()
                      for path in root.rglob("*.py")):
        if rel.startswith(_NOT_ENGINE):
            continue
        data = (root / rel).read_bytes()
        digest.update(f"{rel}\0{len(data)}\0".encode() + data)
    return digest.hexdigest()


def engine_digest() -> str:
    """Digest of the engine source: the stamp on every cell, lift,
    corpus and diagnosis document the result store writes."""
    global _ENGINE_DIGEST
    if _ENGINE_DIGEST is None:
        _ENGINE_DIGEST = _source_digest(Path(__file__).resolve().parents[1])
    return _ENGINE_DIGEST


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


def cell_key(bomb: Bomb, tool_name: str) -> str:
    """The content address of one (bomb, tool) cell result."""
    payload = {
        "bomb": bomb_fingerprint(bomb),
        "tool": tool_name,
        "capabilities": capability_fingerprint(tool_name),
    }
    return _sha256(_canonical(payload))
