"""Edge-coverage bitmap and the deterministic seed corpus.

The coverage model is AFL's: every executed ``(src, dst)`` control-flow
edge (reported by the VM's ``on_edge`` hook) hashes into a fixed-size
slot map, per-run hit counts collapse into power-of-two buckets, and an
input is *interesting* — worth keeping as a corpus entry — exactly when
it lights a (slot, bucket) pair no earlier input lit.

Everything here is deterministic: corpus entries keep insertion order,
the corpus digest hashes entry bytes in that order, and no wall-clock
or OS randomness is consulted.  Two campaigns with the same image,
seeds and budget produce byte-identical corpora.

Campaign artifacts persist in the content-addressed result store under
a ``corpus/`` tree (see :class:`~repro.service.store.ResultStore`),
keyed by image digest x campaign fingerprint, mirroring how lifted IR
persists under ``lift/``.  A campaign whose key hits the store restores
the recorded corpus and verdict without re-executing anything.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from .. import obs
from ..obs import session

MAP_SIZE = 1 << 16

# AFL hit-count buckets: a slot's per-run count collapses into the bit
# index of the first threshold it does not exceed.
_BUCKET_THRESHOLDS = (1, 2, 3, 4, 8, 16, 32)


def edge_slot(src: int, dst: int) -> int:
    """Hash one (src, dst) edge into its bitmap slot."""
    return ((src * 0x9E3779B1) ^ dst) & (MAP_SIZE - 1)


def bucket_index(count: int) -> int:
    """The hit-count bucket (0..7) for a per-run edge count."""
    for i, threshold in enumerate(_BUCKET_THRESHOLDS):
        if count <= threshold:
            return i
    return 7


class EdgeCoverage:
    """Cumulative (slot, bucket) map across a whole campaign."""

    def __init__(self) -> None:
        # slot -> bitmask of hit-count buckets seen so far
        self._virgin: dict[int, int] = {}

    @property
    def edges(self) -> int:
        return len(self._virgin)

    @property
    def bits(self) -> int:
        return sum(mask.bit_count() for mask in self._virgin.values())

    def merge(self, run_counts: dict[int, int]) -> bool:
        """Fold one run's raw slot counts in; True if anything was new."""
        new = False
        virgin = self._virgin
        for slot, count in run_counts.items():
            bit = 1 << bucket_index(count)
            seen = virgin.get(slot, 0)
            if not seen & bit:
                virgin[slot] = seen | bit
                new = True
        return new

    def to_payload(self) -> dict:
        return {str(slot): mask for slot, mask in sorted(self._virgin.items())}

    @classmethod
    def from_payload(cls, payload: dict) -> "EdgeCoverage":
        cov = cls()
        cov._virgin = {int(slot): mask for slot, mask in payload.items()}
        return cov


@dataclass
class CorpusEntry:
    """One interesting input and the coverage evidence that kept it."""

    data: bytes
    execution: int  # 1-based campaign execution that produced it
    edges: int  # distinct slots this input touched in its own run


@dataclass
class Corpus:
    """Insertion-ordered seed corpus guided by :class:`EdgeCoverage`."""

    entries: list[CorpusEntry] = field(default_factory=list)
    coverage: EdgeCoverage = field(default_factory=EdgeCoverage)

    def add(self, data: bytes, run_counts: dict[int, int], execution: int) -> bool:
        """Keep *data* if its run lit new coverage bits."""
        if not self.coverage.merge(run_counts):
            return False
        self.entries.append(CorpusEntry(data, execution, len(run_counts)))
        obs.count("fuzz.corpus_adds")
        return True

    def __len__(self) -> int:
        return len(self.entries)

    def datas(self) -> list[bytes]:
        return [entry.data for entry in self.entries]

    def best(self, n: int) -> list[CorpusEntry]:
        """The *n* entries with the widest own-run coverage (stable)."""
        ranked = sorted(enumerate(self.entries),
                        key=lambda pair: (-pair[1].edges, pair[0]))
        return [entry for _, entry in ranked[:n]]

    def digest(self) -> str:
        """Order-sensitive content digest of the whole corpus."""
        h = hashlib.sha256()
        for entry in self.entries:
            h.update(len(entry.data).to_bytes(4, "big"))
            h.update(entry.data)
        return h.hexdigest()

    def to_payload(self) -> dict:
        return {
            "entries": [
                {"data": e.data.decode("latin1"), "execution": e.execution,
                 "edges": e.edges}
                for e in self.entries
            ],
            "coverage": self.coverage.to_payload(),
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "Corpus":
        corpus = cls()
        corpus.entries = [
            CorpusEntry(e["data"].encode("latin1"), e["execution"], e["edges"])
            for e in payload["entries"]
        ]
        corpus.coverage = EdgeCoverage.from_payload(payload["coverage"])
        return corpus


def campaign_key(image_digest: str, fingerprint_payload: dict) -> str:
    """Content key for a campaign's persisted corpus.

    Hashes the image digest with the campaign's semantic configuration
    (seed, budget, mutation limits, ...) so any change to either runs a
    fresh campaign instead of restoring a stale one.
    """
    doc = json.dumps({"image": image_digest, "campaign": fingerprint_payload},
                     sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(doc.encode("utf-8")).hexdigest()


# -- persistence through the session's store ---------------------------------
#
# A cached matrix run scopes its result store into the session
# (repro.obs.session); campaigns persist and restore through it and work
# storeless too.

def persist_campaign(key: str, payload: dict) -> None:
    store = session.current.store
    if store is not None:
        store.put_corpus(key, payload)


def load_campaign(key: str) -> dict | None:
    store = session.current.store
    if store is None:
        return None
    return store.get_corpus(key)
