"""Fuzzing subsystem: random baseline, coverage-guided engine, hybrid driver."""

from .corpus import Corpus, EdgeCoverage
from .engine import CampaignResult, CoverageFuzzer, FuzzConfig
from .hybrid import HybridPolicy, HybridReport, run_hybrid
from .random_fuzzer import FuzzResult, random_fuzz

__all__ = [
    "CampaignResult",
    "Corpus",
    "CoverageFuzzer",
    "EdgeCoverage",
    "FuzzConfig",
    "FuzzResult",
    "HybridPolicy",
    "HybridReport",
    "random_fuzz",
    "run_hybrid",
]
