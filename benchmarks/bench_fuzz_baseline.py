"""Fuzzing baselines over the dataset: random vs coverage-guided.

Section I motivates concolic execution as outperforming random testing
on small programs; the hybrid-fuzzing subsystem adds the third corner
of that comparison.  This benchmark runs both fuzzers — the blind
random baseline and the coverage-guided engine the ``hybridx`` column
drives — over the 22 Table II bombs with per-bomb budgets, prints the
comparison table, and writes ``BENCH_fuzz.json`` so ``bench_check.py``
can gate the solved sets and the executions-to-trigger counters across
revisions.
"""

import json
import time
from pathlib import Path

from repro.bombs import TABLE2_BOMB_IDS, get_bomb
from repro.fuzz import CoverageFuzzer, FuzzConfig, random_fuzz

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_fuzz.json"

#: Environment-triggered bombs: no argv fuzzer can reach these.
ENV_BOMBS = ("sv_time", "sv_web", "sv_syscall")


def _fuzz_all():
    """Both campaigns per bomb; everything in here is deterministic."""
    results = {}
    for bomb_id in TABLE2_BOMB_IDS:
        bomb = get_bomb(bomb_id)
        rand = random_fuzz(
            bomb.image, budget=150, env=bomb.base_env(),
            argv0=bomb_id.encode(),
        )
        fuzzer = CoverageFuzzer(
            bomb.image, FuzzConfig(), bomb.base_env(),
            argv0=bomb_id.encode(), fixed_tail=tuple(bomb.seed_argv[1:]),
        )
        campaign = fuzzer.campaign(tuple(bomb.seed_argv[:1]))
        results[bomb_id] = (rand, campaign)
    return results


def _write_bench_json(results, wall_s) -> None:
    coverage_solved = sorted(b for b, (_, c) in results.items() if c.triggered)
    record = {
        "wall_s": round(wall_s, 3),
        "fuzz": {
            "random_solved": sorted(
                b for b, (r, _) in results.items() if r.triggered),
            "coverage_solved": coverage_solved,
            "executions_to_trigger": {
                b: c.executions for b, (_, c) in sorted(results.items())
                if c.triggered
            },
            "total_executions": sum(
                c.executions for _, c in results.values()),
            "corpus_edges": {
                b: c.corpus.coverage.edges
                for b, (_, c) in sorted(results.items())
            },
        },
    }
    BENCH_JSON.write_text(json.dumps(record, indent=2) + "\n")


def test_fuzz_baseline(once):
    wall0 = time.perf_counter()
    results = once(_fuzz_all)
    wall_s = time.perf_counter() - wall0

    print(f"\n{'bomb':20s} {'random':>10s} {'coverage':>10s}  "
          f"(executions to trigger)")
    for bomb_id, (rand, campaign) in results.items():
        rcell = f"{rand.executions:4d}" if rand.triggered else "-"
        ccell = f"{campaign.executions:4d}" if campaign.triggered else "-"
        print(f"{bomb_id:20s} {rcell:>10s} {ccell:>10s}")

    random_solved = {b for b, (r, _) in results.items() if r.triggered}
    coverage_solved = {b for b, (_, c) in results.items() if c.triggered}

    # The environment-triggered bombs are out of reach for any argv
    # fuzzer — that *is* the Es0 challenge.
    for bomb_id in ENV_BOMBS:
        assert bomb_id not in random_solved, bomb_id
        assert bomb_id not in coverage_solved, bomb_id

    # Coverage guidance + the cracking dictionary strictly dominates the
    # blind baseline: everything random finds, coverage finds too, plus
    # the crypto rows no random argv string ever hits.
    assert random_solved <= coverage_solved, \
        random_solved - coverage_solved
    for bomb_id in ("cf_sha1", "cf_aes"):
        assert bomb_id not in random_solved, bomb_id
        assert bomb_id in coverage_solved, bomb_id
    # Small-domain bombs fall to either fuzzer quickly.
    assert "sa_l1_array" in random_solved
    assert "sj_jump" in coverage_solved

    once.benchmark.extra_info["random_solved"] = sorted(random_solved)
    once.benchmark.extra_info["coverage_solved"] = sorted(coverage_solved)

    _write_bench_json(results, wall_s)
    record = json.loads(BENCH_JSON.read_text())
    assert set(record["fuzz"]["coverage_solved"]) == coverage_solved
    once.benchmark.extra_info["bench_json"] = str(BENCH_JSON.name)
