"""Tests for the tools layer, harness and renderers (fast rows only)."""

import pytest

from repro.bombs import get_bomb
from repro.errors import ErrorStage
from repro.eval import (
    render_table1,
    render_table2,
    run_cell,
    run_dataset_stats,
    run_figure3,
    run_table2,
)
from repro.fuzz import random_fuzz
from repro.tools import all_tool_names, get_tool


class TestToolApi:
    def test_known_tools(self):
        assert all_tool_names() == ["bapx", "tritonx", "angrx", "angrx_nolib",
                                    "rexx", "sandshrewx", "hybridx"]
        for name in all_tool_names():
            assert get_tool(name).name == name

    def test_unknown_tool(self):
        with pytest.raises(KeyError):
            get_tool("klee")

    def test_trace_tool_report_shape(self):
        report = get_tool("tritonx").analyze_bomb(get_bomb("cp_stack"))
        assert report.solved and report.solution == [b"49"]
        assert report.elapsed > 0
        assert report.bomb_id == "cp_stack"

    def test_symex_tool_validates_claims(self):
        report = get_tool("angrx").analyze_bomb(get_bomb("sa_l1_array"))
        assert report.solved
        assert get_bomb("sa_l1_array").triggers(report.solution)


class TestHarnessCells:
    """Spot-check classified cells against the paper (fast rows only);
    the full matrix lives in benchmarks/bench_table2.py."""

    @pytest.mark.parametrize("bomb_id,tool,expected", [
        ("sv_time", "bapx", "Es0"),
        ("sv_time", "angrx", "Es0"),
        ("sv_syscall", "angrx", "P"),
        ("sv_arglen", "tritonx", "Es0"),
        ("sv_arglen", "angrx", "ok"),
        ("cp_stack", "bapx", "Es1"),
        ("cp_stack", "tritonx", "ok"),
        ("cp_syscall", "angrx_nolib", "P"),
        ("pp_pthread", "bapx", "ok"),
        ("pp_pthread", "tritonx", "Es2"),
        ("sa_l1_array", "tritonx", "Es3"),
        ("cs_file_name", "tritonx", "Es3"),
        ("cs_file_name", "angrx", "Es2"),
        ("fp_float", "bapx", "Es1"),
        ("fp_float", "angrx", "E"),
        ("fp_float", "angrx_nolib", "Es3"),
        ("ef_sin", "angrx_nolib", "Es2"),
        ("sv_web", "angrx", "E"),
    ])
    def test_cell_matches_paper(self, bomb_id, tool, expected):
        cell = run_cell(get_bomb(bomb_id), tool)
        assert cell.label == expected == cell.expected

    def test_run_table2_slice(self):
        result = run_table2(bomb_ids=("sv_time", "cp_stack"),
                            tools=("bapx", "tritonx"))
        assert len(result.cells) == 4
        row = result.row("cp_stack")
        assert row["tritonx"].outcome is ErrorStage.OK
        text = render_table2(result)
        assert "cp_stack" not in text  # rendered by case description
        assert "Push symbolic values" in text


class TestRenderers:
    def test_table1_render(self):
        text = render_table1()
        assert "Symbolic Array" in text
        assert text.count("x") >= 10  # the checkmarks

    def test_dataset_stats(self):
        stats = run_dataset_stats()
        assert "22 binaries" in stats.render()

    def test_figure3(self):
        result = run_figure3()
        assert result.extra_tainted > 30
        assert "paper: +61" in result.render()


class TestFuzzer:
    def test_deterministic(self):
        bomb = get_bomb("sa_l1_array")
        a = random_fuzz(bomb.image, budget=60, env=bomb.base_env(), seed=1)
        b = random_fuzz(bomb.image, budget=60, env=bomb.base_env(), seed=1)
        assert (a.triggered, a.executions) == (b.triggered, b.executions)

    def test_finds_small_domain_bomb(self):
        bomb = get_bomb("sa_l1_array")
        result = random_fuzz(bomb.image, budget=200, env=bomb.base_env())
        assert result.triggered
        assert bomb.triggers(result.trigger_input)

    def test_cannot_find_env_bomb(self):
        bomb = get_bomb("sv_time")
        result = random_fuzz(bomb.image, budget=50, env=bomb.base_env())
        assert not result.triggered
        assert result.executions == 50


class TestReport:
    def test_markdown_report_and_unsolved(self):
        from repro.eval import render_markdown_report, run_table2, unsolved_cases

        result = run_table2(bomb_ids=("sv_time",),
                            tools=("bapx", "tritonx"))
        md = render_markdown_report(result, title="slice")
        assert "# slice" in md
        assert "Es0 ✓" in md
        assert "Cell agreement" in md
        assert unsolved_cases(result) == ["sv_time"]
