"""Tests for the command-line front end."""

import pytest

from repro.cli import main


@pytest.fixture
def crackme(tmp_path):
    source = tmp_path / "crack.bc"
    source.write_text(
        "int main(int argc, char **argv) {"
        " if (atoi(argv[1]) == 41) { bomb(); }"
        " print_str(\"no\");"
        " return 3; }"
    )
    binary = tmp_path / "crack.rexf"
    assert main(["cc", str(source), "-o", str(binary)]) == 0
    return binary


class TestCompileRun:
    def test_cc_produces_loadable_binary(self, tmp_path, capsys):
        source = tmp_path / "mini.bc"
        source.write_text("int main(int argc, char **argv) { return 0; }")
        binary = tmp_path / "mini.rexf"
        assert main(["cc", str(source), "-o", str(binary)]) == 0
        out = capsys.readouterr().out
        assert "bytes" in out and "entry" in out
        assert binary.exists()

    def test_run_exit_code_and_stdout(self, crackme, capsys):
        code = main(["run", str(crackme), "7"])
        assert code == 3
        assert "no" in capsys.readouterr().out

    def test_run_bomb_marker(self, crackme, capsys):
        code = main(["run", str(crackme), "41"])
        captured = capsys.readouterr()
        assert "BOOM" in captured.out
        assert "[bomb triggered]" in captured.err
        assert code == 42

    def test_run_env(self, tmp_path, capsys):
        source = tmp_path / "t.bc"
        source.write_text(
            "int main(int argc, char **argv) { print_int(time()); return 0; }"
        )
        binary = tmp_path / "t.rexf"
        main(["cc", str(source), "-o", str(binary)])
        capsys.readouterr()
        main(["run", str(binary), "--env", "time=123"])
        assert capsys.readouterr().out == "123"


class TestInspection:
    def test_dis(self, crackme, capsys):
        assert main(["dis", str(crackme), "--no-lib"]) == 0
        out = capsys.readouterr().out
        assert "main:" in out and "call" in out
        assert "; section .text" in out

    def test_nm(self, crackme, capsys):
        assert main(["nm", str(crackme)]) == 0
        out = capsys.readouterr().out
        assert "main" in out and "lib" in out and "_start" in out

    def test_taint(self, crackme, capsys):
        assert main(["taint", str(crackme), "7"]) == 0
        out = capsys.readouterr().out
        assert "tainted instructions" in out
        assert "symbolic branches" in out


class TestSolve:
    def test_solve_finds_password(self, crackme, capsys):
        assert main(["solve", str(crackme), "--tool", "tritonx",
                     "--seed", "70"]) == 0
        assert "SOLVED: ['41']" in capsys.readouterr().out

    def test_solve_reports_diagnostics_on_failure(self, tmp_path, capsys):
        source = tmp_path / "env.bc"
        source.write_text(
            "int main(int argc, char **argv) {"
            " if (getmagic() == 7) { bomb(); } return 0; }"
        )
        binary = tmp_path / "env.rexf"
        main(["cc", str(source), "-o", str(binary)])
        capsys.readouterr()
        assert main(["solve", str(binary), "--tool", "bapx"]) == 1
        assert "diagnostics" in capsys.readouterr().out

    def test_solve_prints_the_claimed_environment(self, tmp_path, capsys):
        import ast
        import shlex

        from repro.bombs import get_bomb

        binary = tmp_path / "sv_time.rexf"
        binary.write_bytes(get_bomb("sv_time").image.to_bytes())
        assert main(["solve", str(binary), "--tool", "rexx"]) == 0
        solved, env = capsys.readouterr().out.splitlines()
        argv = ast.literal_eval(solved.removeprefix("SOLVED: "))
        flags = shlex.split(env.removeprefix("with "))
        assert flags[0] == "--env" and flags[1].startswith("time=")
        assert main(["run", str(binary), *argv]) == 0
        assert "[bomb triggered]" not in capsys.readouterr().err
        assert main(["run", str(binary), *argv, *flags]) == 42
        assert "[bomb triggered]" in capsys.readouterr().err

    def test_solve_rejects_an_unknown_tool(self, crackme):
        with pytest.raises(SystemExit, match="unknown tool 'nope'"):
            main(["solve", str(crackme), "--tool", "nope"])


class TestMetrics:
    def test_solve_metrics_out(self, crackme, tmp_path, capsys):
        import json

        metrics = tmp_path / "m.jsonl"
        assert main(["solve", str(crackme), "--tool", "tritonx",
                     "--seed", "70", "--metrics-out", str(metrics)]) == 0
        events = [json.loads(line)
                  for line in metrics.read_text().splitlines()]
        spans = {e["name"] for e in events if e["t"] == "span"}
        assert {"trace", "lift", "extract", "solve"} <= spans
        counters = {e["name"] for e in events if e["t"] == "counter"}
        assert "taint.instructions_tainted" in counters
        assert "smt.conflicts" in counters

    def test_stats_renders_a_metrics_file(self, crackme, tmp_path, capsys):
        metrics = tmp_path / "m.jsonl"
        main(["solve", str(crackme), "--tool", "tritonx",
              "--seed", "70", "--metrics-out", str(metrics)])
        capsys.readouterr()
        assert main(["stats", str(metrics)]) == 0
        out = capsys.readouterr().out
        assert "span" in out and "solve" in out
        assert "smt.queries" in out

    def test_stats_on_empty_file(self, tmp_path, capsys):
        metrics = tmp_path / "empty.jsonl"
        metrics.write_text("")
        assert main(["stats", str(metrics)]) == 1
        assert "no events" in capsys.readouterr().out

    def test_table2_json(self, capsys):
        import json

        assert main(["table2", "--bombs", "cp_stack",
                     "--tools", "tritonx", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        (cell,) = data["cells"]
        assert cell["bomb"] == "cp_stack" and cell["tool"] == "tritonx"
        assert cell["outcome"] == "ok" and cell["matches_paper"] is True
        for stage in ("trace", "solve", "replay"):
            assert stage in cell["timings_s"]
        assert data["solved_counts"]["tritonx"] == 1

    def test_run_metrics_out(self, crackme, tmp_path, capsys):
        import json

        metrics = tmp_path / "m.jsonl"
        assert main(["run", str(crackme), "7",
                     "--metrics-out", str(metrics)]) == 3
        events = [json.loads(line)
                  for line in metrics.read_text().splitlines()]
        counters = {e["name"]: e.get("value") for e in events
                    if e["t"] == "counter"}
        assert counters["vm.instructions"] > 0
        assert any(e["t"] == "span" and e["name"] == "run" for e in events)


class TestDataset:
    def test_bombs_listing(self, capsys):
        assert main(["bombs"]) == 0
        out = capsys.readouterr().out
        assert "sv_time" in out and "ext_loop" in out

    def test_table2_slice(self, capsys):
        assert main(["table2", "--bombs", "sv_time", "--tools", "bapx"]) == 0
        out = capsys.readouterr().out
        assert "Es0" in out and "paper agreement" in out
