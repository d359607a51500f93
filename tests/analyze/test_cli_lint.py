"""``python -m repro lint``: paths, selection, exit codes."""

import json
import os

import pytest

from repro.cli import main

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
REPO = os.path.normpath(os.path.join(os.path.dirname(__file__), "..", ".."))


@pytest.fixture
def run_cli(capsys):
    def invoke(argv):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


class TestLintCommand:
    def test_findings_exit_nonzero(self, run_cli):
        code, out, _ = run_cli(["lint", FIXTURES])
        assert code == 1
        for rule in ("W001", "W002", "W006", "W007", "W008", "W009", "W010"):
            assert rule in out
        assert "findings" in out  # summary line

    def test_clean_tree_exits_zero(self, run_cli, tmp_path):
        clean = tmp_path / "ok.py"
        clean.write_text(
            "def prog(comm):\n"
            "    total = yield from comm.allreduce(comm.rank)\n"
            "    return total\n"
        )
        code, out, _ = run_cli(["lint", str(tmp_path)])
        assert code == 0
        assert "no issues found" in out

    def test_select_limits_rules(self, run_cli):
        """Selecting the alias W004 runs, and reports, W009."""
        code, out, _ = run_cli(["lint", "--select", "W004", FIXTURES])
        assert code == 1
        assert "W009" in out and "W004" not in out and "W001" not in out

    def test_unknown_rule_is_an_error(self, run_cli):
        code, _, err = run_cli(["lint", "--select", "W042", FIXTURES])
        assert code == 1
        assert "unknown rule" in err

    def test_missing_path_is_an_error(self, run_cli):
        code, _, err = run_cli(["lint", os.path.join(FIXTURES, "absent.py")])
        assert code == 1
        assert "no such file" in err

    def test_no_paths_is_an_error(self, run_cli):
        code, _, err = run_cli(["lint"])
        assert code == 1
        assert "no paths" in err

    def test_list_rules(self, run_cli):
        code, out, _ = run_cli(["lint", "--list-rules"])
        assert code == 0
        assert "W001 dropped-coroutine (error)" in out
        assert "W006 wildcard-race (warning)" in out
        assert "W003 alias of W008 (collective-divergence)" in out
        assert "W004 alias of W009 (proved-deadlock)" in out
        assert "W005 alias of W007 (unmatched-send)" in out

    @pytest.mark.parametrize("ranks", ["0", "-2"])
    def test_non_positive_world_size_is_an_error(self, run_cli, ranks):
        code, out, err = run_cli(["lint", "--ranks", ranks, FIXTURES])
        assert code == 1
        assert out == ""
        assert err == f"error: world size must be at least 1 rank, got {ranks}\n"


class TestCIGate:
    """What CI runs must stay green: the shipped rank programs and the
    quickstart example lint clean."""

    def test_examples_and_linalg_exit_zero(self, run_cli):
        code, out, _ = run_cli(
            ["lint",
             os.path.join(REPO, "examples"),
             os.path.join(REPO, "src", "repro", "linalg")]
        )
        assert code == 0
        assert "no issues found" in out

    def test_shipped_trees_symbolic_exit_zero(self, run_cli):
        """The CI step: the examples and the whole package."""
        code, out, _ = run_cli(
            ["lint", os.path.join(REPO, "examples"), os.path.join(REPO, "src", "repro")]
        )
        assert code == 0
        assert "no issues found" in out

    def test_quickstart_example_exits_zero(self, run_cli):
        quickstart = os.path.join(REPO, "examples", "quickstart.py")
        assert os.path.exists(quickstart)
        code, out, _ = run_cli(["lint", quickstart])
        assert code == 0
        assert "no issues found" in out


class TestLintJson:
    """``--json`` emits one JSON object per finding (JSON lines), no
    summary, so the output pipes straight into ``jq``/CI annotators."""

    def test_json_lines_shape(self, run_cli):
        code, out, _ = run_cli(
            ["lint", "--json", os.path.join(FIXTURES, "w001.py")]
        )
        assert code == 1
        records = [json.loads(line) for line in out.splitlines() if line]
        assert records, "expected at least one finding"
        for record in records:
            assert set(record) >= {"rule", "severity", "file", "line", "message"}
        assert {r["rule"] for r in records} == {"W001"}
        assert "findings" not in out  # no prose summary in machine output

    def test_json_clean_tree_emits_nothing(self, run_cli, tmp_path):
        clean = tmp_path / "ok.py"
        clean.write_text(
            "def prog(comm):\n"
            "    total = yield from comm.allreduce(comm.rank)\n"
            "    return total\n"
        )
        code, out, _ = run_cli(["lint", "--json", str(tmp_path)])
        assert code == 0
        assert out.strip() == ""

    def test_json_symbolic_includes_cross_rank_rules(self, run_cli):
        code, out, _ = run_cli(
            ["lint", "--json", "--select", "W009",
             os.path.join(FIXTURES, "w009.py")]
        )
        assert code == 1
        records = [json.loads(line) for line in out.splitlines() if line]
        assert {r["rule"] for r in records} == {"W009"}

    def test_json_reports_alias_target_code(self, run_cli):
        code, out, _ = run_cli(
            ["lint", "--json", "--ranks", "2", "--select", "W005",
             os.path.join(FIXTURES, "w005.py")]
        )
        assert code == 1
        records = [json.loads(line) for line in out.splitlines() if line]
        assert {r["rule"] for r in records} == {"W007"}

    def test_list_rules_marks_symbolic(self, run_cli):
        code, out, _ = run_cli(["lint", "--list-rules"])
        assert code == 0
        assert "W009 proved-deadlock (warning)" in out
        w009_line = next(l for l in out.splitlines() if l.startswith("W009"))
        assert w009_line.endswith("[symbolic]")
