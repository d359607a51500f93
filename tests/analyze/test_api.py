"""The public analysis API: inputs, suppressions, selection, errors."""

import os

import pytest

from repro.analyze import (
    RULES,
    AnalysisError,
    Finding,
    analyze_file,
    analyze_paths,
    analyze_program,
    analyze_source,
    format_findings,
    sort_findings,
    summarize,
)
from repro.analyze.registry import validate_codes

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


# A deliberately-buggy module-level program so inspect can find source.
def dropped_barrier_program(comm):
    comm.barrier()
    yield from comm.compute(seconds=1.0)


class TestAnalyzeProgram:
    def test_function_object_reports_defining_file_and_line(self):
        findings = analyze_program(dropped_barrier_program)
        assert [f.rule for f in findings] == ["W001"]
        assert findings[0].file == os.path.abspath(__file__)
        with open(__file__) as handle:
            lines = handle.readlines()
        assert "comm.barrier()" in lines[findings[0].line - 1]

    def test_source_string_accepted(self):
        findings = analyze_program("def p(comm):\n    comm.barrier()\n    yield\n")
        assert [f.rule for f in findings] == ["W001"]

    def test_non_callable_rejected(self):
        with pytest.raises(AnalysisError, match="function or source"):
            analyze_program(42)

    def test_clean_program_yields_nothing(self):
        def clean(comm):
            total = yield from comm.allreduce(comm.rank)
            return total

        assert analyze_program(clean) == []


class TestSelectAndSuppress:
    # The self-message is matched on every rank, so only the per-rank
    # rules fire.
    SRC = (
        "def prog(comm):\n"
        "    comm.barrier()\n"
        "    h = yield from comm.irecv(source=comm.rank, tag=1)\n"
        "    yield from comm.send(1, comm.rank, tag=1)\n"
        "    return None\n"
    )

    def test_select_restricts_rules(self):
        assert {f.rule for f in analyze_source(self.SRC)} == {"W001", "W002"}
        only = analyze_source(self.SRC, select="W001")
        assert {f.rule for f in only} == {"W001"}

    def test_select_accepts_iterables(self):
        only = analyze_source(self.SRC, select=["W002"])
        assert {f.rule for f in only} == {"W002"}

    def test_unknown_code_rejected(self):
        with pytest.raises(AnalysisError, match="unknown rule"):
            analyze_source(self.SRC, select="W999")

    def test_disable_comment_suppresses_one_rule(self):
        src = self.SRC.replace(
            "comm.barrier()", "comm.barrier()  # repro: disable=W001"
        )
        assert {f.rule for f in analyze_source(src)} == {"W002"}

    def test_disable_all_suppresses_everything_on_the_line(self):
        src = self.SRC.replace(
            "comm.barrier()", "comm.barrier()  # repro: disable=all"
        )
        assert {f.rule for f in analyze_source(src)} == {"W002"}

    def test_disable_elsewhere_does_not_leak(self):
        src = self.SRC + "    # repro: disable=W001\n"
        assert {f.rule for f in analyze_source(src)} == {"W001", "W002"}


class TestFilesAndPaths:
    def test_analyze_file_matches_analyze_source(self):
        path = os.path.join(FIXTURES, "w001.py")
        with open(path) as handle:
            from_source = analyze_source(handle.read(), filename=path)
        assert analyze_file(path) == from_source

    def test_directory_walk_is_recursive_and_sorted(self):
        findings = analyze_paths([FIXTURES])
        files = [f.file for f in findings]
        assert files == sorted(files)

    def test_symbolic_walk_covers_all_rules(self):
        """One pass reports every rule; the alias codes never appear."""
        findings = analyze_paths([FIXTURES])
        assert {f.rule for f in findings} == set(RULES)

    @pytest.mark.parametrize("n_ranks", [0, -2])
    def test_non_positive_world_size_rejected(self, n_ranks):
        with pytest.raises(AnalysisError, match=f"got {n_ranks}$"):
            analyze_file(os.path.join(FIXTURES, "w001.py"), n_ranks=n_ranks)

    def test_missing_path_raises(self):
        with pytest.raises(AnalysisError, match="no such file"):
            analyze_paths([os.path.join(FIXTURES, "nope.py")])

    def test_syntax_error_raises_analysis_error(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n")
        with pytest.raises(AnalysisError, match="cannot parse"):
            analyze_file(str(bad))

    def test_non_rank_program_files_are_ignored(self, tmp_path):
        plain = tmp_path / "plain.py"
        plain.write_text("def helper(x):\n    return x + 1\n")
        assert analyze_paths([str(tmp_path)]) == []


class TestRendering:
    F1 = Finding(rule="W001", severity="error", file="b.py", line=9, message="m1")
    F2 = Finding(rule="W004", severity="warning", file="a.py", line=3, message="m2")

    def test_render_format(self):
        assert self.F1.render() == "b.py:9: W001 error: m1"

    def test_sort_by_file_then_line(self):
        assert sort_findings([self.F1, self.F2]) == [self.F2, self.F1]

    def test_summarize_counts(self):
        assert summarize([self.F1, self.F2]) == (
            "2 findings (1 error, 1 warning) in 2 files"
        )
        assert summarize([]) == "no issues found"

    def test_format_findings_ends_with_summary(self):
        text = format_findings([self.F1])
        assert text.splitlines()[0] == "b.py:9: W001 error: m1"
        assert text.splitlines()[-1] == "1 finding (1 error) in 1 file"


class TestCleanTrees:
    """The CI gate, pinned here too: the shipped rank programs lint
    clean."""

    @pytest.mark.parametrize(
        "tree", ["examples", "src/repro/linalg", "src/repro/apps"]
    )
    def test_shipped_programs_are_clean(self, tree):
        root = os.path.join(os.path.dirname(__file__), "..", "..", tree)
        assert analyze_paths([os.path.normpath(root)]) == []

    @pytest.mark.parametrize(
        "tree", ["examples", "src/repro/linalg", "src/repro/apps"]
    )
    def test_shipped_programs_are_clean_symbolically(self, tree):
        """The cross-rank verdicts hold at another world size too."""
        root = os.path.join(os.path.dirname(__file__), "..", "..", tree)
        assert analyze_paths([os.path.normpath(root)], n_ranks=16) == []


class TestAliases:
    """W003/W004/W005 select, disable and validate as W008/W009/W007."""

    DIVERGENT = (
        "def prog(comm):\n"
        "    if comm.rank == 0:\n"
        "        yield from comm.barrier()\n"
    )

    def test_disable_alias_suppresses_target(self):
        findings = analyze_source(self.DIVERGENT)
        assert [(f.rule, f.line) for f in findings] == [("W008", 3)]
        src = self.DIVERGENT.replace(
            "comm.barrier()", "comm.barrier()  # repro: disable=W003"
        )
        assert analyze_source(src) == []

    def test_validate_codes_accepts_alias(self):
        assert validate_codes(["W005"]) == {"W007"}
        with pytest.raises(AnalysisError, match="W999"):
            validate_codes(["W005", "W999"])
