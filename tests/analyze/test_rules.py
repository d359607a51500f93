"""Rule-by-rule contracts, driven by the deliberately-buggy fixtures.

Each ``tests/analyze/fixtures/w00N.py`` contains triggering cases whose
flagged lines carry a ``# BAD`` marker, plus near-miss programs the rule
must stay silent on.  The shared contract: analysing the fixture yields
findings for exactly that rule, on exactly the marked lines.  The
fixtures of the retired codes W003-W005 keep their verdicts through
the aliases: the findings carry the target code (W008, W009, W007).
"""

import inspect
import os

import pytest

from repro.analyze import RULES, analyze_file, analyze_source, confirm_deadlock
from repro.analyze.registry import ALIASES
from repro.analyze.visitor import COMM_COROUTINES
from repro.simmpi.comm import Comm
from repro.simmpi.group import GroupComm

#: Every selectable code: the registered rules plus the aliases.
CODES = sorted([*RULES, *ALIASES])

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fixture_path(code):
    return os.path.join(FIXTURES, code.lower() + ".py")


def bad_lines(path):
    with open(path) as handle:
        return [i + 1 for i, line in enumerate(handle) if "# BAD" in line]


def fixture_findings(code):
    """The fixture's findings for its own code.  Every code selects only
    itself, because the cross-rank rules always run and overlapping
    findings are by design (a wrong-direction exchange is *both* W010
    and unmatched-traffic W007).  The alias fixtures are two-rank
    programs (``1 - comm.rank`` leaves the world at 8), so they run at
    two ranks."""
    n_ranks = 2 if code in ALIASES else 8
    return analyze_file(fixture_path(code), select=code, n_ranks=n_ranks)


class TestFixtureContract:
    @pytest.mark.parametrize("code", CODES)
    def test_fixture_triggers_exactly_its_rule_on_marked_lines(self, code):
        findings = fixture_findings(code)
        assert {f.rule for f in findings} == {ALIASES.get(code, code)}
        assert {f.line for f in findings} == set(bad_lines(fixture_path(code)))

    @pytest.mark.parametrize("code", CODES)
    def test_fixture_severity_matches_registry(self, code):
        findings = fixture_findings(code)
        assert findings
        for finding in findings:
            assert finding.severity == RULES[ALIASES.get(code, code)].severity

    @pytest.mark.parametrize("code", CODES)
    def test_fixture_names_offending_program(self, code):
        """Messages carry the enclosing program name -- multi-program
        files need it to be actionable."""
        for finding in fixture_findings(code):
            assert finding.message.endswith("()]")
            assert "[in bad_" in finding.message


class TestW001Details:
    def test_message_explains_discarded_generator(self):
        (finding,) = analyze_file(fixture_path("W001"))
        assert "yield from" in finding.message
        assert "never executes" in finding.message

    def test_dropped_exchange_flagged(self):
        src = (
            "def prog(comm, spec, payloads):\n"
            "    comm.exchange(spec, payloads)\n"
            "    yield from comm.barrier()\n"
        )
        (finding,) = analyze_source(src, select="W001")
        assert finding.line == 2
        assert "comm.exchange(...)" in finding.message

    def test_coroutine_universe_matches_comm_generators(self):
        """W001 knows every public communicator method that returns a
        generator, and nothing else."""
        generators = {
            name
            for cls in (Comm, GroupComm)
            for name, method in inspect.getmembers(cls, inspect.isfunction)
            if not name.startswith("_")
            and str(inspect.signature(method).return_annotation) == "Generator"
        }
        assert COMM_COROUTINES == generators


class TestW002Details:
    def test_names_the_leaked_handle(self):
        (finding,) = analyze_file(fixture_path("W002"), select="W002")
        assert "'h'" in finding.message

    def test_unbound_handle_flagged(self):
        src = (
            "def prog(comm):\n"
            "    yield from comm.isend(1, 0, tag=0)\n"
            "    msg = yield from comm.recv(source=0, tag=0)\n"
            "    return msg\n"
        )
        findings = analyze_source(src, select="W002")
        assert [f.rule for f in findings] == ["W002"]
        assert "unbound handle" in findings[0].message


class TestW004Details:
    """W004 is an alias of W009: the verdicts are proved deadlocks."""

    def test_one_finding_per_block_not_per_pair(self):
        """Two symmetric sends before two recvs is one deadlock, not
        four pairings."""
        src = (
            "def prog(comm, a, b):\n"
            "    other = 1 - comm.rank\n"
            "    yield from comm.send(a, other, tag=0)\n"
            "    yield from comm.send(b, other, tag=1)\n"
            "    ma = yield from comm.recv(source=other, tag=0)\n"
            "    mb = yield from comm.recv(source=other, tag=1)\n"
            "    return ma, mb\n"
        )
        findings = analyze_source(src, select="W004", n_ranks=2)
        assert [(f.rule, f.line) for f in findings] == [("W009", 3)]

    def test_constant_dest_not_symmetric(self):
        """A send to a fixed rank is not the symmetric pattern, but rank
        0 rendezvous-sends to itself before receiving: a real ``0 -> 0``
        deadlock that the replay proves and the engine reproduces."""
        src = (
            "def prog(comm, x):\n"
            "    yield from comm.send(x, 0, tag=0)\n"
            "    msg = yield from comm.recv(source=0, tag=0)\n"
            "    return msg\n"
        )
        (finding,) = analyze_source(src, select="W004")
        assert (finding.rule, finding.line) == ("W009", 2)
        assert "wait-for cycle 0 -> 0" in finding.message
        namespace = {}
        exec(src, namespace)
        error = confirm_deadlock(namespace["prog"], b"x" * 64, n_ranks=2)
        assert error is not None and error.cycle == [0, 0]


class TestW005Details:
    """W005 is an alias of W007: tags are matched per instantiated rank."""

    def test_computed_tag_disables_the_rule(self):
        """Loop-carried tags (cannon's 2*step) are checked too: the
        interpreter unrolls the loop and matches each tag."""
        src = (
            "def prog(comm, x):\n"
            "    for step in range(4):\n"
            "        yield from comm.send(x, 0, tag=2 * step)\n"
            "    msg = yield from comm.recv(source=1, tag=9)\n"
            "    return msg\n"
        )
        findings = analyze_source(src, select="W005", n_ranks=2)
        assert {f.rule for f in findings} == {"W007"}
        assert {f.line for f in findings} == {3, 4}
        assert any("(tag=6)" in f.message for f in findings)

    def test_one_sided_fragment_not_flagged(self):
        """A send-only program strands its message on every rank: with
        the whole world instantiated there is no caller left to pair
        with, so each rank's send is reported."""
        src = (
            "def prog(comm, x):\n"
            "    yield from comm.send(x, 0, tag=42)\n"
        )
        findings = analyze_source(src, select="W005", n_ranks=2)
        assert [(f.rule, f.line) for f in findings] == [("W007", 2)] * 2
        assert all("never received" in f.message for f in findings)


class TestW006Details:
    def test_finding_points_at_rival_line(self):
        (finding,) = analyze_file(fixture_path("W006"), select="W006")
        assert "line 9" in finding.message  # the source-specific rival


class TestRegistry:
    def test_all_ten_rules_registered(self):
        """Seven rules plus three aliases cover the ten codes."""
        assert sorted(RULES) == [
            "W001", "W002", "W006", "W007", "W008", "W009", "W010",
        ]
        assert ALIASES == {"W003": "W008", "W004": "W009", "W005": "W007"}
        assert CODES == [f"W{n:03d}" for n in range(1, 11)]

    def test_symbolic_flag_partitions_the_rules(self):
        """The flag says which pass a rule reads; every alias targets a
        symbolic rule."""
        assert {code for code, rule in RULES.items() if rule.cross_rank} == {
            "W007", "W008", "W009", "W010"
        }
        assert all(RULES[target].cross_rank for target in ALIASES.values())

    def test_registry_metadata_complete(self):
        for code, rule in RULES.items():
            assert rule.code == code
            assert rule.severity in ("error", "warning")
            assert rule.name and rule.summary
