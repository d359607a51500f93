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
from repro.analyze.symbolic import COMM_COROUTINES
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

    @pytest.mark.parametrize(
        "line, call",
        [
            ("    hs = [comm.isend(x, d) for d in range(comm.size)]\n", "comm.isend"),
            ("    comm.send(*x)\n", "comm.send"),
            ("    comm.group([0, 1]).bcast(x)\n", "comm.bcast"),
            ("    def helper():\n        comm.barrier()\n", "comm.barrier"),
            ("    if comm.size > 8:\n        comm.barrier()\n", "comm.barrier"),
            (
                "    try:\n        yield from comm.barrier()\n"
                "    except RuntimeError:\n        comm.send(None, 0)\n",
                "comm.send",
            ),
            ("    for _ in range(0):\n        comm.barrier()\n", "comm.barrier"),
            ("    while False:\n        comm.barrier()\n", "comm.barrier"),
            (
                "    if comm.size == 8:\n        return\n    comm.barrier()\n",
                "comm.barrier",
            ),
        ],
    )
    def test_dropped_call_found_wherever_written(self, line, call):
        """A comprehension, starred arguments, a chained sub-communicator
        and a closure over ``comm`` all still drop the coroutine, and so
        does code the schedule never takes at this world size: an arm
        behind a ``comm.size`` test, an ``except`` handler, a loop that
        runs zero times, statements after a ``return``."""
        src = "def prog(comm, x):\n" + line + "    yield from comm.barrier()\n"
        (finding,) = analyze_source(src, select="W001")
        assert finding.line == len(line.splitlines()) + 1
        assert f"{call}(...)" in finding.message

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

    @pytest.mark.parametrize("count", ["comm.size", "steps"])
    @pytest.mark.parametrize("waited", [True, False])
    def test_handle_routed_through_pairs_list(self, count, waited):
        """The nonblocking alltoall's pattern: ``(src, h)`` pairs go into
        a list and a later loop waits on each ``h``.  The trip count is
        unrolled (``comm.size``) or opaque (``steps``)."""
        src = (
            "def prog(comm, steps):\n"
            "    pending = []\n"
            f"    for src in range({count}):\n"
            "        h = yield from comm.irecv(source=src, tag=0)\n"
            "        pending.append((src, h))\n"
            "    for src, h in pending:\n"
            + ("        yield from comm.wait(h)\n" if waited else "        pass\n")
        )
        findings = analyze_source(src, select="W002")
        assert [f.line for f in findings] == ([] if waited else [4])

    def test_handle_appended_through_an_alias(self):
        """Appending through one name fills the list every alias sees."""
        src = (
            "def prog(comm):\n"
            "    pending = []\n"
            "    alias = pending\n"
            "    h = yield from comm.isend(1, 0)\n"
            "    alias.append(h)\n"
            "    for r in pending:\n"
            "        yield from comm.wait(r)\n"
        )
        assert analyze_source(src, select="W002") == []


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

    @pytest.mark.parametrize(
        "first, lines",
        [
            ("    first = yield from comm.sendrecv(x, right)\n", []),
            ("    first = yield from comm.recv()\n", [4]),
            ("    def first():\n        return (yield from comm.recv())\n", [5]),
            ("    if comm.size > 8:\n        first = yield from comm.recv()\n", [5]),
        ],
    )
    def test_which_wildcard_receives_race(self, first, lines):
        """sendrecv's receive is internal to the call, even with its
        source left as the wildcard; a bare ``recv()`` races the tagged
        receive, also from a closure over ``comm`` or an arm the schedule
        does not take at this world size."""
        src = (
            "def prog(comm, x):\n"
            "    right = (comm.rank + 1) % comm.size\n"
            "    left = (comm.rank - 1) % comm.size\n"
            + first
            + "    second = yield from comm.recv(source=left, tag=0)\n"
        )
        findings = analyze_source(src, select="W006")
        assert [f.line for f in findings] == lines


class TestW011Details:
    def test_unevaluable_helper_leaves_the_program_analysed(self):
        """A ``match`` in a helper closure or a walrus in a comprehension
        ends only that part's walk: the program keeps the cross-rank
        verdicts it has without them, and is not reported."""
        body = (
            "    yield from comm.send(None, (comm.rank + 1) % comm.size, tag=0)\n"
            "    yield from comm.recv(source=(comm.rank - 1) % comm.size, tag=1)\n"
        )
        helpers = (
            "    def helper(x):\n"
            "        match x:\n"
            "            case 1:\n"
            "                yield from comm.barrier()\n"
            "    ys = [(y := x) for x in xs]\n"
        )
        plain = analyze_source("def prog(comm, xs):\n" + body, n_ranks=4)
        shifted = analyze_source(
            "def prog(comm, xs):\n" + helpers + body, n_ranks=4
        )
        assert {f.rule for f in plain} == {"W007"}
        assert [(f.rule, f.line - 5, f.message) for f in shifted] == [
            (f.rule, f.line, f.message) for f in plain
        ]


class TestRegistry:
    def test_all_ten_rules_registered(self):
        """Eight rules plus three aliases cover the codes W001-W011
        (the name predates W011, the not-analysable report)."""
        assert sorted(RULES) == [
            "W001", "W002", "W006", "W007", "W008", "W009", "W010", "W011",
        ]
        assert ALIASES == {"W003": "W008", "W004": "W009", "W005": "W007"}
        assert CODES == [f"W{n:03d}" for n in range(1, 12)]

    def test_codes_are_unique_and_aliases_name_rules(self):
        """No code is both a rule and an alias, and every alias names a
        registered rule."""
        assert not set(RULES) & set(ALIASES)
        assert set(ALIASES.values()) <= set(RULES)

    def test_registry_metadata_complete(self):
        for code, rule in RULES.items():
            assert rule.code == code
            assert rule.severity in ("error", "warning")
            assert rule.name and rule.summary
