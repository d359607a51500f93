"""The symbolic interpreter and the cross-rank rules W007-W010.

The acceptance bar for the whole-program pass:

* each of W007-W010 fires on its buggy fixture and stays silent on the
  clean programs in the same file;
* W009's static verdict agrees with the dynamic
  :func:`~repro.analyze.dynamic.confirm_deadlock` replay on *every*
  program in the W009 fixture -- the symbolic executor may only
  under-approximate blocking, never invent it.
"""

import importlib.util
import os

import pytest

from repro.analyze import AnalysisError, analyze_file, analyze_source
from repro.analyze.dynamic import confirm_deadlock
from repro.analyze.registry import validate_codes
from repro.analyze.schedule import (
    Branch,
    CollOp,
    ExchangeOp,
    Loop,
    instantiate,
)
from repro.analyze.symbolic import RankExpr, interpret_program

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fixture(name):
    return os.path.join(FIXTURES, name)


def load_fixture_module(name):
    spec = importlib.util.spec_from_file_location(name[:-3], fixture(name))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def symbolic_findings(name, code, n_ranks=8):
    return analyze_file(fixture(name), select=code, n_ranks=n_ranks)


# ---------------------------------------------------------------------------
# the interpreter itself
# ---------------------------------------------------------------------------

class TestInterpretation:
    def test_rank_expressions_evaluate_per_rank(self):
        program = interpret_program(
            "def ring(comm):\n"
            "    right = (comm.rank + 1) % comm.size\n"
            "    yield from comm.send(None, right, tag=0)\n",
            n_ranks=4,
        )
        assert program.failure is None
        send = program.ops[0]
        assert [send.dest.at(r) for r in range(4)] == [1, 2, 3, 0]
        assert send.dest.affine == (1, 1, 4)

    def test_concrete_loops_unroll(self):
        program = interpret_program(
            "def p(comm):\n"
            "    for i in range(3):\n"
            "        yield from comm.send(None, 0, tag=i)\n",
            n_ranks=2,
        )
        assert [op.tag for op in program.ops] == [0, 1, 2]

    def test_opaque_uniform_loop_survives_as_loop_node(self):
        program = interpret_program(
            "def p(comm, steps):\n"
            "    for _ in range(steps):\n"
            "        yield from comm.barrier()\n",
            n_ranks=2,
        )
        (loop,) = program.ops
        assert isinstance(loop, Loop)
        assert loop.count is None and loop.uniform

    def test_rank_dependent_trip_count_stays_evaluable(self):
        program = interpret_program(
            "def p(comm):\n"
            "    for _ in range(comm.rank):\n"
            "        yield from comm.barrier()\n",
            n_ranks=4,
        )
        (loop,) = program.ops
        assert isinstance(loop, Loop) and not loop.uniform
        assert isinstance(loop.count, RankExpr)
        assert [len(instantiate(program, r)) for r in range(4)] == [0, 1, 2, 3]

    def test_bare_comm_call_emits_no_op(self):
        # Dropped coroutines are W001's domain; the schedule must not
        # pretend the operation happens.
        program = interpret_program(
            "def p(comm):\n"
            "    comm.barrier()\n"
            "    yield from comm.allreduce(1.0)\n",
            n_ranks=2,
        )
        assert [op.kind for op in program.ops] == ["allreduce"]

    def test_early_return_routes_continuation_to_other_ranks(self):
        # `if rank == 0: ...; return` then root-only code: the trailing
        # send belongs to ranks != 0 only (the false arm).
        program = interpret_program(
            "def p(comm):\n"
            "    if comm.rank == 0:\n"
            "        msg = yield from comm.recv(source=1, tag=0)\n"
            "        return msg\n"
            "    yield from comm.send(comm.rank, 0, tag=0)\n",
            n_ranks=2,
        )
        assert program.failure is None and not program.has_guarded_ops
        (branch,) = program.ops
        assert isinstance(branch, Branch)
        assert [type(op).__name__ for op in branch.body] == ["RecvOp"]
        assert [type(op).__name__ for op in branch.orelse] == ["SendOp"]
        # Rank 0 must NOT see the send (the old mis-model sent to self).
        assert [type(op).__name__ for op in instantiate(program, 0)] == ["CRecv"]
        assert [type(op).__name__ for op in instantiate(program, 1)] == ["CSend"]

    def test_early_return_in_nested_suite_raises_hazard(self):
        program = interpret_program(
            "def p(comm, steps):\n"
            "    for _ in range(steps):\n"
            "        if comm.rank == 0:\n"
            "            return\n"
            "        yield from comm.barrier()\n",
            n_ranks=2,
        )
        assert program.has_guarded_ops

    def test_ocean_program_interprets_with_uniform_exchanges(self):
        from repro.apps.ocean import ocean_program

        program = interpret_program(ocean_program, n_ranks=4)
        assert program.failure is None
        assert not program.has_p2p and not program.has_guarded_ops

        exchanges = []

        def collect(ops):
            for op in ops:
                if isinstance(op, ExchangeOp):
                    exchanges.append(op)
                elif isinstance(op, Branch):
                    collect(op.body)
                    collect(op.orelse)
                elif isinstance(op, Loop):
                    collect(op.body)

        collect(program.ops)
        assert len(exchanges) == 2
        assert all(op.uniform for op in exchanges)

    def test_summa_program_interprets_with_group_bcasts(self):
        from repro.linalg.summa import summa_program

        program = interpret_program(
            summa_program, n_ranks=4, assume={"overlap": False}
        )
        assert program.failure is None

        colls = []

        def collect(ops):
            for op in ops:
                if isinstance(op, CollOp):
                    colls.append(op)
                elif isinstance(op, Branch):
                    collect(op.body)
                    collect(op.orelse)
                elif isinstance(op, Loop):
                    collect(op.body)

        collect(program.ops)
        assert {op.kind for op in colls} == {"bcast"}
        assert {op.algorithm for op in colls} == {"tree"}
        assert all(not op.world for op in colls)


# ---------------------------------------------------------------------------
# W007 -- cross-rank point-to-point matching
# ---------------------------------------------------------------------------

class TestW007:
    def test_bad_fixture_fires(self):
        findings = symbolic_findings("w007.py", "W007")
        assert findings, "unmatched traffic must be reported"
        assert all(f.rule == "W007" for f in findings)
        assert all("bad_tag_skewed_ring" in f.message for f in findings)

    def test_clean_program_is_silent(self):
        findings = symbolic_findings("w007.py", "W007")
        assert not any("good_" in f.message for f in findings)

    def test_out_of_world_peer_is_reported(self):
        findings = analyze_source(
            "def p(comm):\n"
            "    yield from comm.send(None, comm.size, tag=0)\n"
            "    msg = yield from comm.recv(source=0, tag=0)\n",
            select="W007", n_ranks=4,
        )
        assert any("outside" in f.message for f in findings)


# ---------------------------------------------------------------------------
# W008 -- collective sequence divergence
# ---------------------------------------------------------------------------

class TestW008:
    def test_rank_trip_count_fires(self):
        findings = symbolic_findings("w008.py", "W008")
        assert any("bad_rank_trip_count" in f.message for f in findings)

    def test_algorithm_split_fires(self):
        findings = symbolic_findings("w008.py", "W008")
        assert any("bad_algorithm_split" in f.message for f in findings)

    def test_uniform_sequence_is_silent(self):
        findings = symbolic_findings("w008.py", "W008")
        assert not any("good_" in f.message for f in findings)


# ---------------------------------------------------------------------------
# W009 -- proved deadlocks, cross-checked against the dynamic replay
# ---------------------------------------------------------------------------

class TestW009:
    def test_bad_fixture_fires_and_names_the_cycle(self):
        findings = symbolic_findings("w009.py", "W009")
        assert len(findings) == 1
        assert "bad_parity_both_send_first" in findings[0].message
        assert "wait-for cycle" in findings[0].message

    def test_clean_programs_are_silent(self):
        findings = symbolic_findings("w009.py", "W009")
        assert not any("good_" in f.message for f in findings)

    def test_w004_cannot_see_it_but_w009_can(self):
        # The buggy program hides the symmetric sends inside a parity
        # conditional, which a syntactic symmetric-send check skips;
        # W004 is W009's alias, so selecting it runs the replay.
        assert symbolic_findings("w009.py", "W009") != []
        assert symbolic_findings("w009.py", "W004") == symbolic_findings(
            "w009.py", "W009"
        )

    def test_static_verdicts_agree_with_dynamic_replay(self):
        """Every program in the fixture: W009 fires iff the dynamic
        rendezvous replay actually deadlocks at n=2."""
        module = load_fixture_module("w009.py")
        findings = symbolic_findings("w009.py", "W009", n_ranks=2)
        flagged = {
            name for name in dir(module)
            if any(f"[in {name}()]" in f.message for f in findings)
        }
        programs = [
            name for name in dir(module)
            if name.startswith(("bad_", "good_"))
        ]
        assert programs, "fixture must define programs"
        for name in programs:
            error = confirm_deadlock(getattr(module, name), 1.0, n_ranks=2)
            if name in flagged:
                assert error is not None, (
                    f"{name}: W009 claims deadlock, replay disagrees"
                )
            else:
                assert error is None, (
                    f"{name}: replay deadlocks, W009 missed it"
                )


# ---------------------------------------------------------------------------
# W010 -- mirror pairing
# ---------------------------------------------------------------------------

class TestW010:
    def test_bad_fixture_fires(self):
        findings = symbolic_findings("w010.py", "W010")
        assert len(findings) == 1
        assert "bad_one_sided_shift" in findings[0].message
        assert "mirror" in findings[0].message

    def test_clean_programs_are_silent(self):
        findings = symbolic_findings("w010.py", "W010")
        assert not any("good_" in f.message for f in findings)

    def test_w007_overlap_is_expected_on_the_bad_program(self):
        # The wrong-direction shift also strands traffic; both rules
        # describe the same bug from different angles.
        assert symbolic_findings("w010.py", "W007") != []


# ---------------------------------------------------------------------------
# suppression and selection plumbing for the new codes
# ---------------------------------------------------------------------------

class TestSuppressionAndSelection:
    DEADLOCK_SRC = (
        "def p(comm, payload):\n"
        "    other = comm.rank ^ 1\n"
        "    yield from comm.send(payload, other, tag=0)\n"
        "    msg = yield from comm.recv(source=other, tag=0)\n"
        "    return msg\n"
    )

    def test_symbolic_findings_report_rule_and_column(self):
        findings = analyze_source(self.DEADLOCK_SRC, select="W009", n_ranks=2)
        assert [f.rule for f in findings] == ["W009"]
        assert findings[0].line == 3

    def test_multi_code_disable_comment(self):
        src = self.DEADLOCK_SRC.replace(
            "yield from comm.send(payload, other, tag=0)",
            "yield from comm.send(payload, other, tag=0)"
            "  # repro: disable=W004,W009",
        )
        findings = analyze_source(src, n_ranks=2)
        assert not any(f.rule in ("W004", "W009") for f in findings)

    def test_single_code_of_pair_still_fires(self):
        """W004 is W009's alias, so disabling either code silences the
        proved deadlock."""
        src = self.DEADLOCK_SRC.replace(
            "yield from comm.send(payload, other, tag=0)",
            "yield from comm.send(payload, other, tag=0)"
            "  # repro: disable=W004",
        )
        assert analyze_source(self.DEADLOCK_SRC, select="W009", n_ranks=2)
        findings = analyze_source(src, n_ranks=2)
        assert not any(f.rule in ("W004", "W009") for f in findings)

    def test_validate_codes_accepts_known(self):
        assert validate_codes(["W001", "W009"]) == {"W001", "W009"}

    def test_validate_codes_rejects_unknown(self):
        with pytest.raises(AnalysisError, match=r"W999"):
            validate_codes(["W001", "W999"])

    def test_validate_codes_lists_available(self):
        with pytest.raises(AnalysisError, match="available"):
            validate_codes(["nope"])

    def test_symbolic_rules_silent_without_symbolic_flag(self):
        """The cross-rank rules run on every call."""
        findings = analyze_source(self.DEADLOCK_SRC)
        assert [f.rule for f in findings] == ["W009"]
