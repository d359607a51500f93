"""The communication-correctness rules.

W001, W002 and W006 are per-program AST rules: each is a function from
a :class:`~repro.analyze.visitor.ProgramModel` to a list of
:class:`~repro.analyze.findings.Finding`, registered through
:func:`~repro.analyze.registry.rule`.

W007-W010 are *symbolic* rules: they run over the cross-rank schedule
built by :mod:`repro.analyze.symbolic` and instantiated/matched by
:mod:`repro.analyze.schedule`, so they see whole-program facts -- which
rank's send pairs with which rank's receive -- that no single-rank AST
walk can.  The retired codes W003-W005 are aliases of W008, W009 and
W007 (:data:`~repro.analyze.registry.ALIASES`).

Every rule runs on every lint.  The shipped trees (``examples`` and
``src/repro``) lint clean in CI, and the deliberately-buggy fixtures
under ``tests/analyze/fixtures`` document exactly what each rule does
and does not flag.
"""

from __future__ import annotations

from typing import List, Set

import ast

from repro.analyze import schedule as _schedule
from repro.analyze.findings import Finding
from repro.analyze.registry import RULES, rule
from repro.analyze.schedule import SymbolicProgram
from repro.analyze.visitor import CommCall, ProgramModel, constant_int, is_wildcard


def _finding(
    code: str, model: ProgramModel, line: int, message: str, col: int = 0
) -> Finding:
    return Finding(
        rule=code,
        severity=RULES[code].severity,
        file=model.filename,
        line=line,
        message=f"{message} [in {model.name}()]",
        col=col,
    )


# ---------------------------------------------------------------------------
# W001 -- dropped coroutine
# ---------------------------------------------------------------------------

@rule(
    "W001",
    name="dropped-coroutine",
    severity="error",
    summary="comm coroutine called without 'yield from': the operation never executes",
)
def check_dropped_coroutine(model: ProgramModel) -> List[Finding]:
    findings = []
    for call in model.calls:
        if call.yielded:
            continue
        findings.append(
            _finding(
                "W001",
                model,
                call.line,
                f"{call.comm_name}.{call.method}(...) called without 'yield from': "
                "rank programs are generators, so the bare call builds a coroutine "
                "and silently discards it -- the operation never executes",
                col=call.col,
            )
        )
    return findings


# ---------------------------------------------------------------------------
# W002 -- leaked nonblocking handle
# ---------------------------------------------------------------------------

def _waited_names(model: ProgramModel) -> Set[str]:
    """Names that reach a wait/waitall/waitany argument."""
    waited: Set[str] = set()
    for call in model.calls:
        if call.method in ("wait", "waitall", "waitany"):
            for expr in call.args.values():
                waited |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return waited


@rule(
    "W002",
    name="leaked-handle",
    severity="warning",
    summary="isend/irecv handle never passed to wait/waitall/waitany",
)
def check_leaked_handle(model: ProgramModel) -> List[Finding]:
    waited = _waited_names(model)
    consumed = set(waited) | model.returned_names
    findings = []
    for call in model.calls:
        if call.method not in ("isend", "irecv") or not call.yielded:
            continue
        names = set(call.targets)
        if call.appended_to:
            names.add(call.appended_to)
        # A handle is consumed when it -- or any container it flows
        # into (handles.append(h); waitall(handles)) -- is waited on
        # or returned to the caller.
        reachable = set(names)
        for name in names:
            reachable |= model.flows_into(name)
        if names and reachable & consumed:
            continue
        what = "handle" if names else "unbound handle"
        bound = f" '{', '.join(sorted(names))}'" if names else ""
        findings.append(
            _finding(
                "W002",
                model,
                call.line,
                f"{call.method} {what}{bound} is never passed to "
                "wait/waitall/waitany: the request is leaked, so its "
                "completion (and, for rendezvous isends, the transfer "
                "itself) is never synchronised",
                col=call.col,
            )
        )
    return findings


# ---------------------------------------------------------------------------
# W006 -- wildcard-source race
# ---------------------------------------------------------------------------

@rule(
    "W006",
    name="wildcard-race",
    severity="warning",
    summary="recv(ANY_SOURCE) races a source-specific recv in the same program",
)
def check_wildcard_race(model: ProgramModel) -> List[Finding]:
    receives = [c for c in model.calls if c.method in ("recv", "irecv")]
    wildcards = [c for c in receives if is_wildcard(c.args.get("source"), ("ANY_SOURCE",))]
    specifics = [c for c in receives if not is_wildcard(c.args.get("source"), ("ANY_SOURCE",))]
    if not wildcards or not specifics:
        return []

    def tags_overlap(a: CommCall, b: CommCall) -> bool:
        tag_a = a.args.get("tag")
        tag_b = b.args.get("tag")
        if is_wildcard(tag_a, ("ANY_TAG",)) or is_wildcard(tag_b, ("ANY_TAG",)):
            return True
        const_a, const_b = constant_int(tag_a), constant_int(tag_b)
        if const_a is None or const_b is None:
            return True  # computed tags: assume they can collide
        return const_a == const_b

    findings = []
    for wildcard in wildcards:
        rivals = [s for s in specifics if tags_overlap(wildcard, s)]
        if not rivals:
            continue
        lines = ", ".join(str(s.line) for s in rivals)
        findings.append(
            _finding(
                "W006",
                model,
                wildcard.line,
                "recv(ANY_SOURCE) can steal the message a source-specific "
                f"recv (line {lines}) is waiting for: which receive matches "
                "depends on arrival order, so results are timing-dependent. "
                "Disambiguate with tags or name the source",
                col=wildcard.col,
            )
        )
    return findings


# ---------------------------------------------------------------------------
# W007-W010 -- symbolic cross-rank rules
# ---------------------------------------------------------------------------

def _sym_finding(code: str, program: SymbolicProgram, line: int, message: str) -> Finding:
    return Finding(
        rule=code,
        severity=RULES[code].severity,
        file=program.filename,
        line=line,
        message=f"{message} [in {program.name}()]",
    )


@rule(
    "W007",
    name="unmatched-send",
    severity="error",
    summary="cross-rank matching finds a send no receive accepts (or vice versa)",
    cross_rank=True,
)
def check_unmatched_send(program: SymbolicProgram) -> List[Finding]:
    return [
        _sym_finding("W007", program, line, message)
        for line, message in _schedule.match_point_to_point(program)
    ]


@rule(
    "W008",
    name="collective-divergence",
    severity="error",
    summary="ranks provably issue different world-collective sequences",
    cross_rank=True,
)
def check_collective_divergence(program: SymbolicProgram) -> List[Finding]:
    return [
        _sym_finding("W008", program, line, message)
        for line, message in _schedule.collective_divergence(program)
    ]


@rule(
    "W009",
    name="proved-deadlock",
    severity="warning",
    summary="symbolic rendezvous replay proves a wait-for cycle (deadlock)",
    cross_rank=True,
)
def check_proved_deadlock(program: SymbolicProgram) -> List[Finding]:
    return [
        _sym_finding("W009", program, line, message)
        for line, message in _schedule.prove_deadlock(program)
    ]


@rule(
    "W010",
    name="mirror-pairing",
    severity="error",
    summary="neighbor exchange receive offsets are not the negated send offsets",
    cross_rank=True,
)
def check_mirror_pairing(program: SymbolicProgram) -> List[Finding]:
    return [
        _sym_finding("W010", program, line, message)
        for line, message in _schedule.mirror_pairing(program)
    ]
