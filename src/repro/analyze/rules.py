"""The communication-correctness rules.

Every rule is a function from the
:class:`~repro.analyze.schedule.SymbolicProgram` that
:mod:`repro.analyze.symbolic` builds for one rank program to a list of
:class:`~repro.analyze.findings.Finding`, registered through
:func:`~repro.analyze.registry.rule`.

W001, W002 and W006 read the facts the interpreter records at each call
site (coroutines never driven, where each request handle went, the
receives it emitted).  W007-W010 run over the cross-rank schedule,
instantiated and matched by :mod:`repro.analyze.schedule`, so they see
whole-program facts -- which rank's send pairs with which rank's
receive -- that no single-rank view can.  W011 reports a program the
interpreter could not evaluate, which the other rules checked only in
part.  The retired codes W003-W005 are aliases of W008, W009 and W007
(:data:`~repro.analyze.registry.ALIASES`).

Every rule runs on every lint.  The shipped trees (``examples`` and
``src/repro``) lint clean in CI, and the deliberately-buggy fixtures
under ``tests/analyze/fixtures`` document exactly what each rule does
and does not flag.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Set, Tuple

from repro.analyze import schedule as _schedule
from repro.analyze.findings import Finding
from repro.analyze.registry import RULES, rule
from repro.analyze.schedule import Branch, Loop, RecvOp, SymbolicProgram


def _finding(
    code: str, program: SymbolicProgram, line: int, message: str, col: int = 0
) -> Finding:
    return Finding(
        rule=code,
        severity=RULES[code].severity,
        file=program.filename,
        line=line,
        message=f"{message} [in {program.name}()]",
        col=col,
    )


@rule(
    "W001",
    name="dropped-coroutine",
    severity="error",
    summary="comm coroutine called without 'yield from': the operation never executes",
)
def check_dropped_coroutine(program: SymbolicProgram) -> List[Finding]:
    return [
        _finding(
            "W001",
            program,
            line,
            "{}.{}(...) called without 'yield from': rank programs are "
            "generators, so the bare call builds a coroutine and silently "
            "discards it -- the operation never executes".format(
                *program.sites[line, col]
            ),
            col=col,
        )
        for line, col in sorted(program.dropped)
    ]


@rule(
    "W002",
    name="leaked-handle",
    severity="warning",
    summary="isend/irecv handle never passed to wait/waitall/waitany",
)
def check_leaked_handle(program: SymbolicProgram) -> List[Finding]:
    findings = []
    for handle in program.handles.values():
        if handle.consumed:
            continue
        what = "handle" if handle.names else "unbound handle"
        bound = f" '{', '.join(sorted(handle.names))}'" if handle.names else ""
        findings.append(
            _finding(
                "W002",
                program,
                handle.line,
                f"{handle.method} {what}{bound} is never passed to "
                "wait/waitall/waitany: the request is leaked, so its "
                "completion (and, for rendezvous isends, the transfer "
                "itself) is never synchronised",
                col=handle.col,
            )
        )
    return findings


def _receives(ops: List[Any]) -> Iterator[RecvOp]:
    for op in ops:
        if isinstance(op, RecvOp):
            yield op
        elif isinstance(op, Branch):
            yield from _receives(op.body)
            yield from _receives(op.orelse)
        elif isinstance(op, Loop):
            yield from _receives(op.body)


def _tags_overlap(a: Any, b: Any) -> bool:
    """Two receive tags can match one message: either is the wildcard,
    either is not a concrete int, or they are equal."""
    if not (isinstance(a, int) and isinstance(b, int)):
        return True
    return a == b or -1 in (a, b)


@rule(
    "W006",
    name="wildcard-race",
    severity="warning",
    summary="recv(ANY_SOURCE) races a source-specific recv in the same program",
)
def check_wildcard_race(program: SymbolicProgram) -> List[Finding]:
    # sendrecv's receive is internal to the call: it races nothing.
    receives = [
        op for op in _receives(program.ops + program.shadow_ops)
        if program.sites[op.line, op.col][1] != "sendrecv"
    ]
    rivals: Dict[Tuple[int, int], Set[int]] = {}
    for wildcard in receives:
        if wildcard.source != -1:
            continue
        site = (wildcard.line, wildcard.col)
        lines = rivals.setdefault(site, set())
        lines.update(
            op.line for op in receives
            if op.source != -1 and (op.line, op.col) != site
            and _tags_overlap(wildcard.tag, op.tag)
        )
    return [
        _finding(
            "W006",
            program,
            line,
            "recv(ANY_SOURCE) can steal the message a source-specific "
            f"recv (line {', '.join(map(str, sorted(lines)))}) is waiting "
            "for: which receive matches depends on arrival order, so "
            "results are timing-dependent. Disambiguate with tags or name "
            "the source",
            col=col,
        )
        for (line, col), lines in rivals.items()
        if lines
    ]


@rule(
    "W007",
    name="unmatched-send",
    severity="error",
    summary="cross-rank matching finds a send no receive accepts (or vice versa)",
)
def check_unmatched_send(program: SymbolicProgram) -> List[Finding]:
    return [
        _finding("W007", program, line, message)
        for line, message in _schedule.match_point_to_point(program)
    ]


@rule(
    "W008",
    name="collective-divergence",
    severity="error",
    summary="ranks provably issue different world-collective sequences",
)
def check_collective_divergence(program: SymbolicProgram) -> List[Finding]:
    return [
        _finding("W008", program, line, message)
        for line, message in _schedule.collective_divergence(program)
    ]


@rule(
    "W009",
    name="proved-deadlock",
    severity="warning",
    summary="symbolic rendezvous replay proves a wait-for cycle (deadlock)",
)
def check_proved_deadlock(program: SymbolicProgram) -> List[Finding]:
    return [
        _finding("W009", program, line, message)
        for line, message in _schedule.prove_deadlock(program)
    ]


@rule(
    "W010",
    name="mirror-pairing",
    severity="error",
    summary="neighbor exchange receive offsets are not the negated send offsets",
)
def check_mirror_pairing(program: SymbolicProgram) -> List[Finding]:
    return [
        _finding("W010", program, line, message)
        for line, message in _schedule.mirror_pairing(program)
    ]


@rule(
    "W011",
    name="not-analysable",
    severity="warning",
    summary="the interpreter cannot evaluate the program, so no rule checked all of it",
)
def check_not_analysable(program: SymbolicProgram) -> List[Finding]:
    if program.failure is None:
        return []
    return [
        _finding(
            "W011",
            program,
            program.line,
            f"the interpreter cannot evaluate this program ({program.failure}), "
            "so the other rules checked only the code it reached first",
        )
    ]
