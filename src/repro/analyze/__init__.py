"""Static communication-correctness analysis for rank programs.

The ASTA software-tools thrust the paper describes funded exactly this
class of tooling: correctness checkers that let application teams trust
message-passing codes *before* burning machine time.  This package is
that tool for the repo's simulator: a linter that interprets
rank-program source and reports typed findings for eight rule classes --

====  ========================  ===========================================
code  name                      catches
====  ========================  ===========================================
W001  dropped-coroutine         ``comm.send(...)`` without ``yield from``
W002  leaked-handle             isend/irecv handle never waited on
W006  wildcard-race             ``recv(ANY_SOURCE)`` racing a tagged recv
W007  unmatched-send            cross-rank matching: a send no receive
                                accepts, or a receive no send satisfies
W008  collective-divergence     ranks provably issue different
                                world-collective sequences
W009  proved-deadlock           symbolic rendezvous replay proves a
                                wait-for cycle (no dynamic run needed)
W010  mirror-pairing            neighbor-exchange receive offsets are not
                                the negated send offsets
W011  not-analysable            the interpreter cannot evaluate the
                                program (a walrus, a ``match`` ...)
====  ========================  ===========================================

One front-end feeds every rule: the abstract interpreter in
:mod:`repro.analyze.symbolic` partially evaluates each program over a
symbolic rank, once.  W001, W002 and W006 read the facts it records at
each call site.  W007-W010 instantiate the resulting parameterized
schedule for every rank of an ``n_ranks``-rank world (default 8) and
cross-check the ranks against each other (:mod:`repro.analyze.schedule`).
Every rule runs on every call.  The retired codes W003, W004 and W005
are aliases of W008, W009 and W007
(:data:`~repro.analyze.registry.ALIASES`): they still work in
``select=`` and in disable comments, and findings carry the target code.

Programmatic use::

    from repro.analyze import analyze_program

    findings = analyze_program(my_rank_program)   # or a source string
    findings = analyze_program(my_rank_program, n_ranks=2)
    for f in findings:
        print(f.render())

Command line: ``python -m repro lint <path>...`` (exit 1 on findings).
Suppress a finding with ``# repro: disable=W009`` on the flagged line
(multiple codes separate with commas: ``# repro: disable=W001,W009``).
For hazards the static pass cannot prove, :func:`confirm_deadlock` runs
the program under forced rendezvous and returns the resulting
:class:`~repro.util.errors.DeadlockError` -- whose wait-for graph names
the deadlocked cycle -- or ``None``.
"""

from __future__ import annotations

import os
from typing import Callable, Iterable, List, Optional, Union

from repro.analyze.findings import SEVERITIES, Finding, sort_findings
from repro.analyze.registry import (
    CHECKS,
    RULES,
    Rule,
    filter_suppressed,
    resolve_select,
    suppressed_lines,
    validate_codes,
)
from repro.analyze.reporting import format_findings, format_findings_json, summarize
from repro.analyze.dynamic import confirm_deadlock
from repro.util.errors import AnalysisError

# Importing the rules module populates the registry.
from repro.analyze import rules as _rules  # noqa: F401

#: World size the symbolic pass instantiates schedules for.
DEFAULT_SYMBOLIC_RANKS = 8

__all__ = [
    "AnalysisError",
    "DEFAULT_SYMBOLIC_RANKS",
    "Finding",
    "Rule",
    "RULES",
    "SEVERITIES",
    "analyze_file",
    "analyze_paths",
    "analyze_program",
    "analyze_source",
    "confirm_deadlock",
    "format_findings",
    "format_findings_json",
    "sort_findings",
    "summarize",
    "validate_codes",
]


def analyze_source(
    source: str,
    filename: str = "<source>",
    *,
    select: Optional[object] = None,
    line_offset: int = 0,
    n_ranks: int = DEFAULT_SYMBOLIC_RANKS,
) -> List[Finding]:
    """Analyse a module or function body given as source text.

    The cross-rank rules instantiate each program at world size
    ``n_ranks``.
    """
    if n_ranks < 1:
        raise AnalysisError(f"world size must be at least 1 rank, got {n_ranks}")
    codes = resolve_select(select)
    # The interpreter pulls in the simulator's closed-form tables; import
    # it on first use so ``import repro.analyze`` stays light.
    from repro.analyze.symbolic import interpret_source

    programs = interpret_source(source, n_ranks, filename, line_offset=line_offset)
    findings = [
        finding
        for program in programs
        for code in RULES
        if code in codes
        for finding in CHECKS[code](program)
    ]
    # A loop repeats a finding word for word: report it once.
    findings = filter_suppressed(
        dict.fromkeys(findings), suppressed_lines(source, line_offset)
    )
    return sort_findings(findings)


def analyze_program(
    fn_or_source: Union[Callable, str],
    *,
    select: Optional[object] = None,
    n_ranks: int = DEFAULT_SYMBOLIC_RANKS,
) -> List[Finding]:
    """Analyse one rank program.

    Accepts either a function object (its source is retrieved with
    :mod:`inspect`; reported lines match the defining file) or a source
    string containing one or more program definitions.
    """
    if isinstance(fn_or_source, str):
        return analyze_source(fn_or_source, select=select, n_ranks=n_ranks)
    if not callable(fn_or_source):
        raise AnalysisError(
            f"analyze_program expects a function or source string, "
            f"got {type(fn_or_source).__name__}"
        )
    from repro.analyze.symbolic import program_source

    source, filename, first_line = program_source(fn_or_source)
    return analyze_source(
        source,
        filename=filename,
        select=select,
        line_offset=first_line - 1,
        n_ranks=n_ranks,
    )


def analyze_file(
    path: str,
    *,
    select: Optional[object] = None,
    n_ranks: int = DEFAULT_SYMBOLIC_RANKS,
) -> List[Finding]:
    """Analyse one Python file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
    except OSError as exc:
        raise AnalysisError(f"cannot read {path}: {exc}") from exc
    return analyze_source(
        source, filename=path, select=select, n_ranks=n_ranks
    )


def analyze_paths(
    paths: Iterable[str],
    *,
    select: Optional[object] = None,
    n_ranks: int = DEFAULT_SYMBOLIC_RANKS,
) -> List[Finding]:
    """Analyse files and directory trees (``.py`` files, recursively)."""
    files: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames.sort()
                for name in sorted(filenames):
                    if name.endswith(".py"):
                        files.append(os.path.join(dirpath, name))
        elif os.path.isfile(path):
            files.append(path)
        else:
            raise AnalysisError(f"no such file or directory: {path}")
    findings: List[Finding] = []
    for path in files:
        findings.extend(analyze_file(path, select=select, n_ranks=n_ranks))
    return sort_findings(findings)
