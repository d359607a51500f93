"""Rule registry and ``# repro: disable=...`` suppression handling.

Rules self-register through the :func:`rule` decorator, which records
their metadata (code, name, severity, one-line summary) in
:data:`RULES` and their check function in :data:`CHECKS`.  The linter
driver iterates the registry, so adding a rule is a single decorated
function in :mod:`repro.analyze.rules`.

:data:`ALIASES` keeps retired codes working: W003, W004 and W005 were
per-rank pattern matches for bugs the cross-rank rules W008, W009 and
W007 prove, so selecting or disabling an alias selects or disables its
target, and findings always carry the target code.

Suppressions are line-scoped comments on the flagged line::

    yield from comm.send(a, left, tag=0)  # repro: disable=W009
    comm.send(x, 1)                       # repro: disable=all

Multiple codes separate with commas: ``# repro: disable=W001,W009``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Set

from repro.analyze.findings import SEVERITIES, Finding
from repro.util.errors import AnalysisError


@dataclass(frozen=True)
class Rule:
    """Metadata for one registered lint rule."""

    code: str
    name: str
    severity: str
    summary: str
    #: Cross-rank rules check the schedule built by
    #: :mod:`repro.analyze.symbolic` instead of the per-program AST
    #: model.
    cross_rank: bool = False


#: code -> rule metadata, in registration order.
RULES: Dict[str, Rule] = {}
#: code -> check function, ``(model: ProgramModel) -> List[Finding]``
#: or, for cross-rank rules, ``(program: SymbolicProgram) -> List[Finding]``.
CHECKS: Dict[str, Callable] = {}
#: Retired code -> the rule that subsumes it.
ALIASES: Dict[str, str] = {"W003": "W008", "W004": "W009", "W005": "W007"}


def rule(
    code: str, name: str, severity: str, summary: str, cross_rank: bool = False
) -> Callable:
    """Class decorator-style registrar for rule check functions."""
    if severity not in SEVERITIES:
        raise AnalysisError(
            f"rule {code}: unknown severity {severity!r}; expected one of {SEVERITIES}"
        )

    def decorator(check: Callable) -> Callable:
        if code in RULES:
            raise AnalysisError(f"duplicate rule code {code}")
        RULES[code] = Rule(
            code=code, name=name, severity=severity, summary=summary,
            cross_rank=cross_rank,
        )
        CHECKS[code] = check
        return check

    return decorator


def validate_codes(codes: Iterable[str]) -> Set[str]:
    """Check every code is registered or an alias; returns the set of
    rule codes they select, raises :class:`AnalysisError` naming the
    unknown codes otherwise."""
    requested = {str(c) for c in codes}
    unknown = requested - set(RULES) - set(ALIASES)
    if unknown:
        raise AnalysisError(
            f"unknown rule code(s) {sorted(unknown)}; "
            f"available: {sorted([*RULES, *ALIASES])}"
        )
    return {ALIASES.get(c, c) for c in requested}


def resolve_select(select: object) -> Set[str]:
    """Normalise a rule selection (None, ``"W001,W009"``, or iterable)
    to a set of registered codes; raises on unknown codes."""
    if select is None:
        return set(RULES)
    if isinstance(select, str):
        codes = {c.strip() for c in select.split(",") if c.strip()}
    else:
        codes = {str(c) for c in select}
    return validate_codes(codes)


_DISABLE_RE = re.compile(r"#\s*repro:\s*disable=([A-Za-z0-9_,\s]+)")


def suppressed_lines(source: str, line_offset: int = 0) -> Dict[int, Set[str]]:
    """Map 1-based line numbers (plus ``line_offset``) to the set of
    rule codes disabled on that line (``{"all"}`` disables every rule)."""
    out: Dict[int, Set[str]] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = _DISABLE_RE.search(text)
        if match:
            codes = {c.strip() for c in match.group(1).split(",") if c.strip()}
            out[lineno + line_offset] = codes
    return out


def filter_suppressed(
    findings: Iterable[Finding], suppressions: Dict[int, Set[str]]
) -> List[Finding]:
    """Drop findings whose line carries a matching disable comment
    (an alias disables its target)."""
    kept = []
    for finding in findings:
        codes = suppressions.get(finding.line, ())
        if "all" in codes or finding.rule in {ALIASES.get(c, c) for c in codes}:
            continue
        kept.append(finding)
    return kept
