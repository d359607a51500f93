"""Static macro-eligibility certificates.

The engine's collective macro path (:mod:`repro.simmpi.macro`) guards
every invocation with a runtime probe: before committing the
closed-form schedule it scans each member for queued eager traffic,
posted receive slots, or parked rendezvous senders
(``engine._run_macro``), because any of those could interleave with the
collective's own messages.  For programs that do no point-to-point
communication at all and whose every collective evaluates in closed
form, the probe can never fire -- a fact the symbolic schedule
(:mod:`repro.analyze.symbolic`) proves once, offline.

:func:`certify_macro` performs that proof and emits a
:class:`MacroCertificate`: a source-hash-bound record that the engine
accepts (``Engine(certificate=...)``) to skip the per-member probe for
the whole run.  Certification requires, over the whole schedule tree:

* no point-to-point operations (send/isend/recv/irecv/sendrecv/wait)
  anywhere -- nothing can ever be queued or parked at a member;
* every collective is macro-eligible: its ``(kind, algorithm)`` pair
  evaluates in closed form (``allreduce(reduce_bcast)`` counts -- it
  composes two closed-form inner collectives);
* every ``comm.exchange`` passes a concrete
  :class:`~repro.simmpi.stencil.StencilSpec`;
* no communication op sits under a rank-dependent or opaque guard, and
  every loop enclosing communication has a rank-independent trip count
  (all ranks provably execute the same op sequence).

The certificate additionally records whether every exchange payload was
proved *uniform* (rank-independent shape), which lets
:mod:`repro.simmpi.stencil` skip its per-member size scan.

Certificates are advisory but verified: :meth:`MacroCertificate.matches`
binds to the SHA-256 of the program's source and the world size, so a
stale certificate (edited program, different rank count) is rejected at
``Engine.run`` time rather than silently trusted.
"""

from __future__ import annotations

import hashlib
import inspect
import textwrap
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.analyze.schedule import (
    Branch,
    CollOp,
    ExchangeOp,
    Loop,
    RecvOp,
    SendOp,
    SymbolicProgram,
    WaitOp,
)
from repro.util.errors import AnalysisError


class CertificationError(AnalysisError):
    """The program could not be proved macro-pure; the message names
    the first disqualifying construct."""


def _source_sha(source: str) -> str:
    return hashlib.sha256(textwrap.dedent(source).encode("utf-8")).hexdigest()


def program_sha(fn_or_source: Union[Callable, str]) -> str:
    """SHA-256 of a rank program's (dedented) source text."""
    if isinstance(fn_or_source, str):
        return _source_sha(fn_or_source)
    try:
        return _source_sha(inspect.getsource(fn_or_source))
    except (OSError, TypeError) as exc:
        raise AnalysisError(
            f"cannot retrieve source for {fn_or_source!r}: {exc}"
        ) from exc


@dataclass(frozen=True)
class MacroCertificate:
    """Proof record: the named program, run at ``n_ranks`` ranks, never
    needs the macro probe's per-member soundness scan."""

    #: Rank-program function name the proof was computed for.
    program: str
    #: SHA-256 of the program's dedented source at certification time.
    source_sha256: str
    #: World size the schedule was instantiated at.
    n_ranks: int
    #: ``(line, kind, algorithm)`` per certified collective call site.
    collectives: Tuple[Tuple[int, str, Optional[str]], ...] = ()
    #: ``(line, uniform)`` per certified exchange call site.
    exchanges: Tuple[Tuple[int, bool], ...] = ()
    #: Every exchange payload proved rank-independent in shape.
    uniform_exchange: bool = False
    #: Parameter values assumed during interpretation, as sorted
    #: ``(name, repr)`` pairs -- the caller must honour them.
    assume: Tuple[Tuple[str, str], ...] = ()

    def matches(self, fn_or_source: Union[Callable, str], n_ranks: int) -> bool:
        """Whether this certificate covers the given program at the
        given world size (source unchanged since certification)."""
        if n_ranks != self.n_ranks:
            return False
        try:
            return program_sha(fn_or_source) == self.source_sha256
        except AnalysisError:
            return False

    def to_dict(self) -> Dict[str, Any]:
        return {
            "program": self.program,
            "source_sha256": self.source_sha256,
            "n_ranks": self.n_ranks,
            "collectives": [list(c) for c in self.collectives],
            "exchanges": [list(e) for e in self.exchanges],
            "uniform_exchange": self.uniform_exchange,
            "assume": [list(a) for a in self.assume],
        }


def _check_ops(
    ops: List[Any],
    collectives: List[Tuple[int, str, Optional[str]]],
    exchanges: List[Tuple[int, bool]],
) -> None:
    from repro.analyze.symbolic import MACRO_ELIGIBLE

    for op in ops:
        if isinstance(op, (SendOp, RecvOp, WaitOp)):
            raise CertificationError(
                f"line {op.line}: point-to-point operation; members could "
                "hold queued or parked traffic at a collective gather"
            )
        if isinstance(op, CollOp):
            if (op.kind, op.algorithm) not in MACRO_ELIGIBLE:
                raise CertificationError(
                    f"line {op.line}: {op.kind}"
                    f"(algorithm={op.algorithm!r}) has no closed-form "
                    "macro evaluator; its per-message traffic would reach "
                    "later collectives"
                )
            collectives.append((op.line, op.kind, op.algorithm))
        elif isinstance(op, ExchangeOp):
            if op.spec is None:
                raise CertificationError(
                    f"line {op.line}: exchange spec is not a concrete "
                    "StencilSpec"
                )
            exchanges.append((op.line, op.uniform))
        elif isinstance(op, Branch):
            if op.test is not None or not op.uniform:
                raise CertificationError(
                    f"line {op.line}: communication under a rank-dependent "
                    "or opaque branch; ranks may disagree on the op sequence"
                )
            _check_ops(op.body, collectives, exchanges)
            _check_ops(op.orelse, collectives, exchanges)
        elif isinstance(op, Loop):
            if not op.uniform:
                raise CertificationError(
                    f"line {op.line}: communication inside a loop with a "
                    "rank-dependent trip count"
                )
            _check_ops(op.body, collectives, exchanges)


def certify_program(program: SymbolicProgram, source_sha: str,
                    assume: Optional[Dict[str, Any]] = None) -> MacroCertificate:
    """Build a certificate from an already-interpreted schedule."""
    if program.failure is not None:
        raise CertificationError(
            f"symbolic interpretation failed: {program.failure}"
        )
    if program.has_p2p:
        raise CertificationError(
            "program performs point-to-point communication; members could "
            "hold queued or parked traffic at a collective gather"
        )
    if program.has_guarded_ops:
        raise CertificationError(
            "communication under a rank-dependent or opaque guard; ranks "
            "may disagree on the op sequence"
        )
    collectives: List[Tuple[int, str, Optional[str]]] = []
    exchanges: List[Tuple[int, bool]] = []
    _check_ops(program.ops, collectives, exchanges)
    if not collectives and not exchanges:
        raise CertificationError(
            "program performs no certifiable communication; a certificate "
            "would be vacuous"
        )
    return MacroCertificate(
        program=program.name,
        source_sha256=source_sha,
        n_ranks=program.n_ranks,
        collectives=tuple(collectives),
        exchanges=tuple(exchanges),
        uniform_exchange=bool(exchanges) and all(u for _, u in exchanges),
        assume=tuple(sorted((k, repr(v)) for k, v in (assume or {}).items())),
    )


def certify_macro(
    fn_or_source: Union[Callable, str],
    n_ranks: int,
    *,
    assume: Optional[Dict[str, Any]] = None,
) -> MacroCertificate:
    """Prove a rank program macro-pure at ``n_ranks`` ranks.

    Returns the :class:`MacroCertificate`; raises
    :class:`CertificationError` naming the first disqualifying construct
    otherwise.  ``assume`` pins parameter values the proof may rely on
    (e.g. ``{"overlap": False}`` for SUMMA, which concretizes the
    broadcast algorithm to the closed-form ``"tree"``).
    """
    from repro.analyze.symbolic import interpret_program

    program = interpret_program(fn_or_source, n_ranks, assume=assume)
    return certify_program(program, program_sha(fn_or_source), assume=assume)


# ---------------------------------------------------------------------------
# bundled certificates
# ---------------------------------------------------------------------------

def bundled_certificate(
    name: str, n_ranks: int, *, overlap: bool = False
) -> MacroCertificate:
    """Certificate for a bundled application program (``"ocean"`` or
    ``"summa"``), computed on demand at the requested world size.

    ``overlap`` (SUMMA only) certifies the pipelined variant: the panel
    broadcasts concretize to ``"tree_nb"``, which the macro layer prices
    in closed form in the all-eager regime and bails from otherwise.
    """
    if name == "ocean":
        if overlap:
            raise AnalysisError("'ocean' has no overlap variant to certify")
        from repro.apps.ocean import ocean_program

        return certify_macro(ocean_program, n_ranks)
    if name == "summa":
        from repro.linalg.summa import summa_program

        return certify_macro(summa_program, n_ranks, assume={"overlap": overlap})
    raise AnalysisError(
        f"no bundled certificate for {name!r}; available: ['ocean', 'summa']"
    )
