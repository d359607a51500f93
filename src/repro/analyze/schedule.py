"""Parameterized communication schedules and cross-rank matchers.

The symbolic interpreter (:mod:`repro.analyze.symbolic`) partially
evaluates a rank program over a symbolic rank ``r`` and emits a
*schedule tree*: ordered communication operations whose peers, tags and
sizes are either concrete values or symbolic expressions evaluable at a
given rank.  This module owns

* the schedule node types (:class:`SendOp` .. :class:`Loop`);
* :func:`instantiate` -- evaluate the tree at one concrete rank,
  yielding a flat list of concrete operations (raises
  :class:`NotConcrete` when some peer/count cannot be resolved, which
  the matchers treat as "skip this program", never as a finding);
* the cross-rank matchers behind rules W007-W010:

  - :func:`match_point_to_point` (W007): instantiate every rank and
    pair each send with the receive that accepts it -- leftover sends
    and unsatisfiable receives are both reported;
  - :func:`collective_divergence` (W008): compare the per-rank
    world-communicator collective sequences structurally, catching
    rank-dependent trip counts and algorithm divergence that no
    per-rank branch test can see;
  - :func:`prove_deadlock` (W009): run the instantiated schedules
    through an abstract round-robin executor under forced rendezvous
    and report wait-for cycles that contain a blocking send -- the
    static analogue of :func:`repro.analyze.dynamic.confirm_deadlock`;
  - :func:`mirror_pairing` (W010): for straight-line neighbor
    exchanges whose peers are all ``rank + const`` offsets, check the
    receive-offset multiset is the negation of the send-offset
    multiset (the global matching condition on a line or torus).

Symbolic values are duck-typed: anything with an ``.at(rank)`` method
(:class:`~repro.analyze.symbolic.RankExpr`,
:class:`~repro.analyze.symbolic.RankBool`) evaluates per rank; plain
ints/strings pass through; everything else is not concrete.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.util.errors import AnalysisError


class NotConcrete(AnalysisError):
    """A schedule field could not be evaluated to a concrete value at
    instantiation time (opaque loop bound, unknown peer, ...)."""


#: Instantiation safety valve: a single rank's flat schedule is capped
#: at this many operations (symbolic loop bounds can be adversarial).
MAX_OPS_PER_RANK = 4096


# ---------------------------------------------------------------------------
# schedule nodes
# ---------------------------------------------------------------------------

@dataclass
class SendOp:
    """A blocking or nonblocking point-to-point send."""

    dest: Any
    tag: Any
    line: int
    col: int = 0
    blocking: bool = True
    #: Payload proved to be ``None`` (always eager, never blocks).
    payload_none: bool = False


@dataclass
class RecvOp:
    """A blocking or nonblocking point-to-point receive."""

    source: Any
    tag: Any
    line: int
    col: int = 0
    blocking: bool = True


@dataclass
class WaitOp:
    """wait/waitall/waitany -- a completion point for nonblocking ops."""

    line: int
    col: int = 0


@dataclass
class CollOp:
    """One collective call."""

    kind: str
    algorithm: Optional[str]
    root: Any
    line: int
    col: int = 0
    #: ``True`` for calls on the world communicator, ``False`` for
    #: ``comm.group(...)`` sub-communicators (symbolic membership).
    world: bool = True
    #: Rank-independent payload (shape/size proved uniform across ranks).
    uniform_payload: bool = False


@dataclass
class ExchangeOp:
    """One declared stencil phase (``comm.exchange``)."""

    spec: Any
    line: int
    col: int = 0
    #: Every payload's shape proved rank-independent.
    uniform: bool = False


@dataclass
class Branch:
    """A conditional whose guard is not statically dead.

    ``test`` evaluates per rank (``.at(r)``) when the guard is a
    decidable function of the rank (parity splits and friends); it is
    ``None`` for opaque guards, with ``uniform`` recording whether the
    opaque guard is at least rank-independent (all ranks agree).
    """

    test: Any
    body: List[Any]
    orelse: List[Any]
    line: int
    uniform: bool = False


@dataclass
class Loop:
    """A loop whose trip count is not statically unrolled.

    ``count`` is an int or per-rank evaluable; ``None`` means opaque,
    with ``uniform`` recording rank-independence of the bound.
    """

    count: Any
    body: List[Any]
    line: int
    uniform: bool = False


@dataclass
class SymbolicProgram:
    """The symbolic interpreter's result for one rank program."""

    name: str
    filename: str
    line: int
    n_ranks: int
    ops: List[Any] = field(default_factory=list)
    #: Interpretation gave up (exception text); matchers fail open.
    failure: Optional[str] = None
    #: Point-to-point / wait ops appear somewhere in the schedule.
    has_p2p: bool = False
    #: Some comm op sits under an opaque or rank-dependent-undecidable
    #: guard (certification must refuse; matchers skip).
    has_guarded_ops: bool = False
    #: Some comm op sits inside an opaque-count loop.
    has_unknown_loop: bool = False


# ---------------------------------------------------------------------------
# instantiation
# ---------------------------------------------------------------------------

def value_at(value: Any, rank: int) -> Any:
    """Evaluate a schedule field at a concrete rank."""
    at = getattr(value, "at", None)
    if at is not None:
        return at(rank)
    if value is None or isinstance(value, (int, str, float, tuple)):
        return value
    raise NotConcrete(f"cannot evaluate {value!r} at rank {rank}")


def _int_at(value: Any, rank: int, what: str) -> int:
    out = value_at(value, rank)
    if isinstance(out, bool) or not isinstance(out, int):
        raise NotConcrete(f"{what} is not a concrete int: {out!r}")
    return out


@dataclass
class CSend:
    dest: int
    tag: int
    line: int
    blocking: bool
    eager: bool


@dataclass
class CRecv:
    source: int   # -1 = wildcard
    tag: int      # -1 = wildcard
    line: int
    blocking: bool


@dataclass
class CColl:
    kind: str
    algorithm: Optional[str]
    line: int


@dataclass
class CExch:
    spec: Any
    line: int


def instantiate(program: SymbolicProgram, rank: int) -> List[Any]:
    """Flatten the schedule tree at one concrete rank.

    Raises :class:`NotConcrete` when an opaque guard/bound/peer blocks
    full resolution; callers skip the program rather than report.
    """
    out: List[Any] = []

    def emit(op: Any) -> None:
        if len(out) >= MAX_OPS_PER_RANK:
            raise NotConcrete(
                f"schedule exceeds {MAX_OPS_PER_RANK} ops at rank {rank}"
            )
        out.append(op)

    def walk(ops: List[Any]) -> None:
        for op in ops:
            if isinstance(op, SendOp):
                emit(
                    CSend(
                        dest=_int_at(op.dest, rank, "send dest"),
                        tag=_int_at(op.tag, rank, "send tag"),
                        line=op.line,
                        blocking=op.blocking,
                        eager=op.payload_none,
                    )
                )
            elif isinstance(op, RecvOp):
                emit(
                    CRecv(
                        source=_int_at(op.source, rank, "recv source"),
                        tag=_int_at(op.tag, rank, "recv tag"),
                        line=op.line,
                        blocking=op.blocking,
                    )
                )
            elif isinstance(op, WaitOp):
                pass  # completion is a no-op in the abstract executor
            elif isinstance(op, CollOp):
                if not op.world:
                    raise NotConcrete("group collective membership is symbolic")
                emit(CColl(kind=op.kind, algorithm=op.algorithm, line=op.line))
            elif isinstance(op, ExchangeOp):
                emit(CExch(spec=op.spec, line=op.line))
            elif isinstance(op, Branch):
                if op.test is None:
                    if _has_comm_ops(op.body) or _has_comm_ops(op.orelse):
                        raise NotConcrete("comm ops under an opaque guard")
                    continue
                taken = value_at(op.test, rank)
                walk(op.body if taken else op.orelse)
            elif isinstance(op, Loop):
                if op.count is None:
                    if _has_comm_ops(op.body):
                        raise NotConcrete("comm ops under an opaque loop bound")
                    continue
                count = _int_at(op.count, rank, "loop count")
                for _ in range(max(0, count)):
                    walk(op.body)

    walk(program.ops)
    return out


def _has_comm_ops(ops: List[Any]) -> bool:
    for op in ops:
        if isinstance(op, (SendOp, RecvOp, CollOp, ExchangeOp)):
            return True
        if isinstance(op, Branch):
            if _has_comm_ops(op.body) or _has_comm_ops(op.orelse):
                return True
        elif isinstance(op, Loop):
            if _has_comm_ops(op.body):
                return True
    return False


def _instantiate_all(program: SymbolicProgram) -> Optional[List[List[Any]]]:
    """Per-rank flat schedules, or None when any rank is not concrete.

    ``has_guarded_ops`` also skips: a swallowed return/raise in a
    nested suite means later ops were attributed to ranks that had
    already exited, so per-rank instantiation would be fiction.
    """
    if program.failure is not None or program.has_guarded_ops:
        return None
    try:
        return [instantiate(program, r) for r in range(program.n_ranks)]
    except NotConcrete:
        return None


# ---------------------------------------------------------------------------
# W007 -- cross-rank send/recv matching
# ---------------------------------------------------------------------------

def match_point_to_point(program: SymbolicProgram) -> List[Tuple[int, str]]:
    """``(line, message)`` pairs for sends no receive accepts and
    receives no send satisfies, across the instantiated ranks."""
    schedules = _instantiate_all(program)
    if schedules is None:
        return []
    n = program.n_ranks

    # Incoming traffic per destination: (source, tag) -> [send lines].
    inbound: List[Dict[Tuple[int, int], List[int]]] = [dict() for _ in range(n)]
    bad_peer: List[Tuple[int, str]] = []
    for src, ops in enumerate(schedules):
        for op in ops:
            if isinstance(op, CSend):
                if not 0 <= op.dest < n:
                    bad_peer.append(
                        (op.line,
                         f"rank {src} sends to rank {op.dest}, outside the "
                         f"{n}-rank world")
                    )
                    continue
                inbound[op.dest].setdefault((src, op.tag), []).append(op.line)
    if bad_peer:
        return bad_peer

    problems: List[Tuple[int, str]] = []
    for dst, ops in enumerate(schedules):
        pool = inbound[dst]
        recvs = [op for op in ops if isinstance(op, CRecv)]
        # Specific receives first; wildcards absorb what remains.
        recvs.sort(key=lambda op: ((op.source < 0) + (op.tag < 0), op.line))
        for op in recvs:
            keys = [
                key
                for key, lines in pool.items()
                if lines
                and (op.source < 0 or key[0] == op.source)
                and (op.tag < 0 or key[1] == op.tag)
            ]
            if not keys:
                spec_src = "ANY" if op.source < 0 else str(op.source)
                spec_tag = "ANY" if op.tag < 0 else str(op.tag)
                problems.append(
                    (op.line,
                     f"rank {dst}'s recv(source={spec_src}, tag={spec_tag}) is "
                     "never satisfied: no rank sends a matching message")
                )
                continue
            key = min(keys)
            pool[key].pop(0)
        for (src, tag), lines in sorted(pool.items()):
            for line in lines:
                problems.append(
                    (line,
                     f"rank {src}'s send to rank {dst} (tag={tag}) is never "
                     "received: no receive on the destination matches it")
                )
    return problems


# ---------------------------------------------------------------------------
# W008 -- collective sequence divergence
# ---------------------------------------------------------------------------

def _coll_token(op: CollOp, rank: int) -> Tuple[Any, ...]:
    try:
        root = value_at(op.root, rank)
    except NotConcrete:
        root = "?"
    try:
        algorithm = value_at(op.algorithm, rank)
    except NotConcrete:
        algorithm = "?"
    return ("coll", op.kind, algorithm, root)


def _coll_seq(ops: List[Any], rank: int) -> Tuple[Any, ...]:
    """The rank's world-collective sequence as a nested token tuple.

    Uniform (rank-independent) opaque branches/loops become composite
    tokens, so two ranks compare equal exactly when they are guaranteed
    to issue the same collectives in the same order.
    """
    seq: List[Any] = []
    for op in ops:
        if isinstance(op, CollOp) and op.world:
            seq.append(_coll_token(op, rank))
        elif isinstance(op, ExchangeOp):
            seq.append(("exchange", op.line))
        elif isinstance(op, Branch):
            body = _coll_seq(op.body, rank)
            orelse = _coll_seq(op.orelse, rank)
            if op.test is not None:
                seq.extend(body if value_at(op.test, rank) else orelse)
            elif op.uniform:
                if body or orelse:
                    seq.append(("branch", body, orelse))
            else:
                # Rank-dependent, undecidable guard: mark divergence
                # only when the arms actually disagree.
                if body != orelse:
                    seq.append(("divergent", rank, body, orelse))
                else:
                    seq.extend(body)
        elif isinstance(op, Loop):
            body = _coll_seq(op.body, rank)
            if not body:
                continue
            if op.count is None:
                token = ("loop", body)
                seq.append(token if op.uniform else ("divergent-loop", rank, body))
            else:
                try:
                    count = int(value_at(op.count, rank))
                except (NotConcrete, TypeError, ValueError):
                    seq.append(("divergent-loop", rank, body))
                    continue
                for _ in range(max(0, min(count, MAX_OPS_PER_RANK))):
                    seq.extend(body)
    return tuple(seq)


def collective_divergence(program: SymbolicProgram) -> List[Tuple[int, str]]:
    """``(line, message)`` pairs when ranks provably disagree on the
    world-communicator collective sequence."""
    if program.failure is not None:
        return []
    sequences = []
    try:
        for r in range(program.n_ranks):
            sequences.append(_coll_seq(program.ops, r))
    except NotConcrete:
        return []

    def first_coll_line(ops: List[Any]) -> int:
        for op in ops:
            if isinstance(op, (CollOp, ExchangeOp)):
                return op.line
            if isinstance(op, Branch):
                line = first_coll_line(op.body) or first_coll_line(op.orelse)
                if line:
                    return line
            elif isinstance(op, Loop):
                line = first_coll_line(op.body)
                if line:
                    return line
        return 0

    line = first_coll_line(program.ops) or program.line
    for seq in sequences:
        for token in seq:
            if token and isinstance(token, tuple) and str(token[0]).startswith(
                "divergent"
            ):
                return [
                    (line,
                     "collective sequence depends on an undecidable "
                     "rank-conditional: ranks taking different arms issue "
                     "different collective calls, so some rank's collective "
                     "never completes")
                ]
    baseline = sequences[0]
    for r in range(1, program.n_ranks):
        if sequences[r] != baseline:
            return [
                (line,
                 f"ranks 0 and {r} issue different world-collective "
                 f"sequences ({_describe_seq(baseline)} vs "
                 f"{_describe_seq(sequences[r])}): every rank of the "
                 "communicator must make the same collective calls in the "
                 "same order")
            ]
    return []


def _describe_seq(seq: Tuple[Any, ...], limit: int = 4) -> str:
    names = []
    for token in seq[:limit]:
        if isinstance(token, tuple) and len(token) >= 2 and token[0] == "coll":
            names.append(str(token[1]))
        elif isinstance(token, tuple):
            names.append(str(token[0]))
        else:
            names.append(str(token))
    text = ", ".join(names) if names else "no collectives"
    if len(seq) > limit:
        text += ", ..."
    return f"[{text}] ({len(seq)} calls)"


# ---------------------------------------------------------------------------
# W009 -- abstract rendezvous executor
# ---------------------------------------------------------------------------

def prove_deadlock(program: SymbolicProgram) -> List[Tuple[int, str]]:
    """Run the instantiated schedules under forced rendezvous.

    Nonblocking operations never block (waits are no-ops), so the model
    only *under*-approximates blocking: any cycle it reports is a real
    wait-for cycle under rendezvous semantics.  Returns ``(line,
    message)`` for cycles containing at least one blocking send.
    """
    schedules = _instantiate_all(program)
    if schedules is None:
        return []
    n = program.n_ranks

    index = [0] * n                      # next op per rank
    mailbox: Counter = Counter()         # delivered (src, dst, tag) -> count
    posted: Counter = Counter()          # posted irecvs (dst, src, tag)
    coll_done = [0] * n                  # completed collectives per rank

    def current(r: int) -> Any:
        ops = schedules[r]
        return ops[index[r]] if index[r] < len(ops) else None

    def posted_match(dst: int, src: int, tag: int) -> Optional[Tuple[int, int, int]]:
        for (pdst, psrc, ptag), count in posted.items():
            if count <= 0 or pdst != dst:
                continue
            if (psrc < 0 or psrc == src) and (ptag < 0 or ptag == tag):
                return (pdst, psrc, ptag)
        return None

    def mailbox_match(dst: int, source: int, tag: int) -> Optional[Tuple[int, int, int]]:
        for (msrc, mdst, mtag), count in sorted(mailbox.items()):
            if count <= 0 or mdst != dst:
                continue
            if (source < 0 or msrc == source) and (tag < 0 or mtag == tag):
                return (msrc, mdst, mtag)
        return None

    def step(r: int) -> bool:
        op = current(r)
        if op is None:
            return False
        if isinstance(op, CSend):
            if op.eager or not op.blocking:
                # Eager payload / isend: deposit and move on.
                mailbox[(r, op.dest, op.tag)] += 1
                index[r] += 1
                return True
            if not 0 <= op.dest < n:
                return False  # out-of-world peer: stuck, W007's domain
            # Rendezvous blocking send: needs a posted receive -- an
            # irecv, or a peer blocked in a matching blocking recv.
            key = posted_match(op.dest, r, op.tag)
            if key is not None:
                posted[key] -= 1
                index[r] += 1
                return True
            peer = current(op.dest)
            if (
                isinstance(peer, CRecv)
                and peer.blocking
                and (peer.source < 0 or peer.source == r)
                and (peer.tag < 0 or peer.tag == op.tag)
            ):
                index[r] += 1
                index[op.dest] += 1
                return True
            return False
        if isinstance(op, CRecv):
            if not op.blocking:
                posted[(r, op.source, op.tag)] += 1
                index[r] += 1
                return True
            key = mailbox_match(r, op.source, op.tag)
            if key is not None:
                mailbox[key] -= 1
                index[r] += 1
                return True
            return False  # blocking sends headed here complete via step(src)
        if isinstance(op, (CColl, CExch)):
            # A collective is a barrier over the world: complete when
            # every rank sits at its matching collective.
            ready = all(
                isinstance(current(m), (CColl, CExch)) and coll_done[m] == coll_done[r]
                for m in range(n)
            )
            if ready and r == 0:
                for m in range(n):
                    index[m] += 1
                    coll_done[m] += 1
                return True
            return False
        index[r] += 1
        return True

    budget = n * MAX_OPS_PER_RANK + n
    progress = True
    while progress and budget > 0:
        progress = False
        for r in range(n):
            while budget > 0 and step(r):
                progress = True
                budget -= 1

    stuck = [r for r in range(n) if index[r] < len(schedules[r])]
    if not stuck:
        return []

    # Wait-for edges among the stuck ranks.
    edges: Dict[int, List[int]] = {}
    for r in stuck:
        op = current(r)
        if isinstance(op, CSend) and 0 <= op.dest < n:
            edges[r] = [op.dest]
        elif isinstance(op, CRecv) and 0 <= op.source < n:
            edges[r] = [op.source]
        elif isinstance(op, (CColl, CExch)):
            edges[r] = [m for m in range(n) if m != r and m in stuck]

    cycle = _find_cycle(edges)
    if cycle is None:
        return []
    has_send = any(
        isinstance(current(r), CSend) and current(r).blocking for r in cycle
    )
    if not has_send:
        return []
    anchor = min(cycle, key=lambda r: current(r).line)
    names = " -> ".join(str(r) for r in cycle + [cycle[0]])
    return [
        (current(anchor).line,
         f"symbolic replay under rendezvous deadlocks: wait-for cycle "
         f"{names}, entered through the blocking send on line "
         f"{current(anchor).line}.  Above the eager threshold every rank "
         "in the cycle parks in the handshake; pre-post an irecv or order "
         "the exchange by rank parity")
    ]


def _find_cycle(edges: Dict[int, List[int]]) -> Optional[List[int]]:
    """First directed cycle in a small wait-for graph, as a vertex list."""
    for start in sorted(edges):
        path: List[int] = []
        seen: Dict[int, int] = {}
        node = start
        while node in edges and node not in seen:
            seen[node] = len(path)
            path.append(node)
            node = edges[node][0] if edges[node] else -1
        if node in seen:
            return path[seen[node]:]
    return None


# ---------------------------------------------------------------------------
# W010 -- mirror pairing of neighbor exchanges
# ---------------------------------------------------------------------------

def _affine_offset(value: Any, n: int) -> Optional[Tuple[int, Optional[int]]]:
    """``(offset, mod)`` when ``value`` is ``rank + offset`` (optionally
    ``% n``); None otherwise."""
    affine = getattr(value, "affine", None)
    if affine is None:
        return None
    a, b, mod = affine
    if a != 1 or (mod is not None and mod != n):
        return None
    return b, mod


def mirror_pairing(program: SymbolicProgram) -> List[Tuple[int, str]]:
    """``(line, message)`` pairs for straight-line neighbor exchanges
    whose receive offsets are not the negation of the send offsets."""
    if program.failure is not None:
        return []
    n = program.n_ranks
    problems: List[Tuple[int, str]] = []

    def check_run(run: List[Any]) -> None:
        sends = [op for op in run if isinstance(op, SendOp)]
        recvs = [op for op in run if isinstance(op, RecvOp)]
        if not sends or not recvs:
            return
        send_offsets = []
        wrapped = False
        for op in sends:
            parsed = _affine_offset(op.dest, n)
            if parsed is None:
                return
            send_offsets.append(parsed[0])
            wrapped = wrapped or parsed[1] is not None
        recv_offsets = []
        for op in recvs:
            parsed = _affine_offset(op.source, n)
            if parsed is None:
                return
            recv_offsets.append(parsed[0])
            wrapped = wrapped or parsed[1] is not None
        if wrapped:
            expect = Counter((-o) % n for o in send_offsets)
            got = Counter(o % n for o in recv_offsets)
        else:
            expect = Counter(-o for o in send_offsets)
            got = Counter(recv_offsets)
        if expect != got:
            line = min(op.line for op in sends)
            problems.append(
                (line,
                 f"neighbor exchange is not mirror-paired: sends go to "
                 f"rank+{sorted(Counter(send_offsets))} but receives come "
                 f"from rank+{sorted(Counter(recv_offsets))}; a message "
                 "sent to offset o arrives from offset -o, so the receive "
                 "offsets must be the negated send offsets")
            )

    def walk(ops: List[Any]) -> None:
        run: List[Any] = []
        for op in ops:
            if isinstance(op, (SendOp, RecvOp)):
                run.append(op)
                continue
            if isinstance(op, WaitOp):
                continue
            if run:
                check_run(run)
                run = []
            if isinstance(op, Branch):
                walk(op.body)
                walk(op.orelse)
            elif isinstance(op, Loop):
                walk(op.body)
        if run:
            check_run(run)

    walk(program.ops)
    return problems
