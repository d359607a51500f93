"""Declared halo-exchange stencil phases and their closed-form pricing.

A *stencil phase* is the communication epoch of a structured-grid
computation: every rank sends one payload to each neighbor at a fixed
set of grid offsets, then receives the mirror payloads.  The apps
(`apps.ocean`, `apps.cfd`) and the 2D linear-algebra kernels spend
their whole communication budget in exactly this shape, which the
Grand Challenge machines (the 16K-node lattice-QCD designs) run at
four orders of magnitude more ranks than a per-message event loop can
replay interactively.

:class:`StencilSpec` declares the phase -- the row-major rank-grid
shape, the offset set (each offset's negation must also be present),
and whether the grid wraps.  :func:`exchange` (exposed as
``comm.exchange``) executes it: under engine macro-ops the whole phase
becomes one :class:`~repro.simmpi.requests.CollectiveReq` priced in
closed form by :func:`eval_exchange` through
:class:`~repro.simmpi.macro._Sched` -- the same transactional
clocks/stats/FIFO-overlay machinery and round builder the collective
evaluators use --
and otherwise (tracing, contention delivery, faults, or a
per-invocation bail) the real send/recv sequence runs on the event
path.  Both routes are bit-identical in makespans, per-rank stats, and
returned payloads.

The event path fixes the wire protocol the evaluator reproduces: each
rank sends ``payloads[j]`` to its offset-``j`` peer with tag
``tag0 - j``, then receives from the offset-``j`` peer with tag
``tag0 - mirror(j)`` (the tag its peer used for the payload traveling
*toward* us, i.e. the peer's send at the negated offset).  Sends
before receives, both in offset order -- the same
send/send/.../recv/recv shape the apps' hand-written halo loops used.

Closed-form soundness: every round is a uniform shift, so (src, dst)
pairs are distinct within a round and sends depend only on the
sender's clock (eager).  The evaluator bails (``_Bail`` ->
``MACRO_FALLBACK``) whenever those assumptions break: irregular
payload sizes across ranks, rendezvous-sized payloads (the cyclic
pattern may legitimately deadlock, and only the event path reproduces
that), or an offset that maps ranks onto themselves (self-sends have
zero injection overhead, outside the round primitive's constant-
overhead form).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional, Sequence, Tuple

import numpy as np

from repro.simmpi import collectives as _coll
from repro.simmpi.macro import _Bail, _Sched
from repro.simmpi.requests import CollectiveReq, copy_payload, payload_nbytes
from repro.util.errors import CommunicationError, ConfigurationError


@dataclass(frozen=True)
class StencilSpec:
    """A declared neighbor-exchange phase on a row-major rank grid.

    ``shape`` is the process-grid shape (rank ``r`` sits at
    ``np.unravel_index(r, shape)``, row-major -- the same layout as
    :class:`~repro.linalg.decomp.ProcessGrid2D`).  ``offsets`` is the
    neighbor set; for every offset its negation must also be listed
    (the mirror), because each rank receives back along the direction
    it sent.  ``wrap`` selects torus (True) or open-boundary mesh
    behaviour; on an open grid, offsets that leave the grid simply
    drop that send/receive and the returned slot is ``None``.

    Instances are immutable and hashable: the spec rides in the
    ``algorithm`` slot of the engine's collective gather key, so two
    ranks are in the same invocation exactly when they declared the
    same phase.
    """

    shape: Tuple[int, ...]
    offsets: Tuple[Tuple[int, ...], ...]
    wrap: bool = True
    #: ``mirrors[j]`` is the index of ``-offsets[j]`` (derived, not
    #: part of identity).
    mirrors: Tuple[int, ...] = field(
        init=False, repr=False, compare=False, default=()
    )

    def __post_init__(self) -> None:
        shape = tuple(int(s) for s in self.shape)
        offsets = tuple(tuple(int(o) for o in off) for off in self.offsets)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "offsets", offsets)
        if not shape or any(s < 1 for s in shape):
            raise ConfigurationError(
                f"stencil shape must have positive dims, got {shape}"
            )
        if not offsets:
            raise ConfigurationError("stencil needs at least one offset")
        index = {}
        for j, off in enumerate(offsets):
            if len(off) != len(shape):
                raise ConfigurationError(
                    f"offset {off} has {len(off)} dims; shape {shape} "
                    f"has {len(shape)}"
                )
            if not any(off):
                raise ConfigurationError("zero offset is not a neighbor")
            if off in index:
                raise ConfigurationError(f"duplicate offset {off}")
            index[off] = j
        mirrors = []
        for off in offsets:
            neg = tuple(-o for o in off)
            j = index.get(neg)
            if j is None:
                raise ConfigurationError(
                    f"offset {off} has no mirror {neg} in {offsets}"
                )
            mirrors.append(j)
        object.__setattr__(self, "mirrors", tuple(mirrors))

    @property
    def size(self) -> int:
        """Number of grid positions (must equal the communicator size)."""
        n = 1
        for s in self.shape:
            n *= s
        return n

    def neighbors(self, rank: int) -> List[int]:
        """Peer rank per offset for ``rank``; -1 where the offset
        leaves a non-wrapping grid."""
        shape = self.shape
        coords = []
        rem = rank
        for d in range(len(shape) - 1, -1, -1):
            rem, c = divmod(rem, shape[d])
            coords.append(c)
        coords.reverse()
        peers = []
        for off in self.offsets:
            r = 0
            ok = True
            for d, o in enumerate(off):
                c = coords[d] + o
                s = shape[d]
                if self.wrap:
                    c %= s
                elif not 0 <= c < s:
                    ok = False
                    break
                r = r * s + c
            peers.append(r if ok else -1)
        return peers

    def peer_columns(self) -> List[np.ndarray]:
        """Vectorised :meth:`neighbors`: per offset, an int64 array of
        every rank's peer (-1 where the offset leaves an open grid)."""
        shape = self.shape
        coords = np.unravel_index(np.arange(self.size), shape)
        out = []
        for off in self.offsets:
            ok = np.ones(self.size, dtype=np.bool_)
            moved = []
            for d, o in enumerate(off):
                c = coords[d] + o
                if self.wrap:
                    c %= shape[d]
                else:
                    ok &= (c >= 0) & (c < shape[d])
                    c = np.clip(c, 0, shape[d] - 1)
                moved.append(c)
            peer = np.ravel_multi_index(tuple(moved), shape).astype(np.int64)
            peer[~ok] = -1
            out.append(peer)
        return out


def strip_halo(p: int, wrap: bool = True) -> StencilSpec:
    """Two-neighbor strip decomposition: offsets -1 (up) and +1 (down)."""
    return StencilSpec(shape=(p,), offsets=((-1,), (1,)), wrap=wrap)


def grid_halo(
    prows: int, pcols: int, axis: Optional[int] = None, wrap: bool = True
) -> StencilSpec:
    """Halo exchange on a row-major ``prows x pcols`` process grid.

    ``axis=0`` exchanges along rows only (up/down), ``axis=1`` along
    columns only (left/right), ``None`` all four neighbors.
    """
    if axis == 0:
        offsets: Tuple[Tuple[int, ...], ...] = ((-1, 0), (1, 0))
    elif axis == 1:
        offsets = ((0, -1), (0, 1))
    elif axis is None:
        offsets = ((-1, 0), (1, 0), (0, -1), (0, 1))
    else:
        raise ConfigurationError(f"grid_halo axis must be 0, 1, or None, got {axis}")
    return StencilSpec(shape=(prows, pcols), offsets=offsets, wrap=wrap)


def exchange(comm: Any, spec: StencilSpec, payloads: Sequence[Any]) -> Generator:
    """Execute one declared stencil phase on ``comm`` (the world
    communicator): send ``payloads[j]`` toward offset ``j``, return the
    received payloads per offset (``None`` where an open-grid offset
    has no peer).

    Collective in shape: every rank must call it with the same spec,
    the same number of times.  Under engine macro-ops the phase is
    priced in closed form; otherwise (or on a per-invocation fallback)
    the real send/recv sequence runs, bit-identically.
    """
    payloads = list(payloads)
    if len(payloads) != len(spec.offsets):
        raise CommunicationError(
            f"exchange got {len(payloads)} payloads for "
            f"{len(spec.offsets)} offsets"
        )
    if spec.size != comm.size:
        raise CommunicationError(
            f"stencil shape {spec.shape} covers {spec.size} ranks; "
            f"communicator has {comm.size}"
        )
    if comm._macro and comm.size > 1:
        return _coll._macro_collective(comm, "exchange", spec, 0, None, payloads)
    return _exchange_event(comm, spec, payloads)


def _exchange_event(comm: Any, spec: StencilSpec, payloads: Sequence[Any]) -> Generator:
    """The event-path wire protocol (also the macro fallback): sends
    then receives, both in offset order, mirror-tagged."""
    tag0 = _coll._block_tag(comm)
    peers = spec.neighbors(comm.rank)
    mirrors = spec.mirrors
    for j, peer in enumerate(peers):
        if peer >= 0:
            yield from comm.send(payloads[j], peer, tag=tag0 - j)
    out: List[Any] = [None] * len(peers)
    for j, peer in enumerate(peers):
        if peer >= 0:
            msg = yield from comm.recv(source=peer, tag=tag0 - mirrors[j])
            out[j] = msg.payload
    return out


#: spec -> :meth:`StencilSpec.peer_columns` memo.  Bounded by the
#: number of distinct phases a process declares (a handful).
_PEER_COLUMNS: Dict[StencilSpec, List[np.ndarray]] = {}


def eval_exchange(
    s: _Sched, reqs: Sequence[CollectiveReq], ghost: bool = False
) -> List[Any]:
    """Closed-form pricing of one exchange invocation (all members
    parked; clocks/stats live in the transactional ``s``).

    Mirrors :func:`_exchange_event` round for round: one vectorised
    send round per offset, then one receive round per offset, so every
    rank's clock and comm-time accumulate in exactly the event path's
    per-rank op order.  Raises ``_Bail`` -- nothing committed, the
    engine replays the event path -- on irregular payload sizes,
    rendezvous-sized payloads, self-peers, or a spec/communicator size
    mismatch.

    ``ghost`` (closed-form engine): every entry of ``reqs`` is the same
    request object, so rank 0's payloads size every column, and only
    rank 0's delivered row is assembled -- the O(p) per-member column
    scans and delivery copies collapse to O(offsets).
    """
    spec = reqs[0].algorithm
    p = s.p
    if spec.size != p:
        raise _Bail
    offsets = spec.offsets
    shape = spec.shape
    k = len(offsets)
    if spec.wrap:
        for off in offsets:
            if all(o % sd == 0 for o, sd in zip(off, shape)):
                # The offset maps every rank onto itself: self-sends
                # have zero injection overhead, which the constant-
                # overhead round primitive cannot express.
                raise _Bail
    vals: Optional[List[Any]] = None if ghost else [req.value for req in reqs]
    v0 = reqs[0].value
    nb: List[int] = []
    immutable: List[bool] = []
    for j in range(k):
        x0 = v0[j]
        t0 = type(x0)
        scalar0 = t0 is float or t0 is int or t0 is bool
        if scalar0 and (ghost or not any(type(v[j]) is not t0 for v in vals)):
            # Scalar column: 8 wire bytes each (payload_nbytes), and
            # nothing to copy on delivery -- the eager send path hands
            # immutable payloads through as-is too.
            n0 = 8
            imm = True
        else:
            n0 = payload_nbytes(x0)
            if not ghost and not s.run._cert_uniform:
                # A macro certificate with the uniform-exchange bit
                # proves every rank's payload has the same shape; then
                # element 0 prices the whole column.  Without it, scan.
                for v in vals:
                    if payload_nbytes(v[j]) != n0:
                        raise _Bail  # irregular sizes: not a uniform round
            imm = False
        if n0 > s.eager_max:
            # Rendezvous payloads make the cyclic pattern synchronous;
            # the event path must run (it may legitimately deadlock).
            raise _Bail
        nb.append(n0)
        immutable.append(imm)

    peers = _PEER_COLUMNS.get(spec)
    if peers is None:
        # Specs are immutable and hashable; the columns are read-only
        # here, so one derivation serves every epoch of the phase.
        peers = _PEER_COLUMNS[spec] = spec.peer_columns()
    # Rounds go through the plan's round builder but are not kept in it:
    # a point runs a phase at most ``steps`` times, and the peer
    # columns above are already memoised.
    round_of = s.plan.round
    idx = np.arange(p, dtype=np.intp)
    arrivals: List[np.ndarray] = []
    for j in range(k):
        pa = peers[j]
        if spec.wrap:
            arrivals.append(s.send_round(round_of(idx, pa.astype(np.intp)), nb[j]))
        else:
            srcs = idx[pa >= 0]
            dense = np.zeros(p, dtype=np.float64)
            if srcs.size:
                dense[srcs] = s.send_round(
                    round_of(srcs, pa[srcs].astype(np.intp)), nb[j]
                )
            arrivals.append(dense)
    mirrors = spec.mirrors
    for j in range(k):
        pa = peers[j]
        m = mirrors[j]
        # Rank r's offset-j receive completes the message its peer sent
        # in the peer's mirror round (the send traveling -offsets[j]).
        if spec.wrap:
            s.recv_round(idx, arrivals[m][pa], nb[m])
        else:
            dsts = idx[pa >= 0]
            if dsts.size:
                s.recv_round(dsts, arrivals[m][pa[dsts]], nb[m])

    # Rank r's offset-j slot holds its peer's mirror payload.  Build
    # per-offset delivery columns, then transpose: the column loops are
    # flat list comprehensions, which matters at 10^4+ ranks.
    cp = copy_payload
    if ghost:
        # Only rank 0's delivered row is observable; its peers' mirror
        # payloads are rank 0's own (one shared request).
        row0: List[Any] = []
        for j in range(k):
            m = mirrors[j]
            if int(peers[j][0]) < 0:
                row0.append(None)
            elif immutable[m]:
                row0.append(v0[m])
            else:
                row0.append(cp(v0[m]))
        return [row0]
    delivered: List[List[Any]] = []
    for j in range(k):
        pl = peers[j].tolist()
        m = mirrors[j]
        if immutable[m]:
            colv = [vals[q][m] if q >= 0 else None for q in pl]
        else:
            # Same buffered-copy semantics as the eager send path.
            colv = [cp(vals[q][m]) if q >= 0 else None for q in pl]
        delivered.append(colv)
    return [list(row) for row in zip(*delivered)]


# The engine resumes every member with MACRO_FALLBACK when the
# evaluator bails; the dispatch layer then replays the event-path
# protocol with the spec it finds in the algorithm slot.
_coll._MACRO_FALLBACK_IMPLS["exchange"] = (
    lambda comm, value, root, op, alg: _exchange_event(comm, alg, value)
)
