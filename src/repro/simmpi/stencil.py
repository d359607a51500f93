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
becomes one :class:`~repro.simmpi.requests.CollectiveReq` priced by
the ``("exchange", "stencil")`` entry of
:data:`repro.simmpi.macro.TABLE` -- it decides every bail before it
prices, then prices in place on the run's clocks, stats and FIFO
table, as the collective evaluators do.
Its rounds, one per offset built from :meth:`StencilSpec.peer_columns`,
live in the run's plan table under ``(None, "exchange", spec, 0)``, so
a multi-step halo derives them once per run.  Otherwise (tracing,
contention delivery, faults, or a per-invocation bail) the real
send/recv sequence runs on the event path.  Both routes are
bit-identical in makespans, per-rank stats, and returned payloads.

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
from typing import Any, Generator, List, Optional, Sequence, Tuple

import numpy as np

from repro.simmpi import collectives as _coll
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
    #: ``hash`` of the identity fields, taken once: every member's
    #: gather key hashes the spec at every exchange.
    _hash: int = field(init=False, repr=False, compare=False, default=0)

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
        object.__setattr__(self, "_hash", hash((shape, offsets, self.wrap)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def size(self) -> int:
        """Number of grid positions (must equal the communicator size)."""
        n = 1
        for s in self.shape:
            n *= s
        return n

    @property
    def self_peer(self) -> bool:
        """Some offset maps every rank onto itself (a wrapped grid whose
        extent divides the offset on every axis)."""
        return self.wrap and any(
            all(o % sd == 0 for o, sd in zip(off, self.shape))
            for off in self.offsets
        )

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
    # The spec rides in the algorithm slot; the phase runs under the
    # caller's own phase label when traced.
    return _coll._dispatch(
        comm, "exchange", spec, 0, None, payloads,
        _exchange_event, (comm, spec, payloads), False,
    )


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
