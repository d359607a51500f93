"""Sub-communicators over subsets of ranks.

A :class:`GroupComm` presents the same interface as
:class:`~repro.simmpi.comm.Comm` but renumbers a subset of global ranks
``members[i] -> i``.  It is what 2-D algorithms (SUMMA, process grids)
use for row and column collectives.

Construction is purely local -- no communication -- so every member must
derive the identical member list (the usual process-grid situation).
Isolation between different groups, and between group traffic and
parent-communicator traffic, is achieved by salting all group tags with
a hash of the member tuple: two different groups draw from disjoint tag
ranges with overwhelming probability, and group tags are always far
below user tag space.
"""

from __future__ import annotations

from typing import Any, Generator, Optional, Sequence

from repro.simmpi import collectives as _coll
from repro.simmpi.comm import Comm
from repro.simmpi.requests import ANY_SOURCE, ANY_TAG
from repro.util.errors import CommunicationError
from repro.util.rng import stable_seed

#: User tags on a group are shifted this far below the group's salt so
#: they can never collide with the group's own collective tag blocks.
_USER_TAG_OFFSET = 1 << 40


class GroupComm:
    """Communicator over ``members`` of a parent :class:`Comm`."""

    __slots__ = (
        "parent", "members", "_member_pos", "rank", "size", "machine",
        "_salt", "_user_tag_base", "_coll_seq", "_tracing", "_phases",
        "_macro",
    )

    def __init__(self, parent: Comm, members: Sequence[int]):
        members = tuple(members)
        if len(set(members)) != len(members):
            raise CommunicationError(f"duplicate ranks in group: {members}")
        for m in members:
            if not 0 <= m < parent.size:
                raise CommunicationError(
                    f"group member {m} outside parent size {parent.size}"
                )
        if parent.rank not in members:
            raise CommunicationError(
                f"rank {parent.rank} constructing a group it is not a member of"
            )
        self.parent = parent
        self.members = members
        # Global rank -> group rank (message metadata translation runs
        # once per received message; no linear scans there).
        self._member_pos = {m: i for i, m in enumerate(members)}
        self.rank = self._member_pos[parent.rank]
        self.size = len(members)
        self.machine = parent.machine
        # Tag salt shared by construction across members (same tuple).
        self._salt = stable_seed(*members)
        # _user_tag(t) == base - t and _untag(g) == base - g (its own
        # inverse); precomputed so the per-message hot path is one
        # subtraction.
        self._user_tag_base = -(self._salt + _USER_TAG_OFFSET)
        self._coll_seq = 0
        # Phase labelling shares the parent's stack (one stack per rank);
        # groups are built after the engine sets the tracing flag.
        self._tracing = parent._tracing
        self._phases = parent._phases
        # Groups are built after the engine decides macro eligibility.
        self._macro = parent._macro

    # -- tag management -------------------------------------------------------

    def next_tag_block(self) -> int:
        self._coll_seq += 1
        return -(self._salt + self._coll_seq * _coll._TAG_STRIDE)

    def _user_tag(self, tag: int) -> int:
        return self._user_tag_base - tag

    def _untag(self, gtag: int) -> int:
        """Invert :meth:`_user_tag` for messages received in this group."""
        return self._user_tag_base - gtag

    def _to_group(self, msg):
        """Translate a delivered message's metadata to group coordinates.

        Rewrites the message in place: the engine constructs a fresh
        :class:`Message` per delivery and hands it to exactly one
        receive, so the group owns it and saves a constructor call per
        received message.
        """
        if msg is None:
            return None
        msg.source = self._member_pos.get(msg.source, msg.source)
        msg.tag = self._user_tag_base - msg.tag
        return msg

    # -- identity -------------------------------------------------------------

    def is_root(self, root: int = 0) -> bool:
        return self.rank == root

    @property
    def rng(self):
        """The parent rank's random stream (groups do not re-derive);
        delegated lazily so constructing a group never forces it."""
        return self.parent.rng

    def phase(self, name: str):
        """Phase labelling delegates to the parent communicator, so the
        engine sees one label stack per rank regardless of groups."""
        return self.parent.phase(name)

    def current_phase(self):
        return self.parent.current_phase()

    def group(self, members: Sequence[int]) -> "GroupComm":
        """Nested group: ``members`` are ranks *within this group*."""
        return GroupComm(self.parent, [self.members[m] for m in members])

    # -- collective-internal scratch access (see Comm._fill_send) -------------

    def _fill_send(self, payload, dest: int, tag: int):
        req = self.parent._send_req
        req.dest = self.members[dest]
        req.payload = payload
        req.tag = self._user_tag_base - tag
        req.nbytes = None
        return req

    def _fill_isend(self, payload, dest: int, tag: int):
        req = self.parent._isend_req
        req.dest = self.members[dest]
        req.payload = payload
        req.tag = self._user_tag_base - tag
        req.nbytes = None
        return req

    def _fill_recv(self, source: int, tag: int):
        req = self.parent._recv_req
        req.source = self.members[source]
        req.tag = self._user_tag_base - tag
        return req

    def _fill_wait(self, handle: int):
        req = self.parent._wait_req
        req.handle = handle
        return req

    # -- primitives (rank/tag translated onto the parent) ---------------------

    def send(
        self, payload: Any, dest: int, tag: int = 0, nbytes: Optional[float] = None
    ) -> Generator:
        """:meth:`Comm.send` to group rank ``dest``: eager up to the
        engine's threshold, rendezvous (blocking until the receiver
        posts) above it."""
        if not 0 <= dest < self.size:
            raise CommunicationError(f"group send dest {dest} out of range")
        # Fill the parent's scratch request directly rather than
        # delegating to parent.send: group traffic is the per-message
        # hot path (2-D algorithms do all their point-to-point through
        # row/column groups), and the extra generator frame per resume
        # is measurable.  Members were validated at construction, so
        # the parent-range check is already covered.
        req = self.parent._send_req
        req.dest = self.members[dest]
        req.payload = payload
        req.tag = self._user_tag_base - tag
        req.nbytes = nbytes
        yield req
        req.payload = None  # do not pin the buffer past the send

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Generator:
        if source != ANY_SOURCE and not 0 <= source < self.size:
            raise CommunicationError(f"group recv source {source} out of range")
        req = self.parent._recv_req
        req.source = ANY_SOURCE if source == ANY_SOURCE else self.members[source]
        req.tag = ANY_TAG if tag == ANY_TAG else self._user_tag_base - tag
        msg = yield req
        return self._to_group(msg)

    def isend(
        self, payload: Any, dest: int, tag: int = 0, nbytes: Optional[float] = None
    ) -> Generator:
        if not 0 <= dest < self.size:
            raise CommunicationError(f"group isend dest {dest} out of range")
        req = self.parent._isend_req
        req.dest = self.members[dest]
        req.payload = payload
        req.tag = self._user_tag_base - tag
        req.nbytes = nbytes
        handle = yield req
        req.payload = None  # do not pin the buffer past the post
        return handle

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Generator:
        if source != ANY_SOURCE and not 0 <= source < self.size:
            raise CommunicationError(f"group irecv source {source} out of range")
        req = self.parent._irecv_req
        req.source = ANY_SOURCE if source == ANY_SOURCE else self.members[source]
        req.tag = ANY_TAG if tag == ANY_TAG else self._user_tag_base - tag
        handle = yield req
        return handle

    def wait(self, handle: int) -> Generator:
        msg = yield from self.parent.wait(handle)
        return self._to_group(msg)

    def waitall(self, handles) -> Generator:
        out = []
        for handle in handles:
            msg = yield from self.wait(handle)
            out.append(msg)
        return out

    def waitany(self, handles) -> Generator:
        index, msg = yield from self.parent.waitany(handles)
        return index, self._to_group(msg)

    def sendrecv(
        self,
        payload: Any,
        dest: int,
        source: int = ANY_SOURCE,
        sendtag: int = 0,
        recvtag: int = ANY_TAG,
        nbytes: Optional[float] = None,
    ) -> Generator:
        yield from self.send(payload, dest, sendtag, nbytes)
        msg = yield from self.recv(source, recvtag)
        return msg

    def compute(self, flops=None, seconds=None, efficiency=None) -> Generator:
        yield from self.parent.compute(flops=flops, seconds=seconds, efficiency=efficiency)

    # -- collectives (same algorithm library, group-relative ranks) -----------

    def barrier(self) -> Generator:
        return _coll.barrier(self)

    def bcast(self, value: Any, root: int = 0, algorithm: str = "tree") -> Generator:
        return _coll.bcast(self, value, root, algorithm)

    def reduce(self, value: Any, op="sum", root: int = 0) -> Generator:
        return _coll.reduce(self, value, op, root)

    def allreduce(self, value: Any, op="sum", algorithm: str = "reduce_bcast") -> Generator:
        return _coll.allreduce(self, value, op, algorithm)

    def gather(self, value: Any, root: int = 0, algorithm: str = "tree") -> Generator:
        return _coll.gather(self, value, root, algorithm)

    def allgather(self, value: Any, algorithm: str = "ring") -> Generator:
        return _coll.allgather(self, value, algorithm)

    def scatter(self, values, root: int = 0, algorithm: str = "tree") -> Generator:
        return _coll.scatter(self, values, root, algorithm)

    def alltoall(self, values, algorithm: str = "cyclic") -> Generator:
        return _coll.alltoall(self, values, algorithm)

    def scan(self, value: Any, op="sum") -> Generator:
        return _coll.scan(self, value, op)

    def reduce_scatter(self, values, op="sum") -> Generator:
        return _coll.reduce_scatter(self, values, op)
