"""Wait-for-graph explanation of simulator deadlocks.

When the event heap drains with live ranks remaining, every survivor is
blocked on communication that can never complete.  This module turns
that final state into an explicit *wait-for graph*: one node per
still-blocked rank, one edge per reason it cannot proceed (an unmatched
posted receive, an unfinished isend being waited on, or a parked
blocking rendezvous send).  The graph then answers the question the old
flat listing could not: *which ranks form the deadlocked cycle?*

``rank 0 -> rank 1 -> rank 0`` is the signature of the symmetric
blocking-send bug (analyzer rule W009); an edge into a failed rank with
no cycle is a survivor waiting on a dead peer (fault injection).  The
engine attaches the graph to :class:`~repro.util.errors.DeadlockError`
as ``wait_for``/``cycle``/``failed_ranks`` and embeds
:meth:`WaitForGraph.describe` in the message.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

from repro.simmpi.requests import ANY_SOURCE
from repro.simmpi.state import RankState, ReceiveSlot


@dataclass(frozen=True)
class WaitEdge:
    """One reason a blocked rank cannot proceed.

    ``target`` is the rank being waited on, or ``None`` when the wait
    names no specific peer (a ``recv(ANY_SOURCE)`` that nothing will
    ever match).  ``reason`` is the human-readable form embedded in the
    :class:`DeadlockError` message.
    """

    rank: int
    target: Optional[int]
    reason: str


class WaitForGraph:
    """The blocked ranks and their wait-for edges at deadlock time."""

    def __init__(
        self,
        nodes: Sequence[int],
        edges: Iterable[WaitEdge],
        failed_ranks: Iterable[int] = (),
    ) -> None:
        #: Still-blocked ranks, in rank order (nodes with no edges are
        #: legal: a rank can be blocked with nothing posted).
        self.nodes: List[int] = list(nodes)
        self.edges: List[WaitEdge] = list(edges)
        self.failed_ranks: List[int] = sorted(failed_ranks)

    def wait_for(self) -> Dict[int, List[int]]:
        """``{blocked_rank: [ranks it waits on]}`` -- targets deduped,
        first-wait order; ranks with no concrete target are omitted."""
        graph: Dict[int, List[int]] = {}
        for edge in self.edges:
            if edge.target is None:
                continue
            targets = graph.setdefault(edge.rank, [])
            if edge.target not in targets:
                targets.append(edge.target)
        return graph

    def find_cycle(self) -> Optional[List[int]]:
        """A deadlocked cycle as ``[r0, r1, ..., r0]``, rotated so the
        smallest member leads, or ``None`` (acyclic: every blocked rank
        ultimately waits on a failed or finished peer)."""
        adjacency = self.wait_for()
        visited: set = set()
        for start in sorted(adjacency):
            if start in visited:
                continue
            # Iterative DFS keeping the active path for cycle extraction.
            path: List[int] = [start]
            on_path = {start}
            pending = [iter(adjacency.get(start, ()))]
            while pending:
                for nxt in pending[-1]:
                    if nxt in on_path:
                        cycle = path[path.index(nxt):]
                        pivot = cycle.index(min(cycle))
                        cycle = cycle[pivot:] + cycle[:pivot]
                        return cycle + [cycle[0]]
                    if nxt not in visited and nxt in adjacency:
                        path.append(nxt)
                        on_path.add(nxt)
                        pending.append(iter(adjacency[nxt]))
                        break
                else:
                    done = path.pop()
                    visited.add(done)
                    on_path.discard(done)
                    pending.pop()
        return None

    def describe(self) -> str:
        """The deadlock detail string: per-rank blocking reasons, the
        injected-failure note, and the detected cycle."""
        reasons: Dict[int, List[str]] = {rank: [] for rank in self.nodes}
        for edge in self.edges:
            reasons.setdefault(edge.rank, []).append(edge.reason)
        parts = [
            f"rank {rank} blocked on " + (", ".join(reasons[rank]) or "nothing posted")
            for rank in self.nodes
        ]
        detail = ", ".join(parts)
        if self.failed_ranks:
            detail += f" (injected failures: ranks {self.failed_ranks})"
        cycle = self.find_cycle()
        if cycle:
            detail += "; wait-for cycle: " + " -> ".join(str(r) for r in cycle)
        return detail

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly snapshot (for traces and tooling)."""
        return {
            "wait_for": self.wait_for(),
            "cycle": self.find_cycle(),
            "failed_ranks": list(self.failed_ranks),
            "blocked": {
                rank: [e.reason for e in self.edges if e.rank == rank]
                for rank in self.nodes
            },
        }


def build_wait_graph(
    ranks: Sequence[Optional[RankState]], failed_ranks: Iterable[int] = ()
) -> WaitForGraph:
    """Construct the wait-for graph from the engine's final rank state.

    Edges come from two places: the blocked rank's own handle table
    (posted receives and waited-on isends that never became ready) and
    the destination ranks' parked queues (blocking rendezvous sends,
    which own no handle).  A parked send whose handle is still in the
    sender's table is skipped here -- the handle scan already reports
    it -- so no send is ever counted twice.

    Under lazy bring-up a rank's slot may be ``None``: the rank was
    never resumed or targeted, which can only happen when it finished
    or failed without materializing (a live blocked rank always has
    state).  ``None`` slots therefore contribute no node and hold no
    queues to scan.
    """
    nodes: List[int] = []
    edges: List[WaitEdge] = []
    for state in ranks:
        if state is None or state.finished:
            continue
        nodes.append(state.rank)
        if state.collective is not None:
            # Parked in a macro collective whose other members never
            # arrived (a divergent collective): name it rather than
            # reporting "nothing posted".
            _members, seq, kind, algorithm, _root = state.collective
            edges.append(
                WaitEdge(
                    rank=state.rank,
                    target=None,
                    reason=(
                        f"collective {kind}/{algorithm} #{seq} "
                        "(waiting for other members)"
                    ),
                )
            )
        for handle in state.handles.values():
            if not handle.waiting or handle.ready:
                continue
            if isinstance(handle, ReceiveSlot):
                target = None if handle.source == ANY_SOURCE else handle.source
                reason = f"(source={handle.source}, tag={handle.tag})"
            else:
                target = handle.dest
                reason = f"isend to {handle.dest} (tag={handle.tag})"
            edges.append(WaitEdge(rank=state.rank, target=target, reason=reason))
        seen_parked = set()
        for other in ranks:
            if other is None:
                continue
            for ps in other.parked:
                if ps.source != state.rank or id(ps) in seen_parked:
                    continue
                seen_parked.add(id(ps))
                if ps.handle is not None and ps.handle.handle_id in state.handles:
                    continue  # reported via the sender's handle table
                edges.append(
                    WaitEdge(
                        rank=state.rank,
                        target=ps.dest,
                        reason=f"rendezvous send to {ps.dest} (tag={ps.tag})",
                    )
                )
    return WaitForGraph(nodes, edges, failed_ranks)
