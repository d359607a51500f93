"""The rendezvous protocol: sends above the eager threshold.

The engine chooses the protocol **per message** by size.  Up to the
eager threshold a send is buffered and forwarded at once; that path is
the engine's own send handler (``_Run._handle_send``), which also
serves ``isend``.  Above it :class:`RendezvousProtocol` holds the
sender (or, for ``isend``, just the transfer) until the receiver posts
a matching slot:

* :meth:`RendezvousProtocol.send` -- park (or hand over) one send;
* :meth:`RendezvousProtocol.match_posted_receive` -- a receive was just
  posted and the queued eager messages did not match it: bind a parked
  sender to it if one matches.

The protocol talks to the run through the small context interface the
engine passes in (``arrival`` -- the delivery model's answer with the
per-pair FIFO clamp applied -- ``overhead``, ``schedule`` and the
completion callbacks), so it is independent of both the cost model and
the event loop.
"""

from __future__ import annotations

from repro.simmpi.requests import ANY_SOURCE, ANY_TAG, InFlight, copy_payload
from repro.simmpi.state import ParkedSend, ReceiveSlot
from repro.simmpi.trace import RNDV_WAIT, SEND, SpanCause


class RendezvousProtocol:
    """Handshaking sends: the transfer starts only once a matching
    receive exists.  A blocking send parks its rank; an isend parks only
    the transfer and completes its handle at handshake time."""

    def send(self, ctx, src, request, nbytes, handle=None):
        """Interpret a send issued at ``src.clock``.  ``handle`` is None
        for a blocking :class:`~repro.simmpi.requests.SendReq`; for an
        isend it is the already-registered
        :class:`~repro.simmpi.state.SendHandle` the sender will wait on."""
        now = src.clock
        # rank_state materializes a not-yet-resumed receiver (lazy
        # bring-up): its parked queue must exist to hold this sender.
        dst = ctx.rank_state(request.dest)
        ps = ParkedSend(
            source=src.rank,
            dest=request.dest,
            tag=request.tag,
            payload=copy_payload(request.payload),
            nbytes=nbytes,
            seq=ctx.seq,
            park_time=now,
            send_time=now,
            handle=handle,
        )
        for slot in dst.receive_slots():
            if slot.msg is None and self._slot_accepts(slot, ps):
                if handle is not None:
                    ctx.schedule(now, src.rank, handle.handle_id)
                slot.msg = self.start_transfer(ctx, ps, handshake=now)
                if slot.waiting:
                    ctx.complete_receive(dst, slot)
                return
        dst.parked.append(ps)
        if handle is not None:
            ctx.schedule(now, src.rank, handle.handle_id)  # isend returns at once
        # A blocking sender stays parked: no event until the handshake.

    def match_posted_receive(self, ctx, dst, slot):
        """Bind the first parked sender that ``slot`` accepts, if any."""
        for i, ps in enumerate(dst.parked):
            if self._slot_accepts(slot, ps):
                dst.parked.pop(i)
                handshake = max(dst.clock, ps.park_time)
                slot.msg = self.start_transfer(ctx, ps, handshake)
                return

    @staticmethod
    def _slot_accepts(slot: ReceiveSlot, ps: ParkedSend) -> bool:
        return slot.source in (ANY_SOURCE, ps.source) and slot.tag in (ANY_TAG, ps.tag)

    def start_transfer(self, ctx, ps: ParkedSend, handshake: float) -> InFlight:
        """The handshake happened: start the wire transfer, release (or
        complete the handle of) the sender."""
        arrival = ctx.arrival(ps.source, ps.dest, ps.nbytes, handshake)
        overhead = ctx.overhead(ps.source, ps.dest)
        src = ctx.rank_state(ps.source)
        src.stats.messages_sent += 1
        src.stats.bytes_sent += ps.nbytes
        sender_clear = handshake + overhead
        tracing = ctx.tracer.enabled
        wire = None
        # The handshake is *binding* when the receiver's post (not the
        # sender's own park) released the transfer; the chain then
        # continues on the receiver's timeline at the handshake.
        binding = handshake > ps.park_time
        if ps.handle is None:
            # The sender was blocked from park_time to the handshake,
            # then pays its startup overhead.
            src.stats.comm_time += (handshake - ps.park_time) + overhead
            if tracing:
                phase = ctx.phase(src.rank)
                if binding:
                    ctx.tracer.span(
                        src.rank,
                        RNDV_WAIT,
                        ps.park_time,
                        handshake,
                        name=phase,
                        peer=ps.dest,
                        tag=ps.tag,
                        nbytes=ps.nbytes,
                        cause=SpanCause(kind="rank", src_rank=ps.dest, src_time=handshake),
                    )
                sid = ctx.tracer.span(
                    src.rank,
                    SEND,
                    handshake,
                    sender_clear,
                    name=phase,
                    peer=ps.dest,
                    tag=ps.tag,
                    nbytes=ps.nbytes,
                )
                wire = SpanCause(
                    kind="msg",
                    src_rank=ps.source,
                    src_time=sender_clear,
                    src_sid=sid,
                    wire_start=sender_clear,
                    wire_min_end=ctx.alphabeta_arrival(ps.source, ps.dest, ps.nbytes, handshake),
                )
            src.clock = sender_clear
            ctx.schedule(sender_clear, src.rank, None)
        else:
            if tracing:
                # No sender-side span: an isending rank kept running
                # past the park, so recording here would break its
                # chronological span order.  The chain instead jumps
                # straight to whichever rank bound the handshake.
                binder = SpanCause(
                    kind="rank",
                    src_rank=ps.dest if binding else ps.source,
                    src_time=handshake if binding else ps.park_time,
                )
                ps.handle.hs_cause = binder
                wire = SpanCause(
                    kind="msg",
                    src_rank=binder.src_rank,
                    src_time=binder.src_time,
                    src_sid=-1,
                    wire_start=handshake,
                    wire_min_end=ctx.alphabeta_arrival(ps.source, ps.dest, ps.nbytes, handshake),
                )
            ps.handle.complete_at = sender_clear
            if ps.handle.waiting:
                ctx.complete_send(src, ps.handle)
        return InFlight(
            dest=ps.dest,
            source=ps.source,
            tag=ps.tag,
            payload=ps.payload,
            nbytes=ps.nbytes,
            arrival_time=arrival,
            seq=ps.seq,
            send_time=ps.send_time,
            wire=wire,
        )
