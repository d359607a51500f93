"""Fixture: W007 unmatched-send -- cross-rank matching.  Every rank
tags its message with its *own* rank but listens for its own rank too,
so the inbound message (tagged with the sender's rank) never matches
any posted receive.  Tags are computed, so no per-rank constant-tag
check could see the mismatch; only whole-program instantiation
does.  Payloads are ``None`` (always eager), so the schedule completes
in the abstract executor and W009 stays silent."""


def bad_tag_skewed_ring(comm):
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    h = yield from comm.irecv(source=left, tag=comm.rank)  # BAD: arrives tagged `left`
    yield from comm.send(None, right, tag=comm.rank)  # BAD: nobody listens for this tag
    msg = yield from comm.wait(h)
    return msg.payload


def good_tagged_ring(comm):
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    h = yield from comm.irecv(source=left, tag=left)
    yield from comm.send(None, right, tag=comm.rank)
    msg = yield from comm.wait(h)
    return msg.payload
