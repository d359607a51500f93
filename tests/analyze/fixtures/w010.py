"""Fixture: W010 mirror-pairing -- a message sent to offset ``+o``
arrives from offset ``-o``, so a straight-line neighbor exchange must
receive from the negated send offsets.  The bad program sends right and
listens right; its messages pile up from the left, unreceived.  Sends
use ``None`` payloads (eager) behind a pre-posted irecv so W009
stays out of the way; W007 also fires here, which is expected --
the unmatched traffic is the *consequence*, the wrong direction is the
*cause*."""


def bad_one_sided_shift(comm):
    right = (comm.rank + 1) % comm.size
    h = yield from comm.irecv(source=right, tag=0)  # wrong direction...
    yield from comm.send(None, right, tag=0)  # BAD: ...so sends and receives both face right
    msg = yield from comm.wait(h)
    return msg.payload


def good_ring_shift(comm):
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    h = yield from comm.irecv(source=left, tag=0)
    yield from comm.send(None, right, tag=0)
    msg = yield from comm.wait(h)
    return msg.payload


def good_symmetric_halo(comm):
    above = (comm.rank - 1) % comm.size
    below = (comm.rank + 1) % comm.size
    h_up = yield from comm.irecv(source=above, tag=1)
    h_down = yield from comm.irecv(source=below, tag=0)
    yield from comm.send(None, above, tag=0)
    yield from comm.send(None, below, tag=1)
    up = yield from comm.wait(h_up)
    down = yield from comm.wait(h_down)
    return up.payload, down.payload
