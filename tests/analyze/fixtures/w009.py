"""Fixture: W009 proved-deadlock -- symbolic rendezvous replay.  The
bad program pairs ranks by XOR and splits on parity, so a syntactic
symmetric-send check skips it (sends under a rank conditional
look like the ordered-parity idiom) -- but *both* arms send before
receiving, so every rank parks in the rendezvous handshake.  Only
replaying the instantiated schedules proves the wait-for cycle.  The
good variants are the two standard repairs: parity ordering and a
pre-posted irecv."""


def bad_parity_both_send_first(comm, payload):
    other = comm.rank ^ 1
    if comm.rank % 2 == 0:
        yield from comm.send(payload, other, tag=0)  # BAD
        msg = yield from comm.recv(source=other, tag=1)
    else:
        yield from comm.send(payload, other, tag=1)  # also blocks; W009 anchors the cycle above
        msg = yield from comm.recv(source=other, tag=0)
    return msg.payload


def good_parity_ordered(comm, payload):
    other = comm.rank ^ 1
    if comm.rank % 2 == 0:
        yield from comm.send(payload, other, tag=0)
        msg = yield from comm.recv(source=other, tag=1)
    else:
        msg = yield from comm.recv(source=other, tag=0)
        yield from comm.send(payload, other, tag=1)
    return msg.payload


def good_preposted(comm, payload):
    other = comm.rank ^ 1
    h = yield from comm.irecv(source=other, tag=0)
    yield from comm.send(payload, other, tag=0)
    msg = yield from comm.wait(h)
    return msg.payload
