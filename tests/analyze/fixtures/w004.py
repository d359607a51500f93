"""Fixture: W004 (alias of W009) -- every rank sends to a
rank-symmetric peer before receiving, so above the eager threshold all
ranks park in the rendezvous handshake (the classic Delta deadlock)."""


def bad_symmetric_exchange(comm, payload):
    other = 1 - comm.rank
    yield from comm.send(payload, other, tag=0, nbytes=4096)  # BAD
    msg = yield from comm.recv(source=other, tag=0)
    return msg.payload


def good_parity_ordered_exchange(comm, payload):
    other = 1 - comm.rank
    if comm.rank % 2 == 0:
        yield from comm.send(payload, other, tag=0, nbytes=4096)
        msg = yield from comm.recv(source=other, tag=0)
    else:
        msg = yield from comm.recv(source=other, tag=0)
        yield from comm.send(payload, other, tag=0, nbytes=4096)
    return msg.payload


def good_preposted_exchange(comm, payload):
    other = 1 - comm.rank
    h = yield from comm.irecv(source=other, tag=0)
    yield from comm.send(payload, other, tag=0, nbytes=4096)
    msg = yield from comm.wait(h)
    return msg.payload
