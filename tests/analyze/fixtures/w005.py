"""Fixture: W005 (alias of W007) -- a send tag no receive listens on
(or a recv tag no send uses) can never match."""


def bad_tag_mismatch(comm, payload):
    if comm.rank == 0:
        yield from comm.send(payload, 1, tag=3)  # BAD
    else:
        msg = yield from comm.recv(source=0, tag=4)  # BAD
        return msg.payload
    return None


def good_matching_tags(comm, payload):
    if comm.rank == 0:
        yield from comm.send(payload, 1, tag=3)
    else:
        msg = yield from comm.recv(source=0, tag=3)
        return msg.payload
    return None


def good_wildcard_tag_recv(comm, payload):
    if comm.rank == 0:
        yield from comm.send(payload, 1, tag=5)
    else:
        msg = yield from comm.recv(source=0)
        return msg.payload
    return None
