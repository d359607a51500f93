"""Fixture: W011 not-analysable -- a program the interpreter cannot
evaluate is reported once, at its definition, naming the construct,
instead of passing every rule silently."""


def bad_walrus_guard(comm):  # BAD
    if (peer := comm.rank ^ 1) < comm.size:
        yield from comm.send(None, peer, tag=0)
        yield from comm.recv(source=peer, tag=0)


def bad_match_statement(comm, mode):  # BAD
    match mode:
        case "barrier":
            yield from comm.barrier()
        case _:
            yield from comm.allreduce(1.0)


def good_plain_guard(comm):
    peer = comm.rank ^ 1
    if peer < comm.size:
        yield from comm.send(None, peer, tag=0)
        yield from comm.recv(source=peer, tag=0)
