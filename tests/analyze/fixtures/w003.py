"""Fixture: W003 (alias of W008) -- a collective inside a
``comm.rank``-conditional branch deadlocks the ranks that skip it."""


def bad_root_only_bcast(comm):
    if comm.rank == 0:
        total = yield from comm.bcast(42, root=0)  # BAD
    else:
        total = None
    return total


def good_unconditional_bcast(comm):
    value = 42 if comm.rank == 0 else None
    total = yield from comm.bcast(value, root=0)
    return total


def good_data_conditional_barrier(comm, synchronise):
    if synchronise:
        yield from comm.barrier()
    yield from comm.compute(seconds=1.0)
