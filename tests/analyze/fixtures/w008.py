"""Fixture: W008 collective-divergence -- cross-rank sequence
comparison.  Neither bad program branches on the rank around a
collective call (the plain case, in ``w003.py``): one diverges through
a rank-dependent *trip count*, the other through a rank-dependent
*algorithm* argument.  Both need the instantiated whole-program
collective sequences side by side to detect."""


def bad_rank_trip_count(comm):
    for _ in range(comm.rank):
        yield from comm.barrier()  # BAD: rank r issues r barriers
    total = yield from comm.allreduce(1.0)
    return total


def bad_algorithm_split(comm, value):
    algo = "tree" if comm.rank % 2 == 0 else "ring"
    out = yield from comm.bcast(value, root=0, algorithm=algo)  # BAD
    return out


def good_uniform_sequence(comm, value, verbose):
    if verbose:  # opaque but rank-independent: all ranks agree
        yield from comm.barrier()
    out = yield from comm.bcast(value, root=0, algorithm="tree")
    total = yield from comm.allreduce(1.0)
    return out, total
