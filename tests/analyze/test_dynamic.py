"""Static proof -> dynamic proof: confirm_deadlock reproduces W009.

The programs are two-rank exchanges (``1 - comm.rank``), so the linter
runs at ``n_ranks=2``.  Its symbolic replay proves the symmetric
exchange deadlocks; ``confirm_deadlock`` runs the program under forced
rendezvous (eager threshold zero) and hands back the engine's
DeadlockError -- wait-for cycle included -- or ``None`` for the safe
variants.
"""

from repro.analyze import analyze_program, confirm_deadlock


def symmetric_exchange(comm):
    other = 1 - comm.rank
    yield from comm.send(b"x" * 2048, other, tag=0, nbytes=2048)
    msg = yield from comm.recv(source=other, tag=0)
    return msg.payload


def parity_ordered_exchange(comm):
    other = 1 - comm.rank
    if comm.rank % 2 == 0:
        yield from comm.send(b"x" * 2048, other, tag=0, nbytes=2048)
        msg = yield from comm.recv(source=other, tag=0)
    else:
        msg = yield from comm.recv(source=other, tag=0)
        yield from comm.send(b"x" * 2048, other, tag=0, nbytes=2048)
    return msg.payload


def preposted_exchange(comm):
    other = 1 - comm.rank
    h = yield from comm.irecv(source=other, tag=0)
    yield from comm.send(b"x" * 2048, other, tag=0, nbytes=2048)
    msg = yield from comm.wait(h)
    return msg.payload


class TestConfirmDeadlock:
    def test_flagged_program_actually_deadlocks(self):
        findings = analyze_program(symmetric_exchange, n_ranks=2)
        assert [f.rule for f in findings] == ["W009"]
        err = confirm_deadlock(symmetric_exchange, n_ranks=2)
        assert err is not None
        assert err.cycle == [0, 1, 0]

    def test_parity_fix_survives_forced_rendezvous(self):
        assert analyze_program(parity_ordered_exchange, n_ranks=2) == []
        assert confirm_deadlock(parity_ordered_exchange, n_ranks=2) is None

    def test_prepost_fix_survives_forced_rendezvous(self):
        assert analyze_program(preposted_exchange, n_ranks=2) == []
        assert confirm_deadlock(preposted_exchange, n_ranks=2) is None

    def test_cannon_shift_survives_forced_rendezvous(self):
        """The shipped Cannon program (fixed in this change to pre-post
        its shift receives) must be rendezvous-safe end to end."""
        import numpy as np

        from repro.linalg.cannon import cannon_program

        rng = np.random.default_rng(0)
        a = rng.standard_normal((4, 4))
        b = rng.standard_normal((4, 4))
        assert confirm_deadlock(cannon_program, 2, a, b, n_ranks=4) is None
