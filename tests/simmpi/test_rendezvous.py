"""Rendezvous protocol: large sends block until the receive is posted."""

import numpy as np
import pytest

from repro.machine import FullyConnected, LinkModel, Machine, NodeSpec
from repro.simmpi import Engine
from repro.util.errors import ConfigurationError, DeadlockError

THRESHOLD = 1024.0


def toy_machine(n):
    return Machine(
        name="toy",
        node=NodeSpec("toy", peak_flops=1e8, memory_bytes=1e9, sustained_fraction=1.0),
        topology=FullyConnected(n),
        link=LinkModel(latency_s=1e-4, bandwidth_bytes_per_s=1e7),
    )


def engine(n, **kwargs):
    return Engine(toy_machine(n), n, eager_threshold_bytes=THRESHOLD, **kwargs)


class TestRendezvousSemantics:
    def test_small_messages_stay_eager(self):
        """Under the threshold nothing changes: symmetric sends work."""

        def program(comm):
            other = 1 - comm.rank
            yield from comm.send(b"x" * 64, other, tag=0)
            msg = yield from comm.recv(source=other, tag=0)
            return len(msg.payload)

        result = engine(2).run(program)
        assert result.returns == [64, 64]

    def test_symmetric_large_sends_deadlock(self):
        """The classic MPI bug: both ranks blocking-send big messages
        first.  Eager mode hides it; rendezvous exposes it."""

        def program(comm):
            other = 1 - comm.rank
            yield from comm.send(b"x" * 4096, other, tag=0)
            yield from comm.recv(source=other, tag=0)

        with pytest.raises(DeadlockError, match="rendezvous"):
            engine(2).run(program)

    def test_same_program_fine_in_eager_mode(self):
        def program(comm):
            other = 1 - comm.rank
            yield from comm.send(b"x" * 4096, other, tag=0)
            yield from comm.recv(source=other, tag=0)

        Engine(toy_machine(2), 2).run(program)  # no threshold: no deadlock

    def test_ordered_exchange_works(self):
        """The textbook fix: order sends/receives by rank parity."""

        def program(comm):
            other = 1 - comm.rank
            payload = bytes([comm.rank]) * 4096
            if comm.rank == 0:
                yield from comm.send(payload, other, tag=0)
                msg = yield from comm.recv(source=other, tag=0)
            else:
                msg = yield from comm.recv(source=other, tag=0)
                yield from comm.send(payload, other, tag=0)
            return msg.payload[0]

        result = engine(2).run(program)
        assert result.returns == [1, 0]

    def test_prepost_irecv_avoids_deadlock(self):
        """The other textbook fix: pre-post the receive."""

        def program(comm):
            other = 1 - comm.rank
            handle = yield from comm.irecv(source=other, tag=0)
            yield from comm.send(b"y" * 4096, other, tag=0)
            msg = yield from comm.wait(handle)
            return len(msg.payload)

        result = engine(2).run(program)
        assert result.returns == [4096, 4096]

    def test_sender_blocks_until_recv_posted(self):
        """Virtual time shows the sender stalled on the handshake."""

        def program(comm):
            if comm.rank == 0:
                yield from comm.send(b"z" * 4096, dest=1, tag=0)
                return "sent"
            yield from comm.compute(seconds=2.0)
            yield from comm.recv(source=0, tag=0)
            return "received"

        result = engine(2).run(program)
        # Sender's finish = handshake (2.0) + latency.
        assert result.stats[0].finish_time == pytest.approx(2.0 + 1e-4)
        assert result.stats[0].comm_time == pytest.approx(2.0 + 1e-4)

    def test_eager_sender_would_not_block(self):
        def program(comm):
            if comm.rank == 0:
                yield from comm.send(b"z" * 4096, dest=1, tag=0)
                return "sent"
            yield from comm.compute(seconds=2.0)
            yield from comm.recv(source=0, tag=0)

        result = Engine(toy_machine(2), 2).run(program)
        assert result.stats[0].finish_time == pytest.approx(1e-4)

    def test_payload_integrity(self):
        def program(comm):
            if comm.rank == 0:
                data = np.arange(1000, dtype=float)  # 8000 bytes > threshold
                yield from comm.send(data, dest=1, tag=3)
                return None
            msg = yield from comm.recv(source=0, tag=3)
            return msg.payload.sum()

        result = engine(2).run(program)
        assert result.returns[1] == pytest.approx(np.arange(1000).sum())

    def test_rendezvous_to_self_deadlocks(self):
        """Blocking large send to self can never complete -- the recv
        would have to be posted by the blocked rank itself (real MPI
        behaviour above the eager threshold)."""

        def program(comm):
            yield from comm.send(b"w" * 4096, dest=comm.rank, tag=0)
            yield from comm.recv(source=comm.rank, tag=0)

        with pytest.raises(DeadlockError):
            engine(1).run(program)

    def test_collectives_still_work_when_under_threshold(self):
        def program(comm):
            return (yield from comm.allreduce(float(comm.rank)))

        result = engine(8).run(program)
        assert all(r == 28.0 for r in result.returns)

    def test_failed_sender_purged(self):
        """A parked sender that dies no longer satisfies a later recv."""

        def program(comm):
            if comm.rank == 0:
                yield from comm.send(b"v" * 4096, dest=1, tag=0)
                return None
            yield from comm.compute(seconds=5.0)  # rank 0 dies at t=1
            yield from comm.recv(source=0, tag=0)

        eng = Engine(
            toy_machine(2), 2,
            eager_threshold_bytes=THRESHOLD, fail_at={0: 1.0},
        )
        with pytest.raises(DeadlockError):
            eng.run(program)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ConfigurationError):
            Engine(toy_machine(2), 2, eager_threshold_bytes=-1.0)

    def test_nan_threshold_rejected(self):
        # A nan threshold compares false against every size: unchecked,
        # it would silently make every message eager.
        with pytest.raises(ConfigurationError):
            Engine(toy_machine(2), 2, eager_threshold_bytes=float("nan"))


class TestProtocolCostDifference:
    def test_rendezvous_adds_handshake_delay_for_late_receiver(self):
        """When the receiver is late, rendezvous delays delivery by the
        full transfer time after the handshake, while eager overlapped
        the wire time with the receiver's compute."""
        nbytes = int(5e6)  # 0.5 s on the wire, >> threshold

        def program(comm):
            if comm.rank == 0:
                yield from comm.send(b"x" * nbytes, dest=1, tag=0)
                return None
            yield from comm.compute(seconds=1.0)
            yield from comm.recv(source=0, tag=0)

        eager = Engine(toy_machine(2), 2).run(program)
        rndv = engine(2).run(program)
        # Eager: transfer overlapped the compute; done shortly after 1 s.
        # Rendezvous: transfer starts at 1 s, ends at ~1.5 s.
        assert rndv.time > eager.time + 0.4
