"""Fault injection: rank failures, survivor behaviour, checkpoint/restart."""

import numpy as np
import pytest

from repro.machine import FullyConnected, LinkModel, Machine, NodeSpec, touchstone_delta
from repro.simmpi import Engine
from repro.util.errors import ConfigurationError, DeadlockError


def toy_machine(n):
    return Machine(
        name="toy",
        node=NodeSpec("toy", peak_flops=1e8, memory_bytes=1e9, sustained_fraction=1.0),
        topology=FullyConnected(n),
        link=LinkModel(latency_s=1e-5, bandwidth_bytes_per_s=1e8),
    )


class TestFailureSemantics:
    def test_independent_survivors_complete(self):
        """Ranks that never talk to the dead node finish normally."""

        def program(comm):
            yield from comm.compute(seconds=2.0)
            return comm.rank

        engine = Engine(toy_machine(3), 3, fail_at={2: 1.0})
        result = engine.run(program)
        assert result.returns[:2] == [0, 1]
        assert result.returns[2] is None
        assert result.failed_ranks == [2]

    def test_failed_rank_clock_frozen(self):
        def program(comm):
            yield from comm.compute(seconds=5.0)
            return comm.rank

        engine = Engine(toy_machine(2), 2, fail_at={1: 1.0})
        result = engine.run(program)
        assert result.stats[1].finish_time == pytest.approx(1.0)
        assert result.stats[0].finish_time == pytest.approx(5.0)

    def test_dependent_survivor_deadlocks(self):
        """Waiting for a dead sender surfaces loudly, naming the failure."""

        def program(comm):
            if comm.rank == 0:
                yield from comm.compute(seconds=2.0)
                yield from comm.send("late", dest=1)
                return None
            msg = yield from comm.recv(source=0)
            return msg.payload

        engine = Engine(toy_machine(2), 2, fail_at={0: 1.0})
        with pytest.raises(DeadlockError, match="injected failures"):
            engine.run(program)

    def test_messages_already_sent_still_deliver(self):
        """In-flight messages were on the wire when the node died."""

        def program(comm):
            if comm.rank == 0:
                yield from comm.send("sent-before-death", dest=1)
                yield from comm.compute(seconds=10.0)  # dies in here
                return None
            msg = yield from comm.recv(source=0)
            return msg.payload

        engine = Engine(toy_machine(2), 2, fail_at={0: 1.0})
        result = engine.run(program)
        assert result.returns[1] == "sent-before-death"
        assert result.failed_ranks == [0]

    def test_failure_after_finish_is_noop(self):
        def program(comm):
            yield from comm.compute(seconds=0.5)
            return comm.rank

        engine = Engine(toy_machine(2), 2, fail_at={0: 100.0})
        result = engine.run(program)
        assert result.failed_ranks == []
        assert result.returns == [0, 1]

    def test_failure_while_blocked(self):
        """A blocked rank can die; its partner continues unaffected."""

        def program(comm):
            if comm.rank == 1:
                yield from comm.recv(source=0)  # never satisfied
                return "unreachable"
            yield from comm.compute(seconds=3.0)
            return "survivor"

        engine = Engine(toy_machine(2), 2, fail_at={1: 1.0})
        result = engine.run(program)
        assert result.returns[0] == "survivor"
        assert result.failed_ranks == [1]

    def test_multiple_failures(self):
        def program(comm):
            yield from comm.compute(seconds=2.0)
            return comm.rank

        engine = Engine(toy_machine(4), 4, fail_at={1: 0.5, 3: 1.0})
        result = engine.run(program)
        assert result.failed_ranks == [1, 3]
        assert result.returns == [0, None, 2, None]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            Engine(toy_machine(2), 2, fail_at={5: 1.0})
        with pytest.raises(ConfigurationError):
            Engine(toy_machine(2), 2, fail_at={0: -1.0})

    def test_nan_failure_time_rejected(self):
        # A nan time compares false against everything: unchecked, it
        # would reach the event heap, which cannot order it.
        with pytest.raises(ConfigurationError):
            Engine(toy_machine(2), 2, fail_at={0: float("nan")})


class TestCheckpointRestart:
    """The application-level answer to node failures, demonstrated on
    the CFD kernel: checkpoint the field, lose a run to a fault, resume
    from the checkpoint, and land exactly where an uninterrupted run
    would."""

    def test_restart_reproduces_uninterrupted_run(self):
        from repro.apps.cfd import CFDConfig, distributed_run, gaussian_blob

        cfg = CFDConfig(nx=16, ny=16, dt=0.05)
        u0 = gaussian_blob(cfg)
        machine = touchstone_delta().subset(4)

        # Uninterrupted 10-step reference.
        reference = distributed_run(machine, 4, u0, cfg, 10).field

        # Checkpoint at step 6 (a completed clean prefix)...
        checkpoint = distributed_run(machine, 4, u0, cfg, 6).field
        # ... the 10-step attempt "fails" (simulated by discarding it);
        # restart from the checkpoint for the remaining 4 steps.
        resumed = distributed_run(machine, 4, checkpoint, cfg, 4).field

        assert np.array_equal(resumed, reference)

    def test_fault_interrupts_halo_code(self):
        """Killing a rank mid-halo-exchange deadlocks the neighbours --
        the reason checkpointing mattered."""
        from repro.apps.cfd import CFDConfig, cfd_program, gaussian_blob

        cfg = CFDConfig(nx=16, ny=16, dt=0.05)
        u0 = gaussian_blob(cfg)
        machine = touchstone_delta().subset(4)
        engine = Engine(machine, 4, fail_at={2: 1e-4})
        with pytest.raises(DeadlockError):
            engine.run(cfd_program, u0, cfg, 10)
