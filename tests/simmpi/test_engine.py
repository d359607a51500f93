"""Engine semantics: point-to-point messaging, timing, deadlock."""

import ast
import inspect

import numpy as np
import pytest

from repro.machine import (
    FullyConnected,
    LinkModel,
    Machine,
    Mesh2D,
    NodeSpec,
)
from repro.simmpi import ANY_SOURCE, Engine, run_program
from repro.simmpi import engine as engine_mod
from repro.simmpi import macro as macro_mod
from repro.simmpi import protocol as protocol_mod
from repro.util.errors import (
    CommunicationError,
    ConfigurationError,
    DeadlockError,
    SimulationError,
)


def toy_machine(n=8, latency=1e-4, bandwidth=1e7, per_hop=0.0, topology=None):
    """Small machine with round-number link parameters for exact timing
    assertions."""
    return Machine(
        name="toy",
        node=NodeSpec("toy-cpu", peak_flops=1e8, memory_bytes=1e9, sustained_fraction=1.0),
        topology=topology or FullyConnected(n),
        link=LinkModel(latency_s=latency, bandwidth_bytes_per_s=bandwidth, per_hop_s=per_hop),
    )


class TestBasicMessaging:
    def test_ping(self):
        def program(comm):
            if comm.rank == 0:
                yield from comm.send(123, dest=1, tag=5)
                return None
            msg = yield from comm.recv(source=0, tag=5)
            return msg.payload

        result = run_program(toy_machine(2), 2, program)
        assert result.returns == [None, 123]

    def test_message_metadata(self):
        def program(comm):
            if comm.rank == 0:
                yield from comm.send("hello", dest=1, tag=9)
                return None
            msg = yield from comm.recv()
            return (msg.source, msg.tag, msg.payload)

        result = run_program(toy_machine(2), 2, program)
        assert result.returns[1] == (0, 9, "hello")

    def test_numpy_payload_copied_on_send(self):
        """Buffered semantics: mutating after send must not corrupt."""

        def program(comm):
            if comm.rank == 0:
                data = np.ones(4)
                yield from comm.send(data, dest=1)
                data[:] = -1.0
                return None
            msg = yield from comm.recv(source=0)
            return msg.payload.copy()

        result = run_program(toy_machine(2), 2, program)
        assert np.array_equal(result.returns[1], np.ones(4))

    def test_fifo_per_pair(self):
        """Two same-tag messages arrive in send order."""

        def program(comm):
            if comm.rank == 0:
                yield from comm.send("first", dest=1, tag=1)
                yield from comm.send("second", dest=1, tag=1)
                return None
            a = yield from comm.recv(source=0, tag=1)
            b = yield from comm.recv(source=0, tag=1)
            return (a.payload, b.payload)

        result = run_program(toy_machine(2), 2, program)
        assert result.returns[1] == ("first", "second")

    def test_fifo_no_overtaking_large_then_small(self):
        """A large message sent first is not overtaken by a small one."""

        def program(comm):
            if comm.rank == 0:
                yield from comm.send(np.zeros(100_000), dest=1, tag=1)
                yield from comm.send("small", dest=1, tag=1)
                return None
            first = yield from comm.recv(source=0, tag=1)
            return isinstance(first.payload, np.ndarray)

        result = run_program(toy_machine(2), 2, program)
        assert result.returns[1] is True

    def test_tag_selectivity(self):
        def program(comm):
            if comm.rank == 0:
                yield from comm.send("a", dest=1, tag=1)
                yield from comm.send("b", dest=1, tag=2)
                return None
            msg2 = yield from comm.recv(source=0, tag=2)
            msg1 = yield from comm.recv(source=0, tag=1)
            return (msg2.payload, msg1.payload)

        result = run_program(toy_machine(2), 2, program)
        assert result.returns[1] == ("b", "a")

    def test_any_source(self):
        def program(comm):
            if comm.rank in (0, 1):
                yield from comm.send(comm.rank, dest=2, tag=0)
                return None
            got = []
            for _ in range(2):
                msg = yield from comm.recv(source=ANY_SOURCE)
                got.append(msg.source)
            return sorted(got)

        result = run_program(toy_machine(3), 3, program)
        assert result.returns[2] == [0, 1]

    def test_send_to_self(self):
        def program(comm):
            yield from comm.send("me", dest=comm.rank, tag=3)
            msg = yield from comm.recv(source=comm.rank, tag=3)
            return msg.payload

        result = run_program(toy_machine(1), 1, program)
        assert result.returns == ["me"]

    def test_sendrecv_ring_shift(self):
        def program(comm):
            right = (comm.rank + 1) % comm.size
            left = (comm.rank - 1) % comm.size
            msg = yield from comm.sendrecv(comm.rank, dest=right, source=left)
            return msg.payload

        result = run_program(toy_machine(5), 5, program)
        assert result.returns == [4, 0, 1, 2, 3]


class TestTiming:
    def test_single_message_time(self):
        """recv completes at alpha + bytes/bw for a 1-hop message."""

        def program(comm):
            if comm.rank == 0:
                yield from comm.send(None, dest=1, nbytes=1e7)
            else:
                yield from comm.recv(source=0)

        result = run_program(toy_machine(2, latency=1e-4, bandwidth=1e7), 2, program)
        assert result.time == pytest.approx(1e-4 + 1.0)

    def test_compute_flops_charged_at_peak(self):
        def program(comm):
            yield from comm.compute(flops=1e8, efficiency=1.0)

        result = run_program(toy_machine(1), 1, program)
        assert result.time == pytest.approx(1.0)

    def test_compute_seconds(self):
        def program(comm):
            yield from comm.compute(seconds=2.5)

        result = run_program(toy_machine(1), 1, program)
        assert result.time == pytest.approx(2.5)

    def test_hop_count_affects_time(self):
        topo = Mesh2D(1, 8)  # line: 0 .. 7

        def program(comm):
            if comm.rank == 0:
                yield from comm.send(None, dest=comm.size - 1, nbytes=0)
            elif comm.rank == comm.size - 1:
                yield from comm.recv(source=0)

        machine = toy_machine(8, latency=1e-4, per_hop=1e-5, topology=topo)
        result = run_program(machine, 8, program)
        assert result.time == pytest.approx(1e-4 + 7e-5)

    def test_blocked_receive_waits_for_sender(self):
        """Receiver posted at t=0 completes only after sender computes."""

        def program(comm):
            if comm.rank == 0:
                yield from comm.compute(seconds=1.0)
                yield from comm.send(None, dest=1, nbytes=0)
            else:
                yield from comm.recv(source=0)

        result = run_program(toy_machine(2, latency=1e-4), 2, program)
        assert result.time == pytest.approx(1.0 + 1e-4)

    def test_comm_time_accounted_to_blocked_receiver(self):
        def program(comm):
            if comm.rank == 0:
                yield from comm.compute(seconds=1.0)
                yield from comm.send(None, dest=1, nbytes=0)
            else:
                yield from comm.recv(source=0)

        result = run_program(toy_machine(2, latency=1e-4), 2, program)
        assert result.stats[1].comm_time == pytest.approx(1.0 + 1e-4)
        assert result.stats[0].compute_time == pytest.approx(1.0)

    def test_eager_send_does_not_block(self):
        """Sender finishes long before the receiver drains messages."""

        def program(comm):
            if comm.rank == 0:
                yield from comm.send(None, dest=1, nbytes=1e7)
            else:
                yield from comm.compute(seconds=100.0)
                yield from comm.recv(source=0)

        result = run_program(toy_machine(2, latency=1e-4), 2, program)
        assert result.stats[0].finish_time == pytest.approx(1e-4)
        assert result.time == pytest.approx(100.0)

    def test_makespan_is_max_rank_time(self):
        def program(comm):
            yield from comm.compute(seconds=float(comm.rank))

        result = run_program(toy_machine(4), 4, program)
        assert result.time == pytest.approx(3.0)


class TestStats:
    def test_message_counters(self):
        def program(comm):
            if comm.rank == 0:
                yield from comm.send(None, dest=1, nbytes=500)
            else:
                yield from comm.recv(source=0)

        result = run_program(toy_machine(2), 2, program)
        assert result.stats[0].messages_sent == 1
        assert result.stats[0].bytes_sent == 500
        assert result.stats[1].messages_received == 1
        assert result.stats[1].bytes_received == 500
        assert result.total_messages == 1
        assert result.total_bytes == 500

    def test_tracer_records(self):
        def program(comm):
            if comm.rank == 0:
                yield from comm.send(None, dest=1, nbytes=64, tag=4)
            else:
                yield from comm.recv(source=0)

        result = Engine(toy_machine(2), 2, trace=True).run(program)
        assert len(result.tracer.records) == 1
        rec = result.tracer.records[0]
        assert (rec.source, rec.dest, rec.tag, rec.nbytes) == (0, 1, 4, 64)

    def test_tracer_disabled_by_default(self):
        def program(comm):
            if comm.rank == 0:
                yield from comm.send(None, dest=1)
            else:
                yield from comm.recv()

        result = run_program(toy_machine(2), 2, program)
        assert result.tracer.records == []

    def test_parallel_efficiency(self):
        def program(comm):
            yield from comm.compute(seconds=1.0)

        result = run_program(toy_machine(4), 4, program)
        # 4 ranks, each 1s, makespan 1s: perfect efficiency vs 4s serial.
        assert result.parallel_efficiency(serial_time=4.0) == pytest.approx(1.0)


class TestErrors:
    def test_deadlock_detected(self):
        def program(comm):
            yield from comm.recv(source=(comm.rank + 1) % comm.size, tag=99)

        with pytest.raises(DeadlockError):
            run_program(toy_machine(2), 2, program)

    def test_deadlock_message_names_ranks(self):
        def program(comm):
            if comm.rank == 0:
                yield from comm.recv(source=1, tag=7)

        with pytest.raises(DeadlockError, match="rank 0"):
            run_program(toy_machine(2), 2, program)

    def test_invalid_dest(self):
        def program(comm):
            yield from comm.send(None, dest=99)

        with pytest.raises(CommunicationError):
            run_program(toy_machine(2), 2, program)

    def test_invalid_source(self):
        def program(comm):
            yield from comm.recv(source=99)

        with pytest.raises(CommunicationError):
            run_program(toy_machine(2), 2, program)

    def test_non_generator_program(self):
        def program(comm):
            return 42

        with pytest.raises(SimulationError):
            run_program(toy_machine(2), 2, program)

    def test_bad_yield(self):
        def program(comm):
            yield "not-a-request"

        with pytest.raises(CommunicationError):
            run_program(toy_machine(1), 1, program)

    def test_max_events_guard(self):
        def program(comm):
            while True:
                yield from comm.compute(seconds=0.0)

        engine = Engine(toy_machine(1), 1, max_events=100)
        with pytest.raises(SimulationError, match="max_events"):
            engine.run(program)

    def test_too_many_ranks(self):
        with pytest.raises(ConfigurationError):
            Engine(toy_machine(2), 3)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize("op", ["send", "isend"])
    def test_non_finite_message_size_rejected(self, op, bad):
        # Unchecked, a nan size would book nan bytes and arrive at once
        # (nan compares false against every clock); inf never arrives.
        def program(comm):
            if comm.rank == 0:
                if op == "send":
                    yield from comm.send(None, dest=1, nbytes=bad)
                else:
                    handle = yield from comm.isend(None, dest=1, nbytes=bad)
                    yield from comm.wait(handle)
            else:
                yield from comm.recv(source=0)

        with pytest.raises(CommunicationError, match="finite"):
            run_program(toy_machine(2), 2, program)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize("arg", ["flops", "seconds"])
    def test_non_finite_compute_rejected(self, arg, bad):
        def program(comm):
            yield from comm.compute(**{arg: bad})

        with pytest.raises(CommunicationError, match="finite"):
            run_program(toy_machine(2), 2, program)

    def test_bad_rank_map_duplicate(self):
        with pytest.raises(ConfigurationError):
            Engine(toy_machine(4), 2, rank_map=[1, 1])

    def test_bad_rank_map_length(self):
        with pytest.raises(ConfigurationError):
            Engine(toy_machine(4), 2, rank_map=[0, 1, 2])


class TestRankMap:
    def test_placement_changes_time(self):
        topo = Mesh2D(1, 8)

        def program(comm):
            if comm.rank == 0:
                yield from comm.send(None, dest=1, nbytes=0)
            elif comm.rank == 1:
                yield from comm.recv(source=0)

        machine = toy_machine(8, latency=1e-4, per_hop=1e-5, topology=topo)
        adjacent = Engine(machine, 2, rank_map=[0, 1]).run(program)
        far = Engine(machine, 2, rank_map=[0, 7]).run(program)
        assert far.time > adjacent.time
        assert far.time - adjacent.time == pytest.approx(6e-5)


class TestDeterminism:
    def test_identical_runs(self):
        def program(comm):
            noise = comm.rng.random()
            total = yield from comm.allreduce(noise)
            return total

        a = run_program(toy_machine(8), 8, program, seed=3)
        b = run_program(toy_machine(8), 8, program, seed=3)
        assert a.returns == b.returns
        assert a.time == b.time

    def test_per_rank_streams_differ(self):
        def program(comm):
            return comm.rng.random()
            yield  # pragma: no cover

        result = run_program(toy_machine(4), 4, program, seed=1)
        assert len(set(result.returns)) == 4


def _functions_touching(module, attr):
    """``Class.method`` (or ``function``) names in ``module``'s source
    whose body reads or writes the attribute ``attr``."""
    found = set()
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, ast.ClassDef):
            defs = [(f"{node.name}.{fn.name}", fn) for fn in node.body
                    if isinstance(fn, ast.FunctionDef)]
        elif isinstance(node, ast.FunctionDef):
            defs = [(node.name, node)]
        else:
            continue
        for name, fn in defs:
            if any(isinstance(n, ast.Attribute) and n.attr == attr
                   for n in ast.walk(fn)):
                found.add(name)
    return found


class TestOnePointToPointPath:
    """The point-to-point layer exists once: one send handler, one
    rendezvous protocol, one scalar FIFO clamp."""

    def test_send_and_isend_share_one_handler(self, monkeypatch):
        seen = []
        handle = engine_mod._Run._handle_send

        def spy(self, state, request):
            seen.append(type(request).__name__)
            handle(self, state, request)

        monkeypatch.setattr(engine_mod._Run, "_handle_send", spy)

        def program(comm):
            if comm.rank == 0:
                yield from comm.send(1.0, dest=1)
                request = yield from comm.isend(2.0, dest=1)
                yield from comm.wait(request)
            else:
                yield from comm.recv(source=0)
                yield from comm.recv(source=0)

        run_program(toy_machine(2), 2, program)
        assert seen == ["SendReq", "IsendReq"]

    def test_protocol_module_holds_only_rendezvous(self):
        classes = [
            name for name, obj in vars(protocol_mod).items()
            if inspect.isclass(obj) and obj.__module__ == protocol_mod.__name__
        ]
        assert classes == ["RendezvousProtocol"]

    def test_fifo_table_has_one_scalar_writer(self):
        # _Run.arrival is the scalar clamp every message goes through;
        # __init__ creates the table, _fail_rank drops a dead sender's
        # rows, and the closed forms' round primitives write it in bulk.
        touched = (_functions_touching(engine_mod, "_last_arrival")
                   | _functions_touching(macro_mod, "_last_arrival"))
        assert touched == {
            "_Run.__init__", "_Run.arrival", "_Run._fail_rank",
            "_Sched.send_round", "_Sched.round_trip",
        }
