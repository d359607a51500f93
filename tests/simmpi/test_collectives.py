"""Collective semantics validated against NumPy references."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine import FullyConnected, LinkModel, Machine, Mesh2D, NodeSpec
from repro.simmpi import run_program
from repro.simmpi.collectives import resolve_op
from repro.util.errors import CommunicationError

SIZES = [1, 2, 3, 4, 5, 7, 8, 16]


def toy_machine(n, topology=None):
    return Machine(
        name="toy",
        node=NodeSpec("toy", peak_flops=1e8, memory_bytes=1e9, sustained_fraction=1.0),
        topology=topology or FullyConnected(n),
        link=LinkModel(latency_s=1e-5, bandwidth_bytes_per_s=1e8),
    )


class TestResolveOp:
    def test_named_ops(self):
        assert resolve_op("sum")(2, 3) == 5
        assert resolve_op("prod")(2, 3) == 6
        assert resolve_op("max")(2, 3) == 3
        assert resolve_op("min")(2, 3) == 2

    def test_array_ops(self):
        a, b = np.array([1.0, 5.0]), np.array([4.0, 2.0])
        assert np.array_equal(resolve_op("max")(a, b), [4.0, 5.0])

    def test_callable_passthrough(self):
        f = lambda a, b: a - b
        assert resolve_op(f) is f

    def test_unknown(self):
        with pytest.raises(CommunicationError):
            resolve_op("xor")


@pytest.mark.parametrize("p", SIZES)
class TestBarrier:
    def test_barrier_synchronises(self, p):
        """After a barrier, no rank's time precedes the slowest arrival."""

        def program(comm):
            yield from comm.compute(seconds=float(comm.rank))
            yield from comm.barrier()

        result = run_program(toy_machine(p), p, program)
        slowest = p - 1.0
        assert all(s.finish_time >= slowest for s in result.stats)


@pytest.mark.parametrize("p", SIZES)
@pytest.mark.parametrize("algorithm", ["tree", "ring", "flat"])
class TestBcast:
    def test_bcast_value(self, p, algorithm):
        def program(comm):
            value = {"n": 42} if comm.rank == 0 else None
            return (yield from comm.bcast(value, root=0, algorithm=algorithm))

        result = run_program(toy_machine(p), p, program)
        assert all(r == {"n": 42} for r in result.returns)

    def test_bcast_nonzero_root(self, p, algorithm):
        root = p - 1

        def program(comm):
            value = comm.rank if comm.rank == root else None
            return (yield from comm.bcast(value, root=root, algorithm=algorithm))

        result = run_program(toy_machine(p), p, program)
        assert all(r == root for r in result.returns)

    def test_bcast_array(self, p, algorithm):
        def program(comm):
            value = np.arange(10.0) if comm.rank == 0 else None
            out = yield from comm.bcast(value, algorithm=algorithm)
            return out.sum()

        result = run_program(toy_machine(p), p, program)
        assert all(r == pytest.approx(45.0) for r in result.returns)


@pytest.mark.parametrize("p", SIZES)
class TestReduce:
    def test_reduce_sum(self, p):
        def program(comm):
            return (yield from comm.reduce(float(comm.rank + 1), op="sum", root=0))

        result = run_program(toy_machine(p), p, program)
        assert result.returns[0] == pytest.approx(p * (p + 1) / 2)
        assert all(r is None for r in result.returns[1:])

    def test_reduce_max_nonzero_root(self, p):
        root = p // 2

        def program(comm):
            return (yield from comm.reduce(comm.rank, op="max", root=root))

        result = run_program(toy_machine(p), p, program)
        assert result.returns[root] == p - 1

    def test_reduce_arrays(self, p):
        def program(comm):
            return (yield from comm.reduce(np.full(3, float(comm.rank)), root=0))

        result = run_program(toy_machine(p), p, program)
        expected = np.full(3, sum(range(p)), dtype=float)
        assert np.allclose(result.returns[0], expected)


@pytest.mark.parametrize("p", SIZES)
@pytest.mark.parametrize("algorithm", ["reduce_bcast", "recursive_doubling"])
class TestAllreduce:
    def test_allreduce_sum(self, p, algorithm):
        def program(comm):
            return (yield from comm.allreduce(float(comm.rank + 1), algorithm=algorithm))

        result = run_program(toy_machine(p), p, program)
        assert all(r == pytest.approx(p * (p + 1) / 2) for r in result.returns)

    def test_allreduce_min(self, p, algorithm):
        def program(comm):
            return (yield from comm.allreduce(comm.rank + 10, op="min", algorithm=algorithm))

        result = run_program(toy_machine(p), p, program)
        assert all(r == 10 for r in result.returns)

    def test_allreduce_array(self, p, algorithm):
        def program(comm):
            vec = np.array([comm.rank, -comm.rank], dtype=float)
            return (yield from comm.allreduce(vec, algorithm=algorithm))

        result = run_program(toy_machine(p), p, program)
        total = sum(range(p))
        for r in result.returns:
            assert np.allclose(r, [total, -total])


@pytest.mark.parametrize("p", SIZES)
@pytest.mark.parametrize("algorithm", ["tree", "flat"])
class TestGatherScatter:
    def test_gather(self, p, algorithm):
        def program(comm):
            return (yield from comm.gather(comm.rank * 10, root=0, algorithm=algorithm))

        result = run_program(toy_machine(p), p, program)
        assert result.returns[0] == [10 * r for r in range(p)]
        assert all(r is None for r in result.returns[1:])

    def test_gather_nonzero_root(self, p, algorithm):
        root = p - 1

        def program(comm):
            return (yield from comm.gather(comm.rank, root=root, algorithm=algorithm))

        result = run_program(toy_machine(p), p, program)
        assert result.returns[root] == list(range(p))

    def test_scatter(self, p, algorithm):
        def program(comm):
            values = [i * i for i in range(comm.size)] if comm.rank == 0 else None
            return (yield from comm.scatter(values, root=0, algorithm=algorithm))

        result = run_program(toy_machine(p), p, program)
        assert result.returns == [r * r for r in range(p)]

    def test_scatter_nonzero_root(self, p, algorithm):
        root = p // 2

        def program(comm):
            values = list(range(100, 100 + comm.size)) if comm.rank == root else None
            return (yield from comm.scatter(values, root=root, algorithm=algorithm))

        result = run_program(toy_machine(p), p, program)
        assert result.returns == [100 + r for r in range(p)]

    def test_scatter_roundtrip_gather(self, p, algorithm):
        def program(comm):
            values = list(range(comm.size)) if comm.rank == 0 else None
            mine = yield from comm.scatter(values, root=0, algorithm=algorithm)
            return (yield from comm.gather(mine * 2, root=0, algorithm=algorithm))

        result = run_program(toy_machine(p), p, program)
        assert result.returns[0] == [2 * r for r in range(p)]


@pytest.mark.parametrize("p", SIZES)
@pytest.mark.parametrize("algorithm", ["ring", "gather_bcast"])
class TestAllgather:
    def test_allgather(self, p, algorithm):
        def program(comm):
            return (yield from comm.allgather(comm.rank + 1, algorithm=algorithm))

        result = run_program(toy_machine(p), p, program)
        for r in result.returns:
            assert r == [i + 1 for i in range(p)]

    def test_allgather_arrays(self, p, algorithm):
        def program(comm):
            piece = np.full(2, float(comm.rank))
            parts = yield from comm.allgather(piece, algorithm=algorithm)
            return np.concatenate(parts)

        result = run_program(toy_machine(p), p, program)
        expected = np.repeat(np.arange(p, dtype=float), 2)
        for r in result.returns:
            assert np.array_equal(r, expected)


@pytest.mark.parametrize("p", SIZES)
class TestAlltoall:
    def test_alltoall_transposes(self, p):
        def program(comm):
            values = [f"{comm.rank}->{j}" for j in range(comm.size)]
            return (yield from comm.alltoall(values))

        result = run_program(toy_machine(p), p, program)
        for j, received in enumerate(result.returns):
            assert received == [f"{i}->{j}" for i in range(p)]

    def test_alltoall_wrong_count(self, p):
        def program(comm):
            return (yield from comm.alltoall([0] * (comm.size + 1)))

        with pytest.raises(CommunicationError):
            run_program(toy_machine(p), p, program)


class TestAlgorithmCosts:
    """The whole point of running real message algorithms: costs differ."""

    def test_tree_bcast_beats_flat_at_scale(self):
        def make(algorithm):
            def program(comm):
                value = 0 if comm.rank == 0 else None
                return (yield from comm.bcast(value, algorithm=algorithm))

            return program

        machine = toy_machine(64)
        tree = run_program(machine, 64, make("tree"))
        flat = run_program(machine, 64, make("flat"))
        assert tree.time < flat.time

    def test_tree_bcast_beats_ring(self):
        def make(algorithm):
            def program(comm):
                return (yield from comm.bcast(1, algorithm=algorithm))

            return program

        machine = toy_machine(32)
        tree = run_program(machine, 32, make("tree"))
        ring = run_program(machine, 32, make("ring"))
        assert tree.time < ring.time

    def test_consecutive_collectives_do_not_cross_match(self):
        """Back-to-back barriers with racing ranks stay separate."""

        def program(comm):
            for _ in range(5):
                yield from comm.barrier()
            return comm.rank

        result = run_program(toy_machine(7), 7, program)
        assert result.returns == list(range(7))

    def test_back_to_back_allreduce_values(self):
        def program(comm):
            a = yield from comm.allreduce(comm.rank)
            b = yield from comm.allreduce(a + comm.rank)
            return b

        p = 6
        result = run_program(toy_machine(p), p, program)
        s = sum(range(p))
        assert all(r == p * s + s for r in result.returns)


class TestCollectivesOnMesh:
    def test_allreduce_on_delta_submesh(self):
        machine = toy_machine(16, topology=Mesh2D(4, 4))

        def program(comm):
            return (yield from comm.allreduce(np.float64(comm.rank)))

        result = run_program(machine, 16, program)
        assert all(r == pytest.approx(120.0) for r in result.returns)


@settings(max_examples=15, deadline=None)
@given(p=st.integers(1, 12), root=st.data(), seed=st.integers(0, 2**16))
def test_property_bcast_any_root_any_size(p, root, seed):
    root_rank = root.draw(st.integers(0, p - 1))

    def program(comm):
        value = seed if comm.rank == root_rank else None
        return (yield from comm.bcast(value, root=root_rank))

    result = run_program(toy_machine(p), p, program)
    assert all(r == seed for r in result.returns)


@settings(max_examples=15, deadline=None)
@given(p=st.integers(1, 12),
       values=st.lists(st.floats(-1e6, 1e6), min_size=12, max_size=12))
def test_property_allreduce_matches_numpy(p, values):
    vals = values[:p]

    def program(comm):
        return (yield from comm.allreduce(vals[comm.rank]))

    result = run_program(toy_machine(p), p, program)
    assert all(r == pytest.approx(np.sum(vals), abs=1e-6) for r in result.returns)


_BOGUS_CALLS = {
    "bcast": lambda comm: comm.bcast([1.0], algorithm="bogus"),
    "gather": lambda comm: comm.gather([1.0], algorithm="bogus"),
    "scatter": lambda comm: comm.scatter([[1.0]] * comm.size, algorithm="bogus"),
    "allgather": lambda comm: comm.allgather([1.0], algorithm="bogus"),
    "allreduce": lambda comm: comm.allreduce(1.0, algorithm="bogus"),
    "alltoall": lambda comm: comm.alltoall([[1.0]] * comm.size, algorithm="bogus"),
}


@pytest.mark.parametrize("macro_ops", [True, False])
@pytest.mark.parametrize("p", [1, 4])
@pytest.mark.parametrize("kind", sorted(_BOGUS_CALLS))
def test_unknown_algorithm_raises_at_every_size(kind, p, macro_ops):
    """The algorithm name is validated at the dispatch call, so a
    1-rank communicator (which moves no message) refuses it too."""
    from repro.machine.presets import touchstone_delta

    def program(comm):
        return (yield from _BOGUS_CALLS[kind](comm))

    with pytest.raises(CommunicationError, match=f"unknown {kind} algorithm 'bogus'"):
        run_program(touchstone_delta(), p, program, macro_ops=macro_ops)
