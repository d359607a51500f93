"""Cross-cutting engine invariants, property-tested over random
communication patterns."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine import FullyConnected, LinkModel, Machine, Mesh2D, NodeSpec
from repro.simmpi import ANY_SOURCE, ANY_TAG, Engine, run_program
from repro.util.errors import SimulationError


def toy_machine(n, topology=None):
    return Machine(
        name="toy",
        node=NodeSpec("toy", peak_flops=1e8, memory_bytes=1e9, sustained_fraction=1.0),
        topology=topology or FullyConnected(n),
        link=LinkModel(latency_s=1e-5, bandwidth_bytes_per_s=1e8),
    )


def random_traffic_program(plan):
    """Build a program executing a deterministic random plan.

    ``plan[rank]`` is a list of ("send", dest, nbytes) / ("compute",
    seconds) actions followed by the receives needed to drain inbound
    messages (computed by the caller).
    """

    def program(comm):
        sends, recv_count = plan[comm.rank]
        for action in sends:
            if action[0] == "send":
                _, dest, nbytes = action
                yield from comm.send(None, dest, tag=0, nbytes=nbytes)
            else:
                yield from comm.compute(seconds=action[1])
        for _ in range(recv_count):
            yield from comm.recv(tag=0)
        return comm.rank

    return program


def build_plan(rng, p):
    """Random sends + compute, with matching receive counts."""
    inbound = [0] * p
    plan = []
    for rank in range(p):
        actions = []
        for _ in range(rng.integers(0, 5)):
            if rng.random() < 0.6:
                dest = int(rng.integers(0, p))
                if dest == rank:
                    continue
                nbytes = float(rng.integers(0, 10_000))
                actions.append(("send", dest, nbytes))
                inbound[dest] += 1
            else:
                actions.append(("compute", float(rng.random()) * 1e-3))
        plan.append(actions)
    return [(plan[r], inbound[r]) for r in range(p)]


@settings(max_examples=25, deadline=None)
@given(p=st.integers(2, 8), seed=st.integers(0, 10_000))
def test_property_accounting_conservation(p, seed):
    """Bytes/messages sent equal bytes/messages received; clocks are
    non-negative; makespan bounds every rank's busy time."""
    rng = np.random.default_rng(seed)
    plan = build_plan(rng, p)
    result = run_program(toy_machine(p), p, random_traffic_program(plan))

    sent = sum(s.messages_sent for s in result.stats)
    received = sum(s.messages_received for s in result.stats)
    assert sent == received
    assert sum(s.bytes_sent for s in result.stats) == pytest.approx(
        sum(s.bytes_received for s in result.stats)
    )
    assert result.time >= 0
    for s in result.stats:
        assert s.compute_time >= 0 and s.comm_time >= 0
        assert s.finish_time <= result.time + 1e-12
        assert s.busy_time <= result.time + 1e-9


@settings(max_examples=25, deadline=None)
@given(p=st.integers(2, 8), seed=st.integers(0, 10_000))
def test_property_determinism(p, seed):
    """Identical seeds and plans give identical outcomes."""
    rng = np.random.default_rng(seed)
    plan = build_plan(rng, p)
    a = run_program(toy_machine(p), p, random_traffic_program(plan), seed=seed)
    b = run_program(toy_machine(p), p, random_traffic_program(plan), seed=seed)
    assert a.time == b.time
    assert a.returns == b.returns
    for sa, sb in zip(a.stats, b.stats):
        assert sa == sb


@settings(max_examples=15, deadline=None)
@given(p=st.integers(2, 8), seed=st.integers(0, 10_000))
def test_property_topology_only_slows(p, seed):
    """The same traffic on a mesh (multi-hop) never beats the crossbar
    when per-hop latency is charged."""
    rng = np.random.default_rng(seed)
    plan = build_plan(rng, p)
    crossbar = Machine(
        name="xbar",
        node=NodeSpec("n", peak_flops=1e8, memory_bytes=1e9),
        topology=FullyConnected(p),
        link=LinkModel(latency_s=1e-5, bandwidth_bytes_per_s=1e8, per_hop_s=1e-6),
    )
    mesh = Machine(
        name="mesh",
        node=NodeSpec("n", peak_flops=1e8, memory_bytes=1e9),
        topology=Mesh2D(1, p),
        link=LinkModel(latency_s=1e-5, bandwidth_bytes_per_s=1e8, per_hop_s=1e-6),
    )
    fast = run_program(crossbar, p, random_traffic_program(plan))
    slow = run_program(mesh, p, random_traffic_program(plan))
    assert slow.time >= fast.time - 1e-12


@settings(max_examples=15, deadline=None)
@given(
    p=st.integers(2, 6),
    latency=st.floats(1e-6, 1e-3),
    seed=st.integers(0, 1000),
)
def test_property_latency_monotone(p, latency, seed):
    """Doubling the link latency never speeds a run up."""
    rng = np.random.default_rng(seed)
    plan = build_plan(rng, p)

    def machine(lat):
        return Machine(
            name="m",
            node=NodeSpec("n", peak_flops=1e8, memory_bytes=1e9),
            topology=FullyConnected(p),
            link=LinkModel(latency_s=lat, bandwidth_bytes_per_s=1e8),
        )

    base = run_program(machine(latency), p, random_traffic_program(plan))
    slower = run_program(machine(2 * latency), p, random_traffic_program(plan))
    assert slower.time >= base.time - 1e-12


# ---------------------------------------------------------------------------
# traced == untraced over mixed blocking/non-blocking traffic
# ---------------------------------------------------------------------------

def build_mixed_plan(rng, p):
    """Random sends, isends and computes on nonzero tags, plus drains
    that receive every inbound message.

    ``plan[rank]`` is ``(actions, drains)``.  An action is
    ``("compute", seconds)``, ``("send", dest, tag, nbytes)`` or
    ``("isend", dest, tag, nbytes, late)``; a late isend is waited on
    after the drains, the others before them.  Message sizes straddle
    1000 bytes, so a 1000-byte eager threshold splits them.  A drain is
    ``(mode, receives)`` with mode ``"recv"`` (blocking receives) or
    ``"waitany"`` (irecvs posted together, completed by waitany); its
    receives are ``(source, tag)``, exact or ``ANY_SOURCE, ANY_TAG``.
    Every exact receive is posted before any wildcard one, so an exact
    receive always finds its message; only rendezvous ordering can
    deadlock, and then both runs must deadlock alike.
    """
    inbound = [[] for _ in range(p)]
    plan = []
    for rank in range(p):
        actions = []
        for _ in range(rng.integers(0, 6)):
            roll = rng.random()
            if roll < 0.3:
                actions.append(("compute", float(rng.random()) * 1e-3))
                continue
            dest = int(rng.integers(0, p))
            if dest == rank:
                continue
            tag = int(rng.integers(0, 4))
            nbytes = float(rng.choice([0, rng.integers(1, 1000), rng.integers(1000, 10_000)]))
            if roll < 0.6:
                actions.append(("send", dest, tag, nbytes))
            else:
                actions.append(("isend", dest, tag, nbytes, bool(rng.random() < 0.5)))
            inbound[dest].append((rank, tag))
        plan.append(actions)
    out = []
    for rank in range(p):
        exact, wild = [], []
        for source, tag in inbound[rank]:
            if rng.random() < 0.5:
                exact.append((source, tag))
            else:
                wild.append((ANY_SOURCE, ANY_TAG))
        drains = [
            ("waitany" if rng.random() < 0.5 else "recv", part)
            for part in (exact, wild)
            if part
        ]
        out.append((plan[rank], drains))
    return out


def mixed_traffic_program(plan):
    def program(comm):
        actions, drains = plan[comm.rank]
        early, late = [], []
        for action in actions:
            if action[0] == "compute":
                yield from comm.compute(seconds=action[1])
            elif action[0] == "send":
                _, dest, tag, nbytes = action
                yield from comm.send(None, dest, tag=tag, nbytes=nbytes)
            else:
                _, dest, tag, nbytes, is_late = action
                handle = yield from comm.isend(None, dest, tag=tag, nbytes=nbytes)
                (late if is_late else early).append(handle)
        for handle in early:
            yield from comm.wait(handle)
        got = []
        for mode, receives in drains:
            if mode == "recv":
                for source, tag in receives:
                    msg = yield from comm.recv(source, tag)
                    got.append((msg.source, msg.tag, msg.arrival_time))
            else:
                handles = []
                for source, tag in receives:
                    handle = yield from comm.irecv(source, tag)
                    handles.append(handle)
                while handles:
                    index, msg = yield from comm.waitany(handles)
                    handles.pop(index)
                    got.append((msg.source, msg.tag, msg.arrival_time))
        for handle in late:
            yield from comm.wait(handle)
        return got

    return program


def _outcome(machine, p, program, **kwargs):
    try:
        res = Engine(machine, p, **kwargs).run(program)
    except SimulationError as exc:
        return type(exc), str(exc)
    return res.time, list(res.stats), res.returns, res.events


@settings(max_examples=30, deadline=None)
@given(p=st.integers(2, 6), seed=st.integers(0, 10_000))
def test_property_tracing_changes_no_number(p, seed):
    """A traced run gives the untraced run's makespan, per-rank stats,
    returns and event count (or the same exception), for each eager
    threshold and delivery model: tracing only records."""
    rng = np.random.default_rng(seed)
    program = mixed_traffic_program(build_mixed_plan(rng, p))
    machine = toy_machine(p, Mesh2D(1, p))
    for eager in (0, 1000, float("inf")):
        for delivery in ("alphabeta", "contention"):
            kwargs = dict(eager_threshold_bytes=eager, delivery=delivery)
            plain = _outcome(machine, p, program, **kwargs)
            traced = _outcome(machine, p, program, trace=True, **kwargs)
            assert traced == plain, (eager, delivery)
