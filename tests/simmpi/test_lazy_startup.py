"""Lazy bring-up: CommTable, bit identity, faults, and ghost replay.

Bring-up defers every per-rank object -- Comm, rng, generator frame,
RankState -- to the rank's first touch, and (under a macro certificate
with ``closed_form=True``) replays only rank 0 while the columns carry
everyone else.  Materialization never touches a clock or a statistic;
the golden corpus (``test_engine_golden.py``), recorded from the lazy
and eager bring-ups alike, pins the observable outputs of lazy runs
across protocols, delivery models, tracing, and fault injection.
"""

import numpy as np
import pytest

from repro.analyze.certify import certify_macro
from repro.machine import FullyConnected, LinkModel, Machine, NodeSpec
from repro.machine.presets import intel_paragon
from repro.simmpi import Engine, run_program
from repro.simmpi.comm import Comm, CommTable
from repro.simmpi.engine import _Run
from repro.simmpi.state import LazyRankStats, MachineState, RankState
from repro.simmpi.stencil import grid_halo
from repro.simmpi.waitgraph import build_wait_graph
from repro.util.errors import ConfigurationError
from repro.util.rng import RankStreams

from .test_engine_golden import check


def toy_machine(n):
    return Machine(
        name="toy",
        node=NodeSpec("toy", peak_flops=1e8, memory_bytes=1e9, sustained_fraction=1.0),
        topology=FullyConnected(n),
        link=LinkModel(latency_s=1e-5, bandwidth_bytes_per_s=1e8),
    )


def _compute_only(comm):
    acc = float(comm.rng.random())
    yield from comm.compute(seconds=2.0 + comm.rank * 0.25)
    return acc


# ---------------------------------------------------------------------------
# CommTable: the lazy communicator table
# ---------------------------------------------------------------------------

class TestCommTable:
    def _table(self, n=8, seed=0):
        return CommTable(n, toy_machine(n), RankStreams(seed, n))

    def test_bring_up_materializes_nothing(self):
        table = self._table()
        assert table.materialized == 0
        assert all(table.peek(r) is None for r in range(len(table)))

    def test_getitem_materializes_once(self):
        table = self._table()
        comm = table[3]
        assert isinstance(comm, Comm)
        assert table.materialized == 1
        assert table[3] is comm  # cached, not rebuilt
        assert table.materialized == 1
        assert table.peek(3) is comm
        assert table.peek(2) is None

    def test_flags_apply_at_materialization(self):
        table = self._table()
        table.tracing = True
        table.macro = True
        comm = table[0]
        assert comm._tracing is True
        assert comm._macro is True

    def test_lazy_rng_matches_eager_rng(self):
        # The observable that must not drift: a late-built Comm's rng
        # stream is rank r's spawn child of the seed, built directly.
        table = self._table(n=6, seed=42)
        children = np.random.SeedSequence(42).spawn(6)
        for rank in range(6):
            got = table[rank].rng.bit_generator.state
            want = np.random.default_rng(children[rank]).bit_generator.state
            assert got == want


# ---------------------------------------------------------------------------
# lazy bring-up reproduces the eager bring-up's frozen outputs
# ---------------------------------------------------------------------------

class TestLazyEagerBitIdentity:
    """``engine_golden.json`` was recorded while an eager bring-up still
    existed beside the lazy one, and both produced the same record on
    every case; lazy runs must keep reproducing it."""

    @pytest.mark.parametrize("eager_threshold", [float("inf"), 0.0])
    @pytest.mark.parametrize("delivery", ["alphabeta", "contention"])
    def test_protocol_delivery_matrix(self, eager_threshold, delivery):
        eager = "inf" if eager_threshold == float("inf") else "0"
        check(f"mixed/{eager}/{delivery}/trace0/none")

    def test_traced_runs_match_span_for_span(self):
        check("mixed/inf/alphabeta/trace1/none")

    @pytest.mark.parametrize("delivery", ["alphabeta", "contention"])
    def test_fault_injection_matches(self, delivery):
        observed = check(f"toy/two_deaths/{delivery}")
        assert sorted(observed["failed_ranks"]) == [3, 5]

    def test_traced_faulty_rendezvous_matches(self):
        # The full stack at once: rendezvous protocol, tracing, and a
        # mid-run death that the survivors never depend on.
        observed = check("toy/traced_rendezvous_death")
        assert observed["failed_ranks"] == [1]

    def test_deadlock_reporting_matches(self):
        observed = check("toy/needs_dead_peer")
        assert set(observed) == {"deadlock"}

    def test_lazy_event_run_reports_full_materialization(self):
        res = run_program(toy_machine(4), 4, _compute_only)
        # Event-path ranks all resume, so all materialize -- the
        # counter is an observability surface, not a cap.
        assert res.ranks_materialized == 4
        assert res.setup_wall_s >= 0.0
        assert res.execute_wall_s > 0.0


# ---------------------------------------------------------------------------
# faults before materialization (satellite: the None-slot path)
# ---------------------------------------------------------------------------

class TestFaultBeforeMaterialization:
    def test_fail_rank_on_unmaterialized_slot_uses_columns(self):
        # White-box: in a closed-form or short-circuited run a rank can
        # die having never been resumed; the death must land entirely
        # on the columns and leave the slot unmaterialized.
        engine = Engine(toy_machine(4), 4)
        run = _Run(engine)
        assert run.ranks == [None] * 4
        run._fail_rank(2, 1.5)
        assert run.ranks[2] is None
        ms = run.ms
        assert bool(ms.failed[2]) and bool(ms.finished[2])
        assert ms.finish_time.item(2) == 1.5
        assert ms.clock.item(2) == 1.5
        # No other rank was touched.
        assert not ms.failed[[0, 1, 3]].any()

    def test_fail_rank_skips_arrival_sweep_when_memo_empty(self):
        engine = Engine(toy_machine(3), 3)
        run = _Run(engine)
        assert run._last_arrival == {}
        run._fail_rank(1, 0.5)  # must not build 3 keys just to pop them
        assert run._last_arrival == {}

    def test_fail_rank_drops_dead_senders_arrival_entries(self):
        engine = Engine(toy_machine(3), 3)
        run = _Run(engine)
        n = run._n
        run._last_arrival = {1 * n + 0: 2.0, 1 * n + 2: 3.0, 0 * n + 2: 4.0}
        run.ranks[1] = RankState(1, run.ms)
        run._fail_rank(1, 5.0)
        assert run._last_arrival == {0 * n + 2: 4.0}

    def test_wait_graph_tolerates_unmaterialized_slots(self):
        # A survivor blocked on a rank that died before materializing:
        # the graph must name the dead peer without touching the None
        # slot.
        ms = MachineState(3)
        blocked = RankState(1, ms)
        blocked.blocked = True
        from repro.simmpi.state import ReceiveSlot

        slot = ReceiveSlot(handle_id=7, source=2, tag=0, waiting=True)
        blocked.handles[7] = slot
        ranks = [None, blocked, None]  # ranks 0 and 2 never materialized
        graph = build_wait_graph(ranks, failed_ranks=[2])
        assert graph.nodes == [1]
        assert graph.wait_for() == {1: [2]}
        assert graph.failed_ranks == [2]
        detail = graph.describe()
        assert "injected failures" in detail and "ranks [2]" in detail

    def test_public_fail_at_zero_matches_eager(self):
        # t=0 death through the public API, including the frozen clock
        # on the columns of a rank that never materialized.
        res = Engine(toy_machine(4), 4, fail_at={2: 0.0}).run(_compute_only)
        assert res.failed_ranks == [2]
        assert res.stats[2].finish_time == 0.0
        assert res.returns[2] is None


# ---------------------------------------------------------------------------
# ghost replay: closed-form == event path, bit for bit
# ---------------------------------------------------------------------------

def ghost_halo_program(comm, rows, cols, cells, steps):
    """Certified halo epoch (spec built in-program, uniform payloads)."""
    field = np.zeros((cells, cells))
    spec = grid_halo(rows, cols)
    for _ in range(steps):
        yield from comm.exchange(
            spec, [field[:1, :], field[-1:, :], field[:, :1], field[:, -1:]]
        )
        yield from comm.compute(flops=2.0 * cells * cells)
    return float(field[0, 0])


def ghost_collectives_program(comm, x, steps):
    """Every ghost-evaluated world collective, plus the O(p) ones."""
    for _ in range(steps):
        x = yield from comm.bcast(x + 1.0, root=0, algorithm="tree")
        x = yield from comm.bcast(x, root=2, algorithm="tree_nb")
        x = yield from comm.allreduce(x % 97.0, algorithm="recursive_doubling")
        yield from comm.barrier()
    return x


class TestClosedFormGhostReplay:
    @pytest.mark.parametrize("rows,cols", [(4, 4), (16, 16)])
    def test_halo_epoch_matches_event_path(self, rows, cols):
        p = rows * cols
        machine = intel_paragon(rows, cols)
        cert = certify_macro(
            ghost_halo_program,
            p,
            assume={"rows": rows, "cols": cols, "cells": 8, "steps": 3},
        )
        assert cert.uniform_exchange
        ref = run_program(
            machine, p, ghost_halo_program, rows, cols, 8, 3, macro_ops=False
        )
        ghost = Engine(machine, p, certificate=cert, closed_form=True).run(
            ghost_halo_program, rows, cols, 8, 3
        )
        assert ghost.time == ref.time
        assert ghost.stats == ref.stats
        assert ghost.returns[0] == ref.returns[0]
        assert ghost.ranks_materialized == 1
        assert ghost.macro_fallbacks == 0

    @pytest.mark.parametrize("p_shape", [(2, 4), (4, 8)])
    def test_world_collectives_match_event_path(self, p_shape):
        rows, cols = p_shape
        p = rows * cols
        machine = intel_paragon(rows, cols)
        cert = certify_macro(ghost_collectives_program, p)
        ref = run_program(
            machine, p, ghost_collectives_program, 3.5, 4, macro_ops=False
        )
        ghost = Engine(machine, p, certificate=cert, closed_form=True).run(
            ghost_collectives_program, 3.5, 4
        )
        assert ghost.time == ref.time
        assert ghost.stats == ref.stats
        assert ghost.returns[0] == ref.returns[0]
        # All non-root returns are unreplayed in ghost mode.
        assert ghost.returns[1:] == [None] * (p - 1)
        assert ghost.ranks_materialized == 1

    def test_closed_form_result_uses_lazy_stats(self):
        machine = intel_paragon(2, 2)
        cert = certify_macro(ghost_collectives_program, 4)
        res = Engine(machine, 4, certificate=cert, closed_form=True).run(
            ghost_collectives_program, 1.0, 1
        )
        assert isinstance(res.stats, LazyRankStats)
        assert len(res.stats) == 4
        assert res.stats[-1].rank == 3
        assert res.stats[1:3] == list(res.stats)[1:3]
        with pytest.raises(IndexError):
            res.stats[4]

    def test_closed_form_preconditions_are_validated(self):
        machine = intel_paragon(2, 2)
        cert = certify_macro(ghost_collectives_program, 4)
        with pytest.raises(ConfigurationError, match="certif"):
            Engine(machine, 4, closed_form=True)
        with pytest.raises(ConfigurationError, match="tracing"):
            Engine(machine, 4, certificate=cert, closed_form=True, trace=True)
        with pytest.raises(ConfigurationError, match="fault"):
            Engine(
                machine, 4, certificate=cert, closed_form=True, fail_at={0: 1.0}
            )
        with pytest.raises(ConfigurationError, match="macro"):
            Engine(
                machine, 4, certificate=cert, closed_form=True, macro_ops=False
            )
        # A non-alpha-beta delivery model surfaces at run time (the
        # macro layer is what closed-form replays through).
        with pytest.raises(ConfigurationError, match="alpha-beta"):
            Engine(
                machine, 4, certificate=cert, closed_form=True,
                delivery="contention",
            ).run(ghost_collectives_program, 1.0, 1)

    def test_setup_and_execute_walls_reported(self):
        machine = intel_paragon(4, 4)
        cert = certify_macro(
            ghost_halo_program,
            16,
            assume={"rows": 4, "cols": 4, "cells": 8, "steps": 2},
        )
        res = Engine(machine, 16, certificate=cert, closed_form=True).run(
            ghost_halo_program, 4, 4, 8, 2
        )
        assert res.setup_wall_s > 0.0
        assert res.execute_wall_s > 0.0
