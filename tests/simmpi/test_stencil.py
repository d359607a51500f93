"""Stencil phases: spec validation, neighbor math, and A/B equivalence.

The closed-form evaluator in :mod:`repro.simmpi.stencil` must be
invisible: for every supported configuration, a run with
``macro_ops=True`` and one with ``macro_ops=False`` produce the same
makespan, the same per-rank stats, and the same returned payloads --
bit-identical, no tolerance.  Where the evaluator cannot price a phase
(rendezvous payloads, irregular sizes, self-peers) it must *fall back*
to the event path inside the same run, again bit-identically -- and
where the event path legitimately deadlocks, the macro run must
deadlock the same way.
"""

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.simmpi.macro as macro_layer
from repro.apps import cfd, ocean
from repro.linalg.decomp import ProcessGrid2D
from repro.machine.presets import touchstone_delta
from repro.simmpi import Engine, StencilSpec, grid_halo, strip_halo
from repro.util.errors import (
    CommunicationError,
    ConfigurationError,
    DeadlockError,
)

from .test_macro_equivalence import _assert_identical
from .test_macro_generated import _comparable


class TestStencilSpec:
    def test_mirrors_computed(self):
        spec = grid_halo(3, 4)
        assert spec.mirrors == (1, 0, 3, 2)
        assert spec.size == 12

    def test_strip_neighbors_wrap(self):
        spec = strip_halo(5)
        assert spec.neighbors(0) == [4, 1]
        assert spec.neighbors(4) == [3, 0]

    def test_strip_neighbors_open(self):
        spec = strip_halo(5, wrap=False)
        assert spec.neighbors(0) == [-1, 1]
        assert spec.neighbors(4) == [3, -1]

    def test_grid_neighbors_row_major(self):
        # Must match ProcessGrid2D.rank_at: rank = prow * pcols + pcol.
        grid = ProcessGrid2D(3, 4)
        spec = grid_halo(3, 4)
        for rank in range(12):
            r, c = grid.coords(rank)
            up, down, left, right = spec.neighbors(rank)
            assert up == grid.rank_at((r - 1) % 3, c)
            assert down == grid.rank_at((r + 1) % 3, c)
            assert left == grid.rank_at(r, (c - 1) % 4)
            assert right == grid.rank_at(r, (c + 1) % 4)

    @pytest.mark.parametrize("wrap", [True, False])
    def test_peer_columns_match_neighbors(self, wrap):
        spec = StencilSpec(
            shape=(3, 5),
            offsets=((-1, 0), (1, 0), (0, -1), (0, 1), (1, 1), (-1, -1)),
            wrap=wrap,
        )
        cols = spec.peer_columns()
        for rank in range(spec.size):
            scalar = spec.neighbors(rank)
            assert [int(col[rank]) for col in cols] == scalar

    def test_validation_errors(self):
        with pytest.raises(ConfigurationError, match="mirror"):
            StencilSpec(shape=(4,), offsets=((1,),))
        with pytest.raises(ConfigurationError, match="zero offset"):
            StencilSpec(shape=(4,), offsets=((0,), (1,), (-1,)))
        with pytest.raises(ConfigurationError, match="duplicate"):
            StencilSpec(shape=(4,), offsets=((1,), (1,), (-1,)))
        with pytest.raises(ConfigurationError, match="dims"):
            StencilSpec(shape=(2, 2), offsets=((1,), (-1,)))
        with pytest.raises(ConfigurationError, match="positive"):
            StencilSpec(shape=(0,), offsets=((1,), (-1,)))
        with pytest.raises(ConfigurationError, match="axis"):
            grid_halo(2, 2, axis=2)

    def test_spec_is_hashable_identity(self):
        assert strip_halo(4) == strip_halo(4)
        assert hash(strip_halo(4)) == hash(strip_halo(4))
        assert strip_halo(4) != strip_halo(4, wrap=False)


def _assert_sim_identical(got, ref):
    assert got.time == ref.time
    assert got.stats == ref.stats
    assert len(got.returns) == len(ref.returns)


def _assert_payload_rows_equal(got, ref):
    """Returns are per-rank lists of received payloads (None = no peer)."""
    for g_row, w_row in zip(got, ref):
        assert len(g_row) == len(w_row)
        for g, w in zip(g_row, w_row):
            if w is None:
                assert g is None
            else:
                assert np.array_equal(g, w)


def _run_ocean(macro, *, eager=float("inf"), delivery="alphabeta", trace=False):
    cfg = ocean.OceanConfig(nx=10, ny=12, dt=5.0)
    s0 = ocean.gaussian_bump(cfg)
    engine = Engine(
        touchstone_delta(),
        6,
        seed=2,
        trace=trace,
        eager_threshold_bytes=eager,
        delivery=delivery,
        macro_ops=macro,
    )
    return engine.run(ocean.ocean_program, s0, cfg, 4)


class TestExchangeEquivalence:
    @pytest.mark.parametrize(
        "delivery,trace",
        list(itertools.product(["alphabeta", "contention"], [False, True])),
    )
    def test_ocean_macro_bit_identical(self, delivery, trace):
        ref = _run_ocean(False, delivery=delivery, trace=trace)
        mac = _run_ocean(True, delivery=delivery, trace=trace)
        _assert_sim_identical(mac, ref)
        for (rg_g, st_g), (rg_w, st_w) in zip(mac.returns, ref.returns):
            assert rg_g == rg_w
            assert np.array_equal(st_g.h, st_w.h)
            assert np.array_equal(st_g.u, st_w.u)
            assert np.array_equal(st_g.v, st_w.v)
        if trace:
            # Tracing disables pricing entirely: same event count, same logs.
            assert mac.events == ref.events
            assert mac.tracer.records == ref.tracer.records
        elif delivery == "alphabeta":
            assert mac.events < ref.events  # phases actually priced

    def test_cfd2d_macro_bit_identical_both_axes(self):
        grid = ProcessGrid2D(2, 4)
        cfg = cfd.CFDConfig(nx=16, ny=8)  # divides evenly: uniform payloads
        u0 = cfd.gaussian_blob(cfg)
        ref = cfd.distributed_run_2d(
            touchstone_delta(), grid, u0, cfg, 4, macro_ops=False
        )
        mac = cfd.distributed_run_2d(
            touchstone_delta(), grid, u0, cfg, 4, macro_ops=True
        )
        _assert_sim_identical(mac.sim, ref.sim)
        assert np.array_equal(mac.field, ref.field)
        assert mac.sim.events < ref.sim.events

    def test_rendezvous_deadlock_parity(self):
        """Rendezvous-sized halo payloads: the cyclic blocking sends
        legitimately deadlock, and the macro path must reproduce that
        by bailing to the event path -- not price its way past it."""
        with pytest.raises(DeadlockError):
            _run_ocean(False, eager=0.0)
        with pytest.raises(DeadlockError):
            _run_ocean(True, eager=0.0)

    def test_p2_duplicate_pair(self):
        """p=2: both offsets point at the same peer; FIFO ordering of
        the two in-flight messages must match the event path."""

        def program(comm):
            spec = strip_halo(2)
            out = yield from comm.exchange(
                spec, [np.full(3, float(comm.rank)), np.full(3, comm.rank + 10.0)]
            )
            yield from comm.compute(flops=5e4)
            return out

        ref = Engine(touchstone_delta(), 2, macro_ops=False).run(program)
        mac = Engine(touchstone_delta(), 2, macro_ops=True).run(program)
        _assert_sim_identical(mac, ref)
        _assert_payload_rows_equal(mac.returns, ref.returns)
        # Each rank gets the peer's mirror payload back.
        up, down = ref.returns[0]
        assert np.array_equal(up, np.full(3, 11.0))   # rank 1's down payload
        assert np.array_equal(down, np.full(3, 1.0))  # rank 1's up payload

    def test_nonwrap_edges_priced(self):
        """Open-boundary strips: edge ranks have missing peers, the
        returned slots are None, and the phase is still priced."""

        def program(comm):
            spec = strip_halo(comm.size, wrap=False)
            out = yield from comm.exchange(
                spec, [np.full(4, float(comm.rank)), np.full(4, comm.rank + 0.5)]
            )
            return out

        ref = Engine(touchstone_delta(), 5, macro_ops=False).run(program)
        mac = Engine(touchstone_delta(), 5, macro_ops=True).run(program)
        _assert_sim_identical(mac, ref)
        _assert_payload_rows_equal(mac.returns, ref.returns)
        assert mac.events < ref.events
        assert ref.returns[0][0] is None  # rank 0 has no up neighbor
        assert ref.returns[4][1] is None  # last rank has no down neighbor

    def test_irregular_payloads_fall_back(self):
        """Rank-dependent payload sizes break the uniform-round
        assumption: the evaluator bails, the event path replays, and
        the observables still match the macro-off run."""

        def program(comm):
            spec = strip_halo(comm.size)
            payload = np.arange(2 + comm.rank, dtype=float)
            out = yield from comm.exchange(spec, [payload, payload * 2.0])
            return [float(m.sum()) for m in out]

        ref = Engine(touchstone_delta(), 4, macro_ops=False).run(program)
        mac = Engine(touchstone_delta(), 4, macro_ops=True).run(program)
        _assert_sim_identical(mac, ref)
        assert mac.returns == ref.returns
        # Fallback costs the gather/park events but prices nothing.
        assert mac.events > ref.events

    def test_exchange_validation(self):
        def bad_count(comm):
            yield from comm.exchange(strip_halo(comm.size), [1.0])

        def bad_size(comm):
            yield from comm.exchange(strip_halo(comm.size + 1), [1.0, 2.0])

        with pytest.raises(CommunicationError, match="payloads"):
            Engine(touchstone_delta(), 3).run(bad_count)
        with pytest.raises(CommunicationError, match="covers"):
            Engine(touchstone_delta(), 3).run(bad_size)

    def test_back_to_back_phases_never_merge(self):
        """Two exchanges in a row use distinct collective sequence
        numbers; payloads from phase 1 must never satisfy phase 2."""

        def program(comm):
            spec = strip_halo(comm.size)
            first = yield from comm.exchange(
                spec, [np.full(2, 1.0 + comm.rank), np.full(2, 2.0 + comm.rank)]
            )
            second = yield from comm.exchange(
                spec, [first[0] * 10.0, first[1] * 10.0]
            )
            return second

        ref = Engine(touchstone_delta(), 4, macro_ops=False).run(program)
        mac = Engine(touchstone_delta(), 4, macro_ops=True).run(program)
        _assert_sim_identical(mac, ref)
        _assert_payload_rows_equal(mac.returns, ref.returns)


# ---------------------------------------------------------------------------
# generated phases: macro path == event path
# ---------------------------------------------------------------------------

THRESHOLDS = (float("inf"), 0.0, 256.0)


@st.composite
def _stencil_scenarios(draw):
    wrap = draw(st.booleans())
    if draw(st.booleans()):
        spec = strip_halo(draw(st.integers(1, 24)), wrap=wrap)
    else:
        rows = draw(st.integers(1, 6))
        cols = draw(st.integers(1, 24 // rows))
        axis = draw(st.sampled_from((0, 1, None)))
        spec = grid_halo(rows, cols, axis=axis, wrap=wrap)
    step = st.tuples(
        st.one_of(st.none(), st.integers(0, 64)),  # scalar, or ndarray length
        st.one_of(  # point-to-point (from, distance, nbytes) before the phase
            st.none(),
            st.tuples(st.integers(0, 23), st.integers(1, 23), st.integers(0, 16384)),
        ),
    )
    steps = draw(st.lists(step, min_size=1, max_size=3))
    return spec, draw(st.sampled_from(THRESHOLDS)), steps


def _generated_program(comm, spec, steps):
    out = []
    for i, (length, p2p) in enumerate(steps):
        if p2p is not None:
            # Often a stencil pair, whose FIFO clamp the phase then reads.
            a, distance, nbytes = p2p
            src = a % comm.size
            dst = (src + distance) % comm.size
            if src != dst:
                if comm.rank == src:
                    yield from comm.send(float(i), dst, tag=7, nbytes=nbytes)
                elif comm.rank == dst:
                    msg = yield from comm.recv(source=src, tag=7)
                    out.append((msg.payload, msg.arrival_time))
        payloads = [
            float(comm.rank * 31 + i + j) if length is None
            else np.arange(length, dtype=np.float64) * (comm.rank + 1) + j
            for j in range(len(spec.offsets))
        ]
        got = yield from comm.exchange(spec, payloads)
        out.append(_comparable(got))
    return out


def _generated_outcome(spec, eager, steps, macro):
    engine = Engine(
        touchstone_delta(), spec.size, seed=3,
        eager_threshold_bytes=eager, macro_ops=macro,
    )
    try:
        return engine.run(_generated_program, spec, steps)
    except DeadlockError as exc:
        return exc


def _check_generated(scenario):
    spec, eager, steps = scenario
    ref = _generated_outcome(spec, eager, steps, False)
    macro = _generated_outcome(spec, eager, steps, True)
    if isinstance(ref, DeadlockError) or isinstance(macro, DeadlockError):
        assert type(macro) is type(ref)
        assert str(macro) == str(ref)
        return
    _assert_identical(macro, ref)


@settings(max_examples=150, deadline=None)
@given(_stencil_scenarios())
def test_generated_exchanges_bit_identical(scenario):
    """1-D and 2-D grids up to 24 ranks, wrapped or open, one axis or
    both, scalar or 0-64 element payloads, three eager thresholds and
    optional point-to-point traffic before each phase: the macro run
    prices (or falls back) bit-identically, and deadlocks identically."""
    _check_generated(scenario)


@settings(max_examples=150, deadline=None)
@given(_stencil_scenarios())
def test_generated_exchanges_bit_identical_on_arrays(scenario):
    """The same draws with every plan priced on NumPy columns (the
    narrower ones otherwise price pair by pair on lists)."""
    with mock.patch.object(macro_layer, "VECTOR_WIDTH", 0):
        _check_generated(scenario)
