"""2-D block-cyclic LU: the ScaLAPACK-style factorisation.

The 1-D column-cyclic code (:mod:`repro.linalg.blocklu`) is the
historical parallel LINPACK; its scalability limit is that every
elimination step broadcasts a full column to *all* p ranks.  The 2-D
distribution that superseded it confines each step's traffic to one
process row and one process column: multipliers travel along grid rows,
the pivot row along grid columns, so per-step message volume drops from
O(n) x p ranks to O(n/pr + n/pc) -- the change that made LU scale to
the Delta's 512 nodes and beyond.

This implementation factors **without pivoting** (use it on the
diagonally-dominant test matrices from ``make_test_matrix``, or any
matrix known to need no row exchanges; the pivoted path is the 1-D
code).  The result is bit-identical to the serial no-pivot reference,
asserted in tests, and the 1-D-vs-2-D message economy is measured in
the A-5 ablation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

import numpy as np

from repro.linalg.decomp import ProcessGrid2D, block_cyclic_indices
from repro.simmpi import collectives as _coll
from repro.simmpi.engine import Engine, SimResult
from repro.util.errors import DecompositionError


def serial_lu_nopivot(a: np.ndarray) -> np.ndarray:
    """Right-looking LU without pivoting (reference for the 2-D code).

    Returns the packed factor (unit-lower L below the diagonal, U on
    and above).  Raises on a zero diagonal entry.
    """
    a = np.array(a, dtype=float, copy=True)
    n, m = a.shape
    if n != m:
        raise DecompositionError(f"matrix must be square, got {a.shape}")
    for k in range(n - 1):
        if a[k, k] == 0.0:
            raise DecompositionError(
                f"zero diagonal at step {k}: this factorisation needs pivoting"
            )
        a[k + 1:, k] /= a[k, k]
        a[k + 1:, k + 1:] -= np.outer(a[k + 1:, k], a[k, k + 1:])
    return a


def lu2d_program(
    comm, grid: ProcessGrid2D, a_full: np.ndarray, nb: int, overlap: bool = False
) -> Generator:
    """Rank program: unblocked updates over a block-cyclic 2-D layout.

    With ``overlap`` the row/column broadcasts use the non-blocking
    binomial tree ("tree_nb"): identical messages and bit-identical
    numerics, but internal tree nodes do not serialise their children
    behind rendezvous handshakes.

    Returns ``(rows_mine, cols_mine, local)``.
    """
    algo = "tree_nb" if overlap else "tree"
    n = a_full.shape[0]
    pr, pc = grid.prows, grid.pcols
    my_r, my_c = grid.coords(comm.rank)
    row_comm = comm.group(grid.row_members(my_r))   # peers across columns
    col_comm = comm.group(grid.col_members(my_c))   # peers down rows

    rows_mine = block_cyclic_indices(n, pr, my_r, nb)
    cols_mine = block_cyclic_indices(n, pc, my_c, nb)
    local = np.array(a_full[np.ix_(rows_mine, cols_mine)], dtype=float, copy=True)
    # Global index -> local position maps.
    row_pos = {int(g): i for i, g in enumerate(rows_mine)}
    col_pos = {int(g): j for j, g in enumerate(cols_mine)}

    n_rows = len(rows_mine)
    # Per-step lookups, precomputed for the whole factorisation.
    # Owners follow the block-cyclic formula (k // nb) % p (what
    # block_cyclic_owner computes, vectorised); rows_mine/cols_mine are
    # sorted, so "global index > k" is a suffix and searchsorted gives
    # its start -- plain slices (views) then replace boolean fancy
    # indexing, bit-identical values at a fraction of the cost.
    steps = np.arange(n)
    owner_c_of = ((steps // nb) % pc).tolist()
    owner_r_of = ((steps // nb) % pr).tolist()
    row_start = np.searchsorted(rows_mine, steps, side="right").tolist()
    col_start = np.searchsorted(cols_mine, steps, side="right").tolist()

    # Phase labels are pure tracing metadata; guarded push/pop (the
    # collectives' own idiom) keeps the untraced hot loop free of
    # context-manager overhead.  The only raise below pops explicitly.
    tracing = comm._tracing
    phases = comm._phases
    # Untraced runs bind the broadcast algorithm once and call it
    # directly: roots are valid by construction, so the dispatcher's
    # per-call validation and tracing branch are pure overhead on the
    # innermost communication of the factorisation.  Traced runs go
    # through comm.bcast unchanged to keep the "bcast" span labels.
    # Macro-enabled runs must also take the dispatcher: both tree and
    # tree_nb panel broadcasts are macro-eligible, and only the
    # dispatch layer parks the group on a single CollectiveReq instead
    # of replaying the message cascade per broadcast.
    if comm._macro:
        def bcast_impl(g, v, r, _a=algo):
            return _coll.bcast(g, v, r, _a)

        def tree_impl(g, v, r):
            return _coll.bcast(g, v, r, "tree")
    else:
        bcast_impl = _coll._BCAST_ALGORITHMS[algo]
        tree_impl = _coll._BCAST_ALGORITHMS["tree"]

    for k in range(n - 1):
        owner_c = owner_c_of[k]  # grid column holding col k
        owner_r = owner_r_of[k]  # grid row holding row k
        i0 = row_start[k]
        j0 = col_start[k]

        # --- multipliers: computed in grid column owner_c, sent across rows.
        if my_c == owner_c:
            if tracing:
                phases.append("panel")
            lk = col_pos[k]
            akk = local[row_pos[k], lk] if k in row_pos else None
            if tracing:
                akk = yield from col_comm.bcast(akk, root=owner_r)
            else:
                akk = yield from tree_impl(col_comm, akk, owner_r)
            if akk == 0.0:
                if tracing:
                    phases.pop()
                raise DecompositionError(
                    f"zero diagonal at step {k}: needs pivoting"
                )
            local[i0:, lk] /= akk
            yield comm._fill_compute(float(n_rows - i0))
            mult_packet = local[i0:, lk].copy()
            if tracing:
                phases.pop()
        else:
            mult_packet = None
        if tracing:
            phases.append("mult-bcast")
            multipliers = yield from row_comm.bcast(mult_packet, root=owner_c, algorithm=algo)
            phases.pop()
        else:
            multipliers = yield from bcast_impl(row_comm, mult_packet, owner_c)

        # --- pivot-row segment: from grid row owner_r, sent down columns.
        if my_r == owner_r:
            urow_packet = local[row_pos[k], j0:].copy()
        else:
            urow_packet = None
        if tracing:
            phases.append("urow-bcast")
            urow = yield from col_comm.bcast(urow_packet, root=owner_r, algorithm=algo)
            phases.pop()
        else:
            urow = yield from bcast_impl(col_comm, urow_packet, owner_r)

        # --- trailing update on the local intersection.
        if multipliers.size and urow.size:
            # Broadcast product == np.outer for 1-D operands (same
            # ufunc, same element pairing) minus the wrapper's ravels.
            local[i0:, j0:] -= multipliers[:, None] * urow
            if tracing:
                phases.append("update")
            yield comm._fill_compute(2.0 * multipliers.size * urow.size)
            if tracing:
                phases.pop()

    return (rows_mine, cols_mine, local)


@dataclass
class LU2DResult:
    """Reassembled factor with simulation accounting."""

    lu: np.ndarray
    sim: SimResult

    @property
    def virtual_time(self) -> float:
        return self.sim.time


def lu2d(
    machine,
    grid: ProcessGrid2D,
    a: np.ndarray,
    *,
    nb: int = 2,
    seed: int = 0,
    overlap: bool = False,
    eager_threshold_bytes: float = float("inf"),
    delivery="alphabeta",
    trace: bool = False,
    macro_ops: bool = True,
) -> LU2DResult:
    """Factor ``a`` on a process grid; reassemble the packed factor.

    ``overlap``, ``eager_threshold_bytes`` and ``delivery`` tune the
    simulated communication (non-blocking broadcasts, rendezvous
    threshold, wire-contention model) without changing the numerics.
    ``trace`` records message logs and activity spans for
    :mod:`repro.obs` analysis.  ``macro_ops=False`` forces collectives
    through the per-message event cascade (the benchmark baselines pin
    event counts on that path).
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n):
        raise DecompositionError(f"matrix must be square, got {a.shape}")
    if nb < 1:
        raise DecompositionError(f"block size must be >= 1, got {nb}")
    if grid.size > machine.n_nodes:
        raise DecompositionError(
            f"grid of {grid.size} ranks exceeds machine of {machine.n_nodes} nodes"
        )
    engine = Engine(
        machine,
        grid.size,
        seed=seed,
        trace=trace,
        eager_threshold_bytes=eager_threshold_bytes,
        delivery=delivery,
        macro_ops=macro_ops,
    )
    sim = engine.run(lu2d_program, grid, a, nb, overlap)
    lu = np.zeros((n, n))
    for rows_mine, cols_mine, local in sim.returns:
        lu[np.ix_(rows_mine, cols_mine)] = local
    return LU2DResult(lu=lu, sim=sim)
