"""SUMMA: Scalable Universal Matrix Multiplication Algorithm.

C = A @ B on a 2-D process grid.  Each rank owns a block of A, B, and C
(block-row by block-column).  The algorithm proceeds in panel steps: the
owners of panel ``k`` broadcast their A-column-panel along grid rows and
their B-row-panel along grid columns; every rank then accumulates a
local GEMM.  Row/column broadcasts run on
:class:`~repro.simmpi.group.GroupComm` sub-communicators, so the
communication cost emerges from the machine model.

This is the algorithm that displaced Cannon's method precisely because
it needs only broadcasts (no skewed initial alignment) -- the kind of
"scalable parallel algorithm" the ASTA component of the HPCC program
funded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

import numpy as np

from repro.linalg.decomp import ProcessGrid2D, block_range, block_ranges
from repro.simmpi.engine import Engine, SimResult
from repro.util.errors import DecompositionError


@dataclass
class DistributedMatmul:
    """Reassembled product with simulation accounting."""

    c: np.ndarray
    sim: SimResult

    @property
    def virtual_time(self) -> float:
        return self.sim.time


def summa_program(
    comm,
    grid: ProcessGrid2D,
    a_full: np.ndarray,
    b_full: np.ndarray,
    panel: int,
    overlap: bool = False,
) -> Generator:
    """Rank program: SUMMA over the simulator.

    Each rank slices its own blocks from the replicated inputs (tests
    build them from a shared seed) and returns its C block with its
    global row/column ranges.  ``overlap`` switches the panel
    broadcasts to the non-blocking tree (same data, pipelined
    handshakes under rendezvous).
    """
    algo = "tree_nb" if overlap else "tree"
    m, k_dim = a_full.shape
    k2, n = b_full.shape
    if k_dim != k2:
        raise DecompositionError(
            f"inner dimensions disagree: A is {a_full.shape}, B is {b_full.shape}"
        )
    prow, pcol = grid.coords(comm.rank)
    row_comm = comm.group(grid.row_members(prow))
    col_comm = comm.group(grid.col_members(pcol))

    r0, r1 = block_range(m, grid.prows, prow)
    c0, c1 = block_range(n, grid.pcols, pcol)
    # K dimension is split by grid columns for A panels and by grid rows
    # for B panels.
    ak0, ak1 = block_range(k_dim, grid.pcols, pcol)
    bk0, bk1 = block_range(k_dim, grid.prows, prow)

    a_local = np.array(a_full[r0:r1, ak0:ak1], copy=True)
    b_local = np.array(b_full[bk0:bk1, c0:c1], copy=True)
    c_local = np.zeros((r1 - r0, c1 - c0))

    a_cuts = block_ranges(k_dim, grid.pcols)
    b_cuts = block_ranges(k_dim, grid.prows)

    k = 0
    while k < k_dim:
        kk = min(k + panel, k_dim)
        # Panels are clipped at owner boundaries so a panel always has a
        # single owning grid column (for A) and grid row (for B).
        a_owner = next(i for i, (s, e) in enumerate(a_cuts) if s <= k < e)
        kk = min(kk, a_cuts[a_owner][1])
        b_owner = next(i for i, (s, e) in enumerate(b_cuts) if s <= k < e)
        kk = min(kk, b_cuts[b_owner][1])

        if pcol == a_owner:
            a_panel = a_local[:, k - ak0:kk - ak0]
        else:
            a_panel = None
        with comm.phase("a-panel"):
            a_panel = yield from row_comm.bcast(a_panel, root=a_owner, algorithm=algo)

        if prow == b_owner:
            b_panel = b_local[k - bk0:kk - bk0, :]
        else:
            b_panel = None
        with comm.phase("b-panel"):
            b_panel = yield from col_comm.bcast(b_panel, root=b_owner, algorithm=algo)

        c_local += a_panel @ b_panel
        with comm.phase("gemm"):
            yield from comm.compute(
                flops=2.0 * a_panel.shape[0] * a_panel.shape[1] * b_panel.shape[1]
            )
        k = kk

    return ((r0, r1), (c0, c1), c_local)


def summa(
    machine,
    grid: ProcessGrid2D,
    a: np.ndarray,
    b: np.ndarray,
    *,
    panel: int = 32,
    seed: int = 0,
    overlap: bool = False,
    eager_threshold_bytes: float = float("inf"),
    delivery="alphabeta",
    trace: bool = False,
    macro_ops: bool = True,
    certificate=None,
) -> DistributedMatmul:
    """Multiply on a simulated machine and reassemble the result.

    ``overlap``, ``eager_threshold_bytes`` and ``delivery`` tune the
    simulated communication without changing the numerics; ``trace``
    records spans for :mod:`repro.obs` analysis; ``macro_ops=False``
    forces collectives through the per-message event cascade.
    ``certificate`` passes a
    :class:`~repro.analyze.certify.MacroCertificate` through to the
    engine, which refuses one whose recorded ``overlap`` assumption
    differs from this call's (``bundled_certificate("summa", p,
    overlap=...)`` proves either variant -- both ``"tree"`` and the pipelined
    ``"tree_nb"`` broadcasts evaluate in closed form).
    """
    if grid.size > machine.n_nodes:
        raise DecompositionError(
            f"grid of {grid.size} ranks exceeds machine of {machine.n_nodes} nodes"
        )
    if panel < 1:
        raise DecompositionError(f"panel must be >= 1, got {panel}")
    engine = Engine(
        machine,
        grid.size,
        seed=seed,
        trace=trace,
        eager_threshold_bytes=eager_threshold_bytes,
        delivery=delivery,
        macro_ops=macro_ops,
        certificate=certificate,
    )
    sim = engine.run(
        summa_program,
        grid,
        np.asarray(a, dtype=float),
        np.asarray(b, dtype=float),
        panel,
        overlap,
    )
    m, n = a.shape[0], b.shape[1]
    c = np.zeros((m, n))
    for (r0, r1), (c0, c1), block in sim.returns:
        c[r0:r1, c0:c1] = block
    return DistributedMatmul(c=c, sim=sim)


def matmul_flops(m: int, k: int, n: int) -> float:
    """Classic 2mkn operation count."""
    return 2.0 * m * k * n
