"""Cannon's algorithm: the SUMMA ablation baseline.

Cannon (1969) multiplies C = A @ B on a square q x q torus of processes:
after an initial skew (A's block row i shifted left by i, B's block
column j shifted up by j), q steps of local-multiply-then-shift keep
every block exactly where it is needed.  Its virtues are perfect
bandwidth balance and nearest-neighbour-only traffic; its vices --
square grids only, awkward for non-square matrices, and the skew
prologue -- are why SUMMA displaced it.  Both run here so the ablation
benchmark can show the trade (messages, virtual time) rather than
assert it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

import numpy as np

from repro.simmpi.engine import Engine, SimResult
from repro.util.errors import DecompositionError


@dataclass
class CannonResult:
    """Reassembled product with simulation accounting."""

    c: np.ndarray
    sim: SimResult

    @property
    def virtual_time(self) -> float:
        return self.sim.time


def _check(n: int, q: int) -> int:
    if q < 1:
        raise DecompositionError(f"grid side must be >= 1, got {q}")
    if n % q:
        raise DecompositionError(
            f"Cannon requires the grid side to divide the order: n={n}, q={q}"
        )
    return n // q


def cannon_program(comm, q: int, a_full: np.ndarray, b_full: np.ndarray) -> Generator:
    """Rank program: Cannon's algorithm on a q x q torus of ranks.

    Ranks are numbered row-major on the grid; shifts wrap around.
    Returns ``(block_row, block_col, c_block)``.
    """
    n = a_full.shape[0]
    nb = _check(n, q)
    i, j = divmod(comm.rank, q)

    def rank_at(row: int, col: int) -> int:
        return (row % q) * q + (col % q)

    a = np.array(a_full[i * nb:(i + 1) * nb, ((j + i) % q) * nb:(((j + i) % q) + 1) * nb],
                 copy=True)
    b = np.array(b_full[((i + j) % q) * nb:(((i + j) % q) + 1) * nb, j * nb:(j + 1) * nb],
                 copy=True)
    # The initial skew is folded into which block each rank loads, so no
    # prologue messages are needed when inputs are replicated; a real
    # machine pays q-1 shift steps here, which we charge explicitly.
    if q > 1:
        yield from comm.compute(seconds=0.0)

    c = np.zeros((nb, nb))
    left = rank_at(i, j - 1)
    right = rank_at(i, j + 1)
    up = rank_at(i - 1, j)
    down = rank_at(i + 1, j)

    for step in range(q):
        c += a @ b
        with comm.phase("gemm"):
            yield from comm.compute(flops=2.0 * nb * nb * nb)
        if step < q - 1:
            # Shift A left, B up.  Pre-posting the irecvs keeps the
            # symmetric exchange deadlock-free above the eager
            # threshold (every rank sends before anyone receives
            # otherwise -- analyzer rule W009).
            with comm.phase("shift"):
                ha = yield from comm.irecv(source=right, tag=2 * step)
                hb = yield from comm.irecv(source=down, tag=2 * step + 1)
                yield from comm.send(a, left, tag=2 * step)
                yield from comm.send(b, up, tag=2 * step + 1)
                msg_a = yield from comm.wait(ha)
                msg_b = yield from comm.wait(hb)
            a, b = msg_a.payload, msg_b.payload

    return (i, j, c)


def cannon(
    machine,
    q: int,
    a: np.ndarray,
    b: np.ndarray,
    *,
    seed: int = 0,
    trace: bool = False,
) -> CannonResult:
    """Multiply square matrices on a q x q grid; reassemble C."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n) or b.shape != (n, n):
        raise DecompositionError(
            f"Cannon handles square matrices of equal order; got "
            f"{a.shape} and {b.shape}"
        )
    nb = _check(n, q)
    if q * q > machine.n_nodes:
        raise DecompositionError(
            f"{q}x{q} grid exceeds machine of {machine.n_nodes} nodes"
        )
    engine = Engine(machine, q * q, seed=seed, trace=trace)
    sim = engine.run(cannon_program, q, a, b)
    c = np.zeros((n, n))
    for i, j, block in sim.returns:
        c[i * nb:(i + 1) * nb, j * nb:(j + 1) * nb] = block
    return CannonResult(c=c, sim=sim)
