"""2-D advection-diffusion on a structured grid: the CAS kernel.

The Computational Aerosciences consortium's workloads were structured-
grid flow solvers; their communication signature is the *halo exchange*:
strip-decompose the grid, trade one ghost row with each neighbour per
time step, update locally.  This module implements that signature with
real numerics -- first-order upwind advection plus central diffusion,
periodic boundaries -- as both a serial reference and a rank program.

The distributed update applies exactly the same per-cell arithmetic as
the serial one, so the two are bit-identical (asserted in tests), while
the simulator accounts compute and halo time.  The surface-to-volume
ratio of the strips is what drives the scaling curves in the
grand-challenge benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional, Tuple

import numpy as np

from repro.linalg.decomp import block_range
from repro.simmpi.engine import Engine, SimResult
from repro.simmpi.stencil import grid_halo, strip_halo
from repro.util.errors import ConfigurationError

#: Per-cell flop estimate for one update (adds, mults of the stencil).
FLOPS_PER_CELL = 16.0


@dataclass(frozen=True)
class CFDConfig:
    """Problem description for the advection-diffusion solver.

    Velocities must be non-negative (upwind differences are written for
    flow toward +x/+y); the stability checks enforce CFL and the
    diffusive limit.
    """

    nx: int
    ny: int
    dx: float = 1.0
    dy: float = 1.0
    dt: float = 0.1
    vel_x: float = 1.0
    vel_y: float = 0.5
    diffusivity: float = 0.05

    def __post_init__(self) -> None:
        if self.nx < 3 or self.ny < 3:
            raise ConfigurationError(
                f"grid must be at least 3x3, got {self.ny}x{self.nx}"
            )
        if min(self.dx, self.dy, self.dt) <= 0:
            raise ConfigurationError("dx, dy, dt must be positive")
        if self.vel_x < 0 or self.vel_y < 0:
            raise ConfigurationError(
                "upwind scheme requires non-negative velocities"
            )
        if self.diffusivity < 0:
            raise ConfigurationError("diffusivity must be >= 0")
        cfl = self.dt * (self.vel_x / self.dx + self.vel_y / self.dy)
        if cfl > 1.0:
            raise ConfigurationError(f"advective CFL {cfl:.3f} > 1; reduce dt")
        if self.diffusivity > 0:
            dlim = self.dt * 2.0 * self.diffusivity * (self.dx**-2 + self.dy**-2)
            if dlim > 1.0:
                raise ConfigurationError(
                    f"diffusive stability number {dlim:.3f} > 1; reduce dt"
                )

    @property
    def cells(self) -> int:
        return self.nx * self.ny

    def flops_per_step(self) -> float:
        return FLOPS_PER_CELL * self.cells


def gaussian_blob(
    config: CFDConfig,
    *,
    center: Optional[Tuple[float, float]] = None,
    width: float = 0.1,
) -> np.ndarray:
    """Gaussian initial condition on the unit square (ny, nx array)."""
    cx, cy = center if center is not None else (0.25, 0.25)
    x = (np.arange(config.nx) + 0.5) / config.nx
    y = (np.arange(config.ny) + 0.5) / config.ny
    xx, yy = np.meshgrid(x, y)
    return np.exp(-((xx - cx) ** 2 + (yy - cy) ** 2) / (2 * width**2))


def _update(
    u: np.ndarray,
    up: np.ndarray,
    down: np.ndarray,
    config: CFDConfig,
) -> np.ndarray:
    """One explicit step for rows ``u`` given ghost rows above/below.

    ``up`` is the row preceding u[0]; ``down`` the row following u[-1].
    The x direction is periodic within the row (no ghost needed).
    """
    ext = np.vstack([up, u, down])
    c = ext[1:-1, :]
    north = ext[:-2, :]
    south = ext[2:, :]
    west = np.roll(c, 1, axis=1)
    east = np.roll(c, -1, axis=1)

    adv = (
        config.vel_x * (c - west) / config.dx
        + config.vel_y * (c - north) / config.dy
    )
    lap = (
        (east - 2.0 * c + west) / config.dx**2
        + (north - 2.0 * c + south) / config.dy**2
    )
    return c + config.dt * (config.diffusivity * lap - adv)


def serial_step(u: np.ndarray, config: CFDConfig) -> np.ndarray:
    """One step on the full periodic grid (reference implementation)."""
    return _update(u, u[-1:, :], u[:1, :], config)


def serial_run(u0: np.ndarray, config: CFDConfig, steps: int) -> np.ndarray:
    """Advance ``steps`` updates from ``u0``."""
    u = np.array(u0, dtype=float, copy=True)
    for _ in range(steps):
        u = serial_step(u, config)
    return u


@dataclass
class CFDRun:
    """Distributed run outcome."""

    field: np.ndarray
    sim: SimResult

    @property
    def virtual_time(self) -> float:
        return self.sim.time


def cfd_program(comm, u0: np.ndarray, config: CFDConfig, steps: int) -> Generator:
    """Rank program: strip-decomposed solver with periodic halo exchange.

    Returns ``(row_range, local_rows)``.
    """
    p = comm.size
    lo, hi = block_range(config.ny, p, comm.rank)
    local = np.array(u0[lo:hi, :], dtype=float, copy=True)
    halo = strip_halo(p) if p > 1 else None

    for step in range(steps):
        if p == 1:
            up_row, down_row = local[-1:, :], local[:1, :]
        else:
            # Send boundary rows, receive ghosts (periodic wrap).
            with comm.phase("halo"):
                up_row, down_row = yield from comm.exchange(
                    halo, [local[:1, :], local[-1:, :]]
                )
        local = _update(local, up_row, down_row, config)
        with comm.phase("step"):
            yield from comm.compute(flops=FLOPS_PER_CELL * local.size)

    return ((lo, hi), local)


def distributed_run(
    machine,
    n_ranks: int,
    u0: np.ndarray,
    config: CFDConfig,
    steps: int,
    *,
    seed: int = 0,
    trace: bool = False,
    macro_ops: bool = True,
) -> CFDRun:
    """Run the strip-decomposed solver; reassemble the global field."""
    u0 = np.asarray(u0, dtype=float)
    if u0.shape != (config.ny, config.nx):
        raise ConfigurationError(
            f"initial field shape {u0.shape} does not match config "
            f"({config.ny}, {config.nx})"
        )
    if n_ranks > config.ny:
        raise ConfigurationError(
            f"{n_ranks} ranks over {config.ny} rows leaves empty strips"
        )
    engine = Engine(
        machine, n_ranks, seed=seed, trace=trace, macro_ops=macro_ops
    )
    sim = engine.run(cfd_program, u0, config, steps)
    field = np.zeros_like(u0)
    for (lo, hi), rows in sim.returns:
        field[lo:hi, :] = rows
    return CFDRun(field=field, sim=sim)


def total_mass(u: np.ndarray, config: CFDConfig) -> float:
    """Domain integral of the scalar (conserved by the periodic scheme)."""
    return float(u.sum() * config.dx * config.dy)


# ---------------------------------------------------------------------------
# 2-D block decomposition (the strips-vs-blocks ablation)
# ---------------------------------------------------------------------------

def _update_block(
    u: np.ndarray,
    up: np.ndarray,
    down: np.ndarray,
    left: np.ndarray,
    right: np.ndarray,
    config: CFDConfig,
) -> np.ndarray:
    """One explicit step on a 2-D block given all four ghost edges.

    Identical per-cell arithmetic to :func:`_update`; with wraparound
    ghosts it reproduces the serial step bit for bit.
    """
    c = u
    north = np.vstack([up, c[:-1, :]])
    south = np.vstack([c[1:, :], down])
    west = np.hstack([left, c[:, :-1]])
    east = np.hstack([c[:, 1:], right])

    adv = (
        config.vel_x * (c - west) / config.dx
        + config.vel_y * (c - north) / config.dy
    )
    lap = (
        (east - 2.0 * c + west) / config.dx**2
        + (north - 2.0 * c + south) / config.dy**2
    )
    return c + config.dt * (config.diffusivity * lap - adv)


def cfd_program_2d(comm, grid, u0: np.ndarray, config: CFDConfig, steps: int) -> Generator:
    """Rank program: 2-D block decomposition on a process grid.

    Four ghost edges per step instead of the strip version's two ghost
    rows: twice the messages (latency) for less halo volume (bandwidth)
    -- the surface-to-volume trade the A-3 ablation measures.
    Returns ``(row_range, col_range, block)``.
    """
    pr, pc = grid.prows, grid.pcols
    my_r, my_c = grid.coords(comm.rank)
    r0, r1 = block_range(config.ny, pr, my_r)
    c0, c1 = block_range(config.nx, pc, my_c)
    local = np.array(u0[r0:r1, c0:c1], dtype=float, copy=True)

    # Ranks are laid out row-major on the process grid (rank_at), which
    # is exactly the StencilSpec convention, so the declared phases pair
    # the same neighbours as the explicit rank_at arithmetic did.
    halo_rows = grid_halo(pr, pc, axis=0) if pr > 1 else None
    halo_cols = grid_halo(pr, pc, axis=1) if pc > 1 else None

    for step in range(steps):
        if pr == 1:
            up_row, down_row = local[-1:, :], local[:1, :]
        else:
            with comm.phase("halo-rows"):
                up_row, down_row = yield from comm.exchange(
                    halo_rows, [local[:1, :], local[-1:, :]]
                )
        if pc == 1:
            left_col, right_col = local[:, -1:], local[:, :1]
        else:
            with comm.phase("halo-cols"):
                left_col, right_col = yield from comm.exchange(
                    halo_cols,
                    [
                        np.ascontiguousarray(local[:, :1]),
                        np.ascontiguousarray(local[:, -1:]),
                    ],
                )

        local = _update_block(local, up_row, down_row, left_col, right_col, config)
        with comm.phase("step"):
            yield from comm.compute(flops=FLOPS_PER_CELL * local.size)

    return ((r0, r1), (c0, c1), local)


def distributed_run_2d(
    machine,
    grid,
    u0: np.ndarray,
    config: CFDConfig,
    steps: int,
    *,
    seed: int = 0,
    trace: bool = False,
    macro_ops: bool = True,
) -> CFDRun:
    """Run the 2-D block-decomposed solver; reassemble the field."""
    u0 = np.asarray(u0, dtype=float)
    if u0.shape != (config.ny, config.nx):
        raise ConfigurationError(
            f"initial field shape {u0.shape} does not match config "
            f"({config.ny}, {config.nx})"
        )
    if grid.size > machine.n_nodes:
        raise ConfigurationError(
            f"grid of {grid.size} ranks exceeds machine of {machine.n_nodes} nodes"
        )
    if grid.prows > config.ny or grid.pcols > config.nx:
        raise ConfigurationError(
            f"{grid.prows}x{grid.pcols} grid over a "
            f"{config.ny}x{config.nx} field leaves empty blocks"
        )
    engine = Engine(
        machine, grid.size, seed=seed, trace=trace, macro_ops=macro_ops
    )
    sim = engine.run(cfd_program_2d, grid, u0, config, steps)
    field = np.zeros_like(u0)
    for (r0, r1), (c0, c1), block in sim.returns:
        field[r0:r1, c0:c1] = block
    return CFDRun(field=field, sim=sim)
