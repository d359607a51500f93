"""Linearised shallow-water equations: the ocean/atmosphere kernel.

NOAA's ocean and atmospheric computation research entry in the
responsibilities matrix is, at kernel level, a shallow-water solver:
free-surface height ``h`` and velocities ``(u, v)`` coupled through
gravity waves, with Coriolis rotation.  We integrate the linearised
system with the forward-backward scheme (velocities first, then height
from the *new* velocities), which is stable for gravity-wave CFL < 1:

    u' = u + dt * ( f*v - g * Dx(h) )
    v' = v + dt * (-f*u - g * Dy(h) )
    h' = h - dt * H * ( Dx(u') + Dy(v') )

with centred periodic differences.  Mass (the sum of ``h``) is
conserved to round-off, which the property tests pin down.

Decomposition mirrors the CFD kernel (row strips, ghost rows both
sides), but the halo is exchanged *twice* per step: once for ``h``
before the velocity update and once for the new ``v`` before the height
update -- double the latency sensitivity, visible in the benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

import numpy as np

from repro.linalg.decomp import block_range
from repro.simmpi.engine import Engine, SimResult
from repro.simmpi.stencil import strip_halo
from repro.util.errors import ConfigurationError

#: Per-cell flop estimate for one full (u, v, h) update.
FLOPS_PER_CELL = 30.0


@dataclass(frozen=True)
class OceanConfig:
    """Shallow-water problem description (periodic basin)."""

    nx: int
    ny: int
    dx: float = 1.0e4       # 10 km cells
    dy: float = 1.0e4
    dt: float = 10.0        # seconds
    gravity: float = 9.81
    depth: float = 100.0    # resting depth H, metres
    coriolis: float = 1.0e-4

    def __post_init__(self) -> None:
        if self.nx < 3 or self.ny < 3:
            raise ConfigurationError(
                f"grid must be at least 3x3, got {self.ny}x{self.nx}"
            )
        if min(self.dx, self.dy, self.dt) <= 0:
            raise ConfigurationError("dx, dy, dt must be positive")
        if self.gravity <= 0 or self.depth <= 0:
            raise ConfigurationError("gravity and depth must be positive")
        wave_speed = np.sqrt(self.gravity * self.depth)
        cfl = wave_speed * self.dt * max(1.0 / self.dx, 1.0 / self.dy)
        if cfl > 1.0:
            raise ConfigurationError(
                f"gravity-wave CFL {cfl:.3f} > 1 (c = {wave_speed:.1f} m/s); reduce dt"
            )

    @property
    def cells(self) -> int:
        return self.nx * self.ny

    @property
    def wave_speed(self) -> float:
        return float(np.sqrt(self.gravity * self.depth))


@dataclass
class OceanState:
    """Prognostic fields (each (ny, nx))."""

    h: np.ndarray
    u: np.ndarray
    v: np.ndarray

    def copy(self) -> "OceanState":
        return OceanState(self.h.copy(), self.u.copy(), self.v.copy())


def gaussian_bump(config: OceanConfig, *, amplitude: float = 1.0, width: float = 0.1) -> OceanState:
    """Initial condition: height anomaly at rest (classic gravity-wave
    test; the bump collapses into expanding rings)."""
    x = (np.arange(config.nx) + 0.5) / config.nx
    y = (np.arange(config.ny) + 0.5) / config.ny
    xx, yy = np.meshgrid(x, y)
    h = amplitude * np.exp(-((xx - 0.5) ** 2 + (yy - 0.5) ** 2) / (2 * width**2))
    return OceanState(h=h, u=np.zeros_like(h), v=np.zeros_like(h))


def _dx(field: np.ndarray, dx: float) -> np.ndarray:
    """Centred periodic x derivative (axis 1)."""
    return (np.roll(field, -1, axis=1) - np.roll(field, 1, axis=1)) / (2.0 * dx)


def _dy_interior(ext: np.ndarray, dy: float) -> np.ndarray:
    """Centred y derivative of the interior rows of an extended array
    (one ghost row on each side)."""
    return (ext[2:, :] - ext[:-2, :]) / (2.0 * dy)


def _step(
    state: OceanState,
    config: OceanConfig,
    h_up: np.ndarray,
    h_down: np.ndarray,
    fetch_v_ghosts,
) -> OceanState:
    """Forward-backward update of a row strip.

    ``h_up``/``h_down`` are height ghost rows; ``fetch_v_ghosts`` is a
    callable invoked with the *new* v strip returning its ghost rows
    (serial passes periodic wraps; the rank program exchanges halos).
    """
    g, f, big_h, dt = config.gravity, config.coriolis, config.depth, config.dt
    h, u, v = state.h, state.u, state.v

    h_ext = np.vstack([h_up, h, h_down])
    u_new = u + dt * (f * v - g * _dx(h, config.dx))
    v_new = v + dt * (-f * u - g * _dy_interior(h_ext, config.dy))

    v_up, v_down = fetch_v_ghosts(v_new)
    v_ext = np.vstack([v_up, v_new, v_down])
    div = _dx(u_new, config.dx) + _dy_interior(v_ext, config.dy)
    h_new = h - dt * big_h * div
    return OceanState(h=h_new, u=u_new, v=v_new)


def serial_step(state: OceanState, config: OceanConfig) -> OceanState:
    """One step on the full periodic basin."""
    return _step(
        state,
        config,
        state.h[-1:, :],
        state.h[:1, :],
        lambda v_new: (v_new[-1:, :], v_new[:1, :]),
    )


def serial_run(state: OceanState, config: OceanConfig, steps: int) -> OceanState:
    out = state.copy()
    for _ in range(steps):
        out = serial_step(out, config)
    return out


def total_mass(state: OceanState, config: OceanConfig) -> float:
    """Basin-integrated height anomaly (conserved to round-off)."""
    return float(state.h.sum() * config.dx * config.dy)


def total_energy(state: OceanState, config: OceanConfig) -> float:
    """Linearised energy: H(u^2+v^2)/2 + g h^2 / 2, integrated."""
    kinetic = 0.5 * config.depth * (state.u**2 + state.v**2)
    potential = 0.5 * config.gravity * state.h**2
    return float((kinetic + potential).sum() * config.dx * config.dy)


@dataclass
class OceanRun:
    """Distributed run outcome."""

    state: OceanState
    sim: SimResult

    @property
    def virtual_time(self) -> float:
        return self.sim.time


def ocean_program(comm, state0: OceanState, config: OceanConfig, steps: int) -> Generator:
    """Rank program: strip decomposition, two halo exchanges per step."""
    p = comm.size
    lo, hi = block_range(config.ny, p, comm.rank)
    local = OceanState(
        h=np.array(state0.h[lo:hi, :], copy=True),
        u=np.array(state0.u[lo:hi, :], copy=True),
        v=np.array(state0.v[lo:hi, :], copy=True),
    )
    halo = strip_halo(p) if p > 1 else None

    for step in range(steps):
        if p == 1:
            h_up, h_down = local.h[-1:, :], local.h[:1, :]
        else:
            with comm.phase("halo-h"):
                h_up, h_down = yield from comm.exchange(
                    halo, [local.h[:1, :], local.h[-1:, :]]
                )

        # Same arithmetic as _step, split into two phases so the v halo
        # can be exchanged (a generator cannot yield from a closure).
        g, f, big_h, dt = config.gravity, config.coriolis, config.depth, config.dt
        h_ext = np.vstack([h_up, local.h, h_down])
        u_new = local.u + dt * (f * local.v - g * _dx(local.h, config.dx))
        v_new = local.v + dt * (-f * local.u - g * _dy_interior(h_ext, config.dy))

        if p == 1:
            v_up, v_down = v_new[-1:, :], v_new[:1, :]
        else:
            with comm.phase("halo-v"):
                v_up, v_down = yield from comm.exchange(
                    halo, [v_new[:1, :], v_new[-1:, :]]
                )

        v_ext = np.vstack([v_up, v_new, v_down])
        div = _dx(u_new, config.dx) + _dy_interior(v_ext, config.dy)
        local = OceanState(h=local.h - dt * big_h * div, u=u_new, v=v_new)
        with comm.phase("step"):
            yield from comm.compute(flops=FLOPS_PER_CELL * local.h.size)

    return ((lo, hi), local)


def distributed_run(
    machine,
    n_ranks: int,
    state0: OceanState,
    config: OceanConfig,
    steps: int,
    *,
    seed: int = 0,
    trace: bool = False,
    macro_ops: bool = True,
    certificate=None,
) -> OceanRun:
    """Run the decomposed model; reassemble the global state.

    ``certificate`` passes a
    :class:`~repro.analyze.certify.MacroCertificate` for
    :func:`ocean_program` through to the engine, which then skips the
    per-member macro probe on every halo exchange.
    """
    if state0.h.shape != (config.ny, config.nx):
        raise ConfigurationError(
            f"state shape {state0.h.shape} does not match config "
            f"({config.ny}, {config.nx})"
        )
    if n_ranks > config.ny:
        raise ConfigurationError(
            f"{n_ranks} ranks over {config.ny} rows leaves empty strips"
        )
    engine = Engine(
        machine, n_ranks, seed=seed, trace=trace,
        macro_ops=macro_ops, certificate=certificate,
    )
    sim = engine.run(ocean_program, state0, config, steps)
    h = np.zeros_like(state0.h)
    u = np.zeros_like(state0.u)
    v = np.zeros_like(state0.v)
    for (lo, hi), local in sim.returns:
        h[lo:hi, :] = local.h
        u[lo:hi, :] = local.u
        v[lo:hi, :] = local.v
    return OceanRun(state=OceanState(h, u, v), sim=sim)
