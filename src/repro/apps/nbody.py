"""Direct-sum gravitational N-body: the space-sciences kernel.

NASA's space-science grand challenges (galactic dynamics, planetary
accretion) stressed machines very differently from grid codes: all-pairs
force evaluation is compute-dominated, O(N^2) flops against O(N) data,
so it scales almost perfectly -- the showcase workload for MPPs.

The distributed version uses the classic *ring pipeline*: each rank owns
a block of bodies; position blocks circulate around a ring for p-1
steps, and every rank accumulates partial forces against each visiting
block.  Integration is leapfrog (kick-drift-kick), which conserves
energy to second order; momentum conservation is exact up to round-off
because forces are antisymmetric.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

import numpy as np

from repro.linalg.decomp import block_range
from repro.simmpi.engine import Engine, SimResult
from repro.util.errors import ConfigurationError
from repro.util.rng import resolve_rng

#: Flops per pairwise interaction (distances, softening, accumulate).
FLOPS_PER_PAIR = 20.0


@dataclass
class Bodies:
    """Particle set: positions/velocities (n, 3), masses (n,)."""

    pos: np.ndarray
    vel: np.ndarray
    mass: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.mass)
        if self.pos.shape != (n, 3) or self.vel.shape != (n, 3):
            raise ConfigurationError(
                f"inconsistent shapes: pos {self.pos.shape}, vel {self.vel.shape}, "
                f"{n} masses"
            )

    @property
    def n(self) -> int:
        return len(self.mass)

    def copy(self) -> "Bodies":
        return Bodies(self.pos.copy(), self.vel.copy(), self.mass.copy())


def random_cluster(n: int, seed: int = 0, *, radius: float = 1.0) -> Bodies:
    """Plummer-ish random cluster with small virial velocities."""
    if n < 1:
        raise ConfigurationError(f"need at least one body, got {n}")
    rng = resolve_rng(seed)
    pos = rng.normal(scale=radius, size=(n, 3))
    vel = rng.normal(scale=0.1, size=(n, 3))
    mass = rng.uniform(0.5, 1.5, size=n) / n
    # Remove net momentum so the centre of mass stays put.
    vel -= (mass[:, None] * vel).sum(axis=0) / mass.sum()
    return Bodies(pos=pos, vel=vel, mass=mass)


def accelerations_on(
    targets_pos: np.ndarray,
    source_pos: np.ndarray,
    source_mass: np.ndarray,
    softening: float,
) -> np.ndarray:
    """Acceleration on each target from all sources (no self-exclusion
    term needed: softening keeps the self-interaction finite and the
    r=0 numerator zeroes it exactly)."""
    delta = source_pos[None, :, :] - targets_pos[:, None, :]
    dist2 = (delta**2).sum(axis=2) + softening**2
    inv3 = dist2 ** (-1.5)
    return (delta * (source_mass[None, :] * inv3)[:, :, None]).sum(axis=1)


def potential_energy(bodies: Bodies, softening: float) -> float:
    """Total softened potential energy (pairs counted once)."""
    delta = bodies.pos[None, :, :] - bodies.pos[:, None, :]
    dist = np.sqrt((delta**2).sum(axis=2) + softening**2)
    inv = bodies.mass[:, None] * bodies.mass[None, :] / dist
    return -0.5 * float(inv.sum() - np.trace(inv))


def kinetic_energy(bodies: Bodies) -> float:
    return 0.5 * float((bodies.mass[:, None] * bodies.vel**2).sum())


def total_momentum(bodies: Bodies) -> np.ndarray:
    return (bodies.mass[:, None] * bodies.vel).sum(axis=0)


def serial_step(bodies: Bodies, dt: float, softening: float) -> Bodies:
    """One leapfrog (kick-drift-kick) step, block-ordered accumulation.

    Forces are accumulated source-block by source-block in the same
    order as the p-rank ring pipeline with p=1 (i.e. all at once), so
    the distributed run agrees to round-off.
    """
    out = bodies.copy()
    acc = accelerations_on(out.pos, out.pos, out.mass, softening)
    out.vel += 0.5 * dt * acc
    out.pos += dt * out.vel
    acc = accelerations_on(out.pos, out.pos, out.mass, softening)
    out.vel += 0.5 * dt * acc
    return out


def serial_run(bodies: Bodies, dt: float, steps: int, softening: float = 0.05) -> Bodies:
    out = bodies.copy()
    for _ in range(steps):
        out = serial_step(out, dt, softening)
    return out


@dataclass
class NBodyRun:
    """Distributed run outcome."""

    bodies: Bodies
    sim: SimResult

    @property
    def virtual_time(self) -> float:
        return self.sim.time


def _ring_accelerations(comm, pos_local, mass_local, softening) -> Generator:
    """Accumulate accelerations on local bodies from every block via the
    ring pipeline; returns the (n_local, 3) acceleration array."""
    p = comm.size
    acc = accelerations_on(pos_local, pos_local, mass_local, softening)
    with comm.phase("forces"):
        yield from comm.compute(flops=FLOPS_PER_PAIR * len(pos_local) * len(pos_local))
    if p == 1:
        return acc

    right = (comm.rank + 1) % p
    left = (comm.rank - 1) % p
    visiting = (comm.rank, pos_local, mass_local)
    for step in range(p - 1):
        with comm.phase("ring-shift"):
            # Pre-post the receive: every rank blocking-sending around
            # the ring deadlocks above the eager threshold (W009).
            handle = yield from comm.irecv(source=left, tag=step)
            yield from comm.send(visiting, right, tag=step)
            msg = yield from comm.wait(handle)
        visiting = msg.payload
        _, vpos, vmass = visiting
        acc += accelerations_on(pos_local, vpos, vmass, softening)
        with comm.phase("forces"):
            yield from comm.compute(flops=FLOPS_PER_PAIR * len(pos_local) * len(vpos))
    return acc


def nbody_program(
    comm, bodies0: Bodies, dt: float, steps: int, softening: float
) -> Generator:
    """Rank program: ring-pipeline leapfrog.  Returns (range, block)."""
    p = comm.size
    n = bodies0.n
    lo, hi = block_range(n, p, comm.rank)
    pos = np.array(bodies0.pos[lo:hi], copy=True)
    vel = np.array(bodies0.vel[lo:hi], copy=True)
    mass = np.array(bodies0.mass[lo:hi], copy=True)

    for _ in range(steps):
        acc = yield from _ring_accelerations(comm, pos, mass, softening)
        vel += 0.5 * dt * acc
        pos += dt * vel
        acc = yield from _ring_accelerations(comm, pos, mass, softening)
        vel += 0.5 * dt * acc
        with comm.phase("integrate"):
            yield from comm.compute(flops=12.0 * len(pos))

    return ((lo, hi), Bodies(pos, vel, mass))


def distributed_run(
    machine,
    n_ranks: int,
    bodies0: Bodies,
    *,
    dt: float = 0.01,
    steps: int = 1,
    softening: float = 0.05,
    seed: int = 0,
    trace: bool = False,
) -> NBodyRun:
    """Run the ring-pipeline integrator; reassemble the particle set."""
    if dt <= 0:
        raise ConfigurationError(f"dt must be positive, got {dt}")
    if softening <= 0:
        raise ConfigurationError(f"softening must be positive, got {softening}")
    if n_ranks > bodies0.n:
        raise ConfigurationError(
            f"{n_ranks} ranks for {bodies0.n} bodies leaves idle ranks"
        )
    engine = Engine(machine, n_ranks, seed=seed, trace=trace)
    sim = engine.run(nbody_program, bodies0, dt, steps, softening)
    out = bodies0.copy()
    for (lo, hi), block in sim.returns:
        out.pos[lo:hi] = block.pos
        out.vel[lo:hi] = block.vel
        out.mass[lo:hi] = block.mass
    return NBodyRun(bodies=out, sim=sim)
