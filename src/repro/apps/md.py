"""Short-range molecular dynamics: the chemistry/materials kernel.

The Grand Challenge lists of 1992 always included materials science and
computational chemistry; their kernel is short-range MD -- here a 2-D
truncated Lennard-Jones fluid integrated with velocity Verlet in a
periodic box.

The distributed version uses *spatial (slab) decomposition*, the
pattern the era's MD codes pioneered, with two communication phases no
other kernel in this library has:

* **ghost exchange** -- particles within the cutoff of a slab edge are
  copied to the neighbour (coordinates wrapped across the global
  boundary) so forces can be computed locally;
* **migration** -- after the position update, particles that drifted
  out of the slab are handed to the owning neighbour.

Slabs must be at least one cutoff wide (validated), which bounds the
rank count; particles may not cross a whole slab in one step
(validated via a displacement check).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Tuple

import numpy as np

from repro.simmpi.engine import Engine, SimResult
from repro.util.errors import ConfigurationError, SimulationError
from repro.util.rng import resolve_rng

#: Flops per examined pair (distance, LJ kernel, accumulate).
FLOPS_PER_PAIR = 30.0


@dataclass(frozen=True)
class MDConfig:
    """Lennard-Jones fluid in a periodic square box."""

    box: float = 10.0        # side length L (sigma units)
    cutoff: float = 2.5      # interaction cutoff r_c
    dt: float = 0.005
    epsilon: float = 1.0
    sigma: float = 1.0

    def __post_init__(self) -> None:
        if self.box <= 0 or self.cutoff <= 0 or self.dt <= 0:
            raise ConfigurationError("box, cutoff, dt must be positive")
        if self.epsilon <= 0 or self.sigma <= 0:
            raise ConfigurationError("epsilon and sigma must be positive")
        if self.cutoff > self.box / 2:
            raise ConfigurationError(
                f"cutoff {self.cutoff} exceeds half the box {self.box / 2} "
                "(minimum-image breaks down)"
            )


@dataclass
class Particles:
    """Particle set: ids (n,), positions/velocities (n, 2)."""

    ids: np.ndarray
    pos: np.ndarray
    vel: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.ids)
        if self.pos.shape != (n, 2) or self.vel.shape != (n, 2):
            raise ConfigurationError(
                f"inconsistent shapes: {n} ids, pos {self.pos.shape}, "
                f"vel {self.vel.shape}"
            )

    @property
    def n(self) -> int:
        return len(self.ids)

    def copy(self) -> "Particles":
        return Particles(self.ids.copy(), self.pos.copy(), self.vel.copy())

    def sorted_by_id(self) -> "Particles":
        order = np.argsort(self.ids)
        return Particles(self.ids[order], self.pos[order], self.vel[order])


def lattice_fluid(
    n_side: int, config: MDConfig, *, seed: int = 0, temperature: float = 0.05
) -> Particles:
    """n_side^2 particles on a jittered lattice with thermal velocities."""
    if n_side < 1:
        raise ConfigurationError(f"n_side must be >= 1, got {n_side}")
    rng = resolve_rng(seed)
    spacing = config.box / n_side
    coords = (np.arange(n_side) + 0.5) * spacing
    xx, yy = np.meshgrid(coords, coords)
    pos = np.column_stack([xx.ravel(), yy.ravel()])
    pos += rng.normal(scale=0.05 * spacing, size=pos.shape)
    pos %= config.box
    vel = rng.normal(scale=np.sqrt(temperature), size=pos.shape)
    vel -= vel.mean(axis=0)  # zero net momentum
    n = n_side * n_side
    return Particles(ids=np.arange(n), pos=pos, vel=vel)


def _lj_forces_from(
    targets: np.ndarray,
    sources: np.ndarray,
    config: MDConfig,
    *,
    minimum_image_x: bool,
) -> np.ndarray:
    """Force on each target from all sources (self-pairs excluded by the
    r > 0 mask).  y is always minimum-imaged; x only when requested
    (the slab code pre-wraps ghosts instead)."""
    delta = sources[None, :, :] - targets[:, None, :]
    if minimum_image_x:
        delta[:, :, 0] -= config.box * np.round(delta[:, :, 0] / config.box)
    delta[:, :, 1] -= config.box * np.round(delta[:, :, 1] / config.box)
    r2 = (delta**2).sum(axis=2)
    mask = (r2 > 0.0) & (r2 < config.cutoff**2)
    r2 = np.where(mask, r2, 1.0)  # avoid divide-by-zero off-mask
    s2 = config.sigma**2 / r2
    s6 = s2**3
    # f(r)/r: positive = repulsive (directed from source toward target).
    f_over_r = 24.0 * config.epsilon * (2.0 * s6**2 - s6) / r2
    f_over_r = np.where(mask, f_over_r, 0.0)
    return -(delta * f_over_r[:, :, None]).sum(axis=1)


def potential_energy(particles: Particles, config: MDConfig) -> float:
    """Total truncated-LJ potential (pairs counted once)."""
    pos = particles.pos
    delta = pos[None, :, :] - pos[:, None, :]
    delta -= config.box * np.round(delta / config.box)
    r2 = (delta**2).sum(axis=2)
    iu = np.triu_indices(len(pos), k=1)
    r2 = r2[iu]
    mask = r2 < config.cutoff**2
    r2 = r2[mask]
    s6 = (config.sigma**2 / r2) ** 3
    return float((4.0 * config.epsilon * (s6**2 - s6)).sum())


def kinetic_energy(particles: Particles) -> float:
    return 0.5 * float((particles.vel**2).sum())


def total_momentum(particles: Particles) -> np.ndarray:
    return particles.vel.sum(axis=0)


def serial_step(particles: Particles, config: MDConfig) -> Particles:
    """One velocity-Verlet step with O(N^2) minimum-image forces."""
    out = particles.copy()
    acc = _lj_forces_from(out.pos, out.pos, config, minimum_image_x=True)
    out.vel += 0.5 * config.dt * acc
    out.pos = (out.pos + config.dt * out.vel) % config.box
    acc = _lj_forces_from(out.pos, out.pos, config, minimum_image_x=True)
    out.vel += 0.5 * config.dt * acc
    return out


def serial_run(particles: Particles, config: MDConfig, steps: int) -> Particles:
    out = particles.copy()
    for _ in range(steps):
        out = serial_step(out, config)
    return out


@dataclass
class MDRun:
    """Distributed run outcome."""

    particles: Particles
    sim: SimResult

    @property
    def virtual_time(self) -> float:
        return self.sim.time


def _pack(ids, pos, vel) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    return (np.ascontiguousarray(ids), np.ascontiguousarray(pos),
            np.ascontiguousarray(vel))


def md_program(comm, particles0: Particles, config: MDConfig, steps: int) -> Generator:
    """Rank program: slab decomposition along x.

    Returns this rank's final :class:`Particles` (ownership shifts as
    particles migrate, so reassembly sorts globally by id).
    """
    p = comm.size
    width = config.box / p
    if width < config.cutoff and p > 1:
        raise ConfigurationError(
            f"slab width {width:.3f} below cutoff {config.cutoff}: "
            f"at most {int(config.box / config.cutoff)} ranks for this box"
        )
    x_lo = comm.rank * width
    x_hi = x_lo + width
    own = (particles0.pos[:, 0] >= x_lo) & (particles0.pos[:, 0] < x_hi)
    ids = particles0.ids[own].copy()
    pos = particles0.pos[own].copy()
    vel = particles0.vel[own].copy()
    left = (comm.rank - 1) % p
    right = (comm.rank + 1) % p

    def exchange_ghosts(pos_now, tag0) -> Generator:
        """Send edge bands out; receive neighbour ghosts (wrapped)."""
        if p == 1:
            return np.empty((0, 2))
        send_left = pos_now[:, 0] < x_lo + config.cutoff
        send_right = pos_now[:, 0] >= x_hi - config.cutoff
        out_left = pos_now[send_left].copy()
        if comm.rank == 0:
            out_left[:, 0] += config.box
        out_right = pos_now[send_right].copy()
        if comm.rank == p - 1:
            out_right[:, 0] -= config.box
        with comm.phase("ghosts"):
            # Pre-post both receives before sending: symmetric blocking
            # sends deadlock above the eager threshold (W009).
            r_right = yield from comm.irecv(source=right, tag=tag0)
            r_left = yield from comm.irecv(source=left, tag=tag0 + 1)
            yield from comm.send(out_left, left, tag=tag0)
            yield from comm.send(out_right, right, tag=tag0 + 1)
            from_right = yield from comm.wait(r_right)
            from_left = yield from comm.wait(r_left)
        return np.vstack([from_left.payload, from_right.payload])

    def forces(pos_now, ghosts) -> np.ndarray:
        if len(pos_now) == 0:
            return np.zeros((0, 2))
        sources = np.vstack([pos_now, ghosts]) if len(ghosts) else pos_now
        return _lj_forces_from(
            pos_now, sources, config,
            minimum_image_x=(p == 1),
        )

    for step in range(steps):
        base = 8 * step
        ghosts = yield from exchange_ghosts(pos, base)
        acc = forces(pos, ghosts)
        with comm.phase("forces"):
            yield from comm.compute(
                flops=FLOPS_PER_PAIR * len(pos) * (len(pos) + len(ghosts))
            )
        vel = vel + 0.5 * config.dt * acc
        new_pos = pos + config.dt * vel
        if len(new_pos) and np.abs(new_pos[:, 0] - pos[:, 0]).max() >= width:
            raise SimulationError(
                "a particle crossed a whole slab in one step; reduce dt"
            )
        pos = new_pos
        pos[:, 1] %= config.box
        pos[:, 0] %= config.box

        # Migrate particles that left the slab.  ``rel`` is the wrapped
        # offset from the slab start: [0, w) stays, [w, 2w) went right,
        # anything higher wrapped around to the left.
        if p > 1:
            rel = (pos[:, 0] - x_lo) % config.box
            going_right = rel >= width
            to_right = going_right & (rel < 2 * width)
            to_left = going_right & ~to_right
            keep = ~going_right
            with comm.phase("migrate"):
                r_right = yield from comm.irecv(source=right, tag=base + 2)
                r_left = yield from comm.irecv(source=left, tag=base + 3)
                yield from comm.send(
                    _pack(ids[to_left], pos[to_left], vel[to_left]), left,
                    tag=base + 2,
                )
                yield from comm.send(
                    _pack(ids[to_right], pos[to_right], vel[to_right]), right,
                    tag=base + 3,
                )
                from_right = yield from comm.wait(r_right)
                from_left = yield from comm.wait(r_left)
            ids = np.concatenate([ids[keep], from_right.payload[0], from_left.payload[0]])
            pos = np.vstack([pos[keep], from_right.payload[1], from_left.payload[1]])
            vel = np.vstack([vel[keep], from_right.payload[2], from_left.payload[2]])

        # Second half-kick with fresh ghosts at the new positions.
        ghosts = yield from exchange_ghosts(pos, base + 4)
        acc = forces(pos, ghosts)
        with comm.phase("forces"):
            yield from comm.compute(
                flops=FLOPS_PER_PAIR * len(pos) * (len(pos) + len(ghosts))
            )
        vel = vel + 0.5 * config.dt * acc

    return Particles(ids=ids, pos=pos, vel=vel)


def distributed_run(
    machine,
    n_ranks: int,
    particles0: Particles,
    config: MDConfig,
    steps: int,
    *,
    seed: int = 0,
    trace: bool = False,
) -> MDRun:
    """Run slab-decomposed MD; reassemble the global particle set
    (sorted by particle id)."""
    max_ranks = max(1, int(config.box / config.cutoff))
    if n_ranks > max_ranks:
        raise ConfigurationError(
            f"{n_ranks} ranks: slabs would be thinner than the cutoff "
            f"(max {max_ranks} for box {config.box}, cutoff {config.cutoff})"
        )
    engine = Engine(machine, n_ranks, seed=seed, trace=trace)
    sim = engine.run(md_program, particles0, config, steps)
    ids = np.concatenate([part.ids for part in sim.returns])
    pos = np.vstack([part.pos for part in sim.returns])
    vel = np.vstack([part.vel for part in sim.returns])
    if len(ids) != particles0.n:
        raise SimulationError(
            f"particle count changed: {particles0.n} -> {len(ids)}"
        )
    merged = Particles(ids=ids, pos=pos, vel=vel).sorted_by_id()
    return MDRun(particles=merged, sim=sim)
