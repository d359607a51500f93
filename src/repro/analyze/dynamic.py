"""Dynamic confirmation: run a suspect program under forced rendezvous.

The static rules flag *hazards*; this module turns a hazard into a
reproduced failure.  :func:`confirm_deadlock` executes the rank program
on a tiny crossbar machine with the eager threshold at zero, so every
payload-bearing send takes the rendezvous path -- the regime where
W009-style bugs actually deadlock.  On deadlock it returns the
:class:`~repro.util.errors.DeadlockError`, whose ``wait_for`` graph and
``cycle`` attributes (built by the engine's wait-for-graph explainer)
identify the ranks involved; a clean run returns ``None``.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.util.errors import DeadlockError


def _toy_machine(n_ranks: int):
    from repro.machine import FullyConnected, LinkModel, Machine, NodeSpec

    return Machine(
        name="lint-confirm",
        node=NodeSpec("lint", peak_flops=1e8, memory_bytes=1e9,
                      sustained_fraction=1.0),
        topology=FullyConnected(n_ranks),
        link=LinkModel(latency_s=1e-5, bandwidth_bytes_per_s=1e8),
    )


def confirm_deadlock(
    program: Callable,
    *args: Any,
    n_ranks: int = 2,
    machine: Any = None,
    eager_threshold_bytes: float = 0.0,
    max_events: int = 1_000_000,
    **kwargs: Any,
) -> Optional[DeadlockError]:
    """Execute ``program`` under forced rendezvous; return the
    :class:`DeadlockError` if it deadlocks, else ``None``.

    The default ``eager_threshold_bytes=0.0`` sends every non-empty
    payload through the rendezvous handshake, the strictest legal MPI
    semantics -- a program that survives it is safe at any threshold.
    """
    from repro.simmpi.engine import Engine

    if machine is None:
        machine = _toy_machine(n_ranks)
    engine = Engine(
        machine,
        n_ranks,
        eager_threshold_bytes=eager_threshold_bytes,
        max_events=max_events,
    )
    try:
        engine.run(program, *args, **kwargs)
    except DeadlockError as err:
        return err
    return None
