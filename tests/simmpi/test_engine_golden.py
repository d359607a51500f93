"""Golden corpus: the engine's observable output, frozen as data.

Each case runs one small program and reduces the result to a record:
the makespan as ``float.hex()``, the event count, failed ranks, macro
fallbacks, and SHA-256 digests of the per-rank stats, the returns, the
tracer's message records and its per-rank span tilings (or, for a run
that deadlocks, a digest of the :class:`DeadlockError` message).
``engine_golden.json`` holds the expected record per case.  It was
recorded while the engine still carried heap-only scheduling, per-rank
update loops and eager bring-up as selectable alternatives; every
combination of those routes produced the same record on every case, so
the corpus is the reference the single remaining path must reproduce.

The cases span the protocol (eager / rendezvous), delivery (alpha-beta
/ contention), overlap, macro-op, tracing and fault-injection axes on a
4x4 block LU, an 8-rank point-to-point + collective ring, a fault that
freezes one of four ranks, and toy-machine deaths (two deaths, a t=0
death, a traced rendezvous death, a survivor that needs a dead peer).

The cases the macro layer can price (untraced alpha-beta runs with
macro-ops on) run a second time with ``macro.VECTOR_WIDTH`` patched to
0: their small groups otherwise price pair by pair on list columns,
and the patch sends every plan through the NumPy rounds instead.

A mismatch prints the observed record; a deliberate semantic change
updates the JSON by hand from that output.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import numbers
from functools import lru_cache, partial
from pathlib import Path

import numpy as np
import pytest

import repro.simmpi.macro as macro
from repro.linalg.blocklu import make_test_matrix
from repro.linalg.decomp import ProcessGrid2D
from repro.linalg.lu2d import lu2d_program
from repro.machine import FullyConnected, LinkModel, Machine, NodeSpec
from repro.machine.presets import touchstone_delta
from repro.simmpi import Engine
from repro.util.errors import DeadlockError

GOLDEN = json.loads(Path(__file__).with_name("engine_golden.json").read_text())

GRID = ProcessGrid2D(4, 4)
EAGER = {"inf": float("inf"), "0": 0.0}  # everything eager / rendezvous


_PLAIN = frozenset({int, str, bool, type(None)})


@lru_cache(maxsize=None)
def _field_names(cls) -> tuple:
    return tuple(f.name for f in dataclasses.fields(cls))


def _canon(value):
    """JSON-ready form: floats as ``hex()``, arrays as nested lists,
    dataclasses as lists of their field values in declaration order,
    dict keys as strings."""
    kind = type(value)
    if kind is float:
        return value.hex()
    if kind in _PLAIN:
        return value
    if kind is list or kind is tuple:
        return [_canon(v) for v in value]
    if kind is dict:
        return {str(k): _canon(v) for k, v in value.items()}
    if dataclasses.is_dataclass(value):
        # Scalar fields inline: a traced case canonicalises ~10^4 spans.
        row = []
        for name in _field_names(kind):
            v = getattr(value, name)
            t = type(v)
            row.append(v.hex() if t is float else v if t in _PLAIN else _canon(v))
        return row
    if kind is np.ndarray:
        return _canon(value.tolist())
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, numbers.Real):
        return float(value).hex()
    raise TypeError(f"no canonical form for {kind.__name__}")


def _digest(value) -> str:
    """SHA-256 of the canonical JSON text (the ledger's digest form)."""
    text = json.dumps(_canon(value), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def observe(run) -> dict:
    """Run one case and reduce its result to the corpus record."""
    try:
        res = run()
    except DeadlockError as exc:
        return {"deadlock": _digest(str(exc))}
    return {
        "time": float(res.time).hex(),
        "events": res.events,
        "failed_ranks": list(res.failed_ranks),
        "macro_fallbacks": res.macro_fallbacks,
        "stats": _digest(list(res.stats)),
        "returns": _digest(res.returns),
        "records": _digest(res.tracer.records),
        "spans": _digest(res.tracer.spans_by_rank()),
    }


def toy_machine(n):
    return Machine(
        name="toy",
        node=NodeSpec("toy", peak_flops=1e8, memory_bytes=1e9, sustained_fraction=1.0),
        topology=FullyConnected(n),
        link=LinkModel(latency_s=1e-5, bandwidth_bytes_per_s=1e8),
    )


def mixed_program(comm):
    """Point-to-point, nonblocking, compute, collectives and an rng draw."""
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    total = float(comm.rng.random())
    for step in range(6):
        h = yield from comm.isend(float(comm.rank * 100 + step), right, tag=step)
        msg = yield from comm.recv(source=left, tag=step)
        yield from comm.wait(h)
        yield from comm.compute(flops=1e5 * (1 + comm.rank % 3))
        total += msg.payload
        total = yield from comm.allreduce(total)
        yield from comm.barrier()
    return total


def faulty_program(comm):
    """Ranks 0/1 trade messages; ranks 2/3 compute (2 dies mid-burn)."""
    if comm.rank < 2:
        peer = 1 - comm.rank
        acc = 0.0
        for step in range(6):
            yield from comm.send(float(comm.rank + step), peer, tag=step)
            msg = yield from comm.recv(source=peer, tag=step)
            acc += msg.payload
            yield from comm.compute(seconds=0.2)
        return acc
    yield from comm.compute(seconds=4.0)
    return comm.rank


def compute_only(comm):
    acc = float(comm.rng.random())
    yield from comm.compute(seconds=2.0 + comm.rank * 0.25)
    return acc


def needs_dead_peer(comm):
    if comm.rank == 0:
        yield from comm.compute(seconds=5.0)
        return None
    msg = yield from comm.recv(source=0)
    return msg.payload


def _run(machine, p, program, *args, **engine_kwargs):
    """One case: a fresh machine and engine, ``program(*args)`` on ``p`` ranks."""
    return Engine(machine(), p, **engine_kwargs).run(program, *args)


def _cases() -> dict:
    cases = {}
    a = make_test_matrix(48, seed=11)  # lu2d_program only reads it
    for eager, delivery, overlap, macro, trace in itertools.product(
        EAGER, ["alphabeta", "contention"], [0, 1], [0, 1], [0, 1]
    ):
        name = f"lu2d/{eager}/{delivery}/overlap{overlap}/macro{macro}/trace{trace}"
        cases[name] = partial(
            _run, touchstone_delta, GRID.size, lu2d_program, GRID, a, 2,
            bool(overlap), seed=11, trace=bool(trace),
            eager_threshold_bytes=EAGER[eager], delivery=delivery,
            macro_ops=bool(macro),
        )
    faults = {"none": None, "dead3,5": {3: 0.0005, 5: 0.0}}
    for eager, delivery, trace, fault in itertools.product(
        EAGER, ["alphabeta", "contention"], [0, 1], faults
    ):
        cases[f"mixed/{eager}/{delivery}/trace{trace}/{fault}"] = partial(
            _run, touchstone_delta, 8, mixed_program, seed=5, trace=bool(trace),
            eager_threshold_bytes=EAGER[eager], delivery=delivery,
            fail_at=faults[fault],
        )
    for trace in (0, 1):
        cases[f"freeze/trace{trace}"] = partial(
            _run, touchstone_delta, 4, faulty_program, seed=3, trace=bool(trace),
            fail_at={2: 1.0},
        )
    for delivery in ("alphabeta", "contention"):
        cases[f"toy/two_deaths/{delivery}"] = partial(
            _run, partial(toy_machine, 8), 8, compute_only,
            fail_at={3: 1.0, 5: 0.5}, delivery=delivery,
        )
    cases["toy/death_at_zero"] = partial(
        _run, partial(toy_machine, 4), 4, compute_only, fail_at={2: 0.0}
    )
    cases["toy/traced_rendezvous_death"] = partial(
        _run, partial(toy_machine, 8), 8, compute_only, trace=True,
        fail_at={1: 0.25}, eager_threshold_bytes=0.0,
    )
    cases["toy/needs_dead_peer"] = partial(
        _run, partial(toy_machine, 2), 2, needs_dead_peer, fail_at={0: 1.0}
    )
    return cases


CASES = _cases()


def test_corpus_names_every_case():
    assert sorted(GOLDEN) == sorted(CASES)


def check(name: str) -> dict:
    """Run case ``name``, assert it reproduces its corpus record, return it."""
    observed = observe(CASES[name])
    # The message is the case's line of engine_golden.json as observed.
    assert observed == GOLDEN[name], (
        f"observed:\n {json.dumps(name)}: {json.dumps(observed, sort_keys=True)}"
    )
    return observed


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_case(name):
    check(name)


@pytest.mark.parametrize(
    "name",
    sorted(n for n in CASES
           if "/alphabeta/" in n and "trace1" not in n and "macro0" not in n),
)
def test_golden_case_on_arrays(name, monkeypatch):
    monkeypatch.setattr(macro, "VECTOR_WIDTH", 0)
    check(name)
