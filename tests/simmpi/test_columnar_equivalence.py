"""The columnar update route must be invisible in the results.

Per-rank state lives in the columnar
:class:`~repro.simmpi.state.MachineState` arrays, and whole-machine
updates are vectorised array operations.  ``engine_golden.json`` was
recorded while scalar per-rank loops still existed beside them, and
both produced the same record on every case; these checks hold the
vectorised route to that record -- same makespan, per-rank stats,
returns and traced span tilings -- across protocol, delivery-model,
macro-op and fault variations.  A divergence means a vectorised update
reordered or regrouped float arithmetic relative to the scalar loops.
"""

import itertools

import pytest

from .test_engine_golden import check


def _eager(threshold):
    return "inf" if threshold == float("inf") else "0"


# eager threshold inf = everything eager; 0 = everything rendezvous.
MATRIX = list(
    itertools.product(
        [float("inf"), 0.0],
        ["alphabeta", "contention"],
        [False, True],
    )
)


@pytest.mark.parametrize("eager,delivery,macro", MATRIX)
def test_lu2d_columnar_bit_identical(eager, delivery, macro):
    check(f"lu2d/{_eager(eager)}/{delivery}/overlap0/macro{int(macro)}/trace0")


@pytest.mark.parametrize(
    "eager,delivery",
    [(float("inf"), "alphabeta"), (0.0, "contention")],
)
def test_lu2d_columnar_identical_span_tilings(eager, delivery):
    """Traced runs: the span tilings (and message logs) match too."""
    check(f"lu2d/{_eager(eager)}/{delivery}/overlap0/macro1/trace1")


@pytest.mark.parametrize(
    "eager,delivery", [(float("inf"), "alphabeta"), (0.0, "contention")]
)
def test_mixed_program_columnar_bit_identical(eager, delivery):
    check(f"mixed/{_eager(eager)}/{delivery}/trace0/none")


def test_fault_freeze_columnar_bit_identical():
    """Fault freezing (clock clamp, stat freeze) matches the scalar route."""
    observed = check("freeze/trace0")
    assert observed["failed_ranks"] == [2]
