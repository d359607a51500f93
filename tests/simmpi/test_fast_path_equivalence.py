"""Run-until-block scheduling must be invisible in the results.

The active rank's resume skips the global heap when nothing else can
fire first.  ``engine_golden.json`` was recorded while a heap-only
schedule still existed beside it, and both produced the same record on
every case; these checks hold the single remaining schedule to that
record -- same makespan, per-rank stats, returns and traced span
tilings -- across protocol, delivery-model and overlap variations.  A
divergence means the run-until-block check admitted an event that was
not actually safe to deliver early.
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


@pytest.mark.parametrize("eager,delivery,overlap", MATRIX)
def test_lu2d_fast_path_bit_identical(eager, delivery, overlap):
    check(f"lu2d/{_eager(eager)}/{delivery}/overlap{int(overlap)}/macro1/trace0")


@pytest.mark.parametrize(
    "eager,delivery,overlap",
    [(float("inf"), "alphabeta", False), (0.0, "contention", True)],
)
def test_lu2d_fast_path_identical_span_tilings(eager, delivery, overlap):
    """Traced runs: the span tilings (and message logs) match too."""
    check(f"lu2d/{_eager(eager)}/{delivery}/overlap{int(overlap)}/macro1/trace1")


@pytest.mark.parametrize("eager,delivery", [(float("inf"), "alphabeta"), (0.0, "contention")])
def test_mixed_program_fast_path_bit_identical(eager, delivery):
    check(f"mixed/{_eager(eager)}/{delivery}/trace0/none")
