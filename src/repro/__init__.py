"""repro: a simulation reproduction of the Federal HPCC Program stack.

The paper this library reproduces -- *High Performance Computing and
Communications Program* (Lee Holcomb, Supercomputing '92) -- is a
programmatic overview: the Touchstone Delta testbed, the NREN network,
the ASTA algorithm effort, and the program's budget and consortia.
Each of those referenced systems is built here as a laptop-scale
simulation (see DESIGN.md for the substitution table):

* :mod:`repro.machine`   -- distributed-memory machine models (Delta et al.)
* :mod:`repro.simmpi`    -- discrete-event message-passing simulator
* :mod:`repro.linalg`    -- distributed LU/SUMMA/CG/FFT + the HPL model
* :mod:`repro.apps`      -- grand-challenge kernels (CFD, ocean, N-body)
* :mod:`repro.network`   -- NREN / consortium wide-area network model
* :mod:`repro.program`   -- agencies, budget, responsibilities, consortia
* :mod:`repro.core`      -- workloads, testbeds, evaluation campaigns

Each subpackage is imported on first access (PEP 562), not by ``import repro``.

Quickstart::

    from repro.machine import touchstone_delta
    from repro.linalg import delta_linpack

    print(touchstone_delta().describe())
    print(delta_linpack())   # the paper's 13-vs-32 GFLOPS exhibit
"""

import importlib

__version__ = "1.0.0"

__all__ = [
    "apps",
    "core",
    "linalg",
    "machine",
    "network",
    "program",
    "simmpi",
    "util",
    "__version__",
]


def __getattr__(name):
    if name in __all__:
        return importlib.import_module(f"repro.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
