"""The performance ledger: an end-to-end benchmark of ``repro serve``.

``perf/run.py`` is the one command; the modules here are its parts:

``requests``
    Workload definitions and seed-driven request generation (pure
    data; imports nothing from ``repro``).
``server``
    The server subprocess, its teardown, and the ``/proc`` CPU/RSS
    reader.
``measure``
    The closed-loop round protocol, result verification, and the
    client-side span tracer.
``metrics``
    Median/IQR helpers; raw rounds to named end-to-end and per-layer
    metrics.
``layers``
    In-process replay of a sample of the generated inputs through each
    layer's public function.
``protocol``
    One workload start to finish: set-ups, timed rounds, teardown,
    golden/direct checks.
``report``
    The printed ledger, result files, the driver's JSON line,
    ``--compare``.
"""

import os

PERF_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPO_ROOT = os.path.dirname(PERF_DIR)
