"""``repro.serve``: simulation as a service over the sweep layer.

The HPCC testbeds were *shared national resources* -- many users, one
machine room.  This package is that front door for the reproduction: an
asyncio HTTP/JSON job server that accepts machine+workload specs,
answers repeated questions from the content-addressed run cache in
O(1), coalesces identical in-flight requests onto one simulation, and
executes fresh work on pluggable backends (in-process threads or a
persistent process pool).

Quickstart::

    python -m repro serve --port 8732 --backend pool &
    curl -d '{"workload": "lu2d", "config": {"prows": 2, "pcols": 2,
              "n": 32}}' http://127.0.0.1:8732/jobs

or, from Python/tests::

    from repro.serve import InProcessBackend, serve_in_thread
    with serve_in_thread(backend=InProcessBackend(workers=2)) as handle:
        result = handle.client().run("lu2d", [{"prows": 2, "pcols": 2, "n": 32}])
"""

from repro.serve.app import JobServer, run_server
from repro.serve.backends import (
    BACKENDS,
    Backend,
    InProcessBackend,
    PoolBackend,
    make_backend,
)
from repro.serve.client import ServeClient, ServerHandle, serve_in_thread
from repro.serve.errors import (
    BackendError,
    JobNotFoundError,
    ProtocolError,
    ServeClientError,
    ServeError,
    ServeTransportError,
    UnknownWorkloadError,
)
from repro.serve.jobs import Job, JobManager
from repro.serve.protocol import (
    MAX_BATCH_JOBS,
    MAX_BATCH_POINTS,
    MAX_POINTS,
    JobSpec,
    parse_job_batch,
    parse_job_spec,
)

__all__ = [
    "JobServer",
    "run_server",
    "Backend",
    "InProcessBackend",
    "PoolBackend",
    "BACKENDS",
    "make_backend",
    "ServeClient",
    "ServerHandle",
    "serve_in_thread",
    "Job",
    "JobManager",
    "JobSpec",
    "parse_job_spec",
    "parse_job_batch",
    "MAX_POINTS",
    "MAX_BATCH_JOBS",
    "MAX_BATCH_POINTS",
    "ServeError",
    "ProtocolError",
    "UnknownWorkloadError",
    "JobNotFoundError",
    "BackendError",
    "ServeClientError",
    "ServeTransportError",
]
