"""Discrete-event message-passing simulator (MPI-like, generator-based).

Typical use::

    from repro.machine import touchstone_delta
    from repro.simmpi import Engine

    def program(comm):
        part = yield from comm.scatter(list(range(comm.size)) if comm.rank == 0 else None)
        total = yield from comm.allreduce(part)
        return total

    result = Engine(touchstone_delta(), n_ranks=16).run(program)
    result.returns   # per-rank values
    result.time      # virtual seconds
"""

from repro.simmpi.comm import Comm
from repro.simmpi.delivery import (
    DELIVERY_MODELS,
    AlphaBetaDelivery,
    ContentionAwareDelivery,
    DeliveryModel,
    resolve_delivery,
)
from repro.simmpi.engine import Engine, SimResult, run_program
from repro.simmpi.group import GroupComm
from repro.simmpi.protocol import RendezvousProtocol
from repro.simmpi.requests import (
    ANY_SOURCE,
    ANY_TAG,
    CollectiveReq,
    ComputeReq,
    IrecvReq,
    IsendReq,
    Message,
    RecvReq,
    SendReq,
    WaitanyReq,
    WaitReq,
    payload_nbytes,
)
from repro.simmpi.state import (
    MachineState,
    RankState,
    RankStatsView,
    ReceiveSlot,
    SendHandle,
)
from repro.simmpi.stencil import StencilSpec, grid_halo, strip_halo
from repro.simmpi.cost_models import (
    MODELS,
    ModelValidation,
    allgather_ring_time,
    allreduce_time,
    alltoall_time,
    barrier_time,
    bcast_time,
    reduce_time,
    validate_model,
)
from repro.simmpi.timeline import (
    RankUtilisation,
    hottest_pairs,
    load_balance,
    message_timeline,
    utilisation,
    utilisation_table,
)
from repro.simmpi.trace import MessageRecord, RankStats, Tracer
from repro.simmpi.waitgraph import WaitEdge, WaitForGraph, build_wait_graph

__all__ = [
    "Comm",
    "GroupComm",
    "Engine",
    "SimResult",
    "run_program",
    "ANY_SOURCE",
    "ANY_TAG",
    "CollectiveReq",
    "ComputeReq",
    "IrecvReq",
    "IsendReq",
    "Message",
    "RecvReq",
    "SendReq",
    "WaitReq",
    "WaitanyReq",
    "payload_nbytes",
    "DELIVERY_MODELS",
    "DeliveryModel",
    "AlphaBetaDelivery",
    "ContentionAwareDelivery",
    "resolve_delivery",
    "RendezvousProtocol",
    "MachineState",
    "RankState",
    "RankStatsView",
    "ReceiveSlot",
    "SendHandle",
    "StencilSpec",
    "grid_halo",
    "strip_halo",
    "MODELS",
    "ModelValidation",
    "allgather_ring_time",
    "allreduce_time",
    "alltoall_time",
    "barrier_time",
    "bcast_time",
    "reduce_time",
    "validate_model",
    "RankUtilisation",
    "hottest_pairs",
    "load_balance",
    "message_timeline",
    "utilisation",
    "utilisation_table",
    "MessageRecord",
    "RankStats",
    "Tracer",
    "WaitEdge",
    "WaitForGraph",
    "build_wait_graph",
]
