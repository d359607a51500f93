"""AST extraction: from a module tree to per-rank-program models.

The repo's rank programs are generator functions taking a communicator
(conventionally the parameter ``comm``; sub-communicators are created
with ``row_comm = comm.group(...)``) and driving every communication
coroutine with ``yield from``.  This module finds those functions and
distils each into a :class:`ProgramModel`: the flat list of
communication calls with the context the per-rank rules (W001, W002,
W006) need --

* was the call wrapped in ``yield from``;
* the call's arguments mapped to parameter names, and the names its
  result was bound to (for handle-leak tracking);
* which containers each name flows into (``handles.append(h)``).

Scope is intentionally name-based and per-function (no inter-procedural
analysis).  Cross-rank facts -- which peer a rank talks to, whether the
ranks agree on a collective sequence -- are the symbolic interpreter's
job (:mod:`repro.analyze.symbolic`), which reuses
:func:`iter_program_defs` and :data:`COLLECTIVES` from here.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

#: Comm methods that return generators and MUST be driven with
#: ``yield from`` (rule W001's universe).
COMM_COROUTINES = frozenset(
    {
        "send",
        "recv",
        "isend",
        "irecv",
        "wait",
        "waitall",
        "waitany",
        "sendrecv",
        "exchange",
        "compute",
        "barrier",
        "bcast",
        "reduce",
        "allreduce",
        "gather",
        "allgather",
        "scatter",
        "alltoall",
        "scan",
        "reduce_scatter",
    }
)

#: Collective operations: every rank of the communicator must call them
#: in the same sequence (what the symbolic interpreter records as
#: ``CollOp``).
COLLECTIVES = frozenset(
    {
        "barrier",
        "bcast",
        "reduce",
        "allreduce",
        "gather",
        "allgather",
        "scatter",
        "alltoall",
        "scan",
        "reduce_scatter",
    }
)

#: Positional-argument names per method, mirroring
#: :class:`repro.simmpi.comm.Comm`'s signatures (rules read arguments
#: by name regardless of how the call spelled them).
SIGNATURES: Dict[str, Tuple[str, ...]] = {
    "send": ("payload", "dest", "tag", "nbytes"),
    "isend": ("payload", "dest", "tag", "nbytes"),
    "recv": ("source", "tag"),
    "irecv": ("source", "tag"),
    "wait": ("handle",),
    "waitall": ("handles",),
    "waitany": ("handles",),
    "sendrecv": ("payload", "dest", "source", "sendtag", "recvtag", "nbytes"),
}


@dataclass
class CommCall:
    """One communication call site inside a rank program."""

    method: str
    line: int
    #: 0-based column offset of the call expression.
    col: int
    comm_name: str
    #: Parameter name -> argument expression (positional args resolved
    #: through :data:`SIGNATURES`).
    args: Dict[str, ast.expr]
    #: The call was the operand of a ``yield from``.
    yielded: bool
    #: Names the call's result was assigned to (``h = yield from ...``).
    targets: Tuple[str, ...] = ()
    #: Name of the list the result was appended to, if the statement was
    #: ``lst.append(yield from comm.isend(...))``.
    appended_to: Optional[str] = None


@dataclass
class ProgramModel:
    """Everything the rules need to know about one rank program."""

    name: str
    filename: str
    line: int
    comm_names: Set[str]
    calls: List[CommCall] = field(default_factory=list)
    #: Names that appear in a ``return`` statement (handles escaping to
    #: the caller are the caller's responsibility).
    returned_names: Set[str] = field(default_factory=set)
    #: name -> set of container names it was appended/inserted into.
    flows: Dict[str, Set[str]] = field(default_factory=dict)

    def flows_into(self, name: str) -> Set[str]:
        """Transitive closure of :attr:`flows` starting at ``name``."""
        seen: Set[str] = set()
        frontier = [name]
        while frontier:
            current = frontier.pop()
            for target in self.flows.get(current, ()):
                if target not in seen:
                    seen.add(target)
                    frontier.append(target)
        return seen


# ---------------------------------------------------------------------------
# helpers over expressions
# ---------------------------------------------------------------------------

def _names_in(node: ast.AST) -> Set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def constant_int(expr: Optional[ast.AST]) -> Optional[int]:
    """The expression's integer value if it is a literal (handling the
    unary minus in ``-1``), else None."""
    if expr is None:
        return None
    if isinstance(expr, ast.Constant) and isinstance(expr.value, int):
        return expr.value
    if (
        isinstance(expr, ast.UnaryOp)
        and isinstance(expr.op, ast.USub)
        and isinstance(expr.operand, ast.Constant)
        and isinstance(expr.operand.value, int)
    ):
        return -expr.operand.value
    return None


def is_wildcard(expr: Optional[ast.AST], wildcard_names: Tuple[str, ...]) -> bool:
    """Omitted argument, literal ``-1``, or the named constant."""
    if expr is None:
        return True
    if constant_int(expr) == -1:
        return True
    if isinstance(expr, ast.Name) and expr.id in wildcard_names:
        return True
    if isinstance(expr, ast.Attribute) and expr.attr in wildcard_names:
        return True
    return False


# ---------------------------------------------------------------------------
# program discovery and model construction
# ---------------------------------------------------------------------------

def _comm_params(fn: ast.AST) -> Set[str]:
    """Communicator-like parameter names of a function definition."""
    args = fn.args
    names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    return {n for n in names if n == "comm" or n.endswith("_comm")}


def iter_program_defs(tree: ast.AST) -> Iterator[ast.FunctionDef]:
    """All function definitions (at any nesting) that take a
    communicator parameter -- the linter's unit of analysis."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if _comm_params(node):
                yield node


def _comm_call(node: ast.expr, comm_names: Set[str]) -> Optional[Tuple[str, str]]:
    """``(comm_name, method)`` when the expression is a communication
    call on a known communicator (including the chained
    ``comm.group(...).bcast(...)`` form), else None."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
        return None
    method = node.func.attr
    if method not in COMM_COROUTINES:
        return None
    owner = node.func.value
    if isinstance(owner, ast.Name) and owner.id in comm_names:
        return owner.id, method
    if (
        isinstance(owner, ast.Call)
        and isinstance(owner.func, ast.Attribute)
        and owner.func.attr == "group"
        and isinstance(owner.func.value, ast.Name)
        and owner.func.value.id in comm_names
    ):
        return owner.func.value.id, method
    return None


def _map_args(method: str, call: ast.Call) -> Dict[str, ast.expr]:
    mapped: Dict[str, ast.expr] = {}
    signature = SIGNATURES.get(method, ())
    for position, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            break
        if position < len(signature):
            mapped[signature[position]] = arg
    for keyword in call.keywords:
        if keyword.arg is not None:
            mapped[keyword.arg] = keyword.value
    return mapped


def _target_names(target: ast.expr) -> Tuple[str, ...]:
    if isinstance(target, ast.Name):
        return (target.id,)
    if isinstance(target, (ast.Tuple, ast.List)):
        names: List[str] = []
        for element in target.elts:
            if isinstance(element, ast.Starred):
                element = element.value
            if isinstance(element, ast.Name):
                names.append(element.id)
        return tuple(names)
    return ()


class _ModelBuilder:
    """Drives the block-structured walk that fills a ProgramModel."""

    def __init__(self, fn: ast.FunctionDef, filename: str):
        self.fn = fn
        self.model = ProgramModel(
            name=fn.name,
            filename=filename,
            line=fn.lineno,
            comm_names=_comm_params(fn),
        )
        self._yielded_calls: Set[int] = set()

    # -- prepasses ----------------------------------------------------------

    def _collect_comm_aliases(self) -> None:
        """Fixpoint: names assigned from ``<comm>.group(...)`` are
        communicators too."""
        changed = True
        while changed:
            changed = False
            for node in ast.walk(self.fn):
                if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
                    continue
                value = node.value
                if isinstance(value, ast.YieldFrom):
                    value = value.value
                if (
                    isinstance(value, ast.Call)
                    and isinstance(value.func, ast.Attribute)
                    and value.func.attr == "group"
                    and isinstance(value.func.value, ast.Name)
                    and value.func.value.id in self.model.comm_names
                ):
                    for name in _target_names(node.targets[0]):
                        if name not in self.model.comm_names:
                            self.model.comm_names.add(name)
                            changed = True

    def _collect_yielded(self) -> None:
        for node in ast.walk(self.fn):
            if isinstance(node, ast.YieldFrom):
                self._yielded_calls.add(id(node.value))

    def _collect_returns(self) -> None:
        for node in ast.walk(self.fn):
            if isinstance(node, ast.Return) and node.value is not None:
                self.model.returned_names |= _names_in(node.value)

    # -- the structured walk ------------------------------------------------

    def build(self) -> ProgramModel:
        self._collect_comm_aliases()
        self._collect_yielded()
        self._collect_returns()
        self._walk_block(self.fn.body)
        return self.model

    def _walk_block(self, stmts: List[ast.stmt]) -> None:
        for stmt in stmts:
            self._walk_stmt(stmt)

    def _walk_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.If, ast.While)):
            self._scan_expr(stmt.test)
            self._walk_block(stmt.body)
            self._walk_block(stmt.orelse)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._scan_expr(stmt.iter)
            self._walk_block(stmt.body)
            self._walk_block(stmt.orelse)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._scan_expr(item.context_expr)
            self._walk_block(stmt.body)
        elif isinstance(stmt, ast.Try):
            self._walk_block(stmt.body)
            for handler in stmt.handlers:
                self._walk_block(handler.body)
            self._walk_block(stmt.orelse)
            self._walk_block(stmt.finalbody)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # A nested def with its own communicator parameter is a rank
            # program in its own right and is analysed separately; other
            # nested defs (closures over ``comm``) are folded into this
            # program.
            if not _comm_params(stmt):
                self._walk_block(stmt.body)
        else:
            self._scan_simple_stmt(stmt)

    def _scan_simple_stmt(self, stmt: ast.stmt) -> None:
        targets: Tuple[str, ...] = ()
        appended_to: Optional[str] = None
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            targets = _target_names(stmt.targets[0])
        elif isinstance(stmt, ast.AnnAssign):
            targets = _target_names(stmt.target)
        elif isinstance(stmt, ast.Expr):
            call = stmt.value
            if (
                isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute)
                and call.func.attr in ("append", "add", "insert")
                and isinstance(call.func.value, ast.Name)
            ):
                appended_to = call.func.value.id
                # Also register name-level flows: lst.append(h).
                for arg in call.args:
                    for name in _names_in(arg):
                        self.model.flows.setdefault(name, set()).add(appended_to)
        self._scan_expr(stmt, targets=targets, appended_to=appended_to)

    def _scan_expr(
        self,
        node: ast.AST,
        targets: Tuple[str, ...] = (),
        appended_to: Optional[str] = None,
    ) -> None:
        """Record every communication call found inside ``node``
        (skipping nested function bodies, which are walked as blocks)."""
        for sub in ast.walk(node):
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if not isinstance(sub, ast.Call):
                continue
            found = _comm_call(sub, self.model.comm_names)
            if found is None:
                continue
            comm_name, method = found
            self.model.calls.append(
                CommCall(
                    method=method,
                    line=sub.lineno,
                    col=sub.col_offset,
                    comm_name=comm_name,
                    args=_map_args(method, sub),
                    yielded=id(sub) in self._yielded_calls,
                    targets=targets,
                    appended_to=appended_to,
                )
            )


def build_model(fn: ast.FunctionDef, filename: str) -> ProgramModel:
    """The :class:`ProgramModel` of one rank-program definition."""
    return _ModelBuilder(fn, filename).build()
