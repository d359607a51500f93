"""Symbolic abstract interpretation of rank programs.

The per-rank rules in :mod:`repro.analyze.rules` pattern-match a single
rank's AST.  This module goes further: it *partially evaluates* a rank
program over a symbolic rank ``r`` with a concrete world size ``n``,
producing a parameterized communication schedule
(:class:`~repro.analyze.schedule.SymbolicProgram`) whose peers, tags and
trip counts are either concrete values or expressions evaluable at any
given rank.  The cross-rank matchers (W007-W010) and the macro
certifier (:mod:`repro.analyze.certify`) both run on that schedule.

Value domain
------------

* ordinary Python values (ints, strings, tuples, ``StencilSpec`` ...)
  stay concrete and fold through arithmetic and subscripts;
* :class:`RankExpr` -- an integer function of the rank, carrying an
  affine form ``(a, b, mod)`` (value ``(a*r + b) % mod``) when one
  exists, which W010 uses to reason about neighbor offsets;
* :class:`RankBool` -- a boolean function of the rank (parity splits);
* :class:`Unknown` -- an opaque value; ``rank_dep`` records whether it
  can differ across ranks, and structural ``key``\\ s make two mentions
  of the same source (``config.ny``) comparable;
* :class:`SymArray` -- an array known only by its symbolic shape, the
  carrier of uniform-payload proofs (``x[:1, :]`` has a
  rank-independent first extent even when ``x`` does not);
* :class:`Record` -- the result of an unknown constructor called with
  keyword arguments (``OceanState(h=..., u=..., v=...)``), so field
  access keeps the fields' abstract values.

Everything is deliberately conservative: when the interpreter cannot
prove a fact it degrades to an :class:`Unknown` (poisoning certification
and making the matchers skip), never to a wrong concrete value.  A
program using syntax outside the supported subset yields a
``SymbolicProgram`` with ``failure`` set, and every downstream consumer
fails open.
"""

from __future__ import annotations

import ast
import inspect
import textwrap
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.analyze.schedule import (
    Branch,
    CollOp,
    ExchangeOp,
    Loop,
    RecvOp,
    SendOp,
    SymbolicProgram,
    WaitOp,
)
from repro.analyze.visitor import COLLECTIVES, iter_program_defs
from repro.linalg.decomp import block_range, block_ranges
from repro.simmpi.macro import SUPPORTED
from repro.simmpi.stencil import StencilSpec, grid_halo, strip_halo
from repro.util.errors import AnalysisError

#: Concrete-count loops up to this bound are unrolled in place.
UNROLL_MAX = 64

#: (kind, algorithm) pairs that evaluate in closed form under engine
#: macro-ops: the macro table's, plus allreduce's reduce_bcast, which
#: composes two of them.
MACRO_ELIGIBLE = SUPPORTED | {("allreduce", "reduce_bcast")}


# ---------------------------------------------------------------------------
# the value domain
# ---------------------------------------------------------------------------

class RankExpr:
    """An integer-valued function of the symbolic rank."""

    __slots__ = ("fn", "affine")

    def __init__(
        self,
        fn: Callable[[int], int],
        affine: Optional[Tuple[int, int, Optional[int]]] = None,
    ):
        self.fn = fn
        #: ``(a, b, mod)`` meaning ``(a*rank + b) % mod`` (mod may be
        #: None); only set when the expression really has that form.
        self.affine = affine

    def at(self, rank: int) -> int:
        return self.fn(rank)

    def __repr__(self) -> str:
        if self.affine:
            a, b, mod = self.affine
            base = f"{a}*r{b:+d}"
            return f"<{base} % {mod}>" if mod is not None else f"<{base}>"
        return "<rank-expr>"


class RankBool:
    """A boolean-valued function of the symbolic rank."""

    __slots__ = ("fn",)

    def __init__(self, fn: Callable[[int], bool]):
        self.fn = fn

    def at(self, rank: int) -> bool:
        return bool(self.fn(rank))

    def __repr__(self) -> str:
        return "<rank-bool>"


class Unknown:
    """An opaque abstract value."""

    __slots__ = ("rank_dep", "key")

    def __init__(self, rank_dep: bool, key: Any = None):
        self.rank_dep = rank_dep
        self.key = key

    def __repr__(self) -> str:
        dep = "rank-dep" if self.rank_dep else "uniform"
        return f"<unknown {dep} {self.key!r}>" if self.key else f"<unknown {dep}>"


class SymArray:
    """An array known only by its symbolic shape (per-axis extents)."""

    __slots__ = ("dims", "key")

    def __init__(self, dims: Tuple[Any, ...], key: Any = None):
        self.dims = dims
        self.key = key

    def __repr__(self) -> str:
        return f"<array {self.dims!r}>"


class Record:
    """Result of an unknown constructor captured field-by-field."""

    __slots__ = ("fields", "rank_dep")

    def __init__(self, fields: Dict[str, Any], rank_dep: bool):
        self.fields = fields
        self.rank_dep = rank_dep

    def __repr__(self) -> str:
        return f"<record {sorted(self.fields)}>"


class CommVal:
    """The communicator parameter (world) or a ``comm.group(...)``."""

    __slots__ = ("world", "members")

    def __init__(self, world: bool, members: Any = None):
        self.world = world
        self.members = members


class _Callable:
    """A concrete Python callable reachable from an assumed value."""

    __slots__ = ("fn",)

    def __init__(self, fn: Callable):
        self.fn = fn


def is_rank_dep(value: Any) -> bool:
    """Whether the abstract value can differ across ranks."""
    if isinstance(value, (RankExpr, RankBool)):
        return True
    if isinstance(value, Unknown):
        return value.rank_dep
    if isinstance(value, Record):
        return value.rank_dep
    if isinstance(value, SymArray):
        return any(is_rank_dep(d) for d in value.dims)
    if isinstance(value, (tuple, list)):
        return any(is_rank_dep(v) for v in value)
    if isinstance(value, _RangeExpr):
        return is_rank_dep(value.count)
    return False


def uniform_shape(value: Any) -> bool:
    """Payload shape provably identical on every rank: a concrete
    value, a rank-independent abstract value, or a :class:`SymArray`
    whose every extent is rank-independent."""
    if isinstance(value, SymArray):
        return not any(is_rank_dep(d) for d in value.dims)
    return not is_rank_dep(value)


def structural_key(value: Any) -> Any:
    """A hashable identity for join/equality, or None when opaque."""
    if value is None or isinstance(value, (int, float, bool, str)):
        return ("const", value)
    if isinstance(value, RankExpr):
        return ("rank", value.affine) if value.affine else None
    if isinstance(value, Unknown):
        return ("unk", value.key, value.rank_dep) if value.key is not None else None
    if isinstance(value, tuple):
        parts = tuple(structural_key(v) for v in value)
        return None if any(p is None for p in parts) else ("tuple", parts)
    if isinstance(value, SymArray):
        parts = tuple(structural_key(d) for d in value.dims)
        return None if any(p is None for p in parts) else ("arr", value.key, parts)
    return None


def join(a: Any, b: Any) -> Any:
    """Least-effort upper bound of two abstract values (loop widening)."""
    if a is b:
        return a
    ka, kb = structural_key(a), structural_key(b)
    if ka is not None and ka == kb:
        return a
    if isinstance(a, SymArray) and isinstance(b, SymArray) and len(a.dims) == len(
        b.dims
    ):
        dims = tuple(join(da, db) for da, db in zip(a.dims, b.dims))
        return SymArray(dims, key=a.key if a.key == b.key else None)
    if isinstance(a, Record) and isinstance(b, Record):
        fields = {
            name: join(a.fields[name], b.fields[name])
            for name in set(a.fields) & set(b.fields)
        }
        return Record(fields, rank_dep=a.rank_dep or b.rank_dep)
    if isinstance(a, tuple) and isinstance(b, tuple) and len(a) == len(b):
        return tuple(join(x, y) for x, y in zip(a, b))
    dep = is_rank_dep(a) or is_rank_dep(b)
    key_a = a.key if isinstance(a, Unknown) else None
    key_b = b.key if isinstance(b, Unknown) else None
    return Unknown(rank_dep=dep, key=key_a if key_a is not None and key_a == key_b else None)


# ---------------------------------------------------------------------------
# control-flow signals
# ---------------------------------------------------------------------------

class _Return(Exception):
    pass


class _Break(Exception):
    pass


class _Continue(Exception):
    pass


class _Raise(Exception):
    pass


class Unsupported(AnalysisError):
    """Source construct outside the interpretable subset."""


_WILDCARD = -1


# ---------------------------------------------------------------------------
# the interpreter
# ---------------------------------------------------------------------------

class _Interp:
    def __init__(self, fn: ast.FunctionDef, n_ranks: int, filename: str,
                 assume: Optional[Dict[str, Any]] = None):
        self.fn = fn
        self.n = n_ranks
        self.filename = filename
        self.assume = dict(assume or {})
        self.env: Dict[str, Any] = {}
        self.ops: List[Any] = []
        self._op_stack: List[List[Any]] = [self.ops]
        self.program = SymbolicProgram(
            name=fn.name, filename=filename, line=fn.lineno, n_ranks=n_ranks
        )

    # -- driving ------------------------------------------------------------

    def run(self) -> SymbolicProgram:
        args = self.fn.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        for name in params:
            if name == "comm" or name.endswith("_comm"):
                self.env[name] = CommVal(world=True)
            elif name in self.assume:
                self.env[name] = self.assume[name]
            else:
                self.env[name] = Unknown(rank_dep=False, key=("param", name))
        try:
            self.exec_block(self.fn.body, toplevel=True)
        except (_Return, _Raise):
            pass
        except Unsupported as exc:
            self.program.failure = str(exc)
        except RecursionError:
            self.program.failure = "recursion limit during interpretation"
        self.program.ops = self.ops
        return self.program

    # -- emission -----------------------------------------------------------

    def emit(self, op: Any) -> None:
        self._op_stack[-1].append(op)

    def _nested(self, body: Callable[[], None]) -> List[Any]:
        """Run ``body`` with emissions redirected to a fresh list."""
        ops: List[Any] = []
        self._op_stack.append(ops)
        try:
            body()
        finally:
            self._op_stack.pop()
        return ops

    # -- statements ---------------------------------------------------------

    def exec_block(self, stmts: List[ast.stmt], toplevel: bool = False) -> None:
        """Execute a suite.

        ``toplevel`` marks the function-body suite (including a suite
        continuation re-routed into a branch arm, which *is* the rest
        of the function for the ranks taking that arm).  There an
        ``if`` whose arm returns/raises under a symbolic guard can be
        modeled precisely: the remaining statements belong to the
        surviving arm.  In nested suites (loops, ``with`` bodies) the
        enclosing continuation cannot be re-routed, so termination
        under a symbolic guard raises the ``has_guarded_ops`` hazard
        instead and the cross-rank matchers skip the program.
        """
        for i, stmt in enumerate(stmts):
            if isinstance(stmt, ast.If):
                if self.exec_if(stmt, rest=stmts[i + 1:], toplevel=toplevel):
                    return  # continuation consumed by a branch arm
            else:
                self.exec_stmt(stmt)

    def exec_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            value = self.eval(stmt.value)
            if len(stmt.targets) != 1:
                for target in stmt.targets:
                    self.assign(target, value)
            else:
                self.assign(stmt.targets[0], value)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self.assign(stmt.target, self.eval(stmt.value))
        elif isinstance(stmt, ast.AugAssign):
            current = self.eval_target_value(stmt.target)
            value = self.binop(stmt.op, current, self.eval(stmt.value))
            self.assign(stmt.target, value)
        elif isinstance(stmt, ast.Expr):
            self.eval(stmt.value, statement=True)
        elif isinstance(stmt, ast.If):
            self.exec_if(stmt)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self.exec_for(stmt)
        elif isinstance(stmt, ast.While):
            self.exec_while(stmt)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                value = self.eval(item.context_expr)
                if item.optional_vars is not None:
                    self.assign(item.optional_vars, value)
            self.exec_block(stmt.body)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self.eval(stmt.value)
            raise _Return()
        elif isinstance(stmt, ast.Raise):
            raise _Raise()
        elif isinstance(stmt, ast.Break):
            raise _Break()
        elif isinstance(stmt, ast.Continue):
            raise _Continue()
        elif isinstance(stmt, (ast.Pass, ast.Import, ast.ImportFrom, ast.Global,
                               ast.Nonlocal, ast.Assert, ast.Delete)):
            pass
        elif isinstance(stmt, ast.Try):
            # Exceptional control flow is outside the model; interpret
            # the main body and ignore handlers (fail open on raise).
            self.exec_block(stmt.body)
            self.exec_block(stmt.orelse)
            self.exec_block(stmt.finalbody)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Nested defs are opaque callables; calling one degrades to
            # Unknown like any unresolved call.
            self.env[stmt.name] = Unknown(rank_dep=False, key=("def", stmt.name))
        else:
            raise Unsupported(f"unsupported statement {type(stmt).__name__}")

    def assign(self, target: ast.expr, value: Any) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = value
        elif isinstance(target, (ast.Tuple, ast.List)):
            elts = target.elts
            if any(isinstance(e, ast.Starred) for e in elts):
                for element in elts:
                    if isinstance(element, ast.Starred):
                        element = element.value
                    self.assign(element, Unknown(rank_dep=is_rank_dep(value)))
                return
            parts = self.unpack(value, len(elts))
            for element, part in zip(elts, parts):
                self.assign(element, part)
        elif isinstance(target, (ast.Subscript, ast.Attribute)):
            # Writing through a container/attribute: widen the base name
            # so stale shape facts cannot survive the store.
            base = target
            while isinstance(base, (ast.Subscript, ast.Attribute)):
                base = base.value
            if isinstance(base, ast.Name) and base.id in self.env:
                old = self.env[base.id]
                self.env[base.id] = join(old, old if not is_rank_dep(value)
                                         else Unknown(rank_dep=True))
        else:
            raise Unsupported(f"unsupported assign target {type(target).__name__}")

    def eval_target_value(self, target: ast.expr) -> Any:
        try:
            return self.eval(target)
        except Unsupported:
            return Unknown(rank_dep=False)

    def unpack(self, value: Any, count: int) -> List[Any]:
        if isinstance(value, (tuple, list)) and len(value) == count:
            return list(value)
        dep = is_rank_dep(value)
        key = value.key if isinstance(value, Unknown) else None
        return [
            Unknown(rank_dep=dep, key=(key, "unpack", count, i) if key is not None else None)
            for i in range(count)
        ]

    # -- control flow -------------------------------------------------------

    def exec_if(self, stmt: ast.If, rest: Sequence[ast.stmt] = (),
                toplevel: bool = False) -> bool:
        """Execute an ``if``; True when the suite continuation ``rest``
        was consumed into a branch arm (caller must stop)."""
        test = self.eval(stmt.test)
        if isinstance(test, (RankExpr, RankBool)):
            rb = test if isinstance(test, RankBool) else RankBool(
                lambda r, e=test: bool(e.at(r))
            )
            return self._symbolic_branch(stmt, test=rb, uniform=False,
                                         rest=rest, toplevel=toplevel)
        if isinstance(test, (Unknown, Record, SymArray)):
            return self._symbolic_branch(stmt, test=None,
                                         uniform=not is_rank_dep(test),
                                         rest=rest, toplevel=toplevel)
        self.exec_block(stmt.body if test else stmt.orelse)
        return False

    def _symbolic_branch(self, stmt: ast.If, test: Any, uniform: bool,
                         rest: Sequence[ast.stmt] = (),
                         toplevel: bool = False) -> bool:
        snapshot = dict(self.env)
        body_env: Dict[str, Any] = {}
        orelse_env: Dict[str, Any] = {}
        terminated = [False, False]

        def run_arm(block: List[ast.stmt], out_env: Dict[str, Any], slot: int) -> List[Any]:
            self.env = dict(snapshot)

            def go() -> None:
                try:
                    self.exec_block(block)
                except (_Return, _Raise):
                    terminated[slot] = True

            ops = self._nested(go)  # partial ops survive a return/raise
            out_env.update(self.env)
            return ops

        try:
            body_ops = run_arm(stmt.body, body_env, 0)
            orelse_ops = run_arm(stmt.orelse, orelse_env, 1)
        finally:
            self.env = snapshot

        consumed = False
        if terminated[0] or terminated[1]:
            if toplevel:
                # An arm that returns/raises ends the function for its
                # ranks, so the statements after the if are exactly the
                # continuation of the *surviving* arm: fold them in.
                if terminated[0] and terminated[1]:
                    consumed = bool(rest)  # both arms exit: rest is dead
                elif rest:
                    surviving_env = orelse_env if terminated[0] else body_env
                    self.env = dict(surviving_env)

                    def go_rest() -> None:
                        try:
                            self.exec_block(list(rest), toplevel=True)
                        except (_Return, _Raise):
                            pass

                    rest_ops = self._nested(go_rest)
                    if terminated[0]:
                        orelse_ops = orelse_ops + rest_ops
                        orelse_env = dict(self.env)
                    else:
                        body_ops = body_ops + rest_ops
                        body_env = dict(self.env)
                    self.env = snapshot
                    consumed = True
            elif test is not None or not uniform:
                # Nested suite: the enclosing continuation cannot be
                # re-routed, so it is conditionally executed.  Record
                # the hazard; matchers and certification skip.
                self.program.has_guarded_ops = True

        live = []
        if not terminated[0]:
            live.append(body_env)
        if not terminated[1]:
            live.append(orelse_env)
        merged = dict(snapshot)
        names = set()
        for env in live:
            names |= set(env)
        for name in names:
            values = [env.get(name, snapshot.get(name)) for env in live]
            values = [v for v in values if v is not None]
            if not values:
                continue
            out = values[0]
            for v in values[1:]:
                out = join(out, v)
            merged[name] = out
        self.env = merged

        from repro.analyze.schedule import _has_comm_ops
        has_ops = _has_comm_ops(body_ops) or _has_comm_ops(orelse_ops)
        if has_ops and test is None and not uniform:
            self.program.has_guarded_ops = True
        if body_ops or orelse_ops:
            self.emit(
                Branch(
                    test=test,
                    body=body_ops,
                    orelse=orelse_ops,
                    line=stmt.lineno,
                    uniform=uniform,
                )
            )
        return consumed

    def exec_for(self, stmt: ast.For) -> None:
        iterable = self.eval(stmt.iter)
        if isinstance(iterable, range) and len(iterable) <= UNROLL_MAX:
            self._unroll(stmt, list(iterable))
            return
        if isinstance(iterable, (tuple, list)) and len(iterable) <= UNROLL_MAX:
            self._unroll(stmt, list(iterable))
            return
        if isinstance(iterable, range):
            count: Any = len(iterable)
        elif isinstance(iterable, RankExpr):
            # range() over rank expressions produces a _RangeExpr below;
            # a bare RankExpr is not iterable.
            count = None
        elif isinstance(iterable, _RangeExpr):
            count = iterable.count
        elif isinstance(iterable, (tuple, list)):
            count = len(iterable)
        else:
            count = None
        uniform = not is_rank_dep(iterable)
        self._widened_loop(stmt, count=count, uniform=uniform,
                           loop_var_dep=is_rank_dep(iterable))

    def _unroll(self, stmt: ast.For, items: List[Any]) -> None:
        for item in items:
            self.assign(stmt.target, item)
            try:
                self.exec_block(stmt.body)
            except _Break:
                break
            except _Continue:
                continue
        else:
            self.exec_block(stmt.orelse)

    def _widened_loop(self, stmt: Union[ast.For, ast.While], *, count: Any,
                      uniform: bool, loop_var_dep: bool) -> None:
        # Pass 1: discover assigned names and widen the environment,
        # discarding the emissions; pass 2 produces the loop body ops.
        snapshot = dict(self.env)
        if isinstance(stmt, ast.For):
            self.assign(stmt.target, Unknown(rank_dep=loop_var_dep))

        def body() -> None:
            try:
                self.exec_block(stmt.body)
            except (_Break, _Continue, _Return, _Raise):
                pass

        self._nested(body)
        after = self.env
        widened = dict(snapshot)
        for name, value in after.items():
            if name in snapshot:
                widened[name] = join(snapshot[name], value)
            else:
                widened[name] = join(value, Unknown(rank_dep=is_rank_dep(value)))
        self.env = widened
        if isinstance(stmt, ast.For):
            self.assign(stmt.target, Unknown(rank_dep=loop_var_dep))
        ops = self._nested(body)

        from repro.analyze.schedule import _has_comm_ops
        if _has_comm_ops(ops):
            if count is None:
                self.program.has_unknown_loop = True
            self.emit(Loop(count=count, body=ops, line=stmt.lineno, uniform=uniform))

    def exec_while(self, stmt: ast.While) -> None:
        test = self.eval(stmt.test)
        if not isinstance(test, (Unknown, RankExpr, RankBool, Record, SymArray)):
            if not test:
                self.exec_block(stmt.orelse)
                return
            # A concrete-True while guard cannot be unrolled statically.
            self._widened_loop(stmt, count=None, uniform=True, loop_var_dep=False)
            return
        self._widened_loop(
            stmt, count=None, uniform=not is_rank_dep(test),
            loop_var_dep=is_rank_dep(test),
        )

    # -- expressions --------------------------------------------------------

    def eval(self, node: ast.expr, statement: bool = False) -> Any:
        if isinstance(node, ast.Constant):
            return node.value
        if isinstance(node, ast.Name):
            return self.lookup(node.id)
        if isinstance(node, ast.Attribute):
            return self.attribute(self.eval(node.value), node.attr)
        if isinstance(node, ast.Tuple):
            return tuple(self.eval(e) for e in node.elts)
        if isinstance(node, ast.List):
            return [self.eval(e) for e in node.elts]
        if isinstance(node, ast.BinOp):
            return self.binop(node.op, self.eval(node.left), self.eval(node.right))
        if isinstance(node, ast.UnaryOp):
            return self.unaryop(node.op, self.eval(node.operand))
        if isinstance(node, ast.BoolOp):
            return self.boolop(node)
        if isinstance(node, ast.Compare):
            return self.compare(node)
        if isinstance(node, ast.IfExp):
            test = self.eval(node.test)
            if isinstance(test, (Unknown, Record, SymArray)):
                return join(self.eval(node.body), self.eval(node.orelse))
            if isinstance(test, (RankExpr, RankBool)):
                body, orelse = self.eval(node.body), self.eval(node.orelse)
                # Concrete arms under a rank test stay per-rank
                # evaluable (`"tree" if r % 2 else "ring"` matters to
                # W008's algorithm comparison, not just int peers).
                if all(
                    v is None or isinstance(v, (int, float, str))
                    for v in (body, orelse)
                ):
                    return RankExpr(
                        lambda r, t=test, x=body, y=orelse: x if t.at(r) else y
                    )
                joined = join(body, orelse)
                if isinstance(joined, Unknown) and structural_key(body) != \
                        structural_key(orelse):
                    return Unknown(rank_dep=True, key=None)
                return joined
            return self.eval(node.body if test else node.orelse)
        if isinstance(node, ast.Call):
            return self.call(node, statement=statement)
        if isinstance(node, ast.Subscript):
            return self.subscript(node)
        if isinstance(node, ast.YieldFrom):
            inner = self.eval(node.value)
            if isinstance(inner, _PendingOp):
                for op in inner.ops:
                    self.emit(op)
                return inner.value
            return Unknown(rank_dep=True)
        if isinstance(node, (ast.GeneratorExp, ast.ListComp, ast.SetComp,
                             ast.DictComp)):
            free = {
                n.id for n in ast.walk(node) if isinstance(n, ast.Name)
            }
            dep = any(
                is_rank_dep(self.env[name]) for name in free if name in self.env
            )
            return Unknown(rank_dep=dep)
        if isinstance(node, ast.JoinedStr):
            return Unknown(rank_dep=any(
                is_rank_dep(self.eval(v.value))
                for v in node.values if isinstance(v, ast.FormattedValue)
            ))
        if isinstance(node, ast.Slice):
            return slice(
                self.eval(node.lower) if node.lower else None,
                self.eval(node.upper) if node.upper else None,
                self.eval(node.step) if node.step else None,
            )
        if isinstance(node, ast.Starred):
            return self.eval(node.value)
        if isinstance(node, (ast.Lambda, ast.Dict, ast.Set, ast.Await, ast.Yield)):
            return Unknown(rank_dep=False)
        raise Unsupported(f"unsupported expression {type(node).__name__}")

    def lookup(self, name: str) -> Any:
        if name in self.env:
            return self.env[name]
        if name in _GLOBAL_VALUES:
            return _GLOBAL_VALUES[name]
        if name in _INTRINSICS:
            return _Intrinsic(name)
        return Unknown(rank_dep=False, key=("global", name))

    def attribute(self, owner: Any, attr: str) -> Any:
        if isinstance(owner, CommVal):
            if attr == "rank":
                if owner.world:
                    return RankExpr(lambda r: r, affine=(1, 0, None))
                return Unknown(rank_dep=True, key=None)
            if attr == "size":
                return self.n if owner.world else Unknown(rank_dep=False)
            return _CommMethod(owner, attr)
        if isinstance(owner, Record):
            if attr in owner.fields:
                return owner.fields[attr]
            return Unknown(rank_dep=owner.rank_dep)
        if isinstance(owner, Unknown):
            key = (owner.key, ".", attr) if owner.key is not None else None
            return Unknown(rank_dep=owner.rank_dep, key=key)
        if isinstance(owner, (RankExpr, RankBool)):
            return Unknown(rank_dep=True)
        if isinstance(owner, SymArray):
            if attr == "shape":
                return owner.dims
            if attr in ("copy", "astype"):
                return _ShapePreserver(owner)
            key = (owner.key, ".", attr) if owner.key is not None else None
            return Unknown(rank_dep=is_rank_dep(owner), key=key)
        # A real object (assumed parameter, StencilSpec, module, ...).
        try:
            value = getattr(owner, attr)
        except Exception:
            return Unknown(rank_dep=False)
        if callable(value) and not isinstance(value, type):
            return _Callable(value)
        if value is None or isinstance(value, (int, float, bool, str, tuple,
                                               StencilSpec)):
            return value
        if callable(value):
            return _Callable(value)
        return value

    # -- operators ----------------------------------------------------------

    def binop(self, op: ast.operator, left: Any, right: Any) -> Any:
        concrete_l = _is_concrete_scalar(left)
        concrete_r = _is_concrete_scalar(right)
        if concrete_l and concrete_r:
            try:
                return _BINOPS[type(op)](left, right)
            except (KeyError, TypeError, ZeroDivisionError, ValueError):
                return Unknown(rank_dep=False)
        if isinstance(left, (tuple, list)) and isinstance(right, (tuple, list)) and \
                isinstance(op, ast.Add):
            return type(left)(list(left) + list(right))
        rank_l = isinstance(left, RankExpr) or (concrete_l and isinstance(left, int))
        rank_r = isinstance(right, RankExpr) or (concrete_r and isinstance(right, int))
        if (isinstance(left, RankExpr) or isinstance(right, RankExpr)) and \
                rank_l and rank_r and type(op) in _BINOPS:
            return self._rank_binop(op, left, right)
        # Elementwise array arithmetic preserves the known shape.
        if isinstance(op, (ast.Add, ast.Sub, ast.Mult, ast.Div)):
            if isinstance(left, SymArray) and isinstance(right, SymArray):
                if len(left.dims) == len(right.dims):
                    dims = tuple(
                        join(da, db) for da, db in zip(left.dims, right.dims)
                    )
                    return SymArray(dims, key=None)
                return Unknown(rank_dep=is_rank_dep(left) or is_rank_dep(right))
            if isinstance(left, SymArray):
                return SymArray(left.dims, key=None)
            if isinstance(right, SymArray):
                return SymArray(right.dims, key=None)
        return Unknown(rank_dep=is_rank_dep(left) or is_rank_dep(right))

    def _rank_binop(self, op: ast.operator, left: Any, right: Any) -> Any:
        fn = _BINOPS[type(op)]

        def lift(v: Any) -> Callable[[int], int]:
            if isinstance(v, RankExpr):
                return v.at
            return lambda r, c=v: c

        lf, rf = lift(left), lift(right)

        def compute(r: int) -> int:
            return fn(lf(r), rf(r))

        affine = None
        la = left.affine if isinstance(left, RankExpr) else (0, left, None)
        ra = right.affine if isinstance(right, RankExpr) else (0, right, None)
        if la is not None and ra is not None:
            (a1, b1, m1), (a2, b2, m2) = la, ra
            if isinstance(op, ast.Add) and m1 is None and m2 is None:
                affine = (a1 + a2, b1 + b2, None)
            elif isinstance(op, ast.Sub) and m1 is None and m2 is None:
                affine = (a1 - a2, b1 - b2, None)
            elif isinstance(op, ast.Mult) and m1 is None and m2 is None and (
                a1 == 0 or a2 == 0
            ):
                affine = (a1 * b2 + a2 * b1, b1 * b2, None)
            elif isinstance(op, ast.Mod) and m1 is None and a2 == 0 and m2 is None \
                    and b2 > 0:
                affine = (a1, b1, b2)
        return RankExpr(compute, affine=affine)

    def unaryop(self, op: ast.unaryop, operand: Any) -> Any:
        if _is_concrete_scalar(operand):
            try:
                if isinstance(op, ast.USub):
                    return -operand
                if isinstance(op, ast.UAdd):
                    return +operand
                if isinstance(op, ast.Not):
                    return not operand
                if isinstance(op, ast.Invert):
                    return ~operand
            except TypeError:
                return Unknown(rank_dep=False)
        if isinstance(operand, RankExpr):
            if isinstance(op, ast.USub):
                affine = None
                if operand.affine and operand.affine[2] is None:
                    a, b, _ = operand.affine
                    affine = (-a, -b, None)
                return RankExpr(lambda r, e=operand: -e.at(r), affine=affine)
            if isinstance(op, ast.Not):
                return RankBool(lambda r, e=operand: not e.at(r))
        if isinstance(operand, RankBool) and isinstance(op, ast.Not):
            return RankBool(lambda r, e=operand: not e.at(r))
        return Unknown(rank_dep=is_rank_dep(operand))

    def boolop(self, node: ast.BoolOp) -> Any:
        values = [self.eval(v) for v in node.values]
        if all(_is_concrete_scalar(v) or v is None or isinstance(v, str)
               for v in values):
            if isinstance(node.op, ast.And):
                out: Any = True
                for v in values:
                    out = v
                    if not v:
                        return v
                return out
            for v in values:
                if v:
                    return v
            return values[-1]
        symbolic = [v for v in values if isinstance(v, (RankExpr, RankBool))]
        opaque = [v for v in values if isinstance(v, (Unknown, Record, SymArray))]
        if symbolic and not opaque:
            def as_bool(v: Any) -> Callable[[int], bool]:
                if isinstance(v, (RankExpr, RankBool)):
                    return lambda r, e=v: bool(e.at(r))
                return lambda r, c=bool(v): c

            fns = [as_bool(v) for v in values]
            if isinstance(node.op, ast.And):
                return RankBool(lambda r, fs=fns: all(f(r) for f in fs))
            return RankBool(lambda r, fs=fns: any(f(r) for f in fs))
        return Unknown(rank_dep=any(is_rank_dep(v) for v in values))

    def compare(self, node: ast.Compare) -> Any:
        left = self.eval(node.left)
        result: Any = True
        for op, comparator in zip(node.ops, node.comparators):
            right = self.eval(comparator)
            part = self._compare_one(op, left, right)
            result = self._and(result, part)
            left = right
        return result

    def _and(self, a: Any, b: Any) -> Any:
        if a is True:
            return b
        if b is True:
            return a
        if a is False or b is False:
            return False
        if isinstance(a, (RankExpr, RankBool)) and isinstance(b, (RankExpr, RankBool)):
            return RankBool(lambda r, x=a, y=b: bool(x.at(r)) and bool(y.at(r)))
        return Unknown(rank_dep=is_rank_dep(a) or is_rank_dep(b))

    def _compare_one(self, op: ast.cmpop, left: Any, right: Any) -> Any:
        concrete_l = _is_concrete_scalar(left) or left is None or isinstance(
            left, (str, tuple)
        )
        concrete_r = _is_concrete_scalar(right) or right is None or isinstance(
            right, (str, tuple)
        )
        if concrete_l and concrete_r:
            try:
                return _CMPOPS[type(op)](left, right)
            except (KeyError, TypeError):
                return Unknown(rank_dep=False)
        if isinstance(op, (ast.Is, ast.IsNot)) and (right is None or left is None):
            symbolic = left if right is None else right
            if isinstance(symbolic, (RankExpr, RankBool, SymArray, Record, CommVal)):
                return isinstance(op, ast.IsNot)
            return Unknown(rank_dep=is_rank_dep(symbolic))
        both_ranky = all(
            isinstance(v, RankExpr) or (_is_concrete_scalar(v) and isinstance(v, int))
            for v in (left, right)
        )
        if both_ranky and type(op) in _CMPOPS:
            fn = _CMPOPS[type(op)]

            def lift(v: Any) -> Callable[[int], int]:
                if isinstance(v, RankExpr):
                    return v.at
                return lambda r, c=v: c

            lf, rf = lift(left), lift(right)
            return RankBool(lambda r: bool(fn(lf(r), rf(r))))
        return Unknown(rank_dep=is_rank_dep(left) or is_rank_dep(right))

    # -- subscripts ---------------------------------------------------------

    def subscript(self, node: ast.Subscript) -> Any:
        owner = self.eval(node.value)
        index = self.eval(node.slice)
        if isinstance(owner, (tuple, list, str, range, dict)):
            if _is_concrete_scalar(index) and not isinstance(index, float):
                try:
                    return owner[index]
                except (IndexError, KeyError, TypeError):
                    return Unknown(rank_dep=False)
            if isinstance(index, slice) and all(
                v is None or _is_concrete_scalar(v)
                for v in (index.start, index.stop, index.step)
            ):
                try:
                    return owner[index]
                except (TypeError, ValueError):
                    return Unknown(rank_dep=False)
            if isinstance(index, RankExpr) and isinstance(owner, (tuple, list)):
                if all(isinstance(v, int) and not isinstance(v, bool)
                       for v in owner):
                    return RankExpr(
                        lambda r, seq=tuple(owner), e=index: seq[e.at(r)]
                    )
                return Unknown(rank_dep=True)
            return Unknown(rank_dep=is_rank_dep(owner) or is_rank_dep(index))
        if isinstance(owner, SymArray):
            return self._slice_dims(owner.dims, index, base_key=owner.key,
                                    base_dep=False)
        if isinstance(owner, (Unknown, Record)):
            base_key = owner.key if isinstance(owner, Unknown) else None
            return self._slice_dims(None, index, base_key=base_key,
                                    base_dep=is_rank_dep(owner))
        return Unknown(rank_dep=is_rank_dep(owner) or is_rank_dep(index))

    def _slice_dims(self, dims: Optional[Tuple[Any, ...]], index: Any,
                    base_key: Any, base_dep: bool) -> Any:
        """Abstract array subscript: build/refine symbolic extents."""
        items = list(index) if isinstance(index, tuple) else [index]
        if not all(isinstance(i, slice) or _is_concrete_scalar(i) or
                   isinstance(i, (RankExpr, Unknown)) for i in items):
            return Unknown(rank_dep=base_dep or is_rank_dep(index))
        out_dims: List[Any] = []
        for axis, item in enumerate(items):
            if not isinstance(item, slice):
                continue  # integer index drops the axis
            extent = _slice_extent(item)
            if extent is not None:
                out_dims.append(extent)
            elif item.start is None and item.stop is None and item.step is None:
                if dims is not None and axis < len(dims):
                    out_dims.append(dims[axis])
                elif base_key is not None and not base_dep:
                    out_dims.append(Unknown(rank_dep=False,
                                            key=(base_key, "dim", axis)))
                else:
                    out_dims.append(Unknown(rank_dep=base_dep))
            else:
                dep = base_dep or any(
                    is_rank_dep(v) for v in (item.start, item.stop, item.step)
                    if v is not None
                )
                out_dims.append(Unknown(rank_dep=dep))
        if dims is not None and len(items) < len(dims):
            out_dims.extend(dims[len(items):])
        return SymArray(tuple(out_dims), key=base_key)

    # -- calls --------------------------------------------------------------

    def call(self, node: ast.Call, statement: bool = False) -> Any:
        func = node.func
        if any(isinstance(a, ast.Starred) for a in node.args) or any(
            k.arg is None for k in node.keywords
        ):
            for a in node.args:
                self.eval(a.value if isinstance(a, ast.Starred) else a)
            return Unknown(rank_dep=False)
        args = [self.eval(a) for a in node.args]
        kwargs = {k.arg: self.eval(k.value) for k in node.keywords if k.arg}
        callee = self.eval(func)
        if isinstance(callee, _CommMethod):
            return self.comm_call(callee, node, args, kwargs)
        if isinstance(callee, _Intrinsic):
            return self.intrinsic(callee.name, node, args, kwargs)
        if isinstance(callee, _ShapePreserver):
            return SymArray(callee.array.dims, key=callee.array.key)
        if isinstance(callee, _Callable):
            if all(_is_real(v) for v in args) and all(
                _is_real(v) for v in kwargs.values()
            ):
                try:
                    return _wrap_real(callee.fn(*args, **kwargs))
                except Exception:
                    return Unknown(rank_dep=False)
            return Unknown(
                rank_dep=any(is_rank_dep(v) for v in args) or any(
                    is_rank_dep(v) for v in kwargs.values()
                )
            )
        if callable(callee) and isinstance(callee, type):
            if all(_is_real(v) for v in args) and all(
                _is_real(v) for v in kwargs.values()
            ):
                try:
                    return _wrap_real(callee(*args, **kwargs))
                except Exception:
                    return Unknown(rank_dep=False)
        # Unknown callee: a few numpy-style names preserve shape.
        name = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else None
        )
        dep = any(is_rank_dep(v) for v in args) or any(
            is_rank_dep(v) for v in kwargs.values()
        )
        if name in _SHAPE_PRESERVING and args and isinstance(args[0], SymArray):
            return SymArray(args[0].dims, key=None)
        if name in _STACKING and args and isinstance(args[0], (list, tuple)):
            parts = args[0]
            arrays = [p for p in parts if isinstance(p, SymArray)]
            if arrays:
                head = arrays[0]
                dim0 = Unknown(rank_dep=any(is_rank_dep(p) for p in parts))
                rest = tuple(head.dims[1:])
                return SymArray((dim0,) + rest, key=None)
            return Unknown(rank_dep=dep)
        if kwargs and not args and name is not None and name[:1].isupper():
            # Constructor idiom: Klass(field=value, ...) -- keep fields.
            return Record(dict(kwargs), rank_dep=dep)
        key = ("call", node.lineno, node.col_offset) if not dep else None
        return Unknown(rank_dep=dep, key=key)

    # -- intrinsics ---------------------------------------------------------

    def intrinsic(self, name: str, node: ast.Call, args: List[Any],
                  kwargs: Dict[str, Any]) -> Any:
        dep = any(is_rank_dep(v) for v in args) or any(
            is_rank_dep(v) for v in kwargs.values()
        )
        if name == "range":
            if all(isinstance(v, int) and not isinstance(v, bool) for v in args):
                try:
                    return range(*args)
                except (TypeError, ValueError):
                    return Unknown(rank_dep=False)
            ranky = all(
                isinstance(v, RankExpr) or (isinstance(v, int) and
                                            not isinstance(v, bool))
                for v in args
            ) and args
            if ranky:
                def lift(v: Any) -> Callable[[int], int]:
                    if isinstance(v, RankExpr):
                        return v.at
                    return lambda r, c=v: c

                fns = [lift(v) for v in args]
                return _RangeExpr(
                    RankExpr(lambda r, fs=tuple(fns): len(range(*[f(r) for f in fs])))
                )
            return Unknown(rank_dep=dep)
        if name in ("len", "abs", "int", "float", "bool", "sum", "sorted",
                    "list", "tuple", "set", "str", "enumerate", "zip",
                    "divmod", "round"):
            real = all(_is_real(v) for v in args)
            if real:
                try:
                    return _wrap_real(_BUILTINS[name](*args))
                except Exception:
                    return Unknown(rank_dep=False)
            return Unknown(rank_dep=dep)
        if name in ("min", "max"):
            if all(isinstance(v, int) and not isinstance(v, bool) for v in args):
                return (min if name == "min" else max)(*args)
            ranky = args and all(
                isinstance(v, RankExpr) or (isinstance(v, int) and
                                            not isinstance(v, bool))
                for v in args
            )
            if ranky and any(isinstance(v, RankExpr) for v in args):
                def lift(v: Any) -> Callable[[int], int]:
                    if isinstance(v, RankExpr):
                        return v.at
                    return lambda r, c=v: c

                fns = [lift(v) for v in args]
                agg = min if name == "min" else max
                return RankExpr(lambda r, fs=tuple(fns), g=agg: g(f(r) for f in fs))
            return Unknown(rank_dep=dep)
        if name == "next":
            if args:
                inner = args[0]
                return Unknown(rank_dep=is_rank_dep(inner))
            return Unknown(rank_dep=False)
        if name == "print":
            return None
        if name == "block_range":
            if len(args) == 3:
                n_val, p_val, rank_val = args
                if isinstance(n_val, int) and isinstance(p_val, int) and isinstance(
                    rank_val, RankExpr
                ):
                    return (
                        RankExpr(lambda r, n=n_val, p=p_val, e=rank_val:
                                 block_range(n, p, e.at(r))[0]),
                        RankExpr(lambda r, n=n_val, p=p_val, e=rank_val:
                                 block_range(n, p, e.at(r))[1]),
                    )
                if all(_is_real(v) for v in args):
                    try:
                        return block_range(*args)
                    except Exception:
                        return Unknown(rank_dep=False)
            return (Unknown(rank_dep=True), Unknown(rank_dep=True))
        if name == "block_ranges":
            if all(_is_real(v) for v in args):
                try:
                    return tuple(block_ranges(*args))
                except Exception:
                    return Unknown(rank_dep=False)
            return Unknown(rank_dep=dep)
        if name in ("strip_halo", "grid_halo"):
            fn = strip_halo if name == "strip_halo" else grid_halo
            if all(_is_real(v) for v in args) and all(
                _is_real(v) for v in kwargs.values()
            ):
                try:
                    return fn(*args, **kwargs)
                except Exception:
                    return Unknown(rank_dep=False)
            return Unknown(rank_dep=dep)
        return Unknown(rank_dep=dep)

    # -- communication ------------------------------------------------------

    def comm_call(self, method: _CommMethod, node: ast.Call, args: List[Any],
                  kwargs: Dict[str, Any]) -> Any:
        comm, name = method.comm, method.name
        line, col = node.lineno, node.col_offset

        def arg(position: int, keyword: str, default: Any = None) -> Any:
            if keyword in kwargs:
                return kwargs[keyword]
            if position < len(args):
                return args[position]
            return default

        if name == "group":
            members = arg(0, "members")
            return CommVal(world=False, members=members)
        if name == "phase":
            return _NullContext()
        if name == "is_root":
            root = arg(0, "root", 0)
            if isinstance(root, int) and comm.world:
                return RankBool(lambda r, t=root: r == t)
            return Unknown(rank_dep=True)
        if name == "next_tag_block":
            return Unknown(rank_dep=False, key=("tag-block", line))
        if name == "compute":
            return _PendingOp([], None)
        if name in ("send", "isend"):
            payload = arg(0, "payload")
            dest = arg(1, "dest")
            tag = arg(2, "tag", 0)
            op = SendOp(
                dest=dest, tag=tag, line=line, col=col,
                blocking=(name == "send"),
                payload_none=payload is None,
            )
            self.program.has_p2p = True
            value = None if name == "send" else Unknown(
                rank_dep=False, key=("handle", line, col)
            )
            return _PendingOp([op], value)
        if name in ("recv", "irecv"):
            source = arg(0, "source", _WILDCARD)
            tag = arg(1, "tag", _WILDCARD)
            op = RecvOp(
                source=_wildcardify(source), tag=_wildcardify(tag),
                line=line, col=col, blocking=(name == "recv"),
            )
            self.program.has_p2p = True
            value = Unknown(rank_dep=True) if name == "recv" else Unknown(
                rank_dep=False, key=("handle", line, col)
            )
            return _PendingOp([op], value)
        if name == "sendrecv":
            payload = arg(0, "payload")
            dest = arg(1, "dest")
            source = arg(2, "source", _WILDCARD)
            sendtag = arg(3, "sendtag", 0)
            recvtag = arg(4, "recvtag", _WILDCARD)
            self.program.has_p2p = True
            # Internally an irecv/send/wait composition: never a
            # symmetric-blocking hazard, so model the receive as posted
            # before the send.
            ops = [
                RecvOp(source=_wildcardify(source), tag=_wildcardify(recvtag),
                       line=line, col=col, blocking=False),
                SendOp(dest=dest, tag=sendtag, line=line, col=col,
                       blocking=True, payload_none=payload is None),
                WaitOp(line=line, col=col),
            ]
            return _PendingOp(ops, Unknown(rank_dep=True))
        if name in ("wait", "waitall", "waitany"):
            self.program.has_p2p = True
            value: Any = Unknown(rank_dep=True)
            if name == "waitany":
                value = (Unknown(rank_dep=True), Unknown(rank_dep=True))
            return _PendingOp([WaitOp(line=line, col=col)], value)
        if name in COLLECTIVES:
            return self.collective(comm, name, node, args, kwargs)
        if name == "exchange":
            spec = arg(0, "spec")
            payloads = arg(1, "payloads")
            uniform = isinstance(payloads, (list, tuple)) and all(
                uniform_shape(p) for p in payloads
            )
            concrete_spec = spec if isinstance(spec, StencilSpec) else None
            op = ExchangeOp(spec=concrete_spec, line=line, col=col,
                            uniform=uniform and concrete_spec is not None)
            if concrete_spec is not None:
                value: Any = tuple(
                    Unknown(rank_dep=True) for _ in concrete_spec.offsets
                )
            else:
                value = Unknown(rank_dep=True)
            return _PendingOp([op], value)
        # Unrecognised comm attribute: opaque.
        return Unknown(rank_dep=True)

    def collective(self, comm: CommVal, kind: str, node: ast.Call,
                   args: List[Any], kwargs: Dict[str, Any]) -> Any:
        line, col = node.lineno, node.col_offset
        signature = _COLLECTIVE_SIGNATURES.get(kind, ())

        def arg(keyword: str, default: Any = None) -> Any:
            if keyword in kwargs:
                return kwargs[keyword]
            if keyword in signature:
                position = signature.index(keyword)
                if position < len(args):
                    return args[position]
            return default

        algorithm = arg("algorithm", _COLLECTIVE_DEFAULT_ALGO.get(kind))
        root = arg("root", 0) if kind in _ROOTED else None
        payload = arg("value", arg("values"))
        if not (isinstance(algorithm, str) or hasattr(algorithm, "at")):
            algorithm = None  # opaque: certification refuses, W008 compares "?"
        op = CollOp(
            kind=kind,
            algorithm=algorithm,
            root=root,
            line=line,
            col=col,
            world=comm.world,
            uniform_payload=uniform_shape(payload),
        )
        value = _collective_result(kind, line, col)
        return _PendingOp([op], value)


class _PendingOp:
    """A comm coroutine built but not yet driven by ``yield from``."""

    __slots__ = ("ops", "value")

    def __init__(self, ops: List[Any], value: Any):
        self.ops = ops
        self.value = value


class _CommMethod:
    __slots__ = ("comm", "name")

    def __init__(self, comm: CommVal, name: str):
        self.comm = comm
        self.name = name


class _Intrinsic:
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name


class _ShapePreserver:
    __slots__ = ("array",)

    def __init__(self, array: SymArray):
        self.array = array


class _RangeExpr:
    """``range()`` over rank expressions: iterable only as a trip count."""

    __slots__ = ("count",)

    def __init__(self, count: RankExpr):
        self.count = count


class _NullContext:
    pass


def _wildcardify(value: Any) -> Any:
    """Map the simulator's ANY_SOURCE/ANY_TAG globals to -1."""
    if isinstance(value, Unknown) and value.key in (
        ("global", "ANY_SOURCE"), ("global", "ANY_TAG")
    ):
        return _WILDCARD
    return value


def _collective_result(kind: str, line: int, col: int) -> Any:
    if kind == "barrier":
        return None
    if kind in ("bcast", "allreduce", "allgather", "alltoall"):
        # Same value on every rank (allgather/alltoall: same list shape).
        return Unknown(rank_dep=False, key=(kind, line, col))
    return Unknown(rank_dep=True)


def _slice_extent(item: slice) -> Optional[Any]:
    """Concrete extent of a slice when derivable without the base size."""
    start, stop, step = item.start, item.stop, item.step
    if step is not None and step != 1:
        return None
    if start is None and isinstance(stop, int) and not isinstance(stop, bool):
        if stop >= 0:
            return stop
        return None
    if stop is None and isinstance(start, int) and not isinstance(start, bool):
        if start < 0:
            return -start
        return None
    if isinstance(start, int) and isinstance(stop, int) and not isinstance(
        start, bool
    ) and not isinstance(stop, bool) and start >= 0 and stop >= start:
        return stop - start
    if isinstance(start, RankExpr) and isinstance(stop, RankExpr):
        # x[lo:hi] with lo/hi affine of equal slope: extent is uniform.
        if start.affine and stop.affine and start.affine[2] is None and \
                stop.affine[2] is None and start.affine[0] == stop.affine[0]:
            return stop.affine[1] - start.affine[1]
        return Unknown(rank_dep=True)
    if any(isinstance(v, (RankExpr, Unknown)) for v in (start, stop)):
        dep = any(is_rank_dep(v) for v in (start, stop) if v is not None)
        return Unknown(rank_dep=dep)
    return None


def _is_concrete_scalar(value: Any) -> bool:
    return isinstance(value, (int, float, bool)) and not isinstance(value, complex)


def _is_real(value: Any) -> bool:
    """A value safe to hand to real Python code."""
    if value is None or isinstance(value, (int, float, bool, str, StencilSpec)):
        return True
    if isinstance(value, (tuple, list)):
        return all(_is_real(v) for v in value)
    if isinstance(value, (Unknown, RankExpr, RankBool, SymArray, Record,
                          CommVal, _PendingOp, _CommMethod, _Intrinsic,
                          _RangeExpr, _NullContext, _ShapePreserver, _Callable)):
        return False
    return True  # assumed objects (grids, arrays) pass through


def _wrap_real(value: Any) -> Any:
    if isinstance(value, (list, range)) and len(value) <= 4 * UNROLL_MAX:
        return tuple(value) if isinstance(value, list) else value
    return value


_BINOPS = {
    ast.Add: lambda a, b: a + b,
    ast.Sub: lambda a, b: a - b,
    ast.Mult: lambda a, b: a * b,
    ast.Div: lambda a, b: a / b,
    ast.FloorDiv: lambda a, b: a // b,
    ast.Mod: lambda a, b: a % b,
    ast.Pow: lambda a, b: a ** b,
    ast.LShift: lambda a, b: a << b,
    ast.RShift: lambda a, b: a >> b,
    ast.BitAnd: lambda a, b: a & b,
    ast.BitOr: lambda a, b: a | b,
    ast.BitXor: lambda a, b: a ^ b,
}

_CMPOPS = {
    ast.Eq: lambda a, b: a == b,
    ast.NotEq: lambda a, b: a != b,
    ast.Lt: lambda a, b: a < b,
    ast.LtE: lambda a, b: a <= b,
    ast.Gt: lambda a, b: a > b,
    ast.GtE: lambda a, b: a >= b,
    ast.Is: lambda a, b: a is b,
    ast.IsNot: lambda a, b: a is not b,
    ast.In: lambda a, b: a in b,
    ast.NotIn: lambda a, b: a not in b,
}

_BUILTINS = {
    "len": len, "abs": abs, "int": int, "float": float, "bool": bool,
    "sum": sum, "sorted": sorted, "list": list, "tuple": tuple, "set": set,
    "str": str, "enumerate": enumerate, "zip": zip, "divmod": divmod,
    "round": round,
}

_GLOBAL_VALUES: Dict[str, Any] = {
    "ANY_SOURCE": _WILDCARD,
    "ANY_TAG": _WILDCARD,
    "True": True,
    "False": False,
    "None": None,
}

_INTRINSICS = frozenset(
    set(_BUILTINS)
    | {"range", "min", "max", "next", "print",
       "block_range", "block_ranges", "strip_halo", "grid_halo"}
)

_SHAPE_PRESERVING = frozenset({
    "array", "asarray", "ascontiguousarray", "copy", "roll", "exp", "abs",
    "zeros_like", "ones_like", "empty_like",
})

_STACKING = frozenset({"vstack", "hstack", "stack", "concatenate"})

_COLLECTIVE_SIGNATURES: Dict[str, Tuple[str, ...]] = {
    "barrier": (),
    "bcast": ("value", "root", "algorithm"),
    "reduce": ("value", "op", "root"),
    "allreduce": ("value", "op", "algorithm"),
    "gather": ("value", "root", "algorithm"),
    "allgather": ("value", "algorithm"),
    "scatter": ("values", "root", "algorithm"),
    "alltoall": ("values", "algorithm"),
    "scan": ("value", "op"),
    "reduce_scatter": ("values", "op"),
}

_COLLECTIVE_DEFAULT_ALGO: Dict[str, str] = {
    "barrier": "dissemination",
    "bcast": "tree",
    "reduce": "binomial",
    "allreduce": "reduce_bcast",
    "gather": "tree",
    "allgather": "ring",
    "scatter": "tree",
    "alltoall": "cyclic",
    "scan": "hillis_steele",
    "reduce_scatter": "pairwise",
}

_ROOTED = frozenset({"bcast", "reduce", "gather", "scatter"})


# ---------------------------------------------------------------------------
# public API
# ---------------------------------------------------------------------------

def interpret_def(fn: ast.FunctionDef, n_ranks: int, filename: str = "<source>",
                  assume: Optional[Dict[str, Any]] = None) -> SymbolicProgram:
    """Partially evaluate one rank-program definition."""
    program = _Interp(fn, n_ranks, filename, assume=assume).run()
    return program


def interpret_source(source: str, n_ranks: int, filename: str = "<source>",
                     *, line_offset: int = 0,
                     assume: Optional[Dict[str, Any]] = None
                     ) -> List[SymbolicProgram]:
    """All rank programs in a source string, symbolically evaluated."""
    try:
        tree = ast.parse(textwrap.dedent(source), filename=filename)
    except SyntaxError as exc:
        raise AnalysisError(f"{filename}: cannot parse: {exc}") from exc
    if line_offset:
        ast.increment_lineno(tree, line_offset)
    return [
        interpret_def(fn, n_ranks, filename, assume=assume)
        for fn in iter_program_defs(tree)
    ]


def interpret_program(fn_or_source: Union[Callable, str], n_ranks: int,
                      *, assume: Optional[Dict[str, Any]] = None
                      ) -> SymbolicProgram:
    """Symbolically evaluate one rank program (function or source)."""
    if isinstance(fn_or_source, str):
        programs = interpret_source(fn_or_source, n_ranks, assume=assume)
        if not programs:
            raise AnalysisError("no rank program found in source")
        return programs[0]
    try:
        source = inspect.getsource(fn_or_source)
        filename = inspect.getsourcefile(fn_or_source) or "<source>"
        _, first_line = inspect.getsourcelines(fn_or_source)
    except (OSError, TypeError) as exc:
        raise AnalysisError(
            f"cannot retrieve source for {fn_or_source!r}: {exc}"
        ) from exc
    programs = interpret_source(
        source, n_ranks, filename, line_offset=first_line - 1, assume=assume
    )
    for program in programs:
        if program.name == getattr(fn_or_source, "__name__", None):
            return program
    if not programs:
        raise AnalysisError(f"no rank program found in {filename}")
    return programs[0]
