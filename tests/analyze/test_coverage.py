"""The interpreter reaches every comm call site the shipped trees write.

W001, W002 and W006 read facts the symbolic interpreter records while
it walks a program, so a call site it never evaluates is a site no rule
checks.  This test takes a plain ``ast.walk`` census of the comm
coroutine calls under ``examples/`` and ``src/repro/`` -- calls whose
attribute is in :data:`COMM_COROUTINES`, on a communicator parameter,
an alias bound to ``<comm>.group(...)``, or a chained
``<comm>.group(...)`` -- and checks each one against the sites the
interpreter evaluated.  Nested closures over the communicator belong to
the program that defines them; a nested def with its own communicator
parameter is a program of its own.
"""

import ast
import os

from repro.analyze.symbolic import (
    COMM_COROUTINES,
    interpret_def,
    iter_program_defs,
)

REPO = os.path.normpath(os.path.join(os.path.dirname(__file__), "..", ".."))
TREES = ("examples", os.path.join("src", "repro"))


def _comm_names(fn):
    args = fn.args
    names = {
        a.arg for a in args.posonlyargs + args.args + args.kwonlyargs
        if a.arg == "comm" or a.arg.endswith("_comm")
    }
    grew = True
    while grew:
        grew = False
        for node in ast.walk(fn):
            if not isinstance(node, ast.Assign):
                continue
            value = node.value
            if isinstance(value, ast.YieldFrom):
                value = value.value
            if (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Attribute)
                and value.func.attr == "group"
                and isinstance(value.func.value, ast.Name)
                and value.func.value.id in names
            ):
                for target in node.targets:
                    if isinstance(target, ast.Name) and target.id not in names:
                        names.add(target.id)
                        grew = True
    return names


def _is_comm(owner, names):
    if isinstance(owner, ast.Name):
        return owner.id in names
    return (
        isinstance(owner, ast.Call)
        and isinstance(owner.func, ast.Attribute)
        and owner.func.attr == "group"
        and _is_comm(owner.func.value, names)
    )


def census(fn):
    """``(line, col)`` of every comm coroutine call in ``fn``, leaving
    out the bodies of nested programs."""
    nested = {
        id(node)
        for inner in iter_program_defs(fn)
        if inner is not fn
        for node in ast.walk(inner)
    }
    names = _comm_names(fn)
    return {
        (node.lineno, node.col_offset)
        for node in ast.walk(fn)
        if id(node) not in nested
        and isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in COMM_COROUTINES
        and _is_comm(node.func.value, names)
    }


def shipped_programs():
    for tree in TREES:
        for dirpath, dirnames, filenames in os.walk(os.path.join(REPO, tree)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(".py"):
                    path = os.path.join(dirpath, name)
                    with open(path) as handle:
                        module = ast.parse(handle.read())
                    for fn in iter_program_defs(module):
                        yield os.path.relpath(path, REPO), fn


def test_interpreter_evaluates_every_shipped_comm_call_site():
    total, unreached, failed = 0, [], []
    for path, fn in shipped_programs():
        program = interpret_def(fn, 8, path)
        if program.failure is not None:
            failed.append(f"{path}:{fn.lineno} {fn.name}: {program.failure}")
        sites = census(fn)
        total += len(sites)
        unreached += [
            f"{path}:{line}:{col} in {fn.name}"
            for line, col in sorted(sites - set(program.sites))
        ]
    assert total > 100  # the census itself found the programs
    assert failed == []
    assert unreached == []
