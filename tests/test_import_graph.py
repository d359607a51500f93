"""What importing ``repro`` loads, checked in a fresh interpreter.

``import repro`` must load no subpackage, and the serving plane
(``repro.serve`` behind ``repro.cli``) must not load the simulation
stack: the server and every pool worker forked from it start from that
image, and a worker imports the engine on its first point instead.
"""

import json
import os
import subprocess
import sys

import repro

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")

#: Never imported by the serving plane.
NOT_SERVING = (
    "networkx",
    "repro.program",
    "repro.apps",
    "repro.analyze",
    "repro.core",
    "repro.network",
    "repro.linalg",
    "repro.obs",
    "repro.simmpi",
    "repro.machine",
)


def loaded_after(statement):
    """The modules a fresh interpreter holds after running ``statement``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c",
         f"import json, sys\n{statement}\nprint(json.dumps(sorted(sys.modules)))"],
        check=True, capture_output=True, text=True, env=env,
    ).stdout
    return set(json.loads(out.splitlines()[-1]))


def test_import_repro_loads_no_subpackage():
    assert sorted(m for m in loaded_after("import repro") if m.startswith("repro.")) == []


def test_serving_plane_never_loads_the_simulation_stack():
    for statement in ("import repro.serve", "import repro.cli"):
        loaded = loaded_after(statement)
        assert "repro.serve" in loaded or "repro.cli" in loaded
        for name in NOT_SERVING:
            assert name not in loaded, f"{statement!r} imported {name}"
            assert not any(m.startswith(name + ".") for m in loaded), (statement, name)


def test_public_names_still_resolve():
    code = (
        "import repro\n"
        "assert repro.simmpi.Engine.__name__ == 'Engine'\n"
        "from repro import machine\n"
        "assert machine.Machine\n"
        "namespace = {}\n"
        "exec('from repro import *', namespace)\n"
        "missing = [n for n in repro.__all__ if n not in namespace]\n"
        "assert not missing, missing\n"
        "assert set(repro.__all__) <= set(dir(repro))\n"
        "try:\n"
        "    repro.no_such_subpackage\n"
        "except AttributeError as exc:\n"
        "    assert 'no_such_subpackage' in str(exc)\n"
        "else:\n"
        "    raise AssertionError('unknown attribute resolved')\n"
    )
    loaded = loaded_after(code)
    assert {f"repro.{name}" for name in repro.__all__ if name != "__version__"} <= loaded


def test_version_is_a_plain_attribute():
    assert "__version__" in vars(repro)
    assert repro.__version__ == "1.0.0"
