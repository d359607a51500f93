"""Macro-eligibility certificates: proofs, refusals, and the A/B bar.

The acceptance criterion pinned here: the bundled ocean and SUMMA
programs certify, and a certified run is bit-identical to the
uncertified run with zero ``MACRO_FALLBACK`` events on either side --
the certificate removes the probe, never the protection.
"""

import json

import numpy as np
import pytest

from repro.analyze.certify import (
    CertificationError,
    MacroCertificate,
    bundled_certificate,
    certify_macro,
    program_sha,
)
from repro.apps.ocean import OceanConfig, distributed_run, gaussian_bump
from repro.cli import main
from repro.linalg import ProcessGrid2D
from repro.linalg.summa import summa
from repro.machine.presets import touchstone_delta
from repro.util.errors import AnalysisError, ConfigurationError


@pytest.fixture(scope="module")
def machine():
    return touchstone_delta().subset(4)


# ---------------------------------------------------------------------------
# proving the bundled programs
# ---------------------------------------------------------------------------

class TestBundledCertificates:
    def test_ocean_certifies_with_uniform_exchanges(self):
        cert = bundled_certificate("ocean", 4)
        assert cert.program == "ocean_program"
        assert cert.n_ranks == 4
        assert not cert.collectives
        assert len(cert.exchanges) == 2
        assert cert.uniform_exchange

    def test_summa_certifies_tree_broadcasts(self):
        cert = bundled_certificate("summa", 4)
        assert cert.program == "summa_program"
        assert {(kind, algo) for _, kind, algo in cert.collectives} == {
            ("bcast", "tree")
        }
        assert ("overlap", "False") in cert.assume

    def test_unknown_bundle_is_rejected(self):
        with pytest.raises(AnalysisError, match="ocean"):
            bundled_certificate("cannon", 4)

    def test_to_dict_is_json_serializable(self):
        cert = bundled_certificate("ocean", 4)
        payload = json.loads(json.dumps(cert.to_dict()))
        assert payload["program"] == "ocean_program"
        assert payload["n_ranks"] == 4
        assert payload["uniform_exchange"] is True


# ---------------------------------------------------------------------------
# A/B: certified == uncertified, zero fallbacks
# ---------------------------------------------------------------------------

class TestCertifiedRunsAreBitIdentical:
    def test_ocean_ab(self, machine):
        config = OceanConfig(nx=16, ny=16)
        state0 = gaussian_bump(config)
        cert = bundled_certificate("ocean", 4)

        plain = distributed_run(machine, 4, state0, config, 5)
        certified = distributed_run(
            machine, 4, state0, config, 5, certificate=cert
        )
        assert certified.sim.time == plain.sim.time
        for field in ("h", "u", "v"):
            assert np.array_equal(
                getattr(certified.state, field), getattr(plain.state, field)
            )
        assert plain.sim.macro_fallbacks == 0
        assert certified.sim.macro_fallbacks == 0

    def test_summa_ab(self, machine):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((32, 24))
        b = rng.standard_normal((24, 20))
        grid = ProcessGrid2D(2, 2)
        cert = bundled_certificate("summa", 4)

        plain = summa(machine, grid, a, b, panel=8)
        certified = summa(machine, grid, a, b, panel=8, certificate=cert)
        assert certified.sim.time == plain.sim.time
        assert np.array_equal(certified.c, plain.c)
        assert plain.sim.macro_fallbacks == 0
        assert certified.sim.macro_fallbacks == 0

    def test_summa_overlap_refuses_the_mismatched_certificate(self, machine):
        cert = bundled_certificate("summa", 4)  # proved under overlap=False
        rng = np.random.default_rng(7)
        a = rng.standard_normal((16, 16))
        b = rng.standard_normal((16, 16))
        with pytest.raises(ConfigurationError, match="overlap"):
            summa(machine, ProcessGrid2D(2, 2), a, b,
                  overlap=True, certificate=cert)

    def test_summa_overlap_certifies_tree_nb_and_matches(self, machine):
        # The pipelined variant is now provable: tree_nb is in the
        # closed-form set, so overlap=True gets its own certificate and
        # the certified run stays bit-identical with zero fallbacks.
        cert = bundled_certificate("summa", 4, overlap=True)
        assert {(kind, algo) for _, kind, algo in cert.collectives} == {
            ("bcast", "tree_nb")
        }
        assert ("overlap", "True") in cert.assume
        rng = np.random.default_rng(7)
        a = rng.standard_normal((16, 16))
        b = rng.standard_normal((16, 16))
        plain = summa(machine, ProcessGrid2D(2, 2), a, b, panel=8, overlap=True)
        certified = summa(
            machine, ProcessGrid2D(2, 2), a, b, panel=8, overlap=True,
            certificate=cert,
        )
        assert certified.sim.time == plain.sim.time
        assert np.array_equal(certified.c, plain.c)
        assert plain.sim.macro_fallbacks == 0
        assert certified.sim.macro_fallbacks == 0


# ---------------------------------------------------------------------------
# staleness: the certificate must bind to source and world size
# ---------------------------------------------------------------------------

class TestStaleCertificates:
    def test_wrong_rank_count_rejected_at_run(self, machine):
        config = OceanConfig(nx=16, ny=16)
        state0 = gaussian_bump(config)
        cert = bundled_certificate("ocean", 2)  # proved at 2, run at 4
        with pytest.raises(ConfigurationError, match="certificate"):
            distributed_run(machine, 4, state0, config, 2, certificate=cert)

    def test_changed_source_rejected_at_run(self, machine):
        config = OceanConfig(nx=16, ny=16)
        state0 = gaussian_bump(config)
        cert = bundled_certificate("ocean", 4)
        stale = MacroCertificate(
            program=cert.program,
            source_sha256="0" * 64,  # as if the program were edited
            n_ranks=cert.n_ranks,
            exchanges=cert.exchanges,
            uniform_exchange=cert.uniform_exchange,
        )
        with pytest.raises(ConfigurationError, match="source or rank count"):
            distributed_run(machine, 4, state0, config, 2, certificate=stale)

    def test_matches_is_exact(self):
        cert = bundled_certificate("ocean", 4)
        from repro.apps.ocean import ocean_program

        assert cert.matches(ocean_program, 4)
        assert not cert.matches(ocean_program, 8)
        assert not cert.matches("def other(comm):\n    yield\n", 4)

    def test_program_sha_ignores_indentation_only(self):
        flat = "def p(comm):\n    yield from comm.barrier()\n"
        indented = "\n".join("    " + l for l in flat.splitlines()) + "\n"
        assert program_sha(flat) == program_sha(indented)


# ---------------------------------------------------------------------------
# refusals: every soundness precondition names its violation
# ---------------------------------------------------------------------------

class TestRefusals:
    def test_point_to_point_refused(self):
        with pytest.raises(CertificationError, match="point-to-point"):
            certify_macro(
                "def p(comm):\n"
                "    yield from comm.send(1.0, 0, tag=0)\n"
                "    yield from comm.barrier()\n",
                4,
            )

    def test_non_closed_form_collective_refused(self):
        with pytest.raises(CertificationError, match="closed-form"):
            certify_macro(
                "def p(comm, x):\n"
                "    parts = yield from comm.gather(x, root=0)\n"
                "    return parts\n",
                4,
            )

    def test_non_eligible_algorithm_refused(self):
        with pytest.raises(CertificationError, match="closed-form"):
            certify_macro(
                "def p(comm, x):\n"
                "    out = yield from comm.allgather(x,"
                " algorithm='ring_nb')\n"
                "    return out\n",
                4,
            )

    def test_tree_nb_bcast_certifies(self):
        # The pipelined binomial tree joined the closed-form set: under
        # all-eager payloads it is event-for-event the blocking tree.
        cert = certify_macro(
            "def p(comm, x):\n"
            "    out = yield from comm.bcast(x, root=0,"
            " algorithm='tree_nb')\n"
            "    return out\n",
            4,
        )
        assert cert.collectives == ((2, "bcast", "tree_nb"),)

    def test_rank_conditional_collective_refused(self):
        with pytest.raises(CertificationError, match="rank-dependent"):
            certify_macro(
                "def p(comm, x):\n"
                "    if comm.rank % 2 == 0:\n"
                "        yield from comm.barrier()\n"
                "    out = yield from comm.allreduce(x)\n"
                "    return out\n",
                4,
            )

    def test_rank_dependent_trip_count_refused(self):
        with pytest.raises(CertificationError, match="trip count"):
            certify_macro(
                "def p(comm):\n"
                "    for _ in range(comm.rank):\n"
                "        yield from comm.barrier()\n"
                "    yield from comm.barrier()\n",
                4,
            )

    def test_vacuous_program_refused(self):
        with pytest.raises(CertificationError, match="vacuous"):
            certify_macro(
                "def p(comm):\n"
                "    yield from comm.compute(seconds=1.0)\n",
                4,
            )

    def test_uniform_loop_of_collectives_certifies(self):
        cert = certify_macro(
            "def p(comm, steps, x):\n"
            "    for _ in range(steps):\n"
            "        x = yield from comm.allreduce(x)\n"
            "    return x\n",
            4,
        )
        assert {kind for _, kind, _ in cert.collectives} == {"allreduce"}


# ---------------------------------------------------------------------------
# the symmetric bit: every rank computes what rank 0 computes
# ---------------------------------------------------------------------------

#: Certifiable programs whose ranks differ in more than their rank, one
#: per way a rank-dependent value can reach something ghost replay reads.
ASYMMETRIC = {
    "branch-test": (
        "def p(comm):\n"
        "    if comm.rank == 1:\n"
        "        yield from comm.compute(seconds=1.0)\n"
        "    yield from comm.barrier()\n"
    ),
    "loop-carried-while-test": (
        "def p(comm):\n"
        "    t = 0.0\n"
        "    while t < 3.0:\n"
        "        t = t + comm.rank + 1.0\n"
        "        yield from comm.compute(seconds=t)\n"
        "    yield from comm.barrier()\n"
    ),
    "compute-argument": (
        "def p(comm):\n"
        "    yield from comm.compute(seconds=comm.rank)\n"
        "    yield from comm.barrier()\n"
    ),
    "payload": (
        "def p(comm):\n"
        "    yield from comm.bcast(comm.rank, root=0)\n"
    ),
    "return-value": (
        "def p(comm, x):\n"
        "    yield from comm.barrier()\n"
        "    return x + comm.rank\n"
    ),
    "rng": (
        "def p(comm):\n"
        "    out = yield from comm.allreduce(comm.rng.random())\n"
        "    return out\n"
    ),
    "alltoall-result": (
        "def p(comm, xs):\n"
        "    out = yield from comm.alltoall(xs)\n"
        "    return out\n"
    ),
    "method-of-rank-dependent-value": (
        "def p(comm, x):\n"
        "    parts = yield from comm.alltoall(x)\n"
        "    yield from comm.compute(seconds=parts.sum())\n"
    ),
    "group-collective": (
        "def p(comm):\n"
        "    half = comm.group([0, 1])\n"
        "    yield from half.barrier()\n"
    ),
    "self-peer-exchange": (
        "def p(comm):\n"
        "    yield from comm.exchange(grid_halo(1, 4), [1.0, 2.0, 3.0, 4.0])\n"
    ),
    "opaque-generator": (
        "def p(comm):\n"
        "    yield from helper(comm)\n"
        "    yield from comm.barrier()\n"
    ),
    "rank-sliced-payload": (
        "def p(comm, x):\n"
        "    yield from comm.allreduce(x[comm.rank:comm.rank + 1])\n"
    ),
    "communicator-handed-to-a-helper": (
        "def p(comm):\n"
        "    t = local_work(comm)\n"
        "    yield from comm.compute(seconds=t)\n"
        "    yield from comm.barrier()\n"
    ),
    "short-circuit": (
        "def p(comm):\n"
        "    comm.rank == 5 and (yield from comm.compute(seconds=1.0))\n"
        "    yield from comm.barrier()\n"
    ),
    "conditional-expression": (
        "def p(comm):\n"
        "    (yield from comm.compute(seconds=1.0)) if comm.rank else None\n"
        "    yield from comm.barrier()\n"
    ),
    "bare-yield": (
        "def p(comm, req):\n"
        "    yield req\n"
        "    yield from comm.barrier()\n"
    ),
    "starred-arguments": (
        "def p(comm, args):\n"
        "    yield from comm.compute(*args)\n"
        "    yield from comm.barrier()\n"
    ),
    "store-at-a-rank-index": (
        "def p(comm):\n"
        "    buf = np.zeros(comm.size)\n"
        "    buf[comm.rank] = 1.0\n"
        "    out = yield from comm.allreduce(buf)\n"
        "    return out\n"
    ),
    "store-into-a-rank-dependent-view": (
        "def p(comm):\n"
        "    buf = np.zeros(comm.size)\n"
        "    view = buf[comm.rank:comm.rank + 1]\n"
        "    view[:] = 1.0\n"
        "    yield from comm.allreduce(buf)\n"
    ),
    "in-place-add-to-a-view": (
        "def p(comm):\n"
        "    buf = np.zeros(comm.size)\n"
        "    view = buf[comm.rank:comm.rank + 1]\n"
        "    view += 1.0\n"
        "    yield from comm.allreduce(buf)\n"
    ),
    "delete-at-a-rank-index": (
        "def p(comm):\n"
        "    xs = [1.0, 2.0, 3.0, 4.0]\n"
        "    del xs[comm.rank]\n"
        "    yield from comm.barrier()\n"
        "    return xs\n"
    ),
    "starred-call-of-a-rank-dependent-value": (
        "def p(comm):\n"
        "    t = max(*[comm.rank, 0.5])\n"
        "    yield from comm.compute(seconds=t)\n"
        "    yield from comm.barrier()\n"
    ),
    "method-writes-the-receiver": (
        "def p(comm):\n"
        "    x = np.zeros(4)\n"
        "    x.fill(comm.rank)\n"
        "    yield from comm.allreduce(x)\n"
    ),
    "function-writes-an-argument": (
        "def p(comm):\n"
        "    x = np.zeros(4)\n"
        "    np.copyto(x, comm.rank)\n"
        "    yield from comm.barrier()\n"
        "    return x\n"
    ),
    "out-argument": (
        "def p(comm):\n"
        "    x = np.zeros(4)\n"
        "    np.add(x, comm.rank, out=x)\n"
        "    yield from comm.barrier()\n"
        "    return x\n"
    ),
    "exception-handler": (
        "def p(comm, x):\n"
        "    try:\n"
        "        y = 1.0 / x\n"
        "    except ZeroDivisionError:\n"
        "        y = 0.0\n"
        "    yield from comm.barrier()\n"
    ),
}


class TestSymmetry:
    @pytest.mark.parametrize("name", sorted(ASYMMETRIC))
    def test_rank_dependence_clears_the_bit(self, name):
        assert not certify_macro(ASYMMETRIC[name], 4).symmetric

    def test_uniform_program_is_symmetric(self):
        cert = certify_macro(
            "def p(comm, x, steps):\n"
            "    for _ in range(steps):\n"
            "        x = yield from comm.allreduce(x * 2.0)\n"
            "        yield from comm.compute(flops=1e6)\n"
            "    if comm.size > 2:\n"
            "        yield from comm.barrier()\n"
            "    if comm.size > 8:\n"
            "        return comm.rank  # not taken at 4 ranks\n"
            "    return x\n",
            4,
        )
        assert cert.symmetric
        assert cert.to_dict()["symmetric"] is True

    def test_uniform_in_place_writes_keep_the_bit(self):
        cert = certify_macro(
            "def p(comm, x):\n"
            "    buf = np.zeros(4)\n"
            "    buf[0] = x\n"
            "    buf += 1.0\n"
            "    buf.fill(x)\n"
            "    out = yield from comm.allreduce(buf)\n"
            "    return out\n",
            4,
        )
        assert cert.symmetric

    def test_content_dependence_keeps_the_shape_uniform(self):
        # The content bit sits beside the extents: payloads of
        # rank-dependent values but one shape stay uniform.
        cert = certify_macro(
            "def p(comm, tile):\n"
            "    row = tile[:1, :4] + comm.rank\n"
            "    yield from comm.exchange(grid_halo(2, 2), [row, row, row, row])\n",
            4,
        )
        assert cert.uniform_exchange
        assert not cert.symmetric

    def test_shape_reads_ignore_the_content_bit(self):
        cert = certify_macro(
            "def p(comm, x):\n"
            "    row = x[:4] + comm.rank\n"
            "    for _ in range(len(row)):\n"
            "        yield from comm.barrier()\n"
            "    yield from comm.compute(seconds=1e-6 * row.size)\n",
            4,
        )
        assert len(cert.collectives) == 4
        assert cert.symmetric

    @pytest.mark.parametrize("n_ranks", [4, 8, 16, 64])
    def test_bundled_programs_are_not_symmetric(self, n_ranks):
        assert not bundled_certificate("ocean", n_ranks).symmetric
        assert not bundled_certificate("summa", n_ranks).symmetric

    def test_loop_carried_while_guarding_communication_refused(self):
        with pytest.raises(CertificationError, match="trip count"):
            certify_macro(
                "def p(comm):\n"
                "    t = 0.0\n"
                "    while t < 3.0:\n"
                "        t = t + comm.rank + 1.0\n"
                "        yield from comm.barrier()\n",
                4,
            )


# ---------------------------------------------------------------------------
# the one-shot wrapper forwards the certificate
# ---------------------------------------------------------------------------

def _relax(comm, x, steps):
    for _ in range(steps):
        x = yield from comm.allreduce(x, algorithm="recursive_doubling")
        yield from comm.barrier()
    return x


class TestRunProgramPassthrough:
    def test_certificate_reaches_the_engine(self, machine):
        from repro.simmpi import run_program

        cert = certify_macro(_relax, 4)
        plain = run_program(machine, 4, _relax, 3.5, 3, macro_ops=False)
        certified = run_program(machine, 4, _relax, 3.5, 3, certificate=cert)
        assert certified.time == plain.time
        assert certified.returns == plain.returns
        assert certified.stats == plain.stats
        assert certified.macro_fallbacks == 0
        assert certified.events < plain.events

    def test_stale_certificate_rejected_through_wrapper(self, machine):
        from repro.simmpi import run_program

        cert = certify_macro(_relax, 8)  # proved at 8, run at 4
        with pytest.raises(ConfigurationError, match="certificate"):
            run_program(machine, 4, _relax, 3.5, 3, certificate=cert)

    def test_assumed_parameter_must_match_the_run(self, machine):
        from repro.simmpi import run_program

        cert = certify_macro(_relax, 4, assume={"steps": 3})
        run_program(machine, 4, _relax, 3.5, 3, certificate=cert)
        with pytest.raises(ConfigurationError, match="steps=3"):
            run_program(machine, 4, _relax, 3.5, 2, certificate=cert)
        with pytest.raises(ConfigurationError, match="steps"):
            run_program(machine, 4, _relax, 3.5, steps=4, certificate=cert)


# ---------------------------------------------------------------------------
# the CLI surface
# ---------------------------------------------------------------------------

class TestCertifyCommand:
    @pytest.fixture
    def run_cli(self, capsys):
        def invoke(argv):
            code = main(argv)
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        return invoke

    def test_bundled_ocean(self, run_cli):
        code, out, _ = run_cli(["certify", "ocean", "--ranks", "4"])
        assert code == 0
        payload = json.loads(out)
        assert payload["program"] == "ocean_program"
        assert payload["uniform_exchange"] is True

    def test_source_file(self, run_cli, tmp_path):
        program = tmp_path / "prog.py"
        program.write_text(
            "def p(comm, x):\n"
            "    total = yield from comm.allreduce(x)\n"
            "    return total\n"
        )
        code, out, _ = run_cli(["certify", str(program), "--ranks", "8"])
        assert code == 0
        payload = json.loads(out)
        assert payload["n_ranks"] == 8
        assert payload["collectives"]

    def test_refusal_exits_nonzero(self, run_cli, tmp_path):
        program = tmp_path / "p2p.py"
        program.write_text(
            "def p(comm, x):\n"
            "    yield from comm.send(x, 0, tag=0)\n"
            "    msg = yield from comm.recv(source=0, tag=0)\n"
            "    return msg\n"
        )
        code, _, err = run_cli(["certify", str(program)])
        assert code == 1
        assert "point-to-point" in err
