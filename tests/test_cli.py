import hashlib
import subprocess
import sys

import pytest

from epm.cli import cli_main
from epm.protocols import DhdpPublic, commutation_system
from epm.ring import EpmMatrix, central_matrix, random_matrix
from epm.serialize import (
    dhdp_transcript_file,
    parse_transcript,
    read_secret,
    secret_file,
    write_transcript,
)
from epm.zpmsolve import OpCounter, PrimePower, howell_solve

import random


def run(args):
    return cli_main([str(a) for a in args])


@pytest.fixture
def workdir(tmp_path):
    return tmp_path


def test_gen_simulate_attack_verify_pipeline(workdir):
    params_file = workdir / "params.epm"
    transcript = workdir / "transcript.epm"
    secret = workdir / "secret.epm"
    stolen = workdir / "stolen.epm"

    assert run(["gen", "--p", 5, "--m", 2, "--seed", 7, "--out", params_file]) == 0
    assert run(
        ["simulate", "--params", params_file, "--seed", 7, "--out", transcript,
         "--secret-out", secret]
    ) == 0
    assert run(["attack", "--transcript", transcript, "--out", stolen]) == 0
    assert run(["verify", "--a", stolen, "--b", secret]) == 0
    assert run(["verify", "--a", stolen, "--b", params_file]) == 1


def test_golden_transcript_attack(workdir, golden):
    transcript = workdir / "t.epm"
    pub = DhdpPublic(golden.M, golden.X, golden.GA, golden.GB)
    transcript.write_text(write_transcript(dhdp_transcript_file(pub)), newline="")
    out = workdir / "out.epm"
    assert run(["attack", "--transcript", transcript, "--out", out]) == 0
    recovered = read_secret(parse_transcript(out.read_text()))
    assert recovered == golden.shared
    assert recovered.rows == ((0, 1), (15, 21))


def test_cli_outputs_are_byte_identical_per_seed(workdir):
    params_file = workdir / "params.epm"
    run(["gen", "--p", 3, "--m", 3, "--seed", 42, "--out", params_file])
    outs = []
    for tag in ("a", "b"):
        t = workdir / f"t{tag}.epm"
        s = workdir / f"s{tag}.epm"
        assert run(
            ["simulate", "--params", params_file, "--seed", 13, "--out", t,
             "--secret-out", s]
        ) == 0
        outs.append((t.read_bytes(), s.read_bytes()))
    assert outs[0] == outs[1]

    # different seed, different transcript
    t = workdir / "tc.epm"
    s = workdir / "sc.epm"
    run(["simulate", "--params", params_file, "--seed", 14, "--out", t, "--secret-out", s])
    assert t.read_bytes() != outs[0][0]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# SHA-256 of the params, transcript and secret files written by
# `gen --seed 17` and `simulate --seed 17`, recorded with the per-row solver
# that preceded the whole-array one.
PINNED_FILES = {
    (2, 5): (
        "a0e3bdc0a3148ee12c818a332631e43e2120e40b175bef5be8e728d1fb4caff9",
        "a317034285dfef53a8b41e858cfeedcc22cf3e0768e6c6a2ee1f300bf9d0ded5",
        "ef3f463ce0a23e3b2fecbfaa266d78a550772ac82f483b8a73b7f4918e0f1c9f",
    ),
    (5, 3): (
        "99fee4c27844a6e6925714351f3f7c11acb89037f3761ed06cc1bca8f47f75a2",
        "e08022ca56b9c703070fbe41bd2b9a8fa2eb3d78b674b6f7e38232e0a80f10c2",
        "cdfab2f1e81e778a3c509c44e93bef5858667aa31fb072d81dbfae4703d46601",
    ),
}
PINNED_KERNEL_MULS = 44424
PINNED_KERNEL_DIGEST = "aa51a04a0b7f148f70ed5ee950288f80e02fbaa95fcc45cda10d38db37610dc6"


def test_outputs_match_pinned_digests(workdir):
    for (p, m), expected in PINNED_FILES.items():
        files = [workdir / f"{name}-{p}-{m}.epm" for name in ("params", "t", "s")]
        assert run(["gen", "--p", p, "--m", m, "--seed", 17, "--out", files[0]]) == 0
        assert run(
            ["simulate", "--params", files[0], "--seed", 17, "--out", files[1],
             "--secret-out", files[2]]
        ) == 0
        assert tuple(_sha256(f.read_bytes()) for f in files) == expected

    system = commutation_system(random_matrix(PrimePower(2, 6), random.Random(1)))
    for backend in (None, "python"):
        counter = OpCounter()
        sol = howell_solve(system, counter=counter, backend=backend)
        assert counter.muls == PINNED_KERNEL_MULS
        assert _sha256(repr((sol.particular, sol.kernel)).encode()) == PINNED_KERNEL_DIGEST


def test_egdp_cli_flow(workdir):
    pub = workdir / "pub.epm"
    priv = workdir / "priv.epm"
    assert run(
        ["egdp-keygen", "--p", 3, "--m", 3, "--seed", 11, "--pub-out", pub,
         "--priv-out", priv]
    ) == 0

    params = PrimePower(3, 3)
    s_mat = random_matrix(params, random.Random(5))
    secret = workdir / "S.epm"
    secret.write_text(write_transcript(secret_file(s_mat)), newline="")

    ct = workdir / "ct.epm"
    assert run(
        ["egdp-encrypt", "--pub", pub, "--secret", secret, "--seed", 12, "--out", ct]
    ) == 0

    dec = workdir / "dec.epm"
    assert run(["egdp-decrypt", "--priv", priv, "--ct", ct, "--out", dec]) == 0
    assert run(["verify", "--a", dec, "--b", secret]) == 0

    stolen = workdir / "stolen.epm"
    assert run(["egdp-attack", "--pub", pub, "--ct", ct, "--out", stolen]) == 0
    assert run(["verify", "--a", stolen, "--b", secret]) == 0


def test_exit_2_on_malformed_input(workdir):
    bad = workdir / "bad.epm"
    bad.write_text("EPM/1\np 5\nm 2\nmatrix M\n0 0\n7 0\n")
    assert run(["attack", "--transcript", bad, "--out", workdir / "x.epm"]) == 2
    assert run(["attack", "--transcript", workdir / "missing.epm",
                "--out", workdir / "x.epm"]) == 2
    assert run(["gen", "--p", 6, "--m", 2, "--seed", 1, "--out", workdir / "x.epm"]) == 2
    # degenerate parameters: the commutative m=1 ring has no valid setup
    assert run(["gen", "--p", 2, "--m", 1, "--seed", 1, "--out", workdir / "x.epm"]) == 2


def test_exit_2_on_bad_flags(capsys):
    assert run(["attack"]) == 2
    assert run(["no-such-command"]) == 2
    capsys.readouterr()


def test_exit_3_on_hostile_transcript(workdir, golden):
    # the identity is provably outside the span of the masked products here
    pub = DhdpPublic(
        golden.M, golden.X, central_matrix(golden.params, 1), golden.GB
    )
    t = workdir / "hostile.epm"
    t.write_text(write_transcript(dhdp_transcript_file(pub)), newline="")
    assert run(["attack", "--transcript", t, "--out", workdir / "x.epm"]) == 3


def test_bench_cli(workdir):
    csv_path = workdir / "bench.csv"
    assert run(
        ["bench", "--p", 2, "--m-list", "2,3", "--reps", 2, "--seed", 3,
         "--out", csv_path]
    ) == 0
    lines = csv_path.read_text().split("\n")
    assert lines[0] == "p,m,rep,wall_seconds,solver_ring_ops,verified"
    assert len(lines) == 6  # header + 4 records + trailing newline
    assert all(line.endswith(",yes") for line in lines[1:5])

    # op counts are seed-deterministic even though wall times are not
    csv2 = workdir / "bench2.csv"
    run(["bench", "--p", 2, "--m-list", "2,3", "--reps", 2, "--seed", 3, "--out", csv2])
    pick = lambda text: [
        (row.split(",")[1], row.split(",")[4]) for row in text.split("\n")[1:5]
    ]
    assert pick(csv_path.read_text()) == pick(csv2.read_text())


def test_bench_rejects_huge_m_without_flag(workdir, capsys):
    assert run(
        ["bench", "--p", 2, "--m-list", "64", "--reps", 1, "--seed", 1,
         "--out", workdir / "x.csv"]
    ) == 2
    capsys.readouterr()


def test_bench_allow_huge_accepts_m128(workdir, monkeypatch, capsys):
    # the long-running mode must accept m=128; stub the harness so the test
    # checks flag plumbing, not a multi-day run
    seen = {}

    def fake_bench(param_list, reps, rng):
        seen["params"] = list(param_list)
        seen["reps"] = reps
        return []

    import epm.cli as cli_mod

    monkeypatch.setattr(cli_mod, "bench_attack", fake_bench)
    assert run(
        ["bench", "--p", 2, "--m-list", "128", "--reps", 1, "--seed", 1,
         "--out", workdir / "x.csv", "--allow-huge"]
    ) == 0
    assert seen == {"params": [(2, 128)], "reps": 1}
    capsys.readouterr()


def test_demo_zhang(capsys):
    assert run(["demo-zhang"]) == 0
    out = capsys.readouterr().out
    assert "flat-modulus system: inconsistent" in out
    assert "lifted attack system: consistent" in out
    assert "0 1\n15 21" in out

    # deterministic output bytes
    run(["demo-zhang"])
    assert capsys.readouterr().out == out


def test_console_entry_point_black_box(workdir):
    # one subprocess round-trip to pin the installed entry point's exit code
    result = subprocess.run(
        [sys.executable, "-m", "epm.cli", "gen", "--p", "5", "--m", "2",
         "--seed", "1", "--out", str(workdir / "p.epm")],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    result = subprocess.run(
        [sys.executable, "-m", "epm.cli", "gen", "--p", "4"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 2
