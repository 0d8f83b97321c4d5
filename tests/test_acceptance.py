"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
The whole suite is designed to finish on a desk machine in a few minutes;
the long-running m=128 measurement is explicitly out of scope and only
reachable through the CLI's --allow-huge flag.
"""

import random
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager

import pytest

from epm.attack import (
    apply_weights,
    attack_dhdp,
    attack_egdp,
    build_attack_system,
    zhang_system,
)
from epm.cli import cli_main
from epm.protocols import (
    DhdpPrivateA,
    DhdpPrivateB,
    DhdpPublic,
    dhdp_shared_alice,
    dhdp_shared_bob,
    run_dhdp_session,
    run_egdp_session,
)
from epm.ring import (
    CentralPoly,
    EpmMatrix,
    cayley_hamilton_coeffs,
    central_matrix,
    lift,
    random_central_poly,
    random_matrix,
    unlift,
)
from epm.serialize import (
    dhdp_transcript_file,
    parse_transcript,
    read_secret,
    secret_file,
    write_transcript,
)
from epm.zpmsolve import (
    InconsistentSystem,
    OpCounter,
    PrimePower,
    ZpmSystem,
    brute_solve,
    howell_solve,
    is_solution,
)

from conftest import spanned_solutions


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({title}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({title}): PASS")


def test_criterion_1_golden_session(golden):
    with criterion(1, "2x2 golden session, exact"):
        assert golden.A1 * golden.X * golden.A2 == golden.GA
        assert golden.GA.rows == ((0, 1), (20, 23))
        assert golden.B1 * golden.X * golden.B2 == golden.GB
        assert golden.GB.rows == ((0, 2), (5, 3))
        priv_a = DhdpPrivateA(golden.f1, golden.f2)
        priv_b = DhdpPrivateB(golden.B1, golden.B2)
        assert dhdp_shared_alice(priv_a, golden.M, golden.GB) == golden.shared
        assert dhdp_shared_bob(priv_b, golden.GA) == golden.shared
        assert golden.shared.rows == ((0, 1), (15, 21))
        assert lift(golden.GA).rows == ((0, 5), (20, 23))
        assert attack_dhdp(golden.M, golden.X, golden.GA, golden.GB) == golden.shared
        system = build_attack_system(golden.M, golden.X, golden.GA)
        assert is_solution(system, (2, 22, 1, 0))


def test_criterion_2_flat_modulus_failure(golden):
    with criterion(2, "flat-modulus system fails, lifted succeeds"):
        naive = zhang_system(golden.M, golden.X, golden.GA)
        with pytest.raises(InconsistentSystem):
            howell_solve(naive)
        lifted = build_attack_system(golden.M, golden.X, golden.GA)
        sol = howell_solve(lifted)
        assert is_solution(lifted, sol.particular)


ATTACK_GRID = [(2, 2), (2, 4), (2, 8), (3, 3), (5, 2)]


def test_criterion_3_attack_success_rate():
    with criterion(3, "200 DHDP sessions per (p,m), 100% recovery"):
        for p, m in ATTACK_GRID:
            params = PrimePower(p, m)
            rng = random.Random(31_000 + 100 * p + m)
            for _ in range(200):
                s = run_dhdp_session(params, rng)
                recovered = attack_dhdp(
                    s.public.M, s.public.X, s.public.GA, s.public.GB
                )
                assert recovered == s.shared, (p, m)


def test_criterion_4_egdp_recovery():
    with criterion(4, "500 EGDP sessions across the grid, 100% recovery"):
        from epm.protocols import egdp_decrypt

        per_param = 100  # 100 x 5 = 500 sessions
        for p, m in ATTACK_GRID:
            params = PrimePower(p, m)
            rng = random.Random(41_000 + 100 * p + m)
            for _ in range(per_param):
                kp, s, ct = run_egdp_session(params, rng)
                assert egdp_decrypt(kp.private, ct) == s, (p, m)
                assert attack_egdp(kp.public, ct) == s, (p, m)


def test_criterion_5_solver_equals_oracle():
    with criterion(5, "500 random systems: solver span == brute force"):
        rng = random.Random(51_000)
        inconsistent = 0
        for _ in range(500):
            p = rng.choice([2, 3])
            m = rng.randrange(1, 4)
            params = PrimePower(p, m)
            q = params.modulus
            r = rng.randrange(1, 4)
            c = rng.randrange(1, 4)
            system = ZpmSystem(
                params,
                tuple(tuple(rng.randrange(q) for _ in range(c)) for _ in range(r)),
                tuple(rng.randrange(q) for _ in range(r)),
            )
            oracle = set(brute_solve(system))
            try:
                sol = howell_solve(system)
            except InconsistentSystem:
                inconsistent += 1
                assert not oracle
                continue
            assert spanned_solutions(sol) == oracle
        assert inconsistent > 25  # both outcomes must be represented


def test_criterion_6_algebraic_invariants(golden):
    with criterion(6, "ring laws, center, lift, power reduction"):
        rng = random.Random(61_000)

        # ring laws, 1000 random triples over p in {2,3,5}, m in 1..5
        for _ in range(1000):
            p = rng.choice([2, 3, 5])
            m = rng.randrange(1, 6)
            params = PrimePower(p, m)
            a, b, c = (random_matrix(params, rng) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert (a + b) * c == a * c + b * c
            one = EpmMatrix.identity(params)
            assert one * a == a * one == a
        assert golden.M * golden.X != golden.X * golden.M  # noncommutativity witness

        # the center map is a ring isomorphism agreeing with the
        # diagonal-digit characterisation
        for _ in range(300):
            p = rng.choice([2, 3, 5])
            m = rng.randrange(1, 6)
            params = PrimePower(p, m)
            q = params.modulus
            x, y = rng.randrange(q), rng.randrange(q)
            assert central_matrix(params, x + y) == central_matrix(
                params, x
            ) + central_matrix(params, y)
            assert central_matrix(params, x * y % q) == central_matrix(
                params, x
            ) * central_matrix(params, y)
            assert central_matrix(params, x).is_central()
            a = random_matrix(params, rng)
            assert a.is_central() == (a == central_matrix(params, a.rows[-1][-1]))

        # lift: additive bijection, scalar compatible, not multiplicative
        for _ in range(300):
            p = rng.choice([2, 3, 5])
            m = rng.randrange(1, 6)
            params = PrimePower(p, m)
            q = params.modulus
            a, b = random_matrix(params, rng), random_matrix(params, rng)
            r = rng.randrange(q)
            la, lb = lift(a), lift(b)
            assert unlift(la) == a
            assert lift(a + b).rows == tuple(
                tuple((x + y) % q for x, y in zip(ra, rb))
                for ra, rb in zip(la.rows, lb.rows)
            )
            assert lift(a.scale(r)).rows == tuple(
                tuple(r * x % q for x in row) for row in la.rows
            )
        a, b = golden.M, golden.X
        q = golden.params.modulus
        la, lb = lift(a).rows, lift(b).rows
        plain = tuple(
            tuple(sum(la[i][k] * lb[k][j] for k in range(2)) % q for j in range(2))
            for i in range(2)
        )
        assert plain != lift(a * b).rows  # lift is not multiplicative

        # power reduction identity on 500 random matrices
        for p, m in [(2, 4), (3, 3), (5, 2)]:
            params = PrimePower(p, m)
            rng2 = random.Random(62_000 + p)
            for _ in range(167):
                a = random_matrix(params, rng2)
                coeffs = cayley_hamilton_coeffs(a)
                assert CentralPoly(params, coeffs).evaluate(a) == a**m

        # polynomials in the same matrix commute
        for _ in range(200):
            p = rng.choice([2, 3, 5])
            m = rng.randrange(2, 6)
            params = PrimePower(p, m)
            base = random_matrix(params, rng)
            f = random_central_poly(params, rng, m - 1)
            g = random_central_poly(params, rng, m - 1)
            fm, gm = f.evaluate(base), g.evaluate(base)
            assert fm * gm == gm * fm


def test_criterion_7_complexity_scaling():
    with criterion(7, "op count ~ (m^2)^3; m=32 completes"):
        rng = random.Random(71_000)
        medians = {}
        for m in (8, 16):
            counts = []
            for _ in range(5):
                s = run_dhdp_session(PrimePower(2, m), rng)
                counter = OpCounter()
                recovered = attack_dhdp(
                    s.public.M, s.public.X, s.public.GA, s.public.GB, counter=counter
                )
                assert recovered == s.shared
                counts.append(counter.muls)
            medians[m] = statistics.median(counts)
        ratio = medians[16] / medians[8]
        assert 32 <= ratio <= 96, ratio

        # the m=32 attack completes end to end and verifies
        s = run_dhdp_session(PrimePower(2, 32), rng)
        counter = OpCounter()
        t0 = time.perf_counter()
        recovered = attack_dhdp(
            s.public.M, s.public.X, s.public.GA, s.public.GB, counter=counter
        )
        wall = time.perf_counter() - t0
        assert recovered == s.shared
        assert counter.muls > medians[16]
        print(
            f"  m=32 attack: {wall:.1f}s wall, {counter.muls} ring multiplications"
        )


def test_criterion_8_cli_and_format_contract(golden, tmp_path):
    with criterion(8, "serialization, determinism, exit codes"):
        # round-trip identity on 1000 random matrices
        rng = random.Random(81_000)
        grid = [(2, 1), (2, 4), (2, 8), (3, 3), (5, 2)]
        for p, m in grid:
            params = PrimePower(p, m)
            for _ in range(200):
                s = random_matrix(params, rng)
                assert (
                    read_secret(parse_transcript(write_transcript(secret_file(s))))
                    == s
                )

        # byte-identical reruns under a fixed seed
        params_file = tmp_path / "params.epm"
        assert cli_main(
            ["gen", "--p", "5", "--m", "2", "--seed", "9", "--out", str(params_file)]
        ) == 0
        blobs = []
        for tag in ("a", "b"):
            t = tmp_path / f"t{tag}.epm"
            s = tmp_path / f"s{tag}.epm"
            assert cli_main(
                ["simulate", "--params", str(params_file), "--seed", "9",
                 "--out", str(t), "--secret-out", str(s)]
            ) == 0
            blobs.append(t.read_bytes() + s.read_bytes())
        assert blobs[0] == blobs[1]

        # documented exit codes, black box
        transcript = tmp_path / "ta.epm"
        secret = tmp_path / "sa.epm"
        stolen = tmp_path / "out.epm"
        assert cli_main(
            ["attack", "--transcript", str(transcript), "--out", str(stolen)]
        ) == 0
        assert cli_main(["verify", "--a", str(stolen), "--b", str(secret)]) == 0
        assert cli_main(["verify", "--a", str(stolen), "--b", str(params_file)]) == 1

        bad = tmp_path / "bad.epm"
        bad.write_text("EPM/1\np 5\nm 2\nmatrix M\n0 0\n7 0\n")
        assert cli_main(["attack", "--transcript", str(bad), "--out", str(stolen)]) == 2

        hostile = tmp_path / "hostile.epm"
        pub = DhdpPublic(
            golden.M, golden.X, central_matrix(golden.params, 1), golden.GB
        )
        hostile.write_text(write_transcript(dhdp_transcript_file(pub)), newline="")
        assert cli_main(
            ["attack", "--transcript", str(hostile), "--out", str(stolen)]
        ) == 3

        # the installed module is runnable as a subprocess with the same codes
        result = subprocess.run(
            [sys.executable, "-m", "epm.cli", "demo-zhang"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert "inconsistent" in result.stdout
