import random

import pytest
from hypothesis import example, given, settings, strategies as st

from epm.ring import (
    EpmMatrix,
    central_matrix,
    matrix_from_parameters,
    matrix_to_parameters,
    random_central_poly,
    random_matrix,
)
from epm.protocols import (
    CentralizerSampler,
    DhdpPrivateA,
    DhdpPrivateB,
    DhdpPublic,
    RESAMPLE_CAP,
    SetupFailed,
    commutation_system,
    dhdp_alice,
    dhdp_bob,
    dhdp_setup,
    dhdp_shared_alice,
    dhdp_shared_bob,
    egdp_decrypt,
    egdp_encrypt,
    egdp_encrypt_with,
    egdp_keygen,
    run_dhdp_session,
    run_egdp_session,
)
from epm.zpmsolve import OpCounter, PrimePower, howell_solve, is_solution

from conftest import span_closure

GRID = [(2, 2), (2, 4), (3, 3), (5, 2)]


# --- setup --------------------------------------------------------------------


def test_dhdp_setup_postcondition():
    for p, m in GRID:
        params = PrimePower(p, m)
        rng = random.Random(100 * p + m)
        for _ in range(5):
            m_mat, x = dhdp_setup(params, rng)
            assert not m_mat.commutes(x)


def test_dhdp_setup_survives_a_central_m():
    # At (2, 2) M is central with probability 1/8; dhdp_setup redraws M with X,
    # so a central first draw costs one attempt, not the step.
    params = PrimePower(2, 2)
    for seed in range(300):
        m_mat, x = dhdp_setup(params, random.Random(seed))
        assert not m_mat.commutes(x)


def test_dhdp_setup_is_seed_reproducible():
    params = PrimePower(3, 3)
    assert dhdp_setup(params, random.Random(8)) == dhdp_setup(params, random.Random(8))


def test_golden_pair_is_a_valid_setup(golden):
    assert not golden.M.commutes(golden.X)


class CountingRandom(random.Random):
    """Counts randrange calls; at m = 1 each one is a whole matrix draw."""

    draws = 0

    def randrange(self, *args):
        self.draws += 1
        return super().randrange(*args)


def test_m_equal_one_always_fails():
    with pytest.raises(SetupFailed):
        dhdp_setup(PrimePower(2, 1), random.Random(0))
    with pytest.raises(SetupFailed):
        run_dhdp_session(PrimePower(5, 1), random.Random(0))
    with pytest.raises(SetupFailed):
        egdp_keygen(PrimePower(3, 1), random.Random(0))
    # One resampling loop per step: the failing step's own cap bounds the cost
    # and its own message reaches the caller.
    for run_session, p in ((run_dhdp_session, 5), (run_egdp_session, 3)):
        rng = CountingRandom(0)
        with pytest.raises(SetupFailed, match="^could not find a noncommuting public pair$"):
            run_session(PrimePower(p, 1), rng)
        assert 0 < rng.draws <= 2 * RESAMPLE_CAP


# --- alice --------------------------------------------------------------------


def test_dhdp_alice_golden(golden):
    priv = DhdpPrivateA(golden.f1, golden.f2)
    ga = priv.f1.evaluate(golden.M) * golden.X * priv.f2.evaluate(golden.M)
    assert ga == golden.GA


def test_dhdp_alice_trivial_masks(golden):
    from epm.ring import CentralPoly

    one = CentralPoly(golden.params, (1,))
    priv = DhdpPrivateA(one, one)
    assert priv.f1.evaluate(golden.M) * golden.X * priv.f2.evaluate(golden.M) == golden.X


def test_dhdp_alice_outputs_are_members():
    params = PrimePower(3, 3)
    rng = random.Random(12)
    m_mat, x = dhdp_setup(params, rng)
    for _ in range(10):
        _, ga = dhdp_alice(m_mat, x, rng)
        assert EpmMatrix.validate(params, ga.rows) == ga


# --- centralizer sampling -------------------------------------------------------


def test_samples_always_commute(golden):
    sampler = CentralizerSampler(golden.M)
    rng = random.Random(77)
    for _ in range(1000):
        assert sampler.sample(rng).commutes(golden.M)


def test_golden_b1_is_in_the_sampled_space(golden):
    system = commutation_system(golden.M)
    assert is_solution(system, matrix_to_parameters(golden.B1))
    assert is_solution(system, matrix_to_parameters(golden.B2))


@settings(max_examples=100, deadline=None)
@given(
    params=st.builds(PrimePower, st.sampled_from([2, 3, 5, 7]), st.integers(1, 5)),
    seed=st.integers(0, 2**32),
)
# Dtype boundaries of the array build: plain int64 products at 3^19, the
# float-quotient mulmod past 2^31, where the raw term-block products reach
# p^40 at 3^21, and object past 2^50.
@example(params=PrimePower(3, 19), seed=0)
@example(params=PrimePower(3, 20), seed=0)
@example(params=PrimePower(3, 21), seed=0)
@example(params=PrimePower(5, 21), seed=0)
@example(params=PrimePower(2**61 - 1, 2), seed=0)
def test_commutation_system_solutions_are_the_centralizer(params, seed):
    rng = random.Random(seed)
    m_mat, a = random_matrix(params, rng), random_matrix(params, rng)
    system = commutation_system(m_mat)
    assert is_solution(system, matrix_to_parameters(a)) == a.commutes(m_mat)
    f = random_central_poly(params, rng, rng.randrange(params.m))
    assert is_solution(system, matrix_to_parameters(f.evaluate(m_mat)))


def test_parametrisation_roundtrip():
    params = PrimePower(3, 3)
    rng = random.Random(6)
    for _ in range(30):
        a = random_matrix(params, rng)
        assert matrix_from_parameters(params, matrix_to_parameters(a)) == a


def test_identity_centralizer_is_everything():
    # every element commutes with the identity, so the sampled space must be
    # the whole ring: compare parameter-space spans by brute enumeration
    params = PrimePower(2, 2)
    sampler = CentralizerSampler(central_matrix(params, 1))
    q = params.modulus
    full = {
        tuple(t)
        for t in span_closure(q, sampler.kernel, params.m**2)
    }
    assert len(full) == q ** (params.m**2)


def test_one_shot_sampler(golden):
    rng = random.Random(3)
    assert CentralizerSampler(golden.M).sample(rng).commutes(golden.M)


# --- bob ----------------------------------------------------------------------


def test_dhdp_bob_golden_masks(golden):
    priv = DhdpPrivateB(golden.B1, golden.B2)
    assert priv.B1 * golden.X * priv.B2 == golden.GB
    assert priv.B1 * golden.X != golden.X * priv.B2


def test_dhdp_bob_satisfies_constraint():
    params = PrimePower(3, 3)
    rng = random.Random(21)
    m_mat, x = dhdp_setup(params, rng)
    for _ in range(10):
        priv, gb = dhdp_bob(m_mat, x, rng)
        assert priv.B1 * x != x * priv.B2
        assert priv.B1.commutes(m_mat) and priv.B2.commutes(m_mat)
        assert EpmMatrix.validate(params, gb.rows) == gb


# --- shared secret -------------------------------------------------------------


def test_golden_shared_secret(golden):
    priv_a = DhdpPrivateA(golden.f1, golden.f2)
    priv_b = DhdpPrivateB(golden.B1, golden.B2)
    assert dhdp_shared_alice(priv_a, golden.M, golden.GB) == golden.shared
    assert dhdp_shared_bob(priv_b, golden.GA) == golden.shared


def test_trivial_session_shared_secret_is_x(golden):
    from epm.ring import CentralPoly

    one = CentralPoly(golden.params, (1,))
    ident = central_matrix(golden.params, 1)
    priv_a = DhdpPrivateA(one, one)
    priv_b = DhdpPrivateB(ident, ident)
    # with all masks trivial, GB = X and the shared value is X itself
    assert dhdp_shared_alice(priv_a, golden.M, golden.X) == golden.X
    assert dhdp_shared_bob(priv_b, golden.X) == golden.X


@pytest.mark.parametrize("p,m", GRID)
def test_sessions_complete(p, m):
    params = PrimePower(p, m)
    rng = random.Random(7000 + 10 * p + m)
    for _ in range(40):
        session = run_dhdp_session(params, rng)
        assert dhdp_shared_bob(session.bob, session.public.GA) == session.shared
        m_mat = session.public.M
        assert session.bob.B1.commutes(m_mat)
        assert session.bob.B2.commutes(m_mat)
        a1 = session.alice.f1.evaluate(m_mat)
        a2 = session.alice.f2.evaluate(m_mat)
        assert a1.commutes(m_mat) and a2.commutes(m_mat)
        # the two masking families commute with each other
        assert a1.commutes(session.bob.B1) and a2.commutes(session.bob.B2)
        # published constraints
        assert not m_mat.commutes(session.public.X)
        assert session.bob.B1 * session.public.X != session.public.X * session.bob.B2


def test_dhdp_public_rejects_commuting_pair(golden):
    with pytest.raises(ValueError):
        DhdpPublic(golden.M, golden.M, golden.GA, golden.GB)


# --- egdp -----------------------------------------------------------------------


def test_egdp_keygen_constraint():
    params = PrimePower(3, 3)
    rng = random.Random(31)
    kp = egdp_keygen(params, rng)
    assert not kp.public.N.commutes(kp.public.M)
    f1m = kp.private.f1.evaluate(kp.public.M)
    f2m = kp.private.f2.evaluate(kp.public.M)
    assert f1m * kp.public.N * f2m == kp.public.E


def test_egdp_degenerate_key(golden):
    from epm.ring import CentralPoly
    from epm.protocols import EgdpKeyPair, EgdpPrivateKey, EgdpPublicKey

    one = CentralPoly(golden.params, (1,))
    pub = EgdpPublicKey(golden.M, golden.X, golden.X)  # f1 = f2 = 1 gives E = N
    priv = EgdpPrivateKey(golden.M, one, one)
    ident = central_matrix(golden.params, 1)
    s = golden.shared
    ct = egdp_encrypt_with(pub, s, ident, ident)
    assert ct.F == pub.N
    assert ct.D == s + pub.E
    assert egdp_decrypt(priv, ct) == s


@pytest.mark.parametrize("p,m", GRID)
def test_egdp_roundtrip(p, m):
    params = PrimePower(p, m)
    rng = random.Random(9000 + 10 * p + m)
    for _ in range(30):
        kp, s, ct = run_egdp_session(params, rng)
        assert egdp_decrypt(kp.private, ct) == s


def test_egdp_zero_secret():
    params = PrimePower(3, 3)
    rng = random.Random(41)
    kp, s, ct = run_egdp_session(params, rng, secret=EpmMatrix.zero(params))
    assert egdp_decrypt(kp.private, ct) == EpmMatrix.zero(params)


def test_egdp_tampered_ciphertext():
    params = PrimePower(3, 3)
    rng = random.Random(43)
    kp, s, ct = run_egdp_session(params, rng)
    from epm.protocols import EgdpCiphertext

    tampered = EgdpCiphertext(ct.F, ct.D + central_matrix(params, 1))
    assert egdp_decrypt(kp.private, tampered) == s + central_matrix(params, 1)


def test_commutation_solve_op_count_at_workload_scale():
    # The commutation solve of the benchmark's p = 2, m = 20 sessions: its
    # OpCounter total and kernel size are pinned, so any change to the
    # elimination that moves the count shows at the size that is timed.
    matrix = random_matrix(PrimePower(2, 20), random.Random(5))
    counter = OpCounter()
    sol = howell_solve(commutation_system(matrix), counter=counter)
    assert counter.muls == 59107867
    assert len(sol.kernel) == 400
