import itertools
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from epm.attack import (
    apply_weights,
    attack_dhdp,
    attack_egdp,
    bench_attack,
    build_attack_system,
    summarize_bench,
    zhang_system,
)
from epm.protocols import (
    DhdpPrivateA,
    EgdpCiphertext,
    EgdpPublicKey,
    run_dhdp_session,
    run_egdp_session,
)
from epm.ring import (
    CentralPoly,
    EpmMatrix,
    ParamMismatch,
    basis_array,
    central_matrix,
    combination_system,
    from_array,
    lift_array,
    power_stack,
    random_matrix,
)
from epm.zpmsolve import (
    InconsistentSystem,
    OpCounter,
    PrimePower,
    Residues,
    ZpmSystem,
    howell_solve,
    is_solution,
)


# --- system construction ---------------------------------------------------------


def test_attack_system_golden(golden):
    system = build_attack_system(golden.M, golden.X, golden.GA)
    assert system.rows == 4 and system.cols == 4
    assert tuple(zip(*system.coeffs)) == golden.system_cols
    assert system.rhs == golden.system_rhs
    assert is_solution(system, golden.lam)


def direct_products(m_mat, x):
    """M^i * X * M^j as ring products, row-major over (i, j)."""
    m = m_mat.params.m
    return [m_mat**i * x * m_mat**j for i, j in itertools.product(range(m), repeat=2)]


@st.composite
def ring_triples(draw):
    params = PrimePower(draw(st.sampled_from([2, 3, 5, 7])), draw(st.integers(1, 6)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    return [random_matrix(params, rng) for _ in range(3)]


def test_sandwich_basis_matches_direct_products(golden):
    # One ring per residue tier: uint64, int64, wide int64, object; and m = 1.
    rng = random.Random(9)
    pairs = [(golden.M, golden.X)] + [
        (random_matrix(params, rng), random_matrix(params, rng))
        for params in (
            PrimePower(2, 5), PrimePower(3, 4), PrimePower(65537, 2),
            PrimePower(2147483647, 2), PrimePower(7, 1),
        )
    ]
    for m_mat, x in pairs:
        m = m_mat.params.m
        res = Residues.of(m_mat.params)
        basis = basis_array(res, power_stack(res, m_mat), x)
        for k, product in enumerate(direct_products(m_mat, x)):
            assert from_array(res, basis[:, k].reshape(m, m)) == product


@settings(max_examples=60, deadline=None)
@given(ring_triples())
def test_array_system_equals_the_reference_definition(triple):
    m_mat, x, ga = triple
    reference = combination_system(direct_products(m_mat, x), ga)
    assert build_attack_system(m_mat, x, ga) == reference


def test_trivial_instance_has_trivial_weights(golden):
    ident = central_matrix(golden.params, 1)
    system = build_attack_system(golden.M, ident, ident)
    assert is_solution(system, (1, 0, 0, 0))


def test_attack_systems_are_consistent_for_honest_sessions():
    rng = random.Random(220)
    for p, m in [(2, 3), (3, 2), (5, 2)]:
        params = PrimePower(p, m)
        for _ in range(25):
            s = run_dhdp_session(params, rng)
            howell_solve(
                build_attack_system(s.public.M, s.public.X, s.public.GA),
                with_kernel=False,
            )  # raising would fail the test


# --- secret recovery ---------------------------------------------------------------


def test_attack_recovers_golden_secret(golden):
    assert attack_dhdp(golden.M, golden.X, golden.GA, golden.GB) == golden.shared


def test_known_weights_recover_golden_secret(golden):
    assert apply_weights(golden.M, golden.GB, golden.lam) == golden.shared


def _explicit_weighted_sum(m_mat, center, weights):
    m = m_mat.params.m
    acc = EpmMatrix.zero(m_mat.params)
    for (i, j), w in zip(itertools.product(range(m), repeat=2), weights):
        if w:
            acc = acc + (m_mat**i * center * m_mat**j).scale(w)
    return acc


@settings(max_examples=60, deadline=None)
@given(ring_triples(), st.data())
def test_apply_weights_matches_explicit_products(triple, data):
    m_mat, center, _ = triple
    m, q = m_mat.params.m, m_mat.params.modulus
    weights = data.draw(
        st.lists(st.integers(-2 * q, 2 * q), min_size=m * m, max_size=m * m)
    )
    assert apply_weights(m_mat, center, weights) == _explicit_weighted_sum(
        m_mat, center, weights
    )


@pytest.mark.parametrize(
    "p,m,dense",
    [
        (2, 63, False),
        (2, 64, False),
        (3, 16, True),  # int64, every contraction by @
        (3, 17, True),
        (3, 18, True),  # int64, @ over m terms, per product over m^2
        (3, 19, True),  # int64, every contraction per product
        (3, 20, True),  # int64 with the float-quotient mulmod
        (3, 31, True),
        (5, 21, True),
        (2**61 - 1, 2, True),
    ],
)
def test_apply_weights_at_dtype_boundaries(p, m, dense):
    # Each case sits just inside or just outside a dtype or int64 kernel of
    # Residues.  Rank-one weights u_i * v_j give the value U * center * V
    # with U = sum_i u_i M^i.  Dense u, v near q make the int64 contraction's
    # partial sums as large as they get; on uint64, where wraparound is
    # exact anyway, three powers keep the ring-side value cheap.
    params = PrimePower(p, m)
    q = params.modulus
    rng = random.Random(p * m)
    m_mat, center = random_matrix(params, rng), random_matrix(params, rng)
    n = m if dense else 3
    u = [q - 1 - rng.randrange(4) for _ in range(n)]
    v = [q - 1 - rng.randrange(4) for _ in range(n)]
    weights = [ui * vj for ui in u + [0] * (m - n) for vj in v + [0] * (m - n)]
    left = CentralPoly(params, u).evaluate(m_mat)
    right = CentralPoly(params, v).evaluate(m_mat)
    assert apply_weights(m_mat, center, weights) == left * center * right


def test_attack_layer_rejects_mismatched_inputs(golden):
    other = EpmMatrix.identity(PrimePower(3, 2))
    with pytest.raises(ParamMismatch):
        apply_weights(golden.M, golden.GB, (1, 0, 0))
    with pytest.raises(ParamMismatch):
        apply_weights(golden.M, other, golden.lam)
    with pytest.raises(ParamMismatch):
        build_attack_system(golden.M, golden.X, other)


def test_attack_with_trivial_alice_returns_gb(golden):
    # A1 = A2 = identity: GA = X, and the shared value equals GB itself
    one = CentralPoly(golden.params, (1,))
    priv_a = DhdpPrivateA(one, one)
    shared = priv_a.f1.evaluate(golden.M) * golden.GB * priv_a.f2.evaluate(golden.M)
    assert shared == golden.GB
    assert attack_dhdp(golden.M, golden.X, golden.X, golden.GB) == golden.GB


def test_every_solution_recovers_the_same_secret(golden):
    system = build_attack_system(golden.M, golden.X, golden.GA)
    sol = howell_solve(system)
    rng = random.Random(14)
    for _ in range(20):
        weights = sol.random_solution(rng)
        assert is_solution(system, weights)
        assert apply_weights(golden.M, golden.GB, weights) == golden.shared


def test_solution_independence_on_random_sessions():
    rng = random.Random(501)
    for p, m in [(2, 3), (3, 2)]:
        params = PrimePower(p, m)
        for _ in range(10):
            s = run_dhdp_session(params, rng)
            system = build_attack_system(s.public.M, s.public.X, s.public.GA)
            sol = howell_solve(system)
            for _ in range(5):
                weights = sol.random_solution(rng)
                assert apply_weights(s.public.M, s.public.GB, weights) == s.shared


def test_hostile_transcript_raises(golden):
    # the identity is provably outside the span of the lifted products here:
    # its lift has a unit in the top-left corner, all basis lifts are zero there
    with pytest.raises(InconsistentSystem):
        attack_dhdp(golden.M, golden.X, central_matrix(golden.params, 1), golden.GB)


def test_attack_dhdp_across_grid():
    rng = random.Random(321)
    for p, m in [(2, 2), (2, 4), (3, 3), (5, 2)]:
        params = PrimePower(p, m)
        for _ in range(15):
            s = run_dhdp_session(params, rng)
            assert attack_dhdp(s.public.M, s.public.X, s.public.GA, s.public.GB) == s.shared


# --- egdp ---------------------------------------------------------------------------


def test_attack_egdp_across_grid():
    rng = random.Random(654)
    for p, m in [(2, 3), (3, 2), (5, 2)]:
        params = PrimePower(p, m)
        for _ in range(15):
            kp, s, ct = run_egdp_session(params, rng)
            assert attack_egdp(kp.public, ct) == s


def test_attack_egdp_trivial_key(golden):
    pub = EgdpPublicKey(golden.M, golden.X, golden.X)  # E = N
    s = golden.shared
    ct = EgdpCiphertext(pub.N, s + pub.E)  # trivial masks
    assert attack_egdp(pub, ct) == s


def test_attack_egdp_zero_secret():
    params = PrimePower(3, 3)
    rng = random.Random(99)
    kp, s, ct = run_egdp_session(params, rng, secret=EpmMatrix.zero(params))
    assert attack_egdp(kp.public, ct) == EpmMatrix.zero(params)


# --- the defective flat-modulus construction ------------------------------------------


def test_zhang_system_shape_and_inconsistency(golden):
    naive = zhang_system(golden.M, golden.X, golden.GA)
    assert naive.rows == 4 and naive.cols == 8
    with pytest.raises(InconsistentSystem):
        howell_solve(naive)


def _digit_assignments_solving(system, p, m):
    """Oracle: enumerate all base-p digit assignments and keep the solutions.

    Vectorised brute force over p^(m^3) digit vectors; independent of the
    solver under test.
    """
    q = system.params.modulus
    coeffs = np.array(system.coeffs, dtype=np.int64)
    rhs = np.array(system.rhs, dtype=np.int64)
    digits = np.array(
        list(itertools.product(range(p), repeat=system.cols)), dtype=np.int64
    )
    ok = ((digits @ coeffs.T - rhs) % q == 0).all(axis=1)
    return digits[ok]


def test_zhang_lifted_mode_is_consistent_and_digit_solvable(golden):
    p, m = golden.params.p, golden.params.m
    naive = zhang_system(golden.M, golden.X, golden.GA)
    # Row-scaling each congruence of the flat system gives the true one.
    aug = lift_array(Residues.of(golden.params), naive.aug)
    lifted = ZpmSystem(golden.params, aug[:, :-1], aug[:, -1])
    sol = howell_solve(lifted)
    assert is_solution(lifted, sol.particular)
    digit_solutions = _digit_assignments_solving(lifted, p, m)
    assert len(digit_solutions) > 0
    # and the same digit oracle confirms the flat-modulus system really is empty
    assert len(_digit_assignments_solving(naive, p, m)) == 0


def test_zhang_trivial_instance_is_consistent():
    params = PrimePower(5, 2)
    ident = central_matrix(params, 1)
    naive = zhang_system(ident, ident, ident)
    sol = howell_solve(naive)
    assert is_solution(naive, sol.particular)
    # the expected digit witness: constant coefficient 1 on the first basis matrix
    witness = (1, 0) + (0,) * 6
    assert is_solution(naive, witness)


def test_zhang_coefficients_use_structure_blind_products(golden):
    # The flat-modulus construction computes its products entirely mod p^m;
    # spot-check one coefficient where that differs from the ring product:
    # the (0,1) entry of X*M is 80 = 5 mod 25 structure-blind but reduces to
    # 0 mod 5 in the ring.
    naive = zhang_system(golden.M, golden.X, golden.GA)
    eq_01 = naive.coeffs[1]  # matrix position (0,1), digit k=0 of basis (0,1)
    assert eq_01[2] == 5
    assert (golden.X * golden.M).rows[0][1] == 0


# --- bench ----------------------------------------------------------------------------


def test_bench_attack_records_and_summary():
    rng = random.Random(1)
    records = bench_attack([(2, 2), (3, 2)], reps=3, rng=rng)
    assert len(records) == 6
    assert all(r.verified for r in records)
    assert all(r.solver_ring_ops > 0 for r in records)
    assert all(r.wall_seconds >= 0 for r in records)
    summary = summarize_bench(records)
    assert [(row["p"], row["m"]) for row in summary] == [(2, 2), (3, 2)]
    assert all(row["all_verified"] for row in summary)
    ops = [row["median_solver_ring_ops"] for row in summary]
    assert [row["ops_ratio"] for row in summary] == [None, ops[1] / ops[0]]


def test_bench_op_counts_are_seed_deterministic():
    r1 = bench_attack([(2, 3)], reps=2, rng=random.Random(5))
    r2 = bench_attack([(2, 3)], reps=2, rng=random.Random(5))
    assert [r.solver_ring_ops for r in r1] == [r.solver_ring_ops for r in r2]


def test_attack_system_memory_on_uint32_residues():
    # At p = 2, m = 20 the basis, its lift and the system array are uint32:
    # one 400 x 401 array is 0.61 MiB.  On uint64 the build peaked at
    # 2.63 MiB here.
    pub = run_dhdp_session(PrimePower(2, 20), random.Random(1)).public
    tracemalloc.start()
    try:
        system = build_attack_system(pub.M, pub.X, pub.GA)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.6 * 2**20
    assert system.aug.dtype == np.uint32


def test_attack_system_memory_past_the_int64_single_matmul_bound():
    # 19 (3^19 - 1)^2 >= 2^63, so the basis product runs int64 @ on limbs of
    # its left operand; multiplying every product out first peaked near
    # 38 MiB here.
    params = PrimePower(3, 19)
    rng = random.Random(3)
    m_mat, x, ga = (random_matrix(params, rng) for _ in range(3))
    tracemalloc.start()
    try:
        build_attack_system(m_mat, x, ga)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_attack_memory_on_the_wide_int64_tier():
    # 5^21 > 2^31: every product takes int64 products of left-operand limbs
    # over chunks of about 2^16 entries.  On object arrays
    # build_attack_system peaked at 16.5 MiB here.
    params = PrimePower(5, 21)
    rng = random.Random(3)
    m_mat, x, ga = (random_matrix(params, rng) for _ in range(3))
    weights = [rng.randrange(params.modulus) for _ in range(21 * 21)]
    peaks = []
    for call in (lambda: build_attack_system(m_mat, x, ga),
                 lambda: apply_weights(m_mat, ga, weights)):
        tracemalloc.start()
        try:
            call()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= 12 * 2**20
    assert peaks[1] <= 4 * 2**20
