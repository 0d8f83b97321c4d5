import random

import pytest
from hypothesis import given, settings, strategies as st

from epm.zpmsolve import (
    BRUTE_FORCE_CAP,
    DimensionMismatch,
    EnumerationCapExceeded,
    InconsistentSystem,
    OpCounter,
    PrimePower,
    SolutionSet,
    ZpmSystem,
    brute_solve,
    howell_solve,
    is_solution,
    valuation,
)

from conftest import spanned_solutions


def test_prime_power_rejects_bad_inputs():
    with pytest.raises(ValueError):
        PrimePower(4, 2)
    with pytest.raises(ValueError):
        PrimePower(1, 2)
    with pytest.raises(ValueError):
        PrimePower(5, 0)


def test_prime_power_supports_large_moduli():
    params = PrimePower(2, 300)
    assert params.modulus == 2**300
    assert valuation(2**299, params) == 299


def test_valuation_examples():
    params = PrimePower(5, 2)
    assert valuation(0, params) == 2
    assert valuation(15, params) == 1
    assert valuation(23, params) == 0


@given(
    p=st.sampled_from([2, 3, 5]),
    m=st.integers(1, 5),
    x=st.integers(0, 10**6),
    y=st.integers(0, 10**6),
)
def test_valuation_is_multiplicative_up_to_cap(p, m, x, y):
    params = PrimePower(p, m)
    q = params.modulus
    x %= q
    y %= q
    assert valuation(x * y % q, params) == min(
        valuation(x, params) + valuation(y, params), m
    )


def test_brute_solve_hand_cases():
    params = PrimePower(2, 2)
    assert brute_solve(ZpmSystem(params, ((2,),), (2,))) == [(1,), (3,)]
    assert brute_solve(ZpmSystem(params, ((2,),), (1,))) == []


def test_brute_solve_is_lexicographic():
    params = PrimePower(2, 2)
    sols = brute_solve(ZpmSystem(params, ((0, 2),), (2,)))
    assert sols == sorted(sols)


def test_brute_solve_cap():
    params = PrimePower(2, 13)
    system = ZpmSystem(params, ((1, 1),), (0,))
    with pytest.raises(EnumerationCapExceeded):
        brute_solve(system, cap=2**20)
    assert BRUTE_FORCE_CAP == 1 << 24


def test_is_solution_dimension_mismatch():
    params = PrimePower(2, 2)
    system = ZpmSystem(params, ((1, 1),), (0,))
    with pytest.raises(DimensionMismatch):
        is_solution(system, (1,))


def test_identity_system_has_empty_kernel():
    params = PrimePower(3, 2)
    rhs = (7, 2, 8)
    system = ZpmSystem(
        params, ((1, 0, 0), (0, 1, 0), (0, 0, 1)), rhs
    )
    sol = howell_solve(system)
    assert sol.particular == rhs
    assert sol.kernel == ()


def test_golden_lifted_system(golden):
    system = ZpmSystem(
        golden.params, tuple(zip(*golden.system_cols)), golden.system_rhs
    )
    assert is_solution(system, golden.lam)
    assert not is_solution(system, (0, 0, 0, 0))
    sol = howell_solve(system)
    assert is_solution(system, sol.particular)
    everything = spanned_solutions(sol)
    assert golden.lam in everything
    assert everything == set(brute_solve(system))


def test_howell_solve_is_deterministic(golden):
    system = ZpmSystem(
        golden.params, tuple(zip(*golden.system_cols)), golden.system_rhs
    )
    assert howell_solve(system) == howell_solve(system)
    assert howell_solve(system) == howell_solve(system, backend="python")


def _random_system(rng, p_choices=(2, 3), max_m=3, max_dim=3):
    p = rng.choice(p_choices)
    m = rng.randrange(1, max_m + 1)
    params = PrimePower(p, m)
    q = params.modulus
    r = rng.randrange(1, max_dim + 1)
    c = rng.randrange(1, max_dim + 1)
    coeffs = tuple(tuple(rng.randrange(q) for _ in range(c)) for _ in range(r))
    rhs = tuple(rng.randrange(q) for _ in range(r))
    return ZpmSystem(params, coeffs, rhs)


def test_solver_matches_brute_force_oracle():
    rng = random.Random(20240521)
    inconsistent = 0
    for _ in range(250):
        system = _random_system(rng)
        oracle = set(brute_solve(system))
        try:
            sol = howell_solve(system)
        except InconsistentSystem:
            inconsistent += 1
            assert not oracle
            continue
        assert spanned_solutions(sol) == oracle
        for gen in sol.kernel:
            homogeneous = ZpmSystem(system.params, system.coeffs, (0,) * system.rows)
            assert is_solution(homogeneous, gen)
    assert inconsistent > 10  # the sample must actually exercise both paths


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_solver_oracle_property(data):
    p = data.draw(st.sampled_from([2, 3]))
    m = data.draw(st.integers(1, 3))
    params = PrimePower(p, m)
    q = params.modulus
    r = data.draw(st.integers(1, 3))
    c = data.draw(st.integers(1, 3))
    coeffs = tuple(
        tuple(data.draw(st.integers(0, q - 1)) for _ in range(c)) for _ in range(r)
    )
    rhs = tuple(data.draw(st.integers(0, q - 1)) for _ in range(r))
    system = ZpmSystem(params, coeffs, rhs)
    oracle = set(brute_solve(system))
    try:
        sol = howell_solve(system)
    except InconsistentSystem:
        assert not oracle
        return
    assert spanned_solutions(sol) == oracle


# Moduli on each side of a dtype switch: uint64 up to 2^64, int64 up to 2^31
# (3^19 < 2^31 < 3^20), Python ints beyond; m = 1 and a 61-bit prime.
BOUNDARY_MODULI = [(2, 63), (2, 64), (2, 65), (3, 19), (3, 20), (2, 1), (3, 1),
                   (2**61 - 1, 1)]


def _boundary_system(rng, params, rows=4, cols=4):
    """Entries r * p^v for random r and v, one all-zero column, and one
    column of multiples of p^(m-1), which puts a pivot at valuation m - 1
    (the column is zero when m = 1)."""
    p, m, q = params.p, params.m, params.modulus
    coeffs = [
        [rng.randrange(q) * p ** rng.randrange(m + 1) % q for _ in range(cols)]
        for _ in range(rows)
    ]
    zero, torsion = rng.sample(range(cols), 2)
    for row in coeffs:
        row[zero] = 0
        row[torsion] = rng.randrange(q) * p ** max(m - 1, 1) % q
    if rng.random() < 0.5:
        x = [rng.randrange(q) for _ in range(cols)]
        rhs = [sum(a * b for a, b in zip(row, x)) for row in coeffs]
    else:
        rhs = [rng.randrange(q) * p ** rng.randrange(m + 1) for _ in range(rows)]
    return ZpmSystem(params, tuple(map(tuple, coeffs)), tuple(rhs))


def test_backends_agree():
    rng = random.Random(99)
    systems = [_random_system(rng, p_choices=(2, 3, 5)) for _ in range(120)]
    systems += [
        _boundary_system(rng, PrimePower(p, m))
        for p, m in BOUNDARY_MODULI
        for _ in range(6)
    ]
    for system in systems:
        outcomes = []
        # None takes the machine-integer dtype wherever the modulus allows.
        for backend in ("python", None):
            try:
                outcomes.append(howell_solve(system, backend=backend))
            except InconsistentSystem:
                outcomes.append("inconsistent")
        assert outcomes[0] == outcomes[1]
        if outcomes[0] != "inconsistent":
            sol = outcomes[0]
            homogeneous = ZpmSystem(system.params, system.coeffs, (0,) * system.rows)
            assert is_solution(system, sol.particular)
            assert all(is_solution(homogeneous, gen) for gen in sol.kernel)


def test_backends_count_identically():
    rng = random.Random(7)
    system = _random_system(rng, max_m=3, max_dim=3)
    c1, c2 = OpCounter(), OpCounter()
    try:
        howell_solve(system, backend="python", counter=c1)
    except InconsistentSystem:
        pass
    try:
        howell_solve(system, backend="numpy", counter=c2)
    except InconsistentSystem:
        pass
    assert c1.muls == c2.muls > 0


def test_big_modulus_falls_back_to_python_backend():
    params = PrimePower(2, 80)
    # rhs built from the known solution x = (3, 2^30)
    system = ZpmSystem(
        params, ((2**70, 1), (0, 2**10)), (3 * 2**70 + 2**30, 2**40)
    )
    sol = howell_solve(system)
    assert is_solution(system, sol.particular)
    assert is_solution(system, (3, 2**30))
    with pytest.raises(ValueError):
        howell_solve(system, backend="numpy")  # uint64 cannot hold 2^80


def test_random_solution_stays_a_solution(golden):
    system = ZpmSystem(
        golden.params, tuple(zip(*golden.system_cols)), golden.system_rhs
    )
    sol = howell_solve(system)
    rng = random.Random(4)
    for _ in range(25):
        assert is_solution(system, sol.random_solution(rng))


def test_solution_set_roundtrip_fields(golden):
    sol = SolutionSet(golden.params, (1, 2), ((0, 5),))
    assert sol.particular == (1, 2)
    assert sol.kernel == ((0, 5),)
