import bisect
import functools
import hashlib
import itertools
import math
import random
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from epm.zpmsolve import (
    BRUTE_FORCE_CAP,
    DimensionMismatch,
    EnumerationCapExceeded,
    InconsistentSystem,
    OpCounter,
    PrimePower,
    Residues,
    SolutionSet,
    ZpmSystem,
    brute_solve,
    howell_solve,
    is_solution,
    valuation,
)

import epm.zpmsolve as zpmsolve
from epm.attack import build_attack_system
from epm.protocols import commutation_system, run_dhdp_session

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
    with pytest.raises(ValueError, match="unknown backend"):
        howell_solve(system, backend="numpy")


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
            _check_one_column_solves(system, None)
            continue
        assert spanned_solutions(sol) == oracle
        _check_one_column_solves(system, sol)
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
        _check_one_column_solves(system, None)
        return
    assert spanned_solutions(sol) == oracle
    _check_one_column_solves(system, sol)


def _check_one_column_solves(system, sol):
    """with_kernel=False, on the default dtype and on Python ints, returns
    column 0 of the kernel solve ``sol``, a solution; with sol None it
    raises as the kernel solve did."""
    for backend in (None, "python"):
        if sol is None:
            with pytest.raises(InconsistentSystem):
                howell_solve(system, with_kernel=False, backend=backend)
            continue
        particular = howell_solve(system, with_kernel=False, backend=backend).particular
        assert particular == sol.particular
        assert is_solution(system, particular)


# Moduli on each side of a dtype switch: uint32 up to 2^32, uint64 up to
# 2^64, int64 with plain products up to 2^31 (3^19 < 2^31 < 3^20) and with
# the float-quotient mulmod below 2^50 (3^31, 5^21 and 33554393^2 below;
# 3^32, 5^22 and 33554467^2 above), Python ints beyond; m = 1 and a 61-bit
# prime.
BOUNDARY_MODULI = [(2, 32), (2, 33), (2, 63), (2, 64), (2, 65), (3, 19), (3, 20),
                   (2, 1), (3, 1), (2**61 - 1, 1), (3, 31), (3, 32), (5, 21),
                   (5, 22), (33554393, 2), (33554467, 2)]


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


def _fixed_systems():
    rng = random.Random(99)
    systems = [_random_system(rng, p_choices=(2, 3, 5)) for _ in range(120)]
    return systems + [
        _boundary_system(rng, PrimePower(p, m))
        for p, m in BOUNDARY_MODULI
        for _ in range(6)
    ]


@st.composite
def valuation_systems(draw):
    """Up to 5 x 5 systems with entries r * p^v, over small moduli and every
    boundary modulus; half of them are consistent by construction."""
    p, m = draw(st.sampled_from([(2, 3), (3, 2), (5, 2)] + BOUNDARY_MODULI))
    q = p**m
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    entry = st.builds(
        lambda r, v: r * p**v % q, st.integers(0, q - 1), st.integers(0, m)
    )
    coeffs = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                           min_size=rows, max_size=rows))
    if draw(st.booleans()):
        x = draw(st.lists(st.integers(0, q - 1), min_size=cols, max_size=cols))
        rhs = [sum(a * b for a, b in zip(row, x)) for row in coeffs]
    else:
        rhs = draw(st.lists(entry, min_size=rows, max_size=rows))
    return ZpmSystem(PrimePower(p, m), tuple(map(tuple, coeffs)), tuple(rhs))


def _solve_outcome(system, backend):
    counter = OpCounter()
    try:
        sol = howell_solve(system, backend=backend, counter=counter)
    except InconsistentSystem:
        sol = "inconsistent"
    return sol, counter.muls


def _with_examples(systems):
    def decorate(test):
        for system in systems:
            test = example(system=system)(test)
        return test

    return decorate


@settings(max_examples=150, deadline=None)
@given(system=valuation_systems())
@_with_examples(_fixed_systems())
def test_backends_agree(system):
    # Default dtype against Python ints: the same solution set or the same
    # InconsistentSystem, and the same OpCounter total, which is zero only
    # when there is nothing to eliminate.
    default = _solve_outcome(system, None)
    assert default == _solve_outcome(system, "python")
    assert (default[1] > 0) == any(map(any, system.coeffs))
    sol = default[0]
    if sol != "inconsistent":
        homogeneous = ZpmSystem(system.params, system.coeffs, (0,) * system.rows)
        assert is_solution(system, sol.particular)
        assert all(is_solution(homogeneous, gen) for gen in sol.kernel)


# Moduli of the int64 tier past 2^31, up to the largest prime below 2^25
# squared, whose products need the float-quotient mulmod.
WIDE_MODULI = [(3, 20), (5, 14), (3, 31), (5, 21), (33554393, 2)]


@st.composite
def wide_operands(draw):
    """A modulus of WIDE_MODULI, an n x (k+1) block and a k x l block with
    0, 1 and q - 1 forced often among their entries."""
    p, m = draw(st.sampled_from(WIDE_MODULI))
    q = p**m
    entry = st.one_of(st.sampled_from([0, 1, q - 1]), st.integers(0, q - 1))
    n, k, l = (draw(st.integers(1, 6)) for _ in range(3))
    a = draw(st.lists(st.lists(entry, min_size=k + 1, max_size=k + 1),
                      min_size=n, max_size=n))
    b = draw(st.lists(st.lists(entry, min_size=l, max_size=l),
                      min_size=k, max_size=k))
    return PrimePower(p, m), a, b


def _python_matmul(a, b, q):
    return [[sum(x * y for x, y in zip(row, col)) % q for col in zip(*b)]
            for row in a]


@settings(max_examples=200, deadline=None)
@given(case=wide_operands())
def test_wide_mul_and_matmul_match_python_ints(case):
    params, a, b = case
    q = params.modulus
    res = Residues.of(params)
    assert res.dtype is np.int64
    block, right = np.array(a, np.int64), np.array(b, np.int64)
    # Column slices of the block are non-contiguous views, as in _echelon.
    col, left = block[:, :1], block[:, 1:]
    assert res.mul(col, right[0]).tolist() == [
        [row[0] * y % q for y in b[0]] for row in a
    ]
    assert res.mul(left, left).tolist() == [
        [x * x % q for x in row[1:]] for row in a
    ]
    want = _python_matmul([row[1:] for row in a], b, q)
    assert res.matmul(left, right).tolist() == want
    stacked = res.matmul(np.stack([left, left[::-1]]), right)
    assert stacked.tolist() == [want, want[::-1]]


@pytest.mark.parametrize("p,m", WIDE_MODULI)
def test_wide_mul_and_matmul_match_python_ints_in_bulk(p, m):
    # Near q = 2^50 about one random product in a hundred has a float
    # quotient one too high or one too low, so the 90000 products below
    # exercise both corrections.  The 300 x 300 contraction splits into row
    # and contraction chunks of about 2^16 products.  A sum of 20000
    # products of q - 1 overflows int64 there unless it is cut, and from
    # 3^31 on no left-operand limb is narrow enough, so the product takes
    # the float64 GEMMs of Residues._gemms.  k = 0, which back-substitution
    # reaches at the last column, gives zeros.
    q = p**m
    res = Residues.of(PrimePower(p, m))
    rng = random.Random(q)
    a = [[q - 1 - rng.randrange(3) for _ in range(300)] for _ in range(3)]
    b = [[rng.choice([1, q - 1, rng.randrange(q)]) for _ in range(300)]
         for _ in range(300)]
    block = np.array(b, np.int64)
    assert res.mul(block, block.T).tolist() == [
        [x * y % q for x, y in zip(row, col)] for row, col in zip(b, zip(*b))
    ]
    got = res.matmul(np.array(a, np.int64), block)
    assert got.tolist() == _python_matmul(a, b, q)
    long = res.matmul(np.full((1, 20000), q - 1), np.ones((20000, 1), np.int64))
    assert long.tolist() == [[20000 * (q - 1) % q]]
    empty = res.matmul(np.zeros((2, 0), np.int64), np.zeros((0, 3), np.int64))
    assert empty.tolist() == [[0] * 3] * 2


# --- division-free residue arithmetic ------------------------------------------

# Every dtype tier, plus 3^26, whose left-operand limb count grows from 3 to
# 6 below k = 20000 without reaching count 0, where products take _gemms.
ARITH_MODULI = sorted(set(BOUNDARY_MODULI + WIDE_MODULI + [(3, 26)]))


def _special_residues(params):
    """0, 1, q - 1, a value whose low bits are all set, and powers of p,
    whose products p^i * p^(m-i) are q itself."""
    p, m, q = params.p, params.m, params.modulus
    return sorted({0, 1, q - 1, 2 ** ((q - 1).bit_length() - 1) - 1}
                  | {p**i for i in range(m)})


@pytest.mark.parametrize("p,m", ARITH_MODULI)
def test_mul_sub_and_submul_match_python_ints(p, m):
    # mul returns reduced residues on every tier.  submul defers the
    # reduction on every tier: it subtracts the products unreduced (the
    # wide tier, where (q - 1)^2 reaches 2^63, subtracts mul's) and returns
    # a nonzero bound, and one reduction then gives Python ints' values.
    # The operands are the special residues against each other and random
    # residues, broadcast as the solver's rank-1 update is.
    params = PrimePower(p, m)
    q, special = params.modulus, _special_residues(params)
    rng = random.Random(q)
    column = special + [rng.randrange(q) for _ in range(40)]
    row = special[::-1] + [rng.choice([q - 1, rng.randrange(q)]) for _ in range(40)]
    start = [[rng.randrange(q) for _ in row] for _ in column]
    products = [[x * y % q for y in row] for x in column]
    res = Residues.of(params)
    a, b = np.array(column, res.dtype)[:, None], np.array(row, res.dtype)
    assert res.mul(a, b).tolist() == products
    assert res.mul(b, q - 1).tolist() == [y * (q - 1) % q for y in row]
    dst = np.array(start, res.dtype)
    low = res.submul(dst, a, b, q)
    whole = res.dtype is not np.int64 or (q - 1) ** 2 < 2**63
    assert low == ((q - 1) ** 2 if whole else q - 1) > 0
    # uint32 and uint64 hold the difference mod 2^32 or 2^64; int64 and
    # object hold it exactly, in [-low, q).
    word = {np.uint32: 2**32, np.uint64: 2**64}.get(res.dtype)
    taken = [[x * y if whole else x * y % q for y in row] for x in column]
    unreduced = [[d - t if word is None else (d - t) % word for d, t in zip(*pair)]
                 for pair in zip(start, taken)]
    assert dst.tolist() == unreduced
    res.reduce(dst)
    assert dst.tolist() == [[(d - x) % q for d, x in zip(*pair)]
                            for pair in zip(start, products)]


@pytest.mark.parametrize("p,m", [(2, 32), (2, 64), (5, 22)])
def test_unbounded_tiers_defer_a_whole_panel(p, m, monkeypatch):
    # uint32, uint64 and object need no mid-panel reduction: 64 rank-1
    # updates, multipliers as large as a unit pivot's, go through one
    # panel unreduced, and one reduction gives Python ints' values.  A
    # 72-column solve, whose first panel takes 64 unit pivots the same way,
    # is checked against the system in Python ints.
    params = PrimePower(p, m)
    q = params.modulus
    res = Residues.of(params)
    assert res.dtype == {32: np.uint32, 64: np.uint64}.get(m, object)
    rng = random.Random(q)
    panel = [[rng.randrange(q) for _ in range(40)] for _ in range(8)]
    dst, low = np.array(panel, res.dtype), 0
    for _ in range(64):
        column = [rng.choice([q - 1, rng.randrange(q)]) for _ in panel]
        row = [rng.choice([q - 1, rng.randrange(q)]) for _ in panel[0]]
        a, b = np.array(column, res.dtype)[:, None], np.array(row, res.dtype)
        before, low = low, res.submul(dst, a, b, q, low)
        assert low == before + (q - 1) ** 2  # never reduced mid-panel
        panel = [[d - x * y for d, y in zip(line, row)] for line, x in zip(panel, column)]
    res.reduce(dst)
    assert dst.tolist() == [[d % q for d in line] for line in panel]

    calls, submul = [], Residues.submul

    def record(res, dst, a, b, top, low=0):
        calls.append(low)
        return submul(res, dst, a, b, top, low)

    monkeypatch.setattr(Residues, "submul", record)
    system = _shaped_system(9, params, "unit")
    sol = howell_solve(system)
    assert calls[:65].count(0) == 2 and calls[64] == 0  # one run of 64 updates
    assert is_solution(system, sol.particular)
    coeffs = [[int(e) for e in line] for line in system.coeffs]
    for gen in sol.kernel:
        assert all(sum(e * g for e, g in zip(line, gen)) % q == 0 for line in coeffs)


def _left_limb_switches(res, k_max):
    """Each k < k_max after which Residues.left_limbs(k) takes another count,
    the switch to count 0, where products take _gemms, among them."""
    counts = [res.left_limbs(k)[0] for k in range(1, k_max + 1)]
    return [k for k in range(1, k_max) if counts[k - 1] != counts[k]]


@pytest.mark.parametrize("p,m", ARITH_MODULI)
def test_matmul_matches_python_ints_across_limb_switches(p, m):
    # a @ b mod q at k = 0, 1, 2, 64, 20000, on both sides of the bound
    # k (q - 1)^2 < 2^63 of one int64 @ over the whole value and on both
    # sides of every switch of the left-operand limb count, the switch to
    # count 0 included.  In each k x 1 case row 0 repeats a special residue
    # and the column repeats q - 1: with q - 1, one @ of one term more than
    # that bound overflows the int64 sum, and with the value whose low bits
    # are all set, so does a limb one bit wider than left_limbs allows.
    # k = 20000 takes Residues._gemms at 3^31, 5^21 and 33554393^2, and the
    # 600-row block spans several row chunks.
    params = PrimePower(p, m)
    q, special = params.modulus, _special_residues(params)
    special_ones = 2 ** ((q - 1).bit_length() - 1) - 1
    rng = random.Random(q)
    res = Residues.of(params)
    ks = {0, 1, 2, 64, 20000}
    if res.dtype is np.int64:
        one_matmul = (2**63 - 1) // (q - 1) ** 2  # from the bound, not the code
        switches = [one_matmul, *_left_limb_switches(res, 20000)]
        ks.update(k + d for k in switches for d in (0, 1) if k + d <= 20000)
    cases = [([[value] * k, [rng.choice(special + [rng.randrange(q)])
                             for _ in range(k)]], [[q - 1]] * k)
             for k in sorted(ks) for value in (q - 1, special_ones)]
    pick = lambda: rng.choice(special) if rng.random() < 0.5 else rng.randrange(q)
    cases.append(([[pick() for _ in range(64)] for _ in range(600)],
                  [[pick() for _ in range(3)] for _ in range(64)]))
    for a, b in cases:
        rows, k, cols = len(a), len(b), len(b[0]) if b else 1
        left = np.array(a, object).reshape(rows, k)
        right = np.array(b, object).reshape(k, cols)
        want = (left @ right % q).tolist()
        got = res.matmul(left.astype(res.dtype), right.astype(res.dtype))
        assert got.tolist() == want, (k, res.dtype, res.left_limbs(max(k, 1)))


@pytest.mark.parametrize("p,m", [(5, 21), (3, 31), (33554393, 2)])
def test_no_left_limb_width_fits_twenty_thousand_terms(p, m, monkeypatch):
    # So the k = 20000 cases of the tests above take Residues._gemms: one
    # call of it, and no nested matmul.
    res = Residues.of(PrimePower(p, m))
    q = res.params.modulus
    assert res.left_limbs(20000) == (0, 0)
    calls = _record_kernels(monkeypatch, "matmul", "_gemms")
    got = res.matmul(np.full((1, 20000), q - 1), np.full((20000, 1), q - 1))
    assert got.tolist() == [[20000 * (q - 1) ** 2 % q]]
    assert calls == ["matmul", "_gemms"]


def _record_kernels(monkeypatch, *names):
    """The names of the Residues methods among ``names`` called, in order."""
    calls = []

    def wrap(name, method):
        def record(*args, **kwargs):
            calls.append(name)
            return method(*args, **kwargs)
        return record

    for name in names:
        monkeypatch.setattr(Residues, name, wrap(name, getattr(Residues, name)))
    return calls


# One GEMM at 2^20 and 3^6, stacked at 3^16 and 5^14, limbs of both operands
# at 2^40, 3^26 and 5^21.
@pytest.mark.parametrize("p,m", [(2, 20), (2, 40), (3, 6), (3, 16), (5, 14),
                                 (3, 26), (5, 21)])
def test_matmul_size_gate_alone_picks_the_gemms(p, m, monkeypatch):
    # A (64 x 32) @ (32 x 64) product passes the size gate of
    # Residues.matmul and reaches _gemms on every machine-integer dtype,
    # whether or not a stacked plan or one GEMM fits; a one-row product
    # does not, and int64 takes left limbs there when it needs more than one.
    res = Residues.of(PrimePower(p, m))
    q = res.params.modulus
    rng = random.Random(q)
    calls = _record_kernels(monkeypatch, "_gemms", "_limb_matmul")
    for rows, want_calls in ((64, ["_gemms"]), (1, [])):
        a = np.array([[rng.choice((q - 1, rng.randrange(q))) for _ in range(32)]
                      for _ in range(rows)], object)
        b = np.array([[rng.choice((q - 1, rng.randrange(q))) for _ in range(64)]
                      for _ in range(32)], object)
        calls.clear()
        got = res.matmul(a.astype(res.dtype), b.astype(res.dtype))
        assert got.tolist() == (a @ b % q).tolist()
        if rows == 1 and res.dtype is np.int64 and res.left_limbs(32)[0] > 1:
            want_calls = ["_limb_matmul"]
        assert calls == want_calls, (rows, res.dtype)


# Moduli whose multi-row products can take the float64 GEMMs of
# Residues.matmul: k_max is 8192 at 2^20, 2 at 2^26, 0 at 2^32, 4 at 3^16 and
# about 1.7e10 at 3^6.  It is 0 on uint64 at 2^40 and 2^64 and on the int64
# moduli past the stacked range, 3^26, 3^31, 5^21 and 33554393^2, whose k = 1
# shapes then straddle both size conditions.
FLOAT_MODULI = [(2, 20), (2, 26), (2, 32), (3, 6), (3, 16), (2, 40), (2, 64),
                (3, 26), (3, 31), (5, 21), (33554393, 2)]


@pytest.mark.parametrize("p,m", FLOAT_MODULI)
def test_matmul_float_gemms_match_python_ints(p, m):
    # a @ b mod q against Python ints on both sides of each condition of the
    # float64 path: k = k_max and k_max + 1, 4096 output entries and 512
    # multiply-adds per output row; also with a 3-D left operand, k = 0 and
    # several 32-row chunks, with 0, 1 and q - 1 forced often.  In the k_max
    # cases each row of a is one of three rows and each column of b one of
    # three columns, so Python ints take nine dot products; row 0 and
    # column 0 are q - 1 throughout, so entry (0, 0) reaches the exactness
    # bound, and one GEMM of one term more rounds its float64 sum at 2^26
    # and 2^32 (at 2^20 the contraction runs in chunks of 256 terms).
    params = PrimePower(p, m)
    q = params.modulus
    k_max = (2**53 - 1) // (q - 1) ** 2  # from the bound, not res.k_max
    rng = random.Random(q)
    pick = lambda: rng.choice((0, 1, q - 1)) if rng.random() < 0.5 else rng.randrange(q)
    res = Residues.of(params)
    k = min(max(k_max, 1), 20)
    w = -(-512 // k)  # the narrowest b with 512 multiply-adds per row
    rows = -(-4096 // w)  # the fewest rows with 4096 output entries
    shapes = [((rows,), k, w), ((rows - 1,), k, w), ((rows + 40,), k, w - 1),
              ((3, 50), k, max(w, 64)), ((64,), 0, 64)]
    for lead, k, w in shapes:
        a = np.array([pick() for _ in range(math.prod(lead) * k)], object)
        b = np.array([[pick() for _ in range(w)] for _ in range(k)], object)
        a = a.reshape(lead + (k,))
        got = res.matmul(a.astype(res.dtype), b.reshape(k, w).astype(res.dtype))
        assert got.tolist() == (a @ b.reshape(k, w) % q).tolist(), (lead, k, w)
    for k in (k_max, k_max + 1):
        if k > 2**14:
            continue
        w = max(64, -(-512 // max(k, 1)))
        left = np.array([[q - 1] * k] + [[pick() for _ in range(k)]
                                         for _ in range(2)], object)
        right = np.array([[q - 1] * k] + [[pick() for _ in range(k)]
                                          for _ in range(2)], object).T.reshape(k, 3)
        want = (left @ right % q)[np.arange(64)[:, None] % 3, np.arange(w) % 3]
        a = left[np.arange(64) % 3].astype(res.dtype)
        b = right[:, np.arange(w) % 3].astype(res.dtype)
        assert res.matmul(a, b).tolist() == want.tolist(), (k, res.dtype)


# Odd p on each residue tier: int64, wide int64 and object.
ODD_MODULI = [(3, 1), (3, 2), (5, 3), (3, 19), (3, 20), (5, 14), (3, 31),
              (5, 21), (33554393, 2), (3, 32), (5, 22), (2**61 - 1, 1)]


@st.composite
def pivot_columns(draw):
    """A column of entries r * p^v with v at least a drawn floor (0, m - 1,
    or m for an all-zero column), sometimes cut down to one nonzero entry."""
    p, m = draw(st.sampled_from(ODD_MODULI))
    q = p**m
    floor = draw(st.sampled_from([0, 0, m - 1, m]))
    entry = st.builds(lambda r, v: r * p**v % q,
                      st.integers(1, q - 1), st.integers(floor, m))
    column = draw(st.lists(entry, min_size=1, max_size=40))
    if draw(st.booleans()):
        keep = draw(st.integers(0, len(column) - 1))
        column = [x if i == keep else 0 for i, x in enumerate(column)]
    return PrimePower(p, m), column


def _reference_pivot(column, params):
    vals = [valuation(x, params) for x in column]
    v = min(vals)
    return None if v == params.m else (v, vals.index(v))


@settings(max_examples=300, deadline=None)
@given(case=pivot_columns())
@example(case=(PrimePower(3, 20), [0, 0, 0]))
@example(case=(PrimePower(5, 21), [0, 0, 7 * 5**20, 0]))
@example(case=(PrimePower(3, 31), [0, 3**30, 2 * 3**30, 3**30]))
@example(case=(PrimePower(5, 14), [25, 50, 5, 10, 1, 2]))
@example(case=(PrimePower(3, 32), [9, 3**31, 3, 6, 0]))
def test_find_pivot_for_odd_p_matches_valuation(case):
    # (valuation, index) of the earliest entry of least valuation, or None
    # for a zero column, on the dtype Residues.of picks and on object.
    params, column = case
    want = _reference_pivot(column, params)
    for dtype in {Residues.of(params).dtype, object}:
        assert zpmsolve._find_pivot(np.array(column, dtype), params.p) == want


# --- the panel-blocked solve and its float64 GEMM -----------------------------

# Moduli for systems wider than one panel: uint32 working arrays (p = 2 up to
# m = 32), uint64, both int64 tiers, one and several limbs per GEMM operand,
# and the float-quotient mulmod up to 2^50.
PANEL_MODULI = [(2, 20), (2, 32), (2, 64), (3, 19), (3, 20), (5, 14), (3, 31),
                (5, 21), (33554393, 2)]


def _wide_system(seed, p, m, rows, cols):
    """Entries r * p^v with v skewed towards 0, cols // 8 columns that are
    p-power multiples of earlier ones, one zero column, and half the time an
    rhs that is consistent by construction; returns the system and whether
    its rhs is."""
    rng = random.Random(seed)
    q = p**m

    def entry():
        v = min(rng.randrange(m + 1), rng.randrange(m + 1))
        return rng.randrange(q) * p**v % q

    columns = [[entry() for _ in range(rows)] for _ in range(cols)]
    for j in rng.sample(range(1, cols), cols // 8):
        src, k = rng.randrange(j), rng.randrange(m)
        columns[j] = [a * p**k % q for a in columns[src]]
    columns[rng.randrange(cols)] = [0] * rows
    coeffs = [list(row) for row in zip(*columns)]
    consistent = rng.random() < 0.5
    if consistent:
        x = [rng.randrange(q) for _ in range(cols)]
        rhs = [sum(a * b for a, b in zip(row, x)) for row in coeffs]
    else:
        rhs = [entry() for _ in range(rows)]
    return ZpmSystem(PrimePower(p, m), coeffs, rhs), consistent


def _full_outcome(system, backend):
    counter = OpCounter()
    try:
        sol = howell_solve(system, backend=backend, counter=counter)
    except InconsistentSystem as exc:
        return (str(exc), exc.column), counter.muls
    return sol.x.tolist(), counter.muls


@settings(max_examples=20, deadline=None)
@given(
    modulus=st.sampled_from(PANEL_MODULI),
    cols=st.integers(33, 100),
    extra=st.integers(-16, 4),
    seed=st.integers(0, 2**32),
)
@example(modulus=(2, 64), cols=100, extra=0, seed=1)
@example(modulus=(3, 31), cols=100, extra=-30, seed=2)
@example(modulus=(5, 21), cols=65, extra=4, seed=3)
@example(modulus=(33554393, 2), cols=97, extra=-2, seed=4)
@example(modulus=(2, 32), cols=80, extra=-10, seed=5)
@example(modulus=(3, 20), cols=129, extra=1, seed=6)
def test_wide_systems_agree_across_backends(modulus, cols, extra, seed):
    # Systems over more than one panel: the default dtype, whose trailing
    # updates run on float64 GEMMs, against Python ints, for the block x,
    # the InconsistentSystem message and column, and the OpCounter total.
    system, consistent = _wide_system(seed, *modulus, cols + extra, cols)
    default = _full_outcome(system, None)
    assert default == _full_outcome(system, "python")
    x = default[0]
    assert isinstance(x, list) or not consistent, default[0]
    if isinstance(x, list):
        q = system.params.modulus
        coeffs = np.array(system.coeffs, object)
        residual = coeffs @ np.array(x, object)
        residual[:, 0] -= np.array(system.rhs, object)
        assert not (residual % q).any()


@pytest.mark.parametrize("panel", [1, 2])
def test_brute_force_oracle_holds_over_narrow_panels(panel, monkeypatch):
    # Panels of one or two columns put the oracle's systems of up to three
    # columns over several panels, so the pivot-row catch-up, the trailing
    # product and the blocked back-substitution are all checked against
    # brute_solve; each system is also solved with with_kernel=False, whose
    # one-column back-substitution then spans several blocks.
    monkeypatch.setattr(zpmsolve, "PANEL", panel)
    test_solver_matches_brute_force_oracle()
    test_solver_oracle_property()


def _limb_switches(res, k_max):
    """Each contraction length k <= k_max after which Residues.limbs(k)
    takes one more limb."""
    counts = [res.limbs(k)[0] for k in (1, k_max)]
    return [
        bisect.bisect_right(range(1, k_max + 1), count, key=lambda k: res.limbs(k)[0])
        for count in range(counts[0], counts[1])
    ]


@pytest.mark.parametrize(
    "p,m", sorted(set(BOUNDARY_MODULI + WIDE_MODULI + [(2, 20), (2, 32), (3, 16)]))
)
def test_submatmul_matches_python_ints(p, m):
    # dst -= a @ b mod q against Python ints at k = 0, 1, 64, the longest
    # contraction one GEMM takes, and on both sides of the single-GEMM bound
    # and of every switch in the limb count.  In each k x 1 case row 0 of a
    # and the column of b repeat one value whose low bits are all set, q - 1
    # or 2^(bits - 1) - 1, so that entry 0 reaches the exactness bound: a
    # limb one bit wider, or one GEMM past the bound, rounds a float64 sum.
    # (2, 20) and (3, 16) switch from one GEMM to limbs at k = 8193 and 5;
    # (2, 32) is the widest modulus of the uint32 tier.
    # A one-row dst, at k = 0, 1, 64 and k_max, runs through matmul.  Every
    # case runs again with a bound, the largest entry of a @ b: a one-row
    # product is one int64 @ where that is below 2^63, and a multi-row one
    # is one GEMM where it is below 2^53.  Two rows whose first entry of
    # a @ b is 2^53 - 1, 2^53 or 2^53 + 1, with k past the one-GEMM
    # length, take one GEMM, limbs and limbs: 2^53 + 1 is no float64, so
    # one GEMM there would be wrong.  The last shape spans several row and
    # contraction chunks.
    _check_submatmul(Residues.of(PrimePower(p, m)))


def _check_submatmul(res):
    q = res.params.modulus
    rng = random.Random(q)
    full = [q - 1, 2 ** ((q - 1).bit_length() - 1) - 1]
    k_max = 2**14  # one contraction chunk when b has one column
    ks = {0, 1, 64, k_max}
    if res.dtype is not object:
        one_gemm = (2**53 - 1) // (q - 1) ** 2  # from the bound, not res.limbs
        switches = [one_gemm, *_limb_switches(res, k_max)]
        ks.update(k + d for k in switches for d in (0, 1) if k + d <= k_max)
    cases = []
    for k, value in itertools.product(sorted(ks), full):
        top = [value] * k, [rng.choice(full + [rng.randrange(q)]) for _ in range(k)]
        cases.append((top, [[value]] * k))
    for k, value in itertools.product((0, 1, 64, k_max), full):
        cases.append(([[value] * k], [[value, rng.randrange(q)] for _ in range(k)]))
    for target in (2**53 - 1, 2**53, 2**53 + 1):
        # target = (q - 1) * sum(terms) + rest, every term at most q - 1.
        whole, rest = divmod(target, q - 1)
        k = whole // (q - 1) + 2
        if res.dtype is object or k > k_max:
            continue
        terms = [q - 1] * (k - 2) + [whole % (q - 1)]
        assert k > res.k_max
        assert res.limbs(k, target) == ((1, 0) if target < 2**53 else res.limbs(k))
        cases.append(([[q - 1] * (k - 1) + [rest], [1] * k], [[t] for t in terms + [1]]))
    rows, k, cols = 66, 130, 260
    pick = lambda: rng.choice(full) if rng.random() < 0.8 else rng.randrange(q)
    cases.append(([[pick() for _ in range(k)] for _ in range(rows)],
                  [[pick() for _ in range(cols)] for _ in range(k)]))
    for a, b in cases:
        rows, k, cols = len(a), len(b), len(b[0]) if b else 1
        dst = [[rng.randrange(q) for _ in range(cols)] for _ in range(rows)]
        product = np.array(a, object).reshape(rows, k) @ np.array(b, object).reshape(k, cols)
        want = (np.array(dst, object) - product) % q
        for bound in (None, max(product.flat)):
            got = np.array(dst, res.dtype)
            res.submatmul(got, np.array(a, res.dtype).reshape(rows, k),
                          np.array(b, res.dtype).reshape(k, cols), bound)
            assert got.tolist() == want.tolist(), (rows, k, cols, res.limbs(k), bound)


# --- the stacked kernel and the int64 reductions -------------------------------


def _plan_switches(res, k_max=4096):
    """Each k < k_max after which Residues.plan(k) takes another (count, bits)
    or none."""
    plans = [res.plan(k) for k in range(1, k_max + 1)]
    return [k for k in range(1, k_max) if plans[k - 1] != plans[k]]


@pytest.mark.parametrize("p,m", sorted(set(BOUNDARY_MODULI + WIDE_MODULI)))
def test_stacked_products_match_python_ints(p, m):
    # dst -= a @ b mod q through the operands of Residues.stacked, one
    # float64 product in Residues.submatmul as the solver takes it, against
    # Python ints: one-row and 40-row, at k = 1, 14 and 64 and on both sides
    # of every switch of Residues.plan(k).  Row 0 of a repeats q - 1, whose
    # copies q - 2^(bits i) are all near q, and column 0 of b repeats
    # 2^(t - 1) - 1, t the bit length of q - 1, whose limbs are all ones
    # but the top one: entry (0, 0) comes near the plan's bound, and with a
    # limb one bit wider it passes 2^53 and rounds.  Residues.matmul takes
    # the same kernel for a large product.  Only int64 past one GEMM has
    # plans, and none from 5^21 on.
    res = Residues.of(PrimePower(p, m))
    q = res.params.modulus
    ks = sorted(k for k in {1, 14, 64} | {k + d for k in _plan_switches(res) for d in (0, 1)}
                if res.plan(k))
    assert bool(ks) == ((p, m) in [(3, 19), (3, 20), (5, 14)])
    rng = random.Random(q)
    ones = 2 ** ((q - 1).bit_length() - 1) - 1
    pick = lambda: rng.choice([0, 1, q - 1, ones, rng.randrange(q)])
    for k, rows in itertools.product(ks, (1, 40)):
        count, bits = res.plan(k)
        a = [[q - 1] * k] + [[pick() for _ in range(k)] for _ in range(rows - 1)]
        b = [[ones, pick()] for _ in range(k)]
        dst = [[rng.randrange(q) for _ in range(2)] for _ in range(rows)]
        want = (np.array(dst, object) - np.array(a, object) @ np.array(b, object)) % q
        copies, limbs = res.stacked(np.array(a, np.int64), np.array(b, np.int64), count, bits)
        left = np.concatenate(copies, axis=1).astype(float)
        right = limbs.reshape(-1, 2).astype(float)
        got = np.array(dst, np.int64)
        res.submatmul(got, left, right, count * k * ((1 << bits) - 1) * (q - 1))
        assert got.tolist() == want.tolist(), (k, rows, count, bits)
    for k in ks[:4]:
        a = np.array([pick() for _ in range(2 * 32 * k)], object).reshape(2, 32, k)
        b = np.array([[pick() for _ in range(64)] for _ in range(k)], object)
        assert res.matmul(a.astype(np.int64), b.astype(np.int64)).tolist() == (a @ b % q).tolist()


@pytest.mark.parametrize("p,m", [(3, 19), (3, 20), (5, 14), (3, 31), (33554393, 2)])
def test_int64_reduce_matches_remainder_across_the_divide_switch(p, m):
    # int64 reduces large arrays as a - (a // q) q and small ones with
    # np.remainder; both must agree with np.remainder on [-2^63 + q, 2^63),
    # where the solver's unreduced panels lie, on both sides of 512
    # entries, on contiguous arrays and on strided views.
    res = Residues.of(PrimePower(p, m))
    q = res.params.modulus
    rng = random.Random(q)
    edges = [-(2**63) + q, -(2**63) + q + 1, -q - 1, -q, -1, 0, 1, q - 1, q, 2**63 - 1]
    draw = lambda: rng.choice(edges) if rng.random() < 0.3 else rng.randrange(-(2**63) + q, 2**63)
    for size in (1, 511, 512, 513, 5000):
        a = np.array([draw() for _ in range(2 * size)], np.int64)
        for view in (a[:size].copy(), a[::2]):
            want = np.remainder(view, q)
            assert res.reduce(view) is view
            assert view.tolist() == want.tolist(), size


@pytest.mark.parametrize("p,m", [(3, 20), (5, 14), (3, 31)])
def test_exact_division_test_matches_remainders(p, m):
    # Residues.indivisible tests p^v | x on int64 by one product with the
    # inverse of p^v mod 2^64: for every v <= m it must agree with x % p^v
    # on multiples of p^v, their neighbours, 0, q - 1 and random residues,
    # read through a column slice as the solver reads its pivot rows.
    res = Residues.of(PrimePower(p, m))
    q = res.params.modulus
    rng = random.Random(q)
    divisors = tuple(p**v for v in range(m + 1))
    columns = []
    for d in divisors:
        near = [d * rng.randrange(q // d) for _ in range(6)] + [q - d, d, 0]
        columns.append([x % q for y in near for x in (y - 1, y, y + 1)]
                       + [q - 1, 1] + [rng.randrange(q) for _ in range(20)])
    a = np.array([[0, *row] for row in zip(*columns)], np.int64)[:, 1:]
    want = a % np.array(divisors, np.int64) != 0
    assert res.indivisible(a, divisors).tolist() == want.tolist()
    assert want.any() and not want.all()


@pytest.mark.parametrize("p,m", [(5, 14), (5, 21)])
def test_wide_attack_solve_takes_one_product_per_panel_step(p, m, monkeypatch):
    # At 5^14 every pivot-row catch-up and trailing update of the seed-1
    # attack solve runs on the stacked float64 operands with a bound below
    # 2^53: a catch-up is one @, a trailing update one GEMM per 32-row chunk
    # of one limb pair, and none reaches the limb code of Residues.matmul.
    # No plan exists at 5^21, where they keep their int64 operands, and the
    # catch-ups whose bound passes 2^63 take the limbs of matmul.
    calls, callers, pairs = [], [], []
    submatmul, matmul, combine = Residues.submatmul, Residues.matmul, Residues._combine

    def record(res, dst, a, b, bound=None):
        if res.dtype is np.int64 and sys._getframe(1).f_code.co_name == "_echelon":
            calls.append((len(dst) > 1, a.dtype.name, b.dtype.name, bound))
        submatmul(res, dst, a, b, bound)

    def record_matmul(res, a, b):
        if res.dtype is np.int64:
            callers.append(sys._getframe(1).f_code.co_name)
        return matmul(res, a, b)

    def record_combine(res, left, right, bits):
        frame = sys._getframe(1)
        while frame and frame.f_code.co_name != "howell_solve":
            if frame.f_code.co_name == "_echelon":
                pairs.append(len(left))
            frame = frame.f_back
        return combine(res, left, right, bits)

    system = _session_systems(p, m)[1]
    monkeypatch.setattr(Residues, "submatmul", record)
    monkeypatch.setattr(Residues, "matmul", record_matmul)
    monkeypatch.setattr(Residues, "_combine", record_combine)
    res = Residues.of(system.params)
    assert howell_solve(system, with_kernel=False).x.tolist() == \
        howell_solve(system, with_kernel=False, backend="python").x.tolist()
    assert {multi for multi, *_ in calls} == {False, True}
    dtypes = {(a, b) for _, a, b, _ in calls}
    if m == 14:
        assert (res.plan(m), res.plan(zpmsolve.PANEL)) == ((3, 15), (3, 12))
        assert dtypes == {("float64", "float64")}
        assert max(bound for *_, bound in calls) < 2**53
        assert set(pairs) == {1} and "submatmul" not in callers
    else:
        assert res.plan(1) is None and dtypes == {("int64", "int64")}
        assert max(bound for multi, *_, bound in calls if not multi) >= 2**63
        assert "submatmul" in callers and max(pairs) > 1


# --- valuation-bounded int64 products ------------------------------------------

# Both int64 tiers: q just below and just above 2^31, the benchmark's 5^14,
# and the wide tier's end below 2^50.
INT64_MODULI = [(3, 19), (3, 20), (5, 14), (3, 31), (5, 21), (33554393, 2)]


def _shaped_system(seed, params, shape, consistent=True, rows=80, cols=72):
    """A system wider than one panel.  "unit": uniform residues, so nearly
    every pivot is a unit.  "torsion": column j holds multiples of p^f_j
    for a random 1 <= f_j < m, so every pivot has valuation at least 1 and
    most feed back a completion row.  "deficient": the product of a rows x
    6 and a 6 x cols block, so rank is at most 6 and the kernel is wide.  A
    consistent rhs is coeffs times a random x."""
    rng = random.Random(seed)
    p, m, q = params.p, params.m, params.modulus
    block = lambda r, c: np.array([[rng.randrange(q) for _ in range(c)]
                                   for _ in range(r)], object)
    if shape == "torsion":
        floors = np.array([p ** rng.randint(1, max(m - 1, 1)) for _ in range(cols)], object)
        coeffs = block(rows, cols) * floors % q
    elif shape == "deficient":
        coeffs = block(rows, 6) @ block(6, cols) % q
    else:
        coeffs = block(rows, cols)
    rhs = coeffs @ block(cols, 1)[:, 0] % q if consistent else block(rows, 1)[:, 0]
    return ZpmSystem(params, coeffs, rhs)


def _echelon_outcome(system, backend):
    """The pivot rows, the (column, valuation) pivots and the OpCounter
    total of the elimination, or its InconsistentSystem message."""
    counter = OpCounter()
    try:
        prows, pivots = zpmsolve._echelon(system, Residues.of(system.params, backend),
                                          counter)
    except InconsistentSystem as exc:
        return str(exc), counter.muls
    return (prows.tolist(), pivots), counter.muls


def _record_submul(monkeypatch):
    """Record (top, low passed, low returned) of every int64 Residues.submul
    call."""
    calls, submul = [], Residues.submul

    def record(res, dst, a, b, top, low=0):
        out = submul(res, dst, a, b, top, low)
        if res.dtype is np.int64:
            calls.append((top, low, out))
        return out

    monkeypatch.setattr(Residues, "submul", record)
    return calls


@pytest.mark.parametrize("shape", ["unit", "torsion", "deficient"])
@pytest.mark.parametrize("p,m", INT64_MODULI)
def test_deferred_panel_reductions_match_python_ints(p, m, shape):
    # int64 panels take their rank-1 updates unreduced and reduce only the
    # pivot column, the pivot row's panel part and the rhs when they are
    # read, and the panel block when its bound would reach 2^63.  The pivot
    # rows, the pivots, x or the InconsistentSystem, and the OpCounter
    # totals are those of Python ints, with a consistent rhs and without.
    for consistent in (True, False):
        system = _shaped_system(p * m, PrimePower(p, m), shape, consistent)
        default = _echelon_outcome(system, None)
        assert default == _echelon_outcome(system, "python")
        assert isinstance(default[0], tuple) == consistent
        assert _full_outcome(system, None) == _full_outcome(system, "python")


def test_unit_pivots_at_three_to_the_nineteen_reduce_mid_panel(monkeypatch):
    """Forces the mid-panel reduction: a unit pivot at q = 3^19 subtracts
    products up to (q - 1)^2, about 1.35e18, so six updates fit below 2^63
    and Residues.submul reduces the panel block before every seventh."""
    params = PrimePower(3, 19)
    q = params.modulus
    calls = _record_submul(monkeypatch)
    system = _shaped_system(5, params, "unit", rows=70, cols=70)
    assert _echelon_outcome(system, None) == _echelon_outcome(system, "python")
    assert (2**63 - 1) // (q - 1) ** 2 == 6
    # The bound after each update, in steps of (q - 1)^2: back to one step
    # after every sixth.
    steps = [out // (q - 1) ** 2 for top, _, out in calls if top == q]
    assert steps[:14] == [1, 2, 3, 4, 5, 6] * 2 + [1, 2]


@pytest.mark.parametrize("p,m", [(5, 21), (3, 31), (33554393, 2)])
def test_unit_pivots_near_two_to_the_fifty_take_reduced_products(p, m, monkeypatch):
    """Forces the wide tier's mul branch: a unit pivot's products with q
    near 2^50 reach (q - 1)^2 >= 2^63, so Residues.submul subtracts the
    reduced Residues.mul products instead, and the panel's bound grows by
    q - 1 per update."""
    params = PrimePower(p, m)
    q = params.modulus
    calls = _record_submul(monkeypatch)
    system = _shaped_system(7, params, "unit", rows=70, cols=70)
    assert _echelon_outcome(system, None) == _echelon_outcome(system, "python")
    assert (q - 1) ** 2 >= 2**63
    assert [out - low for top, low, out in calls if top == q][:3] == [q - 1] * 3


@pytest.mark.parametrize("p,m", WIDE_MODULI)
def test_bounded_back_substitution_matches_python_ints(p, m, monkeypatch):
    # A kernel row's product is one int64 @ while the rows of x it reads,
    # below 2 at a free column and below 2 p^(m-v) at a pivot of valuation
    # v, bound it below 2^63.  Torsion-only blocks (v >= 1) take it where
    # the valuations are high; a block holding a unit pivot (v = 0) falls
    # back above it.  At 5^21 and 3^31, (q - 1) 2 p^(m-v) passes 2^63 for
    # small v even without a unit pivot.  x must match Python ints.
    params = PrimePower(p, m)
    q = params.modulus
    bounds, submatmul = [], Residues.submatmul

    def record(res, dst, a, b, bound=None):
        caller = sys._getframe(1).f_code.co_name
        if res.dtype is np.int64 and bound is not None and caller == "howell_solve":
            bounds.append(bound)
        submatmul(res, dst, a, b, bound)

    monkeypatch.setattr(Residues, "submatmul", record)
    for shape in ("unit", "torsion"):
        bounds.clear()
        # Fewer rows than columns leave free columns, so x has kernel columns.
        system = _shaped_system(p + m, params, shape, rows=60)
        pivots = _echelon_outcome(system, None)[0][1]
        assert (min(v for _, v in pivots) == 0) == (shape == "unit")
        assert _full_outcome(system, None) == _full_outcome(system, "python")
        assert min(bounds) < 2**63 <= max(bounds), shape
        if shape == "torsion" and q > 2**46:
            assert any((q - 1) * (2 * p ** (m - v) - 1) >= 2**63 for _, v in pivots)


def _column_by_column(prows, pivots, params):
    """x recomputed in Python ints, one column at a time: the particular
    solution from the rhs, then a generator seeded 1 at each free column
    and one seeded p^(m-v) at each torsion pivot, each back-substituted on
    its own over the nonzero entries solved so far."""
    p, m, q = params.p, params.m, params.modulus
    c = len(prows[0]) - 1
    pivot_cols = {col for col, _ in pivots}
    seeds = [(None, 0)] + [(f, 1) for f in range(c) if f not in pivot_cols]
    seeds += [(col, p ** (m - v)) for col, v in pivots if v > 0]
    columns = []
    for j, (seed_col, value) in enumerate(seeds):
        x = {seed_col: value} if j else {}
        for row, (col, v) in zip(reversed(prows[: len(pivots)]), reversed(pivots)):
            d = ((0 if j else row[c]) - sum(row[i] * xi for i, xi in x.items() if i > col)) % q
            assert d % p**v == 0
            if d:
                x[col] = x.get(col, 0) + d // p**v
        columns.append([x.get(i, 0) for i in range(c)])
    return [list(row) for row in zip(*columns)], seeds


@pytest.mark.parametrize("p,m,seed", [(2, 20, None), (5, 14, None), (3, 20, None),
                                      (2, 8, 3), (3, 6, 4), (5, 14, 5), (3, 20, 6),
                                      (2, 32, 7)])
def test_back_substitution_matches_a_column_by_column_oracle(p, m, seed, monkeypatch):
    # Every column of x, on the default dtype and on Python ints, against
    # its own Python-int back-substitution: the seed-1 kernel systems of
    # the benchmark moduli, and torsion-heavy systems with free columns.
    # The solver back-substitutes the particular column, the free
    # generators and the live torsion generators only; it must skip
    # exactly the torsion generators whose column is their seed alone.
    if seed is None:
        system = _session_systems(p, m)[0]
    else:
        system = _shaped_system(seed, PrimePower(p, m), "torsion", rows=60)
    params = system.params
    prows, pivots = zpmsolve._echelon(system, Residues.of(params), OpCounter())
    want, seeds = _column_by_column(prows.tolist(), pivots, params)
    seed_only = sum(all(row[j] == (value if i == col else 0) for i, row in enumerate(want))
                    for j, (col, value) in enumerate(seeds) if value not in (0, 1))
    widths, submatmul = set(), Residues.submatmul

    def record(res, dst, a, b, bound=None):
        if sys._getframe(1).f_code.co_name == "howell_solve":
            widths.add(b.shape[1])
        submatmul(res, dst, a, b, bound)

    monkeypatch.setattr(Residues, "submatmul", record)
    for backend in (None, "python"):
        widths.clear()
        assert howell_solve(system, backend=backend).x.tolist() == want
        assert widths == {len(seeds) - seed_only}
    assert 0 < seed_only < sum(v > 0 for _, v in pivots)


@pytest.mark.parametrize("p,m", [(2, 20), (3, 16), (5, 14), (5, 21), (3, 20), (2, 32)])
def test_session_solves_stay_inside_the_memory_budget(p, m):
    # Each solve holds the candidates, the pivot rows and x, each at most as
    # large as the system array; every other temporary must fit in 1 MiB.
    for system, with_kernel in zip(_session_systems(p, m), (True, False)):
        tracemalloc.start()
        try:
            howell_solve(system, with_kernel=with_kernel)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * system.aug.nbytes + 2**20


def test_backends_count_identically():
    rng = random.Random(7)
    system = _random_system(rng, max_m=3, max_dim=3)
    python_muls = _solve_outcome(system, "python")[1]
    default_muls = _solve_outcome(system, None)[1]
    assert python_muls == default_muls > 0


def test_big_modulus_falls_back_to_python_backend():
    params = PrimePower(2, 80)
    # rhs built from the known solution x = (3, 2^30)
    system = ZpmSystem(
        params, ((2**70, 1), (0, 2**10)), (3 * 2**70 + 2**30, 2**40)
    )
    sol = howell_solve(system)
    assert is_solution(system, sol.particular)
    assert is_solution(system, (3, 2**30))


def test_random_solution_stays_a_solution(golden):
    system = ZpmSystem(
        golden.params, tuple(zip(*golden.system_cols)), golden.system_rhs
    )
    sol = howell_solve(system)
    rng = random.Random(4)
    for _ in range(25):
        assert is_solution(system, sol.random_solution(rng))


def test_random_solution_matches_python_ints_in_the_dtype_of_x():
    # particular + sum of weight * generator mod q, with the weights drawn
    # as random_solution draws them, on a uint32 x (the solver's at p = 2,
    # m <= 32) and on Python ints; the uint32 sample makes no 64-bit copy
    # of x, which a 400 x 401 block at m = 20 would take 1.3 MB for.
    params = PrimePower(2, 20)
    q = params.modulus
    rng = random.Random(5)
    rows = [[rng.choice((0, 1, q - 1, rng.randrange(q))) for _ in range(401)]
            for _ in range(400)]
    draws = random.Random(6)
    weights = [1] + [draws.randrange(q) for _ in range(400)]
    want = tuple(sum(v * w for v, w in zip(row, weights)) % q for row in rows)
    for dtype in (np.uint32, object):
        x = np.array(rows, dtype)
        sol = SolutionSet(params, x)
        tracemalloc.start()
        try:
            got = sol.random_solution(random.Random(6))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == want
        if dtype is np.uint32:
            assert peak < x.nbytes // 4


def test_solution_set_roundtrip_fields(golden):
    x = np.array([[1, 0], [2, 5]], Residues.of(golden.params).dtype)
    sol = SolutionSet(golden.params, x)
    assert sol.particular == (1, 2)
    assert sol.kernel == ((0, 5),)


# --- the array-backed system and its two constructors -------------------------


@pytest.mark.parametrize("p,m", BOUNDARY_MODULI)
def test_array_and_nested_constructors_agree(p, m):
    params = PrimePower(p, m)
    system = _boundary_system(random.Random(p + m), params, rows=5, cols=4)
    nested = [list(row) for row in system.coeffs], list(system.rhs)
    dtype = Residues.of(params).dtype
    from_lists = ZpmSystem(params, *nested)
    arrays = ZpmSystem(params, *(np.array(part, dtype) for part in nested))
    assert arrays.aug.dtype == dtype
    assert arrays.coeffs == from_lists.coeffs == system.coeffs
    assert arrays.rhs == from_lists.rhs == system.rhs
    assert arrays == from_lists
    assert (arrays.rows, arrays.cols) == (from_lists.rows, from_lists.cols) == (5, 4)
    for backend in (None, "python"):
        assert _solve_outcome(arrays, backend) == _solve_outcome(from_lists, backend)


@pytest.mark.parametrize("p,m", [(2, 5), (2, 64), (3, 4), (3, 20), (5, 22)])
def test_constructors_reduce_every_integer_exactly(p, m):
    params = PrimePower(p, m)
    q = params.modulus
    raw = [[-1, q, q + 5, 2**64 + 7], [-q - 2, 3 * q - 1, 2**70 + 1, 0]]
    rhs = [-(2**65), q - 1]
    expected = (
        tuple(tuple(v % q for v in row) for row in raw), tuple(v % q for v in rhs)
    )
    from_lists = ZpmSystem(params, raw, rhs)
    from_objects = ZpmSystem(params, np.array(raw, object), np.array(rhs, object))
    small = [[v % 2**40 - 2**39 for v in row] for row in raw]
    from_int64 = ZpmSystem(params, np.array(small, np.int64), np.array(rhs, object))
    for system in (from_lists, from_objects):
        assert (system.coeffs, system.rhs) == expected
    assert from_int64.coeffs == tuple(tuple(v % q for v in row) for row in small)
    assert from_int64.rhs == expected[1]


@pytest.mark.parametrize("as_array", [False, True])
def test_constructors_reject_malformed_shapes(as_array):
    params = PrimePower(3, 2)

    def build(coeffs, rhs):
        if as_array:
            coeffs, rhs = np.array(coeffs, object), np.array(rhs, object)
        return ZpmSystem(params, coeffs, rhs)

    with pytest.raises(ValueError, match="at least one row and one column"):
        build([], [])
    with pytest.raises(ValueError, match="at least one row and one column"):
        build([[], []], [0, 0])
    with pytest.raises(ValueError, match="ragged"):
        build([[1, 2], [3]], [0, 0])
    with pytest.raises(ValueError, match="rhs length"):
        build([[1, 2], [3, 4]], [0])
    with pytest.raises(ValueError, match="rhs length"):
        build([[1, 2], [3, 4]], [0, 1, 2])


def test_stored_arrays_are_read_only():
    params = PrimePower(2, 6)
    coeffs = np.arange(6, dtype=np.uint64).reshape(2, 3)
    system = ZpmSystem(params, coeffs, np.zeros(2, np.uint64))
    coeffs[0, 0] = 9  # the caller's array is copied, not kept
    assert system.coeffs[0][0] == 0
    with pytest.raises(ValueError):
        system.aug[0, 0] = 1
    sol = howell_solve(system)
    with pytest.raises(ValueError):
        sol.x[0, 0] = 1


def test_residues_of_is_memoised():
    params = PrimePower(3, 20)
    assert Residues.of(params) is Residues.of(PrimePower(3, 20))
    assert Residues.of(params, "python") is Residues.of(params, "python")
    assert Residues.of(params).dtype is np.int64
    assert Residues.of(params, "python").dtype is object


def test_inconsistent_zero_row_has_no_column():
    # x = 7 and 5x = 1 mod 8 contradict each other: 5 * 7 = 35 = 3 mod 8.
    system = ZpmSystem(PrimePower(2, 3), ((1,), (5,)), (7, 1))
    with pytest.raises(InconsistentSystem) as info:
        howell_solve(system)
    assert str(info.value) == "contradictory zero row"
    assert info.value.column is None


def test_inconsistent_back_substitution_names_its_pivot_column(monkeypatch):
    # Completion rows make this site unreachable for a real echelon form, so
    # hand back-substitution a pivot 2 * x1 = 1 mod 4 with no preimage.  With
    # the kernel x has two columns; without it, one, solved in Python ints.
    import epm.zpmsolve as zpmsolve

    params = PrimePower(2, 2)
    prows = np.array([[0, 2, 1]], np.uint64)
    monkeypatch.setattr(zpmsolve, "_echelon", lambda *_: (prows, [(1, 1)]))
    system = ZpmSystem(params, ((0, 2),), (1,))
    for with_kernel in (True, False):
        with pytest.raises(InconsistentSystem) as info:
            howell_solve(system, with_kernel=with_kernel)
        assert str(info.value) == "no preimage for pivot column 1"
        assert info.value.column == 1


# --- workload-scale pins -------------------------------------------------------


@functools.cache
def _session_systems(p, m):
    """The commutation and attack systems of the seed-1 session at (p, m)."""
    pub = run_dhdp_session(PrimePower(p, m), random.Random(1)).public
    return commutation_system(pub.M), build_attack_system(pub.M, pub.X, pub.GA)


# SHA-256 of repr(x.tolist()) and the OpCounter total, for the commutation
# solve and then the attack solve (with_kernel=False), recorded before the
# solver was panel-blocked.
SOLVE_PINS = {
    (2, 20): (
        ("a95802bd4833c2f138ef863ba60dd8e62f10ebf2fd3131943d04b7a050dc0be5", 60282846),
        ("1473245d6ec4a82a1576e03172012fd3706dcbc1fcef60d625e858399ab9eb46", 20764828),
    ),
    (5, 14): (
        ("974191a263d4de9b2ab188318b1a2258fb765c5d662fad2bb9fedcbd9f380ad2", 6776828),
        ("9826f49e142b06f0a20a0b0cda4ea7874b45bf497e7d782958ed5d2f23761b0a", 3131438),
    ),
    (3, 16): (
        ("2fe246175f0117ebf896502ad893ad57adaec451f9d29460ec5499f5b068f83b", 15425703),
        ("cd9853651a89701a62d1ae116d80733852e21da5e96ce436c85212631b8fbbfd", 6832043),
    ),
    (3, 6): (
        ("0591a5306802922a7f6dba4a28ced515c01268481220718a053708b20ac8db73", 42812),
        ("0e23851ea0b7c6c44c5f26cc9d92b44e5172b87e88e57e1dc002e463005b9332", 18017),
    ),
    # The wide int64 tier near its ends, q just above 2^31 and just below
    # 2^50, recorded before its arithmetic dropped integer division.
    (3, 20): (
        ("733a7f54578ca1058c3b2f3170e1f0f68532f472f1fba6d524941086d35c80d0", 59205761),
        ("68b612004a4dcb438cf28665ee0200426e947a6d080e21ca8618f08b22becdd6", 25719915),
    ),
    (5, 21): (
        ("53d9c554957956ab5d72401802895554741dbd8c4d668f5fff967ebdd56f6825", 77294645),
        ("bff19f4718487290d651df059c563fe672f93e82fc5f81d7b00133cad63dba50", 35812946),
    ),
    # Some int64 products here need four left-operand limbs, which took a
    # per-term mulmod loop until it was dropped; recorded before that.
    (3, 26): (
        ("c3f21a6cf391cc17022eb4c4a146e668451e9de11fdc8d3b4f9cea6deee31f14", 288938376),
        ("cba96f65ede176e67b4b9abd86e5c0a760a8b5f00fc1fc17bcee76bd7e45ba19", 127853359),
    ),
    # The widest uint32 modulus and the wide tier's end for p = 3, whose
    # multi-row GEMMs took three 16-bit-limb GEMMs and q-sized limbs;
    # recorded before the valuation bounds picked their kernel.
    (2, 32): (
        ("bb4d66a01e512ea31b571f16f73364546f578965403fac2e1a347fbe868b0e08", 1030184840),
        ("057d2d8dd7b29f192d8196a9109242eecdd2c3006d600d5acc13f893cba24059", 337671465),
    ),
    (3, 31): (
        ("de067b616c14e60f5eb339d43d6546fdaf0b363c9b9ed598c0290d5c745c2ca2", 814883230),
        ("daae1d5c71d513affac4e67bcaba97ddf3a457a7123d21ea287c137451d75e88", 356078450),
    ),
}


@pytest.mark.parametrize("p,m", SOLVE_PINS)
def test_session_solves_match_pinned_digests(p, m):
    kernel_system, attack_system = _session_systems(p, m)
    got = []
    for system, with_kernel in ((kernel_system, True), (attack_system, False)):
        counter = OpCounter()
        sol = howell_solve(system, with_kernel=with_kernel, counter=counter)
        got.append((hashlib.sha256(repr(sol.x.tolist()).encode()).hexdigest(),
                    counter.muls))
    assert tuple(got) == SOLVE_PINS[p, m]
