import itertools
import operator
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from epm.ring import (
    CentralPoly,
    EpmMatrix,
    LiftedMatrix,
    NotAMember,
    NotInImage,
    ParamMismatch,
    as_array,
    basis_array,
    cayley_hamilton_coeffs,
    central_matrix,
    combination_system,
    lift,
    lift_array,
    power_stack,
    random_central_poly,
    random_matrix,
    unlift,
)
from epm.zpmsolve import PrimePower, Residues, howell_solve, is_solution


P52 = PrimePower(5, 2)


# --- membership and validation ----------------------------------------------


def test_validate_accepts_golden_m(golden):
    assert golden.M.rows == ((4, 3), (15, 20))


def test_validate_rejects_subdiagonal_violation():
    with pytest.raises(NotAMember):
        EpmMatrix.validate(P52, [[0, 0], [7, 0]])


def test_validate_reduces_row_wise(golden):
    assert EpmMatrix.validate(P52, [[9, 3], [15, 20]]) == golden.M


def test_validate_rejects_wrong_shape():
    with pytest.raises(NotAMember):
        EpmMatrix.validate(P52, [[1, 2, 3], [4, 5, 6]])


def test_constructor_requires_canonical_entries():
    with pytest.raises(NotAMember):
        EpmMatrix(P52, ((9, 0), (0, 0)))


# --- arithmetic golden values ------------------------------------------------


def test_addition(golden):
    M = golden.M
    zero = EpmMatrix.zero(P52)
    assert M + zero == M
    assert (M + M).rows == ((3, 1), (5, 15))
    assert M + (-M) == zero


def test_multiplication(golden):
    assert (golden.A1 * golden.X * golden.A2) == golden.GA
    assert (golden.M * golden.X).rows == ((0, 3), (0, 15))
    assert EpmMatrix.identity(P52) * golden.M == golden.M
    assert central_matrix(P52, 1) == EpmMatrix.identity(P52)


def test_scalar_action(golden):
    assert golden.M.scale(1) == golden.M
    assert golden.M.scale(0) == EpmMatrix.zero(P52)
    assert (2 * golden.GB).rows == ((0, 4), (10, 6))
    assert golden.GB * 2 == 2 * golden.GB


def test_powers(golden):
    M = golden.M
    assert M**0 == EpmMatrix.identity(P52)
    assert M**1 == M
    assert (M**2).rows == ((1, 2), (10, 20))
    assert M**5 == M * M * M * M * M


def test_param_mismatch():
    other = EpmMatrix.identity(PrimePower(5, 3))
    with pytest.raises(ParamMismatch):
        EpmMatrix.identity(P52) + other
    with pytest.raises(ParamMismatch):
        EpmMatrix.identity(P52) * other


# --- center -------------------------------------------------------------------


def test_central_matrix_examples():
    assert central_matrix(P52, 0) == EpmMatrix.zero(P52)
    assert central_matrix(P52, 1) == EpmMatrix.identity(P52)
    assert central_matrix(P52, 7).rows == ((2, 0), (0, 7))


def test_is_central(golden):
    rng = random.Random(11)
    for z in (0, 1, 7, 24):
        c = central_matrix(P52, z)
        assert c.is_central()
        for _ in range(20):
            assert c.commutes(random_matrix(P52, rng))
    assert not golden.M.is_central()
    assert EpmMatrix.validate(P52, [[1, 0], [0, 6]]).is_central()
    assert not EpmMatrix.validate(P52, [[1, 0], [0, 7]]).is_central()


def test_central_characterisation_matches_commuting_everything():
    # over a tiny ring, compare is_central against literal centrality
    params = PrimePower(2, 2)
    p = params.p
    all_elements = []
    for t11, t12, t21 in itertools.product(range(p), repeat=3):
        for t22 in range(p**2):
            all_elements.append(
                EpmMatrix(params, ((t11, t12), (t21 * p, t22)))
            )
    assert len(all_elements) == 32
    for a in all_elements:
        literally_central = all(a.commutes(b) for b in all_elements)
        assert a.is_central() == literally_central


def test_central_element_wrapper():
    # central_matrix reduces z mod q, and is_central reads it back from the
    # last diagonal entry.
    z = central_matrix(P52, 32)
    assert z == central_matrix(P52, 7)
    assert z.rows == ((2, 0), (0, 7))
    assert z.is_central() and z.rows[-1][-1] == 7
    assert not EpmMatrix.validate(P52, [[1, 0], [0, 7]]).is_central()


def test_psi_is_a_ring_homomorphism():
    rng = random.Random(3)
    for p, m in [(2, 4), (3, 3), (5, 2)]:
        params = PrimePower(p, m)
        q = params.modulus
        for _ in range(60):
            x, y = rng.randrange(q), rng.randrange(q)
            assert central_matrix(params, x) + central_matrix(params, y) == central_matrix(params, x + y)
            assert central_matrix(params, x) * central_matrix(params, y) == central_matrix(params, x * y % q)


# --- commuting, polynomials, power reduction ----------------------------------


def test_commutes(golden):
    assert not golden.M.commutes(golden.X)
    rng = random.Random(5)
    for _ in range(25):
        z = rng.randrange(25)
        assert golden.M.commutes(central_matrix(P52, z))
    f = random_central_poly(P52, rng, 1)
    assert golden.M.commutes(f.evaluate(golden.M))


def test_central_poly_evaluation(golden):
    assert CentralPoly(P52, (7,)).evaluate(golden.M) == central_matrix(P52, 7)
    assert CentralPoly(P52, (0, 1)).evaluate(golden.M) == golden.M
    assert golden.f1.evaluate(golden.M) == golden.A1
    assert golden.f2.evaluate(golden.M) == golden.A2


def test_central_poly_degree_cap():
    with pytest.raises(ValueError):
        CentralPoly(P52, (1, 2, 3))
    with pytest.raises(ValueError):
        random_central_poly(P52, random.Random(0), 2)


def test_masks_are_expressible_over_identity_and_m(golden):
    # A1 must be a combination of I and M since it was built that way
    system = combination_system([EpmMatrix.identity(P52), golden.M], golden.A1)
    coeffs = howell_solve(system, with_kernel=False).particular
    assert CentralPoly(P52, coeffs).evaluate(golden.M) == golden.A1


def test_cayley_hamilton_golden(golden):
    # enumeration oracle over all coefficient pairs mod 25
    valid = {
        (a0, a1)
        for a0 in range(25)
        for a1 in range(25)
        if CentralPoly(P52, (a0, a1)).evaluate(golden.M) == golden.M**2
    }
    assert (15, 4) in valid
    assert (15, 24) in valid
    assert cayley_hamilton_coeffs(golden.M) in valid


def test_cayley_hamilton_trivial_cases():
    params = PrimePower(3, 3)
    coeffs = cayley_hamilton_coeffs(EpmMatrix.identity(params))
    assert sum(coeffs) % params.modulus == 1
    zero = EpmMatrix.zero(params)
    coeffs = cayley_hamilton_coeffs(zero)
    assert CentralPoly(params, coeffs).evaluate(zero) == zero


@pytest.mark.parametrize("p,m", [(2, 4), (3, 3), (5, 2)])
def test_cayley_hamilton_random(p, m):
    params = PrimePower(p, m)
    rng = random.Random(1000 * p + m)
    for _ in range(60):
        a = random_matrix(params, rng)
        coeffs = cayley_hamilton_coeffs(a)
        assert CentralPoly(params, coeffs).evaluate(a) == a**m


# The solver's particular solution for a random_matrix drawn with
# random.Random(100 * p + m), recorded before the powers came from power_stack.
PINNED_CAYLEY_HAMILTON = {
    (2, 8): (32, 96, 60, 0, 3, 0, 2, 0),
    (3, 6): (156, 153, 20, 0, 5, 0),
    (5, 4): (116, 105, 20, 0),
    (2, 20): (
        382976, 27136, 90624, 48064, 20432, 11092, 5198, 1724, 179, 1960,
        148, 120, 121, 4, 30, 12, 5, 0, 0, 0,
    ),
}


@pytest.mark.parametrize("p,m", PINNED_CAYLEY_HAMILTON)
def test_cayley_hamilton_matches_pinned_coefficients(p, m):
    a = random_matrix(PrimePower(p, m), random.Random(100 * p + m))
    coeffs = cayley_hamilton_coeffs(a)
    assert coeffs == PINNED_CAYLEY_HAMILTON[(p, m)]
    assert CentralPoly(a.params, coeffs).evaluate(a) == a**m


def test_polynomials_in_m_commute(golden):
    rng = random.Random(17)
    for _ in range(40):
        f = random_central_poly(P52, rng, 1)
        g = random_central_poly(P52, rng, 1)
        fm, gm = f.evaluate(golden.M), g.evaluate(golden.M)
        assert fm * gm == gm * fm


# --- the row-scaling lift -----------------------------------------------------


def test_lift_golden_values(golden):
    assert lift(golden.GA).rows == ((0, 5), (20, 23))
    assert lift(golden.X).rows == ((0, 20), (15, 4))
    assert lift(EpmMatrix.identity(P52)).rows == ((5, 0), (0, 1))


def test_unlift_golden(golden):
    assert unlift(LiftedMatrix(P52, ((0, 5), (20, 23)))) == golden.GA


def test_lift_roundtrip_and_rejection():
    rng = random.Random(23)
    for p, m in [(2, 4), (3, 3), (5, 2)]:
        params = PrimePower(p, m)
        for _ in range(50):
            a = random_matrix(params, rng)
            assert unlift(lift(a)) == a
    with pytest.raises(NotInImage):
        LiftedMatrix(P52, ((1, 0), (0, 0)))


def test_lift_is_additive_and_scalar_compatible():
    rng = random.Random(31)
    params = PrimePower(3, 3)
    q = params.modulus
    for _ in range(40):
        a, b = random_matrix(params, rng), random_matrix(params, rng)
        r = rng.randrange(q)
        la, lb = lift(a), lift(b)
        assert lift(a + b).rows == tuple(
            tuple((x + y) % q for x, y in zip(ra, rb))
            for ra, rb in zip(la.rows, lb.rows)
        )
        assert lift(a.scale(r)).rows == tuple(
            tuple(r * x % q for x in row) for row in la.rows
        )


def test_lift_is_not_multiplicative(golden):
    # witness: plain mod-25 product of the lifted matrices differs from the
    # lift of the ring product
    a, b = golden.M, golden.X
    q = golden.params.modulus
    la, lb = lift(a).rows, lift(b).rows
    plain = tuple(
        tuple(sum(la[i][k] * lb[k][j] for k in range(2)) % q for j in range(2))
        for i in range(2)
    )
    assert plain != lift(a * b).rows


# --- sampling -----------------------------------------------------------------


def test_random_matrix_is_reproducible_and_valid():
    params = PrimePower(3, 4)
    a = random_matrix(params, random.Random(42))
    b = random_matrix(params, random.Random(42))
    assert a == b
    rng = random.Random(1)
    for _ in range(200):
        random_matrix(params, rng)  # __post_init__ would reject a bad draw


def test_random_matrix_top_left_entry_is_uniform():
    params = PrimePower(2, 3)
    rng = random.Random(2024)
    zeros = sum(random_matrix(params, rng).rows[0][0] == 0 for _ in range(1000))
    assert abs(zeros / 1000 - 0.5) <= 0.05


def test_random_central_poly_reproducible_and_commuting(golden):
    params = PrimePower(3, 3)
    assert random_central_poly(params, random.Random(9), 2) == random_central_poly(
        params, random.Random(9), 2
    )
    rng = random.Random(10)
    m_mat = random_matrix(params, rng)
    for _ in range(1000):
        f = random_central_poly(params, rng, 2)
        assert f.evaluate(m_mat).commutes(m_mat)


# --- ring laws ----------------------------------------------------------------


@st.composite
def ring_elements(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    m = draw(st.integers(1, 5))
    params = PrimePower(p, m)
    seed = draw(st.integers(0, 2**32))
    rng = random.Random(seed)
    return [random_matrix(params, rng) for _ in range(3)]


@settings(max_examples=150, deadline=None)
@given(ring_elements())
def test_ring_laws(triple):
    a, b, c = triple
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c
    one = EpmMatrix.identity(a.params)
    assert one * a == a * one == a


def test_noncommutativity_witness(golden):
    assert golden.M * golden.X != golden.X * golden.M


@settings(max_examples=100, deadline=None)
@given(ring_elements())
def test_closure(triple):
    a, b, _ = triple
    q = a.params.modulus
    for result in (a + b, a * b, a.scale(q - 1)):
        # re-validation from raw entries must succeed bit-identically
        assert EpmMatrix.validate(a.params, result.rows) == result


# --- combination systems -------------------------------------------------------


def test_combination_system_shape(golden):
    basis = [EpmMatrix.identity(P52), golden.M]
    system = combination_system(basis, golden.A1)
    assert system.rows == 4 and system.cols == 2
    sol = howell_solve(system)
    assert is_solution(system, sol.particular)


# --- structure-blind array products ---------------------------------------------


@pytest.mark.parametrize(
    "p,m,dtype",
    [
        (2, 32, np.uint32),  # q = 2^32: the mask is all ones
        (2, 33, np.uint64),
        (2, 63, np.uint64),
        (2, 64, np.uint64),  # q = 2^64: the mask is all ones
        (2, 65, object),
        (3, 16, np.int64),  # 16 * (3^16 - 1)^2 < 2^63: @, then % q
        (3, 17, np.int64),
        (3, 18, np.int64),
        (3, 19, np.int64),  # 19 * (3^19 - 1)^2 >= 2^63: @ on limbs
        (3, 20, np.int64),  # 3^20 > 2^31: float-quotient mulmod
        (3, 31, np.int64),
        (3, 32, object),  # 3^32 > 2^50
        (5, 21, np.int64),
        (5, 22, object),
        (33554393, 2, np.int64),  # the largest prime below 2^25, squared
        (33554467, 2, object),  # the smallest prime above 2^25, squared
        (2**61 - 1, 2, object),
    ],
)
def test_plain_arith_dtype_boundaries_match_ring_arithmetic(p, m, dtype):
    params = PrimePower(p, m)
    q = params.modulus
    res = Residues.of(params)
    assert res.dtype is dtype
    rng = random.Random(p + m)
    a, b = random_matrix(params, rng), random_matrix(params, rng)
    # (q-1) * I times b exercises the largest entries the modulus allows.
    for left in (a, central_matrix(params, -1)):
        plain = res.matmul(as_array(res, left), as_array(res, b))
        assert plain.dtype == dtype
        assert EpmMatrix.validate(params, plain.tolist()) == left * b
        assert lift_array(res, plain).tolist() == [
            list(row) for row in lift(left * b).rows
        ]
    # Ring elements keep their top rows small; a dense block near q makes
    # every partial sum of the contraction as large as it gets.
    near = [[q - 1 - rng.randrange(4) for _ in range(m)] for _ in range(m)]
    dense = res.matmul(np.array(near, dtype), np.array(near, dtype))
    assert dense.tolist() == [
        [sum(x * y for x, y in zip(row, col)) % q for col in zip(*near)]
        for row in near
    ]


def test_plain_powers_reduce_to_ring_powers():
    params = PrimePower(3, 4)
    res = Residues.of(params)
    m_mat = random_matrix(params, random.Random(8))
    powers = power_stack(res, m_mat)
    for k in range(4):
        assert EpmMatrix.validate(params, powers[k].tolist()) == m_mat**k


def test_plain_lift_rejects_an_entry_below_its_floor(golden):
    res = Residues.of(P52)
    basis = basis_array(res, power_stack(res, golden.M), golden.X)
    lift_array(res, basis)
    basis[2, 1] += 1  # position (1, 0): its lift must be divisible by 5
    with pytest.raises(NotInImage, match=r"\(1,0\)"):
        lift_array(res, basis)


# --- ring products at every tier switch, against Python integers -------------


def _ring_product(a_rows, b_rows, mods):
    """Row i of the Python-int product a * b, mod p^(i+1)."""
    cols = list(zip(*b_rows))
    return tuple(
        tuple(sum(map(operator.mul, row, col)) % mods[i] for col in cols)
        for i, row in enumerate(a_rows)
    )


@pytest.mark.parametrize(
    "p,m",
    [
        (2, 1), (2, 32), (2, 33),  # uint32 up to m = 32: row modulus 2^32
        (2, 63), (2, 64), (2, 65),  # uint64 up to m = 64: row modulus 2^64
        (3, 19), (3, 20), (3, 31), (3, 32),  # int64 narrow, wide, then object
        (5, 21), (5, 22),  # the last wide int64 modulus, then object
    ],
)
def test_ring_products_match_python_ints_at_tier_switches(p, m):
    params = PrimePower(p, m)
    mods, q = params.row_moduli, params.modulus
    rng = random.Random(100 * p + m)
    a, b = random_matrix(params, rng), random_matrix(params, rng)
    # The largest member: every entry as large as its row and its floor allow.
    big = EpmMatrix(params, tuple(
        tuple(mods[i] - p ** max(i - j, 0) for j in range(m)) for i in range(m)
    ))
    for left, right in ((a, b), (b, a), (a, big), (big, big)):
        assert (left * right).rows == _ring_product(left.rows, right.rows, mods)
    for r in (q - 1, rng.randrange(q), -rng.randrange(1, q), q + 3):
        expected = tuple(
            tuple(r * v % mods[i] for v in row) for i, row in enumerate(big.rows)
        )
        assert big.scale(r).rows == (r * big).rows == (big * r).rows == expected
    # Full-degree polynomials where the int64 matmul chunks its contraction
    # (m <= 31 here); past that a shorter Python reference chain suffices.
    degree = m - 1 if m <= 32 else 8
    identity = tuple(tuple(int(i == j) for j in range(m)) for i in range(m))
    powers = [identity]
    for _ in range(max(degree, 2)):
        powers.append(_ring_product(powers[-1], a.rows, mods))
    for e in {0, 1, 2, degree}:
        assert (a**e).rows == powers[e]
    poly = random_central_poly(params, rng, degree)
    expected = tuple(
        tuple(sum(c * pw[i][j] for c, pw in zip(poly.coeffs, powers)) % mods[i]
              for j in range(m))
        for i in range(m)
    )
    assert poly.evaluate(a).rows == expected
