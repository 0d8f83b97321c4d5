"""Recovering the exchanged secrets from public transcripts alone.

The masked public value GA = A1*X*A2 is, by the power-reduction bound, a
scalar combination of the m^2 products M^i * X * M^j with exponents below m.
Row-scaling-lifting that matrix equation gives m^2 ordinary congruences mod
p^m in the m^2 unknown weights; any solution applied to the same products
with GB in the middle reproduces the shared secret, because Bob's masks
commute past every power of M.  Total cost is one dense solve:
O((m^2)^3) multiplications mod p^m.

:func:`zhang_system` builds, for demonstration, the defective flat-modulus
variant of the same idea (digit unknowns for the central coefficients, every
congruence taken mod p^m with no row rescaling).  That system is genuinely
inconsistent on honest inputs - the bundled 2x2 demo instance exhibits it -
which is exactly why the lift matters.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from statistics import median
from typing import Sequence

from .protocols import EgdpCiphertext, EgdpPublicKey, run_dhdp_session
from .ring import EpmMatrix, ParamMismatch, combination_system, _same_params
from .zpmsolve import OpCounter, PrimePower, ZpmSystem, howell_solve

__all__ = [
    "AttackSystem",
    "sandwich_basis",
    "build_attack_system",
    "apply_weights",
    "attack_dhdp",
    "attack_egdp",
    "zhang_system",
    "BenchRecord",
    "bench_attack",
    "summarize_bench",
]


@dataclass(frozen=True)
class AttackSystem:
    """The lifted m^2 x m^2 system for one transcript.

    Column k of ``sys`` holds the flattened lift of ``basis[k]``; the basis
    is ordered row-major over the exponent pairs (i, j).
    """

    params: PrimePower
    sys: ZpmSystem
    basis: tuple[EpmMatrix, ...]


def sandwich_basis(m_mat: EpmMatrix, center: EpmMatrix) -> tuple[EpmMatrix, ...]:
    """All m^2 products M^i * center * M^j, row-major over (i, j).

    Built incrementally from cached powers: O(m^2) ring multiplications.
    """
    _same_params(m_mat, center)
    m = m_mat.params.m
    powers = [EpmMatrix.identity(m_mat.params)]
    for _ in range(m - 1):
        powers.append(powers[-1] * m_mat)
    out = []
    for i in range(m):
        cur = powers[i] * center if i else center
        out.append(cur)
        for _ in range(m - 1):
            cur = cur * m_mat
            out.append(cur)
    return tuple(out)


def build_attack_system(
    m_mat: EpmMatrix, x: EpmMatrix, ga: EpmMatrix
) -> AttackSystem:
    """Lifted weight system for GA over the products M^i * X * M^j.

    Guaranteed consistent whenever GA was honestly produced by masking X
    with central-coefficient polynomials in M.
    """
    _same_params(m_mat, x)
    _same_params(m_mat, ga)
    basis = sandwich_basis(m_mat, x)
    return AttackSystem(m_mat.params, combination_system(basis, ga), basis)


def apply_weights(
    m_mat: EpmMatrix, center: EpmMatrix, weights: Sequence[int]
) -> EpmMatrix:
    """sum of weights[i*m+j] * M^i * center * M^j."""
    basis = sandwich_basis(m_mat, center)
    if len(weights) != len(basis):
        raise ParamMismatch(f"expected {len(basis)} weights, got {len(weights)}")
    acc = EpmMatrix.zero(m_mat.params)
    for w, b in zip(weights, basis):
        if w:
            acc = acc + b.scale(w)
    return acc


def attack_dhdp(
    m_mat: EpmMatrix,
    x: EpmMatrix,
    ga: EpmMatrix,
    gb: EpmMatrix,
    *,
    counter: OpCounter | None = None,
) -> EpmMatrix:
    """Recover the shared secret of an honest session from public data only.

    Any solution of the weight system works: Bob's masks commute past powers
    of M, so every solution applied to GB collapses to the same secret.
    Raises InconsistentSystem when GA is not of the honest masked form.
    """
    asys = build_attack_system(m_mat, x, ga)
    sol = howell_solve(asys.sys, with_kernel=False, counter=counter)
    return apply_weights(m_mat, gb, sol.particular)


def attack_egdp(
    pub: EgdpPublicKey,
    ct: EgdpCiphertext,
    *,
    counter: OpCounter | None = None,
) -> EpmMatrix:
    """Recover the plaintext from a public key and a ciphertext.

    Weights expressing E over the products M^i * N * M^j, applied to the
    ciphertext mask F, reproduce the blinding term exactly.
    """
    asys = build_attack_system(pub.M, pub.N, pub.E)
    sol = howell_solve(asys.sys, with_kernel=False, counter=counter)
    return ct.D - apply_weights(pub.M, ct.F, sol.particular)


def _plain_product(params: PrimePower, a, b):
    # Products taken entirely mod p^m, ignoring the row structure: this is
    # the arithmetic a structure-blind attacker would use.
    q = params.modulus
    cols = tuple(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) % q for col in cols)
        for row in a
    )


def zhang_system(
    m_mat: EpmMatrix,
    x: EpmMatrix,
    ga: EpmMatrix,
    *,
    lift_rows: bool = False,
) -> ZpmSystem:
    """The digit-unknown system with every congruence forced mod p^m.

    Central coefficients W_ij are written via their base-p digits
    a_0 + p*a_1 + ... (row r of W_ij only sees digits 0..r), giving m^2
    equations in m^3 unknowns for GA = sum W_ij * M^i * X * M^j.  The row-r
    matrix identities only hold mod p^(r+1); flattening them all to mod p^m
    (``lift_rows=False``) is the defective construction and generally has no
    solution.  ``lift_rows=True`` rescales row-r congruences by p^(m-1-r)
    instead, which is equivalent to the true system and stays consistent on
    honest inputs.

    Unknown a_k^(ij) sits at column (i*m + j)*m + k; digit unknowns are
    treated as unconstrained residues mod p^m, which only enlarges the
    solution set and cannot mask an inconsistency.
    """
    _same_params(m_mat, x)
    _same_params(m_mat, ga)
    params = m_mat.params
    p, m, q = params.p, params.m, params.modulus

    # Structure-blind basis: plain mod-p^m products M^i X M^j.
    plain_m = tuple(tuple(v for v in row) for row in m_mat.rows)
    plain_powers = [tuple(tuple(1 if i == j else 0 for j in range(m)) for i in range(m))]
    for _ in range(m - 1):
        plain_powers.append(_plain_product(params, plain_powers[-1], plain_m))
    plain_x = tuple(tuple(v for v in row) for row in x.rows)
    basis = []
    for i in range(m):
        left = _plain_product(params, plain_powers[i], plain_x)
        for j in range(m):
            basis.append(_plain_product(params, left, plain_powers[j]))

    n_unknowns = m * m * m
    rows, rhs = [], []
    for r in range(m):
        scale = p ** (m - 1 - r) if lift_rows else 1
        for s in range(m):
            coeff = [0] * n_unknowns
            for bi, mat in enumerate(basis):
                e = mat[r][s]
                for k in range(r + 1):
                    coeff[bi * m + k] = e * p**k * scale % q
            rows.append(tuple(coeff))
            rhs.append(ga.rows[r][s] * scale % q)
    return ZpmSystem(params, tuple(rows), tuple(rhs))


@dataclass(frozen=True)
class BenchRecord:
    p: int
    m: int
    rep: int
    wall_seconds: float
    solver_ring_ops: int
    verified: bool


def bench_attack(
    param_list: Sequence[tuple[int, int]], reps: int, rng
) -> list[BenchRecord]:
    """Time the attack on honest sessions and verify every recovery.

    For each (p, m): generate ``reps`` honest sessions, run the attack, and
    record wall time plus the solver's multiplication count.  ``verified``
    flags whether the recovered secret matched the honest one.
    """
    records = []
    for p, m in param_list:
        params = PrimePower(p, m)
        for rep in range(reps):
            session = run_dhdp_session(params, rng)
            pub = session.public
            counter = OpCounter()
            t0 = time.perf_counter()
            recovered = attack_dhdp(pub.M, pub.X, pub.GA, pub.GB, counter=counter)
            wall = time.perf_counter() - t0
            records.append(
                BenchRecord(p, m, rep, wall, counter.muls, recovered == session.shared)
            )
    return records


def summarize_bench(records: Sequence[BenchRecord]) -> list[dict]:
    """Per-(p, m) medians of wall time and ring-operation count."""
    keys = []
    for rec in records:
        if (rec.p, rec.m) not in keys:
            keys.append((rec.p, rec.m))
    out = []
    for p, m in keys:
        group = [r for r in records if (r.p, r.m) == (p, m)]
        out.append(
            {
                "p": p,
                "m": m,
                "reps": len(group),
                "median_wall_seconds": median(r.wall_seconds for r in group),
                "median_solver_ring_ops": median(r.solver_ring_ops for r in group),
                "all_verified": all(r.verified for r in group),
            }
        )
    return out
