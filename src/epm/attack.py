"""Recovering the exchanged secrets from public transcripts alone.

The masked public value GA = A1*X*A2 is, by the power-reduction bound, a
scalar combination of the m^2 products M^i * X * M^j with exponents below m.
Row-scaling-lifting that matrix equation gives m^2 ordinary congruences mod
p^m in the m^2 unknown weights; any solution applied to the same products
with GB in the middle reproduces the shared secret, because Bob's masks
commute past every power of M.  Total cost is one dense solve:
O((m^2)^3) multiplications mod p^m.

Around the solve, the attack takes structure-blind products entirely mod
p^m on whole arrays of :class:`~epm.residues.Residues`, never m^2 separate
ring products.  The array helpers and the array lift live in
:mod:`epm.ring`, next to the row-scaling lift they reproduce: a
structure-blind product and the ring product have the same lift, and they
are equal once reduced row-wise.  The basis and its lift are one GEMM
over the powers of M, O(m^5) operations.  The weights are applied as
sum_i M^i * GB * P_i(M) with P_i = sum_j w_ij M^j, which is O(m^4)
operations.  The weight system equals
:func:`~epm.ring.combination_system` over the ring products M^i * X * M^j
bit for bit.

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

import numpy as np

from .protocols import EgdpCiphertext, EgdpPublicKey, run_dhdp_session
from .residues import Residues
from .ring import EpmMatrix, ParamMismatch
from .ring import as_array, basis_array, from_array, lift_array, power_stack
from .zpmsolve import OpCounter, PrimePower, ZpmSystem, howell_solve

__all__ = [
    "build_attack_system",
    "apply_weights",
    "attack_dhdp",
    "attack_egdp",
    "zhang_system",
    "BenchRecord",
    "bench_attack",
    "summarize_bench",
]


def build_attack_system(m_mat: EpmMatrix, x: EpmMatrix, ga: EpmMatrix) -> ZpmSystem:
    """Lifted weight system for GA over the products M^i * X * M^j.

    Column i*m + j holds the flattened lift of M^i * X * M^j, so the system
    equals ``combination_system`` over those products; it is built from
    array products.  Guaranteed consistent whenever GA was
    honestly produced by masking X with central-coefficient polynomials in M.
    """
    res = Residues.of(m_mat.params)
    coeffs = lift_array(res, basis_array(res, power_stack(res, m_mat), x))
    rhs = lift_array(res, as_array(res, ga))
    return ZpmSystem(res.params, coeffs, rhs.ravel())


def apply_weights(
    m_mat: EpmMatrix, center: EpmMatrix, weights: Sequence[int]
) -> EpmMatrix:
    """sum of weights[i*m+j] * M^i * center * M^j.

    Computed as sum_i M^i * center * P_i(M) with P_i = sum_j w_ij M^j: one
    GEMM for all P_i and one contracting over (i, k), O(m^4) operations.
    """
    params = m_mat.params
    m, q = params.m, params.modulus
    if len(weights) != m * m:
        raise ParamMismatch(f"expected {m * m} weights, got {len(weights)}")
    res = Residues.of(params)
    powers = power_stack(res, m_mat)
    w = np.array([int(v) % q for v in weights], res.dtype).reshape(m, m)
    polys = res.matmul(w, powers.reshape(m, m * m))  # (i, (k, s))
    left = res.matmul(powers, as_array(res, center))  # (i, r, k)
    total = res.matmul(
        left.transpose(1, 0, 2).reshape(m, m * m), polys.reshape(m * m, m)
    )
    return from_array(res, total)


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
    system = build_attack_system(m_mat, x, ga)
    sol = howell_solve(system, with_kernel=False, counter=counter)
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
    return ct.D - attack_dhdp(pub.M, pub.N, pub.E, ct.F, counter=counter)


def zhang_system(m_mat: EpmMatrix, x: EpmMatrix, ga: EpmMatrix) -> ZpmSystem:
    """The digit-unknown system with every congruence forced mod p^m.

    Central coefficients W_ij are written via their base-p digits
    a_0 + p*a_1 + ... (row r of W_ij only sees digits 0..r), giving m^2
    equations in m^3 unknowns for GA = sum W_ij * M^i * X * M^j.  The row-r
    matrix identities only hold mod p^(r+1); flattening them all to mod p^m
    is the defective construction and generally has no solution.  Rescaling
    row-r congruences by p^(m-1-r) instead, as :func:`~epm.ring.lift_array`
    does to the rows of this system, gives the true system, which stays
    consistent on honest inputs.

    Unknown a_k^(ij) sits at column (i*m + j)*m + k; digit unknowns are
    treated as unconstrained residues mod p^m, which only enlarges the
    solution set and cannot mask an inconsistency.
    """
    params = m_mat.params
    p, m = params.p, params.m
    res = Residues.of(params)
    # Structure-blind basis M^i X M^j, one row per matrix position (r, s);
    # column (i, j, k) is basis column (i, j) times digit weight p^k, k <= r.
    basis = basis_array(res, power_stack(res, m_mat), x).reshape(m, m, m * m, 1)
    digits = np.tril(np.tile(np.array([p**k for k in range(m)], res.dtype), (m, 1)))
    coeffs = res.mul(basis, digits[:, None, None, :]).reshape(m * m, -1)
    return ZpmSystem(params, coeffs, as_array(res, ga).reshape(-1))


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
    """Per-(p, m) medians of wall time and ring-operation count, and
    ``ops_ratio``, the count over the previous group's (None for the first)."""
    groups = {}
    for rec in records:
        groups.setdefault((rec.p, rec.m), []).append(rec)
    out = []
    prev = None
    for (p, m), group in groups.items():
        ops = median(r.solver_ring_ops for r in group)
        out.append(
            {
                "p": p,
                "m": m,
                "reps": len(group),
                "median_wall_seconds": median(r.wall_seconds for r in group),
                "median_solver_ring_ops": ops,
                "ops_ratio": ops / prev if prev else None,
                "all_verified": all(r.verified for r in group),
            }
        )
        prev = ops
    return out
