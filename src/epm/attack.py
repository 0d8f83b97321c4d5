"""Recovering the exchanged secrets from public transcripts alone.

The masked public value GA = A1*X*A2 is, by the power-reduction bound, a
scalar combination of the m^2 products M^i * X * M^j with exponents below m.
Row-scaling-lifting that matrix equation gives m^2 ordinary congruences mod
p^m in the m^2 unknown weights; any solution applied to the same products
with GB in the middle reproduces the shared secret, because Bob's masks
commute past every power of M.  Total cost is one dense solve:
O((m^2)^3) multiplications mod p^m.

Around the solve, the attack takes structure-blind products entirely mod
p^m on whole arrays of :class:`~epm.zpmsolve.Residues`, never m^2 separate
ring products.  Such a product agrees with the ring product on row i modulo
p^(i+1), and the lift scales row i by p^(m-1-i), which sends that
difference to a multiple of p^m.  So both products have the same lift, and
they are equal once reduced row-wise.  The basis and its lift are one GEMM
over the powers of M, O(m^5) operations.  The weights are applied as
sum_i M^i * GB * P_i(M) with P_i = sum_j w_ij M^j, which is O(m^4)
operations.  :func:`sandwich_basis` and :func:`~epm.ring.combination_system`
are the ring-level reference definitions the array path agrees with bit for
bit.

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
from .ring import EpmMatrix, NotInImage, ParamMismatch, _same_params
from .zpmsolve import OpCounter, PrimePower, Residues, ZpmSystem, howell_solve

__all__ = [
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


def as_array(res: Residues, a: EpmMatrix) -> np.ndarray:
    _same_params(a, res)
    return np.array(a.rows, res.dtype)


def power_stack(res: Residues, m_mat: EpmMatrix) -> np.ndarray:
    """M^0, ..., M^(m-1) as one (m, m, m) array: m - 1 matmuls."""
    m = res.params.m
    base = as_array(res, m_mat)
    out = np.empty((m, m, m), res.dtype)
    out[0] = np.eye(m, dtype=res.dtype)
    for k in range(1, m):
        out[k] = res.matmul(out[k - 1], base)
    return out


def basis_array(res: Residues, powers: np.ndarray, center: EpmMatrix) -> np.ndarray:
    """Entry ((r, s), (i, j)) is entry (r, s) of M^i * center * M^j.

    ``powers`` comes from :func:`power_stack`; the whole basis is one GEMM.
    """
    m = res.params.m
    left = res.matmul(powers, as_array(res, center))  # (i, r, t)
    right = powers.transpose(1, 0, 2).reshape(m, m * m)  # (t, (j, s))
    basis = res.matmul(left.reshape(m * m, m), right)
    return basis.reshape(m, m, m, m).transpose(1, 3, 0, 2).reshape(m * m, m * m)


def lift_array(res: Residues, a: np.ndarray) -> np.ndarray:
    """Row-scaling lift of a stack whose rows are the matrix positions
    (r, s) in row-major order, as :func:`~epm.ring.lift` does it entry by
    entry.

    Raises NotInImage when a lifted entry at (r, s) is not divisible by
    its valuation floor p^max(m-1-r, m-1-s).
    """
    p, m = res.params.p, res.params.m
    shape = a.shape
    a = a.reshape(m, m, -1)
    scale = np.array([p ** (m - 1 - r) for r in range(m)], res.dtype)
    out = res.reduce(a * scale[:, None, None])
    floor = np.array(
        [[p ** max(m - 1 - r, m - 1 - s) for s in range(m)] for r in range(m)],
        res.dtype,
    )
    bad = np.argwhere(out % floor[:, :, None] != 0)
    if len(bad):
        r, s, _ = bad[0]
        raise NotInImage(
            f"lifted entry ({r},{s}) has valuation below {m - 1 - min(r, s)}"
        )
    return out.reshape(shape)


def build_attack_system(m_mat: EpmMatrix, x: EpmMatrix, ga: EpmMatrix) -> ZpmSystem:
    """Lifted weight system for GA over the products M^i * X * M^j.

    Column k holds the flattened lift of ``sandwich_basis(M, X)[k]``, so the
    system equals ``combination_system(sandwich_basis(M, X), GA)``; it is
    built from array products.  Guaranteed consistent whenever GA was
    honestly produced by masking X with central-coefficient polynomials in M.
    """
    res = Residues.of(m_mat.params)
    coeffs = lift_array(res, basis_array(res, power_stack(res, m_mat), x))
    rhs = lift_array(res, as_array(res, ga))
    return ZpmSystem(res.params, coeffs.tolist(), rhs.ravel().tolist())


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
    return EpmMatrix.validate(params, total.tolist())


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
    system = build_attack_system(pub.M, pub.N, pub.E)
    sol = howell_solve(system, with_kernel=False, counter=counter)
    return ct.D - apply_weights(pub.M, ct.F, sol.particular)


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

    # Structure-blind basis: plain mod-p^m products M^i X M^j, one row per
    # matrix position (r, s).
    res = Residues.of(params)
    basis = basis_array(res, power_stack(res, m_mat), x).tolist()

    n_unknowns = m * m * m
    rows, rhs = [], []
    for r in range(m):
        scale = p ** (m - 1 - r) if lift_rows else 1
        for s in range(m):
            coeff = [0] * n_unknowns
            for bi, e in enumerate(basis[r * m + s]):
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
