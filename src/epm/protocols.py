"""The two decomposition-problem protocols over the mixed-modulus ring.

DHDP key exchange: for public noncommuting M, X, Alice masks X with two
central-coefficient polynomials in M, Bob masks it with two elements of the
centralizer of M, and both arrive at the same doubly-masked value because the
two masking families commute with each other.

EGDP encryption reuses the same trick ElGamal-style: the public key is
(N, A1*N*A2) and a ciphertext blinds the plaintext with a freshly masked
copy of the key.

Both protocols are implemented faithfully, including their stated
constraints, because the attack in :mod:`epm.attack` has to be demonstrated
against honest sessions.  Nothing here is hardened; the point is that
hardening cannot help.

Centralizer elements are drawn in the membership parametrisation and their
system is lifted row-wise; both maps live in :mod:`epm.ring`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .residues import Residues
from .ring import CentralPoly, EpmMatrix, random_central_poly, random_matrix
from .ring import as_array, lift_array, matrix_from_parameters
from .zpmsolve import PrimePower, ZpmSystem, howell_solve

__all__ = [
    "SetupFailed",
    "RESAMPLE_CAP",
    "DhdpPublic",
    "DhdpPrivateA",
    "DhdpPrivateB",
    "DhdpSession",
    "EgdpPublicKey",
    "EgdpPrivateKey",
    "EgdpKeyPair",
    "EgdpCiphertext",
    "commutation_system",
    "CentralizerSampler",
    "dhdp_setup",
    "dhdp_alice",
    "dhdp_bob",
    "dhdp_shared_alice",
    "dhdp_shared_bob",
    "run_dhdp_session",
    "egdp_keygen",
    "egdp_encrypt",
    "egdp_encrypt_with",
    "egdp_decrypt",
    "run_egdp_session",
]

#: Draws each protocol step makes before its constraint is declared hopeless.
#: Every step that resamples has its own loop of this length, and no such loop
#: runs inside another, so a failing step costs at most RESAMPLE_CAP draws.
RESAMPLE_CAP = 100


class SetupFailed(RuntimeError):
    """A protocol step drew RESAMPLE_CAP candidates and none met its
    constraint (degenerate parameters such as m = 1, where the ring is
    commutative).  The message names the step."""


@dataclass(frozen=True)
class DhdpPublic:
    """Everything an eavesdropper sees of a DHDP session."""

    M: EpmMatrix
    X: EpmMatrix
    GA: EpmMatrix
    GB: EpmMatrix

    def __post_init__(self):
        if self.M.commutes(self.X):
            raise ValueError("public pair must not commute")

    @property
    def params(self) -> PrimePower:
        return self.M.params


@dataclass(frozen=True)
class DhdpPrivateA:
    """Alice's masks, kept as polynomial coefficients so membership in the
    polynomial family is true by construction."""

    f1: CentralPoly
    f2: CentralPoly


@dataclass(frozen=True)
class DhdpPrivateB:
    """Bob's masks: two centralizer elements."""

    B1: EpmMatrix
    B2: EpmMatrix


@dataclass(frozen=True)
class DhdpSession:
    public: DhdpPublic
    alice: DhdpPrivateA
    bob: DhdpPrivateB
    shared: EpmMatrix


@dataclass(frozen=True)
class EgdpPublicKey:
    M: EpmMatrix
    N: EpmMatrix
    E: EpmMatrix

    def __post_init__(self):
        if self.N.commutes(self.M):
            raise ValueError("key matrix must not commute with the base")

    @property
    def params(self) -> PrimePower:
        return self.M.params


@dataclass(frozen=True)
class EgdpPrivateKey:
    M: EpmMatrix
    f1: CentralPoly
    f2: CentralPoly


@dataclass(frozen=True)
class EgdpKeyPair:
    public: EgdpPublicKey
    private: EgdpPrivateKey


@dataclass(frozen=True)
class EgdpCiphertext:
    F: EpmMatrix
    D: EpmMatrix


def commutation_system(m_mat: EpmMatrix) -> ZpmSystem:
    """Homogeneous system whose solutions parametrise the centralizer.

    The unknown A is written in the membership parametrisation, which makes
    every membership constraint automatic; t_ij sits at column i*m + j.  Row
    (r, s) is entry (r, s) of A*M - M*A mod p^m, lifted, so the row-r
    identities, which hold mod p^(r+1), become congruences mod p^m.
    """
    params = m_mat.params
    m, n = params.m, params.m * params.m
    res = Residues.of(params)
    mm = as_array(res, m_mat)
    forced = as_array(res, matrix_from_parameters(params, (1,) * n))
    # Entry ((r, s), (i, j)) is the coefficient of t_ij in (A*M - M*A)[r, s]:
    # forced[r, j] * M[j, s] when i = r, minus M[r, i] * forced[i, s] when j = s.
    # Each (r, s, .) term block is lifted on its own; the lift is additive.
    left = lift_array(res, res.mul(forced[:, None, :], mm.T))
    right = lift_array(res, res.mul(mm[:, None, :], forced.T[None]))
    diag = np.arange(m)
    op = np.zeros((m, m, m, m), res.dtype)
    op[diag, :, diag, :] = left  # (r, s, j)
    op[:, diag, :, diag] -= right.transpose(1, 0, 2)  # (s, r, i)
    return ZpmSystem(params, op.reshape(n, n), np.zeros(n, res.dtype))


class CentralizerSampler:
    """Draws elements commuting with a fixed matrix.

    Solves the lifted commutation system once; each sample is a random
    solution of it, a uniformly weighted kernel combination, as a matrix.
    The kernel always contains the parameter vectors of the central diagonal
    matrices, so the sample space is never empty.  The induced distribution
    over the centralizer is not claimed uniform.
    """

    def __init__(self, m_mat: EpmMatrix):
        self.params = m_mat.params
        self.solutions = howell_solve(commutation_system(m_mat))

    @property
    def kernel(self) -> tuple[tuple[int, ...], ...]:
        return self.solutions.kernel

    def sample(self, rng) -> EpmMatrix:
        return matrix_from_parameters(self.params, self.solutions.random_solution(rng))


def dhdp_setup(params: PrimePower, rng) -> tuple[EpmMatrix, EpmMatrix]:
    """Public parameters: a fresh (M, X) drawn until the pair does not commute.

    Both matrices are redrawn on each attempt, so a central M (probability
    p^-3 at m = 2) costs one attempt rather than the whole step.
    """
    for _ in range(RESAMPLE_CAP):
        m_mat = random_matrix(params, rng)
        x = random_matrix(params, rng)
        if not m_mat.commutes(x):
            return m_mat, x
    raise SetupFailed("could not find a noncommuting public pair")


def dhdp_alice(m_mat: EpmMatrix, x: EpmMatrix, rng) -> tuple[DhdpPrivateA, EpmMatrix]:
    params = m_mat.params
    f1 = random_central_poly(params, rng, params.m - 1)
    f2 = random_central_poly(params, rng, params.m - 1)
    ga = f1.evaluate(m_mat) * x * f2.evaluate(m_mat)
    return DhdpPrivateA(f1, f2), ga


def dhdp_bob(m_mat: EpmMatrix, x: EpmMatrix, rng) -> tuple[DhdpPrivateB, EpmMatrix]:
    sampler = CentralizerSampler(m_mat)
    for _ in range(RESAMPLE_CAP):
        b1 = sampler.sample(rng)
        b2 = sampler.sample(rng)
        if b1 * x != x * b2:
            return DhdpPrivateB(b1, b2), b1 * x * b2
    raise SetupFailed("could not satisfy the masking constraint")


def dhdp_shared_alice(priv: DhdpPrivateA, m_mat: EpmMatrix, gb: EpmMatrix) -> EpmMatrix:
    return priv.f1.evaluate(m_mat) * gb * priv.f2.evaluate(m_mat)


def dhdp_shared_bob(priv: DhdpPrivateB, ga: EpmMatrix) -> EpmMatrix:
    return priv.B1 * ga * priv.B2


def run_dhdp_session(params: PrimePower, rng) -> DhdpSession:
    """A complete honest key exchange; both derivations are cross-checked.

    Each step resamples on its own (dhdp_setup, dhdp_bob) and the session
    adds no retry, so degenerate parameters such as m = 1 raise the failing
    step's SetupFailed after at most RESAMPLE_CAP draws.
    """
    m_mat, x = dhdp_setup(params, rng)
    priv_a, ga = dhdp_alice(m_mat, x, rng)
    priv_b, gb = dhdp_bob(m_mat, x, rng)
    shared = dhdp_shared_alice(priv_a, m_mat, gb)
    if shared != dhdp_shared_bob(priv_b, ga):
        raise RuntimeError("the two shared-secret derivations disagree")
    return DhdpSession(DhdpPublic(m_mat, x, ga, gb), priv_a, priv_b, shared)


def egdp_keygen(params: PrimePower, rng) -> EgdpKeyPair:
    """A DHDP public pair (M, N) with Alice's masking of N as E."""
    m_mat, n_mat = dhdp_setup(params, rng)
    priv, e = dhdp_alice(m_mat, n_mat, rng)
    return EgdpKeyPair(
        EgdpPublicKey(m_mat, n_mat, e), EgdpPrivateKey(m_mat, priv.f1, priv.f2)
    )


def egdp_encrypt_with(
    pub: EgdpPublicKey, secret: EpmMatrix, b1: EpmMatrix, b2: EpmMatrix
) -> EgdpCiphertext:
    """Encryption with caller-chosen masks; useful for forced test vectors."""
    return EgdpCiphertext(b1 * pub.N * b2, secret + b1 * pub.E * b2)


def egdp_encrypt(pub: EgdpPublicKey, secret: EpmMatrix, rng) -> EgdpCiphertext:
    sampler = CentralizerSampler(pub.M)
    return egdp_encrypt_with(pub, secret, sampler.sample(rng), sampler.sample(rng))


def egdp_decrypt(priv: EgdpPrivateKey, ct: EgdpCiphertext) -> EpmMatrix:
    return ct.D - priv.f1.evaluate(priv.M) * ct.F * priv.f2.evaluate(priv.M)


def run_egdp_session(
    params: PrimePower, rng, secret: EpmMatrix | None = None
) -> tuple[EgdpKeyPair, EpmMatrix, EgdpCiphertext]:
    """Key pair, plaintext (random unless given) and ciphertext for tests.

    Only egdp_keygen's dhdp_setup resamples; its SetupFailed propagates.
    """
    kp = egdp_keygen(params, rng)
    s = secret if secret is not None else random_matrix(params, rng)
    return kp, s, egdp_encrypt(kp.public, s, rng)
