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
"""

from __future__ import annotations

from dataclasses import dataclass

from .ring import (
    CentralPoly,
    EpmMatrix,
    random_central_poly,
    random_matrix,
)
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
    "matrix_from_parameters",
    "matrix_to_parameters",
    "CentralizerSampler",
    "centralizer_sample",
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

#: Consecutive resampling attempts before a constraint is declared hopeless.
RESAMPLE_CAP = 100


class SetupFailed(RuntimeError):
    """A protocol constraint could not be met after RESAMPLE_CAP resamples
    (degenerate parameters such as m = 1, where the ring is commutative)."""


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

    An unknown matrix A is parametrised entry-wise as
    a_ij = p^max(i-j,0) * t_ij, which makes every membership constraint
    automatic.  The m^2 identities of A*M = M*A live mod p^(i+1) on row i;
    rescaling row-i identities by p^(m-1-i) turns them all into congruences
    mod p^m, so a single-modulus solver applies.  Unknown t_ij sits at
    column i*m + j.
    """
    params = m_mat.params
    p, m, q = params.p, params.m, params.modulus
    n = m * m
    rows = []
    for r in range(m):
        scale = p ** (m - 1 - r)
        for s in range(m):
            coeff = [0] * n
            for k in range(m):
                # (A*M) entry (r,s) picks up a_rk * M[k][s].
                coeff[r * m + k] += m_mat.rows[k][s] * p ** max(r - k, 0)
                # -(M*A) entry (r,s) picks up M[r][k] * a_ks.
                coeff[k * m + s] -= m_mat.rows[r][k] * p ** max(k - s, 0)
            rows.append(tuple(v * scale % q for v in coeff))
    return ZpmSystem(params, tuple(rows), (0,) * n)


def matrix_from_parameters(params: PrimePower, t) -> EpmMatrix:
    """Inverse of the parametrisation used by commutation_system."""
    p, m = params.p, params.m
    mods = params.row_moduli
    rows = tuple(
        tuple(t[i * m + j] * p ** max(i - j, 0) % mods[i] for j in range(m))
        for i in range(m)
    )
    return EpmMatrix(params, rows)


def matrix_to_parameters(a: EpmMatrix) -> tuple[int, ...]:
    """Canonical parameter vector of a ring element."""
    p, m = a.params.p, a.params.m
    return tuple(
        a.rows[i][j] // p ** max(i - j, 0) for i in range(m) for j in range(m)
    )


class CentralizerSampler:
    """Draws elements commuting with a fixed matrix.

    Solves the lifted commutation system once; each sample is a random
    solution of it, a uniformly weighted kernel combination, as a matrix.
    The kernel always contains the parameter vectors of the central diagonal
    matrices, so the sample space is never empty.  The induced distribution
    over the centralizer is not claimed uniform.
    """

    def __init__(self, m_mat: EpmMatrix):
        self.m_mat = m_mat
        self.params = m_mat.params
        self.system = commutation_system(m_mat)
        self.solutions = howell_solve(self.system)
        self.kernel = self.solutions.kernel

    def sample(self, rng) -> EpmMatrix:
        return matrix_from_parameters(self.params, self.solutions.random_solution(rng))


def centralizer_sample(m_mat: EpmMatrix, rng) -> EpmMatrix:
    """One-shot draw from the centralizer of m_mat."""
    return CentralizerSampler(m_mat).sample(rng)


def dhdp_setup(params: PrimePower, rng) -> tuple[EpmMatrix, EpmMatrix]:
    """Public parameters: random M, then X resampled until the pair does not
    commute."""
    m_mat = random_matrix(params, rng)
    for _ in range(RESAMPLE_CAP):
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

    Individual steps keep their strict resampling contracts (a central M,
    drawn with probability p^-3 at m = 2, makes dhdp_setup fail), so the
    session helper retries with fresh draws.  Genuinely degenerate
    parameters such as m = 1 still fail after RESAMPLE_CAP whole attempts.
    """
    for _ in range(RESAMPLE_CAP):
        try:
            m_mat, x = dhdp_setup(params, rng)
            priv_a, ga = dhdp_alice(m_mat, x, rng)
            priv_b, gb = dhdp_bob(m_mat, x, rng)
        except SetupFailed:
            continue
        shared = dhdp_shared_alice(priv_a, m_mat, gb)
        if shared != dhdp_shared_bob(priv_b, ga):
            raise RuntimeError("the two shared-secret derivations disagree")
        return DhdpSession(DhdpPublic(m_mat, x, ga, gb), priv_a, priv_b, shared)
    raise SetupFailed("no viable session after repeated attempts")


def egdp_keygen(params: PrimePower, rng) -> EgdpKeyPair:
    m_mat = random_matrix(params, rng)
    for _ in range(RESAMPLE_CAP):
        n_mat = random_matrix(params, rng)
        if not n_mat.commutes(m_mat):
            break
    else:
        raise SetupFailed("could not find a noncommuting key matrix")
    f1 = random_central_poly(params, rng, params.m - 1)
    f2 = random_central_poly(params, rng, params.m - 1)
    e = f1.evaluate(m_mat) * n_mat * f2.evaluate(m_mat)
    return EgdpKeyPair(
        EgdpPublicKey(m_mat, n_mat, e), EgdpPrivateKey(m_mat, f1, f2)
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
    """Key pair, plaintext (random unless given) and ciphertext for tests,
    with the same whole-attempt retry policy as run_dhdp_session."""
    for _ in range(RESAMPLE_CAP):
        try:
            kp = egdp_keygen(params, rng)
        except SetupFailed:
            continue
        s = secret if secret is not None else random_matrix(params, rng)
        return kp, s, egdp_encrypt(kp.public, s, rng)
    raise SetupFailed("no viable key pair after repeated attempts")
