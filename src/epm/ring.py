"""The mixed-modulus matrix ring E_p^(m) and its structure maps.

An element is an m x m integer matrix whose row-i entries live mod p^(i+1)
(0-based rows) and whose subdiagonal entries carry a forced power of p:
p^(i-j) divides entry (i, j) whenever i > j.  Addition, multiplication and
scalar action all reduce row-wise.  The ring is noncommutative for m >= 2;
its center consists of the diagonal matrices diag(z mod p, ..., z mod p^m),
so central elements are just residues mod p^m in disguise and act on the
whole ring as scalars.

The row-scaling lift multiplies row i by p^(m-1-i), mapping the ring
bijectively onto matrices over Z/p^m Z with entry-wise valuation floors.
The lift respects addition and scalar action (not products), which is what
turns "is this matrix a central-coefficient combination of these basis
matrices?" into an ordinary linear system mod p^m - see
:func:`combination_system`.  A structure-blind product mod p^m, reduced
row-wise by :func:`from_array`, is the ring product and has the same lift,
so ring arithmetic runs on whole arrays of residues
(:class:`~epm.residues.Residues`) and :func:`lift_array` builds the systems
of :mod:`epm.attack` and :mod:`epm.protocols`.  :func:`combination_system`,
on ring elements and :func:`lift`, is the definition those array systems
reproduce bit for bit.  The membership parametrisation, entry (i, j) =
p^max(i-j,0) * t_ij, is :func:`matrix_from_parameters`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .residues import Residues
from .zpmsolve import (
    InconsistentSystem,
    PrimePower,
    ZpmSystem,
    howell_solve,
    valuation,
)

__all__ = [
    "EpmMatrix",
    "LiftedMatrix",
    "CentralPoly",
    "NotAMember",
    "ParamMismatch",
    "NotInImage",
    "central_matrix",
    "matrix_from_parameters",
    "matrix_to_parameters",
    "lift",
    "unlift",
    "combination_system",
    "cayley_hamilton_coeffs",
    "random_matrix",
    "random_central_poly",
]


class NotAMember(ValueError):
    """Entries violate the membership conditions of the ring."""


class ParamMismatch(ValueError):
    """Operands belong to different (p, m) rings."""


class NotInImage(ValueError):
    """Entries violate the valuation floors of the lifted module."""


def _same_params(a, b):
    if a.params != b.params:
        raise ParamMismatch(f"{a.params} vs {b.params}")


@dataclass(frozen=True)
class EpmMatrix:
    """An element of E_p^(m); immutable, entries stored canonically."""

    params: PrimePower
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        m = self.params.m
        mods = self.params.row_moduli
        rows = self.rows
        if len(rows) != m or any(len(r) != m for r in rows):
            raise NotAMember(f"expected a {m}x{m} matrix")
        for i in range(m):
            mod_i = mods[i]
            for j in range(m):
                e = rows[i][j]
                if not 0 <= e < mod_i:
                    raise NotAMember(f"entry ({i},{j})={e} not canonical mod {mod_i}")
                if i > j and e % mods[i - j - 1]:
                    raise NotAMember(
                        f"entry ({i},{j})={e} not divisible by {self.params.p}^{i - j}"
                    )

    @classmethod
    def validate(cls, params: PrimePower, raw: Sequence[Sequence[int]]) -> "EpmMatrix":
        """Reduce raw entries row-wise and check membership."""
        m = params.m
        if len(raw) != m or any(len(r) != m for r in raw):
            raise NotAMember(f"expected a {m}x{m} matrix")
        rows = [[int(v) for v in row] for row in raw]
        return from_array(Residues.of(params, "python"), np.array(rows, object))

    @classmethod
    def zero(cls, params: PrimePower) -> "EpmMatrix":
        return central_matrix(params, 0)

    @classmethod
    def identity(cls, params: PrimePower) -> "EpmMatrix":
        return central_matrix(params, 1)

    def __add__(self, other):
        if not isinstance(other, EpmMatrix):
            return NotImplemented
        _same_params(self, other)
        res = Residues.of(self.params)
        return from_array(res, as_array(res, self) + as_array(res, other))

    def __neg__(self):
        res = Residues.of(self.params)
        return from_array(res, -as_array(res, self))

    def __sub__(self, other):
        if not isinstance(other, EpmMatrix):
            return NotImplemented
        _same_params(self, other)
        res = Residues.of(self.params)
        return from_array(res, as_array(res, self) - as_array(res, other))

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        if not isinstance(other, EpmMatrix):
            return NotImplemented
        _same_params(self, other)
        res = Residues.of(self.params)
        return from_array(res, res.matmul(as_array(res, self), as_array(res, other)))

    def __rmul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        return NotImplemented

    def scale(self, r: int) -> "EpmMatrix":
        """Scalar action of r in Z/p^m Z: entry-wise product mod p^i."""
        res = Residues.of(self.params)
        r = np.array(r % self.params.modulus, res.dtype)
        return from_array(res, res.mul(as_array(res, self), r))

    def __pow__(self, k: int) -> "EpmMatrix":
        if k < 0:
            raise ValueError("negative powers are not defined here")
        result = EpmMatrix.identity(self.params)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def commutes(self, other: "EpmMatrix") -> bool:
        _same_params(self, other)
        return self * other == other * self

    def is_central(self) -> bool:
        """Diagonal with all diagonal entries congruent to one residue."""
        return self == central_matrix(self.params, self.rows[-1][-1])


def central_matrix(params: PrimePower, z: int) -> EpmMatrix:
    """The central element represented by residue z: diag(z mod p^i)."""
    res = Residues.of(params)
    diag = np.zeros((params.m, params.m), res.dtype)
    np.fill_diagonal(diag, z % params.modulus)
    return from_array(res, diag)


@dataclass(frozen=True)
class CentralPoly:
    """A polynomial with central coefficients, coefficient k for the k-th power.

    Degree is capped at m-1: higher powers reduce into this range, so the
    cap loses nothing.
    """

    params: PrimePower
    coeffs: tuple[int, ...]

    def __post_init__(self):
        q = self.params.modulus
        coeffs = tuple(int(c) % q for c in self.coeffs)
        if not 1 <= len(coeffs) <= self.params.m:
            raise ValueError(f"need 1..{self.params.m} coefficients, got {len(coeffs)}")
        object.__setattr__(self, "coeffs", coeffs)

    def evaluate(self, m_mat: EpmMatrix) -> EpmMatrix:
        """sum_k coeffs[k] * M^k, one product of the coefficients with the
        stacked powers of M."""
        _same_params(m_mat, self)
        res, m, k = Residues.of(self.params), self.params.m, len(self.coeffs)
        powers = power_stack(res, m_mat, k).reshape(k, m * m)
        acc = res.matmul(np.array([self.coeffs], res.dtype), powers)
        return from_array(res, acc.reshape(m, m))


@dataclass(frozen=True)
class LiftedMatrix:
    """Image of an EpmMatrix under the row-scaling lift into Z/p^m Z.

    Entry (i, j) must have p-adic valuation at least max(m-1-i, m-1-j)
    (0-based); those floors characterise the image exactly.
    """

    params: PrimePower
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        m = self.params.m
        q = self.params.modulus
        rows = self.rows
        if len(rows) != m or any(len(r) != m for r in rows):
            raise NotInImage(f"expected a {m}x{m} matrix")
        for i in range(m):
            for j in range(m):
                e = rows[i][j]
                if not 0 <= e < q:
                    raise NotInImage(f"entry ({i},{j})={e} not canonical mod {q}")
                floor = max(m - 1 - i, m - 1 - j)
                if valuation(e, self.params) < floor:
                    raise NotInImage(
                        f"entry ({i},{j})={e} has valuation below {floor}"
                    )

    def flatten(self) -> tuple[int, ...]:
        return tuple(v for row in self.rows for v in row)


def matrix_from_parameters(params: PrimePower, t: Sequence[int]) -> EpmMatrix:
    """Entry (i, j) is p^max(i-j,0) * t[i*m + j]: a member for every t, and
    each member once for t_ij below p^(min(i,j)+1)."""
    res, p, m = Residues.of(params), params.p, params.m
    forced = [[p ** max(i - j, 0) for j in range(m)] for i in range(m)]
    t = np.array([int(v) % params.modulus for v in t], res.dtype).reshape(m, m)
    return from_array(res, res.mul(np.array(forced, res.dtype), t))


def matrix_to_parameters(a: EpmMatrix) -> tuple[int, ...]:
    """Canonical parameter vector of a ring element."""
    p, m = a.params.p, a.params.m
    return tuple(
        a.rows[i][j] // p ** max(i - j, 0) for i in range(m) for j in range(m)
    )


def lift(a: EpmMatrix) -> LiftedMatrix:
    """Scale row i by p^(m-1-i); additive and scalar-compatible, bijective."""
    params = a.params
    q = params.modulus
    p, m = params.p, params.m
    return LiftedMatrix(
        params,
        tuple(
            tuple(v * p ** (m - 1 - i) % q for v in row)
            for i, row in enumerate(a.rows)
        ),
    )


def unlift(f: LiftedMatrix) -> EpmMatrix:
    """The unique preimage of a lifted matrix."""
    p, m = f.params.p, f.params.m
    rows = [[v // p ** (m - 1 - i) for v in row] for i, row in enumerate(f.rows)]
    return EpmMatrix.validate(f.params, rows)


def as_array(res: Residues, a: EpmMatrix) -> np.ndarray:
    _same_params(a, res)
    return np.array(a.rows, res.dtype)


def from_array(res: Residues, a: np.ndarray) -> EpmMatrix:
    """The ring element whose row i is row i of the m x m residue array
    ``a`` mod p^(i+1).  A structure-blind product mod p^m of ring elements
    reduced this way is their ring product."""
    a = res.rem(a, res.params.row_moduli)
    return EpmMatrix(res.params, tuple(map(tuple, a.tolist())))


def power_stack(res: Residues, m_mat: EpmMatrix, n: int = 0) -> np.ndarray:
    """M^0, ..., M^(n-1), n = m unless given, as one (n, m, m) array."""
    m = res.params.m
    base, n = as_array(res, m_mat), n or m
    out = np.empty((n, m, m), res.dtype)
    out[0] = np.eye(m, dtype=res.dtype)
    for k in range(1, n):
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
    """Row-scaling lift of a stack of reduced residues whose rows are the
    matrix positions (r, s) in row-major order, as :func:`lift` does it
    entry by entry.

    Raises NotInImage when a lifted entry at (r, s) is not divisible by
    its valuation floor p^max(m-1-r, m-1-s).
    """
    p, m = res.params.p, res.params.m
    shape = a.shape
    a = a.reshape(m, m, -1)
    scale = np.array([p ** (m - 1 - r) for r in range(m)], res.dtype)
    out = res.mul(a, scale[:, None, None])
    # Entry (r, s) with s >= r is a multiple of its floor p^(m-1-r) by
    # construction, so the floor p^(m-1-s) of column s decides.  One matrix
    # row r at a time, so no temporary is as large as `out`.
    floors = tuple(p ** (m - 1 - s) for s in range(m))
    for r in range(m):
        rest = res.rem(out[r], floors)
        if rest.any():
            s = np.argwhere(rest)[0][0]
            raise NotInImage(
                f"lifted entry ({r},{s}) has valuation below {m - 1 - min(r, s)}"
            )
    return out.reshape(shape)


def combination_system(
    basis: Sequence[EpmMatrix], target: EpmMatrix
) -> ZpmSystem:
    """Linear system over Z/p^m Z for target = sum_k x_k * basis[k].

    Central-coefficient combinations in the ring are exactly scalar
    combinations, and the row-scaling lift converts the mixed-modulus matrix
    equation into m^2 congruences mod p^m; by bijectivity of the lift the
    solution sets coincide.  Columns follow basis order, equations are the
    matrix positions in row-major order.
    """
    params = target.params
    lifted = []
    for b in basis:
        _same_params(b, target)
        lifted.append(lift(b).flatten())
    return ZpmSystem(params, list(zip(*lifted)), lift(target).flatten())


def cayley_hamilton_coeffs(a: EpmMatrix) -> tuple[int, ...]:
    """Residues (a_0, ..., a_{m-1}) with a^m = sum_k a_k * a^k.

    Such coefficients always exist (the ring acts on a module generated by m
    elements) and are generally not unique; the solver's deterministic
    particular solution is returned.
    """
    res = Residues.of(a.params)
    powers = [from_array(res, pw) for pw in power_stack(res, a, a.params.m + 1)]
    system = combination_system(powers[:-1], powers[-1])
    try:
        return howell_solve(system, with_kernel=False).particular
    except InconsistentSystem as exc:  # pragma: no cover - would be a bug
        raise RuntimeError("power reduction must always be solvable") from exc


def random_matrix(params: PrimePower, rng) -> EpmMatrix:
    """Uniform draw from the ring.

    Parameter t_ij is uniform below p^(min(i,j)+1), drawn in row-major
    order; :func:`matrix_from_parameters` maps those vectors bijectively
    onto the ring, so the draw is uniform.
    """
    m = params.m
    mods = params.row_moduli
    return matrix_from_parameters(
        params, [rng.randrange(mods[min(i, j)]) for i in range(m) for j in range(m)]
    )


def random_central_poly(params: PrimePower, rng, degree: int) -> CentralPoly:
    """Uniform coefficients in [0, p^m) for powers 0..degree."""
    if not 0 <= degree < params.m:
        raise ValueError(f"degree must be in 0..{params.m - 1}")
    q = params.modulus
    return CentralPoly(params, tuple(rng.randrange(q) for _ in range(degree + 1)))
