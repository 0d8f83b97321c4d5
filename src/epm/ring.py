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
:func:`combination_system`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .zpmsolve import (
    InconsistentSystem,
    OpCounter,
    PrimePower,
    ZpmSystem,
    howell_solve,
    valuation,
)

__all__ = [
    "EpmMatrix",
    "LiftedMatrix",
    "CentralElement",
    "CentralPoly",
    "NotAMember",
    "ParamMismatch",
    "NotInImage",
    "central_matrix",
    "lift",
    "unlift",
    "combination_system",
    "solve_combination",
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
        mods = params.row_moduli
        return cls(
            params,
            tuple(
                tuple(int(v) % mods[i] for v in row) for i, row in enumerate(raw)
            ),
        )

    @classmethod
    def zero(cls, params: PrimePower) -> "EpmMatrix":
        z = (0,) * params.m
        return cls(params, (z,) * params.m)

    @classmethod
    def identity(cls, params: PrimePower) -> "EpmMatrix":
        m = params.m
        return cls(
            params, tuple(tuple(1 if i == j else 0 for j in range(m)) for i in range(m))
        )

    def __add__(self, other):
        if not isinstance(other, EpmMatrix):
            return NotImplemented
        _same_params(self, other)
        mods = self.params.row_moduli
        return EpmMatrix(
            self.params,
            tuple(
                tuple((a + b) % mods[i] for a, b in zip(ra, rb))
                for i, (ra, rb) in enumerate(zip(self.rows, other.rows))
            ),
        )

    def __neg__(self):
        mods = self.params.row_moduli
        return EpmMatrix(
            self.params,
            tuple(
                tuple(-a % mods[i] for a in row) for i, row in enumerate(self.rows)
            ),
        )

    def __sub__(self, other):
        if not isinstance(other, EpmMatrix):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        if not isinstance(other, EpmMatrix):
            return NotImplemented
        _same_params(self, other)
        m = self.params.m
        mods = self.params.row_moduli
        cols = tuple(zip(*other.rows))
        return EpmMatrix(
            self.params,
            tuple(
                tuple(
                    sum(a * b for a, b in zip(row, col)) % mods[i] for col in cols
                )
                for i, row in enumerate(self.rows)
            ),
        )

    def __rmul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        return NotImplemented

    def scale(self, r: int) -> "EpmMatrix":
        """Scalar action of r in Z/p^m Z: entry-wise product mod p^i."""
        mods = self.params.row_moduli
        r %= self.params.modulus
        return EpmMatrix(
            self.params,
            tuple(
                tuple(r * a % mods[i] for a in row) for i, row in enumerate(self.rows)
            ),
        )

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
    z %= params.modulus
    m = params.m
    mods = params.row_moduli
    return EpmMatrix(
        params,
        tuple(
            tuple(z % mods[i] if i == j else 0 for j in range(m)) for i in range(m)
        ),
    )


@dataclass(frozen=True)
class CentralElement:
    """A residue mod p^m identified with its diagonal central matrix."""

    params: PrimePower
    z: int

    def __post_init__(self):
        object.__setattr__(self, "z", self.z % self.params.modulus)

    def matrix(self) -> EpmMatrix:
        return central_matrix(self.params, self.z)

    @classmethod
    def from_matrix(cls, a: EpmMatrix) -> "CentralElement":
        if not a.is_central():
            raise NotAMember("matrix is not central")
        return cls(a.params, a.rows[-1][-1])


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
        if m_mat.params != self.params:
            raise ParamMismatch(f"{m_mat.params} vs {self.params}")
        acc = EpmMatrix.zero(self.params)
        power = EpmMatrix.identity(self.params)
        for k, ck in enumerate(self.coeffs):
            if k:
                power = power * m_mat
            acc = acc + power.scale(ck)
        return acc


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
    params = f.params
    p, m = params.p, params.m
    mods = params.row_moduli
    return EpmMatrix(
        params,
        tuple(
            tuple(v // p ** (m - 1 - i) % mods[i] for v in row)
            for i, row in enumerate(f.rows)
        ),
    )


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
    rhs = lift(target).flatten()
    coeffs = tuple(tuple(col[idx] for col in lifted) for idx in range(len(rhs)))
    return ZpmSystem(params, coeffs, rhs)


def solve_combination(
    basis: Sequence[EpmMatrix],
    target: EpmMatrix,
    *,
    counter: OpCounter | None = None,
) -> tuple[int, ...]:
    """One coefficient vector expressing target over the basis, if any."""
    sol = howell_solve(
        combination_system(basis, target), with_kernel=False, counter=counter
    )
    return sol.particular


def cayley_hamilton_coeffs(a: EpmMatrix) -> tuple[int, ...]:
    """Residues (a_0, ..., a_{m-1}) with a^m = sum_k a_k * a^k.

    Such coefficients always exist (the ring acts on a module generated by m
    elements) and are generally not unique; the solver's deterministic
    particular solution is returned.
    """
    m = a.params.m
    powers = [EpmMatrix.identity(a.params)]
    for _ in range(m):
        powers.append(powers[-1] * a)
    try:
        return solve_combination(powers[:m], powers[m])
    except InconsistentSystem as exc:  # pragma: no cover - would be a bug
        raise RuntimeError("power reduction must always be solvable") from exc


def random_matrix(params: PrimePower, rng) -> EpmMatrix:
    """Uniform draw from the ring.

    Entry (i, j) is p^max(i-j,0) * t with t uniform below p^(min(i,j)+1);
    that parametrises the membership set bijectively, so the draw is uniform
    and membership holds by construction.
    """
    p = params.p
    m = params.m
    rows = []
    for i in range(m):
        row = []
        for j in range(m):
            t = rng.randrange(params.row_moduli[min(i, j)])
            row.append(t * p ** max(i - j, 0))
        rows.append(tuple(row))
    return EpmMatrix(params, tuple(rows))


def random_central_poly(params: PrimePower, rng, degree: int) -> CentralPoly:
    """Uniform coefficients in [0, p^m) for powers 0..degree."""
    if not 0 <= degree < params.m:
        raise ValueError(f"degree must be in 0..{params.m - 1}")
    q = params.modulus
    return CentralPoly(params, tuple(rng.randrange(q) for _ in range(degree + 1)))
