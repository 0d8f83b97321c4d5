"""Exact linear algebra over the residue ring Z/p^m Z.

Z/p^m Z has zero divisors, so textbook Gaussian elimination does not apply:
a pivot cannot in general be scaled to 1.  Every nonzero residue does factor
as ``unit * p^v``, though, which makes minimal-valuation pivoting exact.  The
solver here runs column by column, picks the remaining entry of smallest
p-adic valuation as pivot, normalises it to ``p^v``, and eliminates every
other candidate row (all of which carry valuation >= v in that column, so the
multipliers stay integral).  Whenever a pivot has positive valuation v, the
row ``p^(m-v) * pivot_row`` is fed back in as a fresh candidate: these
"completion" rows are redundant as equations but create the extra pivots that
make bottom-up back-substitution and kernel extraction correct over a ring
with torsion.  The particular solution and every kernel generator are then
back-substituted together as the columns of one block.

One elimination routine runs on whole numpy arrays in one of three dtypes,
chosen by the modulus: uint64 with wraparound for p = 2 and m <= 64, int64
for moduli up to 2^31, and ``object`` (arbitrary-precision Python integers)
otherwise.  The pivot sequence, the results and the operation count are the
same in every dtype.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

__all__ = [
    "PrimePower",
    "ZpmSystem",
    "SolutionSet",
    "OpCounter",
    "InconsistentSystem",
    "EnumerationCapExceeded",
    "DimensionMismatch",
    "valuation",
    "howell_solve",
    "brute_solve",
    "is_solution",
    "BRUTE_FORCE_CAP",
]

#: Default ceiling on the number of candidate vectors brute_solve will walk.
BRUTE_FORCE_CAP = 1 << 24

# Miller-Rabin with this fixed witness set is deterministic below the limit
# (Sorenson & Webster); p values beyond it are rejected rather than guessed at.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


class InconsistentSystem(Exception):
    """The linear system has no solution over Z/p^m Z."""


class EnumerationCapExceeded(Exception):
    """brute_solve was asked to enumerate more candidates than its cap."""


class DimensionMismatch(ValueError):
    """A candidate vector does not match the system's column count."""


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for small in _MR_WITNESSES:
        if n == small:
            return True
        if n % small == 0:
            return False
    if n >= _MR_LIMIT:
        raise ValueError(f"cannot certify primality of {n} deterministically")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class PrimePower:
    """The modulus family p^1, ..., p^m for a fixed prime p."""

    p: int
    m: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        if not _is_prime(self.p):
            raise ValueError(f"p must be prime, got {self.p}")

    @cached_property
    def modulus(self) -> int:
        """p^m, the largest modulus of the family."""
        return self.p**self.m

    @cached_property
    def row_moduli(self) -> tuple[int, ...]:
        """(p^1, p^2, ..., p^m)."""
        return tuple(self.p**i for i in range(1, self.m + 1))


def valuation(x: int, params: PrimePower) -> int:
    """Largest v <= m with p^v dividing x; m exactly when x is 0 mod p^m."""
    p = params.p
    x %= params.modulus
    if x == 0:
        return params.m
    if p == 2:
        return (x & -x).bit_length() - 1
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


class OpCounter:
    """Accumulates the solver's count of multiplications mod p^m.

    The count is deterministic for a fixed input and identical in every
    dtype the solver runs in: every row operation is charged by its slice
    width whether or not individual entries happen to be zero.
    """

    __slots__ = ("muls",)

    def __init__(self):
        self.muls = 0

    def add(self, n: int) -> None:
        self.muls += n

    def __repr__(self):
        return f"OpCounter(muls={self.muls})"


@dataclass(frozen=True)
class ZpmSystem:
    """A linear system coeffs . x = rhs over Z/p^m Z, stored canonically."""

    params: PrimePower
    coeffs: tuple[tuple[int, ...], ...]
    rhs: tuple[int, ...]

    def __post_init__(self):
        q = self.params.modulus
        coeffs = tuple(tuple(int(v) % q for v in row) for row in self.coeffs)
        rhs = tuple(int(v) % q for v in self.rhs)
        if not coeffs or not coeffs[0]:
            raise ValueError("system needs at least one row and one column")
        cols = len(coeffs[0])
        if any(len(row) != cols for row in coeffs):
            raise ValueError("ragged coefficient rows")
        if len(rhs) != len(coeffs):
            raise ValueError("rhs length does not match row count")
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "rhs", rhs)

    @property
    def rows(self) -> int:
        return len(self.coeffs)

    @property
    def cols(self) -> int:
        return len(self.coeffs[0])


@dataclass(frozen=True)
class SolutionSet:
    """Particular solution plus generators of the homogeneous solutions.

    The full solution set is ``particular + sum t_k * kernel[k]`` over all
    coefficient choices t_k in Z/p^m Z.  Generators are neither minimal nor
    unique; only the spanned set is meaningful.
    """

    params: PrimePower
    particular: tuple[int, ...]
    kernel: tuple[tuple[int, ...], ...]

    def random_solution(self, rng) -> tuple[int, ...]:
        """particular plus a uniformly weighted kernel combination."""
        q = self.params.modulus
        x = list(self.particular)
        for gen in self.kernel:
            w = rng.randrange(q)
            if w:
                x = [(a + w * g) % q for a, g in zip(x, gen)]
        return tuple(x)


#: Rows per in-place elimination update.  Bounds the temporaries, which on the
#: object path hold one Python int per entry.
_CHUNK_ROWS = 32


def _arith(params: PrimePower, backend):
    """(dtype, in-place reduction mod q, row @ block mod q) for the modulus.

    uint64 for p = 2, m <= 64: 2^m divides 2^64, so masking after C
    wraparound is exact.  int64 for q <= 2^31: products stay below 2^62.
    Python ints in an object array otherwise, or when ``backend="python"``.
    """
    q = params.modulus
    if backend not in (None, "numpy", "python"):
        raise ValueError(f"unknown backend {backend!r}")
    if backend != "python" and params.p == 2 and params.m <= 64:
        mask = np.uint64(q - 1)
        return (
            np.uint64,
            lambda a: np.bitwise_and(a, mask, out=a),
            lambda row, block: row @ block & mask,
        )
    if backend != "python" and q <= 2**31:
        return (
            np.int64,
            lambda a: np.remainder(a, q, out=a),
            lambda row, block: (row[:, None] * block % q).sum(axis=0) % q,
        )
    if backend == "numpy":
        raise ValueError("modulus too large for the numpy backend")
    return (
        object,
        lambda a: np.remainder(a, q, out=a),
        lambda row, block: row @ block % q,
    )


def _find_pivot(column, p: int):
    """(valuation, index) of the earliest entry of minimal p-adic valuation,
    or None when the column is zero."""
    if not column.any():
        return None
    if p == 2:
        # A bit test: p^(v+1) itself overflows uint64 at m = 64.
        acc = int(np.bitwise_or.reduce(column))
        v = (acc & -acc).bit_length() - 1
        hit = column & (1 << v) != 0
    else:
        v, pk = 0, p
        while not (hit := column % pk != 0).any():
            v, pk = v + 1, pk * p
    return v, int(hit.argmax())


def _echelon(system: ZpmSystem, dtype, reduce, counter: OpCounter):
    """Eliminate column by column; return the normalised pivot rows and the
    (column, valuation) of each, or raise InconsistentSystem."""
    p, m, q = system.params.p, system.params.m, system.params.modulus
    c = system.cols
    # Rows are augmented: c coefficients, then the rhs.  The n candidate rows
    # stay compacted at the top of `cand`, in candidate order; a pivot removes
    # one and adds at most one completion row.
    cand = np.array([row + (b,) for row, b in zip(system.coeffs, system.rhs)], dtype)
    n = system.rows
    prows = np.zeros((c, c + 1), dtype)
    pivots = []  # (column, valuation) of prows[0], prows[1], ...
    for col in range(c):
        found = _find_pivot(cand[:n, col], p)
        if found is None:
            continue
        v, i = found
        prow = prows[len(pivots)]
        prow[:] = cand[i]
        cand[i : n - 1] = cand[i + 1 : n]
        n -= 1
        # Clear the freed slot: a completion row written there needs zeros
        # before col, and a stale copy would keep Python ints alive.
        cand[n] = 0
        pv = p**v
        unit = int(prow[col]) // pv
        if unit != 1:
            prow[col:] *= pow(unit, -1, q)
            reduce(prow[col:])
        # Zero entries get a zero multiplier rather than a skip, so the count
        # is the elimination's full cubic operation count.
        counter.add((c + 1 - col) * (1 + n))
        for s in range(0, n, _CHUNK_ROWS):
            block = cand[s : min(s + _CHUNK_ROWS, n), col:]
            block -= block[:, :1] // pv * prow[col:]
            reduce(block)
        pivots.append((col, v))
        if v > 0:
            counter.add(c + 1 - col)
            cand[n, col:] = prow[col:] * p ** (m - v)
            reduce(cand[n, col:])
            if cand[n, col + 1 :].any():
                n += 1

    # Leftover candidates have zero coefficients: every column was either
    # pivoted (entry eliminated exactly) or skipped (entries already zero).
    if cand[:n, c].any():
        raise InconsistentSystem("contradictory zero row")
    return prows, pivots


def howell_solve(
    system: ZpmSystem,
    *,
    with_kernel: bool = True,
    counter: OpCounter | None = None,
    backend: str | None = None,
) -> SolutionSet:
    """Solve coeffs . x = rhs over Z/p^m Z, or raise InconsistentSystem.

    Returns a SolutionSet whose particular + kernel span exactly the full
    solution set.  Deterministic: pivots are chosen by minimal p-adic
    valuation, earliest candidate row on ties, and the result is identical
    for every ``backend``: None picks the dtype from the modulus, "numpy"
    refuses moduli no machine integer holds, "python" forces Python ints.
    ``with_kernel=False`` skips kernel generation when only the particular
    solution is needed.
    """
    params = system.params
    p, m, c = params.p, params.m, system.cols
    if counter is None:
        counter = OpCounter()
    dtype, reduce, rowblock = _arith(params, backend)
    prows, pivots = _echelon(system, dtype, reduce, counter)

    # One back-substitution for a block of x: column 0 is the particular
    # solution, the others are kernel generators seeded with 1 at each free
    # column, then with p^(m-v) at each torsion pivot.
    seeds = []
    if with_kernel:
        pivot_cols = {col for col, _ in pivots}
        seeds = [(f, 1) for f in range(c) if f not in pivot_cols]
        seeds += [(col, p ** (m - v)) for col, v in pivots if v > 0]
    x = np.zeros((c, 1 + len(seeds)), dtype)
    for j, (col, value) in enumerate(seeds, start=1):
        x[col, j] = value
    # Torsion pivot column -> its generator (seed p^(m-v) > 1), whose seed stays.
    kept = {col: j for j, (col, value) in enumerate(seeds, start=1) if value != 1}
    for k in reversed(range(len(pivots))):
        col, v = pivots[k]
        counter.add(c - col - 1)
        d = -rowblock(prows[k, col + 1 : c], x[col + 1 :])
        d[:1] += prows[k, c:]
        reduce(d)
        if col in kept:
            d[kept[col]] = 0
        if v > 0:
            if (d % p**v).any():
                # Completion rows guarantee this never fires on kernel columns.
                raise InconsistentSystem(f"no preimage for pivot column {col}")
            d //= p**v
        x[col] += d
    # The generators' share, charged as separate passes would be: a torsion
    # generator skips its own pivot row.
    width = sum(c - col - 1 for col, _ in pivots)
    counter.add(width * len(seeds) - sum(c - col - 1 for col in kept))

    cols = [tuple(x[:, j].tolist()) for j in range(x.shape[1])]
    return SolutionSet(params, cols[0], tuple(cols[1:]))


def is_solution(system: ZpmSystem, x: Sequence[int]) -> bool:
    """True iff coeffs . x = rhs holds row-wise mod p^m."""
    if len(x) != system.cols:
        raise DimensionMismatch(f"expected {system.cols} entries, got {len(x)}")
    q = system.params.modulus
    return all(
        (sum(a * xi for a, xi in zip(row, x)) - b) % q == 0
        for row, b in zip(system.coeffs, system.rhs)
    )


def brute_solve(system: ZpmSystem, cap: int = BRUTE_FORCE_CAP) -> list[tuple[int, ...]]:
    """Every solution of the system, in lexicographic order, by enumeration.

    Independent of howell_solve on purpose: this is the test oracle.  Raises
    EnumerationCapExceeded when q^cols exceeds ``cap``.
    """
    q = system.params.modulus
    c = system.cols
    total = q**c
    if total > cap:
        raise EnumerationCapExceeded(f"{total} candidates exceed cap {cap}")

    candidates = itertools.product(range(q), repeat=c)
    if q <= 2**31 and c * (q - 1) ** 2 < 2**62:
        coeffs = np.array(system.coeffs, dtype=np.int64)
        rhs = np.array(system.rhs, dtype=np.int64)
        sols = []
        while True:
            batch = list(itertools.islice(candidates, 1 << 16))
            if not batch:
                return sols
            arr = np.array(batch, dtype=np.int64)
            ok = ((arr @ coeffs.T - rhs) % q == 0).all(axis=1)
            sols.extend(tuple(int(v) for v in row) for row in arr[ok])

    return [x for x in candidates if is_solution(system, x)]
