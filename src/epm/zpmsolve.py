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

One elimination routine runs on whole numpy arrays, blocked in panels of
``PANEL`` columns.  Inside a panel it pivots and eliminates as above, but
only on the panel's columns, and records each pivot's multipliers.  A pivot
row first catches up on the panel's earlier pivots in its trailing columns,
so the completion test sees the row as the unblocked elimination would.
After the panel, one product ``trailing -= multipliers @ pivot rows``
brings every other row's trailing columns up to date; the last panel holds
the rhs and needs none.  Candidate order is an index array and a pivot
frees its row's slot for the next completion row, so no row moves.
Back-substitution runs in blocks of ``PANEL`` pivots: the rows that later
blocks solved enter as one product, and the block's own rows are solved in
turn, as a torsion pivot divides by p^v; a one-column x in Python ints.
The pivot sequence, the results and the operation count are those of the
unblocked elimination, in every dtype of :class:`~epm.residues.Residues`.

Back-substitution skips the torsion generators that are their seed alone.
Take the one seeded p^(m-v) at the column col of a pivot of valuation v.
Pivot rows are zero left of their pivot, so the generator's own row and
every later one read only its zeros past col.  If every pivot row is
0 mod p^v at col, each earlier row's term prows[k, col] p^(m-v) is
0 mod q: from the last row up each meets the residue 0, and the generator
stays its seed.  Otherwise the last earlier row that is not meets a
nonzero residue, and the generator is nonzero there: the test is exact.

The rank-1 updates of a panel are subtracted unreduced (FFLAS's delayed
reduction), and values are reduced where they are read: the pivot column
before its pivot search, the pivot row's panel part when it is taken out,
and the rhs before the consistency check.  Only int64 bounds the deferral,
from the pivots' valuations rather than q (Storjohann & Mulders): a pivot
of valuation v has multipliers below p^(m-v), and the panel is reduced
before its bound would reach 2^63 (:meth:`Residues.submul`).  Products
pass :meth:`Residues.submatmul` such bounds, from the multipliers or the
rows of x: on int64 one row takes one ``@`` below 2^63, more rows one GEMM
below 2^53.  With a :meth:`Residues.plan` for the panel, a pivot's
multipliers split into limbs, each paired with the pivot row times
2^(bits i) mod q once the row is final, so each catch-up is one ``@`` and
each trailing update one GEMM.  A completion row is p^(m-v) (x mod p^v),
one reduction and one product below q.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .residues import Residues

__all__ = [
    "PrimePower",
    "ZpmSystem",
    "SolutionSet",
    "OpCounter",
    "Residues",
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
    """The linear system has no solution over Z/p^m Z.  ``column`` is the
    pivot column without a preimage, None for a contradictory zero row."""

    def __init__(self, message: str, column: int | None = None):
        super().__init__(message)
        self.column = column


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

    The count is deterministic and the same in every dtype: each row
    operation is charged by its slice width, zero entries included.
    """

    __slots__ = ("muls",)

    def __init__(self):
        self.muls = 0

    def add(self, n: int) -> None:
        self.muls += n

    def __repr__(self):
        return f"OpCounter(muls={self.muls})"


class ZpmSystem:
    """A linear system coeffs . x = rhs over Z/p^m Z, stored canonically.

    ``aug`` is one read-only residue array, coeffs | rhs, in the dtype
    :meth:`Residues.of` picks.  ``coeffs`` and ``rhs`` are given as integer
    numpy arrays or as sequences of integers, and read back as tuples.
    """

    def __init__(self, params: PrimePower, coeffs, rhs):
        self.params, q = params, params.modulus
        # Sequences entry by entry, exact for numpy scalars and ints past 2^64.
        if not isinstance(coeffs, np.ndarray):
            coeffs = np.array([[int(v) % q for v in row] for row in coeffs], object)
        if not isinstance(rhs, np.ndarray):
            rhs = np.array([int(v) % q for v in rhs], object)
        if not coeffs.size:
            raise ValueError("system needs at least one row and one column")
        if coeffs.ndim != 2:
            raise ValueError("ragged coefficient rows")
        if rhs.shape != coeffs.shape[:1]:
            raise ValueError("rhs length does not match row count")
        self.rows, self.cols = coeffs.shape
        res = Residues.of(params)
        if coeffs.dtype != res.dtype or rhs.dtype != res.dtype:
            # Reduced exactly as Python ints first.
            coeffs, rhs = coeffs.astype(object) % q, rhs.astype(object) % q
        aug = np.column_stack((coeffs, rhs)).astype(res.dtype, copy=False)
        self.aug = res.reduce(aug)
        self.aug.flags.writeable = False

    @cached_property
    def coeffs(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, self.aug[:, :-1].tolist()))

    @cached_property
    def rhs(self) -> tuple[int, ...]:
        return tuple(self.aug[:, -1].tolist())

    def __eq__(self, other):
        same = isinstance(other, ZpmSystem) and self.params == other.params
        return same and np.array_equal(self.aug, other.aug)


class SolutionSet:
    """Particular solution plus generators of the homogeneous solutions.

    The full solution set is ``particular + sum t_k * kernel[k]`` over all
    coefficient choices t_k in Z/p^m Z.  Generators are neither minimal nor
    unique; only the spanned set is meaningful.

    ``x`` is the read-only back-substitution block: column 0 is the
    particular solution, the others the kernel.  :func:`howell_solve` returns
    it in the dtype of the system's array, ``object`` with Python ints.
    """

    def __init__(self, params: PrimePower, x: np.ndarray):
        self.params = params
        x.flags.writeable = False
        self.x = x

    @cached_property
    def particular(self) -> tuple[int, ...]:
        return tuple(self.x[:, 0].tolist())

    @cached_property
    def kernel(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, self.x[:, 1:].T.tolist()))

    def __eq__(self, other):
        same = isinstance(other, SolutionSet) and self.params == other.params
        return same and np.array_equal(self.x, other.x)

    def random_solution(self, rng) -> tuple[int, ...]:
        """particular plus a uniformly weighted kernel combination, computed
        in the dtype of x."""
        q, x = self.params.modulus, self.x
        res = Residues.of(self.params, "python" if x.dtype == object else None)
        w = [[1]] + [[rng.randrange(q)] for _ in range(x.shape[1] - 1)]
        return tuple(res.matmul(x, np.array(w, x.dtype))[:, 0].tolist())


#: Columns per elimination panel, and pivots per back-substitution block.
PANEL = 64

def _find_pivot(column, p: int):
    """(valuation, index) of the earliest entry of minimal p-adic valuation,
    or None when the column is zero."""
    if p == 2:
        # A bit test, as p^(v+1) overflows uint64 at m = 64; no bit: zero.
        acc = int(np.bitwise_or.reduce(column))
        low = acc & -acc
        return (low.bit_length() - 1, int((column & low).argmax())) if acc else None
    if not column.any():
        return None
    # The gcd's valuation is the column's least; one pass finds its entry.
    g, v = int(np.gcd.reduce(column)), 0
    while g % p ** (v + 1) == 0:
        v += 1
    return v, int((column % p ** (v + 1) != 0).argmax())


def _echelon(system: ZpmSystem, res: Residues, counter: OpCounter):
    """Eliminate column by column; return the normalised pivot rows and the
    (column, valuation) of each, or raise InconsistentSystem.  ``res`` is
    the system's residues, or Python ints with ``backend="python"``."""
    p, m, q = system.params.p, system.params.m, system.params.modulus
    c, n = system.cols, system.rows
    # Rows are augmented: c coefficients, then the rhs.  `cand` holds them
    # transposed, candidate row r in cand[:, r], so that each update runs
    # along whole rows of the array.  The candidates are the rows order[:n],
    # in candidate order; order[n:] are free slots, zero from the current
    # column on.  A pivot frees its slot, and a completion row takes the
    # slot at order[n].
    cand = system.aug.T.astype(res.dtype, order="C")
    order = np.arange(n)
    prows = np.zeros((c, c + 1), res.dtype)
    pivots = []  # (column, valuation) of prows[0], prows[1], ...
    # For the trailing GEMM, mults[l, r] multiplies row l of `stack`, the
    # panel's pivot rows past it, into row r.  With a plan a pivot of
    # valuation v takes limbs[v] rows, the limbs of its multipliers and its
    # row's copies (Residues.stacked), in float64.  bounds[v] bounds their
    # sum: a number's limbs sum to at most its value.
    plan = res.plan(PANEL) if c > PANEL else None
    count, bits = plan or (1, q.bit_length())
    limbs = [-(-(p ** (m - v) - 1).bit_length() // bits) for v in range(m)]
    bounds = [min(p ** (m - v) - 1, k * ((1 << bits) - 1)) for v, k in enumerate(limbs)]
    mults = np.zeros((count * PANEL, n), float if plan else res.dtype) if c > PANEL else None
    shifted = np.empty((count * PANEL, c + 1 - PANEL)) if plan else None
    for c0 in range(0, c, PANEL):
        # The last panel carries the rhs and leaves no trailing columns.
        c1 = c0 + PANEL if c0 + PANEL < c else c + 1
        trailing, first = c1 <= c, len(pivots)
        stack = shifted[:, : c + 1 - c1] if plan else prows[first:, c1:]
        # cand[c0:c1] lies in [-low, q), so each read of it reduces first.
        # mults has `used` rows so far; spread bounds their column sums.
        low = spread = used = 0
        for col in range(c0, min(c1, c)):
            if low:
                res.reduce(cand[col])
            found = _find_pivot(cand[col, order[:n]], p)
            if found is None:
                continue
            v, i = found
            r = order[i]
            prow = prows[len(pivots)]
            prow[col:] = cand[col:, r]
            if low:
                res.reduce(prow[col + 1 : c1])
            cand[col:, r] = 0
            order[i : n - 1] = order[i + 1 : n]
            order[n - 1] = r
            n -= 1
            if trailing and mults[:used, r].any():
                # The trailing part still lacks this panel's earlier pivots;
                # their products with residues sum to at most spread (q - 1).
                res.submatmul(prow[None, c1:], mults[None, :used, r], stack[:used], spread * (q - 1))
                mults[:used, r] = 0
            pv = p**v
            unit = int(prow[col]) // pv
            if unit != 1:
                prow[col:] = res.mul(prow[col:], pow(unit, -1, q))
            # Zero entries are charged too: the full cubic operation count.
            counter.add((c + 1 - col) * (1 + n))
            mult = cand[col] // pv
            top = p ** (m - v)
            low = res.submul(cand[col + 1 : c1], prow[col + 1 : c1, None], mult, top, low)
            if trailing:
                k = limbs[v]
                spread += bounds[v]
                if k > 1:
                    stack[used : used + k], mults[used : used + k] = res.stacked(
                        prow[c1:], mult, k, bits)
                else:
                    mults[used] = mult
                    if plan:
                        stack[used] = prow[c1:]
                used += k
            pivots.append((col, v))
            if v > 0:
                counter.add(c + 1 - col)
                # p^(m-v) x mod p^m = p^(m-v) (x mod p^v), below q: exact in
                # every dtype, as p^v and p^(m-v) fit it.
                comp = prow[col:] % pv * top
                cand[col:, r] = comp
                n += bool(comp[1:].any())
                del comp  # not held into the next pivot's temporaries
        if used:
            res.submatmul(cand[c1:], stack[:used].T, mults[:used], spread * (q - 1))

    # Leftover candidates have zero coefficients: every column was either
    # pivoted (entry eliminated exactly) or skipped (entries already zero).
    if low:
        res.reduce(cand[c])
    if cand[c, order[:n]].any():
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
    for every ``backend``: None takes the dtype :meth:`Residues.of` picks
    from the modulus, "python" forces Python ints.  ``with_kernel=False``
    skips the kernel.
    """
    params = system.params
    p, m, q, c = params.p, params.m, params.modulus, system.cols
    if counter is None:
        counter = OpCounter()
    res = Residues.of(params, backend)
    prows, pivots = _echelon(system, res, counter)

    # One back-substitution for a block of x: column 0 is the particular
    # solution, the others are kernel generators seeded with 1 at each free
    # column, then with p^(m-v) at each torsion pivot.
    pw = [p**v for v in range(m + 1)]
    seeds, torsion = [], []
    if with_kernel:
        pivot_cols = {col for col, _ in pivots}
        torsion = [(col, v) for col, v in pivots if v > 0]
        seeds = [(f, 1) for f in range(c) if f not in pivot_cols]
        seeds += [(col, pw[m - v]) for col, v in torsion]
    x = np.zeros((c, 1 + len(seeds)), res.dtype)
    for j, (col, value) in enumerate(seeds, start=1):
        x[col, j] = value
    # Back-substitute only the particular column, the free generators and
    # the live torsion generators, as the block xs of x: a torsion generator
    # whose column is 0 mod p^v in every pivot row is its seed (module
    # docstring).  A chunk of columns reads only the rows of pivots left of
    # its end.
    live = [True] * (x.shape[1] - len(torsion))
    if torsion:
        flags, divs = [], [1] * c
        for col, v in torsion:
            divs[col] = pw[v]
        for c0 in range(0, c, PANEL):
            c1 = min(c0 + PANEL, c)
            rows = prows[: bisect.bisect_left(pivots, (c1,)), c0:c1]
            flags += res.indivisible(rows, tuple(divs[c0:c1])).any(axis=0).tolist()
        live += [flags[col] for col, _ in torsion]
    xs = x if all(live) else x[:, live]
    # Rows of x are at most 1 at a free column and below 2 p^(m-v) at a
    # pivot of valuation v: the seed p^(m-v) plus a residue divided by p^v.
    # after[j] sums those bounds over x[j:], so a row of prows times
    # x[j:hi] is at most (after[j] - after[hi]) (q - 1); one block of one
    # column reads none.
    if len(pivots) > PANEL or xs.shape[1] > 1:
        bounds = [1] * c
        for col, v in pivots:
            bounds[col] = 2 * pw[m - v] - 1
        after = list(itertools.accumulate(reversed(bounds), initial=0))[::-1]
    # Blocks of PANEL pivots, last block first.
    for k0 in reversed(range(0, len(pivots), PANEL)):
        k1 = min(k0 + PANEL, len(pivots))
        hi = pivots[k1][0] if k1 < len(pivots) else c
        rest = np.zeros((k1 - k0, xs.shape[1]), xs.dtype)
        rest[:, 0] = prows[k0:k1, c]
        if hi < c:
            res.submatmul(rest, prows[k0:k1, hi:c], xs[hi:c], after[hi] * (q - 1))
        if xs.shape[1] == 1:
            _solve_column(prows, pivots, k0, k1, rest, xs, counter, params)
            continue
        for k in reversed(range(k0, k1)):
            col, v = pivots[k]
            counter.add(c - col - 1)
            d = rest[k - k0 : k - k0 + 1]
            span = after[col + 1] - after[hi]
            res.submatmul(d, prows[k : k + 1, col + 1 : hi], xs[col + 1 : hi], span * (q - 1))
            if v > 0:
                if (d % p**v).any():
                    # Completion rows guarantee this never fires on kernel columns.
                    raise InconsistentSystem(f"no preimage for pivot column {col}", col)
                d //= p**v
            xs[col] += d[0]
    if xs is not x:
        x[:, live] = xs
    # The generators' share, as separate passes would charge it; a torsion
    # generator skips its own pivot row, which leaves the seed as it is.
    width = sum(c - col - 1 for col, _ in pivots)
    counter.add(width * len(seeds) - sum(c - col - 1 for col, _ in torsion))

    return SolutionSet(params, x)


def _solve_column(prows, pivots, k0, k1, rest, x, counter, params) -> None:
    """Solve pivots k0..k1-1 of a one-column x in Python ints, right-looking
    from the block-start residues ``rest``: x is zero off pivot rows."""
    p, q, c = params.p, params.modulus, prows.shape[1] - 1
    cols = [col for col, _ in pivots[k0:k1]]
    r = rest[:, 0].tolist()
    above = prows[k0:k1, cols].T.tolist()  # above[j][i]: row k0+i at cols[j]
    for j in reversed(range(k1 - k0)):
        col, v = pivots[k0 + j]
        counter.add(c - col - 1)
        d = r[j] % q
        if v > 0:
            if d % p**v:
                raise InconsistentSystem(f"no preimage for pivot column {col}", col)
            d //= p**v
        r[j] = d
        if d:
            r[:j] = [ri - a * d for ri, a in zip(r, above[j][:j])]
    x[cols, 0] = r


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
