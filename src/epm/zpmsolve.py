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
``PANEL`` columns.  A panel with trailing columns and float64 stacks
(below) is left-looking, with delayed updates (FFLAS): it records each
pivot's multipliers, a column takes the panel's earlier pivots in one
product when the loop reaches it, and a pivot row catches up over all its
remaining columns in one product, so the completion test sees the row as
the unblocked elimination would.  After the panel one product
``trailing -= multipliers @ pivot rows`` brings every other row up to
date.  The last panel holds the rhs, has no trailing columns and takes its
rank-1 updates eagerly, as panels without float64 stacks do; their pivot
rows catch up on the trailing columns alone.  Candidates keep their
slots: a pivot's completion row takes its slot, and one key per slot (the
row's index, or the next key for a completion row) breaks valuation ties
in candidate order, so no row moves.  Back-substitution runs in
blocks of ``PANEL`` pivots, right-looking: the rows later blocks solved and
the block's seeds enter as one product, and each solved row, divided by
p^v, leaves one rank-1 update on the rows above it; a one-column x is
solved in Python ints.  The pivot sequence, the results and the operation
count are those of the unblocked elimination, in every dtype of
:class:`~epm.residues.Residues`.

Back-substitution skips the torsion generators that are their seed alone.
Take the one seeded p^(m-v) at the column col of a pivot of valuation v.
Pivot rows are zero left of their pivot, so the generator's own row and
every later one read only its zeros past col.  If every pivot row is
0 mod p^v at col, each earlier row's term prows[k, col] p^(m-v) is
0 mod q: from the last row up each meets the residue 0, and the generator
stays its seed.  Otherwise the last earlier row that is not meets a
nonzero residue, and the generator is nonzero there: the test is exact.

Rank-1 updates are subtracted unreduced (FFLAS's delayed reduction), and
values are reduced where they are read: the pivot column before its pivot
search, the pivot row's panel part when it is taken out, a block's row of
x before it is solved, and the rhs before the consistency check.  Only
int64 bounds the deferral, from the pivots' valuations rather than q
(Storjohann & Mulders): a pivot of valuation v has multipliers, and a
solved row divided by p^v has entries, below p^(m-v), and the block is
reduced before its bound would reach 2^63 (:meth:`Residues.submul`).
Products pass :meth:`Residues.submatmul` such bounds: a panel's, spread
(q - 1) for the multipliers' summed bounds; a block's, (q - 1) times the
bounds of the rows of x it reads.  On int64 one row takes one ``@`` below
2^63, more rows one GEMM below 2^53.  With a :meth:`Residues.plan` for the
panel, or 64 (q - 1)^2 < 2^53, the panel's stacks are float64: with a plan
a pivot's multipliers split into limbs, each paired with the pivot row
times 2^(bits i) mod q, and every product is one exact GEMM.  uint32
past m = 23, int64 from about 2^36 (3^23, 5^16), uint64 and ``object``
have none: their column reads would take limbs or Python ints, and
left-looking read slower at 3^31 and 5^21.
A completion row is p^(m-v) (x mod p^v), one reduction and one product
below q.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .oracle import (
    BRUTE_FORCE_CAP,
    DimensionMismatch,
    EnumerationCapExceeded,
    _is_prime,
    brute_solve,
    is_solution,
)
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


class InconsistentSystem(Exception):
    """The linear system has no solution over Z/p^m Z.  ``column`` is the
    pivot column without a preimage, None for a contradictory zero row."""

    def __init__(self, message: str, column: int | None = None):
        super().__init__(message)
        self.column = column


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

def _find_pivot(column, keys, p: int):
    """(valuation, slot) of the entry of minimal p-adic valuation whose slot
    has the least key, or None when the column is zero."""
    if p == 2:
        # A bit test, as p^(v+1) overflows uint64 at m = 64; no bit: zero.
        acc = int(np.bitwise_or.reduce(column))
        if not acc:
            return None
        low = acc & -acc
        v, hits = low.bit_length() - 1, column & low
    else:
        if not np.count_nonzero(column):
            return None
        # The gcd's valuation is the column's least; one pass finds its entries.
        g, v = int(np.gcd.reduce(column)), 0
        while g % p ** (v + 1) == 0:
            v += 1
        hits = column % p ** (v + 1) != 0
    r = int(hits.argmax())
    if keys[r] != r:
        # Slot r holds a completion row; an earlier key may tie it.
        slots = np.flatnonzero(hits)
        r = int(slots[keys[slots].argmin()])
    return v, r


def _echelon(system: ZpmSystem, res: Residues, counter: OpCounter):
    """Eliminate column by column; return the normalised pivot rows and the
    (column, valuation) of each, or raise InconsistentSystem.  ``res`` is
    the system's residues, or Python ints with ``backend="python"``."""
    p, m, q = system.params.p, system.params.m, system.params.modulus
    c, n = system.cols, system.rows
    # Rows are augmented: c coefficients, then the rhs.  `cand` holds them
    # transposed, candidate r in slot cand[:, r], so that each update runs
    # along whole rows of the array.  A pivot zeroes its slot from its
    # column on, or fills it with its completion row.  keys[r] orders the
    # candidates: an original row keeps its index, and each completion row
    # takes the next key.  n counts the candidates.
    cand = system.aug.T.astype(res.dtype, order="C")
    keys, key = np.arange(n), n
    prows = np.zeros((c, c + 1), res.dtype)
    pivots = []  # (column, valuation) of prows[0], prows[1], ...
    # A panel with trailing columns records multipliers: mults[l, r]
    # multiplies row l of `stack`, the panel's pivot rows from c0 on, into
    # slot r.  With a plan a pivot of valuation v takes limbs[v] rows, the
    # limbs of its multipliers and its row's copies (Residues.stacked).
    # With a plan or PANEL <= k_max the stacks are float64, and each product
    # is one exact GEMM.  bounds[v] bounds the limbs' sum: a number's limbs
    # sum to at most its value.
    plan = res.plan(PANEL) if c > PANEL else None
    floats = c > PANEL and bool(plan or PANEL <= res.k_max)
    count, bits = plan or (1, q.bit_length())
    limbs = [-(-(p ** (m - v) - 1).bit_length() // bits) for v in range(m)]
    bounds = [min(p ** (m - v) - 1, k * ((1 << bits) - 1)) for v, k in enumerate(limbs)]
    mults = np.zeros((count * PANEL, n), float if floats else res.dtype) if c > PANEL else None
    rows = np.empty((count * PANEL, c + 1)) if floats else None
    for c0 in range(0, c, PANEL):
        # A panel with trailing columns and float64 stacks is left-looking:
        # a column takes the panel's earlier pivots when the loop reaches
        # it, and a pivot row over all its remaining columns.  Other panels
        # take rank-1 updates eagerly: the last, which carries the rhs and
        # leaves no trailing columns, and those without float64 stacks,
        # whose pivot rows catch up on the trailing columns alone.
        c1 = c0 + PANEL if c0 + PANEL < c else c + 1
        trailing, first = c1 <= c, len(pivots)
        left = trailing and floats
        stack = rows[:, : c + 1 - c0] if floats else prows[first:, c0:]
        # cand[c0:c1] lies in [-low, q), so each read of it reduces first.
        # mults has `used` rows so far; spread bounds their column sums, so
        # every product with them is at most spread (q - 1).
        low = spread = used = 0
        for col in range(c0, min(c1, c)):
            if used and left:
                res.submatmul(cand[None, col], stack[None, :used, col - c0], mults[:used],
                              spread * (q - 1))
            elif low:
                res.reduce(cand[col])
            found = _find_pivot(cand[col], keys, p)
            if found is None:
                continue
            v, r = found
            prow = prows[len(pivots)]
            prow[col:] = cand[col:, r]
            cand[col, r] = 0
            n -= 1
            if used and np.count_nonzero(mults[:used, r]):
                s0 = col + 1 if left else c1
                res.submatmul(prow[None, s0:], mults[None, :used, r], stack[:used, s0 - c0 :],
                              spread * (q - 1))
                mults[:used, r] = 0
            if low:
                res.reduce(prow[col + 1 : c1])
            pv = p**v
            unit = int(prow[col]) // pv
            if unit != 1:
                prow[col:] = res.mul(prow[col:], pow(unit, -1, q))
            # Zero entries are charged too: the full cubic operation count.
            counter.add((c + 1 - col) * (1 + n))
            mult = cand[col] // pv
            top = p ** (m - v)
            if not left:
                low = res.submul(cand[col + 1 : c1], prow[col + 1 : c1, None], mult, top, low)
            if trailing:
                k = limbs[v]
                spread += bounds[v]
                if k > 1:
                    stack[used : used + k, col + 1 - c0 :], mults[used : used + k] = res.stacked(
                        prow[col + 1 :], mult, k, bits)
                else:
                    mults[used] = mult
                    if floats:
                        stack[used, col + 1 - c0 :] = prow[col + 1 :]
                used += k
            pivots.append((col, v))
            if v > 0:
                counter.add(c + 1 - col)
                # p^(m-v) x mod p^m = p^(m-v) (x mod p^v), below q: exact in
                # every dtype, as p^v and p^(m-v) fit it.
                comp = res.rem(prow[None, col + 1 :], (pv,))[0] * top
                cand[col + 1 :, r] = comp
                keys[r], key = key, key + 1
                n += bool(np.count_nonzero(comp))
                del comp  # not held into the next pivot's temporaries
            else:
                cand[col + 1 :, r] = 0
        if used:
            res.submatmul(cand[c1:], stack[:used, c1 - c0 :].T, mults[:used], spread * (q - 1))

    # Leftover candidates have zero coefficients: every column was either
    # pivoted (entry eliminated exactly) or skipped (entries already zero).
    if low:
        res.reduce(cand[c])
    if np.count_nonzero(cand[c]):
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
    # x[j:] is at most after[j] (q - 1); one block of one column reads
    # none.  Before its block is solved a row of x holds its seed alone, at
    # most seeded[j].
    if len(pivots) > PANEL or xs.shape[1] > 1:
        bounds, seeded = [1] * c, [1] * c
        for col, v in pivots:
            bounds[col], seeded[col] = 2 * pw[m - v] - 1, pw[m - v] if v else 0
        after = list(itertools.accumulate(reversed(bounds), initial=0))[::-1]
    # Blocks of PANEL pivots, last block first.
    for k0 in reversed(range(0, len(pivots), PANEL)):
        k1 = min(k0 + PANEL, len(pivots))
        hi = pivots[k1][0] if k1 < len(pivots) else c
        rest = np.zeros((k1 - k0, xs.shape[1]), xs.dtype)
        rest[:, 0] = prows[k0:k1, c]
        if xs.shape[1] == 1:
            if hi < c:
                res.submatmul(rest, prows[k0:k1, hi:c], xs[hi:c], after[hi] * (q - 1))
            _solve_column(prows, pivots, k0, k1, rest, xs, counter, params)
            continue
        # Right-looking: the rows later blocks solved and the block's seeds
        # enter as one product, and each solved row, below p^(m-v) once
        # divided by p^v, leaves one rank-1 update on the rows above it.
        lo = pivots[k0][0]
        span = sum(seeded[lo:hi]) + after[hi]
        res.submatmul(rest, prows[k0:k1, lo:c], xs[lo:c], span * (q - 1))
        low = 0
        for j in reversed(range(k1 - k0)):
            col, v = pivots[k0 + j]
            counter.add(c - col - 1)
            d = rest[j]
            if low:
                res.reduce(d)
            if v > 0:
                if np.count_nonzero(res.rem(d[None], (pw[v],))):
                    # Completion rows guarantee this never fires on kernel columns.
                    raise InconsistentSystem(f"no preimage for pivot column {col}", col)
                d = d // pw[v]
            xs[col] += d
            if j and np.count_nonzero(d):
                low = res.submul(rest[:j], prows[k0 : k0 + j, col, None], d, pw[m - v], low)
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
