"""Residues mod p^m in numpy arrays: the array layer under the solver, the
ring and the attack.

:class:`Residues` picks one dtype from (p, m): uint32 with wraparound for
p = 2 and m <= 32, uint64 for p = 2 and m <= 64, int64 for moduli below
2^50, and ``object`` (arbitrary-precision Python integers) otherwise.  The
ring, the systems and the solver all hold this one dtype.  Products of
more than one row run on float64 BLAS GEMMs, exact by construction.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Callable

import numpy as np

if TYPE_CHECKING:
    from .zpmsolve import PrimePower

__all__ = ["Residues"]

#: Rows per GEMM and entries per float64 operand chunk, which bound the
#: temporaries.  At m <= 20 a 32-row GEMM stays below about 10^6
#: multiply-adds, which OpenBLAS runs on one thread; 64 rows took two
#: threads there, for the same wall time and twice the CPU time.
_GEMM_ROWS = 32
_GEMM_ENTRIES = 1 << 14
#: The fewest contraction terms per chunk: the solver's 64-column panels
#: (``epm.zpmsolve.PANEL``) then make a single pass.
_GEMM_TERMS = 64
#: The fewest output entries, and multiply-adds per output row, for which
#: :meth:`Residues.matmul` runs on float64 GEMMs (measured in its docstring).
_GEMM_OUTPUT = 4096
_GEMM_ROW_WORK = 512
#: Entries per temporary of the int64 :meth:`Residues.matmul` past one ``@``.
_MATMUL_ENTRIES = 1 << 16
#: The most limbs :meth:`Residues.plan` stacks: the multiply-adds of the
#: four GEMMs of two-limb operands.
_STACK_LIMBS = 4
#: The fewest int64 entries reduced as a - (a // q) q: numpy divides by a
#: scalar through libdivide, and ``np.remainder`` does not.  On numpy
#: 2.4.6, 17 us against 91 us at 12k entries, 1.9 us against 1.3 at 196.
_DIVIDE = 512


@dataclass(frozen=True)
class Residues:
    """Residues mod q = p^m held in numpy arrays of one dtype.

    :meth:`of` picks the dtype from the parameters alone:

    * uint32 masked with q - 1 for p = 2, m <= 32, and uint64 for
      33 <= m <= 64.  2^m divides 2^32 or 2^64, so sums and products taken
      with C wraparound are exact mod q.
    * int64 with ``% q`` for q <= 2^31, where one product is below 2^62.
    * int64 for 2^31 < q < 2^50, the ``wide`` tier, where one product can
      pass 2^63.  :meth:`mul` reduces each through a rounded float64
      quotient, without a division; it is proved where it is defined.
    * ``object`` arrays of Python integers otherwise, or with
      ``backend="python"``.

    :meth:`mul` returns reduced residues on every tier; :meth:`submul`
    leaves its result in [-low, q) for the ``low`` it returns.

    :meth:`submatmul`, dst -= a @ b, runs on float64 GEMMs for every
    machine-integer dtype.  Entries are integers in [0, q).  When a bound
    below 2^53 holds for every entry of a @ b, k (q-1)^2 for the
    contraction length k or a tighter one from the caller, every term and
    partial sum, all nonnegative, is an integer at most that bound, so one
    GEMM is exact in any summation order.  A factor past 2^53 (uint64 past
    m = 53) rounds when converted, but its partners are 0, as a nonzero one
    would put the term past the bound.  Otherwise each operand splits into
    ``count`` limbs of ``bits`` bits, a = sum_i a_i 2^(bits i) with
    0 <= a_i < 2^bits, and :meth:`limbs` takes the fewest limbs of the
    widest width with count k (2^bits - 1)^2 < 2^53.  The pairs (i, j) with
    i + j = s number at most ``count``, so their GEMMs summed in float64
    stay exact below 2^53.  Recombining sum_s S_s 2^(bits s): uint64
    shifts with wraparound, exact mod 2^m, and drops the shifts of m bits
    or more; uint32 then keeps its low 32 bits.  int64 runs Horner steps by
    2^bits mod q through :meth:`mul`; ``object`` multiplies Python ints.
    A one-row or one-column ``dst`` subtracts one :meth:`matmul` product
    instead, reduced once: at 2^32 three GEMMs lost up to eight rows of
    (r x 64) @ (64 x 337), at 2^20 one (64 x 327) @ (327 x 1), 38 us
    against 13.

    The stacked kernel runs an int64 product past one GEMM, k (q-1)^2 >=
    2^53, as one GEMM.  :meth:`stacked` splits b into ``count`` limbs of
    ``bits`` bits and stacks the copies a 2^(bits i) mod q along the
    contraction: a @ b = sum over i and j of (a_j 2^(bits i) mod q) times
    limb i of b_j, mod q, count k terms.  Each term is at most
    (2^bits - 1)(q - 1) and :meth:`plan` makes count k (2^bits - 1)(q - 1)
    < 2^53, so every partial sum is an exact integer below 2^53.  The
    solver stacks each pivot's limbs once its row is final; :meth:`matmul`
    stacks the products past its size gate.  The (count, bits) k terms take:

    =====  =======  =======  ==================================
    q      k = m    k = 64   kernel
    =====  =======  =======  ==================================
    3^6    --       --       one GEMM: k (q-1)^2 < 2^53
    3^16   (2, 22)  (2, 20)  stacked past k = 4
    3^20   (3, 15)  (3, 13)  stacked
    5^14   (3, 15)  (3, 12)  stacked
    3^26   --       --       q-sized limbs: a plan at k = m needs 14
    5^21   --       --       q-sized limbs: no plan past q = 2^37
    =====  =======  =======  ==================================
    """

    params: PrimePower
    dtype: type
    reduce: Callable[[np.ndarray], np.ndarray]

    @classmethod
    @functools.cache
    def of(cls, params: PrimePower, backend: str | None = None) -> "Residues":
        if backend not in (None, "python"):
            raise ValueError(f"unknown backend {backend!r}")
        q = params.modulus
        if backend is None and params.p == 2 and params.m <= 64:
            dtype = np.uint32 if params.m <= 32 else np.uint64
            mask = dtype(q - 1)
            return cls(params, dtype, lambda a: np.bitwise_and(a, mask, out=a))
        if backend is None and q < 2**50:
            return cls(params, np.int64, lambda a: np.remainder(a, q, out=a)
                       if a.size < _DIVIDE else _divide(a, q))
        return cls(params, object, lambda a: np.remainder(a, q, out=a))

    @cached_property
    def k_max(self) -> int:
        """The longest contraction one float64 GEMM takes,
        (2^53 - 1) // (q - 1)^2, on machine integers; -1 on ``object``."""
        if self.dtype is object:
            return -1
        return (2**53 - 1) // (self.params.modulus - 1) ** 2

    def rem(self, a: np.ndarray, divisors: tuple[int, ...]) -> np.ndarray:
        """Row i of ``a`` mod divisors[i], as a new array, for residues
        ``a`` and divisors of q.  On uint32 and uint64 p = 2, so a mask
        d - 1 replaces the division: 2^m itself need not fit the dtype."""
        if self.dtype in (np.uint32, np.uint64):
            return a & _column(self.dtype, tuple(d - 1 for d in divisors))
        return a % _column(self.dtype, divisors)

    def indivisible(self, a: np.ndarray, divisors: tuple[int, ...]) -> np.ndarray:
        """Whether entry (i, j) of residues ``a`` is not a multiple of
        divisors[j], a divisor of q.  On int64 p is odd, so d is a unit mod
        2^64, and x = y d with 0 <= y <= (2^64 - 1) // d exactly when
        x d^-1 mod 2^64 = y lies there, as x -> x d^-1 is one-to-one."""
        if self.dtype is not np.int64:
            return self.rem(a.T, divisors).T != 0
        index, inverses, tops = self._inverses
        v = [index[d] for d in divisors]
        return a.view(np.uint64) * inverses[v] > tops[v]

    @cached_property
    def _inverses(self) -> tuple[dict, np.ndarray, np.ndarray]:
        """v by p^v; p^-v mod 2^64 and (2^64 - 1) // p^v by v."""
        powers = [self.params.p**v for v in range(self.params.m + 1)]
        inverses = np.array([pow(d, -1, 2**64) for d in powers], np.uint64)
        tops = np.array([(2**64 - 1) // d for d in powers], np.uint64)
        return {d: v for v, d in enumerate(powers)}, inverses, tops

    @cached_property
    def wide(self) -> bool:
        """The int64 tier past 2^31, where products need :meth:`mul`."""
        return self.dtype is np.int64 and self.params.modulus > 2**31

    def mul(self, a, b):
        """a * b mod q, broadcast and reduced, for reduced ``a`` and ``b``.

        On the ``wide`` tier it is a float-quotient mulmod (Shoup; NTL
        ``MulMod``) without a division.  a, b < q < 2^50 are exact in
        float64, and a * (1/q) * b takes three roundings, each of relative
        error at most 2^-53, so with ab/q < q < 2^50 its quotient lies
        within 2^50 ((1 + 2^-53)^3 - 1) < 0.376 of ab/q.  Rounded to the
        nearest integer Q it is within 1/2 + 0.376 < 1 of ab/q, so
        r = ab - Q q lies in (-q, q), exact when computed mod 2^64 in
        int64, and adding q where the sign bit is set leaves it in [0, q).
        """
        if not self.wide:
            return self.reduce(np.multiply(a, b, dtype=self.dtype))
        q = self.params.modulus
        a, b = np.asarray(a, np.int64), np.asarray(b, np.int64)
        if a.size > b.size:
            a, b = b, a  # the smaller operand takes the 1/q
        quot = np.rint((a * (1.0 / q)) * b)
        r = a * b
        fix = quot.astype(np.int64)
        fix *= q
        r -= fix
        np.right_shift(r, 63, out=fix)
        fix &= q
        r += fix
        return r

    def submul(self, dst: np.ndarray, a, b, top: int, low: int = 0) -> int:
        """dst -= a * b mod q, in place, broadcast to the shape of ``dst``,
        for reduced ``a`` and 0 <= b < top; returns ``low`` for the result.

        ``low`` bounds how far below zero ``dst`` may lie: its entries are
        in [-low, q), held mod 2^32 or 2^64 on uint32 and uint64, and
        reduced when low is 0; the caller reduces an entry before reading
        it (FFLAS's delayed reduction).  Each product is at most
        step = (q - 1)(top - 1) and is subtracted unreduced while that is
        exact; where it is not (the ``wide`` tier with top near q) the
        product taken is :meth:`mul`'s, at most q - 1.  Entries then lie in
        [-(low + step), q), so ``dst`` is reduced first when low + step
        would leave the exact range; only int64's ends, at 2^63.  The
        solver's b is a pivot's multipliers in an eager panel, or a solved
        row of x divided by p^v in a back-substitution block; top = p^(m-v)
        bounds both.
        """
        q, exact = self.params.modulus, 2**63 if self.dtype is np.int64 else math.inf
        step = (q - 1) * (top - 1)
        product = None
        if step >= exact:
            product, step = self.mul(a, b), q - 1
        if low + step >= exact:
            self.reduce(dst)
            low = 0
        dst -= np.multiply(a, b, dtype=self.dtype) if product is None else product
        return low + step

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """a @ b mod q for ``a`` of at least two dimensions and a matrix
        ``b``; the contraction length k is the last axis of ``a``.

        One size gate picks the kernel.  From ``_GEMM_OUTPUT`` output
        entries and ``_GEMM_ROW_WORK`` multiply-adds per row (k w), every
        machine-integer dtype runs the GEMMs of :meth:`submatmul` in
        ``_GEMM_ROWS``-row chunks, stacked where :meth:`plan` has a plan.
        From k w = 512 the GEMMs beat the integer ``@`` below in every
        shape measured, 1.07x to 7x at k = 2 to 32; a single row loses.
        uint32 GEMMs beat einsum from the attack basis product at m = 16.

        Below the gate uint32 runs through ``np.einsum``, which vectorises
        32-bit lanes where integer ``@`` is a scalar loop; wraparound mod
        2^32 is exact in any summation order.  uint64 and ``object`` take
        one ``@`` and one reduction.

        int64 takes the (count, bits) of :meth:`left_limbs` for k >= 1.
        One limb is one ``@`` and one reduction, as k = 0 is: the sum stays
        below k (2^bits - 1)(q - 1) < 2^63.  With more, ``a`` splits into
        limbs a = sum_t a_t 2^(bits t), each a_t @ b is one int64 ``@``,
        exact by the same bound, and is reduced.  Horner steps
        out = (out 2^bits + part) mod q recombine them below
        (q - 1)(2^bits + 1) < 2^63: for bits >= 2 that is at most twice the
        bound at k >= 2, and q < 2^50 covers bits <= 1.  The rows run in
        chunks that keep temporaries near ``_MATMUL_ENTRIES`` entries.  No
        width fits once k (q - 1) >= 2^63, which takes k > 2^13 as q < 2^50,
        and the GEMMs take the product.  Both routes to them have k >= 1
        (k w >= 512, k > 2^13), as :meth:`_gemms` with ``assign`` leaves
        ``out`` unwritten at k = 0.
        """
        k, w = a.shape[-1], b.shape[-1]
        count, bits = self.left_limbs(k) if self.dtype is np.int64 and k else (1, 0)
        gemm = a.size * w >= _GEMM_OUTPUT * k and k * w >= _GEMM_ROW_WORK
        if self.dtype is not object and (gemm or not count):
            rows, plan = math.prod(a.shape[:-1]), self.plan(k)
            left, out = a.reshape(rows, k), np.empty((rows, w), self.dtype)
            if plan:
                copies, limbs = self.stacked(left, b, *plan)
                left, b = np.concatenate(copies, axis=1), limbs.reshape(-1, w).astype(float)
            self._gemms(out, left, b, assign=True)
            return out.reshape(a.shape[:-1] + (w,))
        if self.dtype is np.uint32:
            return self.reduce(np.einsum("...k,kj->...j", a, b))
        if count == 1:
            return self.reduce(a @ b)
        rows = a.reshape(math.prod(a.shape[:-1]), k)
        out = np.empty((len(rows), w), np.int64)
        nb = max(1, _MATMUL_ENTRIES // (count * max(k, w)))
        for i in range(0, len(rows), nb):
            out[i : i + nb] = self._limb_matmul(rows[i : i + nb], b, count, bits)
        return out.reshape(a.shape[:-1] + (w,))

    def left_limbs(self, k: int) -> tuple[int, int]:
        """(count, bits) of the limbs the int64 :meth:`matmul` splits its
        left operand into for a contraction of length k >= 1: the widest
        ``bits`` with max(k, 2) (2^bits - 1)(q - 1) < 2^63, and the fewest
        limbs of that width; count is 0 when no width fits.  Cached: every
        int64 product asks."""
        return _left_limbs(self.params.modulus, k)

    def _limb_matmul(self, rows, b, count: int, bits: int) -> np.ndarray:
        """rows @ b mod q from int64 products of the limbs of ``rows``."""
        limbs = rows >> _shifts(count, bits, 2) & (1 << bits) - 1
        limbs = limbs.reshape(count * len(rows), -1)
        parts = self.reduce(limbs @ b).reshape(count, len(rows), b.shape[1])
        out = parts[-1]
        for part in parts[-2::-1]:
            out <<= bits
            out += part
            self.reduce(out)
        return out

    def plan(self, k: int) -> tuple[int, int] | None:
        """(count, bits) of :meth:`stacked` for an int64 contraction of k
        terms past one GEMM: the widest ``bits`` with count k (2^bits - 1)
        (q - 1) < 2^53 and (q - 1) 2^(bits (count - 1)) < 2^63, for
        count = ceil(log2(q) / bits) <= ``_STACK_LIMBS``; else None."""
        if self.dtype is not np.int64 or k <= self.k_max:
            return None
        return _plan(self.params.modulus, k)

    def stacked(self, a: np.ndarray, b: np.ndarray, count: int, bits: int):
        """For the (count, bits) of :meth:`plan`, ``copies`` and ``limbs``
        along a new first axis, i < count: copies[i] = a 2^(bits i) mod q,
        and limbs[i] the i-th limb of ``bits`` bits of ``b``, low first, so
        that the sum of copies[i] @ limbs[i] is a @ b mod q."""
        copies = self.reduce(a << _shifts(count, bits, a.ndim))
        limbs = b >> _shifts(count, bits, b.ndim) & (1 << bits) - 1
        return copies, limbs

    def limbs(self, k: int, bound: int | None = None) -> tuple[int, int]:
        """(count, bits) of the limbs :meth:`submatmul` splits each operand
        into for a contraction of length k: (1, 0) when one GEMM is exact,
        as k <= :attr:`k_max` or ``bound`` < 2^53, or on ``object``; else
        the fewest limbs of the widest width the exactness bound admits."""
        if self.dtype is object or k <= self.k_max or bound is not None and bound < 2**53:
            return 1, 0
        top, bits = (self.params.modulus - 1).bit_length(), 26
        for count in itertools.count(2):
            while count * k * (2**bits - 1) ** 2 >= 2**53:
                bits -= 1
            if count * bits >= top:
                return count, bits

    def submatmul(
        self, dst: np.ndarray, a: np.ndarray, b: np.ndarray, bound: int | None = None
    ) -> None:
        """dst -= a @ b mod q, in place, for reduced ``a`` (r x k), ``b``
        (k x w) and ``dst`` (r x w), on float64 GEMMs (on Python ints for
        ``object``); ``a`` and ``b`` may be float64, as the solver's stacks.

        The work runs in chunks of at most ``_GEMM_ROWS`` rows and of a
        contraction over which ``b`` converts to at most ``_GEMM_ENTRIES``
        float64 entries, but never fewer than ``_GEMM_TERMS`` terms, so that
        one elimination panel makes a single pass.  A one-row or one-column
        ``dst`` subtracts one product and is reduced once: dst - a @ b is
        exact mod q on uint32 and uint64 (wraparound), on ``object``, and on
        int64 above -2^63.  That product is :meth:`matmul`'s, below q, or
        one ``@`` where ``bound`` is below 2^63 on int64 or the operands are
        float64 (then below 2^53).  Else a ``bound`` below 2^53 takes one
        GEMM; the solver's come from the valuations.
        """
        if 1 not in dst.shape:
            self._gemms(dst, a, b, bound)
            return
        if a.dtype == np.float64 or self.dtype is np.int64 and bound is not None and bound < 2**63:
            dst -= (a @ b).astype(np.uint64 if self.dtype is np.uint32 else self.dtype, copy=False)
        else:
            dst -= self.matmul(a, b)
        self.reduce(dst)

    def _gemms(self, dst, a, b, bound=None, assign: bool = False) -> None:
        """dst -= a @ b mod q, in place, in the chunks of :meth:`submatmul`;
        with ``assign``, dst = a @ b mod q, written, not added onto zeros,
        whose fresh pages would fault on the read and again on the write."""
        k, w = a.shape[1], b.shape[1]
        stacked = b.dtype == np.float64  # stacked limbs: nothing to convert
        step = max(k, 1) if stacked else max(_GEMM_TERMS, _GEMM_ENTRIES // max(w, 1))
        for s in range(0, k, step):
            count, bits = (1, 0) if stacked else self.limbs(min(step, k - s), bound)
            right = _split(b[s : s + step], count, bits)
            for i in range(0, len(dst), _GEMM_ROWS):
                left = _split(a[i : i + _GEMM_ROWS, s : s + step], count, bits)
                block = dst[i : i + _GEMM_ROWS]
                if not assign:
                    block -= self._combine(left, right, bits)
                elif s:
                    block += self._combine(left, right, bits)
                else:
                    block[...] = self._combine(left, right, bits)
                self.reduce(block)

    def _combine(self, left, right, bits: int) -> np.ndarray:
        """sum over limb pairs of left[i] @ right[j] * 2^(bits (i + j)):
        mod 2^64 on uint64, mod 2^32 on uint32, and on int64 a value in
        [0, 2^63) congruent to it mod q."""
        count = len(left)
        # float64 sums below 2^53 convert exactly; uint32 keeps the low half.
        unsigned = self.dtype in (np.uint64, np.uint32)
        acc = np.uint64 if unsigned else self.dtype
        if count == 1:
            total = (left[0] @ right[0]).astype(acc, copy=False)
            return total.astype(self.dtype, copy=False)
        shifts = 2 * count - 1
        if unsigned:
            # Shifts of m bits or more vanish mod 2^m.
            shifts = min(shifts, -(-self.params.m // bits))
        radix = pow(2, bits, self.params.modulus)
        total = None
        for s in reversed(range(shifts)):
            pairs = range(max(0, s - count + 1), min(s, count - 1) + 1)
            part = sum(left[i] @ right[s - i] for i in pairs).astype(acc)
            if total is None:
                total = part
            elif unsigned:
                total = (total << np.uint64(bits)) + part
            else:
                total = self.mul(self.reduce(total), radix)
                total += part
        return total.astype(self.dtype, copy=False)


@functools.lru_cache(maxsize=1024)
def _left_limbs(q: int, k: int) -> tuple[int, int]:
    bits = ((2**63 - 1) // (max(k, 2) * (q - 1)) + 1).bit_length() - 1
    return (-(-(q - 1).bit_length() // bits) if bits else 0), bits


@functools.lru_cache(maxsize=1024)
def _plan(q: int, k: int) -> tuple[int, int] | None:
    top = (q - 1).bit_length()
    for bits in reversed(range(-(-top // _STACK_LIMBS), top)):
        count = -(-top // bits)
        if count * k * ((1 << bits) - 1) * (q - 1) < 2**53 and (q - 1) << bits * (count - 1) < 2**63:
            return count, bits
    return None


def _divide(a: np.ndarray, q: int) -> np.ndarray:
    """a mod q in place, for int64 ``a`` in [-2^63 + q, 2^63), as
    a - (a // q) q, where floor(a / q) q lies in (a - q, a], in blocks of
    about ``_GEMM_ENTRIES`` entries."""
    step = max(1, _GEMM_ENTRIES * len(a) // a.size)
    for i in range(0, len(a), step):
        part = a[i : i + step]
        quot = part // q
        quot *= q
        part -= quot
    return a


@functools.lru_cache(maxsize=256)
def _shifts(count: int, bits: int, ndim: int) -> np.ndarray:
    """0, bits, ..., (count - 1) bits on the first of ndim + 1 axes."""
    return np.arange(0, count * bits, bits).reshape((count,) + (1,) * ndim)


@functools.lru_cache(maxsize=256)
def _column(dtype: type, values: tuple[int, ...]) -> np.ndarray:
    """``values`` as a read-only column of ``dtype``, built once."""
    out = np.array(values, dtype)[:, None]
    out.flags.writeable = False
    return out


def _split(a: np.ndarray, count: int, bits: int) -> list[np.ndarray]:
    """The ``count`` limbs of ``bits`` bits of a nonnegative integer array,
    low limb first, as float64; for count 1, a itself, as float64 unless it
    holds Python ints."""
    if count == 1:
        return [a if a.dtype == object else a.astype(np.float64, copy=False)]
    mask = (1 << bits) - 1
    return [((a >> (bits * t)) & mask).astype(np.float64) for t in range(count)]
