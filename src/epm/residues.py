"""Residues mod p^m in numpy arrays: the array layer under the solver, the
ring and the attack.

:class:`Residues` picks one dtype from (p, m): uint64 with wraparound for
p = 2 and m <= 64, int64 for moduli below 2^50, and ``object``
(arbitrary-precision Python integers) otherwise.  The solver works in
:attr:`~Residues.narrow`, uint32 for p = 2 and m <= 32, at half the memory.
:meth:`~Residues.submatmul` runs the solver's blocked products on float64
BLAS GEMMs, exact by construction.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Callable

import numpy as np

if TYPE_CHECKING:
    from .zpmsolve import PrimePower

__all__ = ["Residues"]

#: Rows per GEMM of :meth:`Residues.submatmul`, and entries per float64
#: operand chunk: they bound its temporaries to a few hundred kilobytes.
#: At m <= 20 a 32-row GEMM stays below about 10^6 multiply-adds, which
#: OpenBLAS runs on one thread; 64 rows took two threads there, for the
#: same wall time and twice the CPU time.
_GEMM_ROWS = 32
_GEMM_ENTRIES = 1 << 14
#: The fewest contraction terms per chunk: the solver's 64-column panels
#: (``epm.zpmsolve.PANEL``) then make a single pass.
_GEMM_TERMS = 64


@dataclass(frozen=True)
class Residues:
    """Residues mod q = p^m held in numpy arrays of one dtype.

    :meth:`of` picks the dtype from the parameters alone:

    * uint64 masked with q - 1 for p = 2, m <= 64.  2^m divides 2^64, so
      sums and products taken with C wraparound are exact mod q.
    * int64 with ``% q`` for q <= 2^31.  Entries stay in [0, q), so one
      product is below 2^62 and one product subtracted from an entry stays
      above -2^62.  :meth:`matmul` sums chunks of floor((2^63-1) / (q-1)^2)
      >= 2 products with ``@``, which cannot overflow, and reduces after
      each chunk, so the running total stays below 2q.
    * int64 for 2^31 < q < 2^50, where a product can pass 2^63: :meth:`mul`
      reduces each, and :meth:`matmul` adds at most floor((2^63-1)/q) - 1
      of them at a time to a total below q, so the sum stays below 2^63.
    * ``object`` arrays of Python integers otherwise, or with
      ``backend="python"``.

    :attr:`narrow` gives the solver's working residues: uint32 masked with
    q - 1 for p = 2, m <= 32, where 2^m divides 2^32, so wraparound stays
    exact at half the memory; the same residues otherwise.

    :meth:`submatmul`, dst -= a @ b, runs on float64 GEMMs for uint64 and
    int64.  Entries are integers in [0, q).  When k (q-1)^2 < 2^53 for the
    contraction length k, every product and every partial sum is an
    integer below 2^53, so the GEMM is exact in any summation order.
    Otherwise each operand splits into ``count`` limbs of ``bits`` bits,
    a = sum_i a_i 2^(bits i) with 0 <= a_i < 2^bits, and :meth:`limbs`
    takes the fewest limbs of the widest width with
    count * k * (2^bits - 1)^2 < 2^53.  The pairs (i, j) with
    i + j = s number at most ``count``, so their GEMMs summed in float64
    stay exact integers below 2^53.  Recombining sum_s S_s 2^(bits s):
    uint64 shifts with wraparound, exact mod 2^64 and so mod 2^m, and
    drops the shifts of m bits or more; on uint32 the result then keeps
    its low 32 bits, still exact mod 2^m.  int64 runs Horner steps by
    2^bits mod q through :meth:`mul`.  ``object``
    multiplies Python ints.
    The crossover, measured on the 2-CPU host of ``BENCH_blocked_solve.json``
    for an (r x 64) @ (64 x 337) product against ``dst -= matmul(a, b)``:
    at q = 2^20 (one GEMM) and q = 5^14 (two limbs) the two tie at one row
    (34 us against 32 us, 175 us against 168 us), the GEMMs win from two
    rows, and by 12x and 26x at 64 rows.  At q = 2^32 (two limbs, three
    GEMMs) they lose up to about eight rows, 128 us against 32 us at one
    row.  So the solver uses it for blocks of rows, and single-row
    products stay on :meth:`matmul`.
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
            mask = np.uint64(q - 1)
            return cls(params, np.uint64, lambda a: np.bitwise_and(a, mask, out=a))
        dtype = np.int64 if backend is None and q < 2**50 else object
        return cls(params, dtype, lambda a: np.remainder(a, q, out=a))

    @cached_property
    def narrow(self) -> "Residues":
        """The solver's working residues: uint32 for p = 2, m <= 32, else
        these."""
        if self.dtype is np.uint64 and self.params.m <= 32:
            mask = np.uint32(self.params.modulus - 1)
            return Residues(
                self.params, np.uint32, lambda a: np.bitwise_and(a, mask, out=a)
            )
        return self

    @cached_property
    def wide(self) -> bool:
        """The int64 tier past 2^31, where products need :meth:`mul`."""
        return self.dtype is np.int64 and self.params.modulus > 2**31

    def mul(self, a, b):
        """a * b for reduced ``a`` and ``b``, broadcast, which callers reduce.

        On the ``wide`` tier it is the float-quotient mulmod (Shoup; NTL
        ``MulMod``).  a, b < q < 2^50 are exact in float64, and the three
        roundings of a * b * (1/q), each of relative error at most 2^-53,
        put the quotient within ab/q * 4 * 2^-53 < 1/2 of ab/q.  So
        r = ab - floor(quot) * q lies in [-q, 2q), exact when computed mod
        2^64 in uint64, and one +q and one -q correction leave it in [0, q).
        """
        q = self.params.modulus
        if not self.wide:
            return a * b
        a, b = np.asarray(a, np.int64), np.asarray(b, np.int64)
        u, uq = np.uint64, np.uint64(q)
        quot = np.multiply(a, b, dtype=np.float64) * (1.0 / q)
        r = np.multiply(a.view(u), b.view(u))
        r -= quot.astype(u) * uq
        # Minima of wrapped uint64 values: +q where r < 0, then -q where r >= q.
        np.minimum(r, r + uq, out=r)
        np.minimum(r, r - uq, out=r)
        return r.view(np.int64)

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """a @ b mod q for ``a`` of at least two dimensions and a matrix
        ``b``; the contraction length k is the last axis of ``a``."""
        q = self.params.modulus
        k = a.shape[-1]
        if self.wide:
            rows, cols = a.reshape(np.prod(a.shape[:-1], dtype=int), k), b.shape[-1]
            out = np.zeros((len(rows), cols), np.int64)
            kb = max(1, min(k, (2**63 - 1) // q - 1, 2**16 // cols))
            nb = max(1, 2**16 // (kb * cols))
            for i, s in itertools.product(range(0, len(rows), nb), range(0, k, kb)):
                acc, part = out[i : i + nb], rows[i : i + nb, s : s + kb, None]
                acc += self.mul(part, b[s : s + kb]).sum(1)
                self.reduce(acc)
            return out.reshape(a.shape[:-1] + (cols,))
        step = (2**63 - 1) // (q - 1) ** 2 if self.dtype is np.int64 else max(k, 1)
        out = self.reduce(a[..., :step] @ b[..., :step, :])
        for s in range(step, k, step):
            out += self.reduce(a[..., s : s + step] @ b[..., s : s + step, :])
            self.reduce(out)
        return out

    def limbs(self, k: int) -> tuple[int, int]:
        """(count, bits) of the limbs :meth:`submatmul` splits each operand
        into for a contraction of length k: (1, 0), no split, when one
        float64 GEMM is exact or the dtype is ``object``, else the fewest
        limbs of the widest width that the exactness bound admits."""
        q = self.params.modulus
        if self.dtype is object or k * (q - 1) ** 2 < 2**53:
            return 1, 0
        bits = 26
        for count in itertools.count(2):
            while count * k * (2**bits - 1) ** 2 >= 2**53:
                bits -= 1
            if count * bits >= (q - 1).bit_length():
                return count, bits

    def submatmul(self, dst: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
        """dst -= a @ b mod q, in place, for reduced ``a`` (r x k), ``b``
        (k x w) and ``dst`` (r x w), on float64 GEMMs (on Python ints for
        ``object``).

        The work runs in chunks of at most ``_GEMM_ROWS`` rows and of a
        contraction over which ``b`` converts to at most ``_GEMM_ENTRIES``
        float64 entries, but never fewer than ``_GEMM_TERMS`` terms, so that
        the multipliers of one elimination panel make a single pass.
        """
        k, w = a.shape[1], b.shape[1]
        step = max(_GEMM_TERMS, _GEMM_ENTRIES // max(w, 1))
        for s in range(0, k, step):
            count, bits = self.limbs(min(step, k - s))
            right = _split(b[s : s + step], count, bits)
            for i in range(0, len(dst), _GEMM_ROWS):
                left = _split(a[i : i + _GEMM_ROWS, s : s + step], count, bits)
                block = dst[i : i + _GEMM_ROWS]
                block -= self._combine(left, right, bits)
                self.reduce(block)

    def _combine(self, left, right, bits: int) -> np.ndarray:
        """sum over limb pairs of left[i] @ right[j] * 2^(bits (i + j)):
        mod 2^64 on uint64, mod 2^32 on uint32, and on int64 a value in
        [0, 2^63) congruent to it mod q."""
        count = len(left)
        # Wraparound is exact mod 2^m on uint64 and uint32.  float64 sums
        # below 2^53 convert exactly to 64 bits, and uint32 keeps the low half.
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


def _split(a: np.ndarray, count: int, bits: int) -> list[np.ndarray]:
    """The ``count`` limbs of ``bits`` bits of a nonnegative integer array,
    low limb first, as float64; when count is 1, a itself, as float64 unless
    it holds Python ints."""
    if count == 1:
        return [a if a.dtype == object else a.astype(np.float64)]
    mask = (1 << bits) - 1
    return [((a >> (bits * t)) & mask).astype(np.float64) for t in range(count)]
