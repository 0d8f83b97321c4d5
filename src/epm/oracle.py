"""Checks that stand apart from the solver: the brute-force test oracle,
the row-wise solution check, and the primality test of
:class:`~epm.zpmsolve.PrimePower`.

Nothing here imports :mod:`epm.zpmsolve`; a system is read through its
``params``, ``cols``, ``coeffs`` and ``rhs``.
"""

from __future__ import annotations

import itertools
from typing import Sequence

import numpy as np

__all__ = [
    "EnumerationCapExceeded",
    "DimensionMismatch",
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


def is_solution(system, x: Sequence[int]) -> bool:
    """True iff coeffs . x = rhs holds row-wise mod p^m."""
    if len(x) != system.cols:
        raise DimensionMismatch(f"expected {system.cols} entries, got {len(x)}")
    q = system.params.modulus
    return all(
        (sum(a * xi for a, xi in zip(row, x)) - b) % q == 0
        for row, b in zip(system.coeffs, system.rhs)
    )


def brute_solve(system, cap: int = BRUTE_FORCE_CAP) -> list[tuple[int, ...]]:
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
