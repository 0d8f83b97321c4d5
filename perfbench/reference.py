"""Independent E_p^(m) arithmetic that the benchmark checks outputs against.

Matrices are tuples of row tuples of plain Python integers; row i (0-based)
lives mod p^(i+1), and entry (i, j) below the diagonal is divisible by
p^(i-j).  Nothing here imports ``epm``: a fault in the program's own ring
arithmetic cannot hide itself by also being the yardstick.

The module also writes and reads the few lines of the EPM/1 text format the
benchmark needs, so the plaintext it feeds the command-line workload is
drawn and written without the program's help.
"""

from __future__ import annotations

FORMAT_TAG = "EPM/1"


def row_moduli(p: int, m: int) -> tuple[int, ...]:
    return tuple(p ** (i + 1) for i in range(m))


def mul(p: int, a, b):
    """Ring product: plain matrix product, row i reduced mod p^(i+1)."""
    mods = row_moduli(p, len(a))
    cols = tuple(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) % mods[i] for col in cols)
        for i, row in enumerate(a)
    )


def add(p: int, a, b):
    mods = row_moduli(p, len(a))
    return tuple(
        tuple((x + y) % mods[i] for x, y in zip(ra, rb))
        for i, (ra, rb) in enumerate(zip(a, b))
    )


def scale(p: int, c: int, a):
    """Action of the central element c mod p^m: row i scaled mod p^(i+1)."""
    mods = row_moduli(p, len(a))
    return tuple(tuple(c * x % mods[i] for x in row) for i, row in enumerate(a))


def identity(m: int):
    return tuple(tuple(int(i == j) for j in range(m)) for i in range(m))


def poly_eval(p: int, coeffs, mat):
    """sum_k coeffs[k] * mat^k with central coefficients."""
    m = len(mat)
    acc = tuple((0,) * m for _ in range(m))
    power = identity(m)
    for k, c in enumerate(coeffs):
        if k:
            power = mul(p, power, mat)
        acc = add(p, acc, scale(p, c, power))
    return acc


def is_member(p: int, a) -> bool:
    m = len(a)
    mods = row_moduli(p, m)
    if any(len(row) != m for row in a):
        return False
    for i, row in enumerate(a):
        for j, v in enumerate(row):
            if not 0 <= v < mods[i]:
                return False
            if i > j and v % p ** (i - j):
                return False
    return True


def commutes(p: int, a, b) -> bool:
    return mul(p, a, b) == mul(p, b, a)


def random_member(p: int, m: int, rng):
    """Uniform ring element: entry (i, j) = p^max(i-j,0) * t, t < p^(min(i,j)+1)."""
    mods = row_moduli(p, m)
    return tuple(
        tuple(rng.randrange(mods[min(i, j)]) * p ** max(i - j, 0) for j in range(m))
        for i in range(m)
    )


def elementary(p: int, m: int, i: int, j: int):
    """The smallest nonzero member supported on entry (i, j)."""
    return tuple(
        tuple(p ** max(r - s, 0) if (r, s) == (i, j) else 0 for s in range(m))
        for r in range(m)
    )


def noncommuting_elementary(p: int, m_mat):
    """An elementary member that does not commute with m_mat.

    The elementary members span the ring, so one exists whenever m_mat is
    not central; None otherwise.
    """
    m = len(m_mat)
    for i in range(m):
        for j in range(m):
            e = elementary(p, m, i, j)
            if not commutes(p, e, m_mat):
                return e
    return None


def format_matrix_file(p: int, name: str, a) -> str:
    """EPM/1 text holding one matrix block, LF line endings."""
    lines = [FORMAT_TAG, f"p {p}", f"m {len(a)}", f"matrix {name}"]
    lines += [" ".join(str(v) for v in row) for row in a]
    return "\n".join(lines) + "\n"


def parse_matrix_file(text: str) -> tuple[int, dict]:
    """(p, {name: matrix}) from EPM/1 text made only of matrix blocks."""
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    if lines[:1] != [FORMAT_TAG] or len(lines) < 3:
        raise ValueError("not an EPM/1 file")
    p = int(lines[1].removeprefix("p "))
    m = int(lines[2].removeprefix("m "))
    out, pos = {}, 3
    while pos < len(lines):
        kind, name = lines[pos].split(" ")
        if kind != "matrix":
            raise ValueError(f"unexpected {kind} block")
        rows = tuple(
            tuple(int(v) for v in line.split(" ")) for line in lines[pos + 1 : pos + 1 + m]
        )
        if len(rows) != m or not is_member(p, rows):
            raise ValueError(f"block {name} is not a member of E_{p}^({m})")
        out[name] = rows
        pos += 1 + m
    return p, out
