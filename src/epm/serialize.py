"""Bit-exact text files for matrices, transcripts, keys and secrets.

The format is line-oriented and human-diffable::

    EPM/1
    p 5
    m 2
    matrix M
    4 3
    15 20
    poly F1
    22 1

A file starts with the format tag, then ``p`` and ``m``, then any number of
named blocks.  A ``matrix`` block carries m rows of m space-separated decimal
integers, row i (from 0) below its modulus p^(i+1); a ``poly`` block carries
one line of coefficients below p^m, constant term first.  Every integer is
written without a sign or a leading zero, and the reader refuses any other
spelling, so each value has one text.  The writer emits LF line endings and
no trailing whitespace, so equal values serialise to equal bytes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .protocols import DhdpPublic, EgdpCiphertext, EgdpPrivateKey, EgdpPublicKey
from .ring import CentralPoly, EpmMatrix, NotAMember
from .zpmsolve import PrimePower

__all__ = [
    "FORMAT_TAG",
    "ParseError",
    "Block",
    "TranscriptFile",
    "parse_transcript",
    "write_transcript",
    "setup_file",
    "read_setup",
    "dhdp_transcript_file",
    "read_dhdp_transcript",
    "secret_file",
    "read_secret",
    "egdp_public_file",
    "read_egdp_public",
    "egdp_private_file",
    "read_egdp_private",
    "ciphertext_file",
    "read_ciphertext",
]

FORMAT_TAG = "EPM/1"

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
#: A line of ASCII decimal integers: ``int`` alone would also take ``1_0``,
#: ``+3``, surrounding whitespace and non-ASCII digits.
_INTS_RE = re.compile(r"-?[0-9]+(?: -?[0-9]+)*")
#: The same without a sign or a leading zero: the one text of each value.
_CANONICAL_RE = re.compile(r"(?:0|[1-9][0-9]*)(?: (?:0|[1-9][0-9]*))*")


class ParseError(ValueError):
    """Malformed transcript text; carries the offending line number."""

    def __init__(self, message: str, lineno: int | None = None):
        self.lineno = lineno
        super().__init__(f"line {lineno}: {message}" if lineno else message)


@dataclass(frozen=True)
class Block:
    kind: str  # "matrix" or "poly"
    name: str
    payload: object  # EpmMatrix or tuple[int, ...]
    #: The line of the first row or coefficient line, for a parsed block.
    lineno: int | None = field(default=None, compare=False)


@dataclass(frozen=True)
class TranscriptFile:
    params: PrimePower
    blocks: tuple[Block, ...]

    def matrix(self, name: str) -> EpmMatrix:
        return self.block("matrix", name).payload

    def block(self, kind: str, name: str) -> Block:
        for b in self.blocks:
            if b.kind == kind and b.name == name:
                return b
        raise ParseError(f"missing {kind} block {name!r}")


class _Lines:
    def __init__(self, text: str):
        self.lines = text.split("\n")
        # A single trailing newline is the writer's own convention.
        if self.lines and self.lines[-1] == "":
            self.lines.pop()
        self.pos = 0

    @property
    def lineno(self) -> int:
        return self.pos + 1

    def done(self) -> bool:
        return self.pos >= len(self.lines)

    def take(self, what: str) -> str:
        if self.done():
            raise ParseError(f"unexpected end of input, expected {what}", self.lineno)
        line = self.lines[self.pos]
        self.pos += 1
        return line


def _int_fields(line: str, lineno: int, expect: int | None = None) -> list[int]:
    parts = line.split(" ")
    if any(p == "" for p in parts):
        raise ParseError("stray whitespace", lineno)
    if not _CANONICAL_RE.fullmatch(line):
        if _INTS_RE.fullmatch(line):
            raise ParseError(f"sign or leading zero in {line!r}", lineno)
        raise ParseError(f"non-integer token in {line!r}", lineno)
    try:
        values = [int(p) for p in parts]
    except ValueError:  # past the interpreter's limit on digits
        digits = max(map(len, parts))
        raise ParseError(f"integer of {digits} digits is too long", lineno) from None
    if expect is not None and len(values) != expect:
        raise ParseError(f"expected {expect} integers, got {len(values)}", lineno)
    return values


def parse_transcript(text: str) -> TranscriptFile:
    src = _Lines(text)
    tag = src.take("format tag")
    if tag != FORMAT_TAG:
        raise ParseError(f"expected format tag {FORMAT_TAG!r}", 1)

    header = {}
    for key in ("p", "m"):
        lineno = src.lineno
        line = src.take(f"{key} line")
        parts = line.split(" ")
        if len(parts) != 2 or parts[0] != key:
            raise ParseError(f"expected {key!r} followed by one integer", lineno)
        header[key] = _int_fields(parts[1], lineno, expect=1)[0]
    try:
        params = PrimePower(header["p"], header["m"])
    except ValueError as exc:
        # The p line is line 2 and the m line line 3.
        raise ParseError(str(exc), 3 if str(exc).startswith("m ") else 2) from None

    blocks: list[Block] = []
    seen: set[str] = set()
    while not src.done():
        lineno = src.lineno
        head = src.take("block header")
        parts = head.split(" ")
        if len(parts) != 2 or parts[0] not in ("matrix", "poly"):
            raise ParseError(f"expected a block header, got {head!r}", lineno)
        kind, name = parts
        if not _NAME_RE.match(name):
            raise ParseError(f"bad block name {name!r}", lineno)
        if name in seen:
            raise ParseError(f"duplicate block name {name!r}", lineno)
        seen.add(name)
        if kind == "matrix":
            rows, modulus = [], 1
            for i in range(params.m):
                row_lineno = src.lineno
                row = _int_fields(src.take("matrix row"), row_lineno, expect=params.m)
                # p^(i+1) only once row i is read: m rows bound the work.
                modulus *= params.p
                if max(row) >= modulus:
                    raise ParseError(
                        f"entry {max(row)} is not below p^{i + 1} = {modulus}", row_lineno
                    )
                rows.append(row)
            try:
                payload = EpmMatrix.validate(params, rows)
            except NotAMember as exc:
                raise ParseError(str(exc), lineno) from None
        else:
            coeff_lineno = src.lineno
            coeffs = _int_fields(src.take("poly coefficients"), coeff_lineno)
            if len(coeffs) > params.m:
                raise ParseError(
                    f"poly degree exceeds {params.m - 1}", coeff_lineno
                )
            # Checked against p^m by the reader of the block, as p^m is not
            # computed before the caller has checked m.
            payload = tuple(coeffs)
        blocks.append(Block(kind, name, payload, lineno + 1))
    return TranscriptFile(params, tuple(blocks))


def write_transcript(tf: TranscriptFile) -> str:
    out = [FORMAT_TAG, f"p {tf.params.p}", f"m {tf.params.m}"]
    for block in tf.blocks:
        out.append(f"{block.kind} {block.name}")
        if block.kind == "matrix":
            for row in block.payload.rows:
                out.append(" ".join(str(v) for v in row))
        else:
            out.append(" ".join(str(v) for v in block.payload))
    return "\n".join(out) + "\n"


# --- typed views -----------------------------------------------------------


def _matrices(params, **named) -> TranscriptFile:
    return TranscriptFile(
        params, tuple(Block("matrix", k, v) for k, v in named.items())
    )


def setup_file(m_mat: EpmMatrix, x: EpmMatrix) -> TranscriptFile:
    return _matrices(m_mat.params, M=m_mat, X=x)


def read_setup(tf: TranscriptFile) -> tuple[EpmMatrix, EpmMatrix]:
    m_mat, x = tf.matrix("M"), tf.matrix("X")
    if m_mat.commutes(x):
        raise ParseError("public pair must not commute")
    return m_mat, x


def dhdp_transcript_file(pub: DhdpPublic) -> TranscriptFile:
    return _matrices(pub.params, M=pub.M, X=pub.X, GA=pub.GA, GB=pub.GB)


def read_dhdp_transcript(tf: TranscriptFile) -> DhdpPublic:
    try:
        return DhdpPublic(
            tf.matrix("M"), tf.matrix("X"), tf.matrix("GA"), tf.matrix("GB")
        )
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def secret_file(s: EpmMatrix) -> TranscriptFile:
    return _matrices(s.params, S=s)


def read_secret(tf: TranscriptFile) -> EpmMatrix:
    return tf.matrix("S")


def egdp_public_file(pub: EgdpPublicKey) -> TranscriptFile:
    return _matrices(pub.params, M=pub.M, N=pub.N, E=pub.E)


def read_egdp_public(tf: TranscriptFile) -> EgdpPublicKey:
    try:
        return EgdpPublicKey(tf.matrix("M"), tf.matrix("N"), tf.matrix("E"))
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def egdp_private_file(priv: EgdpPrivateKey) -> TranscriptFile:
    return TranscriptFile(
        priv.M.params,
        (
            Block("matrix", "M", priv.M),
            Block("poly", "F1", priv.f1.coeffs),
            Block("poly", "F2", priv.f2.coeffs),
        ),
    )


def read_egdp_private(tf: TranscriptFile) -> EgdpPrivateKey:
    """The private key; refuses a poly coefficient at or above p^m, which
    is computed here, after the caller has checked m."""
    m_mat, q = tf.matrix("M"), tf.params.modulus
    polys = []
    for name in ("F1", "F2"):
        block = tf.block("poly", name)
        if any(c >= q for c in block.payload):
            raise ParseError(f"poly {name} has a coefficient not below p^m", block.lineno)
        polys.append(CentralPoly(tf.params, block.payload))
    return EgdpPrivateKey(m_mat, *polys)


def ciphertext_file(ct: EgdpCiphertext) -> TranscriptFile:
    return _matrices(ct.F.params, F=ct.F, D=ct.D)


def read_ciphertext(tf: TranscriptFile) -> EgdpCiphertext:
    return EgdpCiphertext(tf.matrix("F"), tf.matrix("D"))
