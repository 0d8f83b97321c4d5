import random

import pytest

from epm.protocols import DhdpPublic, EgdpCiphertext, EgdpPrivateKey
from epm.ring import CentralPoly, EpmMatrix, random_matrix
from epm.serialize import (
    Block,
    ParseError,
    TranscriptFile,
    ciphertext_file,
    dhdp_transcript_file,
    egdp_private_file,
    parse_transcript,
    read_ciphertext,
    read_dhdp_transcript,
    read_egdp_private,
    read_secret,
    secret_file,
    write_transcript,
)
from epm.zpmsolve import PrimePower


def test_golden_transcript_roundtrip(golden):
    pub = DhdpPublic(golden.M, golden.X, golden.GA, golden.GB)
    text = write_transcript(dhdp_transcript_file(pub))
    assert text.startswith("EPM/1\np 5\nm 2\nmatrix M\n4 3\n15 20\n")
    assert read_dhdp_transcript(parse_transcript(text)) == pub


def test_writer_emits_lf_and_no_trailing_whitespace(golden):
    text = write_transcript(secret_file(golden.shared))
    assert "\r" not in text
    assert text.endswith("\n") and not text.endswith("\n\n")
    assert all(line == line.rstrip() for line in text.split("\n"))


def test_random_matrix_roundtrip():
    rng = random.Random(8)
    for p, m in [(2, 1), (2, 5), (3, 3), (5, 2), (7, 2)]:
        params = PrimePower(p, m)
        for _ in range(50):
            s = random_matrix(params, rng)
            assert read_secret(parse_transcript(write_transcript(secret_file(s)))) == s


def test_private_key_roundtrip():
    params = PrimePower(3, 3)
    rng = random.Random(12)
    priv = EgdpPrivateKey(
        random_matrix(params, rng),
        CentralPoly(params, (1, 2, 3)),
        CentralPoly(params, (25,)),
    )
    assert read_egdp_private(parse_transcript(write_transcript(egdp_private_file(priv)))) == priv


def test_ciphertext_roundtrip():
    params = PrimePower(5, 2)
    rng = random.Random(13)
    ct = EgdpCiphertext(random_matrix(params, rng), random_matrix(params, rng))
    assert read_ciphertext(parse_transcript(write_transcript(ciphertext_file(ct)))) == ct


def test_generated_keypair_roundtrips_unchanged():
    from epm.protocols import egdp_keygen
    from epm.serialize import egdp_public_file, read_egdp_public

    params = PrimePower(3, 3)
    kp = egdp_keygen(params, random.Random(77))
    pub_text = write_transcript(egdp_public_file(kp.public))
    priv_text = write_transcript(egdp_private_file(kp.private))
    assert read_egdp_public(parse_transcript(pub_text)) == kp.public
    assert read_egdp_private(parse_transcript(priv_text)) == kp.private
    # writing again is byte-identical
    assert write_transcript(egdp_public_file(read_egdp_public(parse_transcript(pub_text)))) == pub_text


# --- parse errors -------------------------------------------------------------


def _expect_error(text, lineno=None, fragment=None):
    with pytest.raises(ParseError) as info:
        parse_transcript(text)
    if lineno is not None:
        assert info.value.lineno == lineno
    if fragment is not None:
        assert fragment in str(info.value)


def test_empty_input_fails_at_line_one():
    _expect_error("", lineno=1)


def test_bad_header_tag():
    _expect_error("EPM/2\np 5\nm 2\n", lineno=1)


def test_bad_p_line():
    _expect_error("EPM/1\nq 5\nm 2\n", lineno=2)
    _expect_error("EPM/1\np five\nm 2\n", lineno=2)


def test_nonprime_p_rejected():
    _expect_error("EPM/1\np 6\nm 2\n", lineno=2, fragment="prime")


def test_membership_violation_reported():
    text = "EPM/1\np 5\nm 2\nmatrix M\n0 0\n7 0\n"
    _expect_error(text, lineno=4, fragment="divisible")


def test_non_integer_token():
    text = "EPM/1\np 5\nm 2\nmatrix M\n0 x\n0 0\n"
    _expect_error(text, lineno=5, fragment="non-integer")


@pytest.mark.parametrize(
    "body,lineno",
    [
        ("p 0_5\nm 2", 2),  # int() reads 0_5 as 5
        ("p 5\nm +2", 3),
        ("p 5\nm 2\nmatrix M\n1_0 +3\n15 20", 5),
        ("p 5\nm 2\nmatrix M\n0 0\n\u0661\u0665 20", 6),  # Arabic-Indic 15
        ("p 5\nm 2\nmatrix M\n0 0\n15 \uff12\uff10", 6),  # fullwidth 20
        ("p 5\nm 2\nmatrix M\n0 0\t\n15 20", 5),  # int() strips the tab
        ("p 5\nm 2\nmatrix M\n0 0\n15 20\r", 6),
        ("p 5\nm 2\nmatrix M\n0 --3\n15 20", 5),
    ],
)
def test_only_ascii_decimal_integers_parse(body, lineno):
    _expect_error(f"EPM/1\n{body}\n", lineno, "non-integer")


def test_wrong_dimensions():
    text = "EPM/1\np 5\nm 2\nmatrix M\n0 0 0\n0 0\n"
    _expect_error(text, lineno=5, fragment="expected 2")


def test_truncated_matrix_block():
    _expect_error("EPM/1\np 5\nm 2\nmatrix M\n0 0\n", lineno=6)


def test_duplicate_block_name():
    text = "EPM/1\np 5\nm 2\nmatrix M\n0 0\n0 0\nmatrix M\n0 0\n0 0\n"
    _expect_error(text, lineno=7, fragment="duplicate")


def test_bad_block_header():
    _expect_error("EPM/1\np 5\nm 2\nvector V\n1 2\n", lineno=4)


def test_missing_required_block(golden):
    # a secret file is not a transcript: M is the first block to come up missing
    tf = parse_transcript(write_transcript(secret_file(golden.shared)))
    with pytest.raises(ParseError, match="M"):
        read_dhdp_transcript(tf)
    # nor is a partial transcript with the masked values absent
    partial = TranscriptFile(
        golden.params,
        (Block("matrix", "M", golden.M), Block("matrix", "X", golden.X)),
    )
    with pytest.raises(ParseError, match="GA"):
        read_dhdp_transcript(partial)


def test_poly_degree_capped():
    text = "EPM/1\np 5\nm 2\npoly F1\n1 2 3\n"
    _expect_error(text, lineno=5, fragment="degree")


# --- one text per value -----------------------------------------------------------


@pytest.mark.parametrize(
    "body,lineno,fragment",
    [
        # At p = 5, m = 2 the first three rows all read as (2, 0) through int().
        ("matrix M\n-3 0\n0 0", 5, "sign or leading zero"),
        ("matrix M\n007 0\n0 0", 5, "sign or leading zero"),
        ("matrix M\n27 0\n0 0", 5, "not below p^1 = 5"),
        ("matrix M\n5 0\n0 0", 5, "not below p^1 = 5"),
        ("matrix M\n0 0\n0 25", 6, "not below p^2 = 25"),
        ("matrix M\n0 0\n-0 0", 6, "sign or leading zero"),
        ("poly F1\n-7 3", 5, "sign or leading zero"),
        ("poly F1\n7 03", 5, "sign or leading zero"),
    ],
    ids=["sign", "leading-zeros", "27-in-row-0", "5-in-row-0", "25-in-row-1",
         "minus-zero", "poly-sign", "poly-leading-zero"],
)
def test_non_canonical_entries_are_refused(body, lineno, fragment):
    _expect_error(f"EPM/1\np 5\nm 2\n{body}\n", lineno, fragment)


def test_non_canonical_header_is_refused():
    _expect_error("EPM/1\np 05\nm 2\n", 2, "sign or leading zero")
    _expect_error("EPM/1\np 5\nm -2\n", 3, "sign or leading zero")


def test_canonical_entries_still_parse():
    # 4 < 5 in the first row and 24 < 25 in the second; 0 is written alone.
    text = "EPM/1\np 5\nm 2\nmatrix M\n4 0\n20 24\npoly F1\n0 24\n"
    assert write_transcript(parse_transcript(text)) == text


@pytest.mark.parametrize("f1,f2,lineno", [("30 1", "1", 8), ("1", "0 25", 10)])
def test_private_key_coefficients_at_or_above_the_modulus_are_refused(f1, f2, lineno):
    # The parser keeps poly lines as written, since p^m is not computed
    # before the caller has checked m; read_egdp_private refuses them.
    text = f"EPM/1\np 5\nm 2\nmatrix M\n1 0\n5 1\npoly F1\n{f1}\npoly F2\n{f2}\n"
    tf = parse_transcript(text)
    with pytest.raises(ParseError, match="not below p\\^m") as info:
        read_egdp_private(tf)
    assert info.value.lineno == lineno
