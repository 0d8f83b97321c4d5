"""Command-line front end.

Exit codes: 0 success; 1 verification mismatch (``verify``, and ``bench``
when a recovered secret disagrees); 2 malformed input, flags or degenerate
parameters; 3 an attack system with no solution (the transcript was not
honestly produced).

All sampling is driven by ``--seed``: the same command line yields the same
output bytes (``bench`` wall-clock columns excepted).
"""

from __future__ import annotations

import argparse
import csv
import functools
import sys
from pathlib import Path

from .attack import attack_dhdp, attack_egdp, bench_attack, summarize_bench, zhang_system
from .protocols import (
    DhdpPublic,
    RESAMPLE_CAP,
    SetupFailed,
    dhdp_alice,
    dhdp_bob,
    dhdp_setup,
    dhdp_shared_alice,
    dhdp_shared_bob,
    egdp_encrypt,
    egdp_decrypt,
    egdp_keygen,
)
from .ring import EpmMatrix, NotAMember, ParamMismatch
from .seeding import make_rng
from .serialize import (
    ParseError,
    ciphertext_file,
    dhdp_transcript_file,
    egdp_private_file,
    egdp_public_file,
    parse_transcript,
    read_ciphertext,
    read_dhdp_transcript,
    read_egdp_private,
    read_egdp_public,
    read_secret,
    read_setup,
    secret_file,
    setup_file,
    write_transcript,
)
from .zpmsolve import InconsistentSystem, PrimePower, howell_solve

__all__ = ["cli_main", "main"]

#: m values above this need --allow-huge: the dense solve is O((m^2)^3).
BENCH_M_LIMIT = 32


def _read_file(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from None
    return parse_transcript(text)


def _write_file(path: str, tf) -> None:
    Path(path).write_text(write_transcript(tf), encoding="utf-8", newline="")


def _cmd_gen(args) -> int:
    params = PrimePower(args.p, args.m)
    rng = make_rng(args.seed, "gen")
    for _ in range(RESAMPLE_CAP):
        try:
            m_mat, x = dhdp_setup(params, rng)
            break
        except SetupFailed:
            continue
    else:
        raise SetupFailed("parameters admit no noncommuting pair")
    _write_file(args.out, setup_file(m_mat, x))
    return 0


def _cmd_simulate(args) -> int:
    m_mat, x = read_setup(_read_file(args.params))
    priv_a, ga = dhdp_alice(m_mat, x, make_rng(args.seed, "alice"))
    priv_b, gb = dhdp_bob(m_mat, x, make_rng(args.seed, "bob"))
    shared = dhdp_shared_alice(priv_a, m_mat, gb)
    if shared != dhdp_shared_bob(priv_b, ga):
        raise RuntimeError("shared-secret derivations disagree")
    _write_file(args.out, dhdp_transcript_file(DhdpPublic(m_mat, x, ga, gb)))
    _write_file(args.secret_out, secret_file(shared))
    return 0


def _cmd_attack(args) -> int:
    pub = read_dhdp_transcript(_read_file(args.transcript))
    recovered = attack_dhdp(pub.M, pub.X, pub.GA, pub.GB)
    _write_file(args.out, secret_file(recovered))
    return 0


def _cmd_egdp_keygen(args) -> int:
    params = PrimePower(args.p, args.m)
    rng = make_rng(args.seed, "egdp-keygen")
    for _ in range(RESAMPLE_CAP):
        try:
            kp = egdp_keygen(params, rng)
            break
        except SetupFailed:
            continue
    else:
        raise SetupFailed("parameters admit no noncommuting pair")
    _write_file(args.pub_out, egdp_public_file(kp.public))
    _write_file(args.priv_out, egdp_private_file(kp.private))
    return 0


def _cmd_egdp_encrypt(args) -> int:
    pub = read_egdp_public(_read_file(args.pub))
    secret = read_secret(_read_file(args.secret))
    if secret.params != pub.params:
        raise ParamMismatch("secret and public key use different parameters")
    ct = egdp_encrypt(pub, secret, make_rng(args.seed, "egdp-encrypt"))
    _write_file(args.out, ciphertext_file(ct))
    return 0


def _cmd_egdp_decrypt(args) -> int:
    priv = read_egdp_private(_read_file(args.priv))
    ct = read_ciphertext(_read_file(args.ct))
    _write_file(args.out, secret_file(egdp_decrypt(priv, ct)))
    return 0


def _cmd_egdp_attack(args) -> int:
    pub = read_egdp_public(_read_file(args.pub))
    ct = read_ciphertext(_read_file(args.ct))
    _write_file(args.out, secret_file(attack_egdp(pub, ct)))
    return 0


def _cmd_verify(args) -> int:
    a = _read_file(args.a)
    b = _read_file(args.b)
    same = a.params == b.params and {
        (blk.kind, blk.name): blk.payload for blk in a.blocks
    } == {(blk.kind, blk.name): blk.payload for blk in b.blocks}
    if same:
        print("match")
        return 0
    print("mismatch")
    return 1


def _cmd_bench(args) -> int:
    try:
        m_values = [int(tok) for tok in args.m_list.split(",") if tok]
    except ValueError:
        raise ParseError(f"bad --m-list {args.m_list!r}") from None
    if not m_values:
        raise ParseError("--m-list is empty")
    too_big = [m for m in m_values if m > BENCH_M_LIMIT]
    if too_big and not args.allow_huge:
        print(
            f"m={too_big[0]} exceeds the desk-scale limit {BENCH_M_LIMIT}; "
            "pass --allow-huge for long runs",
            file=sys.stderr,
        )
        return 2
    rng = make_rng(args.seed, "bench")
    records = bench_attack([(args.p, m) for m in m_values], args.reps, rng)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["p", "m", "rep", "wall_seconds", "solver_ring_ops", "verified"])
        for r in records:
            writer.writerow(
                [r.p, r.m, r.rep, f"{r.wall_seconds:.6f}", r.solver_ring_ops,
                 "yes" if r.verified else "no"]
            )
    for row in summarize_bench(records):
        print(
            f"p={row['p']} m={row['m']} reps={row['reps']} "
            f"median_wall={row['median_wall_seconds']:.6f}s "
            f"median_ops={row['median_solver_ring_ops']} "
            f"verified={'yes' if row['all_verified'] else 'no'}"
        )
    return 0 if all(r.verified for r in records) else 1


# Hand-checkable 2x2 demo instance (p=5, m=2) used by demo-zhang.
_DEMO = {
    "M": ((4, 3), (15, 20)),
    "X": ((0, 4), (15, 4)),
    "A1": ((1, 3), (15, 17)),
    "A2": ((0, 3), (15, 11)),
    "B1": ((3, 3), (15, 9)),
    "B2": ((3, 0), (0, 18)),
}


def _cmd_demo_zhang(args) -> int:
    params = PrimePower(5, 2)
    mat = {k: EpmMatrix.validate(params, v) for k, v in _DEMO.items()}
    ga = mat["A1"] * mat["X"] * mat["A2"]
    gb = mat["B1"] * mat["X"] * mat["B2"]
    honest = mat["A1"] * gb * mat["A2"]
    print(f"demo instance over p={params.p}, m={params.m}")

    recovered = attack_dhdp(mat["M"], mat["X"], ga, gb)
    print("lifted attack system: consistent")
    print("recovered shared secret:")
    for row in recovered.rows:
        print(" ".join(str(v) for v in row))
    print(f"matches the honest parties' value: {'yes' if recovered == honest else 'no'}")

    naive = zhang_system(mat["M"], mat["X"], ga)
    try:
        howell_solve(naive)
        print("flat-modulus system: consistent (unexpected)")
        return 1
    except InconsistentSystem:
        print("flat-modulus system: inconsistent, as expected")
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process: parse_args leaves the parser unchanged.
    parser = argparse.ArgumentParser(
        prog="epm",
        description="Mixed-modulus matrix-ring protocols and the attack on them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        return p

    p = add("gen", _cmd_gen, "generate a noncommuting public pair M, X")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)

    p = add("simulate", _cmd_simulate, "run an honest key exchange")
    p.add_argument("--params", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--secret-out", required=True)

    p = add("attack", _cmd_attack, "recover the shared secret from a transcript")
    p.add_argument("--transcript", required=True)
    p.add_argument("--out", required=True)

    p = add("egdp-keygen", _cmd_egdp_keygen, "generate an encryption key pair")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pub-out", required=True)
    p.add_argument("--priv-out", required=True)

    p = add("egdp-encrypt", _cmd_egdp_encrypt, "encrypt a secret matrix")
    p.add_argument("--pub", required=True)
    p.add_argument("--secret", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)

    p = add("egdp-decrypt", _cmd_egdp_decrypt, "decrypt with the private key")
    p.add_argument("--priv", required=True)
    p.add_argument("--ct", required=True)
    p.add_argument("--out", required=True)

    p = add("egdp-attack", _cmd_egdp_attack, "recover the plaintext without the key")
    p.add_argument("--pub", required=True)
    p.add_argument("--ct", required=True)
    p.add_argument("--out", required=True)

    p = add("verify", _cmd_verify, "compare two files; exit 0 iff equal")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)

    p = add("bench", _cmd_bench, "time the attack and verify every recovery")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--m-list", required=True, help="comma-separated m values")
    p.add_argument("--reps", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="CSV output path")
    p.add_argument("--allow-huge", action="store_true",
                   help=f"permit m beyond {BENCH_M_LIMIT} (long-running)")

    add("demo-zhang", _cmd_demo_zhang,
        "show the lifted system succeeding where the flat-modulus one fails")

    return parser


def cli_main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help and 2 for bad flags; normalise to int.
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except InconsistentSystem as exc:
        print(f"attack system inconsistent: {exc}", file=sys.stderr)
        return 3
    except (ParseError, NotAMember, ParamMismatch, SetupFailed, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
