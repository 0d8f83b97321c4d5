"""The benchmark's workloads: one round of work each, and its checks.

A round is the unit every run repeats whole.  A DHDP round is one honest
session (``run_dhdp_session``) followed by the attack on its public values
(``attack_dhdp``): two operations.  A CLI round is one full file cycle of
eight ``epm`` commands run in process through ``cli_main``: eight
operations.  Each round draws its inputs from its own random stream, so a
round can be replayed bit for bit, which the traced run uses to measure the
tracing overhead on identical work.

``epm`` must be importable before this module is imported; ``run.py`` puts
the checkout's ``src`` first on the path.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
import sys
import time
import traceback
from dataclasses import dataclass

import reference
from epm import PrimePower, attack_dhdp, run_dhdp_session
from epm.cli import cli_main


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "dhdp" or "cli"
    p: int
    m: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("dhdp-p2-m20", "dhdp", 2, 20),
        Workload("dhdp-p5-m14", "dhdp", 5, 14),
        Workload("cli-p3-m6", "cli", 3, 6),
    )
}


def implied_backend(p: int, m: int) -> str:
    """The solver backend the README documents for (p, m)."""
    if p == 2 and m <= 64:
        return "uint64"
    if p**m <= 2**31:
        return "int64"
    return "python-int"


def round_rng(seed: int, workload: str, m: int, rnd: int) -> random.Random:
    material = f"perfbench/{seed}/{workload}/{m}/{rnd}".encode()
    return random.Random(int.from_bytes(hashlib.sha256(material).digest()[:16], "big"))


@dataclass
class RoundResult:
    attempted: int
    failed: int = 0
    session_s: float | None = None
    attack_s: float | None = None
    outputs: tuple = ()


# --- DHDP ------------------------------------------------------------------

DHDP_OPS = 2


def dhdp_round(p, m, rng, tracer, rnd, between=None) -> tuple[RoundResult, object]:
    """One session and its attack; returns the result and the values the
    checker needs (None when an operation failed).  ``between``, if given,
    is called untimed after the session and before the attack."""
    res = RoundResult(attempted=DHDP_OPS)
    try:
        with tracer.op("protocols.run_dhdp_session", rnd, "session"):
            t0 = time.perf_counter()
            session = run_dhdp_session(PrimePower(p, m), rng)
            res.session_s = time.perf_counter() - t0
    except Exception:
        traceback.print_exc()
        res.failed = DHDP_OPS
        return res, None
    pub = session.public
    if between is not None:
        between()
    try:
        with tracer.op("attack.attack_dhdp", rnd, "attack"):
            t0 = time.perf_counter()
            recovered = attack_dhdp(pub.M, pub.X, pub.GA, pub.GB)
            res.attack_s = time.perf_counter() - t0
    except Exception:
        traceback.print_exc()
        res.failed = 1
        return res, None
    res.outputs = (pub.M.rows, pub.X.rows, pub.GA.rows, pub.GB.rows, recovered.rows)
    return res, (session, recovered.rows)


class DhdpChecker:
    """Checks one session and its recovered secret with reference arithmetic."""

    def __init__(self, p: int, session):
        pub, alice, bob = session.public, session.alice, session.bob
        self.p = p
        self.M, self.X, self.GA, self.GB = (
            pub.M.rows, pub.X.rows, pub.GA.rows, pub.GB.rows)
        self.B1, self.B2 = bob.B1.rows, bob.B2.rows
        self.F1 = reference.poly_eval(p, alice.f1.coeffs, self.M)
        self.F2 = reference.poly_eval(p, alice.f2.coeffs, self.M)

    def masked(self, center):
        """f1(M) * center * f2(M), from Alice's private coefficients."""
        return reference.mul(self.p, reference.mul(self.p, self.F1, center), self.F2)

    def secret_ok(self, recovered) -> bool:
        return recovered == self.masked(self.GB)

    def centralizes(self, b) -> bool:
        return reference.commutes(self.p, b, self.M)

    def problems(self, recovered) -> list[str]:
        out = []
        if self.GA != self.masked(self.X):
            out.append("GA is not f1(M) * X * f2(M)")
        if not self.secret_ok(recovered):
            out.append("recovered secret is not f1(M) * GB * f2(M)")
        for name, b in (("B1", self.B1), ("B2", self.B2)):
            if not self.centralizes(b):
                out.append(f"{name} does not commute with M")
        return out

    def self_check(self, recovered) -> list[str]:
        """Corrupt one entry of the secret and of a centralizer sample; the
        checker must reject both."""
        p, m = self.p, len(self.M)
        out = []
        if self.secret_ok(reference.add(p, recovered, reference.elementary(p, m, 0, 0))):
            out.append("self-check: a corrupted secret was accepted")
        # M does not commute with X, so it is not central and some entry of
        # B1 can be moved off the centralizer.
        e = reference.noncommuting_elementary(p, self.M)
        if e is None or self.centralizes(reference.add(p, self.B1, e)):
            out.append("self-check: a corrupted centralizer sample was accepted")
        return out


def check_dhdp(p, values, with_self_check: bool) -> list[str]:
    session, recovered = values
    checker = DhdpChecker(p, session)
    out = checker.problems(recovered)
    if with_self_check:
        out += checker.self_check(recovered)
    return out


# --- CLI -------------------------------------------------------------------

CLI_OPS = 8


def cli_round(p, m, rng, tracer, rnd, workdir) -> tuple[RoundResult, object]:
    """One file cycle: gen, simulate, attack, egdp-keygen, egdp-encrypt,
    egdp-decrypt, egdp-attack, verify.  The plaintext is drawn and written
    by the benchmark."""
    res = RoundResult(attempted=CLI_OPS)
    gen_seed, keygen_seed, encrypt_seed = (rng.randrange(2**31) for _ in range(3))
    plaintext = reference.format_matrix_file(p, "S", reference.random_member(p, m, rng))

    def path(name):
        return os.path.join(workdir, name)

    for name in os.listdir(workdir):  # no output may survive from the last round
        os.remove(path(name))
    with open(path("plain.epm"), "w", encoding="utf-8", newline="") as fh:
        fh.write(plaintext)
    pm = ["--p", str(p), "--m", str(m)]
    commands = [
        ("session", ["gen", *pm, "--seed", str(gen_seed), "--out", path("params.epm")]),
        ("session", ["simulate", "--params", path("params.epm"), "--seed", str(gen_seed),
                     "--out", path("transcript.epm"), "--secret-out", path("secret.epm")]),
        ("attack", ["attack", "--transcript", path("transcript.epm"),
                    "--out", path("stolen.epm")]),
        ("session", ["egdp-keygen", *pm, "--seed", str(keygen_seed),
                     "--pub-out", path("pub.epm"), "--priv-out", path("priv.epm")]),
        ("session", ["egdp-encrypt", "--pub", path("pub.epm"), "--secret", path("plain.epm"),
                     "--seed", str(encrypt_seed), "--out", path("ct.epm")]),
        ("session", ["egdp-decrypt", "--priv", path("priv.epm"), "--ct", path("ct.epm"),
                     "--out", path("decrypted.epm")]),
        ("attack", ["egdp-attack", "--pub", path("pub.epm"), "--ct", path("ct.epm"),
                    "--out", path("attacked.epm")]),
        ("verify", ["verify", "--a", path("stolen.epm"), "--b", path("secret.epm")]),
    ]
    seconds = {"session": 0.0, "attack": 0.0, "verify": 0.0}
    verify_out = ""
    for role, argv in commands:
        out = io.StringIO()
        try:
            with tracer.op("cli.cli_main", rnd, role), contextlib.redirect_stdout(out):
                t0 = time.perf_counter()
                rc = cli_main(argv)
                seconds[role] += time.perf_counter() - t0
        except Exception:
            traceback.print_exc()
            rc = None
        if rc != 0:
            print(f"epm {argv[0]} exited with {rc}", file=sys.stderr)
            res.failed += 1
        if role == "verify":
            verify_out = out.getvalue()
    res.session_s, res.attack_s = seconds["session"], seconds["attack"]
    names = ("transcript", "secret", "stolen", "decrypted", "attacked")
    files = {}
    for name in names:
        try:
            with open(path(f"{name}.epm"), encoding="utf-8", newline="") as fh:
                files[name] = fh.read()
        except FileNotFoundError:
            files[name] = None
    res.outputs = tuple(files[n] for n in names)
    if res.failed:
        return res, None
    return res, (p, plaintext, files, verify_out)


def check_cli(values, with_self_check: bool) -> list[str]:
    p, plaintext, files, verify_out = values
    missing = [name for name, text in files.items() if text is None]
    if missing:
        return [f"no {name} file was written" for name in missing]
    out = []
    for name in ("decrypted", "attacked"):
        if files[name] != plaintext:
            out.append(f"{name} file differs from the plaintext the benchmark wrote")
    if files["stolen"] != files["secret"]:
        out.append("attacked DHDP secret differs from the honest parties' secret")
    if verify_out != "match\n":
        out.append(f"verify printed {verify_out!r}")
    try:
        reference.parse_matrix_file(files["secret"])
        reference.parse_matrix_file(files["transcript"])
    except ValueError as exc:
        out.append(f"output is not a well-formed EPM/1 ring element: {exc}")
    if with_self_check and files["attacked"] == plaintext:
        _, blocks = reference.parse_matrix_file(files["attacked"])
        s = blocks["S"]
        wrong = reference.add(p, s, reference.elementary(p, len(s), 0, 0))
        if reference.format_matrix_file(p, "S", wrong) == plaintext:
            out.append("self-check: a corrupted plaintext was accepted")
    return out
