"""In-memory spans around the calls into each layer of ``epm``.

The tracer replaces layer functions where their caller looks them up (the
solver is wrapped once as ``epm.attack.howell_solve`` and once as
``epm.protocols.howell_solve``, because the two call sites are different
layer boundaries) and restores them on ``uninstall``.  Nothing inside
``epm`` changes.  A name that a later version of the program no longer has
is skipped and reported, and the metrics that depend on it read 0.

Every span carries the round and role ("session", "attack" or "verify") of
the workload operation it belongs to, so per-layer figures are summed per
operation before their median is taken, using the same operation units as
the end-to-end ``session_s`` and ``attack_s``.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager
from statistics import median

# (module, attribute path, span name).  The command-line rows cover every
# layer function epm.cli calls, so that cli.self_s is time spent in the
# front end itself.
LAYER_FUNCTIONS = [
    ("epm.attack", "build_attack_system", "attack.build_attack_system"),
    ("epm.attack", "sandwich_basis", "attack.sandwich_basis"),
    ("epm.attack", "combination_system", "ring.combination_system"),
    ("epm.attack", "howell_solve", "zpmsolve.solve"),
    ("epm.attack", "apply_weights", "attack.apply_weights"),
    ("epm.protocols", "dhdp_setup", "protocols.dhdp_setup"),
    ("epm.protocols", "dhdp_alice", "protocols.dhdp_alice"),
    ("epm.protocols", "dhdp_bob", "protocols.dhdp_bob"),
    ("epm.protocols", "dhdp_shared_alice", "protocols.dhdp_shared_alice"),
    ("epm.protocols", "dhdp_shared_bob", "protocols.dhdp_shared_bob"),
    ("epm.protocols", "commutation_system", "protocols.commutation_system"),
    ("epm.protocols", "howell_solve", "zpmsolve.kernel"),
    ("epm.protocols", "CentralizerSampler.sample", "protocols.sample"),
] + [
    ("epm.cli", attr, f"{layer}.{attr}")
    for layer, attrs in (
        ("attack", ("attack_dhdp", "attack_egdp")),
        ("protocols", (
            "dhdp_setup", "dhdp_alice", "dhdp_bob", "dhdp_shared_alice",
            "dhdp_shared_bob", "egdp_keygen", "egdp_encrypt", "egdp_decrypt",
        )),
        ("serialize", (
            "parse_transcript", "write_transcript", "setup_file", "read_setup",
            "dhdp_transcript_file", "read_dhdp_transcript", "secret_file",
            "read_secret", "egdp_public_file", "read_egdp_public",
            "egdp_private_file", "read_egdp_private", "ciphertext_file",
            "read_ciphertext",
        )),
    )
    for attr in attrs
]

# (metric, unit, role of the operation it is summed over, what is summed).
# role None sums over the whole round.  What is summed:
#   ("time", span, parent or None)  span durations, optionally only under parent
#   ("self", span)                  span durations minus their children's
#   ("attr", span, key)             a number the wrapper attached to the span
#   ("count", span)                 number of spans
#   ("products",)                   EpmMatrix.__mul__ calls
PER_LAYER = [
    ("attack.basis_s", "s", "attack",
     ("time", "attack.sandwich_basis", "attack.build_attack_system")),
    ("attack.apply_s", "s", "attack", ("time", "attack.apply_weights", None)),
    ("ring.lift_s", "s", "attack", ("time", "ring.combination_system", None)),
    ("ring.attack_products", "count", "attack", ("products",)),
    ("ring.session_products", "count", "session", ("products",)),
    ("zpmsolve.solve_s", "s", "attack", ("time", "zpmsolve.solve", None)),
    ("zpmsolve.muls", "count", "attack", ("attr", "zpmsolve.solve", "muls")),
    ("zpmsolve.kernel_s", "s", "session", ("time", "zpmsolve.kernel", None)),
    ("zpmsolve.kernel_gens", "count", "session",
     ("attr", "zpmsolve.kernel", "kernel_gens")),
    ("protocols.commutation_s", "s", "session",
     ("time", "protocols.commutation_system", None)),
    ("protocols.sample_s", "s", "session", ("time", "protocols.sample", None)),
    ("protocols.samples", "count", "session", ("count", "protocols.sample")),
    ("protocols.alice_s", "s", "session", ("time", "protocols.dhdp_alice", None)),
    ("serialize.parse_s", "s", None, ("time", "serialize.parse_transcript", None)),
    ("serialize.write_s", "s", None, ("time", "serialize.write_transcript", None)),
    ("cli.self_s", "s", None, ("self", "cli.cli_main")),
]

# Counts are taken over the first rounds only, which every run attempts, so
# they repeat exactly for a fixed seed however many rounds fit the time.
COUNT_ROUNDS = 3


class Span:
    __slots__ = ("name", "parent", "rnd", "role", "t0", "t1", "prod0", "prod1",
                 "attrs", "child_s")

    def __init__(self, name, parent, rnd, role, prod0):
        self.name, self.parent, self.rnd, self.role = name, parent, rnd, role
        self.prod0, self.prod1 = prod0, prod0
        self.attrs = {}
        self.child_s = 0.0
        self.t1 = None
        self.t0 = time.perf_counter()

    @property
    def seconds(self) -> float:
        return self.t1 - self.t0

    @property
    def self_s(self) -> float:
        return self.seconds - self.child_s


class NullTracer:
    """Stands in for a Tracer in untraced passes."""

    @contextmanager
    def op(self, name, rnd, role):
        yield None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.products = 0
        self.missing: list[str] = []
        self._patches = []

    # -- recording ---------------------------------------------------------

    def open(self, name, rnd=None, role=None) -> Span:
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            rnd, role = self.spans[parent].rnd, self.spans[parent].role
        span = Span(name, parent, rnd, role, self.products)
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.t1 = time.perf_counter()
        span.prod1 = self.products
        self.stack.pop()
        if span.parent is not None:
            self.spans[span.parent].child_s += span.seconds

    @contextmanager
    def op(self, name, rnd, role):
        """A top-level span around one workload operation."""
        span = self.open(name, rnd, role)
        try:
            yield span
        finally:
            self.close(span)

    # -- wrapping ----------------------------------------------------------

    def install(self) -> None:
        self.missing = []
        for module_name, path, span_name in LAYER_FUNCTIONS:
            owner = importlib.import_module(module_name)
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part, None)
            orig = getattr(owner, attr, None) if owner is not None else None
            if orig is None:
                self.missing.append(f"{module_name}.{path}")
                continue
            self._patch(owner, attr, self._wrap(orig, span_name))
        ring = importlib.import_module("epm.ring")
        mul = ring.EpmMatrix.__mul__

        @functools.wraps(mul)
        def counted_mul(a, b):
            self.products += 1
            return mul(a, b)

        self._patch(ring.EpmMatrix, "__mul__", counted_mul)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def _patch(self, owner, attr, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _wrap(self, orig, span_name):
        if span_name == "zpmsolve.solve":
            return self._wrap_solve(orig, span_name)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            span = self.open(span_name)
            try:
                result = orig(*args, **kwargs)
            finally:
                self.close(span)
            if span_name == "zpmsolve.kernel":
                span.attrs["kernel_gens"] = len(result.kernel)
            return result

        return wrapper

    def _wrap_solve(self, orig, span_name):
        # The attack's solve is charged its OpCounter total.  A counter is
        # supplied when the caller passed none; the count is the same either
        # way.
        counter_type = importlib.import_module("epm.zpmsolve").OpCounter

        @functools.wraps(orig)
        def wrapper(*args, counter=None, **kwargs):
            if counter is None:
                counter = counter_type()
            before = counter.muls
            span = self.open(span_name)
            try:
                return orig(*args, counter=counter, **kwargs)
            finally:
                self.close(span)
                span.attrs["muls"] = counter.muls - before

        return wrapper

    # -- results -----------------------------------------------------------

    def per_layer(self) -> dict:
        """Each PER_LAYER metric: median over operations of its per-op sum."""
        rounds: dict = {}
        for span in self.spans:
            rounds.setdefault(span.rnd, {}).setdefault(span.role, []).append(span)
        out = {}
        for name, unit, role, what in PER_LAYER:
            per_op = []
            for rnd, by_role in sorted(rounds.items()):
                if unit == "count" and rnd >= COUNT_ROUNDS:
                    continue
                if role is None:
                    spans = [s for group in by_role.values() for s in group]
                elif role in by_role:
                    spans = by_role[role]
                else:
                    continue
                per_op.append(self._total(spans, what))
            out[name] = {"value": median(per_op) if per_op else 0, "unit": unit}
        return out

    def _total(self, spans, what):
        kind = what[0]
        if kind == "products":
            return sum(s.prod1 - s.prod0 for s in spans if s.parent is None)
        named = [s for s in spans if s.name == what[1]]
        if kind == "count":
            return len(named)
        if kind == "attr":
            return sum(s.attrs.get(what[2], 0) for s in named)
        if kind == "self":
            return sum(s.self_s for s in named)
        parent = what[2]
        return sum(
            s.seconds for s in named
            if parent is None
            or (s.parent is not None and self.spans[s.parent].name == parent)
        )

    def subtree_self_s(self, index: int) -> float:
        """Sum of self times over span ``index`` and all its descendants.

        Spans are stored in the order they opened, so the descendants of a
        span are the run of spans right after it whose parent chain reaches it.
        """
        total = self.spans[index].self_s
        for i in range(index + 1, len(self.spans)):
            span = self.spans[i]
            j = span.parent
            while j is not None and j > index:
                j = self.spans[j].parent
            if j != index:
                break
            total += span.self_s
        return total

    def dump(self, path) -> None:
        """Write every span as [name, parent, round, role, t0, t1, products, attrs]."""
        base = self.spans[0].t0 if self.spans else 0.0
        rows = [
            [s.name, s.parent, s.rnd, s.role, round(s.t0 - base, 9),
             round(s.t1 - base, 9), s.prod1 - s.prod0, s.attrs]
            for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "parent", "round", "role", "t0", "t1",
                                  "products", "attrs"], "spans": rows}, fh)
