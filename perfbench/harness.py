"""Measurement loop, set-up probes and result line for one benchmark run.

Imported by run.py once the checkout's ``src`` is first on the path.
"""

from __future__ import annotations

import json
import os
import random
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median, quantiles

import numpy

import hostspeed
import workloads
from tracing import COUNT_ROUNDS, NullTracer, Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
RUN_PY = Path(__file__).resolve().parent / "run.py"

# Every run attempts the rounds the traced counts are taken from.
MIN_ROUNDS = COUNT_ROUNDS
SETUP_PROBES = 9
WARMUP_M = 3
PROBE_TIMEOUT_S = 60


class Runner:
    """Runs and checks rounds of one workload."""

    def __init__(self, wl, seed: int, workdir: str):
        self.wl, self.seed, self.workdir = wl, seed, workdir

    def round(self, m, rnd, tracer, rng=None, between=None):
        rng = rng or workloads.round_rng(self.seed, self.wl.name, m, rnd)
        if self.wl.kind == "dhdp":
            return workloads.dhdp_round(self.wl.p, m, rng, tracer, rnd, between)
        return workloads.cli_round(self.wl.p, m, rng, tracer, rnd, self.workdir)

    def check(self, values, with_self_check: bool) -> list[str]:
        if self.wl.kind == "dhdp":
            return workloads.check_dhdp(self.wl.p, values, with_self_check)
        return workloads.check_cli(values, with_self_check)

    def warm_up(self) -> None:
        """One untimed, checked round at the smoke size from a fixed stream."""
        res, values = self.round(WARMUP_M, -1, NullTracer(), random.Random(0))
        problems = self.check(values, True) if values is not None else ["an operation failed"]
        if res.failed or problems:
            raise RuntimeError(f"warm-up round at m = {WARMUP_M}: {'; '.join(problems)}")


def probe_setup(args, m, speed) -> tuple[float, float]:
    """Seconds from spawning a fresh benchmark process to its first timed
    operation (interpreter start, imports and warm-up), as measured and
    scaled to the nominal host speed."""
    before = speed.measure()
    cmd = [sys.executable, str(RUN_PY), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", "0", "--m", str(m), "--probe-setup"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
        try:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - t0
            child.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
    if line.strip() != "ready" or child.returncode != 0:
        raise RuntimeError(f"set-up probe failed with exit code {child.returncode}")
    return elapsed, elapsed * hostspeed.scale(before, speed.measure())


def describe(values) -> str:
    """Median and quartiles, and the highest percentile with ten samples
    beyond it once there are forty samples."""
    if len(values) < 2:
        return f"median {median(values):.6g} over {len(values)} samples"
    q1, _, q3 = quantiles(values, n=4)
    text = f"median {median(values):.6g} (q1 {q1:.6g}, q3 {q3:.6g}"
    if len(values) >= 40:
        text += f", p{100 * (1 - 10 / len(values)):.4g} {sorted(values)[-11]:.6g}"
    return f"{text}) over {len(values)} samples"


def run(args) -> int:
    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    m = args.m if args.m is not None else wl.m
    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=OUT_DIR)
    try:
        runner = Runner(wl, args.seed, workdir)
        runner.warm_up()
        if args.probe_setup:
            print("ready", flush=True)
            return 0
        return measure(args, wl, m, runner)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, wl, m, runner) -> int:
    print(f"workload {wl.name}: p={wl.p} m={m} q={wl.p}^{m} "
          f"backend={workloads.implied_backend(wl.p, m)} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"python {sys.version.split()[0]} numpy {numpy.__version__} "
          f"nproc {len(os.sched_getaffinity(0))}")
    speed = hostspeed.Calibrator()
    # The set-up probes are spread evenly over the run, between rounds, so
    # that their median samples the host over the whole run rather than
    # over its first seconds; probes still due when the rounds end run then.
    setup = []
    probes_due = [] if args.trace else [
        k * args.seconds / SETUP_PROBES for k in range(SETUP_PROBES)]

    tracer = Tracer() if args.trace else None
    plain = NullTracer()
    untraced, traced, round_s, problems = [], [], [], []
    # Per untraced round, the factors that scale its session and its attack
    # time to the nominal host speed, from the kernel times around each.
    scales = []
    marks = [speed.measure()] if tracer is None else None
    attempted = failed = 0
    start = time.perf_counter()
    rnd = 0
    while rnd < MIN_ROUNDS or (
        time.perf_counter() - start + median(round_s) <= args.seconds
    ):
        if probes_due and time.perf_counter() - start >= probes_due[0]:
            probes_due.pop(0)
            setup.append(probe_setup(args, m, speed))
            marks = [speed.measure()]
        t_round = time.perf_counter()
        if tracer is None:
            res, values = runner.round(
                m, rnd, plain, between=lambda: marks.append(speed.measure()))
            marks.append(speed.measure())
            scales.append((hostspeed.scale(marks[0], marks[1]),
                           hostspeed.scale(marks[-2], marks[-1])))
            marks = marks[-1:]
        else:
            # The round runs twice on identical inputs, traced and untraced,
            # alternating which goes first; the difference is the overhead.
            results = {}
            for traced_pass in ((False, True) if rnd % 2 == 0 else (True, False)):
                if traced_pass:
                    tracer.install()
                try:
                    results[traced_pass] = runner.round(
                        m, rnd, tracer if traced_pass else plain)
                finally:
                    tracer.uninstall()
            res, values = results[False]
            traced_res = results[True][0]
            traced.append(traced_res)
            if (traced_res.outputs, traced_res.failed) != (res.outputs, res.failed):
                problems.append(f"round {rnd}: traced outputs differ from untraced")
        attempted += res.attempted
        failed += res.failed
        untraced.append(res)
        if values is not None:
            problems += [f"round {rnd}: {p}"
                         for p in runner.check(values, with_self_check=rnd == 0)]
        round_s.append(time.perf_counter() - t_round)
        rnd += 1
    setup += [probe_setup(args, m, speed) for _ in probes_due]

    for line in problems:
        print(f"CHECK FAILED {line}", file=sys.stderr)
    session = [r.session_s for r in untraced if r.session_s is not None]
    attack = [r.attack_s for r in untraced if r.attack_s is not None]
    if tracer is None:
        session_wall, attack_wall = session, attack
        session = [r.session_s * k for r, (k, _) in zip(untraced, scales)
                   if r.session_s is not None]
        attack = [r.attack_s * k for r, (_, k) in zip(untraced, scales)
                  if r.attack_s is not None]
    print(f"rounds {rnd} in {time.perf_counter() - start:.3f} s; "
          f"operations attempted {attempted}, failed {failed}; "
          f"checks {'FAILED' if problems else 'passed'}")
    if not session or not attack:
        print("error: no session and attack completed", file=sys.stderr)
        return 1
    print(f"session_s {describe(session)}")
    print(f"attack_s {describe(attack)}")

    if tracer is None:
        setup_wall = [wall for wall, _ in setup]
        setup = [scaled for _, scaled in setup]
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        print(f"setup_s {describe(setup)}")
        print(f"peak_rss_mb {peak_rss_mb:.3f}")
        print(f"host speed: calibration kernel {describe(speed.samples)} s, nominal "
              f"{hostspeed.NOMINAL_S:g} s; unscaled wall times: session_s "
              f"{describe(session_wall)}; attack_s {describe(attack_wall)}; "
              f"setup_s {describe(setup_wall)}")
        metrics = {
            "setup_s": {"value": median(setup), "unit": "s"},
            "session_s": {"value": median(session), "unit": "s"},
            "attack_s": {"value": median(attack), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    else:
        metrics = report_trace(args, wl, m, tracer, session, attack,
                               list(zip(untraced, traced)), problems)

    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def paired_overhead(pairs, key) -> float:
    """Median over rounds of traced minus untraced time.  Both passes of a
    round ran the same inputs, so the difference is the tracing cost."""
    diffs = [getattr(t, key) - getattr(u, key) for u, t in pairs
             if getattr(t, key) is not None and getattr(u, key) is not None]
    return median(diffs) if diffs else 0.0


def report_trace(args, wl, m, tracer, session, attack, pairs, problems) -> dict:
    """Per-layer metrics, tracing overhead and the span-accounting check."""
    over_session = paired_overhead(pairs, "session_s")
    over_attack = paired_overhead(pairs, "attack_s")
    print(f"trace overhead: session_s {over_session:+.6f} s "
          f"({over_session / median(session):+.2%}), "
          f"attack_s {over_attack:+.6f} s ({over_attack / median(attack):+.2%})")
    if tracer.missing:
        print(f"trace: not found in this version, metrics read 0: "
              f"{', '.join(tracer.missing)}")

    # The self times of the spans under each attack_dhdp span must add up to
    # that span within the overhead; what no layer span covers is the
    # attack's own code.
    worst_gap = worst_own = 0.0
    for i, span in enumerate(tracer.spans):
        if span.name == "attack.attack_dhdp":
            worst_gap = max(worst_gap, abs(tracer.subtree_self_s(i) - span.seconds))
            worst_own = max(worst_own, span.self_s / span.seconds)
    if worst_gap > max(abs(over_attack), 1e-6):
        problems.append(f"span self times miss an attack_dhdp span by {worst_gap:.6f} s")
    print(f"trace: self times under attack_dhdp spans add up to within "
          f"{worst_gap:.2e} s (overhead {over_attack:+.2e} s); at most "
          f"{worst_own:.2%} of an attack lies outside every layer span")

    metrics = tracer.per_layer()
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    path = OUT_DIR / f"trace-{wl.name}-m{m}-seed{args.seed}.json"
    tracer.dump(path)
    print(f"trace: {len(tracer.spans)} spans written to {path.relative_to(ROOT)}")
    return metrics
