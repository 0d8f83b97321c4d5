#!/usr/bin/env python3
"""The epm benchmark: one workload in one process, one JSON line of results.

    python3 perfbench/run.py --workload dhdp-p2-m20 --seed 1 --seconds 30 --trace 0

The program is imported from the ``src`` directory of the checkout this
file sits in.  The run repeats whole rounds of its workload (see
workloads.py) in a closed loop on one thread, at least three rounds and
then as long as the next round still fits in ``--seconds``.  Every output
is checked with the benchmark's own arithmetic.  The last line of standard
output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (setup_s, session_s,
attack_s, peak_rss_mb), the timings scaled to a nominal host speed (see
hostspeed.py).  With ``--trace 1`` they are the per-layer ones,
from a traced replay of every round, and the spans are written to
``.bench_out/``.  ``--m`` overrides the workload's m; ``--m 3`` is the
smoke size.  The exit code is 0 when every check passed, 1 when one did
not, and 2 when there is no program to run or the arguments are wrong.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--m", type=int, default=None,
                        help="override the workload's m (3 is the smoke size)")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def use_checkout_sources() -> None:
    """Import epm from this checkout's src and from nowhere else."""
    if not (SRC / "epm" / "__init__.py").is_file():
        print(f"error: no epm package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import epm

    if Path(epm.__file__).resolve().parent != (SRC / "epm").resolve():
        print(f"error: epm was imported from {epm.__file__}", file=sys.stderr)
        sys.exit(2)


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    use_checkout_sources()
    import harness

    return harness.run(args)


if __name__ == "__main__":
    sys.exit(main())
