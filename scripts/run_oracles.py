#!/usr/bin/env python3
"""Run the brute-force verification suites and print their reports.

Usage:
    python3 scripts/run_oracles.py                  # every suite
    python3 scripts/run_oracles.py factorization --max-ordinal 3
    python3 scripts/run_oracles.py pack bordism-assoc --seed 1
"""

import argparse
import sys
import time

from trusskit.oracles import SUITES


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "suites",
        nargs="*",
        metavar="SUITE",
        help=f"suites to run (default: all). known: {', '.join(sorted(SUITES))}",
    )
    parser.add_argument("--max-ordinal", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)

    names = args.suites or sorted(SUITES)
    unknown = [n for n in names if n not in SUITES]
    if unknown:
        parser.error(f"unknown suite(s) {unknown}; known: {sorted(SUITES)}")
    if args.max_ordinal is not None and args.max_ordinal < 0:
        parser.error(f"--max-ordinal must be nonnegative, got {args.max_ordinal}")

    failed = []
    for name in names:
        start = time.time()
        report = SUITES[name](max_ordinal=args.max_ordinal, seed=args.seed)
        elapsed = time.time() - start
        print(f"== {name} ({elapsed:.2f}s)")
        print(report.to_text())
        if not report.is_ok:
            failed.append(name)
    if failed:
        print(f"FAILED: {', '.join(failed)}", file=sys.stderr)
        return 1
    print(f"all {len(names)} suite(s) ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
