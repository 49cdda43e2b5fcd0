#!/usr/bin/env python3
"""Generate a stand-in heart data file for offline use.

270 rows by default (`--rows`), 13 features, labels 1/2, space-delimited
-- the same layout the loader expects from the real Statlog file.  Feature
marginals and the label rule are synthetic but produce a learnable
classification problem.
"""

import argparse
import sys

from modhtan.datasets import HEART_FIXTURE_ROWS, HEART_FIXTURE_SEED, make_heart_fixture


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("out", nargs="?", default="heart.dat")
    ap.add_argument("--rows", type=int, default=HEART_FIXTURE_ROWS)
    ap.add_argument("--seed", type=int, default=HEART_FIXTURE_SEED)
    args = ap.parse_args()
    if args.rows < 1:
        ap.error(f"--rows must be >= 1, got {args.rows}")
    if args.seed < 0:
        ap.error(f"--seed must be >= 0, got {args.seed}")
    try:
        make_heart_fixture(args.out, n=args.rows, seed=args.seed)
    except OSError as exc:  # an unwritable output path
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(1) from None
    print(f"wrote {args.out} ({args.rows} rows, seed {args.seed})")


if __name__ == "__main__":
    main()
