#!/usr/bin/env python3
"""Uniqueness-condition evidence run.

Sweeps ensembles of random symmetric strictly diagonally dominant games for
failures of the positive-definiteness certificate on G + G^T (none are
expected; any hit would be a notable finding), then searches outside that
class with general negative definite systems, where failures do occur and
are printed with full reproduction keys.  Certificate failures outside the
dominant class do not by themselves imply multiple equilibria; the
certificate is sufficient, not necessary.

    python scripts/conjecture_evidence.py --count 100 --samples 200

Exits 0 when every dominant-class ensemble is clean, 1 when one has a
violation, and 2, with one ``error:`` line and before any sweep, on a bad
argument.
"""

import argparse
import sys

from nashlq import MatrixEnsembleConfig, conjecture_sweep


def run(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=100, help="matrices per dimension")
    parser.add_argument("--samples", type=int, default=200, help="box samples per matrix")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--dims", type=int, nargs="+", default=[2, 3, 4, 5, 6])
    args = parser.parse_args(argv)
    for flag, values, low in (
        ("--count", [args.count], 1),
        ("--samples", [args.samples], 1),
        ("--seed", [args.seed], 0),
        ("--dims", args.dims, 1),
    ):
        for value in values:
            if value < low:
                print(f"error: {flag} must be an integer >= {low}, got {value}", file=sys.stderr)
                return 2

    print(f"diagonally dominant ensembles ({args.count} matrices per dimension):")
    clean = True
    for n in args.dims:
        ensemble = MatrixEnsembleConfig(n=n, count=args.count, seed=args.seed + n)
        result = conjecture_sweep(ensemble, samples_per_matrix=args.samples)
        status = "clean" if not result.violations else f"{len(result.violations)} VIOLATIONS"
        clean = clean and not result.violations
        print(
            f"  n={n}: min eig {result.min_eig:.4e}, {status}, "
            f"spot-check max rel err {result.spot_check_max_rel_err:.1e}"
        )

    print("\nnegative definite (not diagonally dominant) search:")
    for n in args.dims:
        ensemble = MatrixEnsembleConfig(n=n, count=args.count, seed=args.seed + 100 + n)
        result = conjecture_sweep(
            ensemble, samples_per_matrix=args.samples, generator="negative-definite"
        )
        print(f"  n={n}: min eig {result.min_eig:.4e}, {len(result.violations)} certificate failure(s)")
        for record in result.violations[:3]:
            print(
                f"    witness: matrix_index={record.matrix_index} seed={record.seed} "
                f"min_eig={record.report.min_eig:.4e} k={record.report.witness.k.round(4).tolist()}"
            )

    print(f"\ndominant-class ensembles clean: {clean}")
    return 0 if clean else 1


if __name__ == "__main__":
    sys.exit(run())
