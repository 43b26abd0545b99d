#!/usr/bin/env python3
"""Rebuild the two worked examples end to end and print their tables.

For each builtin fixture this derives the isotropy lattice from the weight
matrix, prints the C-L stratification with dimensions and kinds, lists the
frontier covering relations, and runs the sampling battery.  Exits nonzero
if any battery fails.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cosphere import checks, strata, torus
from cosphere.fixtures import BUILTIN_FIXTURES, get_fixture


def show_fixture(name: str, seed: int, count: int) -> bool:
    fx = get_fixture(name)
    poset = torus.build_isotropy_poset(fx.spec)
    result = strata.cl_stratification(poset)
    dims = strata.quotient_dims(poset)

    print(f"== {fx.name}: {fx.title}")
    print(f"   weights {fx.spec.weights}, T^{fx.spec.k} on R^{2 * fx.spec.n}")
    print(f"   orbit types ({len(poset.types)}):")
    for t in poset.types:
        star = "*" if t.label in result.starred else " "
        print(
            f"     {star} ({t.label:<7}) dim H = {t.dim_H}, "
            f"dim Q_(H) = {poset.dim_Q_of[t.label]}, "
            f"dim Q^(H) = {dims[t.label]}"
        )
    print(f"   C-L pieces ({len(result.cl_strata)}):")
    for s in result.cl_strata:
        mark = "  open dense" if s.open_dense else ""
        print(f"     {s.name:<18} {s.kind.value:<17} dim {s.dim}{mark}")
    # a pair from closure alone moves both types of the piece, and is not
    # CC(K) < CC(H)
    pair = {s.name: (s.upper, s.lower) for s in result.cl_strata}
    closure_only = sum(
        pair[a][0] != pair[b][0] and pair[a][1] != pair[b][1]
        and not (pair[a][0] == pair[a][1] and pair[b][0] == pair[b][1])
        for a, lows in result.frontier.rows for b in lows
    )
    print(f"   frontier: {len(result.frontier)} pairs, "
          f"{len(result.hasse)} covering arrows, "
          f"{closure_only} from closure only")
    for a, covered in result.hasse.rows:
        for b in covered:
            print(f"     {a} -> {b}")

    report = checks.verify_fixture(fx, seed=seed, count=count)
    print(f"   sampling battery ({count} generic samples, seed {seed}):")
    for probe in report["probes"]:
        worst = max(
            probe["max_momentum"],
            probe["max_cosphere_error"],
            probe["max_cone_rel_error"],
        )
        print(
            f"     probe {probe['name']:<22} {probe['count']:>6} pts  "
            f"worst identity {worst:.2e}  "
            f"{'ok' if probe['passed'] else 'FAIL'}"
        )
    print(f"   principal piece fraction: {report['principal_fraction']:.4f}")
    print(f"   battery: {'PASS' if report['passed'] else 'FAIL'}")
    print()
    return bool(report["passed"])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--count", type=int, default=2000,
                        help="generic samples per fixture")
    args = parser.parse_args()

    ok = True
    for name in sorted(BUILTIN_FIXTURES):
        ok = show_fixture(name, args.seed, args.count) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
