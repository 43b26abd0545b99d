#!/usr/bin/env python3
"""Watch the Reeb flow carry seam points into their cosphere-like piece.

Samples a start point on each seam of the chosen fixture, flows it, and
prints which piece the reduced image sits in along a time grid.  Seams are
crossed instantly: every positive time lands in the open piece of the
same contact stratum.  Also reports the conserved-quantity drift of the
RK4 route against the exact flow.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cosphere import phase, reeb
from cosphere.fixtures import BUILTIN_FIXTURES, get_fixture


def demo(fixture_name: str, seed: int, t_end: float, step: float) -> int:
    fx = get_fixture(fixture_name)
    grid = [0.0] + [t_end * i / 6 for i in range(1, 7)]

    seam_cells = [c for c in fx.cells if c.name.startswith("Seam(")]
    if not seam_cells:
        print(f"{fixture_name}: no seam cells")
        return 0

    print(f"== {fx.name}: {fx.title}")
    failures = 0
    for cell in seam_cells:
        x, u = phase.zero_level_arrays(
            fx.spec,
            seed=seed,
            count=1,
            support_pattern=cell.support_x,
            covector_pattern=cell.support,
        )
        point = phase.PhasePoint(x[0], u[0])
        start_piece, _ = phase.check_reduced_membership(
            fx, phase.hilbert_map(fx.spec, point)
        )
        print(f"   start on {start_piece}  (cell: {cell.name})")
        for t in grid:
            flowed = reeb.flow_exact(point, t) if t else point
            name, residual = phase.check_reduced_membership(
                fx, phase.hilbert_map(fx.spec, flowed)
            )
            print(f"     t = {t:6.3f}  ->  {name:<18} residual {residual:.1e}")
            if t > 0 and name.startswith("Seam("):
                failures += 1

        traj = reeb.flow_rk4(point, t_end=t_end, step=step)
        drift = reeb.conservation_report(traj)
        endpoint = reeb.flow_exact(point, t_end)
        err = float(np.max(np.abs(traj.xs[-1] - endpoint.x)))
        print(f"     rk4: endpoint error {err:.1e}, "
              f"worst drift {np.max(list(drift.values())):.1e}")
    if failures:
        print(f"   {failures} flowed points stayed on a seam")
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fixture", choices=sorted(BUILTIN_FIXTURES),
                        default="t2-on-r4")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--t-end", type=float, default=1.2)
    parser.add_argument("--step", type=float, default=1e-3)
    args = parser.parse_args()
    return demo(args.fixture, args.seed, args.t_end, args.step)


if __name__ == "__main__":
    sys.exit(main())
