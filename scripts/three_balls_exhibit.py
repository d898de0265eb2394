#!/usr/bin/env python3
"""Separating instance: the periodic-projection cycle is not a minimizer.

On three unit balls centered (0,0), (10,0), (5,1), the limit cycle of the
periodic sweep differs visibly from the constrained minimizer of the smooth
cyclic squared-distance functional: the exhibit prints both tuples, the
value gap, the blockwise displacement, and the projected-gradient residual
of the cycle measured with central finite differences.
"""

import argparse
import json
from pathlib import Path

import numpy as np

from cyclex import Ball, CyclicSquared, Family, candidate_gap, project_blocks
from cyclex.sums import max_distance


def fd_gradient(obj, y, h=1e-6):
    g = np.zeros_like(y)
    for i in range(y.shape[0]):
        for j in range(y.shape[1]):
            bump = np.zeros_like(y)
            bump[i, j] = h
            g[i, j] = (obj.value(y + bump) - obj.value(y - bump)) / (2.0 * h)
    return g


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--start", default="0,3", help="sweep start point (comma list)")
    parser.add_argument("--out", default="out/three_balls_gap.json")
    args = parser.parse_args()

    fam = Family((Ball([0, 0], 1.0), Ball([10, 0], 1.0), Ball([5, 1], 1.0)))
    x0 = np.array([float(t) for t in args.start.split(",")])
    exhibit = candidate_gap(fam, "cyclic2", x0)

    obj = CyclicSquared(3)
    cyc = np.stack(exhibit.cycle.points)
    gamma = 1.0 / obj.lipschitz_inverse_beta
    stepped = cyc - gamma * fd_gradient(obj, cyc)
    residual = max_distance(project_blocks(fam, stepped), cyc)

    print("periodic cycle:")
    for p in exhibit.cycle.points:
        print("   ", np.round(p, 6).tolist())
    print("cyclic2 minimizer:")
    for b in exhibit.minimizer:
        print("   ", np.round(b, 6).tolist())
    print(f"value gap        : {exhibit.gap:.6f}")
    print(f"displacement     : {exhibit.displacement:.6f}")
    print(f"cycle fd residual: {residual:.6f}  (0 would mean the cycle is stationary)")

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    payload = exhibit.to_dict()
    payload["cycle_fd_residual"] = residual
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"written to {out}")


if __name__ == "__main__":
    main()
