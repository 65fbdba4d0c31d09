#!/usr/bin/env python3
"""Qubit precession worked example: flow on the sphere of rays.

Integrates the projective flow generated by the z spin operator from the +x
state, writes the Bloch-vector trajectory to CSV, and prints how well the
integrated path matches the closed-form precession at a few checkpoints.

    python3 scripts/spin_precession.py --turns 2 --dt 1e-3 --out out/spin.csv

As with the CLI, bad input exits 2 with an ``error:`` line and no
traceback: ``--dt`` must be finite and positive, ``--turns`` finite and
nonnegative, and a step count ``t_end / dt`` that overflows or a ``--dt``
too large for the flow's norm-drift check is reported the same way.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from projqm.cli import _nonnegative, _positive  # noqa: E402
from projqm.dynamics import flow_integrate  # noqa: E402
from projqm.hilbert import sigma_x, sigma_y, sigma_z  # noqa: E402
from projqm.projective import fs_distance, project  # noqa: E402
from projqm.report import write_csv  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--turns", type=_nonnegative, default=1.0,
                    help="number of full precession periods (period pi)")
    ap.add_argument("--dt", type=_positive, default=1e-3)
    ap.add_argument("--out", default="out/spin_precession.csv")
    args = ap.parse_args()

    start = np.array([1.0, 1.0]) / np.sqrt(2.0)
    t_end = args.turns * np.pi
    try:
        traj = flow_integrate(sigma_z(), start, t_end, args.dt,
                              track=[("bloch_x", sigma_x()),
                                     ("bloch_y", sigma_y()),
                                     ("bloch_z", sigma_z())])
    except (ValueError, RuntimeError) as exc:  # t_end / dt overflows; norm drift (--dt too large)
        print(f"error: {exc}", file=sys.stderr)
        return 2

    tracked = dict(traj.observables_tracked)
    rows = np.column_stack([traj.times, tracked["bloch_x"], tracked["bloch_y"],
                            tracked["bloch_z"]])
    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    write_csv(args.out, ["time", "bloch_x", "bloch_y", "bloch_z"], rows)
    print(f"wrote {args.out} ({len(rows)} samples)")

    # checkpoints: the ray precesses as (cos 2t, sin 2t, 0) on the equator
    worst = 0.0
    for frac in (0.25, 0.5, 0.75, 1.0):
        k = min(int(round(frac * (len(traj.times) - 1))), len(traj.times) - 1)
        t = traj.times[k]
        worst = max(worst, abs(tracked["bloch_x"][k] - np.cos(2.0 * t)),
                    abs(tracked["bloch_y"][k] - np.sin(2.0 * t)))
    print(f"max checkpoint deviation from closed form: {worst:.3e}")

    if args.turns == int(args.turns):
        back = fs_distance(traj.final, project(start))
        print(f"return distance after {int(args.turns)} period(s): {back:.3e}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
