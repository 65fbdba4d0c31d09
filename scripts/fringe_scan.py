#!/usr/bin/env python3
"""Scan slit separation and compare measured fringe spacing to lambda L / d.

For each separation the two-slit pattern is propagated at the default
wavelength/distance, the fringe spacing is read off the interference cross
term, and both the measured and predicted values go into a CSV:

    python3 scripts/fringe_scan.py --separations 6e-5,1e-4,1.4e-4 --out out/fringes.csv

As with the CLI, bad input exits 2 with an ``error:`` line, no traceback and
no CSV: each separation must be finite and positive, and a geometry the
two-slit setup rejects (slits that overlap or leave the grid, too few
fringes to measure) is reported the same way.
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from projqm.cli import _positive  # noqa: E402
from projqm.interference import TwoSlitConfig, fringe_spacing  # noqa: E402
from projqm.report import write_csv  # noqa: E402


def _separations(text: str) -> list[float]:
    return [_positive(tok) for tok in text.split(",")]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--separations", type=_separations,
                    default="6e-5,8e-5,1e-4,1.2e-4,1.4e-4",
                    help="comma-separated slit separations in meters")
    ap.add_argument("--out", default="out/fringe_scan.csv")
    args = ap.parse_args()

    rows = []
    for sep in args.separations:
        try:
            cfg = TwoSlitConfig(slit_centers=(-sep / 2.0, sep / 2.0))
            measured = fringe_spacing(cfg.run())
        except ValueError as exc:  # a geometry the setup rejects
            print(f"error: separation {sep:g}: {exc}", file=sys.stderr)
            return 2
        predicted = cfg.expected_fringe_spacing
        rows.append([sep, measured, predicted, measured - predicted])
        print(f"d = {sep:.2e} m   measured {measured:.6e}   "
              f"predicted {predicted:.6e}   diff {measured - predicted:+.2e}")

    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    write_csv(args.out, ["separation", "measured_spacing",
                         "predicted_spacing", "difference"], rows)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
