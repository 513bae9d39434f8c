"""Generate the frozen reference table perfbench/references.json.

For every exponent n on the 0.01-spaced grid over [0.10, 2.00] and every
star-frame boundary eta* the benchmark requests, the reference wall curvature
is the shooting solution (default tolerances) at the matched physical boundary

    eta_inf = eta* * F'(eta*) ** ((2 - n) / (n + 1)),

where F' is the far-field slope of the unit-curvature star IVP.  This is the
boundary at which the one-IVP route imposes f' = 1, and the formula is regular
at n = 0.5 and n = 2.0, where the scaling exponent is not.

The table is generated once and committed; the benchmark never regenerates it.
Run from the repository root:

    python3 perfbench/make_references.py
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "perfbench", "references.json")

GRID = [round(k / 100, 2) for k in range(10, 201)]
ETA_STAR = (6.0, 8.0, 10.0, 15.0, 20.0, 40.0)


def _reference_row(n: float) -> dict[str, float]:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from blasius_powerlaw.nitm import NitmConfig, solve_star_ivp
    from blasius_powerlaw.shooting import ShootingConfig, solve_shooting

    row = {}
    for eta_star in ETA_STAR:
        fp_star = solve_star_ivp(n, NitmConfig(eta_star_inf=eta_star)).final.fp
        eta_inf = eta_star * fp_star ** ((2.0 - n) / (n + 1.0))
        row[f"{eta_star:g}"] = solve_shooting(n, ShootingConfig(eta_inf=eta_inf)).fpp0
    return row


def main() -> None:
    with multiprocessing.get_context("spawn").Pool() as pool:
        rows = pool.map(_reference_row, GRID, chunksize=1)
    doc = {
        "rule": "solve_shooting (default tolerances) at eta_inf = eta* * F'(eta*)^((2-n)/(n+1)), "
        "F' from the unit-curvature star IVP",
        "eta_star": [f"{e:g}" for e in ETA_STAR],
        "fpp0": {f"{n:.2f}": row for n, row in zip(GRID, rows)},
    }
    with open(OUT, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(GRID)} exponents x {len(ETA_STAR)} boundaries to {OUT}")


if __name__ == "__main__":
    main()
