"""Generate tests/mp_reference.json, 30-digit truncated answers for n <= 1.

For each n in 0.1, 0.2, ..., 1.0, mpmath's Taylor-series `odefun` integrates
the star IVP in flux form, F(0) = F'(0) = 0 and W(0) = 1, with

    F'' = W^(1/n),  W' = -F F'' / (n + 1),

at mp.dps = 30, and records F'(eta*) and f''(0) = F'(eta*)^(-3/(n+1)), the
group image of that run (`nitm.group_parameters`), at eta* = 6, 10 and 40.
For n > 1 the flux reaches zero at a finite eta, where W^(1/n) turns complex
in mpmath, so those exponents stay with the SciPy tests.

Before writing, the script checks itself: every value agrees with a
mp.dps = 40 run to 20 digits, and f''(0) at n = 1, eta* = 10 is within 1e-18
of Boyd's Blasius value.  Neither pytest nor CI runs this script, and the
package never imports mpmath.  Run from the repository root (9.8 min, the
check runs included, on a 2-core Xeon with Python 3.11.7 and mpmath 1.3.0):

    python3 tests/make_mp_reference.py
"""

import json
import os

import mpmath
from mpmath import mp

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "mp_reference.json")
EXPONENTS = [f"{k / 10:.1f}" for k in range(1, 11)]
ETA_STAR = ("6", "10", "40")
DPS, CHECK_DPS = 30, 40
mp.dps = DPS
BOYD_FPP0 = mpmath.mpf("0.332057336215196299")


def star_answers(n: str, dps: int) -> list[tuple]:
    """(F'(eta*), f''(0)) at each of ETA_STAR, from one run at `dps` digits."""
    with mp.workdps(dps):
        inv_n, neg_inv_np1 = 1 / mpmath.mpf(n), -1 / (mpmath.mpf(n) + 1)

        def field(eta, y):
            f, fp, w = y
            fpp = w**inv_n
            return [fp, fpp, neg_inv_np1 * f * fpp]

        run = mp.odefun(field, 0, [mpmath.mpf(0), mpmath.mpf(0), mpmath.mpf(1)])
        return [(fp, fp ** (3 * neg_inv_np1)) for fp in (run(mpmath.mpf(eta))[1] for eta in ETA_STAR)]


def main() -> None:
    fp_star, fpp0 = {}, {}
    for n in EXPONENTS:
        answers, check = star_answers(n, DPS), star_answers(n, CHECK_DPS)
        for eta, got, more in zip(ETA_STAR, answers, check):
            for x, y in zip(got, more):
                if not abs(x - y) <= abs(y) * mpmath.mpf("1e-20"):
                    raise RuntimeError(f"{DPS} and {CHECK_DPS} digits disagree at n = {n}, eta* = {eta}: {x}, {y}")
        fp_star[n] = {eta: mpmath.nstr(fp, DPS) for eta, (fp, _) in zip(ETA_STAR, answers)}
        fpp0[n] = {eta: mpmath.nstr(g, DPS) for eta, (_, g) in zip(ETA_STAR, answers)}
        print(f"n = {n}: f''(0) = {fpp0[n]}", flush=True)
    blasius = mpmath.mpf(fpp0["1.0"]["10"])
    if not abs(blasius - BOYD_FPP0) <= mpmath.mpf("1e-18"):
        raise RuntimeError(f"f''(0) = {blasius} at n = 1, eta* = 10 is not Boyd's {BOYD_FPP0}")
    doc = {
        "rule": "mpmath odefun (Taylor series) of the F''(0) = 1 star IVP in flux form at mp.dps = 30; "
        "fpp0 = F'(eta*)^(-3/(n+1))",
        "dps": DPS,
        "eta_star": list(ETA_STAR),
        "fp_star": fp_star,
        "fpp0": fpp0,
    }
    with open(OUT, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(EXPONENTS)} exponents x {len(ETA_STAR)} boundaries to {OUT}")


if __name__ == "__main__":
    main()
