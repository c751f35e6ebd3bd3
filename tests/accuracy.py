"""Accuracy of the sublevel quadrature against exact yardsticks.

Writes a JSON file of deterministic figures, no timings:

- ellipsoid_rev(1, b), b in {1.5, 2}, at the CLI's default grid and depth:
  the relative errors of vol_omega_c, I_grad_hring and I_grad_H against
  the revolution oracle (`oracles.revolution_integrals`), at every
  threshold of verify's and sweep's default ladders and at 0.025;
- per verify row at defaults: |margin - exact margin| (the oracle's
  integrals with the report's own C and chi = 2, as
  test_error_bars_cover_the_exact_margin takes them), tol_margin, and
  whether the bar covers the error;
- per sweep row at defaults: the normalized gap, the exact one, and the
  relative difference;
- ellipsoid_tri: vol/eps^2 at eps 0.01 and 0.005 against the local model
  of a generic umbilic, 61.1747 + 800 eps^2.

Run from the repository root, on the package in src/ beside this file:

    python tests/accuracy.py --out ACCURACY.json
    python tests/accuracy.py --out small.json --grid 64
    python tests/accuracy.py --out ACCURACY.json --parent parent.json

--grid replaces the 512 cells per axis of every run. --parent takes the
"change" column of an earlier output (say, of this script run in a
checkout of the parent commit) as the "parent" column of this one.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from oracles import revolution_integrals  # noqa: E402
from umbilic import quadrature as q  # noqa: E402
from umbilic import verifier as V  # noqa: E402
from umbilic.cli import DEFAULT_EPS  # noqa: E402
from umbilic.surfaces import POLAR_MARGIN, preset  # noqa: E402

SWEEP_EPS = (0.4, 0.2, 0.1, 0.05)
TRI_EPS = (0.01, 0.005)
# [DERIVED] local model of vol/eps^2 at the four generic umbilics of
# ellipsoid_tri: K0 + SLOPE eps^2
K0, SLOPE = 61.1747, 800.0
NAMES = ("vol_omega_c", "I_grad_hring", "I_grad_H")


def figures(side: int) -> dict:
    """Every figure of the report on side x side grids at depth 6."""
    grid = q.GridSpec(side, side, 6)
    out = {}
    for b in (2.0, 1.5):
        spec = preset("ellipsoid_rev", {"a": 1.0, "b": b})
        ladder = sorted({*DEFAULT_EPS, *SWEEP_EPS, 0.025}, reverse=True)
        for r in q.region_integrals(spec, ladder, grid):
            exact = revolution_integrals(1.0, b, r.eps, POLAR_MARGIN)
            for name in NAMES:
                out[f"b={b} eps={r.eps} {name} rel_err"] = getattr(r, name) / exact[name] - 1.0
        rep = V.verify_prel(spec, DEFAULT_EPS, grid)
        for r in rep.rows:
            exact = revolution_integrals(1.0, b, r.eps, POLAR_MARGIN)
            rhs = (2.0 * exact["I_grad_hring"] - exact["I_grad_H"]) / r.eps**4 + 8.0 * math.pi
            error = abs(r.margin - (rep.C_const * exact["vol_omega_c"] - rhs))
            key = f"b={b} verify eps={r.eps}"
            out[f"{key} margin_err"] = error
            out[f"{key} tol_margin"] = r.tol_margin
            out[f"{key} covered"] = r.tol_margin >= error
        for r in V.sharpness_gap(spec, SWEEP_EPS, grid):
            exact = revolution_integrals(1.0, b, r.eps, POLAR_MARGIN)
            term1, term2 = 2.0 * exact["I_grad_hring"] / r.eps**4, exact["I_grad_H"] / r.eps**4
            want = (term2 - term1 - 8.0 * math.pi) / term2
            key = f"b={b} sweep eps={r.eps}"
            out[f"{key} normalized_gap"] = r.normalized_gap
            out[f"{key} exact_gap"] = want
            out[f"{key} gap_rel_err"] = r.normalized_gap / want - 1.0
    for r in q.region_integrals(preset("ellipsoid_tri"), TRI_EPS, grid):
        ratio = r.vol_omega_c / r.eps**2
        out[f"tri eps={r.eps} vol/eps^2"] = ratio
        out[f"tri eps={r.eps} model_rel_err"] = ratio / (K0 + SLOPE * r.eps**2) - 1.0
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", required=True, help="JSON file to write")
    p.add_argument("--grid", type=int, default=512, help="cells per axis (default 512)")
    p.add_argument("--parent", default=None,
                   help="an earlier output, whose change column becomes the parent column")
    args = p.parse_args(argv)
    change = figures(args.grid)
    parent = {}
    if args.parent:
        rows = json.loads(Path(args.parent).read_text())["rows"]
        parent = {row["figure"]: row["change"] for row in rows}
    rows = [{"figure": k, **({"parent": parent.get(k)} if args.parent else {}), "change": v}
            for k, v in change.items()]
    report = {"grid": args.grid, "depth": 6, "rows": rows}
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
