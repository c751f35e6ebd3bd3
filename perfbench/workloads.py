"""Seeded workload inputs and the checks their outputs must pass.

Each workload is one `umbilic` CLI invocation. The program only ever sees
the generated CLI arguments and, for `total_curvature`, the generated
definition file.

What the seed picks, per workload:
- `total_curvature`: the radius and squash of the ball, and `identities_bulk`:
  the torus radii and the sampling seed. Their cost does not depend on
  these, only on the grid or the sample count.
- `verify_ladder`, `sweep_deep`: only the recorded `--seed`; the ellipsoid
  stays at a=1, b=2. On a surface of revolution the interface |hring| = eps
  is a coordinate line u = const, so whole rows of cells refine or not
  together and the cost jumps with b: at 512x512, depth 8, the full-geometry
  nodes range from 0.92M to 2.56M for b in [1.98, 2.02]. A seeded b would
  measure that jump, not the program.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str                      # CLI subcommand; names its report files
    chi: int | None = None            # expected Euler characteristic, if checked


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "verify_ladder",
            "the paper's main check at CLI defaults; most time goes to the 12 Richardson"
            " passes that re-evaluate nodes region_integrals already computed",
            "verify", chi=2,
        ),
        Workload(
            "sweep_deep",
            "the sharpness ladder at depth 8: almost all interface refinement, no"
            " convergence_study and no whole-surface integrate",
            "sweep",
        ),
        Workload(
            "total_curvature",
            "whole-surface order-3 forms and covariant completion on a definition-file"
            " chart in a c<0 ambient; no classification or refinement",
            "convergence", chi=2,
        ),
        Workload(
            "identities_bulk",
            "the only user of order-4 jets, identity_residuals and bochner_residual;"
            " unchunked, so peak memory is sensitive",
            "identities",
        ),
    )
}

# Squashed ball in the conformal model of hyperbolic space; rho and k are
# drawn so that the image stays well inside the ball (|c|/4) rho^2 < 1.
BALL_INI = """\
[surface]
name = squashed_ball
x = rho*sin(u)*cos(v)
y = rho*sin(u)*sin(v)
z = k*rho*cos(u)
u_range = 0, pi
v_range = 0, 2*pi
periodic_v = true
singular_margin = 1e-3
closed = true
c = -1

[params]
rho = {rho}
k = {k}
"""

# Grid sizes: "full" is what the benchmark measures, "tiny" is the harness
# self-check (the smallest grids on which every workload still passes).
SIZES = {
    "full": {
        "verify_ladder": ["--grid", "512x512", "--depth", "6"],
        "sweep_deep": ["--grid", "512x512", "--depth", "8"],
        "total_curvature": ["--grid", "1024x1024", "--levels", "3"],
        "identities_bulk": ["--n", "100000"],
    },
    "tiny": {
        "verify_ladder": ["--grid", "128x128", "--depth", "4"],
        "sweep_deep": ["--grid", "128x128", "--depth", "6"],
        "total_curvature": ["--grid", "128x128", "--levels", "3"],
        "identities_bulk": ["--n", "2000"],
    },
}


@dataclass
class Inputs:
    """What one run of a workload hands to the program."""

    workload: Workload
    argv: list                       # CLI arguments, without --out
    surface: dict                    # {"preset": name, "params": {...}} or {"file": path}
    files: dict = field(default_factory=dict)  # path -> text, written before the run

    def write_files(self):
        for path, text in self.files.items():
            Path(path).write_text(text)


def _draw(rng, lo, hi):
    return float(f"{rng.uniform(lo, hi):.4f}")


def generate(name: str, seed: int, workdir: Path, size: str = "full") -> Inputs:
    """The inputs of workload `name` for `seed`; files go under `workdir`."""
    w = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    extra = list(SIZES[size][name])
    if name in ("verify_ladder", "sweep_deep"):
        argv = [w.command, "--preset", "ellipsoid_rev", *extra, "--seed", str(seed),
                "--a", "1", "--b", "2"]
        return Inputs(w, argv, {"preset": "ellipsoid_rev", "params": {"a": 1.0, "b": 2.0}})
    if name == "total_curvature":
        ini = Path(workdir) / "surface.ini"
        text = BALL_INI.format(rho=_draw(rng, 0.75, 0.85), k=_draw(rng, 0.65, 0.75))
        argv = [w.command, "--field", "total_R", "--file", str(ini), *extra]
        return Inputs(w, argv, {"file": str(ini)}, {str(ini): text})
    params = {"R": _draw(rng, 1.95, 2.05), "r": _draw(rng, 0.95, 1.05)}
    argv = [w.command, "--preset", "torus", *extra, "--seed", str(seed),
            "--R", repr(params["R"]), "--r", repr(params["r"])]
    return Inputs(w, argv, {"preset": "torus", "params": params})


def check_report(w: Workload, report: dict) -> tuple[list, float | None]:
    """(problems, chi_abs_err) for one JSON report; no problems means correct."""
    problems = []
    chi_err = None
    verdict = report.get("verdict")
    if w.command == "verify":
        chi = report.get("chi") or {}
        if verdict != "PASS":
            problems.append(f"verdict {verdict!r}, expected PASS")
        if chi.get("rounded") != w.chi:
            problems.append(f"chi {chi.get('rounded')!r}, expected {w.chi}")
        if isinstance(chi.get("estimate"), float):
            chi_err = abs(chi["estimate"] - w.chi)
    elif w.command == "sweep":
        trends = {row.get("trend") for row in report.get("rows", [])}
        if verdict != "decreasing" or trends != {"decreasing"}:
            problems.append(f"sweep trend {verdict!r}, expected decreasing")
    elif w.command == "convergence":
        rows = report.get("rows") or [{}]
        value = rows[-1].get("value")
        if not isinstance(value, float):
            problems.append("no total-curvature value in the report")
        else:
            chi = value / (4.0 * math.pi)
            chi_err = abs(chi - w.chi)
            if abs(chi - round(chi)) > 0.01 or round(chi) != w.chi:
                problems.append(f"total curvature gives chi {chi!r}, expected {w.chi}")
    elif verdict != "PASS":
        problems.append(f"identities verdict {verdict!r}, expected PASS")
    return problems, chi_err
