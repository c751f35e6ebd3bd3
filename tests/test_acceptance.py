"""Acceptance gate: eight binding criteria, one printed verdict line each.

Each test prints exactly one `ACCEPT aN <name>: PASS/FAIL (...)` line,
bypassing capture so the verdict is visible in a plain `pytest -v` run.
Tolerances and grids are pinned here and must not be loosened to make a
failing build green; a red criterion means the build does not meet the
contract. The suite is slow by design: it includes a 1024x1024 Euler
characteristic sweep and two 512x512 depth-8 sharpness ladders.
"""

import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from umbilic import GridSpec, cli, corollary_check, sharpness_gap, verify_prel
from umbilic import expressions as ex
from umbilic import geometry as geo
from umbilic import quadrature as q
from umbilic.surfaces import preset

from test_geometry import (
    ALL_PRESETS,
    SCALARS,
    rigid_motion_spec,
    sample_points,
    substitute,
    swapped_spec,
)

CLOSED = [
    ("sphere", {"r": 1.0}, 2),
    ("ellipsoid_rev", {"a": 1.0, "b": 2.0}, 2),
    ("ellipsoid_tri", {"a": 1.0, "b": 1.3, "c3": 1.7}, 2),
    ("torus", {"R": 2.0, "r": 1.0}, 0),
    ("centered_sphere_spaceform", {"rho": 0.5, "c": 1.0}, 2),
    ("centered_sphere_spaceform", {"rho": 0.5, "c": -1.0}, 2),
]

FOUR_PI = 4.0 * math.pi
EIGHT_PI = 8.0 * math.pi


def checkpoint(capsys, name, problems, detail):
    verdict = "FAIL" if problems else "PASS"
    with capsys.disabled():
        print(f"\nACCEPT {name}: {verdict} ({detail})")
    assert not problems, f"{name}: " + "; ".join(problems)


def test_a1_structural_identities(capsys):
    # every first-order identity residual < 1e-8 and the second-order
    # residual < 1e-6 (curvature-scale normalized) at 1000 seeded points
    # on all 7 preset configurations, under 60 s
    start = time.monotonic()
    problems = []
    worst1 = worst2 = 0.0
    for name, params in ALL_PRESETS:
        spec = preset(name, params)
        us, vs = sample_points(spec, 1000)
        res = geo.identity_residuals(geo.point_geometry(spec, us, vs))
        for key, arr in res.normalized().items():
            m = float(np.max(arr))
            worst1 = max(worst1, m)
            if m >= 1e-8:
                problems.append(f"{name}{params}: {key} residual {m:.3e} >= 1e-8")
        b = float(np.max(geo.bochner_residual(geo.point_geometry(spec, us, vs, 4)).normalized()))
        worst2 = max(worst2, b)
        if b >= 1e-6:
            problems.append(f"{name}{params}: second-order residual {b:.3e} >= 1e-6")
    elapsed = time.monotonic() - start
    if elapsed >= 60.0:
        problems.append(f"runtime {elapsed:.1f}s >= 60s")
    checkpoint(capsys, "a1 structural identities", problems,
               f"worst first-order {worst1:.2e}, worst second-order {worst2:.2e}, "
               f"{elapsed:.1f}s")


def test_a2_gauss_consistency(capsys):
    # intrinsic scalar curvature from (g, dg, d2g) matches the extrinsic
    # expression to 1e-7 in each ambient sign
    cases = [
        ("ellipsoid_tri", {"a": 1.0, "b": 1.3, "c3": 1.7}),   # c = 0
        ("centered_sphere_spaceform", {"rho": 0.5, "c": 1.0}),
        ("centered_sphere_spaceform", {"rho": 0.5, "c": -1.0}),
    ]
    problems = []
    worst = 0.0
    for name, params in cases:
        spec = preset(name, params)
        us, vs = sample_points(spec, 300)
        pg = geo.point_geometry(spec, us, vs)
        r_int = np.asarray(geo.intrinsic_scalar_curvature(pg))
        r_ext = np.asarray(pg.R)
        err = float(np.max(np.abs(r_int - r_ext) / (1.0 + np.abs(r_ext))))
        worst = max(worst, err)
        if err >= 1e-7:
            problems.append(f"{name} c={spec.ambient_c}: mismatch {err:.3e} >= 1e-7")
    checkpoint(capsys, "a2 gauss consistency", problems, f"worst mismatch {worst:.2e}")


def test_a3_euler_characteristic(capsys):
    # total-curvature integral recovers the integer invariant on every
    # closed preset: within 0.05 at 512^2 and 0.01 at 1024^2, under 5 min
    start = time.monotonic()
    problems = []
    worst_fine = 0.0
    for name, params, chi in CLOSED:
        spec = preset(name, params)
        for nu, tol in ((512, 0.05), (1024, 0.01)):
            est, rounded = q.euler_characteristic(spec, GridSpec(nu, nu))
            err = abs(est - chi)
            if nu == 1024:
                worst_fine = max(worst_fine, err)
            if err >= tol or rounded != chi:
                problems.append(
                    f"{name}{params} at {nu}^2: estimate {est!r} vs {chi} (tol {tol})"
                )
    elapsed = time.monotonic() - start
    if elapsed >= 300.0:
        problems.append(f"runtime {elapsed:.1f}s >= 300s")
    checkpoint(capsys, "a3 euler characteristic", problems,
               f"worst 1024^2 error {worst_fine:.2e}, {elapsed:.1f}s")


def test_a4_inequality_margins(capsys):
    # the margin of the main inequality stays >= -tol on every closed
    # preset over the pinned epsilon ladder at 256^2; the round sphere
    # margin equals 4*pi to 1%; the empty-region torus row is identically 0
    grid = GridSpec(256, 256, 6)
    ladder = (0.5, 0.25, 0.1, 0.05)
    problems = []
    worst_rel = 0.0
    for name, params, _chi in CLOSED:
        report = verify_prel(preset(name, params), ladder, grid)
        if report.verdict != "PASS":
            bad = [r for r in report.rows if not r.passed]
            problems.append(
                f"{name}{params}: verdict {report.verdict}, e.g. eps={bad[0].eps} "
                f"margin {bad[0].margin:.3e} < -{bad[0].tol_margin:.3e}"
            )
        worst_rel = max(
            worst_rel,
            max(-(r.margin + r.tol_margin) / max(abs(r.rhs), 1.0) for r in report.rows),
        )
        if name == "sphere":
            for r in report.rows:
                if abs(r.margin - FOUR_PI) > 0.01 * FOUR_PI:
                    problems.append(f"sphere eps={r.eps}: margin {r.margin!r} != 4pi +- 1%")
        if name == "torus":
            r = report.rows[-1]
            assert r.eps == 0.05
            for field in ("vol_omega_c", "term1", "term2", "lhs", "rhs",
                          "margin", "cond3_value"):
                if abs(getattr(r, field)) > 1e-12:
                    problems.append(f"torus eps=0.05: {field} = {getattr(r, field)!r} != 0")
    checkpoint(capsys, "a4 inequality margins", problems,
               f"{len(CLOSED)} closed presets x {len(ladder)} eps at 256^2")


def test_a5_sharpness_ladders(capsys):
    # [DERIVED] at 512^2 depth 8 the |normalized gap| ladders are strictly
    # decreasing and at least halve from eps=0.4 to eps=0.05; frozen runs:
    # b=2.0: 0.11589 0.04564 0.02063 0.00985
    # b=1.5: 0.45178 0.09566 0.03962 0.01826
    grid = GridSpec(512, 512, 8)
    ladder = (0.4, 0.2, 0.1, 0.05)
    problems = []
    tails = []
    for b in (2.0, 1.5):
        spec = preset("ellipsoid_rev", {"a": 1.0, "b": b})
        rows = sharpness_gap(spec, ladder, grid)
        gaps = [abs(r.normalized_gap) for r in rows]
        tails.append(gaps[-1])
        for lo, hi in zip(gaps[1:], gaps):
            if lo >= hi:
                problems.append(f"b={b}: ladder not strictly decreasing: {gaps}")
                break
        if gaps[-1] >= gaps[0] / 2.0:
            problems.append(f"b={b}: |gap| only fell {gaps[0]:.4f} -> {gaps[-1]:.4f}")
    checkpoint(capsys, "a5 sharpness ladders", problems,
               f"final |normalized gap| b=2: {tails[0]:.4f}, b=1.5: {tails[1]:.4f}")


def test_a6_sufficient_conditions(capsys):
    # round sphere: all three sufficient conditions hold; flattened
    # ellipsoid: the third-condition ladder exceeds 8*pi*0.9 at eps=0.05
    # and is non-decreasing, so no condition fires (correctly)
    grid = GridSpec(256, 256, 6)
    problems = []
    rec_s = corollary_check(preset("sphere"), 0.5, grid)
    if not (rec_s.cond1_holds and rec_s.cond2_holds and rec_s.cond3_supported):
        problems.append(
            f"sphere: cond1={rec_s.cond1_holds} cond2={rec_s.cond2_holds} "
            f"cond3={rec_s.cond3_supported}"
        )
    if "Vol" not in rec_s.verdict:
        problems.append(f"sphere verdict {rec_s.verdict!r} claims nothing")
    rec_e = corollary_check(preset("ellipsoid_rev", {"a": 1.0, "b": 2.0}), 0.4, grid)
    vals = [v for _eps, v in rec_e.cond3_rows]
    if vals[-1] <= EIGHT_PI * 0.9:
        problems.append(f"ellipsoid cond3(0.05) = {vals[-1]:.3f} <= 8pi*0.9")
    if any(b < a for a, b in zip(vals, vals[1:])):
        problems.append(f"ellipsoid cond3 ladder decreased: {vals}")
    if rec_e.cond3_supported or rec_e.cond1_holds or rec_e.cond2_holds:
        problems.append("ellipsoid: a sufficient condition fired spuriously")
    checkpoint(capsys, "a6 sufficient conditions", problems,
               f"sphere all hold; ellipsoid cond3 tail {vals[-1]:.2f} vs 8pi "
               f"= {EIGHT_PI:.2f}")


def test_a7_invariance(capsys):
    # chart-order swap (all presets), rigid motion (flat ambient), and
    # u -> 2u reparametrization (all presets) preserve every inequality
    # scalar to 1e-9 relative at 200 seeded points
    problems = []
    worst = 0.0

    def compare(tag, a_pg, b_pg):
        nonlocal worst
        for key in SCALARS:
            a = np.asarray(getattr(a_pg, key), dtype=float)
            b = np.asarray(getattr(b_pg, key), dtype=float)
            rel = float(np.max(np.abs(a - b) / (1e-9 + np.abs(a))))
            worst = max(worst, rel)
            if not np.allclose(b, a, rtol=1e-9, atol=1e-9):
                problems.append(f"{tag}: {key} off by {rel:.3e}")

    for name, params in ALL_PRESETS:
        spec = preset(name, params)
        us, vs = sample_points(spec, 200)
        pg = geo.point_geometry(spec, us, vs)
        compare(f"{name} swap", pg, geo.point_geometry(swapped_spec(spec), vs, us))
        scaled = replace(
            spec,
            components=tuple(
                substitute(c, {"u": ex.Binary("*", ex.Number(2.0), ex.Var("u"))})
                for c in spec.components
            ),
            u_range=(spec.u_range[0] / 2.0, spec.u_range[1] / 2.0),
        )
        compare(f"{name} reparam", pg, geo.point_geometry(scaled, us / 2.0, vs))
    for name in ("sphere", "ellipsoid_rev", "torus", "graph_bump"):
        spec = preset(name)
        us, vs = sample_points(spec, 200)
        compare(
            f"{name} motion",
            geo.point_geometry(spec, us, vs),
            geo.point_geometry(rigid_motion_spec(spec, seed=7), us, vs),
        )
    checkpoint(capsys, "a7 invariance", problems, f"worst relative drift {worst:.2e}")


def test_a8_reproducibility(capsys, tmp_path):
    # two runs with identical configuration produce byte-identical CSV and
    # byte-identical JSON apart from the timestamp line
    argv = ["verify", "--preset", "ellipsoid_rev", "--a", "1", "--b", "2",
            "--eps", "0.5,0.1", "--grid", "128x128", "--depth", "6"]
    dirs = (tmp_path / "run1", tmp_path / "run2")
    problems = []
    for d in dirs:
        if cli.main(argv + ["--out", str(d)]) != 0:
            problems.append(f"run into {d.name} did not exit 0")
    detail = "runs failed"
    if not problems:
        csv_a = (dirs[0] / "verify_rows.csv").read_bytes()
        csv_b = (dirs[1] / "verify_rows.csv").read_bytes()
        if csv_a != csv_b:
            problems.append("CSV outputs differ between identical runs")

        def stripped(d):
            text = (d / "verify_report.json").read_text()
            return [l for l in text.splitlines() if '"timestamp"' not in l]

        ja, jb = stripped(dirs[0]), stripped(dirs[1])
        if ja != jb:
            problems.append("JSON outputs differ beyond the timestamp line")
        payload = json.loads((dirs[0] / "verify_report.json").read_text())
        if "timestamp" not in payload:
            problems.append("JSON report lost its timestamp field")
        detail = f"{len(csv_a)} CSV bytes and {len(ja)} JSON lines identical"
    checkpoint(capsys, "a8 reproducibility", problems, detail)
