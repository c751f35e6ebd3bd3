import math
from dataclasses import replace

import numpy as np
import pytest

from umbilic import quadrature as q
from umbilic import verifier as V
from umbilic.cli import DEFAULT_EPS
from umbilic.errors import VerifierInputError
from umbilic.geometry import classification_values, point_geometry
from umbilic.quadrature import GridSpec
from umbilic.surfaces import POLAR_MARGIN, load_definition, preset
from oracles import revolution_integrals
from test_cli import SHIFTED_TORUS

G128 = GridSpec(128, 128, 6)
G256 = GridSpec(256, 256, 6)

CLOSED = [
    ("sphere", {"r": 1.0}),
    ("ellipsoid_rev", {"a": 1.0, "b": 2.0}),
    ("ellipsoid_tri", {"a": 1.0, "b": 1.3, "c3": 1.7}),
    ("torus", {"R": 2.0, "r": 1.0}),
    ("centered_sphere_spaceform", {"rho": 0.5, "c": 1.0}),
    ("centered_sphere_spaceform", {"rho": 0.5, "c": -1.0}),
]


# -- input validation ---------------------------------------------------------


def test_ladder_validation():
    sph = preset("sphere")
    with pytest.raises(VerifierInputError):
        V.verify_prel(sph, [], G128)
    with pytest.raises(VerifierInputError):
        V.verify_prel(sph, [1.5], G128)  # constant invalid above 1
    with pytest.raises(VerifierInputError):
        V.verify_prel(sph, [0.1, 0.5], G128)
    with pytest.raises(VerifierInputError):
        V.verify_prel(sph, [0.5, 0.5], G128)
    with pytest.raises(VerifierInputError):
        V.verify_prel(sph, [0.5, -0.1], G128)


@pytest.mark.parametrize(
    "ladder, text",
    [([], "must not be empty"), ([1.5], "threshold 1.5 rejected"),
     ([0.1, 0.5], "strictly decreasing"), ([0.5, float("nan")], "threshold nan rejected")],
)
def test_verifier_and_region_integrals_share_the_ladder_rule(ladder, text):
    with pytest.raises(VerifierInputError, match=text) as verifier_err:
        V.verify_prel(preset("sphere"), ladder, G128)
    with pytest.raises(ValueError, match=text) as region_err:
        q.region_integrals(preset("sphere"), ladder, GridSpec(16, 16, 2))
    assert str(region_err.value) == str(verifier_err.value)


def test_open_chart_rejected():
    with pytest.raises(VerifierInputError):
        V.verify_prel(preset("graph_bump"), [0.5], G128)


def test_eps0_validation():
    with pytest.raises(VerifierInputError):
        V.corollary_check(preset("sphere"), 0.0, G128)
    with pytest.raises(VerifierInputError):
        V.corollary_check(preset("sphere"), 1.2, G128)


def test_sharpness_guards():
    with pytest.raises(VerifierInputError):
        V.sharpness_gap(preset("ellipsoid_rev", {"a": 1.0, "b": 1.0001}), [0.4], G128)
    with pytest.raises(VerifierInputError):
        V.sharpness_gap(preset("torus"), [0.4], G128)  # no (a, b) semi-axes


# -- inequality anchors --------------------------------------------------------


def test_sphere_report_values():
    # [DERIVED] totally umbilic: both hring-weighted terms vanish,
    # lhs = 3 * 4 pi, rhs = 8 pi, margin = 4 pi
    rep = V.verify_prel(preset("sphere"), [0.5, 0.1], G256)
    assert rep.verdict == "PASS"
    assert rep.chi_rounded == 2
    assert rep.H_sup == pytest.approx(2.0, abs=1e-9)
    assert rep.C_const == pytest.approx(3.0, abs=1e-9)
    for r in rep.rows:
        assert abs(r.term1) < 1e-12
        assert abs(r.term2) < 1e-12
        assert r.lhs == pytest.approx(12 * math.pi, rel=1e-4)
        assert r.rhs == pytest.approx(8 * math.pi, rel=1e-12)
        assert r.margin == pytest.approx(4 * math.pi, rel=0.01)
        assert r.passed
        assert r.c_min_empirical == pytest.approx(2.0, rel=1e-3)


def test_sphere_radius_changes_constant_not_verdict():
    # [DERIVED] sphere(r): H_sup = 2/r, lhs = (2/r^2 + 1) 4 pi r^2, rhs = 8 pi
    rep = V.verify_prel(preset("sphere", {"r": 2.0}), [0.5], G128)
    assert rep.H_sup == pytest.approx(1.0, abs=1e-9)
    assert rep.C_const == pytest.approx(1.5, abs=1e-9)
    assert rep.rows[0].margin == pytest.approx(1.5 * 16 * math.pi - 8 * math.pi, rel=0.01)
    assert rep.verdict == "PASS"


def test_torus_small_eps_exact_equality():
    # [DERIVED] empty sublevel region and chi = 0: every row field is zero
    rep = V.verify_prel(preset("torus"), [0.05], G128)
    r = rep.rows[0]
    assert rep.verdict == "PASS"
    assert rep.chi_rounded == 0
    for value in (r.vol_omega_c, r.term1, r.term2, r.lhs, r.rhs, r.margin,
                  r.cond3_value, r.sharp_gap, r.tol_margin):
        assert abs(value) <= 1e-12
    assert r.c_min_empirical is None


@pytest.mark.parametrize("name,params", CLOSED)
def test_all_closed_presets_pass(name, params):
    # the inequality is a theorem: margins clear -tol on every surface
    rep = V.verify_prel(preset(name, params), [0.5, 0.25, 0.1, 0.05], G128)
    assert rep.verdict == "PASS"
    for r in rep.rows:
        assert r.margin >= -r.tol_margin


def test_ellipsoid_report_shape():
    rep = V.verify_prel(preset("ellipsoid_rev"), [0.5, 0.25, 0.1, 0.05], G256)
    assert rep.verdict == "PASS"
    assert rep.chi_rounded == 2
    # [DERIVED] sup |H| = 4 at the poles, approached from grid nodes
    assert 3.95 < rep.H_sup <= 4.0
    assert rep.C_const == pytest.approx(0.5 * rep.H_sup**2 + 1.0, rel=1e-12)
    vols = [r.vol_omega_c for r in rep.rows]
    assert all(b < a for a, b in zip(vols, vols[1:]))
    # gap column shrinks in magnitude along the ladder
    gaps = [abs(r.sharp_gap) for r in rep.rows]
    assert gaps[-1] < gaps[0]
    # rhs/lhs bookkeeping is internally consistent
    for r in rep.rows:
        assert r.rhs == pytest.approx(r.term1 - r.term2 + 8 * math.pi, rel=1e-12)
        assert r.margin == pytest.approx(r.lhs - r.rhs, abs=1e-12)
        assert r.sharp_gap == pytest.approx(r.term2 - r.term1 - 8 * math.pi, rel=1e-12)


@pytest.mark.parametrize("n", [48, 130])
def test_error_bar_needs_exact_quarter_grid(n):
    # the levels are exactly G/4, G/2, G: no stand-in grid without --tol
    with pytest.raises(VerifierInputError, match="--tol"):
        V.verify_prel(preset("sphere"), [0.5], GridSpec(n, n, 4))
    rep = V.verify_prel(preset("sphere"), [0.5], GridSpec(n, n, 4), tol_margin=1e-6)
    assert rep.rows[0].tol_margin == 1e-6


def test_tol_margin_is_richardson_of_dominant_term():
    # reference path: one convergence_study per row over 16^2, 32^2, 64^2
    spec = preset("ellipsoid_rev")
    ladder = [0.5, 0.25, 0.1, 0.05]
    rep = V.verify_prel(spec, ladder, GridSpec(64, 64, 4))
    for r in rep.rows:
        s1, s2 = 2.0 / r.eps**4, 1.0 / r.eps**4
        candidates = (
            (abs(r.lhs), lambda pg: rep.C_const),
            (abs(r.term1), lambda pg: s1 * pg.nabla_hring_norm2 * pg.hring_norm2),
            (abs(r.term2), lambda pg: s2 * pg.gradH_norm2 * pg.hring_norm2),
        )
        _, field = max(candidates, key=lambda t: t[0])
        study = q.convergence_study(spec, field, q.sublevel(r.eps), GridSpec(64, 64, 4))
        assert r.tol_margin > 0
        assert r.tol_margin == pytest.approx(3.0 * study.error_estimate, rel=1e-9)


def test_h_sup_is_the_max_over_every_evaluated_node():
    # H_sup is the max |H| over every node the pass evaluates: on
    # ellipsoid_rev(1, 2) at 128^2 it is the corners' on the polar margin,
    # 3.99999, which the midpoints alone (3.99789) miss; no sub-lattice
    # node at the interfaces, far from the poles, comes closer to sup |H| = 4
    spec, grid = preset("ellipsoid_rev", {"a": 1.0, "b": 2.0}), GridSpec(128, 128, 4)
    rep = V.verify_prel(spec, DEFAULT_EPS, grid)
    corner, mid = (float(np.max(classification_values(spec, *q._lattice(spec, grid, centers=c))[1]))
                   for c in (False, True))
    assert rep.h_sup_measured == rep.H_sup == max(corner, mid) == corner
    assert corner == pytest.approx(3.99999, abs=1e-5) and mid == pytest.approx(3.99789, abs=1e-5)


def test_h_sup_override_and_fixed_tol():
    rep = V.verify_prel(
        preset("sphere"), [0.5], G128, h_sup_override=5.0, tol_margin=1e-6
    )
    assert rep.H_sup == 5.0
    assert rep.h_sup_measured == pytest.approx(2.0, abs=1e-9)
    assert rep.C_const == pytest.approx(13.5)
    assert rep.rows[0].tol_margin == 1e-6
    assert any("override" in w for w in rep.warnings)


def test_coarse_grid_flags_unstable_h_sup(tmp_path):
    # |H| peaks on the shifted torus's outer equator, here half a cell of
    # G128 off its corner rows: G's midpoints hold the peak, the half grid's
    # corners and midpoints do not
    path = tmp_path / "torus.ini"
    path.write_text(SHIFTED_TORUS)
    spec = load_definition(path)
    rep = V.verify_prel(spec.with_params(shift=-math.pi / 128), [0.5], G128)
    assert rep.warnings == (
        "sup|H| estimate moved 4.32215 -> 4.33333 between grid levels; treat C as unreliable"
        " or pass an override",
    )
    assert rep.verdict == "PASS"
    assert V.verify_prel(spec.with_params(shift=0.0), [0.5], G128).warnings == ()


def test_coarse_grid_flags_chi_far_from_an_integer():
    # a prolate ellipsoid (b = 8) on 16 x 16 base cells: total_R / 4 pi
    # lands 0.23 from the nearest integer
    rep = V.verify_prel(
        preset("ellipsoid_rev", {"a": 1, "b": 8}), (0.5,), GridSpec(16, 16, 0), tol_margin=1.0
    )
    assert rep.chi_estimate == pytest.approx(2.2344, abs=1e-4) and rep.chi_rounded == 2
    assert rep.warnings[0] == (
        "Euler characteristic estimate 2.2344 is far from an integer; refine the grid"
    )


def test_coarse_grid_flags_an_odd_chi():
    # a flat oblate ellipsoid (a = 5, b = 0.3) on 16 x 16 base cells: total_R
    # / 4 pi lands 0.003 from 1, an odd value, which no closed chart gives
    rep = V.verify_prel(
        preset("ellipsoid_rev", {"a": 5, "b": 0.3}), (0.5,), GridSpec(16, 16, 0), tol_margin=1.0
    )
    assert rep.chi_estimate == pytest.approx(1.0030, abs=1e-4) and rep.chi_rounded == 1
    assert rep.warnings[0] == (
        "Euler characteristic estimate 1.0030 rounds to the odd value 1, which no closed"
        " chart gives; refine the grid"
    )


def test_report_determinism():
    a = V.verify_prel(preset("ellipsoid_rev"), [0.5, 0.1], G128)
    b = V.verify_prel(preset("ellipsoid_rev"), [0.5, 0.1], G128)
    assert a == b


def test_spaceform_margin_includes_ambient_term():
    # c enters through 4|c| in the constant; both signs pass
    for c in (1.0, -1.0):
        rep = V.verify_prel(
            preset("centered_sphere_spaceform", {"rho": 0.5, "c": c}), [0.5], G128
        )
        assert rep.verdict == "PASS"
        h = rep.H_sup
        assert rep.C_const == pytest.approx(0.5 * h * h + 4.0 + 1.0, rel=1e-12)
        r = rep.rows[0]
        assert r.vol_omega_c == pytest.approx(rep.rows[0].lhs / rep.C_const, rel=1e-12)
        assert abs(r.term1) < 1e-12 and abs(r.term2) < 1e-12


# -- error-bar coverage ------------------------------------------------------------


# (b, grid side) of ellipsoid_rev(1, b) at depth 6 on the default ladder
COVERAGE_CASES = [
    (2.0, 256),
    (2.0, 512),
    (1.5, 256),
    (1.5, 512),
]


@pytest.mark.parametrize("b, n", COVERAGE_CASES)
def test_error_bars_cover_the_exact_margin(b, n):
    # the exact margin takes the report's own C and chi = 2, and the region
    # integrals of the revolution oracle; e.g. b=2 at 512^2, eps 0.05: error
    # 6.6e-5, bar 6.4e-3
    rep = V.verify_prel(preset("ellipsoid_rev", {"a": 1.0, "b": b}), DEFAULT_EPS,
                        GridSpec(n, n, 6))
    for r in rep.rows:
        exact = revolution_integrals(1.0, b, r.eps, POLAR_MARGIN)
        rhs = (2.0 * exact["I_grad_hring"] - exact["I_grad_H"]) / r.eps**4 + 8.0 * math.pi
        error = abs(r.margin - (rep.C_const * exact["vol_omega_c"] - rhs))
        assert r.tol_margin >= error, (r.eps, r.tol_margin, error)


# -- corollary ------------------------------------------------------------------


def test_corollary_sphere_all_conditions_hold():
    rec = V.corollary_check(preset("sphere"), 0.5, G128)
    assert rec.chi_rounded == 2
    assert rec.cond1_holds and rec.cond1_max_gradH2 < 1e-10
    assert rec.cond2_holds
    assert rec.cond3_supported and rec.cond3_trend == "plateau"
    assert rec.verdict == "implies Vol(Omega_c_0) > 0"


def test_corollary_ellipsoid_cond3_fails():
    # [DERIVED] measure-zero umbilic set: the 1/eps^2 integral must exceed
    # 8 pi in the limit; the ladder rises well past it
    rec = V.corollary_check(preset("ellipsoid_rev"), 0.4, G256)
    assert not rec.cond1_holds
    assert not rec.cond2_holds
    assert not rec.cond3_supported
    assert rec.cond3_trend == "increasing"
    values = [v for _, v in rec.cond3_rows]
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert values[-1] > 8 * math.pi * 0.9
    assert rec.cond3_rows[-1][0] == pytest.approx(0.05)
    assert rec.verdict == "no condition verified"


def test_corollary_refuses_wrong_topology():
    with pytest.raises(VerifierInputError, match="not 2"):
        V.corollary_check(preset("torus"), 0.5, G128)


def test_corollary_open_chart_reports_values_only():
    rec = V.corollary_check(preset("graph_bump", {"A": 0.3, "s": 1.0}), 0.5, G128)
    assert rec.chi_rounded is None
    assert any("not closed" in n for n in rec.notes)
    assert len(rec.cond3_rows) == 4


def test_corollary_vacuous_on_empty_region():
    open_torus = replace(preset("torus"), is_closed=False)
    rec = V.corollary_check(open_torus, 0.05, G128)
    assert rec.cond1_max_gradH2 is None
    assert rec.cond1_holds and rec.cond2_holds
    assert any("vacuously" in n for n in rec.notes)


def test_corollary_conditions_are_midpoint_maxima():
    # conditions 1 and 2 are maxima over the base midpoints inside the eps0
    # region; here from point_geometry on the midpoint lattice, bit for bit
    spec = preset("ellipsoid_tri")
    # at eps0 = 0.2 the maxima move when the region grows or shrinks by 10%
    rec = V.corollary_check(spec, 0.2, G128)
    pg = point_geometry(spec, *q._lattice(spec, G128, centers=True))
    inside = pg.hring_norm2 < 0.2**2
    assert 0 < inside.sum() < inside.size
    assert rec.cond1_max_gradH2 == float(np.max(pg.gradH_norm2[inside]))
    excess = pg.gradH_norm2 - 2.0 * pg.nabla_hring_norm2
    assert rec.cond2_max_excess == float(np.max(excess[inside]))


# verify_prel(eps0=) runs one pass over the union of its ladder and the
# corollary ladder: eps0 = 0.5 shares thresholds with DEFAULT_EPS, 0.3 none.
# H_sup is a max over every inside leaf of the pass, so this also pins that
# the corollary's extra thresholds do not move it.
@pytest.mark.parametrize("eps0", [0.5, 0.3])
@pytest.mark.parametrize("name, params", [
    ("ellipsoid_rev", {"a": 1.0, "b": 2.0}),
    ("ellipsoid_tri", {}),
    ("sphere", {}),
    ("centered_sphere_spaceform", {}),
])
def test_verify_with_eps0_is_verify_plus_corollary(name, params, eps0):
    spec = preset(name, params)
    report = V.verify_prel(spec, DEFAULT_EPS, G128, eps0=eps0)
    plain = V.verify_prel(spec, DEFAULT_EPS, G128)
    assert plain.corollary is None
    assert replace(report, corollary=None) == plain
    assert report.corollary == V.corollary_check(spec, eps0, G128)


# -- sharpness -------------------------------------------------------------------


def test_sharpness_ladder_shrinks():
    # [DERIVED] the equality case: normalized gap decreases along the ladder
    rows = V.sharpness_gap(preset("ellipsoid_rev"), [0.4, 0.2, 0.1, 0.05], G256)
    ngs = [abs(r.normalized_gap) for r in rows]
    assert all(b < a for a, b in zip(ngs, ngs[1:]))
    assert ngs[-1] < ngs[0] / 2
    for r in rows:
        assert abs(r.normalized_gap) < 1.0


def test_sharpness_matches_report_rows():
    ladder = [0.4, 0.1]
    rep = V.verify_prel(preset("ellipsoid_rev"), ladder, G128)
    rows = V.sharpness_gap(preset("ellipsoid_rev"), ladder, G128)
    for rr, sr in zip(rep.rows, rows):
        assert sr.sharp_gap == pytest.approx(rr.sharp_gap, rel=1e-12)


# -- trend classifier --------------------------------------------------------------


def test_classify_trend():
    assert V.classify_trend([10.0, 5.0, 2.0]) == "decreasing"
    assert V.classify_trend([2.0, 5.0, 10.0]) == "increasing"
    assert V.classify_trend([5.0, 5.01, 4.99]) == "plateau"
    assert V.classify_trend([0.0, 0.0, 0.0]) == "plateau"
    assert V.classify_trend([1.0]) == "plateau"
    assert V.classify_trend([0.0, 1.0]) == "increasing"
