import math
from dataclasses import replace
from types import MappingProxyType
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from umbilic import expressions as ex
from umbilic import geometry as geo
from umbilic import quadrature as q
from umbilic import tape
from umbilic import verifier as V
from umbilic.errors import SingularEvaluationError, SpecValidationError
from umbilic.surfaces import ImmersionSpec, interior_axes, load_definition, preset, validate
from umbilic.verifier import _COND_PEAKS

from oracles import fd_partial
from test_expressions import _compound

RNG_SEED = 61409


def sample_points(spec, n, seed=RNG_SEED):
    rng = np.random.default_rng(seed)
    u0, u1 = spec.u_range
    v0, v1 = spec.v_range
    m = spec.singular_margin
    if not spec.periodic_u:
        u0, u1 = u0 + m, u1 - m
    if not spec.periodic_v:
        v0, v1 = v0 + m, v1 - m
    # stay a bit inside even the margin strip: high-order jets lose digits
    # where the chart degenerates
    pad_u, pad_v = 0.02 * (u1 - u0), 0.02 * (v1 - v0)
    return (
        rng.uniform(u0 + pad_u, u1 - pad_u, n),
        rng.uniform(v0 + pad_v, v1 - pad_v, n),
    )


def plane_spec():
    comps = tuple(ex.parse(s) for s in ("u", "v", "0"))
    return ImmersionSpec(
        name="plane", components=comps, u_range=(-1.0, 1.0), v_range=(-1.0, 1.0),
        periodic_u=False, periodic_v=False, ambient_c=0.0,
        params=MappingProxyType({}),
    )


def chart_spec(chart):
    return ImmersionSpec(
        name="chart", components=tuple(ex.parse(s) for s in chart),
        u_range=(-1.0, 1.0), v_range=(-1.0, 1.0), periodic_u=False, periodic_v=False,
        ambient_c=0.0, params=MappingProxyType({}),
    )


# -- closed-form anchors -------------------------------------------------------


def test_sphere_point_values():
    # [TRIVIAL] unit sphere at the equator: g = I, h = -I (chart normal), H = -2
    pg = geo.point_geometry(preset("sphere"), math.pi / 2, 0.0)
    np.testing.assert_allclose(pg.g, np.eye(2), atol=1e-14)
    np.testing.assert_allclose(np.abs(pg.h), np.eye(2), atol=1e-14)
    assert float(np.abs(pg.H)) == pytest.approx(2.0, abs=1e-13)
    assert float(pg.hring_norm2) == pytest.approx(0.0, abs=1e-13)
    assert float(pg.R) == pytest.approx(2.0, abs=1e-12)
    assert float(pg.gradH_norm2) == pytest.approx(0.0, abs=1e-13)
    assert float(pg.nabla_hring_norm2) == pytest.approx(0.0, abs=1e-13)


def test_sphere_radius_scaling():
    # [DERIVED] radius r: |H| = 2/r, R = 2/r^2
    for r in (0.5, 1.0, 3.0):
        pg = geo.point_geometry(preset("sphere", {"r": r}), 1.1, 0.7)
        assert float(np.abs(pg.H)) == pytest.approx(2.0 / r, rel=1e-12)
        assert float(pg.R) == pytest.approx(2.0 / r**2, rel=1e-12)


def test_torus_closed_form():
    # [DERIVED] torus of revolution: principal curvatures 1/r and
    # cos(u)/(R + r cos u) up to common sign; |uring|^2 = (k1-k2)^2/2
    spec = preset("torus", {"R": 2.0, "r": 1.0})
    for u in (0.0, math.pi / 2, 2.1):
        pg = geo.point_geometry(spec, u, 0.9)
        k1 = 1.0
        k2 = math.cos(u) / (2.0 + math.cos(u))
        assert float(pg.hring_norm2) == pytest.approx(0.5 * (k1 - k2) ** 2, rel=1e-10)
        assert float(np.abs(pg.H)) == pytest.approx(abs(k1 + k2), rel=1e-10)
        evs = np.linalg.eigvals(pg.ginv @ pg.h)
        assert sorted(np.abs(evs)) == pytest.approx(sorted([abs(k1), abs(k2)]), rel=1e-9, abs=1e-12)


def test_torus_min_uring_positive():
    # [DERIVED] min |uring|^2 = 1/2 (1 - 1/3)^2 = 2/9, attained at u = 0
    spec = preset("torus", {"R": 2.0, "r": 1.0})
    us = np.linspace(0, 2 * math.pi, 721)
    pg = geo.point_geometry(spec, us, 0.0)
    assert float(np.min(pg.hring_norm2)) == pytest.approx(2.0 / 9.0, rel=1e-6)
    assert float(np.min(pg.hring_norm2)) > 0.22


def test_plane_is_flat():
    # [TRIVIAL] flat plane: h = 0, everything vanishes
    pg = geo.point_geometry(plane_spec(), 0.3, -0.4)
    np.testing.assert_allclose(pg.h, 0.0, atol=1e-15)
    assert float(pg.H) == 0.0
    assert float(pg.R) == 0.0
    res = geo.identity_residuals(pg)
    for arr in res.normalized().values():
        assert float(np.max(np.abs(arr))) < 1e-15


def test_spaceform_sphere_totally_umbilic():
    # [TRIVIAL] concentric spheres in the conformal model are totally umbilic
    # [DERIVED] c=1, rho=1/2: geodesic sphere with H = 2 cot(2 atan(rho/2)) = 15/4;
    #           c=-1: H = 2 coth(2 atanh(rho/2)) = 17/4
    for c, Hexp in ((1.0, 3.75), (-1.0, 4.25)):
        spec = preset("centered_sphere_spaceform", {"rho": 0.5, "c": c})
        us, vs = sample_points(spec, 200)
        pg = geo.point_geometry(spec, us, vs)
        assert float(np.max(pg.hring_norm2)) < 1e-10
        np.testing.assert_allclose(np.abs(pg.H), Hexp, rtol=1e-11)
        np.testing.assert_allclose(pg.R, 0.5 * Hexp**2 + 2 * c, rtol=1e-11)


def test_flat_ambient_has_no_conformal_correction():
    # c = 0 uses the plain Euclidean path: lambda == 1 exactly
    spec = preset("sphere")
    csf = preset("centered_sphere_spaceform", {"rho": 1.0, "c": 0.0})
    pg1 = geo.point_geometry(spec, 0.8, 0.9)
    pg2 = geo.point_geometry(csf, 0.8, 0.9)
    np.testing.assert_array_equal(pg1.g, pg2.g)
    np.testing.assert_array_equal(pg1.h, pg2.h)


# -- invariants -----------------------------------------------------------------


@pytest.mark.parametrize("name", ["sphere", "ellipsoid_rev", "torus", "graph_bump"])
def test_trace_free_and_norm_bookkeeping(name):
    spec = preset(name)
    us, vs = sample_points(spec, 300)
    pg = geo.point_geometry(spec, us, vs)
    assert float(np.max(np.abs(pg.trace_hring))) < 1e-12
    # |h|^2 = |uring|^2 + H^2/2
    h_norm2 = np.einsum("...ik,...jl,...ij,...kl->...", pg.ginv, pg.ginv, pg.h, pg.h)
    np.testing.assert_allclose(
        h_norm2, pg.hring_norm2 + 0.5 * pg.H**2, rtol=1e-10, atol=1e-12
    )
    assert float(np.min(pg.detg)) > 0
    assert float(np.min(pg.hring_norm2)) >= 0


@pytest.mark.parametrize("name", ["ellipsoid_rev", "torus"])
def test_jet_gradient_of_norm_matches_covariant_form(name):
    # d_i |uring|^2 read off the jets == 2 uring^{kl} nabla_i uring_kl
    spec = preset(name)
    us, vs = sample_points(spec, 200)
    pg = geo.point_geometry(spec, us, vs)
    poly = 2.0 * np.einsum("...kl,...ikl->...i", pg.hring_up, pg.nabla_hring)
    np.testing.assert_allclose(pg.d_hring_norm2, poly, rtol=1e-8, atol=1e-10)


def test_classification_values_match_full_pipeline():
    spec = preset("ellipsoid_rev")
    us, vs = sample_points(spec, 150)
    n2, absH, _ = geo.classification_values(spec, us, vs)
    pg = geo.point_geometry(spec, us, vs)
    np.testing.assert_allclose(n2, pg.hring_norm2, rtol=1e-11, atol=1e-13)
    np.testing.assert_allclose(absH, np.abs(pg.H), rtol=1e-11)


@pytest.mark.parametrize(
    "name, params",
    [
        ("sphere", {"r": 1.0}),
        ("ellipsoid_rev", {"a": 1.0, "b": 2.0}),
        ("torus", {"R": 2.0, "r": 1.0}),
        ("centered_sphere_spaceform", {"rho": 0.5, "c": 1.0}),
        ("centered_sphere_spaceform", {"rho": 0.5, "c": -1.0}),
    ],
)
def test_classification_values_are_full_pipeline_values(name, params):
    # one kernel: the order-2 values are the order-3 values, bit for bit
    spec = preset(name, params)
    us, vs = sample_points(spec, 150)
    n2, absH, _ = geo.classification_values(spec, us, vs)
    pg = geo.point_geometry(spec, us, vs)
    assert np.array_equal(n2, np.maximum(pg.hring_norm2, 0.0))
    assert np.array_equal(absH, np.abs(pg.H))


@pytest.mark.parametrize(
    "name, params",
    [
        ("sphere", {"r": 1.0}),
        ("ellipsoid_rev", {"a": 1.0, "b": 2.0}),
        ("torus", {"R": 2.0, "r": 1.0}),
        ("graph_bump", {"A": 0.3, "s": 1.0}),
        ("centered_sphere_spaceform", {"rho": 0.5, "c": 1.0}),
        ("centered_sphere_spaceform", {"rho": 0.5, "c": -1.0}),
    ],
)
def test_order2_geometry_is_the_order3_values(name, params):
    # the order-2 view fills the values bit for bit and leaves every field
    # that needs a derivative of g or h unset
    spec = preset(name, params)
    us, vs = sample_points(spec, 150)
    low = geo.point_geometry(spec, us, vs, order=2)
    full = geo.point_geometry(spec, us, vs, order=3)
    assert low.order == 2
    for field in ("g", "h", "H", "hring_norm2", "sqrt_detg", "R"):
        assert np.array_equal(getattr(low, field), getattr(full, field)), field
    for field in ("dg", "dh", "dH", "d2g", "gamma", "nabla_hring", "nabla_hring_norm2",
                  "gradH_norm2"):
        assert getattr(low, field) is None, field


def test_fundamental_forms_rejects_unknown_order():
    with pytest.raises(ValueError, match="jet order"):
        geo.fundamental_forms(preset("sphere"), 0.5, 0.5, order=1)


@pytest.mark.parametrize(
    "chart, bad_u",
    [(("sqrt(u)", "v", "u"), -0.25), (("u^3", "v", "0"), 0.0)],
    ids=["chart-domain", "degenerate-normal"],
)
def test_classification_values_locate_singular_node(chart, bad_u):
    spec = chart_spec(chart)
    us, vs = np.array([0.5, bad_u, 0.75]), np.array([0.1, 0.2, 0.3])
    with pytest.raises(SingularEvaluationError) as info:
        geo.classification_values(spec, us, vs)
    assert info.value.point == (bad_u, 0.2)


def test_degenerate_metric_raises():
    comps = tuple(ex.parse(s) for s in ("u", "u", "0"))
    bad = ImmersionSpec(
        name="fold", components=comps, u_range=(0.0, 1.0), v_range=(0.0, 1.0),
        periodic_u=False, periodic_v=False, ambient_c=0.0,
        params=MappingProxyType({}),
    )
    with pytest.raises(SingularEvaluationError):
        geo.point_geometry(bad, 0.5, 0.5)


# -- the PointGeometry view --------------------------------------------------------


def test_point_geometry_reads_each_field_once():
    pg = geo.point_geometry(preset("torus"), *sample_points(preset("torus"), 5), order=3)
    for name in ("u", "g", "dg", "H", "detg", "ginv", "gamma", "nabla_hring", "R"):
        assert getattr(pg, name) is getattr(pg, name), name


@pytest.mark.parametrize("name", ["H", "g", "R", "batch_shape", "unknown"])
def test_point_geometry_is_read_only(name):
    # the residuals read the geometry behind the view, so an edited copy
    # would silently disagree with it
    pg = geo.point_geometry(preset("torus"), 0.3, 0.4)
    with pytest.raises(AttributeError, match="read-only"):
        setattr(pg, name, 0.0)


@pytest.mark.parametrize("order", [2, 3, 4])
def test_fundamental_forms_computes_covariant_fields_on_demand(order):
    spec = preset("ellipsoid_tri")
    us, vs = sample_points(spec, 50)
    forms, full = geo.fundamental_forms(spec, us, vs, order), geo.point_geometry(spec, us, vs, order)
    assert np.array_equal(forms.R, full.R)
    if order == 2:
        assert forms.gradH_norm2 is None and full.gradH_norm2 is None
    else:
        assert np.array_equal(forms.gradH_norm2, full.gradH_norm2)


# -- identity residuals -----------------------------------------------------------

ALL_PRESETS = [
    ("sphere", {"r": 1.0}),
    ("ellipsoid_rev", {"a": 1.0, "b": 2.0}),
    ("ellipsoid_tri", {"a": 1.0, "b": 1.3, "c3": 1.7}),
    ("torus", {"R": 2.0, "r": 1.0}),
    ("graph_bump", {"A": 0.3, "s": 1.0}),
    ("centered_sphere_spaceform", {"rho": 0.5, "c": 1.0}),
    ("centered_sphere_spaceform", {"rho": 0.5, "c": -1.0}),
]


@pytest.mark.parametrize("name,params", ALL_PRESETS)
def test_covariant_completion_matches_einsum(name, params):
    # the explicit 2x2 sums of covariant_data against the index formulas
    # written as einsum
    spec = preset(name, params)
    us, vs = sample_points(spec, 300)
    pg = geo.point_geometry(spec, us, vs, order=3)
    gi, dg, hr = pg.ginv, pg.dg, pg.hring
    X = dg + np.swapaxes(dg, -3, -2) - np.moveaxis(dg, -3, -1)
    gamma = 0.5 * np.einsum("...kl,...ijl->...kij", gi, X)
    nabla = (
        pg.dhring
        - np.einsum("...lki,...lj->...kij", gamma, hr)
        - np.einsum("...lkj,...il->...kij", gamma, hr)
    )
    up3 = np.einsum("...ka,...ib,...jc,...abc->...kij", gi, gi, gi, nabla)
    expected = {
        "gamma": gamma,
        "nabla_hring": nabla,
        "gradH_norm2": np.einsum("...ij,...i,...j->...", gi, pg.dH, pg.dH),
        "hring_up": np.einsum("...ik,...jl,...kl->...ij", gi, gi, hr),
        "nabla_hring_norm2": np.maximum(np.einsum("...kij,...kij->...", up3, nabla), 0.0),
    }
    for key, ref in expected.items():
        scale = float(np.max(np.abs(ref)))
        np.testing.assert_allclose(
            getattr(pg, key), ref, rtol=1e-12, atol=1e-12 * scale, err_msg=key
        )
    # the trace cancels to rounding noise; compare it on the scale of its terms
    scale = float(np.max(np.abs(gi)) * np.max(np.abs(hr)))
    ref = np.einsum("...ij,...ij->...", gi, hr)
    np.testing.assert_allclose(pg.trace_hring, ref, rtol=0, atol=1e-12 * scale)


@pytest.mark.parametrize("order", [2, 3, 4])
@pytest.mark.parametrize("name,params", ALL_PRESETS)
def test_hring_norm2_matches_index_formula(name, params, order):
    # the forms pass takes |hring|^2 as tr(B^2), B = g^-1 hring; against
    # g^ik g^jl hring_ij hring_kl, on the scale of |h|^2 where hring vanishes
    spec = preset(name, params)
    us, vs = sample_points(spec, 200)
    pg = geo.point_geometry(spec, us, vs, order=order)
    gi, hr = pg.ginv, pg.hring
    ref = np.einsum("...ik,...jl,...ij,...kl->...", gi, gi, hr, hr)
    scale = float(np.max(np.einsum("...ik,...jl,...ij,...kl->...", gi, gi, pg.h, pg.h)))
    np.testing.assert_allclose(pg.hring_norm2, ref, rtol=1e-12, atol=1e-12 * scale)


@pytest.mark.parametrize("name,params", ALL_PRESETS)
def test_identity_residuals_vanish(name, params):
    # [DERIVED] the four first-order identities are theorems; residuals are
    # numerical noise only
    spec = preset(name, params)
    us, vs = sample_points(spec, 400)
    res = geo.identity_residuals(geo.point_geometry(spec, us, vs))
    for key, arr in res.normalized().items():
        assert float(np.max(arr)) < 1e-8, key


@pytest.mark.parametrize("name,params", ALL_PRESETS)
def test_bochner_residual_vanishes(name, params):
    # [DERIVED] Laplacian-level identity via order-4 jets
    spec = preset(name, params)
    us, vs = sample_points(spec, 150)
    b = geo.bochner_residual(geo.point_geometry(spec, us, vs, 4))
    assert float(np.max(b.normalized())) < 1e-6


def test_totally_umbilic_residuals_tiny_raw():
    # [TRIVIAL] every term vanishes identically on the round sphere
    spec = preset("sphere")
    us, vs = sample_points(spec, 100)
    res = geo.identity_residuals(geo.point_geometry(spec, us, vs))
    assert float(np.max(res.r_codazzi)) < 1e-10
    assert float(np.max(res.r_div)) < 1e-10
    assert float(np.max(res.r_smo)) < 1e-10
    assert float(np.max(res.r_norm)) < 1e-10
    b = geo.bochner_residual(geo.point_geometry(spec, us, vs, 4))
    assert float(np.max(b.r_tensor)) < 1e-10
    assert float(np.max(b.r_scalar)) < 1e-10


@pytest.mark.parametrize("name,params", ALL_PRESETS)
def test_gauss_consistency(name, params):
    # [DERIVED] traced-Gauss R vs intrinsic R from (g, dg, d2g) alone
    spec = preset(name, params)
    us, vs = sample_points(spec, 300)
    pg = geo.point_geometry(spec, us, vs)
    r_int = geo.intrinsic_scalar_curvature(pg)
    np.testing.assert_allclose(r_int, pg.R, rtol=1e-7, atol=1e-7)


def test_residuals_reject_too_low_an_order():
    spec = preset("torus")
    us, vs = sample_points(spec, 5)
    with pytest.raises(ValueError, match="order 3"):
        geo.identity_residuals(geo.point_geometry(spec, us, vs, order=2))
    with pytest.raises(ValueError, match="order 3"):
        geo.intrinsic_scalar_curvature(geo.point_geometry(spec, us, vs, order=2))
    with pytest.raises(ValueError, match="order 4"):
        geo.bochner_residual(geo.point_geometry(spec, us, vs, order=3))


def _einsum_residuals(pg):
    """The residuals written as index formulas in einsum: raw r_/s_ arrays
    of both residual sets plus the intrinsic scalar curvature."""
    gi, g, hr, up, gam = pg.ginv, pg.g, pg.hring, pg.hring_up, pg.gamma
    dH, nh = pg.dH, pg.nabla_hring
    ein = np.einsum

    def n1(V):
        return np.sqrt(np.maximum(ein("...ij,...i,...j->...", gi, V, V), 0.0))

    def n2(T):
        return np.sqrt(np.maximum(ein("...ik,...jl,...ij,...kl->...", gi, gi, T, T), 0.0))

    def n3_sq(T):
        return np.maximum(ein("...ka,...ib,...jc,...kij,...abc->...", gi, gi, gi, T, T), 0.0)

    out = {}
    T1, T2 = nh, np.swapaxes(nh, -3, -1)
    T3 = 0.5 * ein("...j,...ik->...kij", dH, g)
    T4 = 0.5 * ein("...k,...ij->...kij", dH, g)
    out["r_codazzi"] = np.sqrt(n3_sq(T1 - T2 - T3 + T4))
    out["s_codazzi"] = sum(np.sqrt(n3_sq(T)) for T in (T1, T2, T3, T4))
    D = ein("...jk,...kij->...i", gi, nh)
    out["r_div"] = n1(D - 0.5 * dH)
    out["s_div"] = n1(D) + 0.5 * n1(dH)
    m2, nn, gH = pg.hring_norm2, pg.nabla_hring_norm2, pg.gradH_norm2
    dn2 = 2.0 * ein("...kl,...ikl->...i", up, nh)
    t_a = 2.0 * m2 * (nn - 0.5 * gH)
    t_b = ein("...ij,...i,...j->...", gi, dn2, dn2)
    t_c = 2.0 * ein("...ij,...i,...j->...", up, dn2, dH)
    out["r_smo"] = np.abs(t_a - t_b + t_c)
    out["s_smo"] = 2.0 * m2 * nn + m2 * gH + np.abs(t_b) + np.abs(t_c)
    nabla_h = (
        pg.dh - ein("...lki,...lj->...kij", gam, pg.h) - ein("...lkj,...il->...kij", gam, pg.h)
    )
    nh_sq = n3_sq(nabla_h)
    out["r_norm"] = np.abs(nh_sq - nn - 0.5 * gH)
    out["s_norm"] = nh_sq + nn + 0.5 * gH

    # d_m Gamma^k_ij from d_m g^kl = -g^ka d_m g_ab g^bl
    dg, d2g = pg.dg, pg.d2g
    X = dg + np.swapaxes(dg, -3, -2) - np.moveaxis(dg, -3, -1)
    dX = d2g + np.swapaxes(d2g, -3, -2) - np.moveaxis(d2g, -3, -1)
    dginv = -ein("...ia,...mab,...bj->...mij", gi, dg, gi)
    dgam = 0.5 * (ein("...mkl,...ijl->...mkij", dginv, X) + ein("...kl,...mijl->...mkij", gi, dX))
    dhr = pg.dhring
    dnab = (
        pg.d2hring
        - ein("...lmki,...mj->...lkij", dgam, hr) - ein("...mki,...lmj->...lkij", gam, dhr)
        - ein("...lmkj,...im->...lkij", dgam, hr) - ein("...mkj,...lim->...lkij", gam, dhr)
    )
    nabla2 = (
        dnab
        - ein("...mlk,...mij->...lkij", gam, nh)
        - ein("...mli,...kmj->...lkij", gam, nh)
        - ein("...mlj,...kim->...lkij", gam, nh)
    )
    lap = ein("...kl,...lkij->...ij", gi, nabla2)
    hessH = pg.d2H - ein("...kij,...k->...ij", gam, dH)
    lapH = ein("...ij,...ij->...", gi, hessH)
    R = pg.R
    out["r_tensor"] = n2(lap - R[..., None, None] * hr - hessH + 0.5 * lapH[..., None, None] * g)
    out["s_tensor"] = n2(lap) + np.abs(R) * n2(hr) + n2(hessH) + 0.5 * np.abs(lapH) * np.sqrt(2.0)
    dm2 = pg.d_hring_norm2
    lap_m2 = ein("...ij,...ij->...", gi, pg.d2_hring_norm2 - ein("...kij,...k->...ij", gam, dm2))
    t = (
        0.5 * lap_m2 * m2,
        0.5 * ein("...ij,...i,...j->...", gi, dm2, dm2),
        ein("...ij,...i,...j->...", up, dm2, dH),
        0.5 * gH * m2,
        R * m2 * m2,
        ein("...ij,...ij->...", up, hessH) * m2,
    )
    out["r_scalar"] = np.abs(t[0] - t[1] + t[2] - t[3] - t[4] - t[5])
    out["s_scalar"] = sum(np.abs(x) for x in t)

    ric = (
        ein("...kkij->...ij", dgam)
        - ein("...ikkj->...ij", dgam)
        + ein("...a,...aij->...ij", ein("...kka->...a", gam), gam)
        - ein("...kia,...akj->...ij", gam, gam)
    )
    out["R_intrinsic"] = ein("...ij,...ij->...", gi, ric)
    return out


def assert_residuals_match_einsum(spec):
    # a dropped or mis-indexed term moves a residual by the size of that
    # term, which the "residuals vanish" bounds alone cannot see
    us, vs = sample_points(spec, 150)
    pg = geo.point_geometry(spec, us, vs, order=4)
    ref = _einsum_residuals(pg)
    got = {**vars(geo.identity_residuals(pg)), **vars(geo.bochner_residual(pg)),
           "R_intrinsic": geo.intrinsic_scalar_curvature(pg)}
    assert set(got) == set(ref)
    for key, value in got.items():
        scale = 1.0 + np.abs(ref["s_" + key[2:]] if key.startswith("r_") else ref[key])
        np.testing.assert_array_less(np.abs(value - ref[key]), 1e-10 * scale, err_msg=key)


@pytest.mark.parametrize("name,params", ALL_PRESETS)
def test_residuals_match_einsum(name, params):
    assert_residuals_match_einsum(preset(name, params))


# -- invariance suites -------------------------------------------------------------


def substitute(ast, mapping):
    """ast with each Var/Param node that mapping names replaced by its subtree."""
    if isinstance(ast, (ex.Var, ex.Param)):
        return mapping.get(ast.name, ast)
    if isinstance(ast, ex.Unary):
        return ex.Unary(ast.op, substitute(ast.child, mapping), ast.span)
    if isinstance(ast, ex.Binary):
        return ex.Binary(
            ast.op, substitute(ast.left, mapping), substitute(ast.right, mapping), ast.span
        )
    return ast


def swapped_spec(spec):
    """Chart order (v, u): f~(u, v) = f(v, u), ranges/periodicity swapped."""
    swap = {"u": ex.Var("v"), "v": ex.Var("u")}
    comps = tuple(substitute(c, swap) for c in spec.components)
    return replace(
        spec,
        components=comps,
        u_range=spec.v_range,
        v_range=spec.u_range,
        periodic_u=spec.periodic_v,
        periodic_v=spec.periodic_u,
    )


SCALARS = ("hring_norm2", "gradH_norm2", "nabla_hring_norm2", "R")


@pytest.mark.parametrize("name,params", ALL_PRESETS)
def test_orientation_invariance(name, params):
    # swapping chart order flips the normal: h, H change sign; all scalars
    # entering the inequality are unchanged
    spec = preset(name, params)
    us, vs = sample_points(spec, 200)
    pg = geo.point_geometry(spec, us, vs)
    pg_sw = geo.point_geometry(swapped_spec(spec), vs, us)
    np.testing.assert_allclose(pg_sw.H, -pg.H, rtol=1e-10, atol=1e-12)
    for key in SCALARS:
        a, b = getattr(pg, key), getattr(pg_sw, key)
        np.testing.assert_allclose(b, a, rtol=1e-10, atol=1e-10)
    res = geo.identity_residuals(pg_sw)
    for arr in res.normalized().values():
        assert float(np.max(arr)) < 1e-8


def rigid_motion_spec(spec, seed):
    rng = np.random.default_rng(seed)
    M = rng.normal(size=(3, 3))
    q, _ = np.linalg.qr(M)
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    t = rng.normal(size=3)
    x, y, z = spec.components

    def lin(row, shift):
        def scaled(coef, ast):
            return ex.Binary("*", ex.Number(float(coef)), ast)

        acc = scaled(row[0], x)
        acc = ex.Binary("+", acc, scaled(row[1], y))
        acc = ex.Binary("+", acc, scaled(row[2], z))
        return ex.Binary("+", acc, ex.Number(float(shift)))

    return replace(spec, components=(lin(q[0], t[0]), lin(q[1], t[1]), lin(q[2], t[2])))


@pytest.mark.parametrize("name", ["sphere", "ellipsoid_rev", "torus", "graph_bump"])
def test_isometry_invariance_flat_ambient(name):
    # rigid motions of Euclidean space preserve every scalar
    spec = preset(name)
    us, vs = sample_points(spec, 200)
    pg = geo.point_geometry(spec, us, vs)
    pg_m = geo.point_geometry(rigid_motion_spec(spec, seed=7), us, vs)
    np.testing.assert_allclose(np.abs(pg_m.H), np.abs(pg.H), rtol=1e-9, atol=1e-11)
    for key in SCALARS:
        np.testing.assert_allclose(
            getattr(pg_m, key), getattr(pg, key), rtol=1e-9, atol=1e-9
        )


@pytest.mark.parametrize("name,params", ALL_PRESETS)
def test_reparametrization_invariance(name, params):
    # u -> 2u with the domain halved: same surface, same pointwise scalars
    spec = preset(name, params)
    scaled = replace(
        spec,
        components=tuple(
            substitute(c, {"u": ex.Binary("*", ex.Number(2.0), ex.Var("u"))})
            for c in spec.components
        ),
        u_range=(spec.u_range[0] / 2.0, spec.u_range[1] / 2.0),
    )
    us, vs = sample_points(spec, 200)
    pg = geo.point_geometry(spec, us, vs)
    pg_s = geo.point_geometry(scaled, us / 2.0, vs)
    for key in ("hring_norm2", "gradH_norm2", "nabla_hring_norm2", "R"):
        np.testing.assert_allclose(
            getattr(pg_s, key), getattr(pg, key), rtol=1e-9, atol=1e-9
        )
    np.testing.assert_allclose(np.abs(pg_s.H), np.abs(pg.H), rtol=1e-9)


# -- a non-umbilic chart in a curved ambient ---------------------------------------

# The squashed ball of the total-curvature benchmark, in a c = -1 and a
# c = +1 ambient. Unlike the centered space-form sphere it is not totally
# umbilic, so every conformal term of the second fundamental form reaches
# hring and its derivatives.
SQUASHED_BALL = """\
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
c = {c}

[params]
rho = 0.8
k = 0.7
"""


@pytest.fixture(params=[-1.0, 1.0], ids=["c=-1", "c=+1"])
def squashed_ball(request, tmp_path):
    path = tmp_path / "squashed_ball.ini"
    path.write_text(SQUASHED_BALL.format(c=request.param))
    return load_definition(path)


def test_squashed_ball_orders_agree_bit_for_bit(squashed_ball):
    us, vs = sample_points(squashed_ball, 300)
    pgs = [geo.point_geometry(squashed_ball, us, vs, order=o) for o in (2, 3, 4)]
    assert float(np.max(pgs[0].hring_norm2)) > 0.1  # far from totally umbilic
    for low, high in zip(pgs, pgs[1:]):
        shared = [
            name for name in geo.PointGeometry.FIELDS
            if isinstance(getattr(low, name), np.ndarray) and getattr(high, name) is not None
        ]
        assert len(shared) >= 11  # u, v and the nine order-2 arrays
        for name in shared:
            assert np.array_equal(getattr(low, name), getattr(high, name)), (low.order, name)


@pytest.mark.parametrize("point", [(0.7, 0.4), (1.3, 2.5), (2.2, 4.0)])
def test_squashed_ball_first_partials_match_fd(squashed_ball, point):
    # [DERIVED] order-3 dh and dH against finite differences of the order-2
    # values; dh[k, i, j] = d_k h_ij
    u0, v0 = point
    pg = geo.fundamental_forms(squashed_ball, u0, v0, order=3)

    def value(field, *index):
        return lambda u, v: float(
            getattr(geo.fundamental_forms(squashed_ball, u, v, order=2), field)[index]
        )

    for k, (a, b) in enumerate(((1, 0), (0, 1))):
        expected = fd_partial(value("H"), u0, v0, a, b)
        assert float(pg.dH[k]) == pytest.approx(expected, rel=1e-6, abs=1e-7)
        for i, j in ((0, 0), (0, 1), (1, 1)):
            expected = fd_partial(value("h", i, j), u0, v0, a, b)
            assert float(pg.dh[k, i, j]) == pytest.approx(expected, rel=1e-6, abs=1e-7)


@pytest.mark.parametrize("point", [(0.7, 0.4), (1.3, 2.5), (2.2, 4.0)])
def test_squashed_ball_norm2_partials_match_fd(squashed_ball, point):
    # [DERIVED] order-3 d_hring_norm2 against finite differences of the
    # order-2 |hring|^2
    u0, v0 = point
    pg = geo.fundamental_forms(squashed_ball, u0, v0, order=3)

    def norm2(u, v):
        return float(geo.fundamental_forms(squashed_ball, u, v, order=2).hring_norm2)

    for k, (a, b) in enumerate(((1, 0), (0, 1))):
        expected = fd_partial(norm2, u0, v0, a, b)
        assert float(pg.d_hring_norm2[k]) == pytest.approx(expected, rel=1e-6, abs=1e-7)


def test_squashed_ball_identity_residuals_vanish(squashed_ball):
    # bounds of test_identity_residuals_vanish and test_bochner_residual_vanishes
    us, vs = sample_points(squashed_ball, 400)
    res = geo.identity_residuals(geo.point_geometry(squashed_ball, us, vs))
    for key, arr in res.normalized().items():
        assert float(np.max(arr)) < 1e-8, key
    b = geo.bochner_residual(geo.point_geometry(squashed_ball, us[:150], vs[:150], 4))
    assert float(np.max(b.normalized())) < 1e-6


def test_squashed_ball_residuals_match_einsum(squashed_ball):
    assert_residuals_match_einsum(squashed_ball)


# -- tape size ----------------------------------------------------------------------

# (ufunc calls, buffers) of each tape on a c = 0 preset and a c = -1
# definition file: stage one (the "forms" kernel, `geometry._forms`) per jet
# order, and each recorded kernel of `KERNELS`. A ratchet: a change that
# adds calls fails here, and one that removes some lowers the bounds to the
# new counts.
TAPE_BOUNDS = {
    "ellipsoid_rev": {
        "forms_o2": (101, 17), "forms_o3": (488, 59), "forms_o4": (1260, 98),
        "class_o2": (106, 16), "whole_o2": (110, 16), "region_o3": (517, 39),
        "area_o2": (46, 10), "residuals_o4": (2663, 111),
    },
    "squashed_ball_c-1": {
        "forms_o2": (182, 28), "forms_o3": (956, 84), "forms_o4": (2374, 149),
        "class_o2": (187, 28), "whole_o2": (191, 28), "region_o3": (875, 75),
        "area_o2": (63, 12), "residuals_o4": (3777, 149),
    },
}

# the kernels the CLI records: the order-2 classification, the whole-surface
# order-2 pass that also classifies, the region pass at order 3 (whose
# ancestors replay it), the area-only whole-surface pass and the identities'
# residuals; and stage one, which the public PointGeometry reads
KERNELS = {
    **{f"forms_o{order}": lambda spec, u, v, order=order: geo.fundamental_forms(spec, u, v, order)
       for order in (2, 3, 4)},
    "class_o2": geo.classification_values,
    "whole_o2": lambda spec, u, v: q._full(spec, [q.AREA, q.TOTAL_R], u, v, raw=q._LEVEL),
    "region_o3": lambda spec, u, v: q._full(spec, q._REGION_FIELDS, u, v),
    "area_o2": lambda spec, u, v: q._full(spec, [q.AREA], u, v),
    "residuals_o4": geo.residual_norms,
    "total_R_o2": lambda spec, u, v: q._full(spec, [q.TOTAL_R], u, v),
}


def bounds_spec(name, tmp_path):
    if name == "ellipsoid_rev":
        return preset("ellipsoid_rev", {"a": 1.0, "b": 2.0})
    path = tmp_path / "squashed_ball.ini"
    path.write_text(SQUASHED_BALL.format(c=-1.0))
    return load_definition(path)


def grid_batch(spec, side=8):
    us, vs = interior_axes(spec, side, side)
    return (a.ravel() for a in np.meshgrid(us, vs, indexing="ij"))


def kernel_tape(spec, name, uu, vv):
    # a kernel records its own tape from (u, v), and no other
    KERNELS[name](spec, uu, vv)
    (recorded,) = spec.tapes.values()
    return recorded


@pytest.mark.parametrize("name", sorted(TAPE_BOUNDS))
def test_tape_calls_and_buffers_stay_bounded(name, tmp_path):
    uu, vv = grid_batch(bounds_spec(name, tmp_path))
    for key, (ops, buffers) in TAPE_BOUNDS[name].items():
        recorded = kernel_tape(bounds_spec(name, tmp_path), key, uu, vv)
        assert recorded.n_ops <= ops, (key, recorded.n_ops)
        assert recorded.n_buffers <= buffers, (key, recorded.n_buffers)


@pytest.mark.parametrize("name, key", [("ellipsoid_rev", "class_o2"),
                                       ("squashed_ball_c-1", "total_R_o2")])
def test_trig_calls_read_one_input(name, key, tmp_path):
    # a ratchet on the lattice replay's gain: the chart's sin and cos calls
    # each read u alone or v alone, so a lattice runs them once per row or
    # column. A change that mixes u and v before them fails here
    recorded = kernel_tape(bounds_spec(name, tmp_path), key, *grid_batch(bounds_spec(name, tmp_path)))
    trig = [mixed for ufunc, mixed in recorded.calls if ufunc in (np.sin, np.cos)]
    assert len(trig) == 4 and not any(trig)


@pytest.mark.parametrize("name", sorted(TAPE_BOUNDS))
def test_no_cli_path_falls_back(name, tmp_path):
    # what each CLI command evaluates, on a fresh spec, replays its kernels'
    # own tapes: none is refused, none falls back to the "forms" kernel's
    # stage one, and the command records one tape per kernel. A thresholded
    # pass records two: G's corners and midpoints replay the order-2 one,
    # and at depth 5 the straddling cells' sub-lattices replay the tape of
    # the other full nodes; with order-2 fields alone that is the order-2 one
    grid = q.GridSpec(64, 64, 5)
    commands = {
        "verify": (lambda spec: V.verify_prel(spec, (0.5, 0.2), grid), 2),
        "verify --eps0": (lambda spec: V.verify_prel(spec, (0.5, 0.2), grid, eps0=0.5), 2),
        "convergence vol": (lambda spec: q.convergence_study(spec, q.AREA, q.sublevel(0.3), grid), 1),
        "convergence area": (lambda spec: q.convergence_study(spec, q.AREA, q.ALL, grid), 1),
        "convergence total_R": (lambda spec: q.convergence_study(spec, q.TOTAL_R, q.ALL, grid), 1),
        "identities": (lambda spec: geo.residual_norms(spec, *sample_points(spec, 200)), 1),
    }
    if name == "ellipsoid_rev":
        commands["sweep"] = (lambda spec: V.sharpness_gap(spec, (0.5, 0.2), grid), 2)
    for command, (run, count) in commands.items():
        spec = bounds_spec(name, tmp_path)
        run(spec)
        assert all(isinstance(t, tape.Tape) for t in spec.tapes.values()), command
        assert len(spec.tapes) == count, (command, list(spec.tapes))


# -- recorded jet evaluation -------------------------------------------------------


def assert_same_bits(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        a, b = np.asarray(a), np.asarray(b)
        assert (a.dtype, a.shape) == (b.dtype, b.shape)
        assert a.tobytes() == b.tobytes()


def assert_tape_is_the_jet_path(spec, order):
    # a scalar point records on its own; every later input replays: two
    # batches, one at another size, and a 2-D meshgrid. Each output is the
    # jet path's on the same input, bit for bit, in the input's shape
    u0, v0 = (float(x[0]) for x in sample_points(spec, 1, 4))
    us, vs = sample_points(spec, 6, 5)
    inputs = [
        (u0, v0),
        *(sample_points(spec, n, seed) for n, seed in ((300, 1), (300, 2), (113, 3))),
        np.meshgrid(us, vs[:4], indexing="ij"),
    ]
    for us, vs in inputs:
        taped = geo._kernel(spec, "forms", order, geo._flat, us, vs)
        assert isinstance(spec.tapes[order, "forms"], tape.Tape)
        shape = np.broadcast_shapes(np.shape(us), np.shape(vs))
        assert_same_bits(
            taped, [np.broadcast_to(x, shape) for x in geo._forms(spec, us, vs, order)]
        )


# a chart through sqrt, log, atan, sinh and cosh, which no preset calls
ELEMENTARY_FILE = """
[surface]
name = elementary
x = u
y = v
z = 0.3*sqrt(2 + cos(u)) + 0.2*log(3 + sin(v)) + 0.1*atan(u*v) + 0.05*sinh(u)*cosh(v)
u_range = -1, 1
v_range = -1, 1
"""

# a definition file whose components repeat 2 + cos(u) and take sinh and
# cosh of one argument, work the tape records once
SHARED_FILE = """
[surface]
name = shared_parts
x = (2 + cos(u))*cos(v)
y = (2 + cos(u))*sin(v)
z = sin(u) + 0.1*sinh(u/4)*cosh(u/4)
u_range = 0, 2*pi
v_range = 0, 2*pi
periodic_u = true
periodic_v = true
"""


@pytest.mark.parametrize("order", [2, 3, 4])
@pytest.mark.parametrize(
    "name,params", [*ALL_PRESETS, ("shared_parts", None), ("elementary", None)]
)
def test_taped_forms_are_the_jet_path_bit_for_bit(name, params, order, tmp_path):
    if params is None:
        path = tmp_path / f"{name}.ini"
        path.write_text({"shared_parts": SHARED_FILE, "elementary": ELEMENTARY_FILE}[name])
        spec = load_definition(path)
    else:
        spec = preset(name, params)
    assert_tape_is_the_jet_path(spec, order)


@pytest.mark.parametrize("order", [2, 3, 4])
def test_taped_squashed_ball_is_the_jet_path_bit_for_bit(squashed_ball, order):
    assert_tape_is_the_jet_path(squashed_ball, order)


def test_zeroth_power_chart_is_taped():
    # u^0 is the constant jet 1, not a batch of ones the tape would refuse
    spec = chart_spec(("u", "v", "u^0*v*v + 0.5*u*u"))
    for order in (2, 3):
        assert_tape_is_the_jet_path(spec, order)


def test_replayed_singular_batch_raises_the_jet_path_error():
    # the sqrt(u) chart, recorded where u > 0; the domain guard of the
    # replay sends the batch holding u = -0.25 through the jet path
    chart = ("sqrt(u)", "v", "u")
    spec = chart_spec(chart)
    vs = np.array([0.1, 0.2, 0.3])
    geo.classification_values(spec, np.array([0.5, 0.25, 0.75]), vs)
    (recorded,) = spec.tapes.values()
    assert isinstance(recorded, tape.Tape)
    bad = np.array([0.5, -0.25, 0.75])
    with pytest.raises(SingularEvaluationError) as taped:
        geo.classification_values(spec, bad, vs)
    with pytest.raises(SingularEvaluationError) as plain:
        geo._forms(chart_spec(chart), bad, vs, 2)
    got, want = taped.value, plain.value
    assert (str(got), got.point, got.span, got.value, got.index) == (
        str(want), want.point, want.span, want.value, want.index,
    )
    assert got.point == (-0.25, 0.2)


@pytest.mark.parametrize("order", [2, 3, 4])
def test_an_empty_batch_gives_empty_arrays(order):
    spec = preset("torus")
    empty = np.empty(0)
    for value in geo.classification_values(spec, empty, empty):
        assert isinstance(value, np.ndarray) and value.shape == (0,)
    pg = geo.point_geometry(spec, empty, empty, order)
    assert pg.g.shape == (0, 2, 2) and pg.hring_norm2.shape == (0,)
    assert not spec.tapes


def test_chart_constants_come_in_the_batch_shape():
    # the plane's forms are chart constants, so its tape makes no call
    spec = plane_spec()
    us, vs = np.meshgrid(np.linspace(-0.5, 0.5, 3), np.linspace(-0.5, 0.5, 4))
    values = geo.classification_values(spec, us, vs)
    (recorded,) = spec.tapes.values()
    assert recorded.n_ops == 0
    for value, want in zip(values, (0.0, 0.0, 1.0)):
        assert isinstance(value, np.ndarray) and value.shape == (4, 3)
        assert np.all(value == want)


# -- recorded kernels ------------------------------------------------------------


def test_kernel_guard_raises_the_degenerate_metric_error():
    # two tangents that differ by 1e-9: stage one passes (its det g is
    # nonzero), and det g rounds to +-8.9e-16 by node. Each kernel, the
    # classification's included, records where det g > 0; the batch holding
    # a node where it is < 0 fails the guard and runs without the tape,
    # raising the public path's error
    chart = ("cos(u + v) + 1e-9*u*v", "sin(u + v) + 1e-9*u*u", "u + v + 1e-9*v*v")
    us, vs = np.array([0.10, 0.12, 0.14]), np.full(3, 0.3)
    for order, evaluate in (
        (2, geo.classification_values),
        (2, lambda spec, u, v: q._full(spec, [q.AREA], u, v)),
        (3, lambda spec, u, v: q._full(spec, q._REGION_FIELDS, u, v)),
    ):
        spec = chart_spec(chart)
        evaluate(spec, us[:2], vs[:2])
        (recorded,) = spec.tapes.values()
        assert isinstance(recorded, tape.Tape)
        with pytest.raises(SingularEvaluationError) as taped:
            evaluate(spec, us, vs)
        with pytest.raises(SingularEvaluationError) as public:
            geo.point_geometry(chart_spec(chart), us, vs, order)
        got, want = taped.value, public.value
        assert str(got).startswith("induced metric is degenerate")
        assert (str(got), got.point, got.value, got.index) == (
            str(want), want.point, want.value, want.index)
        assert got.index == 2 and got.value < 0 and got.point == (0.14, 0.3)


# -- lattice replay ------------------------------------------------------------------

# the quadrature's node kernels: the classification, the whole-surface order-2
# pass that also classifies, the region pass at order 3 without and with the
# sufficiency peaks, and the area-only and total_R whole-surface passes
NODE_KERNELS = {
    "class_o2": geo.classification_values,
    "whole_o2": lambda spec, u, v: geo._nodes(spec, 2, u, v, raw=geo._LEVEL,
                                              densities=(q.AREA, q.TOTAL_R)),
    "region_o3": lambda spec, u, v: geo._nodes(spec, 3, u, v, densities=q._REGION_FIELDS),
    "region_o3_peaks": lambda spec, u, v: geo._nodes(spec, 3, u, v, raw=_COND_PEAKS,
                                                     densities=q._REGION_FIELDS),
    "area_o2": lambda spec, u, v: geo._nodes(spec, 2, u, v, densities=(q.AREA,)),
    "total_R_o2": lambda spec, u, v: geo._nodes(spec, 2, u, v, densities=(q.TOTAL_R,)),
}

LATTICE_SURFACES = [*ALL_PRESETS, ("squashed_ball", None), ("elementary", None), ("plane", None)]


def lattice_surface(name, params, tmp_path):
    if name == "plane":
        return plane_spec()
    if params is None:
        path = tmp_path / f"{name}.ini"
        path.write_text({"squashed_ball": SQUASHED_BALL.format(c=-1.0),
                         "elementary": ELEMENTARY_FILE}[name])
        return load_definition(path)
    return preset(name, params)


def flat_nodes(u, v):
    """(u, v) broadcast and raveled: a column/row pair as the flat node
    arrays of its nodes, row-major."""
    return [x.ravel() for x in np.broadcast_arrays(u, v)]


@pytest.mark.parametrize("kernel", sorted(NODE_KERNELS))
@pytest.mark.parametrize("name,params", LATTICE_SURFACES)
def test_lattice_replay_is_the_flat_replay_and_the_jet_path(name, params, kernel, tmp_path):
    # a column of u and a row of v replay unbroadcast: each output comes in
    # the lattice's shape, the plane's constants included, and holds the
    # flat replay's bits and those of the kernel run on `_forms`. The
    # kernel hands (u, v) to the tape as they are, so the same holds for
    # the lattice meshed (a 2-D pair of one shape, which replays flat in
    # that shape) and for a scalar u beside a row of v
    spec, run = lattice_surface(name, params, tmp_path), NODE_KERNELS[kernel]
    us, vs = interior_axes(spec, 7, 9)
    u, v = us[:, None], vs[None, :]
    meshed = [np.array(x) for x in np.broadcast_arrays(u, v)]
    beside = us[3], vs
    flat = run(spec, *flat_nodes(u, v))
    (recorded,) = spec.tapes.values()
    assert isinstance(recorded, tape.Tape)
    flat_beside = run(spec, *flat_nodes(*beside))
    with mock.patch.object(geo, "_forms", side_effect=AssertionError("not replayed")):
        lattice = run(spec, u, v)
        grid = run(spec, *meshed)
        scalar = run(spec, *beside)
    with mock.patch.object(tape, "record", lambda fn, *inputs: None):
        fresh = lattice_surface(name, params, tmp_path)
        direct = run(fresh, *flat_nodes(u, v))
        direct_beside = run(fresh, *flat_nodes(*beside))
    assert all(np.shape(x) == (7, 9) for x in (*lattice, *grid))
    assert_same_bits([np.reshape(x, -1) for x in lattice], flat)
    assert_same_bits([np.reshape(x, -1) for x in grid], flat)
    assert_same_bits(flat, direct)
    assert all(np.shape(x) == (9,) for x in scalar)
    assert_same_bits(scalar, flat_beside)
    assert_same_bits(flat_beside, direct_beside)


def test_plane_constants_come_in_the_lattice_shape():
    spec = plane_spec()
    u, v = np.linspace(-0.5, 0.5, 3)[:, None], np.linspace(-0.5, 0.5, 4)[None, :]
    geo.classification_values(spec, *flat_nodes(u, v))
    values = geo.classification_values(spec, u, v)
    for value, want in zip(values, (0.0, 0.0, 1.0)):
        assert isinstance(value, np.ndarray) and value.shape == (3, 4)
        assert np.all(value == want)


@pytest.mark.parametrize("vs", [[0.3], [0.3, 0.32]], ids=["degenerate-metric", "division"])
def test_lattice_singular_node_raises_the_flat_path_error(vs):
    # the chart of test_kernel_guard_raises_the_degenerate_metric_error on a
    # 3 x 1 lattice, whose last node has det g < 0, and a 3 x 2 one, whose
    # fourth node divides by zero in stage one first. Each kernel, recorded
    # at the first node, fails a guard on the lattice and raises the flat
    # path's error at the same node
    chart = ("cos(u + v) + 1e-9*u*v", "sin(u + v) + 1e-9*u*u", "u + v + 1e-9*v*v")
    u, v = np.array([0.10, 0.12, 0.14])[:, None], np.array(vs)[None, :]
    a, b = flat_nodes(u, v)
    for evaluate in (
        geo.classification_values,
        lambda spec, u, v: q._full(spec, [q.AREA], u, v),
        lambda spec, u, v: q._full(spec, q._REGION_FIELDS, u, v),
    ):
        spec = chart_spec(chart)
        evaluate(spec, a[:1], b[:1])
        (recorded,) = spec.tapes.values()
        assert isinstance(recorded, tape.Tape)
        with pytest.raises(SingularEvaluationError) as taped:
            evaluate(spec, u, v)
        with pytest.raises(SingularEvaluationError) as flat:
            evaluate(chart_spec(chart), a, b)
        got, want = taped.value, flat.value
        assert (str(got), got.point, got.value, got.index) == (
            str(want), want.point, want.value, want.index)
    if len(vs) == 1:
        assert str(got).startswith("induced metric is degenerate") and got.index == 2
        assert got.point == (0.14, 0.3)
    else:
        assert "division" in str(got) and got.point == (0.12, 0.32)


# -- masked node sets -------------------------------------------------------------


@pytest.mark.parametrize("kernel", sorted(NODE_KERNELS))
@pytest.mark.parametrize("name,params", LATTICE_SURFACES)
def test_masked_replay_is_the_lattice_replay_and_the_jet_path(name, params, kernel, tmp_path,
                                                              monkeypatch):
    # the nodes of a lattice (with a -0.0 row on the charts whose u range
    # holds 0) where a mask that is no product of rows and columns holds,
    # as `_masked`'s flat arrays: they replay on one flat binding, and each
    # output holds the bits of the lattice replay at those nodes and those
    # of the kernel run on `_forms`
    spec, run = lattice_surface(name, params, tmp_path), NODE_KERNELS[kernel]
    us, vs = interior_axes(spec, 7, 9)
    (u0, u1), _ = spec.interior_ranges()
    if u0 < 0.0 < u1:
        us = np.append(us, -0.0)
    u, v = us[:, None], vs[None, :]
    mask = np.add.outer(np.arange(us.size), 2 * np.arange(vs.size)) % 3 != 0
    a, b = q._masked(u, v, mask)
    lattice = run(spec, u, v)
    binds = []
    bind = tape.Tape._bind
    monkeypatch.setattr(tape.Tape, "_bind", lambda self, key: binds.append(key) or bind(self, key))
    with mock.patch.object(geo, "_forms", side_effect=AssertionError("not replayed")):
        masked = run(spec, a, b)
    assert binds == [(a.shape, b.shape)] and a.shape == (mask.sum(),)
    with mock.patch.object(tape, "record", lambda fn, *inputs: None):
        direct = run(lattice_surface(name, params, tmp_path), a, b)
    assert all(np.shape(x) == a.shape for x in masked)
    assert_same_bits(masked, [x[mask] for x in lattice])
    assert_same_bits(masked, direct)


@pytest.mark.parametrize("vs, mask", [
    ([0.3], [[True], [False], [True]]),
    ([0.3, 0.32], [[True, False], [True, True], [True, True]]),
], ids=["degenerate-metric", "division"])
def test_masked_singular_node_raises_the_flat_path_error(vs, mask, monkeypatch):
    # the lattices of test_lattice_singular_node_raises_the_flat_path_error
    # with a node masked out, as the flat node arrays of `_masked`: a guard
    # disagrees on the replay, the batch falls back to the flat path, and
    # that raises the jet path's error at the same node
    chart = ("cos(u + v) + 1e-9*u*v", "sin(u + v) + 1e-9*u*u", "u + v + 1e-9*v*v")
    a, b = q._masked(np.array([0.10, 0.12, 0.14])[:, None], np.array(vs)[None, :], np.array(mask))
    replays = []
    replay = tape.Tape.replay
    monkeypatch.setattr(tape.Tape, "replay",
                        lambda self, *x: replays.append(replay(self, *x)) or replays[-1])
    for evaluate in (
        geo.classification_values,
        lambda spec, u, v: q._full(spec, [q.AREA], u, v),
        lambda spec, u, v: q._full(spec, q._REGION_FIELDS, u, v),
    ):
        spec = chart_spec(chart)
        evaluate(spec, a[:1], b[:1])
        replays.clear()
        with pytest.raises(SingularEvaluationError) as taped:
            evaluate(spec, a, b)
        assert replays[0] is None
        with mock.patch.object(tape, "record", lambda fn, *inputs: None):
            with pytest.raises(SingularEvaluationError) as direct:
                evaluate(chart_spec(chart), a, b)
        got, want = taped.value, direct.value
        assert (str(got), got.point, got.value, got.index) == (
            str(want), want.point, want.value, want.index)
    if len(vs) == 1:
        assert str(got).startswith("induced metric is degenerate") and got.index == 1
        assert got.point == (0.14, 0.3)
    else:
        assert "division" in str(got) and got.index == 2 and got.point == (0.12, 0.32)


def test_an_empty_masked_node_set_gives_empty_arrays():
    spec = preset("torus")
    us, vs = q._lattice(spec, q.GridSpec(16, 16), centers=True)
    u, v = q._masked(us, vs, np.zeros((16, 16), dtype=bool))
    for value in geo.classification_values(spec, u, v):
        assert isinstance(value, np.ndarray) and value.shape == (0,)
    assert not spec.tapes


# a graph chart z = 0.3 f(u, v) on [0.5, 1.5]^2, f of depth 2 to 4 over the
# chart language (the canonical-printing strategy's operators)
_chart_leaf = st.one_of(
    st.floats(min_value=0.0, max_value=9.0, allow_nan=False).map(ex.Number),
    st.sampled_from(["u", "v"]).map(ex.Var),
    st.sampled_from(["pi", "e"]).map(ex.Const),
)


def _chart_ast(depth):
    return _chart_leaf if depth == 0 else st.one_of(_chart_leaf, _compound(_chart_ast(depth - 1)))


# at least two operations deep: a lone leaf or one operation is a plane or
# a near-trivial graph
_chart_f = _compound(_compound(_chart_ast(2)))


def graph_spec(f):
    z = ex.Binary("*", ex.Number(0.3), f)
    return ImmersionSpec(
        name="graph", components=(ex.Var("u"), ex.Var("v"), z), u_range=(0.5, 1.5),
        v_range=(0.5, 1.5), periodic_u=False, periodic_v=False, ambient_c=0.0,
        params=MappingProxyType({}),
    )


FIELDS, PEAKS = q._REGION_FIELDS, _COND_PEAKS


def kernel_outputs(spec, us, vs):
    # the classification, the region pass at order 3 (with |hring|^2, |H| and the
    # sufficiency peaks) and the identities' residuals at order 4
    return [
        *geo.classification_values(spec, us, vs),
        *q._full(spec, FIELDS, us, vs, raw=(*q._LEVEL, *PEAKS)),
        *geo.residual_norms(spec, us, vs),
    ]


def public_outputs(spec, us, vs):
    # the same values from the stacked PointGeometry API
    pg = geo.point_geometry(spec, us, vs, 2)
    out = [np.maximum(pg.hring_norm2, 0.0), np.abs(pg.H), pg.sqrt_detg]
    pg = geo.point_geometry(spec, us, vs, 3)
    out += [pg.hring_norm2, np.abs(pg.H)]
    out += [np.asarray(p(pg), dtype=float) for p in PEAKS]
    out += [np.broadcast_to(np.asarray(f(pg), dtype=float), pg.batch_shape) * pg.sqrt_detg
            for f in FIELDS]
    pg = geo.point_geometry(spec, us, vs, 4)
    norms = geo.identity_residuals(pg).normalized()
    norms["bochner"] = geo.bochner_residual(pg).normalized()
    return out + [norms[k] for k in geo.RESIDUALS]


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_chart_f, st.integers(0, 2**16))
# an affine argument whose slope's cube overflows a float power: jet order
# 3 raises SingularEvaluationError, as it must, not OverflowError
@example(ex.parse("-0/(u/6.198446402774791e-153)"), 0)
def test_recorded_kernels_are_the_direct_and_public_paths(f, seed):
    # the recorded kernels against the same kernels and the stacked API run
    # with nothing recorded (stage one on the jets), bit for bit
    rng = np.random.default_rng(seed)
    us, vs = rng.uniform(0.5, 1.5, 24), rng.uniform(0.5, 1.5, 24)
    with np.errstate(all="ignore"):
        try:
            validate(graph_spec(f))
            geo._forms(graph_spec(f), us, vs, 4)
        except (SpecValidationError, SingularEvaluationError):
            assume(False)  # an invalid chart
        spec = graph_spec(f)
        recorded = kernel_outputs(spec, us, vs)
        # the classification and the two kernels, and no stage one of its own
        assert len(spec.tapes) == 3
        assert all(isinstance(t, tape.Tape) for t in spec.tapes.values())
        with mock.patch.object(tape, "record", lambda fn, *inputs: None):
            direct = kernel_outputs(graph_spec(f), us, vs)
            public = public_outputs(graph_spec(f), us, vs)
    assert_same_bits(recorded, direct)
    assert_same_bits(recorded, public)
