import math
from types import MappingProxyType

import numpy as np
import pytest

from umbilic import expressions as ex
from umbilic import surfaces
from umbilic.errors import ConformalBallError, SingularEvaluationError, SpecValidationError
from umbilic.surfaces import evaluate_chart, interior_axes, load_definition, preset, validate


def test_all_presets_validate():
    for name in surfaces.PRESET_NAMES:
        spec = preset(name)
        validate(spec, n=64)


def test_sphere_chart_values():
    # [TRIVIAL] standard polar chart
    spec = preset("sphere", {"r": 1.0})
    assert spec.u_range == (0.0, math.pi)
    assert spec.v_range == (0.0, 2 * math.pi)
    assert spec.periodic_v and not spec.periodic_u
    assert spec.is_closed
    x, y, z = evaluate_chart(spec, math.pi / 2, 0.0, order=1)
    assert float(x.value) == pytest.approx(1.0)
    assert float(y.value) == pytest.approx(0.0, abs=1e-15)
    assert float(z.value) == pytest.approx(0.0, abs=1e-15)


def test_chart_points_on_surface():
    # sphere: |f| = r everywhere; torus: (sqrt(x^2+y^2) - R)^2 + z^2 = r^2
    spec = preset("sphere", {"r": 1.7})
    us, vs = interior_axes(spec, 13, 17)
    uu, vv = np.meshgrid(us, vs, indexing="ij")
    x, y, z = (c.value for c in evaluate_chart(spec, uu, vv, order=1))
    np.testing.assert_allclose(np.sqrt(x**2 + y**2 + z**2), 1.7, rtol=1e-13)

    spec = preset("torus", {"R": 2.0, "r": 0.5})
    us, vs = interior_axes(spec, 11, 11)
    uu, vv = np.meshgrid(us, vs, indexing="ij")
    x, y, z = (c.value for c in evaluate_chart(spec, uu, vv, order=1))
    ring = np.sqrt(x**2 + y**2) - 2.0
    np.testing.assert_allclose(ring**2 + z**2, 0.25, rtol=1e-12)


def test_degenerate_ellipsoid_is_spherical():
    # [TRIVIAL] ellipsoid_rev(1, 1) traces the unit sphere
    spec = preset("ellipsoid_rev", {"a": 1.0, "b": 1.0})
    us, vs = interior_axes(spec, 16, 16)
    uu, vv = np.meshgrid(us, vs, indexing="ij")
    x, y, z = (c.value for c in evaluate_chart(spec, uu, vv, order=1))
    np.testing.assert_allclose(x**2 + y**2 + z**2, 1.0, atol=1e-13)


def test_parameter_validation():
    with pytest.raises(SpecValidationError):
        preset("sphere", {"r": -1.0})
    with pytest.raises(SpecValidationError):
        preset("torus", {"R": 1.0, "r": 1.0})
    with pytest.raises(SpecValidationError):
        preset("torus", {"R": 1.0, "r": 2.0})
    with pytest.raises(SpecValidationError):
        preset("sphere", {"radius": 1.0})
    with pytest.raises(SpecValidationError):
        preset("does_not_exist")


def test_conformal_ball_rejection():
    # rho too big for the c=-1 ball (radius 2)
    with pytest.raises(ConformalBallError):
        preset("centered_sphere_spaceform", {"rho": 2.5, "c": -1.0})
    spec = preset("centered_sphere_spaceform", {"rho": 1.9, "c": -1.0})
    assert spec.ambient_c == -1.0


def test_rank_validation_catches_collapsed_chart():
    bad = surfaces._spec(
        "collapsed", ("u", "2*u", "0"), (0, 1), (0, 1)
    )
    with pytest.raises(SpecValidationError) as exc:
        validate(bad)
    assert "rank" in str(exc.value)


def test_margin_excluded_from_samples():
    spec = preset("sphere")
    m = spec.singular_margin
    us, vs = interior_axes(spec, 64, 64)
    span_u = math.pi - 2 * m
    assert us[0] == pytest.approx(m + 0.5 * span_u / 64)
    assert us[-1] == pytest.approx(math.pi - m - 0.5 * span_u / 64)
    # periodic axis keeps its full period, no margin shaved
    assert vs[0] == pytest.approx(0.5 * 2 * math.pi / 64)
    assert vs[-1] == pytest.approx(2 * math.pi - 0.5 * 2 * math.pi / 64)
    # the corners run from one end of the interior range to the other
    us, vs = interior_axes(spec, 64, 64, centers=False)
    assert len(us) == len(vs) == 65
    assert us[0] == m and us[-1] == pytest.approx(math.pi - m)
    assert vs[0] == 0.0 and vs[-1] == pytest.approx(2 * math.pi)


def test_with_params_builds_new_spec():
    spec = preset("torus")
    other = spec.with_params(r=0.25)
    assert other.params["r"] == 0.25
    assert spec.params["r"] == 1.0
    x, _, _ = evaluate_chart(other, 0.0, 0.0, order=1)
    assert float(x.value) == pytest.approx(2.25)


def test_component_sources_round_trip():
    spec = preset("ellipsoid_rev")
    for src, ast in zip(spec.component_sources(), spec.components):
        assert ex.parse(src, known_params=set(spec.params)) == ast


# -- definition files -----------------------------------------------------------

GOOD_FILE = """
[surface]
name = tilted_plane_bump
x = u
y = v
z = 0.2*sin(k*u)*cos(v)
u_range = -pi, pi
v_range = -pi, pi
periodic_u = true
periodic_v = true
c = 0

[params]
k = 2
"""


def test_load_definition(tmp_path):
    p = tmp_path / "surf.ini"
    p.write_text(GOOD_FILE)
    spec = load_definition(p)
    assert spec.name == "tilted_plane_bump"
    assert spec.params["k"] == 2.0
    assert spec.u_range == pytest.approx((-math.pi, math.pi))
    assert spec.periodic_u and spec.periodic_v
    assert not spec.is_closed
    z = evaluate_chart(spec, 0.3, 0.1, order=1)[2]
    assert float(z.value) == pytest.approx(0.2 * math.sin(0.6) * math.cos(0.1))
    # "x + 0" and "x - 0" are x, bit for bit: a range evaluates with the chart's arithmetic
    p.write_text(GOOD_FILE.replace("u_range = -pi, pi", "u_range = -pi + 0, pi - 0"))
    assert load_definition(p).u_range == spec.u_range == (-math.pi, math.pi)


def test_load_definition_missing_key(tmp_path):
    p = tmp_path / "surf.ini"
    p.write_text("[surface]\nname = x_only\nx = u\n")
    with pytest.raises(SpecValidationError) as exc:
        load_definition(p)
    assert "y" in str(exc.value)


def test_load_definition_bad_expression(tmp_path):
    p = tmp_path / "surf.ini"
    p.write_text(
        "[surface]\nname = broken\nx = sin(u\ny = v\nz = 0\n"
        "u_range = 0, 1\nv_range = 0, 1\n"
    )
    with pytest.raises(SpecValidationError) as exc:
        load_definition(p)
    assert str(exc.value) == f"{p}: x: unexpected end of input (at position 6); expected ')'"


@pytest.mark.parametrize("key", ["x", "y", "z"])
def test_load_definition_names_the_component_that_fails_to_parse(key, tmp_path):
    # a parse error names its component after the file, as an evaluation
    # error does (`<path>: z: ...`)
    p = tmp_path / "surf.ini"
    chart = {"x": "u", "y": "v", "z": "0", key: "u + $"}
    p.write_text("[surface]\nname = broken\n" + "".join(f"{k} = {x}\n" for k, x in chart.items())
                 + "u_range = 0, 1\nv_range = 0, 1\n")
    with pytest.raises(SpecValidationError) as exc:
        load_definition(p)
    assert str(exc.value) == (f"{p}: {key}: unexpected character '$' (at position 5);"
                              " expected a number, identifier, or one of + - * / ^ ( )")


def test_load_definition_undeclared_param(tmp_path):
    p = tmp_path / "surf.ini"
    p.write_text(
        "[surface]\nname = broken\nx = q*u\ny = v\nz = 0\n"
        "u_range = 0, 1\nv_range = 0, 1\n"
    )
    with pytest.raises(SpecValidationError) as exc:
        load_definition(p)
    assert "q" in str(exc.value)


def test_load_definition_bad_range(tmp_path):
    plane = "[surface]\nname = plane\nx = u\ny = v\nz = 0\n"
    p = tmp_path / "surf.ini"
    p.write_text(plane + "u_range = 0\nv_range = 0, 1\n")
    with pytest.raises(SpecValidationError):
        load_definition(p)
    # a constant outside an operation's domain, or one that is not finite, is
    # an input error that names the key; none escapes as a Python exception
    for key, bad in [
        ("u_range", "0, 1/0"), ("u_range", "0, log(0)"), ("u_range", "0, (-2)^0.5"),
        ("u_range", "0, 10^400"), ("c", "1e308*10"),
    ]:
        fields = {"u_range": "0, 1", "v_range": "0, 1", key: bad}
        p.write_text(plane + "".join(f"{k} = {x}\n" for k, x in fields.items()))
        with pytest.raises(SpecValidationError) as exc:
            load_definition(p)
        assert f"{p}: {key}: " in str(exc.value), bad


@pytest.mark.parametrize(
    "text, error, message",
    [
        # a radius-3 sphere in the c = -1 model: (|c|/4)|f|^2 = 2.25 >= 1
        ("[surface]\nname = big\nx = 3*sin(u)*cos(v)\ny = 3*sin(u)*sin(v)\nz = 3*cos(u)\n"
         "u_range = 0, pi\nv_range = 0, 2*pi\nperiodic_v = true\nsingular_margin = 1e-3\n"
         "closed = true\nc = -1\n",
         ConformalBallError, r"image leaves the conformal ball .*= 2\.25 "),
        ("[surface]\nname = plane\nx = u\ny = v\nz = 0\nu_range = 0, 1\nv_range = 0, 1\n"
         "singular_margin = 0.6\n",
         SpecValidationError, "singular_margin swallows the domain"),
        ("[params]\nk = 1\n", SpecValidationError, r"missing \[surface\] section"),
    ],
    ids=["outside-conformal-ball", "margin-swallows-domain", "no-surface-section"],
)
def test_load_definition_rejects_a_bad_surface(text, error, message, tmp_path):
    p = tmp_path / "surf.ini"
    p.write_text(text)
    with pytest.raises(error, match=message):
        load_definition(p)


def test_load_definition_rejects_rank_deficient(tmp_path):
    p = tmp_path / "surf.ini"
    p.write_text(
        "[surface]\nname = folded\nx = u*u\ny = u\nz = 1\n"
        "u_range = -1, 1\nv_range = -1, 1\n"
    )
    with pytest.raises(SpecValidationError):
        load_definition(p)


# -- shared subexpressions ---------------------------------------------------------

def test_shared_singular_subexpression_is_located():
    # sqrt(u - 1) occurs in x and y; the error carries the span of its first
    # occurrence and the failing node
    spec = surfaces.ImmersionSpec(
        name="shared_sqrt",
        components=tuple(ex.parse(s) for s in ("sqrt(u - 1)*cos(v)", "sqrt(u - 1)*sin(v)", "u")),
        u_range=(0.0, 3.0), v_range=(0.0, 1.0), periodic_u=False, periodic_v=False,
        ambient_c=0.0, params=MappingProxyType({}),
    )
    us, vs = np.array([1.5, 0.5, 2.0]), np.array([0.1, 0.2, 0.3])
    with pytest.raises(SingularEvaluationError) as info:
        evaluate_chart(spec, us, vs, 3)
    assert info.value.point == (0.5, 0.2)
    assert info.value.span == (0, 11)
