"""End-to-end tests for the command line interface.

Every test drives cli.main(argv) in-process. Grids are kept small so the
whole module stays fast; numerical claims at these resolutions are limited
to exit codes, file schema, and determinism.
"""

import json
import math
import warnings

import pytest

from umbilic import cli, quadrature

SMALL = ["--grid", "64x64", "--depth", "4"]

SQUASHED_BALL = """\
[surface]
name = squashed_ball
x = sin(u)*cos(v)
y = sin(u)*sin(v)
z = k*cos(u)
u_range = 0, pi
v_range = 0, 2*pi
periodic_v = true
singular_margin = 1e-3
closed = true

[params]
k = 0.6
"""

# a torus whose tube is an ellipse half as tall as wide: |H| peaks, at 13/3,
# along the outer equator u = -shift. At -pi/64, half a cell of a 64-cell
# axis, that equator runs through G's midpoints, off the half grid's corners
# and midpoints
SHIFTED_TORUS = """\
[surface]
name = shifted_torus
x = (2 + cos(u + shift))*cos(v)
y = (2 + cos(u + shift))*sin(v)
z = 0.5*sin(u + shift)
u_range = 0, 2*pi
v_range = 0, 2*pi
periodic_u = true
periodic_v = true
closed = true

[params]
shift = -pi/64
"""


def run(argv, out_dir):
    return cli.main(argv + ["--out", str(out_dir)])


def read_json(out_dir, stem):
    with open(out_dir / f"{stem}_report.json") as fh:
        return json.load(fh)


def read_csv_lines(out_dir, stem):
    return (out_dir / f"{stem}_rows.csv").read_text().splitlines()


# -- list-presets ------------------------------------------------------------------


def test_list_presets(capsys):
    assert cli.main(["list-presets"]) == 0
    out = capsys.readouterr().out
    for name in ("sphere", "torus", "ellipsoid_rev", "graph_bump"):
        assert name in out
    assert "closed" in out and "open" in out


def test_list_presets_rejects_extras():
    assert cli.main(["list-presets", "--r", "2"]) == 2


# -- identities --------------------------------------------------------------------


def test_identities_pass(tmp_path, capsys):
    assert run(["identities", "--preset", "sphere", "--n", "200"] + SMALL, tmp_path) == 0
    assert "identities: PASS" in capsys.readouterr().out
    payload = read_json(tmp_path, "identities")
    assert payload["verdict"] == "PASS"
    names = [r["identity"] for r in payload["rows"]]
    assert names == ["codazzi", "div", "smo", "norm", "bochner"]
    for row in payload["rows"]:
        assert set(row) == {"identity", "max_residual", "mean_residual", "tolerance", "passed"}
        assert row["passed"] is True
    # relation residual bound stays two orders below the curvature one
    tols = {r["identity"]: r["tolerance"] for r in payload["rows"]}
    assert tols["bochner"] == pytest.approx(100.0 * tols["codazzi"])


def test_identities_fail_on_absurd_tolerance(tmp_path):
    # residuals sit near 1e-10, so 1e-16 must flag codazzi/div/bochner
    code = run(
        ["identities", "--preset", "sphere", "--n", "200", "--tol", "1e-16"] + SMALL,
        tmp_path,
    )
    assert code == 1
    payload = read_json(tmp_path, "identities")
    assert payload["verdict"] == "FAIL"
    assert not all(r["passed"] for r in payload["rows"])


# -- verify ------------------------------------------------------------------------


def test_verify_sphere_report_schema(tmp_path, capsys):
    code = run(["verify", "--preset", "sphere", "--eps", "0.5,0.1"] + SMALL, tmp_path)
    assert code == 0
    assert "verify: PASS" in capsys.readouterr().out
    payload = read_json(tmp_path, "verify")
    assert set(payload) == {
        "config", "surface", "chi", "H_sup", "C_const",
        "rows", "verdict", "errors", "timestamp",
    }
    assert payload["verdict"] == "PASS"
    assert payload["chi"]["rounded"] == 2
    assert payload["surface"]["name"] == "sphere"
    assert payload["surface"]["closed"] is True
    assert payload["H_sup"] == pytest.approx(2.0, rel=1e-6)
    assert payload["C_const"] == pytest.approx(3.0, rel=1e-6)
    for row in payload["rows"]:
        # sphere is totally umbilic: both integral terms are numerical dust
        assert abs(row["term1"]) < 1e-40 and abs(row["term2"]) < 1e-40
        assert row["margin"] == pytest.approx(4.0 * math.pi, rel=1e-3)


def test_verify_csv_layout(tmp_path):
    assert run(["verify", "--preset", "torus", "--eps", "0.05"] + SMALL, tmp_path) == 0
    lines = read_csv_lines(tmp_path, "verify")
    comments = [l for l in lines if l.startswith("# ")]
    body = [l for l in lines if not l.startswith("# ")]
    assert any(l.startswith("# command=verify") for l in comments)
    assert any(l.startswith("# surface=torus") for l in comments)
    assert any(l.startswith("# seed=") for l in comments)
    assert body[0] == ",".join(cli.VERIFY_CSV_COLUMNS)
    # torus at eps=0.05 has an empty sublevel region: data columns all zero
    fields = body[1].split(",")
    assert len(fields) == len(cli.VERIFY_CSV_COLUMNS)
    assert float(fields[0]) == 0.05
    for value in fields[1:7]:  # vol, term1, term2, lhs, rhs
        assert float(value) == 0.0


def test_verify_error_bar_grid_needs_tol(tmp_path, capsys):
    # 48 has no exact quarter grid of at least 16: the error bar needs --tol
    argv = ["verify", "--preset", "sphere", "--eps", "0.5", "--grid", "48x48", "--depth", "4"]
    assert run(argv, tmp_path) == 2
    assert "--tol" in capsys.readouterr().err
    assert run(argv + ["--tol", "1e-3"], tmp_path) == 0
    assert read_json(tmp_path, "verify")["rows"][0]["tol_margin"] == 1e-3


def test_verify_fail_exit_code(tmp_path):
    # a sup|H| override of 0 shrinks C to 1, below what the inequality
    # needs at eps 0.05 (its margin reads -0.19), and the fixed tiny
    # tolerance does not absorb it
    code = run(
        ["verify", "--preset", "ellipsoid_rev", "--a", "1", "--b", "2",
         "--eps", "0.05", "--tol", "1e-9", "--hsup-override", "0"] + SMALL,
        tmp_path,
    )
    assert code == 1
    assert read_json(tmp_path, "verify")["verdict"] == "FAIL"


def test_verify_reports_chi_far_from_an_integer(tmp_path, capsys):
    argv = ["verify", "--preset", "ellipsoid_rev", "--a", "1", "--b", "8", "--eps", "0.5",
            "--grid", "16x16", "--depth", "0", "--tol", "1.0"]
    assert run(argv, tmp_path) == 0
    note = "Euler characteristic estimate 2.2344 is far from an integer; refine the grid"
    assert f"  note: {note}\n" in capsys.readouterr().out
    payload = read_json(tmp_path, "verify")
    assert payload["chi"]["rounded"] == 2 and payload["errors"][0] == note


def test_verify_reports_an_odd_chi(tmp_path, capsys):
    argv = ["verify", "--preset", "ellipsoid_rev", "--a", "5", "--b", "0.3", "--eps", "0.5",
            "--grid", "16x16", "--depth", "0", "--tol", "1.0"]
    assert run(argv, tmp_path) == 0
    note = ("Euler characteristic estimate 1.0030 rounds to the odd value 1, which no closed"
            " chart gives; refine the grid")
    assert f"  note: {note}\n" in capsys.readouterr().out
    payload = read_json(tmp_path, "verify")
    assert payload["chi"]["rounded"] == 1 and payload["errors"][0] == note


@pytest.mark.parametrize("name", ["ellipsoid_rev", "ellipsoid_tri"])
def test_verify_keeps_sup_h_where_the_half_grid_holds_it(name, tmp_path, capsys):
    # the node where |H| peaks is a corner of G and of the half grid (on
    # ellipsoid_rev the row u = margin), so the two estimates agree
    assert run(["verify", "--preset", name] + SMALL, tmp_path) == 0
    assert "sup|H| estimate moved" not in capsys.readouterr().out
    assert read_json(tmp_path, "verify")["errors"] == []


def test_verify_warns_when_the_half_grid_misses_sup_h(tmp_path, capsys):
    path = tmp_path / "torus.ini"
    path.write_text(SHIFTED_TORUS)
    assert run(["verify", "--file", str(path)] + SMALL, tmp_path) == 0
    note = ("sup|H| estimate moved 4.28892 -> 4.33333 between grid levels; treat C as"
            " unreliable or pass an override")
    assert f"  note: {note}\n" in capsys.readouterr().out
    assert read_json(tmp_path, "verify")["errors"] == [note]
    # with the equator on a corner row the half grid holds the peak
    assert run(["verify", "--file", str(path), "--shift", "0"] + SMALL, tmp_path) == 0
    assert "sup|H|" not in capsys.readouterr().out


def test_verify_with_sufficiency_check(tmp_path):
    code = run(
        ["verify", "--preset", "sphere", "--eps", "0.5", "--eps0", "0.5"] + SMALL,
        tmp_path,
    )
    assert code == 0
    payload = read_json(tmp_path, "verify")
    cor = payload["corollary"]
    assert cor["cond1_holds"] is True
    assert cor["cond2_holds"] is True
    assert cor["cond3_trend"] == "plateau"
    assert "Vol" in cor["verdict"]


def count_passes(monkeypatch):
    """The list that gets one entry per quadrature._ladder_pass call."""
    calls = []
    real = quadrature._ladder_pass

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(quadrature, "_ladder_pass", counting)
    return calls


def test_verify_with_sufficiency_check_is_one_pass(tmp_path, monkeypatch):
    calls = count_passes(monkeypatch)
    argv = ["verify", "--preset", "ellipsoid_rev", "--a", "1", "--b", "2", "--eps0", "0.5"]
    assert run(argv + SMALL, tmp_path) in (0, 1)
    assert len(calls) == 1
    assert read_json(tmp_path, "verify")["corollary"]["eps0"] == 0.5


@pytest.mark.parametrize("eps0", ["0", "1.5", "nan"])
def test_bad_eps0_exits_before_any_pass(eps0, tmp_path, monkeypatch, capsys):
    calls = count_passes(monkeypatch)
    assert run(["verify", "--preset", "sphere", "--eps0", eps0] + SMALL, tmp_path) == 2
    assert calls == []
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "eps0" in err
    assert not list(tmp_path.iterdir())


def test_sufficiency_check_refuses_torus(tmp_path, capsys):
    assert run(["verify", "--preset", "torus", "--eps0", "0.5"] + SMALL, tmp_path) == 2
    assert "Euler characteristic is 0, not 2" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_verify_param_override_reaches_report(tmp_path):
    assert run(["verify", "--preset", "sphere", "--r", "2", "--eps", "0.5"] + SMALL, tmp_path) == 0
    payload = read_json(tmp_path, "verify")
    assert payload["surface"]["params"] == {"r": 2.0}
    assert payload["H_sup"] == pytest.approx(1.0, rel=1e-6)


def test_verify_format_selects_outputs(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(["verify", "--preset", "sphere", "--eps", "0.5", "--format", "json"] + SMALL, a) == 0
    assert run(["verify", "--preset", "sphere", "--eps", "0.5", "--format", "csv"] + SMALL, b) == 0
    assert (a / "verify_report.json").exists() and not (a / "verify_rows.csv").exists()
    assert (b / "verify_rows.csv").exists() and not (b / "verify_report.json").exists()


def test_verify_reruns_are_byte_identical(tmp_path):
    argv = ["verify", "--preset", "ellipsoid_rev", "--a", "1", "--b", "2",
            "--eps", "0.5,0.1"] + SMALL
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(argv, a) == 0
    assert run(argv, b) == 0
    assert (a / "verify_rows.csv").read_bytes() == (b / "verify_rows.csv").read_bytes()

    def stripped(path):
        return [l for l in (path / "verify_report.json").read_text().splitlines()
                if '"timestamp"' not in l]

    assert stripped(a) == stripped(b)


# -- sweep -------------------------------------------------------------------------


def test_sweep_decreasing_exit_zero(tmp_path, capsys):
    code = run(
        ["sweep", "--preset", "ellipsoid_rev", "--a", "1", "--b", "1.05"] + SMALL,
        tmp_path,
    )
    assert code == 0
    assert "decreasing" in capsys.readouterr().out
    payload = read_json(tmp_path, "sweep")
    assert payload["verdict"] == "decreasing"
    gaps = [abs(r["normalized_gap"]) for r in payload["rows"]]
    assert gaps[-1] < gaps[0]
    lines = read_csv_lines(tmp_path, "sweep")
    body = [l for l in lines if not l.startswith("# ")]
    assert body[0] == "eps,sharp_gap,normalized_gap,trend"


def test_sweep_non_decreasing_exit_one(tmp_path):
    # on the plain 16x16 lattice the tail of the gap ladder is unresolved
    # and loses monotonicity (normalized gaps +0.367, +0.451); restricting
    # the sweep to that tail forces a non-decreasing verdict deterministically
    code = run(
        ["sweep", "--preset", "ellipsoid_rev", "--a", "1", "--b", "2",
         "--eps", "0.1,0.05", "--grid", "16x16", "--depth", "0"],
        tmp_path,
    )
    assert code == 1
    assert read_json(tmp_path, "sweep")["verdict"] == "increasing"


def test_sweep_rejects_near_spherical(tmp_path, capsys):
    code = run(
        ["sweep", "--preset", "ellipsoid_rev", "--a", "1", "--b", "1.0001"] + SMALL,
        tmp_path,
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err


# -- convergence -------------------------------------------------------------------


@pytest.mark.parametrize(
    "field, exact, order",
    [([], 4.0 * math.pi, 2.0), (["--field", "total_R"], 8.0 * math.pi, 2.0),
     # the sphere is totally umbilic, so the sublevel region is all of it,
     # every cell inside, where the (T + 2M)/3 rule is fourth order
     (["--field", "vol", "--eps", "0.1"], 4.0 * math.pi, 4.0)],
    ids=["area", "total_R", "vol"],
)
def test_convergence_sphere_area(field, exact, order, tmp_path, capsys):
    code = run(
        ["convergence", "--preset", "sphere", "--grid", "128x128", "--levels", "3"] + field,
        tmp_path,
    )
    assert code == 0
    assert "order=" in capsys.readouterr().out
    payload = read_json(tmp_path, "convergence")
    assert len(payload["rows"]) == 3
    assert payload["rows"][0]["grid"] == "32x32"
    assert payload["rows"][-1]["grid"] == "128x128"
    assert payload["rows"][-1]["value"] == pytest.approx(exact, rel=1e-3)
    assert float(payload["verdict"]) == pytest.approx(order, abs=0.2)
    lines = read_csv_lines(tmp_path, "convergence")
    body = [l for l in lines if not l.startswith("# ")]
    assert body[0] == "grid,value,estimated_order,error_estimate"
    assert len(body) == 4


def test_convergence_rejects_indivisible_grid(tmp_path, capsys):
    code = run(
        ["convergence", "--preset", "sphere", "--grid", "66x66", "--levels", "3"],
        tmp_path,
    )
    assert code == 2
    assert "divisible" in capsys.readouterr().err


# -- definition files --------------------------------------------------------------


def test_verify_from_definition_file(tmp_path):
    path = tmp_path / "ball.ini"
    path.write_text(SQUASHED_BALL)
    code = run(["verify", "--file", str(path), "--eps", "0.3,0.1"] + SMALL, tmp_path)
    assert code == 0
    payload = read_json(tmp_path, "verify")
    assert payload["surface"]["name"] == "squashed_ball"
    assert payload["surface"]["params"] == {"k": 0.6}
    assert payload["chi"]["rounded"] == 2
    assert payload["config"]["source"] == f"file:{path}"


def test_definition_file_param_override(tmp_path):
    path = tmp_path / "ball.ini"
    path.write_text(SQUASHED_BALL)
    code = run(["verify", "--file", str(path), "--k", "0.8", "--eps", "0.3"] + SMALL, tmp_path)
    assert code == 0
    assert read_json(tmp_path, "verify")["surface"]["params"] == {"k": 0.8}


@pytest.mark.parametrize(
    "key, value",
    [("u_range", "0, 1/0"), ("u_range", "0, log(0)"), ("u_range", "0, (-2)^0.5"),
     ("u_range", "0, 10^400"), ("c", "1e308*10")],
)
def test_bad_numeric_field_is_an_input_error(key, value, tmp_path, capsys):
    fields = {"u_range": "0, 1", "v_range": "0, 1", key: value}
    path = tmp_path / "plane.ini"
    path.write_text("[surface]\nname = plane\nx = u\ny = v\nz = 0\n"
                    + "".join(f"{k} = {x}\n" for k, x in fields.items()))
    code = run(["convergence", "--file", str(path), "--grid", "64x64", "--levels", "3"], tmp_path)
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: {key}: ")


@pytest.mark.parametrize(
    "source, flag, value",
    [(["--file", "BALL"], "--k", "nan"), (["--preset", "graph_bump"], "--A", "inf")],
    ids=["file-nan", "preset-inf"],
)
def test_non_finite_parameter_override_names_the_parameter(source, flag, value, tmp_path, capsys):
    # a non-finite parameter used to reach the chart check, which failed
    # with "SVD did not converge"
    path = tmp_path / "ball.ini"
    path.write_text(SQUASHED_BALL)
    argv = ["convergence", *(str(path) if x == "BALL" else x for x in source), flag, value,
            "--grid", "64x64", "--levels", "3"]
    assert run(argv, tmp_path) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"parameter {flag[2:]}: must be finite, got {value}" in err


def test_parameter_names_are_case_sensitive(tmp_path, capsys):
    path = tmp_path / "saddle.ini"
    path.write_text("[surface]\nname = saddle\nx = u\ny = v\nz = K*u*v + k*u\n"
                    "u_range = -1, 1\nv_range = -1, 1\n\n[params]\nK = 2\nk = 0.5\n")
    code = run(["convergence", "--file", str(path), "--field", "area", "--grid", "64x64",
                "--levels", "3"], tmp_path)
    assert code == 0, capsys.readouterr().err
    assert read_json(tmp_path, "convergence")["surface"]["params"] == {"K": 2.0, "k": 0.5}


def test_bad_boolean_names_the_file_and_key(tmp_path, capsys):
    path = tmp_path / "plane.ini"
    path.write_text("[surface]\nname = plane\nx = u\ny = v\nz = 0\n"
                    "u_range = 0, 1\nv_range = 0, 1\nperiodic_u = maybe\n")
    code = run(["convergence", "--file", str(path), "--grid", "64x64", "--levels", "3"], tmp_path)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: periodic_u: ") and "maybe" in err


def graph_file(tmp_path, z):
    path = tmp_path / "graph.ini"
    path.write_text(f"[surface]\nname = graph\nx = u\ny = v\nz = {z}\n"
                    "u_range = 0.5, 1.5\nv_range = 0.5, 1.5\n")
    return str(path)


@pytest.mark.parametrize(
    "command", [["identities", "--n", "200"], ["convergence", "--field", "area", "--levels", "3"]]
)
def test_overflowing_chain_rule_factor_is_an_input_error(command, tmp_path, capsys):
    # the affine argument u*1e200 has the slope 1e200, whose square
    # overflows a float power: an input error, not a traceback, naming the
    # file, the component its source span lies in and a point (the error
    # holds at every node of its batch)
    path = graph_file(tmp_path, "0.3*(1/(u*1e200))")
    argv = [*command, "--file", path]
    assert run(argv + (["--grid", "64x64"] if "--levels" in command else []), tmp_path) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: z: chain rule: a power of the argument's slope")
    assert "at (u, v)=(" in err


def test_chart_domain_error_names_the_file_and_component(tmp_path, capsys):
    # sqrt(u - 1) leaves its domain at u < 1 on the validation grid
    path = tmp_path / "graph.ini"
    path.write_text("[surface]\nname = graph\nx = u\ny = sqrt(u - 1)\nz = v\n"
                    "u_range = 0.5, 1.5\nv_range = 0.5, 1.5\n")
    argv = ["convergence", "--field", "area", "--file", str(path), "--grid", "64x64",
            "--levels", "3"]
    assert run(argv, tmp_path) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: y: sqrt: argument outside domain; value=")
    assert "at (u, v)=(" in err and err.rstrip().endswith("source span 0..11")


def test_chart_values_that_overflow_when_squared_validate(tmp_path, capsys):
    # a translated plane at z = 3e202: |f|^2 overflows, which lambda = 1
    # (c = 0) never forms
    argv = ["convergence", "--field", "area", "--file", graph_file(tmp_path, "0.3*(1/1e-203)"),
            "--grid", "64x64", "--levels", "3"]
    assert run(argv, tmp_path) == 0, capsys.readouterr().err
    assert [row["value"] for row in read_json(tmp_path, "convergence")["rows"]] == [1.0] * 3


@pytest.mark.parametrize(
    "z", ["0.3*(1/1e-203)", "u + sqrt(1e-200)", "u + log(1e-300)", "u + 1e-200^-1.5"]
)
def test_chart_constants_build_no_derivatives(z, tmp_path, capsys):
    # a subtree without u or v evaluates at jet order 0: the derivatives of
    # 1/x, sqrt, log and a power at these constants overflow, and a chart
    # reads none of them
    argv = ["convergence", "--field", "area", "--file", graph_file(tmp_path, z),
            "--grid", "64x64", "--levels", "3"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv, tmp_path) == 0, capsys.readouterr().err


def test_non_finite_chart_value_names_the_point(tmp_path, capsys):
    argv = ["convergence", "--field", "area", "--file",
            graph_file(tmp_path, "sinh(exp(cosh(u - pi)))"), "--grid", "64x64", "--levels", "3"]
    assert run(argv, tmp_path) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: graph: chart value or first partial is not finite at u=")
    assert ", v=" in err


def test_ambient_override_revalidates(tmp_path):
    code = run(["verify", "--preset", "sphere", "--c", "1.0", "--eps", "0.5"] + SMALL, tmp_path)
    assert code == 0
    payload = read_json(tmp_path, "verify")
    assert payload["surface"]["c"] == 1.0
    # unit sphere in the c=1 model has H != 2
    assert abs(payload["H_sup"] - 2.0) > 1e-3


def test_ambient_override_sets_the_presets_c_parameter(tmp_path, capsys):
    # centered_sphere_spaceform declares c: --c sets it, so the report's
    # parameters reproduce its ambient, and the preset's own check runs
    argv = ["convergence", "--preset", "centered_sphere_spaceform", "--c", "-1",
            "--field", "area", "--grid", "64x64", "--levels", "3"]
    assert run(argv, tmp_path) == 0
    surface = read_json(tmp_path, "convergence")["surface"]
    assert surface["params"]["c"] == surface["c"] == -1.0
    argv[argv.index("-1")] = "-16"
    assert run(argv, tmp_path) == 2
    assert "does not fit inside the conformal ball of the c=-16.0 model" in capsys.readouterr().err


# -- error handling ----------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--preset", "klein_bottle", "--eps", "0.5"],
        ["verify", "--preset", "sphere", "--bogus", "3", "--eps", "0.5"],
        ["verify", "--preset", "sphere", "--r", "--eps", "0.5"],
        ["verify", "--preset", "sphere", "--r", "abc", "--eps", "0.5"],
        ["verify", "--preset", "sphere", "--eps", "0.1,0.5"],
        ["verify", "--preset", "sphere", "--eps", "0.5", "--grid", "64"],
        ["verify", "--preset", "sphere", "--eps", "0.5", "--tol", "-1"],
        ["verify", "--file", "/nonexistent/surface.ini", "--eps", "0.5"],
    ],
    ids=[
        "unknown-preset", "unknown-param", "unpaired-override", "non-numeric",
        "increasing-ladder", "bad-grid", "bad-tol", "missing-file",
    ],
)
def test_usage_errors_exit_two(argv, tmp_path, capsys):
    assert run(argv, tmp_path) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["identities", "--preset", "torus", "--n", "0"], "--n"),
        (["identities", "--preset", "torus", "--n", "-3"], "--n"),
        (["verify", "--preset", "sphere", "--eps", "0.5", "--grid", "512x"], "--grid"),
        (["sweep", "--preset", "ellipsoid_rev", "--grid", "x64"], "--grid"),
    ],
    ids=["zero-samples", "negative-samples", "grid-missing-nv", "grid-missing-nu"],
)
def test_input_errors_name_the_flag(argv, flag, tmp_path, capsys):
    assert run(argv, tmp_path) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and flag in err


@pytest.mark.parametrize(
    "argv",
    [
        ["identities", "--preset", "sphere", "--n", "5", "--tol", "nan"],
        ["verify", "--preset", "sphere", "--eps", "0.5", "--tol", "nan"] + SMALL,
        ["verify", "--preset", "sphere", "--eps", "0.5", "--tol", "inf"] + SMALL,
    ],
    ids=["identities-nan", "verify-nan", "verify-inf"],
)
def test_non_finite_tol_is_an_input_error(argv, tmp_path, capsys):
    assert run(argv, tmp_path) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--tol" in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--preset", "ellipsoid_rev", "--tol", "1"] + SMALL,
        ["convergence", "--preset", "sphere", "--grid", "64x64", "--tol", "-5"],
    ],
    ids=["sweep", "convergence"],
)
def test_tol_is_refused_where_nothing_reads_it(argv, tmp_path, capsys):
    # only identities and verify take --tol; elsewhere it is an unknown
    # surface parameter
    assert run(argv, tmp_path) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "tol" in err
    assert not list(tmp_path.iterdir())


VERIFY_SPHERE = ["verify", "--preset", "sphere", "--eps", "0.5"]


@pytest.mark.parametrize(
    "argv, flag",
    [
        (VERIFY_SPHERE + ["--hsup-override", "nan"], "--hsup-override"),
        (VERIFY_SPHERE + ["--hsup-override", "inf"], "--hsup-override"),
        (VERIFY_SPHERE + ["--hsup-override", "-1"], "--hsup-override"),
        (VERIFY_SPHERE + ["--c", "nan"], "--c"),
        (VERIFY_SPHERE + ["--c", "inf"], "--c"),
        (["identities", "--preset", "torus", "--n", "5", "--c=-inf"], "--c"),
    ],
    ids=["hsup-nan", "hsup-inf", "hsup-negative", "c-nan", "c-inf", "identities-c-minus-inf"],
)
def test_bad_hsup_and_ambient_values_name_the_flag(argv, flag, tmp_path, capsys):
    assert run(argv + SMALL, tmp_path) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and flag in err
    assert not list(tmp_path.iterdir())


def test_hsup_override_zero_is_accepted(tmp_path):
    assert run(VERIFY_SPHERE + ["--hsup-override", "0"] + SMALL, tmp_path) in (0, 1)
    assert read_json(tmp_path, "verify")["config"]["hsup_override"] == 0.0


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["verify", "--preset", "sphere", "--depth", "13"], "--depth"),
        (["verify", "--preset", "sphere", "--depth", "-1"], "--depth"),
        (["verify", "--preset", "sphere", "--grid", "8x8"], "--grid"),
        (["convergence", "--preset", "sphere", "--levels", "40"], "--levels"),
        (["convergence", "--preset", "sphere", "--grid", "64x64", "--levels", "4"], "--levels"),
    ],
    ids=["depth-too-deep", "depth-negative", "grid-too-small", "levels-40", "levels-4-at-64"],
)
def test_range_errors_name_the_flag(argv, flag, tmp_path, capsys):
    assert run(argv, tmp_path) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and flag in err
    if flag == "--levels":
        assert "coarsest level would fall below 16x16" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["convergence", "--preset", "sphere", "--levels", "2"], "--levels must be at least 3"),
        (["convergence", "--preset", "ellipsoid_rev", "--field", "vol", "--eps", "0.2,0.1"],
         "exactly one threshold"),
        (["convergence", "--file", "BALL", "--b", "2"], "are not declared by"),
        (["verify", "--preset", "sphere", "stray", "1"], "unrecognized argument 'stray'"),
        (["verify", "--preset", "sphere", "--eps", "0.1,abc"], "expects comma-separated numbers"),
        # at 16x16 without sub-lattices no node has |hring| below 1e-6; the
        # least, 4.2e-6, is a corner on the polar margin
        (["sweep", "--preset", "ellipsoid_rev", "--a", "1", "--b", "2", "--grid", "16x16",
          "--depth", "0", "--eps", "0.4,1e-6"],
         "no nodes fall in the sublevel region at eps=1e-06"),
    ],
    ids=["two-levels", "vol-two-thresholds", "undeclared-param", "stray-argument",
         "non-numeric-eps", "sweep-empty-region"],
)
def test_input_errors_exit_two_with_their_message(argv, message, tmp_path, capsys):
    path = tmp_path / "ball.ini"
    path.write_text(SQUASHED_BALL)
    out = tmp_path / "out"
    assert run([str(path) if x == "BALL" else x for x in argv], out) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not out.exists()


def test_missing_surface_selector(tmp_path, capsys):
    assert run(["verify", "--eps", "0.5"], tmp_path) == 2
    assert "--preset or --file" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, eps",
    [
        ("verify", "0.5,,0.1"),
        ("verify", ","),
        ("verify", "0.5,0.1,"),
        ("verify", ""),
        ("sweep", "0.4,,0.1"),
        ("sweep", ""),
        ("convergence", "0.05,"),
    ],
    ids=["verify-inner", "verify-comma", "verify-trailing", "verify-blank", "sweep-inner",
         "sweep-blank", "convergence-trailing"],
)
def test_empty_eps_entry_is_an_input_error(command, eps, tmp_path, capsys):
    # a typo must not shorten the ladder the report records
    preset = "ellipsoid_rev" if command == "sweep" else "sphere"
    argv = [command, "--preset", preset, "--eps", eps] + SMALL
    if command == "convergence":
        argv += ["--field", "vol"]
    assert run(argv, tmp_path) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--eps" in err and "empty entry" in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "--preset", "sphere", "--eps=nan"], "threshold nan rejected"),
        (["verify", "--preset", "sphere", "--eps=-0.1"], "threshold -0.1 rejected"),
        (["verify", "--preset", "sphere", "--eps=inf"], "threshold inf rejected"),
        (["verify", "--preset", "sphere", "--eps=0.1,0.5"], "strictly decreasing"),
        (["sweep", "--preset", "ellipsoid_rev", "--eps=0.1,0.5"], "strictly decreasing"),
        (["sweep", "--preset", "ellipsoid_rev", "--eps=1.5"], "threshold 1.5 rejected"),
        (["convergence", "--preset", "sphere", "--field", "vol", "--eps=-1"],
         "needs a positive threshold"),
    ],
    ids=["verify-nan", "verify-negative", "verify-inf", "verify-increasing",
         "sweep-increasing", "sweep-above-one", "convergence-negative"],
)
def test_out_of_range_eps_names_the_flag(argv, message, tmp_path, capsys):
    assert run(argv + SMALL, tmp_path) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --eps: ") and message in err
    assert not list(tmp_path.iterdir())


def test_infinite_eps_for_sublevel_convergence_names_the_flag(tmp_path, capsys):
    # an infinite threshold would make the region the whole surface and
    # report its area as the sublevel volume
    argv = ["convergence", "--preset", "ellipsoid_rev", "--field", "vol", "--eps=inf",
            "--grid", "64x64"]
    assert run(argv, tmp_path) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --eps: ") and "finite threshold" in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("field", ["area", "total_R"])
def test_eps_without_sublevel_field_is_an_input_error(field, tmp_path, capsys):
    # a whole-surface field ignores the threshold, so the report must not
    # record one
    argv = ["convergence", "--preset", "sphere", "--field", field, "--eps", "0.1",
            "--grid", "64x64"]
    assert run(argv, tmp_path) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --eps needs --field vol")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["identities", "verify", "sweep", "convergence"])
def test_negative_seed_names_the_flag(command, tmp_path, capsys):
    argv = [command, "--preset", "sphere", "--seed", "-1"] + SMALL
    assert run(argv, tmp_path) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--seed" in err
    assert not list(tmp_path.iterdir())


def test_seed_zero_is_accepted(tmp_path):
    assert run(["identities", "--preset", "sphere", "--n", "5", "--seed", "0"], tmp_path) == 0
    assert read_json(tmp_path, "identities")["config"]["seed"] == 0


def test_an_override_is_not_read_as_the_option_it_prefixes(tmp_path):
    # options are never abbreviated: --s sets the file's parameter s, and
    # the seed keeps its default (--s was taken as --seed)
    path = tmp_path / "torus.ini"
    path.write_text("[surface]\nname = torus_s\nx = (2 + s*cos(u))*cos(v)\n"
                    "y = (2 + s*cos(u))*sin(v)\nz = s*sin(u)\nu_range = 0, 2*pi\n"
                    "v_range = 0, 2*pi\nperiodic_u = true\nperiodic_v = true\nclosed = true\n"
                    "\n[params]\ns = 1\n")
    assert run(["identities", "--file", str(path), "--s", "0.5", "--n", "20"], tmp_path) == 0
    payload = read_json(tmp_path, "identities")
    assert payload["surface"]["params"] == {"s": 0.5}
    assert payload["config"]["seed"] == cli.DEFAULT_SEED
