import json
import math
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from umbilic import expressions as ex
from umbilic import geometry
from umbilic import quadrature as q
from umbilic import tape
from umbilic.errors import SingularEvaluationError
from umbilic.geometry import classification_values, point_geometry
from umbilic.surfaces import POLAR_MARGIN, interior_axes, preset
from oracles import revolution_integrals
from tests.test_geometry import flat_nodes, plane_spec


def area_field(pg):
    return 1.0


def classified(spec, us, vs):
    """`classification_values` on the node set, in `_chunked`'s batches."""
    return q._chunked(lambda u, v: classification_values(spec, u, v), us, vs)


def r_field(pg):
    return pg.R


# -- validation -----------------------------------------------------------------


def test_gridspec_validation():
    q.GridSpec(16, 16, 0)
    q.GridSpec(512, 512, 12)
    with pytest.raises(ValueError):
        q.GridSpec(8, 64)
    with pytest.raises(ValueError):
        q.GridSpec(64, 15)
    with pytest.raises(ValueError):
        q.GridSpec(64, 64, 13)
    with pytest.raises(ValueError):
        q.GridSpec(64, 64, -1)


def test_region_validation():
    q.sublevel(0.3)
    with pytest.raises(ValueError):
        q.Region("between", 0.5)
    with pytest.raises(ValueError):
        q.Region("all", 0.5)
    with pytest.raises(ValueError):
        q.sublevel(0.0)
    with pytest.raises(ValueError):
        q.Region("sublevel")


def test_region_rejects_a_non_finite_threshold():
    # an infinite threshold would make the region the whole surface
    with pytest.raises(ValueError, match="finite"):
        q.sublevel(math.inf)
    with pytest.raises(ValueError):
        q.Region("sublevel", math.nan)


def test_eps_list_validation():
    ell = preset("ellipsoid_rev")
    g = q.GridSpec(16, 16, 0)
    with pytest.raises(ValueError):
        q.region_integrals(ell, [], g)
    with pytest.raises(ValueError):
        q.region_integrals(ell, [1.5], g)
    with pytest.raises(ValueError):
        q.region_integrals(ell, [0.5, -0.1], g)
    with pytest.raises(ValueError):
        q.region_integrals(ell, [0.1, 0.5], g)
    with pytest.raises(ValueError):
        q.region_integrals(ell, [0.5, 0.5], g)


def test_convergence_input_validation():
    sph = preset("sphere")
    with pytest.raises(ValueError, match="at least 3"):
        q.convergence_study(sph, area_field, q.ALL, q.GridSpec(32, 32), 2)
    with pytest.raises(ValueError, match="not divisible by 4"):
        q.convergence_study(sph, area_field, q.ALL, q.GridSpec(64, 66), 3)
    with pytest.raises(ValueError, match="below 16x16"):
        q.convergence_study(sph, area_field, q.ALL, q.GridSpec(48, 48), 3)


@pytest.mark.parametrize("eps_values", [(), (0.1,)], ids=["whole", "sublevel"])
def test_ladder_pass_rejects_a_ladder_that_does_not_double(eps_values):
    # 66 = 4 * 16 + 2: the levels would be 16, 33 and 66 cells, not a
    # doubling ladder, and the coarse lattices would not be G's
    ell = preset("ellipsoid_rev")
    with pytest.raises(ValueError, match=r"cannot end at 66x66: the sides are not divisible by 4"):
        q._ladder_pass(ell, q.GridSpec(66, 66, 2), (q.AREA,), eps_values, 3)
    # a ladder whose coarsest level would fall below MIN_CELLS is refused too
    with pytest.raises(ValueError, match=r"coarsest level would fall below 16x16"):
        q._ladder_pass(ell, q.GridSpec(64, 64, 2), (q.AREA,), eps_values, 4)


def test_chunked_gathers_batches_in_order():
    # per-node outputs come back whole, per-batch outputs one per batch,
    # including a short last batch
    n = 2 * q.CHUNK + 3
    us, vs = np.arange(n, dtype=float), -np.arange(n, dtype=float)
    top, both = q._chunked(lambda u, v: (np.max(u, keepdims=True), u - v), us, vs)
    assert top.tolist() == [q.CHUNK - 1, 2 * q.CHUNK - 1, n - 1]
    assert np.array_equal(both, 2.0 * us)


@pytest.mark.parametrize("rows, width", [
    (70, 513),  # 31 rows per batch, which does not fill CHUNK, and a last partial batch
    (3, q.CHUNK + 5),  # a row wider than CHUNK: one row per batch
    (4, 100),  # a single batch
])
def test_chunked_gathers_lattice_rows_in_order(rows, width):
    # a column of u and a row of v run in batches of whole rows and gather
    # row-major; a per-batch output (the maximum) gathers one per batch
    us, vs = np.arange(rows, dtype=float)[:, None], np.arange(width, dtype=float)[None, :]
    batches = []

    def kernel(u, v):
        batches.append(u.shape)
        return np.max(u, keepdims=True), u * width + v

    top, index = q._chunked(kernel, us, vs)
    per = max(1, q.CHUNK // width)
    starts = range(0, rows, per)
    assert batches == [(min(per, rows - i), 1) for i in starts]
    assert top.tolist() == [min(i + per, rows) - 1 for i in starts]
    assert index.shape == (rows * width,)
    assert np.array_equal(index, np.arange(rows * width, dtype=float))


def test_chunked_cuts_masked_nodes_into_slices(monkeypatch):
    # `_masked`'s flat node arrays run in CHUNK-node batches, each the next
    # slice of both arrays, and gather in order to the bits of the lattice
    # at those nodes
    spec = preset("ellipsoid_rev", {"a": 1.0, "b": 2.0})
    us, vs = q._lattice(spec, q.GridSpec(16, 16), centers=True)
    mask = np.zeros(256, dtype=bool)
    mask[np.random.default_rng(0).permutation(256)[:127]] = True
    mask = mask.reshape(16, 16)
    u, v = q._masked(us, vs, mask)
    want = classified(spec, us, vs)
    monkeypatch.setattr(q, "CHUNK", 40)
    batches = []

    def kernel(a, b):
        batches.append((a, b))
        return classification_values(spec, a, b)

    got = q._chunked(kernel, u, v)
    assert [a.size for a, _ in batches] == [40, 40, 40, 7]
    for i, x in enumerate((u, v)):
        assert np.array_equal(np.concatenate([batch[i] for batch in batches]), x)
    for x, y in zip(got, want):
        assert x.tobytes() == y[mask.ravel()].tobytes()


@pytest.mark.parametrize("us, vs", [
    (np.empty(0), np.empty(0)),  # flat node arrays
    (np.empty((0, 1)), np.arange(3.0)[None, :]),  # a lattice without rows
    (np.arange(3.0)[:, None], np.empty((1, 0))),  # a lattice without columns
    q._masked(np.arange(3.0)[:, None], np.arange(2.0)[None, :], np.zeros((3, 2), dtype=bool)),
], ids=["flat", "no-rows", "no-columns", "masked"])
def test_chunked_refuses_an_empty_node_set(us, vs):
    # the batch loop needs a node: it says so before running the kernel
    # instead of failing after a loop that made no output
    with pytest.raises(ValueError, match="_chunked needs at least one node"):
        q._chunked(lambda u, v: (u + v,), us, vs)


def test_chunked_binds_a_tape_once_per_loop(monkeypatch):
    # five equal batches replay one binding (the first batch also records
    # the tape), and none is alive after the loop, also when a batch raises
    spec = preset("ellipsoid_rev", {"a": 1.0, "b": 2.0})
    us, vs = flat_nodes(*q._lattice(spec, q.GridSpec(16, 20), centers=True))
    binds = []
    bind = tape.Tape._bind
    monkeypatch.setattr(tape.Tape, "_bind", lambda self, shapes: binds.append(shapes) or bind(self, shapes))
    monkeypatch.setattr(q, "CHUNK", us.size // 5)
    got = classified(spec, us, vs)
    assert binds == [((64,), (64,))]
    assert tape._loop is None
    monkeypatch.setattr(q, "CHUNK", us.size)
    for x, y in zip(got, classified(spec, us, vs)):
        assert x.tobytes() == y.tobytes()

    def kernel(u, v):
        classification_values(spec, u, v)
        raise RuntimeError("a batch that raises")

    with pytest.raises(RuntimeError):
        q._chunked(kernel, us, vs)
    assert tape._loop is None


def test_a_single_batch_result_outlives_later_passes():
    # a single batch returns the binding's own buffers, which leaving the
    # loop gives to the caller: later passes on the spec bind anew
    spec = preset("ellipsoid_rev", {"a": 1.0, "b": 2.0})
    us, vs = flat_nodes(*q._lattice(spec, q.GridSpec(16, 16), centers=True))
    got = classified(spec, us, vs)
    kept = [np.array(x) for x in got]
    classified(spec, us + 0.01, vs)
    q.integrate(spec, q.AREA, q.GridSpec(16, 16, 0))
    for x, y in zip(got, kept):
        assert x.tobytes() == y.tobytes()


# -- whole-surface integrals -------------------------------------------------------


def test_sphere_area():
    # [TRIVIAL] area of the unit sphere is 4 pi; the polar margin strips
    # remove ~5e-7 of it
    area = q.integrate(preset("sphere"), area_field, q.GridSpec(512, 512))
    assert area == pytest.approx(4 * math.pi, rel=1e-4)


def test_torus_area_and_total_curvature():
    # [DERIVED] torus area = 4 pi^2 R r; total curvature 0 by topology
    tor = preset("torus")
    g = q.GridSpec(256, 256)
    area = q.integrate(tor, area_field, g)
    assert area == pytest.approx(4 * math.pi**2 * 2.0, rel=1e-10)
    total_r = q.integrate(tor, r_field, g)
    assert abs(total_r) < 1e-3 * area


def test_scaling_and_linearity():
    # [TRIVIAL] integral of 3 = 3 area; integral of -R = -total_R
    sph = preset("sphere")
    g = q.GridSpec(32, 32)
    a = q.integrate(sph, area_field, g)
    assert q.integrate(sph, lambda pg: 3.0, g) == pytest.approx(3 * a, rel=1e-13)
    tr = q.integrate(sph, r_field, g)
    assert q.integrate(sph, lambda pg: -pg.R, g) == pytest.approx(-tr, rel=1e-13)


def test_order2_fields_integrate_like_bare_callables():
    # TOTAL_R and AREA run on order-2 geometry; a bare callable gets order 3;
    # the integrals agree exactly, on the whole surface and in a sublevel set
    ell = preset("ellipsoid_rev")
    g = q.GridSpec(32, 32, 4)
    assert q.TOTAL_R.order == 2 and q.AREA.order == 2
    assert q.integrate(ell, q.TOTAL_R, g) == q.integrate(ell, r_field, g)
    assert q.integrate(ell, q.AREA, g) == q.integrate(ell, area_field, g)
    sub = q.sublevel(0.25)
    assert q.integrate(ell, q.AREA, g, sub) == q.integrate(ell, area_field, g, sub)


@pytest.mark.parametrize("name", ["ellipsoid_rev", "ellipsoid_tri"])
def test_thresholded_whole_sums_equal_the_whole_surface_pass(name):
    # with thresholds the whole-surface sums come from order-2 geometry at
    # every midpoint; they equal the unthresholded pass bit for bit
    spec, g = preset(name), q.GridSpec(64, 64, 4)
    row = q.region_integrals(spec, (0.5, 0.1), g)[0]
    assert row.area == q.integrate(spec, q.AREA, g)
    assert row.total_R == q.integrate(spec, q.TOTAL_R, g)


def test_empty_inside_set_makes_no_order3_call(monkeypatch):
    # |hring| >= ~0.47 on the torus (R=2, r=1): no midpoint lies inside
    # either region, so the fields' own order is never evaluated
    tor, g = preset("torus"), q.GridSpec(64, 64, 4)
    orders = []
    real = q.geometry._kernel

    def recording(spec, key, order, fn, u, v, *cols):
        orders.append(order)
        return real(spec, key, order, fn, u, v, *cols)

    monkeypatch.setattr(q.geometry, "_kernel", recording)
    rows = q.region_integrals(tor, (0.4, 0.1), g)
    assert set(orders) == {2}
    for row in rows:
        assert (row.vol_omega_c, row.I_grad_hring, row.I_grad_H, row.I_grad_H_plain) == (0, 0, 0, 0)
        assert row.area == pytest.approx(4 * math.pi**2 * 2.0, rel=1e-10)


@pytest.mark.parametrize(
    "fn, error",
    [
        (lambda pg: pg.gradH_norm2, ValueError),
        (lambda pg: pg.gradH_norm2 * pg.hring_norm2, TypeError),
    ],
    ids=["bare-read", "product"],
)
def test_field_reading_above_its_order_raises(fn, error):
    # an order-2 field gets no gradients: it must fail, not integrate nan
    with pytest.raises(error):
        q.integrate(preset("sphere"), q.Field(fn, order=2), q.GridSpec(16, 16))


def test_field_reading_a_stacked_tensor_runs_without_a_tape(monkeypatch):
    # the stacked PointGeometry arrays are not on any tape: the recorder
    # refuses such a field, and its kernel runs on stage one replayed from
    # the "forms" kernel, recorded once, with the public path's values
    spec, g = preset("ellipsoid_rev"), q.GridSpec(32, 32)
    field = q.Field(lambda pg: pg.g[..., 0, 0] + pg.ginv[..., 1, 1], order=2)
    records, replays = [], []
    real_record, real_replay = tape.record, tape.Tape.replay

    def record(fn, *inputs):
        records.append(real_record(fn, *inputs))
        return records[-1]

    def replay(self, *inputs):
        replays.append(self)
        return real_replay(self, *inputs)

    monkeypatch.setattr(tape, "record", record)
    monkeypatch.setattr(tape.Tape, "replay", replay)
    got = q.integrate(spec, field, g)
    forms = spec.tapes[2, "forms"]
    assert len(spec.tapes) == 2 and None in spec.tapes.values()
    assert isinstance(forms, tape.Tape) and records == [None, forms] and replays == [forms]
    pg = point_geometry(spec, *q._lattice(spec, g, centers=True), 2)
    _, _, du, dv = q._axes(spec, g)
    assert got == float(np.sum(field(pg) * pg.sqrt_detg)) * (du * dv)


# read by test_a_field_tape_follows_the_values_it_captures
_WEIGHT = 1.0


def test_a_field_tape_follows_the_values_it_captures():
    # a field's tape is keyed by its code and the values it captures: a
    # changed global or closure value records anew, and equal fresh lambdas
    # share one tape
    global _WEIGHT
    spec, g = preset("sphere"), q.GridSpec(32, 32, 0)
    area = q.integrate(spec, q.AREA, g)
    field = q.Field(lambda pg: _WEIGHT + 0 * pg.H, order=2)
    assert q.integrate(spec, field, g) == area
    try:
        _WEIGHT = 2.0
        assert q.integrate(spec, field, g) == 2.0 * area
    finally:
        _WEIGHT = 1.0

    def scaled(k):
        return q.Field(lambda pg: k + 0 * pg.H, order=2)

    before = len(spec.tapes)
    assert [q.integrate(spec, scaled(1.0), g) for _ in range(10)] == [area] * 10
    assert len(spec.tapes) == before + 1
    # 2 and 2.0 are other constants: their own tapes, their own values
    assert q.integrate(spec, scaled(2), g) == q.integrate(spec, scaled(2.0), g) == 2.0 * area
    assert len(spec.tapes) == before + 3


@pytest.mark.parametrize("order", [0, 1, 5])
def test_field_names_a_jet_order_geometry_does_not_evaluate(order):
    with pytest.raises(ValueError, match=f"jet order must be 2, 3 or 4, got {order}$"):
        q.Field(lambda pg: pg.R, order=order)


def test_mixed_fields_evaluate_at_the_highest_order():
    # one order-3 field lifts the whole pass, so order-2 fields beside it
    # still see their values
    sph = preset("sphere")
    g = q.GridSpec(16, 16, 2)
    rows = q.region_integrals(sph, [0.5], g)
    assert rows[0].area == q.integrate(sph, q.AREA, g)
    assert rows[0].total_R == q.integrate(sph, q.TOTAL_R, g)


def test_singular_node_aborts_with_location():
    bad = replace(
        plane_spec(),
        components=tuple(ex.parse(s) for s in ("sqrt(u)", "v", "0")),
    )
    with pytest.raises(SingularEvaluationError) as exc:
        q.integrate(bad, area_field, q.GridSpec(16, 16))
    assert exc.value.point is not None
    assert exc.value.point[0] < 0  # the offending u coordinate


# -- sublevel regions ---------------------------------------------------------------


def test_torus_sublevel_empty_is_exact_zero():
    # [DERIVED] min |hring| on torus(2,1) is sqrt(2)/3 ~ 0.471 > 0.1
    tor = preset("torus")
    vol = q.integrate(tor, area_field, q.GridSpec(64, 64, 6), q.sublevel(0.1))
    assert vol == 0.0


def test_sphere_sublevel_is_everything():
    # [TRIVIAL] the sphere is totally umbilic: |hring| = 0 < eps everywhere,
    # so every cell lies inside and takes the inside rule, fourth order,
    # which the whole-surface midpoint sum (second order) trails: errors
    # -6.3e-6 and +1.3e-3 here
    sph = preset("sphere")
    g = q.GridSpec(64, 64, 4)
    whole = q.integrate(sph, area_field, g)
    region = q.integrate(sph, area_field, g, q.sublevel(0.05))
    assert abs(region - 4 * math.pi) < 1e-5 < 1e-3 < abs(whole - 4 * math.pi)


def _outside_r(spec, g, eps, monkeypatch):
    """Integral of R over |hring| >= eps, by the pass itself: with |hring|
    read as 1 + eps - |hring| at every node, the sublevel region at 1 is the
    complement, and each cell's level is the negated level (valid while
    sup |hring| <= 1 + eps)."""
    real_full = q._full
    flip = lambda n2: (1.0 + eps - np.sqrt(np.maximum(n2, 0.0))) ** 2

    def full(*args, classify=False, **kwargs):
        out = real_full(*args, classify=classify, **kwargs)
        return (out[0], flip(out[1]), *out[2:]) if classify else out

    with monkeypatch.context() as m:
        m.setattr(q, "_full", full)
        return q.integrate(spec, r_field, g, q.sublevel(1.0))


def _additivity_error(depth, monkeypatch):
    """The relative gap between the sublevel(0.25) and |hring| >= 0.25 sums
    of R on ellipsoid_rev (sup |hring| 0.544) and the sum over every cell
    by the inside rule, the region at eps = 1; with the cut cells left out
    (their rule giving 0), the gap is 3.9e-2 at depth 0."""
    ell = preset("ellipsoid_rev")
    g = q.GridSpec(64, 64, depth)
    every = q.integrate(ell, r_field, g, q.sublevel(1.0))
    lo = q.integrate(ell, r_field, g, q.sublevel(0.25))
    hi = _outside_r(ell, g, 0.25, monkeypatch)
    assert 0.0 < lo < hi
    return abs(lo + hi - every) / every


def test_additivity_no_refinement(monkeypatch):
    # the region and its complement partition the cells: the uncut ones
    # take the inside rule on one side, the cut ones split their four
    # triangles, which differs from the inside rule by O(h^2) along the
    # interface only: 5.2e-5 here
    assert _additivity_error(0, monkeypatch) < 1e-4


def test_additivity_with_refinement(monkeypatch):
    # 2 x 2 sub-lattices at the interface shrink that difference: 4.3e-6
    assert _additivity_error(6, monkeypatch) < 1e-5


def lattice_nodes(spec, g, *, centers):
    """A `q._lattice` pair as the flat node arrays of its nodes, row-major."""
    return flat_nodes(*q._lattice(spec, g, centers=centers))


def test_inside_rule_integrates_a_cubic_exactly():
    # (T + 2M)/3 over the cell [0, 1]^2: the mean of every monomial of degree
    # at most 3, to roundoff; x^2 y^2 (degree 4) is off, by its h^4 term
    corners = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]
    for a in range(4):
        for b in range(4 - a):
            got = q._inside_rule(*(x**a * y**b for x, y in corners), 0.5 ** (a + b))
            assert got == pytest.approx(1.0 / ((a + 1) * (b + 1)), rel=1e-15, abs=1e-15), (a, b)
    assert q._inside_rule(0.0, 0.0, 0.0, 1.0, 1 / 16) != pytest.approx(1 / 9)


def _clipped_integral(points, level, density):
    """The integral of a linear density over the part of a triangle where a
    linear level is negative, by clipping the triangle to that half-plane
    and taking the polygon's area times the density at its centroid."""
    poly = []
    for k in range(3):
        p, r = points[k], points[(k + 1) % 3]
        lp, lr = level(p), level(r)
        if lp < 0:
            poly.append(p)
        if (lp < 0) != (lr < 0):
            t = lp / (lp - lr)
            poly.append(p + t * (r - p))
    if len(poly) < 3:
        return 0.0
    x, y = np.array(poly).T
    cross = x * np.roll(y, -1) - np.roll(x, -1) * y
    area = cross.sum() / 2.0
    centroid = np.array([((a + np.roll(a, -1)) * cross).sum() for a in (x, y)]) / (6.0 * area)
    return abs(area) * density(centroid)


@pytest.mark.parametrize("inside", [0, 1, 2, 3])
def test_cut_rule_integrates_linear_level_and_density_exactly(inside):
    # on a triangle, the cut rule's value times the triangle's area is the
    # integral of a linear density over the part where a linear level is
    # negative, with 0, 1, 2 or 3 vertices inside; the levels -l give the
    # complement (no vertex on the zero line)
    rng = np.random.default_rng(inside)
    for _ in range(20):
        points = rng.uniform(-1.0, 1.0, (3, 2))
        (ux, uy), (vx, vy) = points[1] - points[0], points[2] - points[0]
        area = abs(ux * vy - uy * vx) / 2.0
        grad, density_grad = rng.normal(size=2), rng.normal(size=2)
        s = np.sort(points @ grad)
        shift = s[0] - 1.0 if inside == 0 else s[2] + 1.0 if inside == 3 else (
            s[inside - 1] + s[inside]) / 2.0
        level = lambda p: p @ grad - shift
        density = lambda p: 2.0 + p @ density_grad
        levels = np.array([[level(p)] for p in points])
        assert np.count_nonzero(levels < 0) == inside
        dens = np.array([[density(p)] for p in points])
        zero = np.zeros((3, 1))
        (got,) = q._cut_rule(q._cut(levels, zero), dens, zero) * area
        assert got == pytest.approx(_clipped_integral(points, level, density), rel=1e-12, abs=1e-15)
        (rest,) = q._cut_rule(q._cut(-levels, zero), dens, zero) * area
        assert got + rest == pytest.approx(area * dens.mean(), rel=1e-12)


def test_crossing_is_the_root_of_the_quadratic_along_the_edge():
    # with half the second difference along the edge, the crossing is the
    # quadratic's root in [0, 1]; without it, the secant root
    for lp, root, c in [(-0.3, 0.4, 0.2), (0.5, 0.7, -0.3), (-1.0, 0.05, 0.9), (0.2, 0.99, 0.1)]:
        lq = c + (-lp / root - c * root) + lp  # the quadratic lp + b t + c t^2 through the root
        assert (lp < 0) != (lq < 0)
        lp, lq = np.array(lp), np.array(lq)
        assert q._crossing(lp, lq, np.array(c)) == pytest.approx(root, rel=1e-13)
        assert q._crossing(lp, lq, np.array(0.0)) == pytest.approx(lp / (lp - lq))


@pytest.mark.parametrize("name, eps, bent", [
    ("ellipsoid_tri", 0.01, True), ("ellipsoid_tri", 0.1, False), ("ellipsoid_rev", 0.1, False),
])
def test_bent_cells_lie_at_a_generic_umbilic(name, eps, bent):
    # |hring| is a cone at a generic umbilic and smooth elsewhere: at 256^2
    # every straddling cell of ellipsoid_tri's eps 0.01 region, a few cells
    # across around each umbilic, is bent (48 cells); none of its eps 0.1
    # interface, farther out, and none of ellipsoid_rev's
    g = q.GridSpec(256, 256, 6)
    spec = preset(name)
    corner = np.sqrt(classification_values(spec, *q._lattice(spec, g, centers=False))[0])
    mid = np.sqrt(classification_values(spec, *q._lattice(spec, g, centers=True))[0])
    corners, mid = q._quads(corner.reshape(g.nu + 1, g.nv + 1)), mid.reshape(g.nu, g.nv)
    _, straddle = q._cells(q._extremes(corners, mid), eps)
    assert straddle.any()
    assert (q._bent(corners, mid)[straddle] == bent).all()


@pytest.mark.parametrize("order", [2, 3])
def test_a_sublattice_replays_bit_identically_to_its_nodes_flat(order):
    # a straddling cell's m x m sub-lattice, a broadcast pair (K, n, 1) and
    # (K, 1, n), replays to the bits of the same nodes given flat, in one
    # batch and in several (m = 16 on 80 cells spans two); its first corner
    # is the cell's lower corner from the lattice, bit for bit
    spec, g = preset("ellipsoid_tri"), q.GridSpec(32, 32)
    fields = q._REGION_FIELDS if order == 3 else (q.AREA, q.TOTAL_R)
    ug, vg = q._lattice(spec, g, centers=False)
    for m, count in ((1, 3), (2, 3), (16, 80)):
        cells = np.zeros((g.nu, g.nv), dtype=bool)
        cells.ravel()[np.linspace(0, cells.size - 1, count).astype(int)] = True
        iu, iv = np.nonzero(cells)
        for us, vs in q._sublattice(spec, g, cells, m):
            n = us.shape[1]
            assert us.shape == (count, n, 1) and vs.shape == (count, 1, n)
            got = q._full(spec, fields, us, vs, classify=True)
            want = q._full(spec, fields, *(np.ravel(x) for x in np.broadcast_arrays(us, vs)),
                           classify=True)
            for a, b in zip(got[1:], want[1:]):
                assert a.tobytes() == b.tobytes(), (order, m)
            assert np.max(got[0]) == np.max(want[0])
        corners, _ = q._sublattice(spec, g, cells, m)
        assert corners[0][:, 0, 0].tobytes() == ug[iu, 0].tobytes()
        assert corners[1][:, 0, 0].tobytes() == vg[0, iv].tobytes()


@pytest.mark.parametrize("name, eps", [("ellipsoid_tri", (0.4, 0.1)), ("graph_bump", (0.5, 0.2))])
def test_masked_node_sets_replay_bit_identically_to_the_lattice(name, eps, monkeypatch):
    # the inside cells' corners and the midpoints inside, as `_ladder_pass`
    # selects them, evaluate as flat node arrays to the bits of the lattice
    # replay at those nodes, a peak included. Neither region is a product of
    # rows and columns (graph_bump's is the complement of a disc)
    spec, peaks = preset(name), (lambda pg: pg.H,)
    masked, real = [], q._masked
    monkeypatch.setattr(q, "_masked",
                        lambda us, vs, mask: masked.append((us, vs, mask)) or real(us, vs, mask))
    q._ladder_pass(spec, q.GridSpec(64, 64, 2), q._REGION_FIELDS, eps, peaks=peaks)
    assert [m.shape for _, _, m in masked] == [(65, 65), (64, 64)]
    for us, vs, mask in masked:
        got = q._full(spec, q._REGION_FIELDS, *real(us, vs, mask), classify=True, peaks=peaks)
        want = q._full(spec, q._REGION_FIELDS, us, vs, classify=True, peaks=peaks)
        assert len(got) == len(want)
        for a, b in zip(got[1:], want[1:]):
            assert a.tobytes() == b[mask.ravel()].tobytes()
        assert not np.array_equal(mask, np.outer(mask.any(1), mask.any(0)))


def _field_values(pg):
    """The _REGION_FIELDS at a PointGeometry batch, one row per field."""
    return np.array([np.broadcast_to(f(pg), pg.batch_shape) for f in q._REGION_FIELDS])


@pytest.mark.parametrize("name, eps_values", [
    ("ellipsoid_rev", (0.4, 0.2, 0.1)),
    ("ellipsoid_tri", (0.4, 0.1, 0.05)),
])
def test_region_sums_match_a_cell_by_cell_reference(name, eps_values):
    # the plain lattice (depth 0, m = 1) summed cell by cell from
    # point_geometry at its corners and midpoints: the inside rule where a
    # cell's five nodes lie inside, the cut rule on the four triangles of a
    # straddling cell, the curvature along each half-diagonal from the
    # opposite corner; H_sup is the max |H| over every corner and midpoint
    spec, g = preset(name), q.GridSpec(32, 32, 0)
    (got,) = q._ladder_pass(spec, g, q._REGION_FIELDS, eps_values)
    _, _, du, dv = q._axes(spec, g)
    corner = point_geometry(spec, *lattice_nodes(spec, g, centers=False))
    mid = point_geometry(spec, *lattice_nodes(spec, g, centers=True))
    fc = (_field_values(corner) * corner.sqrt_detg).reshape(-1, g.nu + 1, g.nv + 1)
    fm = (_field_values(mid) * mid.sqrt_detg).reshape(-1, g.nu, g.nv)
    hc = np.sqrt(np.maximum(corner.hring_norm2, 0.0)).reshape(g.nu + 1, g.nv + 1)
    hm = np.sqrt(np.maximum(mid.hring_norm2, 0.0)).reshape(g.nu, g.nv)
    cut = 0
    for eps, sums in zip(eps_values, got.region):
        want = np.zeros(len(q._REGION_FIELDS))
        for i in range(g.nu):
            for j in range(g.nv):
                ring = [(i, j), (i + 1, j), (i + 1, j + 1), (i, j + 1)]
                values = [np.append(fc[:, a, b], hc[a, b] - eps) for a, b in ring]
                centre = np.append(fm[:, i, j], hm[i, j] - eps)
                below = [x[-1] < 0 for x in (*values, centre)]
                if all(below):
                    want += (sum(values)[:-1] / 4.0 + 2.0 * centre[:-1]) / 3.0 * (du * dv)
                elif any(below):
                    cut += 1
                    for a in range(4):
                        b = (a + 1) % 4
                        tri = np.array([values[a], values[b], centre])
                        diag = [(values[x] + values[(x + 2) % 4]) / 2.0 - centre for x in (a, b)]
                        curve = np.array([np.zeros_like(centre), diag[1], diag[0]])
                        for k in range(len(want)):
                            (part,) = q._cut_rule(q._cut(tri[:, -1:], curve[:, -1:]),
                                                  tri[:, k : k + 1], curve[:, k : k + 1])
                            want[k] += part * (du * dv / 4.0)
        assert list(sums) == pytest.approx(want.tolist(), rel=1e-12, abs=1e-300)
    assert cut > 0
    assert got.h_sup == max(np.max(np.abs(corner.H)), np.max(np.abs(mid.H)))


# Ratchet on the sub-lattice nodes of region_integrals passes, per pass: a
# straddling cell takes (m + 1)^2 corners and m^2 midpoints, m = 2 at depth
# 6 where |hring| is smooth and 16 where it bends (a generic umbilic).
# Lower a bound when the pass needs fewer nodes; never raise one.
SUB_NODE_BOUNDS = {
    ("ellipsoid_rev", (0.4, 0.2, 0.1, 0.05)): 13312,
    ("ellipsoid_tri", (0.4, 0.1, 0.05)): 80056,
}


@pytest.mark.parametrize("name, eps_values", sorted(SUB_NODE_BOUNDS))
def test_sub_lattice_nodes_stay_bounded(name, eps_values, monkeypatch):
    spec, g = preset(name), q.GridSpec(128, 128, 6)
    counts = {}
    real = q._sublattice

    def counting(spec, g, cells, m):
        nodes = real(spec, g, cells, m)
        counts[m] = counts.get(m, 0) + sum(np.broadcast(*pair).size for pair in nodes)
        return nodes

    monkeypatch.setattr(q, "_sublattice", counting)
    q.region_integrals(spec, eps_values, g)
    assert set(counts) <= {2, 16}
    assert sum(counts.values()) <= SUB_NODE_BOUNDS[name, eps_values], counts


@pytest.mark.parametrize("depth, sizes", [
    (0, [1, 1]), (1, [2, 2]), (2, [2, 4]), (3, [2, 8]), (4, [2, 16]), (12, [2, 16]),
])
def test_depth_sets_the_sub_lattice_size(depth, sizes, monkeypatch):
    # ellipsoid_tri at eps 0.02 has straddling cells where |hring| bends (at
    # its umbilics) and where it is smooth (the eps 0.4 interface): the
    # smooth group takes m = 2^min(depth, 1), the bent group 2^min(depth, 4)
    ms = []
    real = q._sublattice

    def recording(spec, g, cells, m):
        ms.append(m)
        return real(spec, g, cells, m)

    monkeypatch.setattr(q, "_sublattice", recording)
    q.region_integrals(preset("ellipsoid_tri"), (0.4, 0.02), q.GridSpec(64, 64, depth))
    assert ms == sizes


@pytest.mark.parametrize("m", [1, 2, 4, 16])
def test_sub_lattices_are_nodes_of_the_refined_lattice(m):
    # the corners and midpoints of cell (i, j)'s m x m sub-lattice are, bit
    # for bit, the nodes (i m + a, j m + b) of the lattice of the grid
    # refined m times (m a power of 2, so du / m is exact); so neighbouring
    # cells share the nodes of their common edge
    spec, g = preset("ellipsoid_tri"), q.GridSpec(16, 24)
    cells = np.zeros((g.nu, g.nv), dtype=bool)
    cells[3:5, 7:9] = cells[15, 0] = True
    iu, iv = np.nonzero(cells)
    for (us, vs), centers in zip(q._sublattice(spec, g, cells, m), (False, True)):
        fine_u, fine_v = interior_axes(spec, g.nu * m, g.nv * m, centers=centers)
        n = us.shape[1]
        want_u = fine_u[iu[:, None] * m + np.arange(n)]
        want_v = fine_v[iv[:, None] * m + np.arange(n)]
        assert us[:, :, 0].tobytes() == want_u.tobytes()
        assert vs[:, 0, :].tobytes() == want_v.tobytes()
    (cu, cv), _ = q._sublattice(spec, g, cells, m)
    assert cu[0, -1, 0] == cu[2, 0, 0] and cv[0, 0, -1] == cv[1, 0, 0]


@pytest.mark.parametrize("name", ["ellipsoid_rev", "ellipsoid_tri"])
def test_thresholds_share_the_order3_calls(name, monkeypatch):
    # one pass serves every threshold: the corners and the midpoints at
    # order 2, then at order 3 the inside cells' corners, the inside midpoints and the
    # corners and midpoints of the smooth sub-lattice group; thresholds
    # down to 0.2 cross no bent cell, so four of them take the calls of one
    calls = []
    real = q._full

    def recording(spec, fields, us, vs, **kwargs):
        calls.append(q._order((*fields, *kwargs.get("peaks", ()))))
        return real(spec, fields, us, vs, **kwargs)

    monkeypatch.setattr(q, "_full", recording)
    for eps_values in ((0.4,), (0.4, 0.3, 0.25, 0.2)):
        calls.clear()
        q.region_integrals(preset(name), eps_values, q.GridSpec(128, 128, 6))
        assert calls == [2, 2, 3, 3, 3, 3], eps_values


def test_ladder_evaluates_the_corner_lattice_once(monkeypatch):
    # every level of a ladder reads G's order-2 corners at its stride, and a
    # coarse level its midpoints at offset 2^(k-1): one corner-kernel call
    # (|H| per node), of G's (nu + 1) x (nv + 1) corners, and one of G's nu
    # x nv midpoints, however many levels
    g = q.GridSpec(128, 128, 4)
    calls = []
    real = q._full

    def recording(spec, fields, us, vs, **kwargs):
        if q._order((*fields, *kwargs.get("peaks", ()))) == 2:
            calls.append((np.broadcast(us, vs).size, kwargs.get("node_h", False)))
        return real(spec, fields, us, vs, **kwargs)

    monkeypatch.setattr(q, "_full", recording)
    for levels in (1, 3):
        calls.clear()
        q._ladder_pass(preset("ellipsoid_rev"), g, q._REGION_FIELDS, (0.5, 0.1), levels)
        assert calls == [((g.nu + 1) * (g.nv + 1), True), (g.nu * g.nv, False)], levels


def _order3_batches(spec, g, eps_values, levels, monkeypatch):
    """(ndim of u, (n, 2) array of its (u, v) nodes) per order-3 batch of
    the node kernel in a pass: 1 for a flat node set, 3 for a sub-lattice."""
    batches = []
    real = geometry._nodes

    def recording(spec, order, u, v, **kwargs):
        if order == 3:
            nodes = np.stack([np.ravel(x) for x in np.broadcast_arrays(u, v)], axis=1)
            batches.append((np.ndim(u), nodes))
        return real(spec, order, u, v, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(geometry, "_nodes", recording)
        q._ladder_pass(spec, g, q._REGION_FIELDS, eps_values, levels)
    return batches


@pytest.mark.parametrize("eps_values", [(0.5, 0.25, 0.1), (0.25, 0.1)])
def test_coarse_levels_evaluate_no_order3_node_of_their_own(eps_values, monkeypatch):
    # ellipsoid_rev(1, 1.5) at 128^2, depth 4: no cut cell bends, so every
    # order-3 node the coarse levels read is one of G's corners or
    # midpoints. A 3-level pass evaluates each node of its two flat node
    # sets once, those of the one-level pass over G among them, and makes
    # no order-3 call after G's: its sub-lattice calls are G's own, which
    # share nodes with the flat sets as the one-level pass's do
    spec, g = preset("ellipsoid_rev", {"a": 1.0, "b": 1.5}), q.GridSpec(128, 128, 4)
    one, three = (_order3_batches(spec, g, eps_values, levels, monkeypatch) for levels in (1, 3))
    flat = [np.concatenate([x for d, x in batches if d == 1]) for batches in (one, three)]
    subs = [[x.tobytes() for d, x in batches if d > 1] for batches in (one, three)]
    assert [d for d, _ in three] == sorted(d for d, _ in three)
    assert len(np.unique(flat[1], axis=0)) == len(flat[1])
    assert set(map(tuple, flat[0])) <= set(map(tuple, flat[1]))
    assert subs[1] == subs[0] and subs[0]


def test_coarse_bent_sub_lattices_are_still_evaluated(monkeypatch):
    # ellipsoid_tri at 128^2, depth 6: the coarse levels' bent cells take 16
    # x 16 sub-lattices, off G's nodes, evaluated after G's own; their 2 x 2
    # smooth ones are G's nodes, read
    calls = []
    real = q._sublattice

    def recording(spec, g, cells, m):
        calls.append((g.nu, m))
        return real(spec, g, cells, m)

    monkeypatch.setattr(q, "_sublattice", recording)
    q._ladder_pass(preset("ellipsoid_tri"), q.GridSpec(128, 128, 6), q._REGION_FIELDS,
                   (0.4, 0.1, 0.05), 3)
    assert calls == [(128, 2), (128, 16), (64, 16), (32, 16)]


def test_verify_pass_evaluates_each_order2_node_once(monkeypatch):
    # verify's pass at its defaults on ellipsoid_rev(1, 2), 512^2, depth 6:
    # G's corners and midpoints take every order-2 evaluation, each node
    # once (the coarse midpoints are G's corners), 263,169 + 262,144 of
    # them; the order-3 node sets take 264,400. The pass records two tapes
    spec = preset("ellipsoid_rev", {"a": 1.0, "b": 2.0})
    nodes = {2: [], 3: []}
    real = geometry._nodes

    def recording(spec, order, u, v, **kwargs):
        nodes[order].append(np.ravel(np.add(*np.broadcast_arrays(u, 1j * np.asarray(v)))))
        return real(spec, order, u, v, **kwargs)

    monkeypatch.setattr(geometry, "_nodes", recording)
    q._region_pass(spec, (0.5, 0.25, 0.1, 0.05), q.GridSpec(512, 512, 6), 3)
    order2, order3 = (np.concatenate(nodes[k]) for k in (2, 3))
    assert (order2.size, order3.size) == (525_313, 264_400)
    assert np.unique(order2).size == order2.size
    assert len(spec.tapes) == 2


@pytest.mark.parametrize("name, eps_values", [
    ("ellipsoid_tri", (0.4, 0.1, 0.01)), ("ellipsoid_rev", (0.5, 0.1)),
])
def test_bent_reads_the_straddling_cells_alone(name, eps_values, monkeypatch):
    # the bend test runs once per level, on the values of the cells that
    # straddle some threshold, and nowhere else
    g = q.GridSpec(128, 128, 6)
    spec = preset(name)
    sizes = []
    real = q._bent

    def recording(corners, mid):
        assert all(c.shape == mid.shape for c in corners)
        sizes.append(mid.size)
        return real(corners, mid)

    monkeypatch.setattr(q, "_bent", recording)
    q._ladder_pass(spec, g, q._REGION_FIELDS, eps_values, 3)
    want = []
    for k in range(3):
        gk = q.GridSpec(g.nu >> k, g.nv >> k, g.adaptive_depth)
        corner, mid = (np.sqrt(classified(spec, *q._lattice(spec, gk, centers=c))[0])
                       for c in (False, True))
        corners = q._quads(corner.reshape(gk.nu + 1, gk.nv + 1))
        extremes = q._extremes(corners, mid.reshape(gk.nu, gk.nv))
        want.append(int(np.count_nonzero(np.logical_or.reduce(
            [q._cells(extremes, eps)[1] for eps in eps_values]))))
    assert sizes == want and 0 < min(want) and max(want) < g.nu * g.nv // 16


def test_cell_extremes_classify_as_five_comparisons():
    # the (inside, straddling) masks from each cell's max and fmin are those
    # of its five comparisons with eps: a NaN node, or one equal to eps, is
    # not below eps; a cell of five NaN nodes is outside
    rng = np.random.default_rng(3)
    eps = 0.5
    corner = rng.choice([0.1, 0.3, eps, 0.7, np.nan, np.inf], size=(41, 37))
    mid = rng.choice([0.2, eps, 0.9, np.nan], size=(40, 36))
    corner[:2, :2] = mid[0, 0] = np.nan
    corners = q._quads(corner)
    below = [x < eps for x in (*corners, mid)]
    inside = np.logical_and.reduce(below)
    straddle = np.logical_or.reduce(below) & ~inside
    got = q._cells(q._extremes(corners, mid), eps)
    assert np.array_equal(got[0], inside) and np.array_equal(got[1], straddle)
    assert inside.any() and straddle.any() and not (inside | straddle)[0, 0]
    assert all(np.isnan(x[0, 0]) for x in (*corners, mid))


def test_region_of_isolated_cell_centers_at_depth_two():
    # ellipsoid_tri on 16 x 40 at depth 2, eps just above the least |hring|
    # over the base midpoints: no cell lies inside, and every straddling one
    # has only its midpoint inside, so the order-3 corner call is skipped.
    # The cells bend (a generic umbilic), so they take 4 x 4 sub-lattices,
    # and the region's area is that of 128 x 128 midpoint samples of those
    # cells: -0.74% off here
    spec, g = preset("ellipsoid_tri"), q.GridSpec(16, 40, 2)
    us, vs = q._lattice(spec, g, centers=True)
    mid = np.sqrt(classification_values(spec, us, vs)[0]).reshape(g.nu, g.nv)
    corner = np.sqrt(classification_values(spec, *q._lattice(spec, g, centers=False))[0])
    corners = q._quads(corner.reshape(g.nu + 1, g.nv + 1))
    eps = 1.0001 * float(mid.min())
    inside, straddle = q._cells(q._extremes(corners, mid), eps)
    assert not inside.any() and straddle.any()
    assert all(x[straddle].min() >= eps for x in corners)
    assert q._bent(corners, mid)[straddle].all()
    vol = q.region_integrals(spec, [eps], g)[0].vol_omega_c
    u0, v0, du, dv = q._axes(spec, g)
    n, want = 128, 0.0
    for i, j in zip(*np.nonzero(straddle)):
        fine_u = u0 + (i + (np.arange(n) + 0.5) / n) * du
        fine_v = v0 + (j + (np.arange(n) + 0.5) / n) * dv
        n2, _, sqrt_detg = classification_values(spec, fine_u[:, None], fine_v[None, :])
        want += float(np.sum(sqrt_detg[n2 < eps**2])) * du * dv / n**2
    assert vol == pytest.approx(want, rel=1e-2)


def test_sublevel_volume_monotone_in_eps():
    ell = preset("ellipsoid_rev")
    rows = q.region_integrals(ell, [0.5, 0.25, 0.1, 0.05], q.GridSpec(64, 64, 4))
    vols = [r.vol_omega_c for r in rows]
    assert all(b <= a for a, b in zip(vols, vols[1:]))
    assert all(0 <= v <= rows[0].area for v in vols)


def test_deeper_refinement_tightens_boundary():
    # depth ladder converges toward the dense-grid value below
    ell = preset("ellipsoid_rev")
    vals = [
        q.integrate(ell, area_field, q.GridSpec(64, 64, d), q.sublevel(0.1))
        for d in (0, 2, 6)
    ]
    errs = [abs(v - DENSE_VOL_ELL_01) for v in vals]
    assert errs[2] < errs[0]


# [DERIVED] center-classified midpoint volume on a 4096^2 grid, no
# adaptivity: independent brute-force reference for ellipsoid_rev(1, 2),
# threshold 0.1
DENSE_VOL_ELL_01 = 0.17087489359501612


def test_region_integrals_against_dense_reference():
    ell = preset("ellipsoid_rev")
    rows = q.region_integrals(ell, [0.1], q.GridSpec(256, 256, 6))
    assert rows[0].vol_omega_c == pytest.approx(DENSE_VOL_ELL_01, rel=1e-2)


# Ratchet bounds on |relative error| against the exact revolution oracle,
# ellipsoid_rev(1, 2), depth 6: the measured errors of the composite
# lattice (the inside rule, cut cells on 2 x 2 sub-lattices at the
# interface), rounded up in the second significant digit. Measured (signed,
# I_grad_hring): 256^2 +6.39e-5, +4.28e-5, +1.42e-3; 512^2 +4.00e-5,
# +2.71e-6, +1.47e-5. Tighten them when the quadrature gets more accurate;
# never loosen them.
# per grid, per eps: vol_omega_c, I_grad_hring, I_grad_H, I_grad_H_plain
ORACLE_BOUNDS = {
    256: {
        0.1: (3.7e-6, 6.4e-5, 6.4e-5, 5.0e-6),
        0.05: (1.3e-6, 4.3e-5, 4.3e-5, 4.2e-6),
        0.025: (8.5e-6, 1.5e-3, 1.5e-3, 8.1e-5),
    },
    512: {
        0.1: (1.4e-7, 4.1e-5, 4.0e-5, 1.1e-6),
        0.05: (3.2e-7, 2.8e-6, 2.7e-6, 6.3e-7),
        0.025: (1.5e-7, 1.5e-5, 1.5e-5, 5.1e-7),
    },
}


def test_revolution_oracle_self_converges():
    # doubling the Gauss-Legendre panels leaves every integral unchanged
    for eps in (0.1, 0.025):
        coarse = revolution_integrals(1.0, 2.0, eps, POLAR_MARGIN)
        fine = revolution_integrals(1.0, 2.0, eps, POLAR_MARGIN, pieces=128)
        for name, value in coarse.items():
            assert value > 0
            assert fine[name] == pytest.approx(value, rel=1e-12)


@pytest.mark.parametrize("n", sorted(ORACLE_BOUNDS))
def test_region_integrals_against_revolution_oracle(n):
    ell = preset("ellipsoid_rev", {"a": 1.0, "b": 2.0})
    bounds = ORACLE_BOUNDS[n]
    rows = q.region_integrals(ell, sorted(bounds, reverse=True), q.GridSpec(n, n, 6))
    for row in rows:
        exact = revolution_integrals(1.0, 2.0, row.eps, POLAR_MARGIN)
        for (name, value), bound in zip(exact.items(), bounds[row.eps]):
            assert abs(getattr(row, name) / value - 1.0) <= bound, (n, row.eps, name)


def test_revolution_oracle_whole_chart_branch():
    # b <= sqrt(3) a: |hring| rises monotonically to 0.393 at the equator,
    # so the eps = 0.5 region of ellipsoid_rev(1, 1.5) is the whole chart
    exact = revolution_integrals(1.0, 1.5, 0.5, POLAR_MARGIN)["vol_omega_c"]
    ell = preset("ellipsoid_rev", {"a": 1.0, "b": 1.5})
    area = q.region_integrals(ell, [0.5], q.GridSpec(512, 512, 6))[0].area
    assert area == pytest.approx(exact, rel=1e-5)
    # b > sqrt(3) a: |hring| peaks before the equator, so no such shortcut
    with pytest.raises(ValueError, match="equator"):
        revolution_integrals(1.0, 2.0, 0.6, POLAR_MARGIN)


def test_region_integrals_sphere():
    # [TRIVIAL] totally umbilic: region is everything, hring-weighted
    # integrands vanish identically
    sph = preset("sphere")
    rows = q.region_integrals(sph, [0.5, 0.1], q.GridSpec(64, 64, 4))
    for r in rows:
        assert r.vol_omega_c == pytest.approx(r.area, rel=1e-3)
        assert abs(r.I_grad_hring) < 1e-20
        assert abs(r.I_grad_H) < 1e-20
        assert r.area == pytest.approx(4 * math.pi, rel=1e-3)
        assert r.H_sup == pytest.approx(2.0, abs=1e-9)
    assert rows[0].total_R == pytest.approx(8 * math.pi, rel=1e-4)


def test_region_integrals_shared_globals():
    ell = preset("ellipsoid_rev")
    rows = q.region_integrals(ell, [0.5, 0.1], q.GridSpec(32, 32, 2))
    assert rows[0].area == rows[1].area
    assert rows[0].total_R == rows[1].total_R
    assert rows[0].H_sup == rows[1].H_sup


@pytest.mark.parametrize("name", ["ellipsoid_rev", "ellipsoid_tri"])
def test_region_integrals_never_sort(name, monkeypatch):
    # ratchet: every node of a thresholded pass is a row of an axis table,
    # from G's corner lattice down to the refined leaves, so tabulating
    # the nodes never sorts their coordinates (np.unique)
    def unique(*args, **kwargs):
        raise AssertionError("np.unique called")

    monkeypatch.setattr(np, "unique", unique)
    rows = q.region_integrals(preset(name), [0.4, 0.1], q.GridSpec(64, 64, 5))
    assert all(r.vol_omega_c > 0 for r in rows)


def test_h_sup_matches_pole_limit():
    # [DERIVED] ellipsoid_rev(1, 2): both principal curvatures -> b/a^2 = 2
    # at the poles, so sup |H| = 4 (approached, poles margin-excluded)
    rows = q.region_integrals(preset("ellipsoid_rev"), [0.1], q.GridSpec(256, 256, 4))
    assert 3.99 < rows[0].H_sup <= 4.0


def test_half_grid_h_equals_its_corners_and_midpoints():
    # the even corners of a 128^2 grid are the 64^2 corners and its odd
    # corners the 64^2 midpoints, bit for bit
    ell = preset("ellipsoid_rev")
    _, h_half, _ = q._region_pass(ell, [0.1], q.GridSpec(128, 128, 2))
    half = q.GridSpec(64, 64)
    h = [classification_values(ell, *q._lattice(ell, half, centers=c))[1] for c in (False, True)]
    assert h_half == float(max(np.max(h[0]), np.max(h[1])))


# (preset, params, thresholds) for the ladder tests: a surface of
# revolution, a generic ellipsoid with 4 umbilics, and an open chart
LADDER_SURFACES = [
    ("ellipsoid_rev", {"a": 1.0, "b": 1.5}, (0.5, 0.25, 0.1)),
    ("ellipsoid_tri", {}, (0.4, 0.1, 0.05)),
    ("graph_bump", {}, (0.5, 0.2)),
]


def _sums(p):
    return [*p.whole, *(x for row in p.region for x in row)]


@pytest.mark.parametrize("name, params, eps", LADDER_SURFACES)
@pytest.mark.parametrize("n, levels, depth", [(64, 3, 0), (64, 3, 1), (128, 4, 2), (128, 3, 6)])
def test_ladder_levels_equal_one_level_passes(name, params, eps, n, levels, depth):
    # level m of the ladder is the pass over G/2^m bit for bit, though the
    # coarse levels read G's values
    spec = preset(name, params)
    ladder = q._ladder_pass(spec, q.GridSpec(n, n, depth), q._REGION_FIELDS, eps, levels)
    assert len(ladder) == levels
    for m, got in enumerate(reversed(ladder)):
        (ref,) = q._ladder_pass(spec, q.GridSpec(n >> m, n >> m, depth), q._REGION_FIELDS, eps)
        if m == 0:
            assert (got.h_sup, got.h_half) == (ref.h_sup, ref.h_half)
            assert _sums(got) == _sums(ref)
        else:
            assert got.h_sup is None and got.h_half is None
            assert _sums(got) == _sums(ref)


@pytest.mark.parametrize("name, params, eps", LADDER_SURFACES)
def test_five_level_ladder_equals_one_level_passes(name, params, eps):
    spec = preset(name, params)
    n, levels = 256, 5
    ladder = q._ladder_pass(spec, q.GridSpec(n, n, 4), q._REGION_FIELDS, eps, levels)
    for m, got in enumerate(reversed(ladder)):
        (ref,) = q._ladder_pass(spec, q.GridSpec(n >> m, n >> m, 4), q._REGION_FIELDS, eps)
        if m == 0:
            assert (got.h_sup, got.h_half) == (ref.h_sup, ref.h_half)
            assert _sums(got) == _sums(ref)
        else:
            assert _sums(got) == _sums(ref)


def test_plane_patch_area():
    # [TRIVIAL] flat 2x2 patch, exact at any grid
    a = q.integrate(plane_spec(), area_field, q.GridSpec(16, 16))
    assert a == pytest.approx(4.0, rel=1e-14)


# -- Euler characteristic -------------------------------------------------------------


@pytest.mark.parametrize(
    "name,chi",
    [("sphere", 2), ("torus", 0), ("ellipsoid_rev", 2), ("ellipsoid_tri", 2)],
)
def test_euler_characteristic_closed_presets(name, chi):
    est, rounded = q.euler_characteristic(preset(name), q.GridSpec(256, 256))
    assert rounded == chi
    assert est == pytest.approx(chi, abs=0.01)


def test_euler_characteristic_spaceform():
    # [DERIVED] Gauss-Bonnet holds with the ambient-c curvature included
    for c in (1.0, -1.0):
        spec = preset("centered_sphere_spaceform", {"rho": 0.5, "c": c})
        est, rounded = q.euler_characteristic(spec, q.GridSpec(128, 128))
        assert rounded == 2
        assert est == pytest.approx(2.0, abs=0.01)


def test_euler_characteristic_requires_closed():
    with pytest.raises(ValueError):
        q.euler_characteristic(preset("graph_bump"), q.GridSpec(32, 32))


def test_euler_characteristic_warns_off_integer():
    # a half-covered sphere chart integrates R to ~half the closed value
    fake = replace(preset("sphere"), u_range=(0.0, math.pi / 3))
    with pytest.warns(RuntimeWarning):
        est, rounded = q.euler_characteristic(fake, q.GridSpec(64, 64))
    assert abs(est - rounded) > 0.05


def test_euler_characteristic_warns_on_an_odd_value():
    # total_R / 4 pi lands 0.003 from 1 on a flat oblate ellipsoid at 16 x 16
    spec = preset("ellipsoid_rev", {"a": 5, "b": 0.3})
    with pytest.warns(RuntimeWarning, match="rounds to the odd value 1, which no closed chart"):
        _, rounded = q.euler_characteristic(spec, q.GridSpec(16, 16))
    assert rounded == 1


# -- convergence studies ----------------------------------------------------------------


def test_sphere_area_order_two():
    # [DERIVED] midpoint rule on a non-periodic axis: second order
    st = q.convergence_study(preset("sphere"), area_field, q.ALL, q.GridSpec(256, 256), 4)
    assert st.rows[2].estimated_order == pytest.approx(2.0, abs=0.2)
    assert st.rows[3].estimated_order == pytest.approx(2.0, abs=0.2)
    assert st.value == pytest.approx(4 * math.pi, rel=1e-5)
    # the estimate brackets the true discretization error to within 2x
    true_err = abs(st.value - 4 * math.pi)
    assert st.error_estimate == pytest.approx(true_err, rel=1.0)
    assert st.error_estimate > 0


def test_error_estimates_shrink_with_refinement():
    st = q.convergence_study(preset("sphere"), area_field, q.ALL, q.GridSpec(512, 512), 5)
    d = [abs(b.value - a.value) for a, b in zip(st.rows, st.rows[1:])]
    assert all(y < x for x, y in zip(d, d[1:]))


def test_rows_carry_their_error_estimates():
    st = q.convergence_study(preset("sphere"), area_field, q.ALL, q.GridSpec(128, 128), 4)
    assert [r.error_estimate for r in st.rows[:2]] == [None, None]
    for k in (2, 3):
        r = st.rows[k]
        d = abs(r.value - st.rows[k - 1].value)
        assert r.error_estimate == d / (2.0**r.estimated_order - 1.0)
    assert st.error_estimate == st.rows[-1].error_estimate


def test_exactly_converged_sequence():
    # doubly periodic smooth integrand: midpoint sums are identical once
    # resolved, giving zero differences and a zero error estimate
    st = q.convergence_study(preset("torus"), area_field, q.ALL, q.GridSpec(64, 64))
    assert st.order == math.inf
    assert st.error_estimate == 0.0


def test_unresolved_oscillation_reports_unstable():
    # aliased integrand: differences do not decrease monotonically
    st = q.convergence_study(
        preset("ellipsoid_rev"), lambda pg: np.cos(997.0 * pg.u), q.ALL, q.GridSpec(64, 64)
    )
    assert st.order == "unstable"
    assert st.error_estimate > 0


def test_an_order_above_the_rules_credits_only_the_rules():
    # differences 1e-2 then 1e-5 read as order 9.97; a region's estimate
    # credits at most the interface's order 2, from the difference before
    # the last: 1e-2 / 4 / (4 - 1), where order 9.97 would give 1e-5 / 999
    values = [1.0, 1.01, 1.01001]
    (order, err), = q._richardson(values)[2:]
    (capped_order, capped), = q._richardson(values, q._INTERFACE_ORDER)[2:]
    assert order == capped_order == pytest.approx(math.log2(1000.0))
    assert err == pytest.approx(1e-5 / (1000.0 - 1.0), rel=1e-6)
    assert capped == pytest.approx(1e-2 / 4.0 / 3.0, rel=1e-9)
    # below the rule's order the estimate is the plain Richardson one
    slow = [1.0, 1.1, 1.15]
    assert q._richardson(slow, 2.0) == q._richardson(slow)


# -- determinism -----------------------------------------------------------------------


def test_accuracy_script_reruns_are_byte_identical(tmp_path):
    # tests/accuracy.py, which writes the ACCURACY_<n>.json figures, takes
    # no timings: two runs on 64^2 grids write the same bytes
    script = Path(__file__).with_name("accuracy.py")
    outs = [tmp_path / f"run{k}.json" for k in (1, 2)]
    for out in outs:
        subprocess.run([sys.executable, str(script), "--out", str(out), "--grid", "64"], check=True)
    assert outs[0].read_bytes() == outs[1].read_bytes()
    rows = json.loads(outs[0].read_text())["rows"]
    assert rows and all(isinstance(r["change"], (float, bool)) for r in rows)


def test_accuracy_script_reproduces_the_newest_record(tmp_path):
    # tests/accuracy.py at its defaults writes the figures of the newest
    # ACCURACY_<n>.json in the repository root: the same figures in the same
    # order, each number within a relative 1e-6 of the record's change
    # column (another numpy build may move the last bits), each boolean equal
    root = Path(__file__).resolve().parent.parent
    newest = max(root.glob("ACCURACY_*.json"), key=lambda p: int(p.stem.split("_")[1]))
    out = tmp_path / "accuracy.json"
    subprocess.run([sys.executable, str(root / "tests" / "accuracy.py"), "--out", str(out)],
                   check=True)
    got, want = (json.loads(p.read_text()) for p in (out, newest))
    assert (got["grid"], got["depth"]) == (want["grid"], want["depth"])
    assert [r["figure"] for r in got["rows"]] == [r["figure"] for r in want["rows"]]
    for g, w in zip(got["rows"], want["rows"]):
        a, b = g["change"], w["change"]
        assert type(a) is type(b), g["figure"]
        if isinstance(b, bool):
            assert a == b, g["figure"]
        else:
            assert abs(a - b) <= 1e-6 * abs(b), (g["figure"], a, b)


def test_integrate_bit_identical():
    ell = preset("ellipsoid_rev")
    g = q.GridSpec(64, 64, 6)
    a = q.integrate(ell, r_field, g, q.sublevel(0.25))
    b = q.integrate(ell, r_field, g, q.sublevel(0.25))
    assert a == b


def test_region_integrals_bit_identical():
    ell = preset("ellipsoid_rev")
    r1 = q.region_integrals(ell, [0.5, 0.1], q.GridSpec(64, 64, 4))
    r2 = q.region_integrals(ell, [0.5, 0.1], q.GridSpec(64, 64, 4))
    assert r1 == r2
