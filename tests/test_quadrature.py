import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from umbilic import expressions as ex
from umbilic import quadrature as q
from umbilic import tape
from umbilic.errors import SingularEvaluationError
from umbilic.geometry import classification_values, point_geometry
from umbilic.surfaces import POLAR_MARGIN, preset
from oracles import revolution_integrals
from tests.test_geometry import flat_nodes, plane_spec


def area_field(pg):
    return 1.0


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
    # a ladder longer than KF is checked before it splits into two passes
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


def test_chunked_cuts_gathered_inputs_into_index_slices(monkeypatch):
    # tables and rows (tape.Rows) run in CHUNK-node batches, each the whole
    # table and the next slice of the index, and gather in order; the last
    # batch, 7 nodes, holds fewer than twice a table's rows, so it replays
    # flat. The values are those of the materialized nodes, bit for bit
    spec = preset("ellipsoid_rev", {"a": 1.0, "b": 2.0})
    us, vs = q._lattice(spec, q.GridSpec(16, 16), centers=True)
    rng = np.random.default_rng(0)
    u, v = (tape.Rows(t.ravel()[:6], rng.integers(0, 6, 127).astype(np.intp)) for t in (us, vs))
    want = q._classified(spec, np.asarray(u), np.asarray(v))
    monkeypatch.setattr(q, "CHUNK", 40)
    batches = []

    def kernel(a, b):
        batches.append((a.table is u.table, b.table is v.table, a.index, b.index))
        return classification_values(spec, a, b)

    got = q._chunked(kernel, u, v)
    assert [x.size for _, _, x, _ in batches] == [40, 40, 40, 7]
    assert all(ta and tb for ta, tb, _, _ in batches)
    for i in (2, 3):
        assert np.array_equal(np.concatenate([b[i] for b in batches]), (u, v)[i - 2].index)
    for x, y in zip(got, want):
        assert x.tobytes() == y.tobytes()


@pytest.mark.parametrize("us, vs", [
    (np.empty(0), np.empty(0)),  # flat node arrays
    (np.empty((0, 1)), np.arange(3.0)[None, :]),  # a lattice without rows
    (np.arange(3.0)[:, None], np.empty((1, 0))),  # a lattice without columns
    (tape.Rows(np.arange(3.0), np.empty(0, dtype=np.intp)),) * 2,  # gathered, no index
], ids=["flat", "no-rows", "no-columns", "gathered"])
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
    got = q._classified(spec, us, vs)
    assert binds == [((64,), (64,))]
    assert tape._loop is None
    monkeypatch.setattr(q, "CHUNK", us.size)
    for x, y in zip(got, q._classified(spec, us, vs)):
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
    got = q._classified(spec, us, vs)
    kept = [np.array(x) for x in got]
    q._classified(spec, us + 0.01, vs)
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
    # [TRIVIAL] the sphere is totally umbilic: |hring| = 0 < eps everywhere
    sph = preset("sphere")
    g = q.GridSpec(64, 64, 4)
    a = q.integrate(sph, area_field, g)
    assert q.integrate(sph, area_field, g, q.sublevel(0.05)) == a


def lattice_nodes(spec, g, *, centers):
    """A `q._lattice` pair as the flat node arrays of its nodes, row-major."""
    return flat_nodes(*q._lattice(spec, g, centers=centers))


def _straddling(spec, g, eps):
    """(base-center values of |hring|^2 and field * dA, mask of the base cells
    counted outside before refinement, du, dv, refinement state of the
    straddling cells), classified as a one-level pass does: at depth 0 every
    cell whose center is outside, else the all-out cells."""
    _, _, du, dv = q._axes(spec, g)
    ug, vg = lattice_nodes(spec, g, centers=False)
    n2_corner, _, _ = q._classified(spec, ug, vg)
    _, n2_center, base = q._full(spec, (r_field,), *lattice_nodes(spec, g, centers=True), classify=True)
    inside_center = (n2_center < eps * eps).reshape(g.nu, g.nv)
    all_in, straddle, corners = q._base_split(
        (n2_corner < eps * eps).reshape(g.nu + 1, g.nv + 1), inside_center
    )
    lower = q._masked(*q._lattice(spec, g, centers=False), straddle.reshape(g.nu, g.nv))
    # one-level pass: every straddling cell has membership 0
    state = (
        *lower, *(c[straddle] for c in corners), inside_center.ravel()[straddle],
        np.zeros(np.count_nonzero(straddle), dtype=np.int8),
    )
    outside = ~inside_center.ravel() if g.adaptive_depth == 0 else ~(all_in | straddle)
    return base, outside, du, dv, state


def _outside_r(spec, g, eps):
    """Integral of R over |hring| >= eps: the complement of sublevel(eps),
    summed over the outside base cells and the outside refined leaves."""
    base, outside, du, dv, state = _straddling(spec, g, eps)
    total = float(np.sum(base[outside])) * du * dv
    for us, vs, area, inside, *_ in q._refined_leaves(spec, eps, state, du, dv, g.adaptive_depth):
        if (~inside).any():
            (vals,) = q._full(spec, (r_field,), us[~inside], vs[~inside])
            total += float(np.sum(vals)) * area
    return total


def test_additivity_no_refinement():
    # complementary classification over the identical node set
    ell = preset("ellipsoid_rev")
    g = q.GridSpec(64, 64, 0)
    whole = q.integrate(ell, r_field, g)
    lo = q.integrate(ell, r_field, g, q.sublevel(0.25))
    hi = _outside_r(ell, g, 0.25)
    assert lo + hi == pytest.approx(whole, rel=1e-12)


def test_additivity_with_refinement():
    # refined sides partition the surface; differs from the base-grid
    # whole-surface sum only by the local refinement correction
    ell = preset("ellipsoid_rev")
    whole = q.integrate(ell, r_field, q.GridSpec(64, 64, 0))
    g = q.GridSpec(64, 64, 6)
    lo = q.integrate(ell, r_field, g, q.sublevel(0.25))
    hi = _outside_r(ell, g, 0.25)
    assert lo + hi == pytest.approx(whole, rel=1e-3)


def test_refined_leaves_tile_straddling_cells():
    # the leaves of the straddling base cells, inside and outside, cover
    # exactly their area: leaf areas are the base area over powers of 4
    ell, eps = preset("ellipsoid_rev"), 0.25
    g = q.GridSpec(64, 64, 6)
    _, _, du, dv, state = _straddling(ell, g, eps)
    leaves = list(q._refined_leaves(ell, eps, state, du, dv, g.adaptive_depth))
    n_straddle = state[0].size
    assert n_straddle > 0 and len(leaves) > 1
    tiled = sum(Fraction(area) / Fraction(du * dv) * us.size for us, _, area, *_ in leaves)
    assert tiled == n_straddle


def test_leaf_centers_keep_the_bits_of_the_corner_arithmetic():
    # a cell carries its lower corner as a row of a per-level table whose
    # rows take the expression corner + a h level by level; so each leaf
    # center holds, bit for bit, one of the centers that this arithmetic
    # reaches from the base corners: corner + q or corner + 3 q, q a
    # quarter of the cell side
    spec, eps = preset("ellipsoid_tri"), 0.25
    g = q.GridSpec(64, 64, 4)
    _, _, du, dv, state = _straddling(spec, g, eps)

    def centers(corners, side):
        out = set()
        for _ in range(g.adaptive_depth):
            h, quarter = side / 2.0, side / 4.0
            for x in (corners + quarter, corners + 3 * quarter):
                out.update(x.view(np.uint64).tolist())
            corners, side = np.concatenate([corners + 0 * h, corners + 1 * h]), h
        return out

    reach = centers(np.unique(state[0]), du), centers(np.unique(state[1]), dv)
    leaves = list(q._refined_leaves(spec, eps, state, du, dv, g.adaptive_depth))
    assert leaves
    for leaf in leaves:
        for x, bits in zip((leaf.us, leaf.vs), reach):
            assert set(np.asarray(x).view(np.uint64).tolist()) <= bits


def _probed_leaves(monkeypatch, spec, g, eps):
    """(leaves as (us, vs, area, inside), [(us, vs) of every _classified
    call], du, dv, straddling base cells) of _refined_leaves on the
    straddling cells of grid g."""
    _, _, du, dv, state = _straddling(spec, g, eps)
    calls = []
    real = q._classified

    def recording(spec, us, vs):
        # a probe batch may come as tables and row indices (tape.Rows)
        calls.append((np.asarray(us), np.asarray(vs)))
        return real(spec, us, vs)

    monkeypatch.setattr(q, "_classified", recording)
    leaves = [(np.asarray(leaf.us), np.asarray(leaf.vs), *leaf[2:4])
              for leaf in q._refined_leaves(spec, eps, state, du, dv, g.adaptive_depth)]
    return leaves, calls, du, dv, state[0].size


def test_refinement_probes_eight_per_cell_then_four_at_the_last_level(monkeypatch):
    # a cell entering level k < d-2 probes its 4 edge midpoints and 4 child
    # centers; at the last level every child is a leaf, so only the 4
    # child centers are probed. At level d-2 every straddling child splits
    # once more, so a child whose parent corner and the parent center
    # disagree is probed nowhere: an edge midpoint is probed for an open
    # child beside it (corner and center agree), a child center for an open
    # child (no coarse tree ends there in a one-level pass). n_k, the cells
    # entering level k, follows from the leaf areas: n_{k+1} = 4 n_k -
    # (leaves of area base / 4^(k+1))
    ell, eps = preset("ellipsoid_rev"), 0.25
    g = q.GridSpec(64, 64, 6)
    leaves, calls, du, dv, n_straddle = _probed_leaves(monkeypatch, ell, g, eps)
    d = g.adaptive_depth
    per_level = [0] * d
    for us, _, area, _ in leaves:
        per_level[round(math.log(du * dv / area, 4)) - 1] += us.size
    n = [n_straddle]
    for k in range(d - 1):
        n.append(4 * n[k] - per_level[k])
    assert per_level[d - 1] == 4 * n[d - 1] > 0
    # the cells entering level d-2 hold every leaf one or two levels below
    # them; their corner and center flags decide that level's probes
    u0, v0, _, _ = q._axes(ell, g)
    hu, hv = du / 2 ** (d - 2), dv / 2 ** (d - 2)
    cells = set()
    for us, vs, area, _ in leaves:
        if area < du * dv / 4 ** (d - 2):
            cells.update(zip(np.floor((us - u0) / hu).tolist(), np.floor((vs - v0) / hv).tolist()))
    assert len(cells) == n[d - 2]
    iu, iv = np.array(sorted(cells)).T
    cu, cv = u0 + iu * hu, v0 + iv * hv

    def inside(a, b):
        return classification_values(ell, cu + a * hu, cv + b * hv)[0] < eps**2

    o = [inside(a, b) == inside(0.5, 0.5) for a, b in ((0, 0), (1, 0), (0, 1), (1, 1))]
    before_last = sum(
        int(np.count_nonzero(x)) for x in (o[0] | o[1], o[0] | o[2], o[1] | o[3], o[2] | o[3], *o)
    )
    assert 0 < before_last < 8 * n[d - 2]
    sizes = [us.size for us, _ in calls]
    assert sizes == [8 * x for x in n[: d - 2]] + [before_last, 4 * n[d - 1]]


def test_max_depth_leaves_take_their_center_probe(monkeypatch):
    # every max-depth leaf is flagged from the order-2 value at its own
    # child-center probe, whether its cell is uniform or still straddling
    ell, eps = preset("ellipsoid_rev"), 0.25
    g = q.GridSpec(64, 64, 6)
    leaves, calls, du, dv, _ = _probed_leaves(monkeypatch, ell, g, eps)
    pu, pv = calls[-1]
    n2, _, _ = classification_values(ell, pu, pv)
    # fine-lattice index of a point: probes and leaf centers sit mid-cell
    u0, v0, _, _ = q._axes(ell, g)
    fu, fv = du / 2**g.adaptive_depth, dv / 2**g.adaptive_depth

    def index(us, vs):
        return list(zip(np.floor((us - u0) / fu).tolist(), np.floor((vs - v0) / fv).tolist()))

    probed = dict(zip(index(pu, pv), (n2 < eps**2).tolist()))
    deepest = [(us, vs, inside) for us, vs, area, inside in leaves if area == fu * fv]
    keys = [k for us, vs, _ in deepest for k in index(us, vs)]
    assert sorted(keys) == sorted(probed) and len(keys) == pu.size
    flags = np.concatenate([inside for _, _, inside in deepest]).tolist()
    assert flags == [probed[k] for k in keys]
    assert any(flags) and not all(flags)


def test_depth_one_probes_only_child_centers(monkeypatch):
    # depth 1: the only level is the last, 4 probes per straddling base
    # cell, and its 4 leaves tile that cell exactly
    ell, eps = preset("ellipsoid_rev"), 0.25
    g = q.GridSpec(64, 64, 1)
    leaves, calls, du, dv, n_straddle = _probed_leaves(monkeypatch, ell, g, eps)
    assert n_straddle > 0
    assert sum(us.size for us, _ in calls) == 4 * n_straddle
    tiled = sum(Fraction(area) / Fraction(du * dv) * us.size for us, _, area, _ in leaves)
    assert tiled == n_straddle


def _reference_leaves(spec, g, eps):
    """A brute-force refinement tree: probe each cell's 4 corners and center,
    split it while they disagree, and classify the children at max depth by
    their centers. {(halvings, twice the fine-lattice index of the center):
    (area, inside, |H|, sqrt(det g))} for each leaf below the base cells."""
    u0, v0, du, dv = q._axes(spec, g)
    depth = g.adaptive_depth
    fu, fv = du / 2**depth, dv / 2**depth
    iu, iv = np.meshgrid(np.arange(g.nu), np.arange(g.nv), indexing="ij")
    us, vs = u0 + iu.ravel() * du, v0 + iv.ravel() * dv
    leaves = {}
    for r in range(depth + 1):
        hu, hv = du / 2**r, dv / 2**r
        n2, h, sdg = classification_values(spec, us + hu / 2, vs + hv / 2)
        flags = [n2 < eps**2]
        if r < depth:
            flags += [
                classification_values(spec, us + a * hu, vs + b * hv)[0] < eps**2
                for a in (0, 1) for b in (0, 1)
            ]
        split = np.any(flags, axis=0) & ~np.all(flags, axis=0)
        if r > 0:
            ku = np.rint(2 * (us + hu / 2 - u0) / fu).astype(int).tolist()
            kv = np.rint(2 * (vs + hv / 2 - v0) / fv).astype(int).tolist()
            for k in np.flatnonzero(~split).tolist():
                leaves[(r, ku[k], kv[k])] = (hu * hv, bool(flags[0][k]), abs(h[k]), sdg[k])
        us, vs = (
            np.concatenate([x[split] + s * w for s in steps])
            for x, w, steps in ((us, hu / 2, (0, 0, 1, 1)), (vs, hv / 2, (0, 1, 0, 1)))
        )
    return leaves


def _assert_reference_leaves(spec, g, eps):
    """The leaves of _refined_leaves on the straddling cells of grid g are
    those of the brute-force tree: same lattice keys, areas and inside
    flags, |H| and sqrt(det g) within 1e-12 relative."""
    u0, v0, du, dv = q._axes(spec, g)
    depth = g.adaptive_depth
    fu, fv = du / 2**depth, dv / 2**depth
    _, _, _, _, state = _straddling(spec, g, eps)
    got = {}
    for leaf in q._refined_leaves(spec, eps, state, du, dv, depth):
        ku = np.rint(2 * (np.asarray(leaf.us) - u0) / fu).astype(int).tolist()
        kv = np.rint(2 * (np.asarray(leaf.vs) - v0) / fv).astype(int).tolist()
        for k in range(leaf.us.size):
            key = (leaf.depth, ku[k], kv[k])
            assert key not in got
            got[key] = (leaf.area, bool(leaf.inside[k]), leaf.abs_h[k], leaf.sqrt_detg[k])
    want = _reference_leaves(spec, g, eps)
    assert got and sorted(got) == sorted(want)
    for key, (area, inside, abs_h, sdg) in want.items():
        assert got[key][:2] == (area, inside), key
        assert got[key][2:] == pytest.approx((abs_h, sdg), rel=1e-12, abs=0.0), key
    return want


@pytest.mark.parametrize("name", ["ellipsoid_rev", "ellipsoid_tri"])
@pytest.mark.parametrize("depth", [1, 2, 3, 5])
def test_refined_leaves_match_a_brute_force_tree(name, depth):
    # the tree probes fewer points than the reference (shared corners once,
    # none where a child must straddle), yet gives the same leaves; at depth
    # 2 the level before the last is the base cells' first split
    _assert_reference_leaves(preset(name), q.GridSpec(64, 64, depth), 0.25)


def test_level_before_last_may_probe_nothing(monkeypatch):
    # a cell with only its center inside and membership 0: at level d-2 all
    # four children straddle (outer corner out, inner corner in) and no
    # coarse tree ends there, so that level probes no point; each child
    # still splits once more, into 4 leaves classified by their centers
    spec, eps, depth = preset("ellipsoid_tri"), 0.25, 2
    u0, v0, du, dv = q._axes(spec, q.GridSpec(64, 64, depth))
    cu, cv = u0 + 20 * du, v0 + 30 * dv
    out = np.zeros(1, dtype=bool)
    state = (*(tape.Rows(np.array([x]), np.zeros(1, dtype=np.intp)) for x in (cu, cv)),
             out, out, out, out, ~out, np.zeros(1, dtype=np.int8))
    calls = []
    real = q._classified

    def recording(spec, us, vs):
        calls.append(us.size)
        return real(spec, us, vs)

    monkeypatch.setattr(q, "_classified", recording)
    leaves = list(q._refined_leaves(spec, eps, state, du, dv, depth))
    assert calls == [16]
    assert {(leaf.area, leaf.depth) for leaf in leaves} == {(du * dv / 16, depth)}
    us, vs, inside = (np.concatenate([getattr(leaf, k) for leaf in leaves]) for k in ("us", "vs", "inside"))
    grid = {(i, j) for i in range(4) for j in range(4)}
    assert set(zip(np.rint((us - cu) / (du / 4) - 0.5).astype(int).tolist(),
                   np.rint((vs - cv) / (dv / 4) - 0.5).astype(int).tolist())) == grid
    assert us.size == 16
    assert inside.tolist() == (real(spec, us, vs)[0] < eps**2).tolist()


def test_region_of_isolated_cell_centers_at_depth_two(monkeypatch):
    # ellipsoid_tri on 16 x 40 at depth 2, eps just above the least |hring|
    # over the base midpoints: every straddling cell has only its center
    # inside, so the level before the last probes nothing. The pass
    # still runs, and its region area is that of the brute-force tree
    spec, g = preset("ellipsoid_tri"), q.GridSpec(16, 40, 2)
    us, vs = q._lattice(spec, g, centers=True)
    eps = 1.0001 * math.sqrt(float(classification_values(spec, us, vs)[0].min()))
    vol = q.region_integrals(spec, [eps], g)[0].vol_omega_c
    want = _assert_reference_leaves(spec, g, eps)
    assert vol == pytest.approx(sum(a * s for a, inside, _, s in want.values() if inside), rel=1e-12)
    _, calls, _, _, n_straddle = _probed_leaves(monkeypatch, spec, g, eps)
    assert n_straddle > 0 and [u.size for u, _ in calls] == [16 * n_straddle]


def _field_values(pg):
    """The _REGION_FIELDS at a PointGeometry batch, one row per field."""
    return np.array([np.broadcast_to(f(pg), pg.batch_shape) for f in q._REGION_FIELDS])


@pytest.mark.parametrize("name, eps_values", [
    ("ellipsoid_rev", (0.4, 0.2, 0.1)),
    ("ellipsoid_tri", (0.4, 0.1, 0.05)),
])
def test_region_sums_match_a_brute_force_ancestor_rule(name, eps_values):
    # every region sum recomputed node by node: uniformly inside base cells
    # at their midpoints, inside leaves at most KF halvings deep at their
    # centers, deeper ones with the fields of their depth-KF ancestor (its
    # center found by flooring the leaf center on that lattice) times their
    # own area element; H_sup is the max |H| over the base midpoints and
    # the inside leaf centers
    spec = preset(name)
    g = q.GridSpec(64, 64, 5)
    (got,) = q._ladder_pass(spec, g, q._REGION_FIELDS, eps_values)
    u0, v0, du, dv = q._axes(spec, g)
    mid = point_geometry(spec, *lattice_nodes(spec, g, centers=True))
    base = _field_values(mid) * mid.sqrt_detg
    n2_corner, _, _ = classification_values(spec, *lattice_nodes(spec, g, centers=False))
    n2_corner = n2_corner.reshape(g.nu + 1, g.nv + 1)
    h_sup = float(np.max(np.abs(mid.H)))
    fu, fv = du / 2**q.KF, dv / 2**q.KF
    deep_leaves = 0
    for eps, sums in zip(eps_values, got.region):
        c = n2_corner < eps**2
        all_in = (c[:-1, :-1] & c[1:, :-1] & c[:-1, 1:] & c[1:, 1:]).ravel()
        all_in &= mid.hring_norm2 < eps**2
        want = base[:, all_in].sum(axis=1) * du * dv
        _, _, _, _, state = _straddling(spec, g, eps)
        for us, vs, area, inside, *_ in q._refined_leaves(spec, eps, state, du, dv, g.adaptive_depth):
            us, vs = np.asarray(us)[inside], np.asarray(vs)[inside]
            if us.size == 0:
                continue
            leaf = point_geometry(spec, us, vs)
            h_sup = max(h_sup, float(np.max(np.abs(leaf.H))))
            if round(math.log(du * dv / area, 4)) <= q.KF:
                want += (_field_values(leaf) * leaf.sqrt_detg).sum(axis=1) * area
                continue
            deep_leaves += us.size
            au = u0 + (np.floor((us - u0) / fu) + 0.5) * fu
            av = v0 + (np.floor((vs - v0) / fv) + 0.5) * fv
            want += (_field_values(point_geometry(spec, au, av)) * leaf.sqrt_detg).sum(axis=1) * area
        assert list(sums) == pytest.approx(want.tolist(), rel=1e-12, abs=0.0)
    assert deep_leaves > 0
    assert got.h_sup == h_sup


# Ratchet on the full-geometry nodes of a region_integrals pass over
# ellipsoid_rev(1, 2), 128^2, depth 6, eps 0.4, 0.2, 0.1, 0.05: besides one
# order-2 node per base midpoint, the order-3 nodes at the midpoints inside
# the eps 0.4 region, the inside leaves at most KF halvings deep, and the
# distinct depth-KF ancestors of the deeper inside leaves, counted per
# threshold (113,152 order-3 nodes when every inside leaf had its own
# evaluation, 27,136 when every midpoint was order 3). Lower them when the
# pass needs fewer; never raise them.
FULL_NODE_BOUNDS = {"midpoints": 4608, "shallow leaves": 2560, "ancestors": 8192}


def test_full_geometry_nodes_stay_bounded(monkeypatch):
    spec, g, eps_values = preset("ellipsoid_rev"), q.GridSpec(128, 128, 6), (0.4, 0.2, 0.1, 0.05)
    u0, v0, du, dv = q._axes(spec, g)
    fu, fv = du / 2**q.KF, dv / 2**q.KF
    n2_mid, _, _ = classification_values(spec, *q._lattice(spec, g, centers=True))
    inner = int(np.count_nonzero(n2_mid < eps_values[0] ** 2))
    shallow = ancestors = 0
    for eps in eps_values:
        _, _, _, _, state = _straddling(spec, g, eps)
        keys = set()
        for us, vs, area, inside, *_ in q._refined_leaves(spec, eps, state, du, dv, g.adaptive_depth):
            if round(math.log(du * dv / area, 4)) <= q.KF:
                shallow += int(np.count_nonzero(inside))
            else:
                us, vs = np.asarray(us), np.asarray(vs)
                iu, iv = np.floor((us[inside] - u0) / fu), np.floor((vs[inside] - v0) / fv)
                keys.update(zip(iu.tolist(), iv.tolist()))
        ancestors += len(keys)
    nodes = {2: 0, 3: 0}
    real = q.geometry._kernel

    def counting(spec, key, order, fn, u, v):
        # the node kernels with field densities; the classification has none
        if key[0] == "nodes" and key[3]:
            nodes[order] += np.broadcast(u, v).size
        return real(spec, key, order, fn, u, v)

    monkeypatch.setattr(q.geometry, "_kernel", counting)
    q.region_integrals(spec, eps_values, g)
    assert nodes[2] == g.nu * g.nv
    assert nodes[3] == inner + shallow + ancestors
    assert nodes[3] <= sum(FULL_NODE_BOUNDS.values()), (inner, shallow, ancestors)


def test_tree_nodes_take_one_kernel_call_per_threshold(monkeypatch):
    # every inside leaf reads its own tree node or an ancestor, and after
    # each threshold's tree one order-3 node-kernel call evaluates every
    # node read (fewer than CHUNK here, so one batch); before the trees,
    # only the inside midpoints' call
    spec, g, eps_values = preset("ellipsoid_rev"), q.GridSpec(128, 128, 6), (0.4, 0.2, 0.1, 0.05)
    calls, trees = [], []  # per order-3 call, the index of the running tree (-1: none)
    real_kernel, real_tree = q.geometry._kernel, q._tree_sums

    def kernel(spec, key, order, fn, u, v):
        if key[0] == "nodes" and key[3] and order == 3:
            calls.append(len(trees) - 1)
        return real_kernel(spec, key, order, fn, u, v)

    def tree(*args):
        trees.append(args[4])
        return real_tree(*args)

    monkeypatch.setattr(q.geometry, "_kernel", kernel)
    monkeypatch.setattr(q, "_tree_sums", tree)
    q.region_integrals(spec, eps_values, g)
    assert trees == list(eps_values)
    assert calls == [-1, *range(len(eps_values))]


# Ratchet on the order-2 classification nodes of the same pass: one per
# base corner, then the refinement probes of the four thresholds' trees
# (401,665 nodes in all when the level before the last probed 8 points per
# cell). Lower them when the trees probe fewer; never raise them.
PROBE_NODE_BOUNDS = {"corners": 16641, "probes": 335872}


def test_classification_nodes_stay_bounded(monkeypatch):
    spec, g = preset("ellipsoid_rev", {"a": 1.0, "b": 2.0}), q.GridSpec(128, 128, 6)
    sizes = []
    real = q._classified

    def counting(spec, us, vs):
        sizes.append(np.broadcast(us, vs).size)
        return real(spec, us, vs)

    monkeypatch.setattr(q, "_classified", counting)
    q.region_integrals(spec, (0.4, 0.2, 0.1, 0.05), g)
    assert sizes[0] == (g.nu + 1) * (g.nv + 1) == PROBE_NODE_BOUNDS["corners"]
    assert sum(sizes[1:]) <= PROBE_NODE_BOUNDS["probes"], sum(sizes[1:])


# Ratchet on the u tables the same pass's refinement probes replay: a probe
# batch reaches the classification as tables of its cells' lower-corner u
# and v at five offsets and each probe's rows there (tape.Rows), and on this
# surface of revolution, whose interface is a line u = const, every probe
# replay runs its u-only calls on a table of a few rows. The rows of the u
# tables summed over the probe replays: 272 in 32 replays (335,872 probes,
# PROBE_NODE_BOUNDS). Lower the bound when the tables shrink; never raise it.
PROBE_TABLE_ROWS = 272


def test_probe_tables_stay_bounded(monkeypatch):
    spec, g = preset("ellipsoid_rev", {"a": 1.0, "b": 2.0}), q.GridSpec(128, 128, 6)
    calls, rows = [], []  # per _classified call its nodes, per probe replay its u table's rows
    real_classified, real_replay = q._classified, tape.Tape.replay

    def classified(spec, us, vs):
        calls.append(us)
        try:
            return real_classified(spec, us, vs)
        finally:
            calls.append(None)

    def replay(self, *inputs):
        if calls and calls[-1] is not None and calls[-1] is not calls[0]:
            u = inputs[0]
            rows.append(u.table.size if isinstance(u, tape.Rows) else None)
        return real_replay(self, *inputs)

    monkeypatch.setattr(q, "_classified", classified)
    monkeypatch.setattr(tape.Tape, "replay", replay)
    q.region_integrals(spec, (0.4, 0.2, 0.1, 0.05), g)
    corners, *probes = calls[::2]
    assert np.shape(corners) == (g.nu + 1, 1)  # the corners come as a lattice
    assert all(isinstance(us, tape.Rows) for us in probes)
    assert sum(us.index.size for us in probes) <= PROBE_NODE_BOUNDS["probes"]
    # every probe replay ran its u-only calls on the table
    assert rows and None not in rows
    assert sum(rows) <= PROBE_TABLE_ROWS, (sum(rows), len(rows))


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
# ellipsoid_rev(1, 2), depth 6: the measured errors of midpoint quadrature
# with center-classified interface leaves, rounded up in the second
# significant digit. Measured (signed, I_grad_hring): 256^2 -8.10e-3,
# -2.73e-2, -4.61e-2; 512^2 -1.56e-3, -3.46e-3, -1.54e-2. Tighten them when
# the quadrature gets more accurate; never loosen them.
# per grid, per eps: vol_omega_c, I_grad_hring, I_grad_H, I_grad_H_plain
ORACLE_BOUNDS = {
    256: {
        0.1: (1.4e-4, 8.1e-3, 8.1e-3, 1.5e-3),
        0.05: (1.2e-3, 2.8e-2, 2.8e-2, 6.9e-3),
        0.025: (1.2e-3, 4.7e-2, 4.7e-2, 1.3e-2),
    },
    512: {
        0.1: (1.8e-4, 1.6e-3, 1.6e-3, 1.4e-4),
        0.05: (6.4e-4, 3.5e-3, 3.5e-3, 1.7e-5),
        0.025: (1.2e-3, 1.6e-2, 1.6e-2, 4.8e-3),
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
        assert r.vol_omega_c == r.area
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


def test_odd_corner_h_equals_half_grid_midpoints():
    # the odd corners of a 128^2 grid are the 64^2 midpoints bit for bit
    ell = preset("ellipsoid_rev")
    _, h_odd, _ = q._region_pass(ell, [0.1], q.GridSpec(128, 128, 2))
    _, h, _ = classification_values(ell, *q._lattice(ell, q.GridSpec(64, 64), centers=True))
    assert h_odd == float(np.max(h))


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
    # level m of the ladder is the pass over G/2^m: the fine level bit for
    # bit, the coarse levels up to the rounding of their leaf coordinates
    # and of the order in which their sums are taken
    spec = preset(name, params)
    ladder = q._ladder_pass(spec, q.GridSpec(n, n, depth), q._REGION_FIELDS, eps, levels)
    assert len(ladder) == levels
    for m, got in enumerate(reversed(ladder)):
        (ref,) = q._ladder_pass(spec, q.GridSpec(n >> m, n >> m, depth), q._REGION_FIELDS, eps)
        if m == 0:
            assert (got.h_sup, got.h_odd) == (ref.h_sup, ref.h_odd)
            assert _sums(got) == _sums(ref)
        else:
            assert got.h_sup is None and got.h_odd is None
            assert got.whole == ref.whole
            assert _sums(got) == pytest.approx(_sums(ref), rel=1e-13, abs=0.0)


@pytest.mark.parametrize("name, params, eps", LADDER_SURFACES)
def test_five_level_ladder_equals_one_level_passes(name, params, eps):
    # levels 3 and 4 sit more than KF levels above G, so they run as a
    # second pass over G/2^KF, with its own refinement tree
    spec = preset(name, params)
    n, levels = 256, 5
    assert levels - 1 > q.KF
    ladder = q._ladder_pass(spec, q.GridSpec(n, n, 4), q._REGION_FIELDS, eps, levels)
    for m, got in enumerate(reversed(ladder)):
        (ref,) = q._ladder_pass(spec, q.GridSpec(n >> m, n >> m, 4), q._REGION_FIELDS, eps)
        if m == 0:
            assert (got.h_sup, got.h_odd) == (ref.h_sup, ref.h_odd)
            assert _sums(got) == _sums(ref)
        else:
            assert got.whole == ref.whole
            assert _sums(got) == pytest.approx(_sums(ref), rel=1e-13, abs=0.0)


@pytest.mark.parametrize("name, params, eps", LADDER_SURFACES)
def test_long_ladder_runs_as_two_passes(name, params, eps):
    # a pass spans at most KF levels: a 5-level ladder is the 2-level pass
    # over G/2^KF followed by the KF-level pass over G, bit for bit, and its
    # G/2^KF level is the one-level pass over G/2^KF
    spec = preset(name, params)
    n, depth, levels = 256, 4, 5
    low = q.GridSpec(n >> q.KF, n >> q.KF, depth)
    ladder = q._ladder_pass(spec, q.GridSpec(n, n, depth), q._REGION_FIELDS, eps, levels)
    coarse = q._ladder_pass(spec, low, q._REGION_FIELDS, eps, levels - q.KF)
    fine = q._ladder_pass(spec, q.GridSpec(n, n, depth), q._REGION_FIELDS, eps, q.KF)
    assert [_sums(p) for p in ladder] == [_sums(p) for p in coarse + fine]
    assert ladder[levels - q.KF :] == fine
    for p in ladder[: levels - q.KF]:
        assert (p.h_sup, p.h_odd, p.peaks) == (None, None, None)
    (ref,) = q._ladder_pass(spec, low, q._REGION_FIELDS, eps)
    assert _sums(ladder[levels - q.KF - 1]) == _sums(ref)


def test_ladder_probes_only_the_fine_grid_nodes(monkeypatch):
    # the coarse levels read the fine lattice and the fine tree: per tree, a
    # 3-level ladder evaluates the order-2 nodes of the one-level pass plus
    # the child centers that G/2's leaves read at the level before the last,
    # where G/2's tree ends and the one-level pass probes only the children
    # it must; no added node twice
    ell = preset("ellipsoid_rev")
    g = q.GridSpec(128, 128, 4)
    real_classified, real_leaves = q._classified, q._refined_leaves

    def nodes(levels):
        """(the nodes of the corner call, then of each tree; per tree the
        centers of the coarse leaves at the level before the last)"""
        trees, coarse = [[]], [[]]

        def recording(spec, us, vs):
            trees[-1] += zip(*(a.tolist() for a in flat_nodes(us, vs)))
            return real_classified(spec, us, vs)

        def refined(*args):
            trees.append([])
            coarse.append([])
            for leaf in real_leaves(*args):
                if leaf.lo > 0 and leaf.depth == g.adaptive_depth - 1:
                    coarse[-1] += zip(np.asarray(leaf.us).tolist(), np.asarray(leaf.vs).tolist())
                yield leaf

        monkeypatch.setattr(q, "_classified", recording)
        monkeypatch.setattr(q, "_refined_leaves", refined)
        q._ladder_pass(ell, g, q._REGION_FIELDS, (0.5, 0.25, 0.1, 0.05), levels)
        return trees, coarse

    (single, unread), (ladder, coarse) = nodes(1), nodes(3)
    assert len(single) == len(ladder) == 5 and not any(unread)
    assert single[0] == ladder[0] and len(single[0]) == (g.nu + 1) * (g.nv + 1)
    assert any(single[1:])
    extra = 0
    for one, many, read in zip(single[1:], ladder[1:], coarse[1:]):
        added = set(read) - set(one)
        assert len(read) == len(set(read))
        # in evaluation order, the ladder's nodes less the added centers
        # are the one-level pass's, and each added center comes once
        assert [p for p in many if p not in added] == one
        assert len(many) == len(one) + len(added)
        extra += len(added)
    assert extra > 0


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


# -- determinism -----------------------------------------------------------------------


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
