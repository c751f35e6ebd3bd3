"""Quadrature on immersed surfaces: the midpoint rule over the whole
surface, a composite lattice over sublevel sets.

All integrals are taken against the induced area element dA = sqrt(det g)
du dv on the chart rectangle (singular margins shaved off non-periodic
axes). The sublevel region at a threshold eps collects the points with
|hring| < eps, strictly; boundary ties count as outside.

Every integral comes from one pass (`_ladder_pass`). Without thresholds
each base midpoint gets one geometry evaluation, at the order the fields
declare. With thresholds the base lattice's corners and midpoints get
order 2 (|hring|, |H|, the order-2 fields' whole-surface midpoint sums),
and each cell is inside, outside or straddling by its five nodes. Inside
cells take (T + 2M)/3 of the field densities at their corners (T their
mean) and midpoint (M), whose h^2 error terms cancel. Each straddling
cell takes an m x m sub-lattice (`_cut_cells`), m set by the grid's
adaptive_depth and by how |hring| bends in the cell (`_bent`): its
sub-cells take the same inside rule, or the cut rule (Min & Gibou, J.
Comput. Phys. 2007) on 4 triangles with the level |hring| - eps, whose
zero crossings along the triangles' edges follow its curvature there
(`_crossing`). One pass serves every field and threshold of a call, and
every level of a Richardson ladder G/2^k: level k reads G's corners at
stride 2^k and is the one-level pass over G/2^k.

An integrand is a `Field`: a function of a PointGeometry batch plus the
lowest jet order that fills what it reads. A bare callable counts as
order 3. `AREA` and `TOTAL_R` need only values (order 2), so passes over
them alone skip the order-3 jets and the covariant derivatives. Every
node replays the node kernel (`geometry._nodes`): |hring|^2 and |H| where
it classifies, sqrt(det g), the peaks and the field densities, which the
pass weighs by dA outside the tape. A base lattice reaches the kernel as
a column of u and a row of v, never meshed (`_lattice`); the nodes of the
cells inside the largest region as the lattice nodes a mask selects
(`_masked`, `tape.Rows`); sub-lattices as broadcast pairs, u of shape (K,
n, 1) and v of shape (K, 1, n) (`_sublattice`). One batch loop cuts every
node set into whole rows (`_chunked`), and the tape alone picks how a
batch replays (`tape.Tape.replay`).

Summation uses a fixed traversal order with numpy's pairwise reduction,
so identical inputs give bit-identical results.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import geometry, tape
from .surfaces import ImmersionSpec, interior_axes

# nodes per evaluation batch; bounds peak memory of the jet pipeline
CHUNK = 16384

# The order of a sublevel integral's error at the region interface, where
# the cut rule takes the level linear on sub-triangles: a region's error
# estimate credits no higher observed order. The inside rule's is 4, so a
# coarse ladder level can converge faster than the interface lets G do.
_INTERFACE_ORDER = 2

# fewest base cells per axis a GridSpec accepts
MIN_CELLS = 16

__all__ = [
    "ALL",
    "AREA",
    "CHUNK",
    "ConvergenceRow",
    "ConvergenceStudy",
    "Field",
    "GridSpec",
    "Region",
    "RegionIntegrals",
    "TOTAL_R",
    "convergence_study",
    "euler_characteristic",
    "integrate",
    "region_integrals",
    "sublevel",
]


@dataclass(frozen=True)
class GridSpec:
    """Uniform base grid: nu x nv cells.

    adaptive_depth sets the sub-lattices of the cells straddling a region
    interface: m x m with m = 2^min(depth, 1) where |hring| is smooth on
    the scale of the cell and 2^min(depth, 4) where it bends, near a
    generic umbilic. 0 is the plain lattice (m = 1), whose straddling cells
    take the cut rule on their own five nodes.
    """

    nu: int = 256
    nv: int = 256
    adaptive_depth: int = 6

    def __post_init__(self):
        if self.nu < MIN_CELLS or self.nv < MIN_CELLS:
            raise ValueError(
                f"grid must be at least {MIN_CELLS}x{MIN_CELLS} cells, got {self.nu}x{self.nv}"
            )
        if not 0 <= self.adaptive_depth <= 12:
            raise ValueError(f"adaptive_depth must lie in [0, 12], got {self.adaptive_depth}")


def _ladder_fault(grid: GridSpec, levels: int):
    """Why a doubling ladder of `levels` levels cannot end at grid, or None:
    its sides must divide by 2^(levels-1), and its coarsest level keep at
    least MIN_CELLS cells per axis."""
    factor = 1 << (levels - 1)
    if min(grid.nu, grid.nv) < MIN_CELLS * factor:
        return f"the coarsest level would fall below {MIN_CELLS}x{MIN_CELLS} cells"
    if grid.nu % factor or grid.nv % factor:
        return f"the sides are not divisible by {factor}"
    return None


def _thresholds_fault(eps_values):
    """Why a threshold ladder cannot be integrated, or None: it must be
    non-empty, within (0, 1] (where the paper's explicit constant holds)
    and strictly decreasing."""
    if not eps_values:
        return "threshold ladder must not be empty"
    for e in eps_values:
        if not 0.0 < e <= 1.0:
            return (
                f"threshold {e} rejected: the explicit constant is valid only for"
                " thresholds in (0, 1]"
            )
    if any(b >= a for a, b in zip(eps_values, eps_values[1:])):
        return "threshold ladder must be strictly decreasing"
    return None


@dataclass(frozen=True)
class Region:
    kind: str
    eps: float | None = None

    def __post_init__(self):
        if self.kind not in ("all", "sublevel"):
            raise ValueError(f"unknown region kind {self.kind!r}")
        if self.kind == "all":
            if self.eps is not None:
                raise ValueError("region 'all' takes no threshold")
        elif self.eps is None or not self.eps > 0:
            raise ValueError(f"region {self.kind!r} needs a positive threshold")
        elif not math.isfinite(self.eps):
            raise ValueError(f"region {self.kind!r} needs a finite threshold, got {self.eps}")


ALL = Region("all")


def sublevel(eps: float) -> Region:
    """Points with |hring| strictly below eps."""
    return Region("sublevel", float(eps))


@dataclass(frozen=True)
class Field:
    """An integrand: fn maps a PointGeometry batch, the view that
    `point_geometry` returns, to a scalar array (or a constant); order (2,
    3 or 4) is the lowest jet order whose geometry fills what fn reads (see
    `geometry`). A field that reads beyond its order gets None there, and
    the pass raises instead of integrating it. fn is recorded on one node
    and replayed (`geometry._nodes`), and the recording is kept with the
    spec for every later pass with the same fields: fn computes with numpy
    ufuncs on whole arrays and takes no Python number out of them. The
    recording is keyed by fn's code and the values it captures (closure
    cells, defaults and the module globals it names), so an equal fresh
    lambda reuses it and a captured value that changes, rebound to another
    number say, records anew. What can still go stale is a mutable value
    changed in place, such as an array fn reads whose entries are
    overwritten between calls. A tensor field (g, ginv, ...) is stacked on
    its first read, which no tape holds, so a field that reads one runs
    without a tape."""

    fn: Callable
    order: int = 3

    def __post_init__(self):
        if self.order not in (2, 3, 4):
            raise ValueError(f"a Field's jet order must be 2, 3 or 4, got {self.order}")

    def __call__(self, pg):
        return self.fn(pg)


AREA = Field(lambda pg: 1.0, order=2)
TOTAL_R = Field(lambda pg: pg.R, order=2)


@dataclass(frozen=True)
class RegionIntegrals:
    """Sublevel-region integrals at one threshold, plus surface globals.

    vol_omega_c     area of the region {|hring| < eps}
    I_grad_hring    integral of |nabla hring|^2 |hring|^2 over the region
    I_grad_H        integral of |nabla H|^2 |hring|^2 over the region
    I_grad_H_plain  integral of |nabla H|^2 over the region
    area, total_R   whole-surface area and integral of R
    H_sup           max |H| over every node the pass evaluates: the base corners
                    and midpoints, and every threshold's sub-lattice nodes
    """

    eps: float
    vol_omega_c: float
    I_grad_hring: float
    I_grad_H: float
    I_grad_H_plain: float
    area: float
    total_R: float
    H_sup: float


@dataclass(frozen=True)
class ConvergenceRow:
    grid: GridSpec
    value: float
    estimated_order: object  # None (first two levels), float, or "unstable"
    error_estimate: float | None = None  # None on the first two levels


@dataclass(frozen=True)
class ConvergenceStudy:
    rows: tuple
    value: float
    error_estimate: float
    order: object


# -- node evaluation ------------------------------------------------------------


def _axes(spec: ImmersionSpec, grid: GridSpec):
    (u0, u1), (v0, v1) = spec.interior_ranges()
    return u0, v0, (u1 - u0) / grid.nu, (v1 - v0) / grid.nv


def _lattice(spec: ImmersionSpec, grid: GridSpec, *, centers):
    """`interior_axes` as a lattice: the column of u (R, 1) and the row of v
    (1, C) of the base-cell midpoints (nu x nv) or corners ((nu+1) x
    (nv+1)), never meshed. Node k of the lattice, row-major, is (u[i, 0],
    v[0, j]) with (i, j) = divmod(k, C)."""
    us, vs = interior_axes(spec, grid.nu, grid.nv, centers=centers)
    return us[:, None], vs[None, :]


def _chunked(kernel, us, vs):
    """kernel(u, v) -> tuple of arrays, run on batches of about CHUNK
    nodes and gathered into flat arrays.

    us and vs, of one ndim, broadcast to the node set's shape: a lattice's
    column of u and row of v (see `_lattice`), or equal-length node arrays
    or `tape.Rows` (a table and each node's row there). One rule cuts every
    node set: whole rows along its first axis, max(1, CHUNK // width) rows
    of width nodes per batch (a 1-D set has width 1; a Rows batch is its
    table and a slice of its index), an input of one row whole in every
    batch; outputs gather row-major. The node set must be non-empty
    (ValueError otherwise). An output of one element per batch (a batch
    maximum) gathers to one element per batch. Batches are written into
    preallocated outputs, so no result is ever held twice.

    This is the one batch loop: it runs inside `tape.reusing()`, so a tape
    the kernel replays binds its buffers once per loop (and once more for a
    last, shorter batch), not once per batch. A replay's outputs stay valid
    until the next replay, so each batch's part is copied into the gathered
    outputs at once; a single batch's part is returned as it is, and the
    binding that holds it is freed when the loop is left.
    """
    shape = np.broadcast_shapes(us.shape, vs.shape)
    n = math.prod(shape)
    if n == 0:
        raise ValueError(f"_chunked needs at least one node, got a node set of shape {shape}")
    width = n // shape[0]
    rows = max(1, CHUNK // width)
    step = rows * width
    with tape.reusing():
        for k, i in enumerate(range(0, shape[0], rows)):
            batch = (x if x.shape[0] < shape[0] else x[i : i + rows] for x in (us, vs))
            part = [np.reshape(a, -1) for a in kernel(*batch)]
            if n <= step:
                return tuple(part)
            if k == 0:
                outs = tuple(np.empty(n if a.size > 1 else -(-n // step), a.dtype) for a in part)
            for out, a in zip(outs, part):
                if out.size == n:
                    out[k * step : k * step + a.size] = a
                else:
                    out[k] = a[0]
    return outs


def _classified(spec, us, vs):
    """(|hring|^2, |H|, sqrt(det g)) from the order-2 classification kernel."""
    return _chunked(lambda u, v: geometry.classification_values(spec, u, v), us, vs)


def _order(fields):
    return max((f.order if isinstance(f, Field) else 3 for f in fields), default=2)


def _full(spec, fields, us, vs, *, classify=False, peaks=()):
    """Geometry at the highest order the fields and peaks declare (2 for
    none), from the node kernel: with classify, max |H| per batch and
    |hring|^2; then peak(pg) per peak and field(pg) * dA per field, each
    product a new array (two outputs of a replay may share one buffer)."""
    order = _order((*fields, *peaks))

    def batch(u, v):
        out = geometry._nodes(spec, order, u, v, classify=classify, peaks=peaks, densities=fields)
        head = [np.max(out[1], keepdims=True), out[0]] if classify else []
        sqrt_detg, *rest = out[2:] if classify else out
        k = len(peaks)
        return (*head, *rest[:k], *(d * sqrt_detg for d in rest[k:]))

    return _chunked(batch, us, vs)


# -- the composite lattice --------------------------------------------------------


def _inside_rule(c00, c10, c01, c11, mid):
    """(T + 2 M) / 3 per cell, T the mean density at its corners and M at
    its midpoint: the midpoint (+1/24) and trapezoid (-1/12) rules' h^2
    error terms cancel, so a cubic density's mean comes out exact."""
    return ((c00 + c10 + c01 + c11) / 4.0 + 2.0 * mid) / 3.0


def _crossing(lp, lq, c):
    """Where a level crosses 0 along an edge, as a fraction from the end p
    (lp and lq at the ends, of opposite signs): the root of the quadratic
    through both ends with c half its second difference, in the stable
    form that is the secant root for c = 0, its fallback where |c| >= |lq
    - lp| lets the quadratic turn within the edge."""
    slope = lq - lp
    c = np.where(np.abs(c) < np.abs(slope), c, 0.0)
    b = slope - c
    root = -2.0 * lp / (b + np.copysign(np.sqrt(np.maximum(b * b - 4.0 * c * lp, 0.0)), b))
    return np.clip(root, 0.0, 1.0)


def _cut_rule(level, curve, density, bend):
    """Per triangle, the mean of the density over its part where the level
    is negative, times that part's share of its area (Min & Gibou, J.
    Comput. Phys. 2007). Each argument has shape (3, ...): row i for vertex
    i, and for curve and bend (half the level's and the density's second
    difference) the edge from vertex i to the next. The part is cut at the
    level's zeros along the edges (`_crossing`), where the density takes
    its quadratic's value; it is linear over each piece. 0 is outside."""
    neg = level < 0
    count = np.count_nonzero(neg, axis=0)
    out = np.where(count == 3, np.sum(density, axis=0) / 3.0, 0.0)
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        lone = (neg[i] != neg[j]) & (neg[i] != neg[k])
        li, fi = level[i][lone], density[i][lone]
        at = []
        for x, edge in ((j, i), (k, k)):
            t = _crossing(li, level[x][lone], curve[edge][lone])
            at += [t, fi + t * (density[x][lone] - fi) + bend[edge][lone] * t * (t - 1.0)]
        tj, xj, tk, xk = at
        fj, fk = density[j][lone], density[k][lone]
        # inside: the corner triangle (i, xj, xk) when i is the lone vertex
        # inside, else the quadrilateral (j, k, xk, xj), as the triangles
        # (j, k, xk) and (j, xk, xj)
        out[lone] = np.where(neg[i][lone], tj * tk * (fi + xj + xk),
                             (1.0 - tk) * (fj + fk + xk) + tk * (1.0 - tj) * (fj + xk + xj)) / 3.0
    return out


def _cells(corners, mid, eps):
    """(inside, straddling) masks of cells from |hring| at their corners
    (see `_quads`) and midpoint: all five below eps, or some but not all."""
    below = [x < eps for x in (*corners, mid)]
    inside = np.logical_and.reduce(below)
    return inside, np.logical_or.reduce(below) & ~inside


def _quads(a):
    """The corners (u0, v0), (u1, v0), (u0, v1), (u1, v1) of the cells of
    a corner lattice along its last two axes."""
    return a[..., :-1, :-1], a[..., 1:, :-1], a[..., :-1, 1:], a[..., 1:, 1:]


def _bent(corners, mid):
    """Cells where |hring| bends: its midpoint value departs from the
    corners' mean by more than 1/32 of its change across the cell. A smooth
    level departs by O(h^2) against O(h) (under 0.01 of it on ellipsoid_rev
    at 512^2); the cone |hring| makes at a generic umbilic, by O(h)."""
    c00, c10, c01, c11 = corners
    bend = np.abs(mid - (c00 + c10 + c01 + c11) / 4.0)
    change = np.maximum(np.abs(c10 + c11 - c00 - c01), np.abs(c01 + c11 - c00 - c10)) / 2.0
    return bend > change / 32


def _masked(us, vs, mask):
    """The nodes of a lattice (us a column, vs a row, see `_lattice`) where
    the 2-D mask holds, row-major, as `tape.Rows` over its axes."""
    iu, iv = np.nonzero(mask)
    return tape.Rows(us[:, 0], iu), tape.Rows(vs[0], iv)


def _sublattice(spec, g, cells, m):
    """The m x m sub-lattices of the cells of grid g the 2-D mask selects:
    their corners and their midpoints, each a broadcast pair, u of shape
    (K, n, 1) and v of shape (K, 1, n) for n = m + 1 and m. Node u0 + (i m
    + k) du / m of cell i lies on the lattice of g refined m times, so the
    cell's corners (and, for m odd, its midpoint) are nodes bit for bit."""
    u0, v0, du, dv = _axes(spec, g)
    iu, iv = np.nonzero(cells)
    k = np.arange(m + 1.0)
    return tuple(
        (u0 + (iu[:, None, None] * m + offs[None, :, None]) * (du / m),
         v0 + (iv[:, None, None] * m + offs[None, None, :]) * (dv / m))
        for offs in (k, k[:-1] + 0.5)
    )


def _triangles(corner, mid, cut):
    """The triangles of the cut sub-cells (each corner in turn, the next
    one, the midpoint), of values on (K, m + 1, m + 1) corners and (K, m,
    m) midpoints, as (3, 4, n) vertex rows, and half the second difference
    along each edge: from the sub-lattice corner beyond it (0 for m = 1),
    along a half-diagonal from the opposite corner."""
    m = mid.shape[1]

    def along(axis):
        if m == 1:
            return np.zeros_like(np.diff(corner, axis=axis))
        d2 = np.diff(corner, 2, axis=axis) / 2.0
        return np.take(d2, np.maximum(np.arange(m) - 1, 0), axis=axis)

    cu, cv = along(1), along(2)
    q00, q10, q01, q11 = _quads(corner)
    diag = (q00 + q11) / 2.0 - mid, (q10 + q01) / 2.0 - mid
    ring, edges, halves = (
        np.stack([x[cut] for x in xs])
        for xs in ((q00, q10, q11, q01), (cu[:, :, :-1], cv[:, 1:], cu[:, :, 1:], cv[:, :-1]),
                   (*diag, *diag))
    )
    apex = np.broadcast_to(mid[cut], ring.shape)
    return (np.stack((ring, np.roll(ring, -1, 0), apex)),
            np.stack((edges, np.roll(halves, -1, 0), halves)))


def _cut_cells(spec, g, fields, peaks, cells, m, thresholds):
    """(per threshold, per field the integral of field dA where |hring| <
    eps over its straddling cells, of those the mask selects; max |H| at
    their nodes), thresholds as (eps, straddling mask) pairs. The cells' m
    x m sub-lattices are evaluated once, with the classification and the
    peaks (unread), as every full node of the pass. A sub-cell takes the
    inside rule or, where it straddles, the cut rule on its 4 corner-corner-
    midpoint triangles, with the level |hring| - eps."""
    (h_c, n2_c, *f_c), (h_m, n2_m, *f_m) = (
        _full(spec, fields, *nodes, classify=True, peaks=peaks)
        for nodes in _sublattice(spec, g, cells, m)
    )
    k = len(peaks)
    corner = [a.reshape(-1, m + 1, m + 1) for a in (np.sqrt(np.maximum(n2_c, 0.0)), *f_c[k:])]
    mid = [a.reshape(-1, m, m) for a in (np.sqrt(np.maximum(n2_m, 0.0)), *f_m[k:])]
    _, _, du, dv = _axes(spec, g)
    area = (du / m) * (dv / m)
    out = []
    for eps, straddle in thresholds:
        sel = straddle[cells]
        lc, lm = corner[0][sel] - eps, mid[0][sel] - eps
        inside, cut = _cells(_quads(lc), lm, 0.0)
        level = _triangles(lc, lm, cut)
        sums = []
        for fc, fm in zip(corner[1:], mid[1:]):
            fc, fm = fc[sel], fm[sel]
            whole = np.sum(_inside_rule(*(c[inside] for c in _quads(fc)), fm[inside]))
            part = np.sum(_cut_rule(*level, *_triangles(fc, fm, cut)))
            sums.append(float(whole) * area + float(part) * (area / 4.0))
        out.append(sums)
    return out, float(max(np.max(h_c), np.max(h_m)))


def _corner_weights(cells):
    """Per corner lattice node, how many cells the mask selects it bounds."""
    return sum(np.pad(cells, ((a, 1 - a), (b, 1 - b))) for a in (0, 1) for b in (0, 1))


# -- the quadrature pass ----------------------------------------------------------


@dataclass(frozen=True)
class _Pass:
    """Sums from one level of a pass; every sum is of field * dA.

    whole   per field, over the whole surface; with thresholds only the
            order-2 fields have one (None for the rest, which nothing reads)
    region  per threshold, per field, over the sublevel region
    h_sup   max |H| over every node evaluated: G's corners and midpoints and
            every sub-lattice node (None without thresholds)
    h_odd   max |H| over the base corners whose two indices are both odd,
            the half grid's midpoints when nu and nv are even (None without
            thresholds: no corners are evaluated)
    peaks   per threshold, each peak's max over the base midpoints inside
            the region, None when no midpoint is inside (() without peaks)
    Coarse levels of a ladder carry h_sup, h_odd and peaks None.
    """

    whole: tuple
    region: tuple
    h_sup: float | None
    h_odd: float | None
    peaks: tuple | None


def _level(spec, g, fields, eps_values, peaks, n2_corner, uc, vc):
    """(whole, region, max |H| over its midpoints and sub-lattice nodes,
    peak maxima) of the one-level pass over grid g, given |hring|^2 at its
    corners (n2_corner) and its corner axes uc, vc (see `_lattice`).

    The midpoints get order 2: the order-2 fields' whole-surface sums,
    |hring| and |H|. The nodes of the cells inside any region, and the
    midpoints inside the largest (where the peaks are read), get the
    fields' order for the inside rule. Each straddling cell takes an m x m
    sub-lattice (`_cut_cells`): m = 2^min(depth, 4) where |hring| bends
    (`_bent`), 2^min(depth, 1) elsewhere."""
    area = math.prod(_axes(spec, g)[2:])  # du dv
    us, vs = _lattice(spec, g, centers=True)
    low = [k for k, f in enumerate(fields) if _order((f,)) == 2]
    h_max, mid, *arrays = _full(spec, [fields[k] for k in low], us, vs, classify=True)
    whole = [None] * len(fields)
    for k, a in zip(low, arrays):
        whole[k] = float(np.sum(a)) * area
    del arrays
    h_sup = float(np.max(h_max))
    corners = _quads(np.sqrt(np.maximum(n2_corner, 0.0)))
    mid = np.sqrt(np.maximum(mid, 0.0)).reshape(g.nu, g.nv)
    classes = [_cells(corners, mid, eps) for eps in eps_values]
    inner = mid < max(eps_values)
    near = _corner_weights(np.logical_or.reduce([ins for ins, _ in classes])) > 0
    region = [[0.0] * len(fields) for _ in eps_values]
    peak_max = (None,) * len(eps_values) if peaks else ()
    # the inside cells' corners, then the midpoints inside, each set reduced
    # as evaluated to every threshold's sums by its weight in the inside rule
    for axes, mask, weight in (
        ((uc, vc), near, lambda ins: _corner_weights(ins) / 12.0),
        ((us, vs), inner, lambda ins: ins * (2.0 / 3.0)),
    ):
        if not mask.any():
            continue
        values = _full(spec, fields, *_masked(*axes, mask), classify=True, peaks=peaks)[2:]
        if mask is inner and peaks:
            peak_max = tuple(
                tuple(float(np.max(a[ins])) for a in values[: len(peaks)]) if ins.any() else None
                for ins in (mid[inner] < eps for eps in eps_values)
            )
        for sums, (ins, _) in zip(region, classes):
            w = weight(ins)[mask]
            has = w > 0
            for k, x in enumerate(values[len(peaks) :]):
                sums[k] += float(np.sum(w[has] * x[has])) * area
        del values  # before the next node set is evaluated
    bent = _bent(corners, mid)
    straddle = np.logical_or.reduce([st for _, st in classes])
    for cells, r in ((straddle & ~bent, 1), (straddle & bent, 4)):
        if cells.any():
            parts, h = _cut_cells(spec, g, fields, peaks, cells, 1 << min(g.adaptive_depth, r),
                                  [(eps, st) for eps, (_, st) in zip(eps_values, classes)])
            region = [[a + b for a, b in zip(sums, part)] for sums, part in zip(region, parts)]
            h_sup = max(h_sup, h)
    return tuple(whole), tuple(map(tuple, region)), h_sup, peak_max


def _ladder_pass(spec: ImmersionSpec, grid: GridSpec, fields, eps_values=(), levels=1, peaks=()):
    """The one quadrature driver: every integral of the package goes through it.

    Returns one `_Pass` per level of the doubling ladder that ends at G =
    `grid`, coarsest first (G/2^(levels-1), ..., G/2, G; ValueError when
    `_ladder_fault` rejects it); a single grid is the one-level case.
    Without thresholds each level's midpoints get one geometry evaluation
    at the order the fields declare (the midpoint rule). With them, G's
    corners get one order-2 evaluation; level m's corners are those at
    indices k 2^m, bit for bit, and it runs the one-level pass over G/2^m
    (`_level`), so it equals that pass. Coarse levels carry sums only.
    Each of `peaks`, a function of a PointGeometry batch, is evaluated raw
    (no dA) with the fields; only G's midpoints inside a region count.
    """
    fault = _ladder_fault(grid, levels)
    if fault:
        raise ValueError(f"{levels} doubling levels cannot end at {grid.nu}x{grid.nv}: {fault}")
    if eps_values:
        ug, vg = _lattice(spec, grid, centers=False)
        n2, h = (a.reshape(grid.nu + 1, grid.nv + 1) for a in _classified(spec, ug, vg)[:2])
        h_corner, h_odd = float(np.max(h)), float(np.max(h[1::2, 1::2]))
        del h
    passes = []
    for m in reversed(range(levels)):
        s = 1 << m
        g = GridSpec(grid.nu // s, grid.nv // s, grid.adaptive_depth)
        if not eps_values:
            area = math.prod(_axes(spec, g)[2:])  # du dv
            arrays = _full(spec, fields, *_lattice(spec, g, centers=True))
            whole = tuple(float(np.sum(a)) * area for a in arrays)
            del arrays  # before the next level is evaluated
            passes.append(_Pass(whole, (), None, None, None if m else ()))
            continue
        whole, region, h_sup, peak_max = _level(
            spec, g, fields, eps_values, peaks, n2[::s, ::s], ug[::s], vg[:, ::s]
        )
        fine = (max(h_sup, h_corner), h_odd, peak_max) if m == 0 else (None,) * 3
        passes.append(_Pass(whole, region, *fine))
    return tuple(passes)


# integrands of RegionIntegrals, in field order: vol_omega_c (and area),
# I_grad_hring, I_grad_H, I_grad_H_plain, total_R; the gradient fields
# make the pass order 3
_REGION_FIELDS = (
    AREA,
    lambda pg: pg.nabla_hring_norm2 * pg.hring_norm2,
    lambda pg: pg.gradH_norm2 * pg.hring_norm2,
    lambda pg: pg.gradH_norm2,
    TOTAL_R,
)


def _region_pass(spec: ImmersionSpec, eps_values, grid: GridSpec, levels=1, peaks=()):
    """(one RegionIntegrals per threshold for each ladder level, coarsest
    first; the fine grid's odd-corner max |H|; its per-threshold peak
    maxima, see `_Pass`) from one pass. Coarse levels carry H_sup None."""
    passes = _ladder_pass(spec, grid, _REGION_FIELDS, eps_values, levels, peaks)
    ladder = []
    for p in passes:
        area, _, _, _, total_R = p.whole
        ladder.append(tuple(
            RegionIntegrals(eps, vol, gh, gH, gHp, area, total_R, p.h_sup)
            for eps, (vol, gh, gH, gHp, _) in zip(eps_values, p.region)
        ))
    return tuple(ladder), passes[-1].h_odd, passes[-1].peaks


def _field_ladder(spec, field, grid, region, levels):
    """The integral of field dA over region on each level of a doubling
    ladder ending at grid, coarsest first."""
    eps_values = () if region.kind == "all" else (region.eps,)
    passes = _ladder_pass(spec, grid, (field,), eps_values, levels)
    return [p.region[0][0] if eps_values else p.whole[0] for p in passes]


def _richardson(values, max_order=math.inf):
    """(observed order, error estimate) per level of a doubling ladder.

    The first two levels get (None, None). At level k the order p comes
    from the ratio of the last two differences; non-monotone differences
    give "unstable". The error of v_k is |v_k - v_{k-1}| / (2^p - 1), or the
    plain difference when unstable, or 0 when the last difference is 0. An
    order above max_order (the rule's own) marks the level before as
    pre-asymptotic: the last difference is then the one before over
    2^max_order, and p max_order.
    """
    out = [(None, None)] * min(2, len(values))
    for k in range(2, len(values)):
        d_prev = values[k - 1] - values[k - 2]
        d_last = values[k] - values[k - 1]
        if d_last == 0.0:
            out.append((math.inf, 0.0))
        elif abs(d_last) >= abs(d_prev):
            out.append(("unstable", abs(d_last)))
        else:
            order = math.log2(abs(d_prev) / abs(d_last))
            p, d = (order, abs(d_last)) if order <= max_order else (
                max_order, abs(d_prev) / 2.0**max_order)
            out.append((order, d / (2.0**p - 1.0)))
    return out


# -- public operations -----------------------------------------------------------


def integrate(spec: ImmersionSpec, field, grid: GridSpec, region: Region = ALL) -> float:
    """Midpoint-rule integral of field(pg) dA over the chosen region.

    field maps a PointGeometry batch to a scalar array (or a constant); a
    `Field` also names the jet order it needs, a bare callable gets order 3.
    """
    return _field_ladder(spec, field, grid, region, 1)[0]


def region_integrals(spec: ImmersionSpec, eps_list, grid: GridSpec):
    """One RegionIntegrals per threshold, all from a single pass over the grid.

    eps_list must be strictly decreasing within (0, 1]. Every base corner
    and midpoint gets an order-2 evaluation (area and total_R by the
    midpoint rule, the classification, H_sup). Full geometry is evaluated
    once at the corners and midpoints of the cells inside the largest
    threshold's region, which every inside cell reads, and per threshold
    at the nodes of its straddling cells' sub-lattices (see `_level`).
    """
    eps_values = [float(e) for e in eps_list]
    fault = _thresholds_fault(eps_values)
    if fault:
        raise ValueError(fault)
    return _region_pass(spec, eps_values, grid)[0][-1]


def _chi(total_R):
    """(estimate, rounded, faults) of chi from the integral of R dA: total_R
    / 4 pi, its nearest integer, and a message per sign of a coarse grid:
    the two lie over 0.05 apart (topology makes chi an integer), or the
    integer is odd (each closed chart is torus-like or has polar caps)."""
    est = total_R / (4.0 * math.pi)
    rounded = int(round(est))
    faults = [fault for fault, found in (
        ("is far from an integer", abs(est - rounded) > 0.05),
        (f"rounds to the odd value {rounded}, which no closed chart gives", rounded % 2),
    ) if found]
    return est, rounded, [f"Euler characteristic estimate {est:.4f} {f}" for f in faults]


def euler_characteristic(spec: ImmersionSpec, grid: GridSpec):
    """(chi_estimate, chi_rounded) from the total curvature integral.

    chi_estimate = (integral of R dA) / 4 pi. Warns when the estimate is
    not within 0.05 of an integer or rounds to an odd one (see `_chi`).
    """
    if not spec.is_closed:
        raise ValueError(
            f"'{spec.name}' is not closed; the Euler characteristic needs a closed surface"
        )
    chi, rounded, faults = _chi(integrate(spec, TOTAL_R, grid, ALL))
    for fault in faults:
        message = f"{fault}; the grid is likely too coarse for this surface"
        warnings.warn(message, RuntimeWarning, stacklevel=2)
    return chi, rounded


def convergence_study(
    spec: ImmersionSpec, field, region: Region, grid: GridSpec, levels: int = 3
) -> ConvergenceStudy:
    """Observed-order diagnostics across the doubling ladder of `levels`
    levels ending at grid, G/2^(levels-1), ..., G/2, G.

    Needs at least three levels, and a ladder `_ladder_fault` accepts; one
    pass evaluates them all (see `_ladder_pass`). Orders and error
    estimates per level come from `_richardson`, a sublevel region's
    crediting no order above the interface's; the study reports those of
    the finest level.
    """
    if levels < 3:
        raise ValueError("convergence study needs at least 3 grid levels")
    values = _field_ladder(spec, field, grid, region, levels)
    grids = [
        GridSpec(grid.nu >> m, grid.nv >> m, grid.adaptive_depth) for m in reversed(range(levels))
    ]
    top = math.inf if region.kind == "all" else _INTERFACE_ORDER
    rows = tuple(
        ConvergenceRow(g, v, order, err)
        for g, v, (order, err) in zip(grids, values, _richardson(values, top))
    )
    return ConvergenceStudy(
        rows=rows,
        value=values[-1],
        error_estimate=rows[-1].error_estimate,
        order=rows[-1].estimated_order,
    )
