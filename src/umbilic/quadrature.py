"""Midpoint quadrature on immersed surfaces, with sublevel-set adaptivity.

All integrals are taken against the induced area element dA = sqrt(det g)
du dv on the chart rectangle (singular margins shaved off non-periodic
axes). The sublevel region at a threshold eps collects the points with
|hring| < eps, strictly; boundary ties count as outside. Cells crossed by
the |hring| = eps interface are subdivided recursively and leaf cells are
classified by their center value; at max depth every child of a
straddling cell is such a leaf, so only its center is probed. One level
earlier, a child whose outer corner (its cell's corner) and inner corner
(its cell's center) disagree straddles for sure, so it is probed only
where a coarser ladder level's leaves read its center.

Every integral comes from one pass (`_ladder_pass`): geometry once at each
base midpoint, order-2 classification values once at each base corner,
then per threshold the refinement of its straddling cells. Without
thresholds the midpoints get the order the fields declare. With them they
get order 2, which gives the order-2 fields' whole-surface sums, the
center classification and sup |H|, and the fields' order only where the
center lies inside the largest threshold's region, the one place a region
sum reads a midpoint. One pass serves every field and threshold of a
call, and up to KF levels of a Richardson ladder G/4, G/2, G: the coarse
grids' corners, midpoints and probes lie on G's lattice, so each node is
evaluated once. A longer ladder adds a second pass, over G/2^KF.

Refinement resolves the region's indicator; the integrand is smooth on
the scale of a base cell. So full geometry is evaluated at those base
midpoints and at nodes of G's refinement tree. One rule serves every
inside leaf: it takes the field densities (values per unit area) of the
tree node that holds it at most KF halvings below its level's base cell,
itself when it is that shallow, times its own area element, which (like
its |H|) comes from its center probe, an order-2 classification node.
After each threshold's tree, one node-kernel call evaluates its nodes.

An integrand is a `Field`: a function of a PointGeometry batch plus the
lowest jet order that fills what it reads. A bare callable counts as
order 3. `AREA` and `TOTAL_R` need only values (order 2), so passes over
them alone skip the order-3 jets and the covariant derivatives. Every
node replays the node kernel (`geometry._nodes`): |hring|^2 and |H| where
it classifies, sqrt(det g), the peaks and the field densities, which the
pass weighs by dA (a tree node's by each reading leaf's) outside the
tape. Every node is a row of an axis table. A base lattice (corners or
midpoints) reaches the kernel as a column of u and a row of v, never
meshed (`_lattice`); the inside midpoints and the straddling cells'
lower corners are the lattice nodes a mask selects, each a row of both
axes (`_masked`, `tape.Rows`); a tree level's probes, leaves and nodes
are rows of that level's tables of lower-corner u and v at a few
offsets, which `_refined_leaves` carries down from G's corner axes. One
batch loop cuts every node set into whole rows (`_chunked`), and the
tape alone picks how a batch replays (`tape.Tape.replay`): the u-only
and v-only calls once per lattice row and column, or once per table row
wherever a table holds at most half a batch's nodes.

Summation uses a fixed traversal order (base cells row-major, then refined
children level by level) with numpy's pairwise reduction, so identical
inputs give bit-identical results.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from . import geometry, tape
from .surfaces import ImmersionSpec, interior_axes

# nodes per evaluation batch; bounds peak memory of the jet pipeline
CHUNK = 16384

# fewest base cells per axis a GridSpec accepts
MIN_CELLS = 16

# An inside leaf more than KF halvings below its level's base cell takes
# its integrand density (field value per unit area) from its ancestor
# exactly KF halvings below that base cell, times its own area element:
# refinement resolves the region's indicator, the integrand is smooth on
# the scale of a base cell. 3 is the measured floor: at KF = 2 the
# I_grad_H_plain error on ellipsoid_rev(1, 2) at 512^2, depth 6, eps 0.05
# leaves its oracle bound (1.0e-4 against 1.7e-5). A pass spans at most
# KF ladder levels, so that ancestor is a node of G's refinement tree.
KF = 3

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
    """Uniform base grid: nu x nv cells, one midpoint node per cell.

    adaptive_depth bounds the recursive subdivision of cells straddling
    the region interface: after that many halvings, the children are
    leaves classified by their center, straddling or not. 0 disables
    refinement (straddling cells are then classified by their center like
    any other leaf).
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
    H_sup           max |H| over the base midpoints and every threshold's inside leaves
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


# -- sublevel-set cell classification --------------------------------------------


def _split(k00, k10, k01, k11, kc):
    """(all inside, uniform) masks of cells from the inside flags of their
    corners (u0, v0), (u1, v0), (u0, v1), (u1, v1) and their center; a
    cell that is not uniform straddles."""
    all_in = k00 & k10 & k01 & k11 & kc
    return all_in, all_in | ~(k00 | k10 | k01 | k11 | kc)


def _base_split(inside_corner, inside_center):
    """Uniform-in and straddling masks over base cells, plus the corner masks."""
    corners = (inside_corner[:-1, :-1], inside_corner[1:, :-1],
               inside_corner[:-1, 1:], inside_corner[1:, 1:])
    all_in, uniform = _split(*corners, inside_center)
    return all_in.ravel(), ~uniform.ravel(), tuple(a.ravel() for a in corners)


def _masked(us, vs, mask):
    """The nodes of a lattice (us a column, vs a row, see `_lattice`) where
    the 2-D mask holds, row-major, as `tape.Rows` over its axes; a mask of
    base cells over the corner lattice selects their lower corners."""
    iu, iv = np.nonzero(mask)
    return tape.Rows(us[:, 0], iu), tape.Rows(vs[0], iv)


class _Leaves(NamedTuple):
    """One batch of refined leaves of one size.

    us, vs      leaf centers, each the leaf's child-center probe, as
                `tape.Rows` views of the level's tables
    area        leaf area
    inside      center inside the region
    lo, hi      the ladder levels lo..hi (hi per leaf) the leaves count for
    depth       halvings below the base cell of G (the finest level)
    abs_h, sqrt_detg
                |H| and the area element at the centers, from the probes
    ids         per G-depth, the id of each leaf's tree node there, itself
                or an ancestor (see `_refined_leaves`)
    """

    us: tape.Rows
    vs: tape.Rows
    area: float
    inside: np.ndarray
    lo: int
    hi: np.ndarray
    depth: int
    abs_h: np.ndarray
    sqrt_detg: np.ndarray
    ids: dict


def _compact(table, index):
    """(table rows that index reads, in table order; index into them)."""
    used = np.zeros(table.size, dtype=bool)
    used[index] = True
    if used.all():
        return table, index
    return table[used], (np.cumsum(used) - 1)[index]


def _offsets(table, *steps):
    """table + step for each step, one table after another; a step None is
    table itself."""
    return np.concatenate([table if s is None else table + s for s in steps])


# the probe blocks of a level (edge midpoints L10 L01 L21 L12, then the
# child centers M00 M10 M01 M11) as offsets into the tables that
# `_offsets` makes of the cells' lower corners with the steps (q, 3q,
# None, h, D): per block, the offset in u and in v
_PROBE_U = (3, 2, 4, 3, 0, 1, 0, 1)
_PROBE_V = (2, 3, 3, 4, 0, 0, 1, 1)


def _refined_leaves(spec, eps, state, du, dv, depth, nodes=None, carried=()):
    """Subdivide straddling cells; yield their leaves as `_Leaves` batches.

    state holds the straddling base cells: lower corners (u0s, v0s, as
    `tape.Rows`), the inside-booleans of their four corners and center,
    and the membership column mm. One tree serves a Richardson ladder,
    whose level m (grid G/2^m) ends its tree m levels earlier: levels
    0..mm still split the cell, and a leaf counts for the levels lo..hi
    (hi per leaf).

    Each level r below depth-2 evaluates 8 new probe points per cell (edge
    midpoints, child centers); children whose five probes agree become
    leaves of levels 0..mm, the rest recurse with mm at most depth-2-r, and
    where mm = depth-1-r they are also center-classified leaves of level mm.
    The last level (mm is 0 there) evaluates only the 4 child centers, and
    every child is a leaf classified by its center. Depth 0 yields nothing.
    At level depth-2 a child is open when its outer corner (a corner of the
    cell) and inner corner (the cell's center) agree; any other child
    straddles, whatever its probes say, and its own corners are never
    read again. So that level probes an edge midpoint only for a cell
    with an open child beside it, and a child center only for an open
    child or where mm = 1 (the leaves of level 1 read it); nothing reads a
    probe it skips, and with no open child and mm = 0 it probes no point.
    Of each level's probes only the child centers' |H| and sqrt(det g) are
    kept, for the leaves; the rest is freed once read.

    A cell carries its lower corner not as coordinates but as a row index
    into the level's table of lower-corner u, and one into that of v: G's
    corner axes at the base (u0s, v0s), then per level table + a h for a =
    0, 1, the expression a child's corner u0 + a h takes, each level's
    tables first compacted to the rows a cell reads (`_compact`). So
    table[row] is the cell's corner bit for bit at every level, and every
    probe is a row of the level's offset tables (table + q, table + 3 q,
    table, table + h, table + D; `_PROBE_U`, `_PROBE_V`) holding the bits
    its coordinates would. Probes, leaves and tree nodes are all
    `tape.Rows` of these tables, so no coordinate is gathered and the
    probes' u-only and v-only calls run once per table row.

    The children at G-depths d <= KF are the nodes of the tree, numbered
    by position: child c of cell i, of the n cells split there, gets id
    c n + i. A dict nodes receives each such depth's centers once, a
    `tape.Rows` pair (us, vs) in id order, at nodes[d]. A leaf at depth
    d <= KF carries its own id; below a node at a depth in carried, the
    cells carry its id down to their leaves. Only those depths are
    carried, no other id. Traversal order is fixed, so the caller's
    accumulation is deterministic.
    """
    u0s, v0s, c00, c10, c01, c11, cc, mm = state
    tu, ru, tv, rv = u0s.table, u0s.index, v0s.table, v0s.index
    eps2 = eps * eps
    DU, DV = du, dv
    ids = {}
    for level in range(depth):
        n = ru.size
        if n == 0:
            return
        (tu, ru), (tv, rv) = _compact(tu, ru), _compact(tv, rv)
        hu, hv = DU / 2.0, DV / 2.0
        qu, qv = DU / 4.0, DV / 4.0
        last = level == depth - 1
        # per axis, the offset tables; the child centers lead, at offsets
        # 0 (q) and 1 (3q)
        pu, pv = (
            _offsets(t, q, 3 * q, *(() if last else (None, h, D)))
            for t, q, h, D in ((tu, qu, hu, DU), (tv, qv, hv, DV))
        )
        T, S = tu.size, tv.size
        cu, cv = pu[: 2 * T], pv[: 2 * S]  # the child centers' tables

        def center(c, sel=slice(None)):  # the child (a, b) at c = a + 2 b: its center
            return tape.Rows(cu, (c % 2) * T + ru[sel]), tape.Rows(cv, (c // 2) * S + rv[sel])

        def centers():  # every child's center, child c's at c n + i
            rows = [center(c) for c in range(4)]
            return (tape.Rows(cu, np.concatenate([r.index for r, _ in rows])),
                    tape.Rows(cv, np.concatenate([r.index for _, r in rows])))

        child = level + 1
        if child <= KF and nodes is not None:
            nodes[child] = centers()

        def held(c, sel):  # the carried ids of child c of the cells sel, and its own
            out = {d: x[sel] for d, x in ids.items()}
            if child <= KF:
                out[child] = np.arange(c * n, (c + 1) * n, dtype=np.int32)[sel]
            return out

        if last:
            n2, h, sdg = _classified(spec, *centers())
            for k, (kc, hk, sk) in enumerate(zip(*(np.split(a, 4) for a in (n2 < eps2, h, sdg)))):
                yield _Leaves(*center(k), hu * hv, kc, 0, mm, depth, hk, sk, held(k, slice(None)))
            return
        ends = mm == depth - 1 - level
        # keep[i] selects the cells that probe block i (None: all)
        keep = [None] * 8
        if level == depth - 2:
            # every straddling child splits once more into center-classified
            # leaves, so a child whose outer corner and inner corner (the
            # cell center) disagree needs no probe. Probe an edge midpoint
            # for an open child beside it, a child center for an open child
            # or where a coarse level's tree ends here (its leaves read it).
            o = [k == cc for k in (c00, c10, c01, c11)]
            keep = [o[0] | o[1], o[0] | o[2], o[1] | o[3], o[2] | o[3], *(x | ends for x in o)]
        iu, iv = (
            np.concatenate([off * size + (r if k is None else r[k]) for k, off in zip(keep, offs)])
            for r, size, offs in ((ru, T, _PROBE_U), (rv, S, _PROBE_V))
        )
        if iu.size:
            n2, h, sdg = _classified(spec, tape.Rows(pu, iu), tape.Rows(pv, iv))
        else:  # level depth-2 with no open child and no coarse tree ending here
            n2 = h = sdg = np.empty(0)
        del iu, iv
        cut = np.cumsum([n if k is None else np.count_nonzero(k) for k in keep])
        flags = np.split(n2 < eps2, cut[:-1])
        del n2
        for i, k in enumerate(keep):
            if k is not None:  # an unprobed flag reads False, on straddling children only
                full = np.zeros(n, dtype=bool)
                full[k] = flags[i]
                flags[i] = full
        L10, L01, L21, L12, *M = flags
        # the child centers' |H| and sqrt(det g), over the cells keep[4 + c] selects
        h, sdg = (np.split(a[cut[3] :].copy(), cut[4:-1] - cut[3]) for a in (h, sdg))
        lattice = {
            (0, 0): c00, (1, 0): L10, (2, 0): c10,
            (0, 1): L01, (1, 1): cc, (2, 1): L21,
            (0, 2): c01, (1, 2): L12, (2, 2): c11,
        }
        next_parts, next_ids = [], []
        for a, b in ((0, 0), (0, 1), (1, 0), (1, 1)):
            c = a + 2 * b
            k00 = lattice[(a, b)]
            k10 = lattice[(a + 1, b)]
            k01 = lattice[(a, b + 1)]
            k11 = lattice[(a + 1, b + 1)]
            kc = M[c]
            all_in, uniform = _split(k00, k10, k01, k11, kc)

            def leaves(sel, inside, lo):
                probed = sel if keep[4 + c] is None else sel[keep[4 + c]]
                return _Leaves(
                    *center(c, sel), hu * hv, inside[sel], lo, mm[sel], child,
                    h[c][probed], sdg[c][probed], held(c, sel),
                )

            if uniform.any():
                yield leaves(uniform, all_in, 0)
            st = ~uniform
            last_leaves = st & ends
            if last_leaves.any():
                yield leaves(last_leaves, kc, depth - 1 - level)
            # the child's lower corner, corner + a h, as a row of the next
            # level's tables: row r + a T of the tables (corner + 0 h,
            # corner + 1 h)
            next_parts.append(
                ((ru + a * T)[st], (rv + b * S)[st], k00[st], k10[st], k01[st], k11[st],
                 kc[st], np.minimum(mm[st], depth - 2 - level))
            )
            next_ids.append({d: x for d, x in held(c, st).items() if d in carried})
        ru, rv, c00, c10, c01, c11, cc, mm = (
            np.concatenate([p[k] for p in next_parts]) for k in range(8)
        )
        tu, tv = _offsets(tu, 0 * hu, 1 * hu), _offsets(tv, 0 * hv, 1 * hv)
        ids = {d: np.concatenate([x[d] for x in next_ids]) for d in next_ids[0]}
        DU, DV = hu, hv


def _joined(parts):
    """`tape.Rows` parts as one, their nodes in order: the tables one after
    another, each index shifted past the tables before its own."""
    starts = np.cumsum([0, *(p.table.size for p in parts[:-1])])
    return tape.Rows(np.concatenate([p.table for p in parts]),
                     np.concatenate([p.index + start for p, start in zip(parts, starts)]))


def _add(sums, arrays, sel, cell_area):
    """sums[k] += cell_area * (sum of arrays[k] over the mask sel)."""
    if sel.any():
        for k, a in enumerate(arrays):
            sums[k] += float(np.sum(a[sel])) * cell_area


def _base_cells(
    j, levels, depth, inside_corner, inside_center, held, arrays, inner, cell_area, sums
):
    """Classify level j's base cells and add them to each level's sums (one
    per-field list per level). Level j counts its uniform-inside cells; a
    coarser level m holds a cell when it split the parent (held, the level
    j+1 membership, >= m) and counts it when uniform inside or, at its
    maximum depth m = j + depth, when its center is inside, valued from
    level j's midpoint arrays (field * dA). Those hold, in order, only the
    midpoints of the mask inner, which covers every cell counted here. A
    pass spans at most KF levels, so such a cell is less than KF halvings
    below level m's base cell and keeps its own value. Returns (straddle mask, corner masks, membership:
    the coarsest level splitting each cell, -1 for none)."""
    all_in, straddle, corners = _base_split(inside_corner, inside_center)
    top = np.full(all_in.size, j, dtype=np.int8)
    if held is not None:
        top = np.maximum(top, held.repeat(2, 0).repeat(2, 1).ravel())
    for m in range(j, levels):
        _add(sums[m], arrays, (all_in & (top >= m))[inner], cell_area)
        if m == j + depth:
            _add(sums[m], arrays, (straddle & inside_center.ravel() & (top >= m))[inner], cell_area)
    mm = np.where(straddle, np.minimum(top, j + depth - 1), -1).astype(np.int8)
    return straddle, corners, mm


def _tree_sums(spec, grid, fields, peaks, eps, state, levels, sums):
    """Add the inside leaves of G's refinement tree at threshold eps to
    each level's sums (one per-field list per level, levels <= KF); return
    the max |H| over the inside leaves of G itself (-inf for none).

    One rule values every inside leaf: level k counts a leaf at G-depth D
    (see `_Leaves`) as the field densities of the tree node at G-depth
    min(D, KF - k) that holds it (the leaf itself when D <= KF - k, else
    its ancestor) times the leaf's area and sqrt(det g) from its probe.
    These weights add up per (level, depth) on node ids, never as per-leaf
    arrays. After the tree, one node-kernel call evaluates every node that
    has weight, with the pass's peaks (unread here) so that it replays the
    inside midpoints' kernel; then each (level, depth) adds one sum.
    """
    _, _, du, dv = _axes(spec, grid)
    nodes = {}  # per G-depth <= KF, the centers of the tree nodes there
    weights = {}  # per (level, G-depth), one weight per node there
    h_sup = -math.inf
    carried = [KF - k for k in range(levels)]
    for leaf in _refined_leaves(spec, eps, state, du, dv, grid.adaptive_depth, nodes, carried):
        inside = leaf.inside
        if inside.any():
            if leaf.lo == 0:
                h_sup = max(h_sup, float(np.max(leaf.abs_h[inside])))
            hi = leaf.hi[inside]
            w = leaf.sqrt_detg[inside] * leaf.area
            for k in range(leaf.lo, levels):
                sel = hi >= k
                if not sel.any():
                    continue
                d = min(leaf.depth, KF - k)
                ids = leaf.ids[d][inside][sel]
                add = np.bincount(ids, w[sel], nodes[d][0].size)
                weights[k, d] = weights.get((k, d), 0.0) + add
        # the leaf's centers are views of its level's tables: let them go
        # before the next level probes
        del leaf
    if not weights:
        return h_sup
    hit = {d: np.zeros(nodes[d][0].size, dtype=bool) for d in nodes}
    for (_, d), w in weights.items():
        hit[d] |= w > 0
    us, vs = (_joined([nodes[d][i][hit[d]] for d in nodes]) for i in (0, 1))
    order = _order((*fields, *peaks))

    def batch(u, v):  # the densities; sqrt(det g) and the peaks go unread
        out = geometry._nodes(spec, order, u, v, classify=False, peaks=peaks, densities=fields)
        return out[1 + len(peaks) :]

    cut = np.cumsum([np.count_nonzero(x) for x in hit.values()])[:-1]
    density = dict(zip(nodes, zip(*(np.split(a, cut) for a in _chunked(batch, us, vs)))))
    for (k, d), w in sorted(weights.items()):
        has = w > 0
        for f, x in enumerate(density[d]):
            sums[k][f] += float(np.sum(x[has[hit[d]]] * w[has]))
    return h_sup


# -- the quadrature pass ----------------------------------------------------------


@dataclass(frozen=True)
class _Pass:
    """Sums from one level of a pass; every sum is of field * dA.

    whole   per field, over the whole surface; with thresholds only the
            order-2 fields have one (None for the rest, which nothing reads)
    region  per threshold, per field, over the sublevel region
    h_sup   max |H| over the base midpoints and every threshold's inside leaves
            (None without thresholds: no node outputs |H|, nothing reads it)
    h_odd   max |H| over the base corners whose two indices are both odd,
            which are the base midpoints of the half grid when nu and nv
            are even (None without thresholds: no corners are evaluated)
    peaks   per threshold, each peak's max over the base midpoints inside
            the region, None when no midpoint is inside (() without peaks)
    Coarse levels of a ladder carry h_sup, h_odd and peaks None.
    """

    whole: tuple
    region: tuple
    h_sup: float | None
    h_odd: float | None
    peaks: tuple | None


def _ladder_pass(spec: ImmersionSpec, grid: GridSpec, fields, eps_values=(), levels=1, peaks=()):
    """The one quadrature driver: every integral of the package goes through it.

    Returns one `_Pass` per level of the doubling ladder that ends at G =
    `grid`, coarsest first (G/2^(levels-1), ..., G/2, G; ValueError when
    `_ladder_fault` rejects it); a single grid is the one-level case. Without
    thresholds each level's midpoints get one geometry evaluation at the
    order the fields declare. With thresholds they get one at order 2, for
    the order-2 fields' whole-surface sums, |hring|^2 and |H|, and one at
    the fields' order (with the peaks) only where |hring| is below the
    largest threshold, a set that holds every midpoint a region sum reads
    since the regions are nested. G's corners get one order-2 evaluation,
    and level m reads G's lattice: its corners are G's corners at indices
    k 2^m, its midpoints those at 2^(m-1) + k 2^m, bit for bit. Its
    straddling cells descend through cells that lattice has classified,
    then ride G's refinement tree (see `_refined_leaves`), so each probe
    and inside leaf is evaluated once. An inside leaf takes the field
    densities of the node of G's tree that holds it at most KF halvings
    below its level's base cell, one call per threshold (`_tree_sums`).
    Coarse levels are reduced, and their arrays freed, before G's
    midpoints are evaluated. Coarse levels carry sums only: their sup |H|
    would need per-node |H| arrays, and nothing reads it. Each of `peaks`,
    a function of a PointGeometry batch, is evaluated raw (no dA) with the
    fields, so those nodes replay one kernel; only G's midpoints' count.

    So one pass spans at most KF levels. A longer ladder runs as two: the
    KF finest levels over G, and the rest as a ladder of its own over
    G/2^KF, which re-probes about 1/2^KF of G's tree.
    """
    fault = _ladder_fault(grid, levels)
    if fault:
        raise ValueError(f"{levels} doubling levels cannot end at {grid.nu}x{grid.nv}: {fault}")
    if levels > KF:
        low = GridSpec(grid.nu >> KF, grid.nv >> KF, grid.adaptive_depth)
        coarse = _ladder_pass(spec, low, fields, eps_values, levels - KF, peaks)
        coarse = tuple(replace(p, h_sup=None, h_odd=None, peaks=None) for p in coarse)
        return coarse + _ladder_pass(spec, grid, fields, eps_values, KF, peaks)
    depth = grid.adaptive_depth
    classify = bool(eps_values)
    whole = [None] * levels
    sums = [[[0.0] * len(fields) for _ in eps_values] for _ in range(levels)]
    held = [None] * len(eps_values)
    h_sup = h_odd = None
    peak_max = ()
    if classify:
        ug, vg = _lattice(spec, grid, centers=False)
        n2_corner, h_corner, _ = _classified(spec, ug, vg)
        n2_corner = n2_corner.reshape(grid.nu + 1, grid.nv + 1)
        h_odd = float(np.max(h_corner.reshape(grid.nu + 1, grid.nv + 1)[1::2, 1::2]))
        del h_corner
        low = [k for k, f in enumerate(fields) if _order((f,)) == 2]
        top_eps = max(eps_values)

    for m in reversed(range(levels)):
        s = 1 << m
        g = GridSpec(grid.nu // s, grid.nv // s, depth)
        _, _, du, dv = _axes(spec, g)
        cell_area = du * dv
        us, vs = _lattice(spec, g, centers=True)
        if classify:
            h_max, n2_center, *arrays = _full(spec, [fields[k] for k in low], us, vs, classify=True)
            whole[m] = [None] * len(fields)
            for k, a in zip(low, arrays):
                whole[m][k] = float(np.sum(a)) * cell_area
            if m == 0:
                h_sup = float(np.max(h_max))
            inner = n2_center < top_eps * top_eps
            if not peaks and _order(fields) == 2:
                inner[:] = True  # the order-2 evaluation already filled every field
            elif inner.any():
                arrays = _full(spec, fields, *_masked(us, vs, inner.reshape(g.nu, g.nv)),
                               peaks=peaks)
            else:
                arrays = [np.empty(0)] * (len(peaks) + len(fields))
            values, arrays = arrays[: len(peaks)], arrays[len(peaks) :]
            if m == 0 and peaks:
                peak_max = tuple(
                    tuple(float(np.max(a[ins])) for a in values) if ins.any() else None
                    for ins in (n2_center[inner] < eps * eps for eps in eps_values)
                )
        else:
            arrays = _full(spec, fields, us, vs)
            whole[m] = [float(np.sum(a)) * cell_area for a in arrays]
        del us, vs
        for i, eps in enumerate(eps_values):
            inside_center = (n2_center < eps * eps).reshape(g.nu, g.nv)
            sums_i = [level[i] for level in sums]
            straddle, corners, mm = _base_cells(
                m, levels, depth, n2_corner[::s, ::s] < eps * eps, inside_center,
                held[i], arrays, inner, cell_area, sums_i,
            )
            if m:
                held[i] = mm.reshape(g.nu, g.nv)
                continue
            state = (
                *_masked(ug, vg, straddle.reshape(grid.nu, grid.nv)),
                *(c[straddle] for c in corners), inside_center.ravel()[straddle], mm[straddle],
            )
            h_sup = max(h_sup, _tree_sums(spec, grid, fields, peaks, eps, state, levels, sums_i))
        del arrays
    fine = (h_sup, h_odd, peak_max)
    return tuple(
        _Pass(tuple(whole[m]), tuple(map(tuple, sums[m])), *(fine if m == 0 else (None,) * 3))
        for m in reversed(range(levels))
    )


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


def _richardson(values):
    """(observed order, error estimate) per level of a doubling ladder.

    The first two levels get (None, None). At level k the order comes from
    the ratio of the last two differences; non-monotone differences give
    "unstable". The error of v_k is |v_k - v_{k-1}| / (2^p - 1), or the
    plain difference when unstable, or 0 when the last difference is 0.
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
            out.append((order, abs(d_last) / (2.0**order - 1.0)))
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

    eps_list must be strictly decreasing within (0, 1]. Every base midpoint
    gets an order-2 evaluation (area, total_R, the classification, H_sup).
    Full geometry is evaluated once at every base midpoint inside the
    largest threshold's region and, in one call per threshold, at every
    inside leaf at most KF halvings deep and every depth-KF ancestor of
    deeper inside leaves, which take its field values per unit area times
    their own area element. Classification and refinement probes use the
    order-2 kernel, which also gives each leaf its area element and |H|.
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

    Needs at least three levels, and a ladder `_ladder_fault` accepts: up
    to KF levels are one pass, whose levels share one refinement tree (see
    `_ladder_pass`). Orders and error estimates per level come from
    `_richardson`; the study reports those of the finest level.
    """
    if levels < 3:
        raise ValueError("convergence study needs at least 3 grid levels")
    values = _field_ladder(spec, field, grid, region, levels)
    grids = [
        GridSpec(grid.nu >> m, grid.nv >> m, grid.adaptive_depth) for m in reversed(range(levels))
    ]
    rows = tuple(
        ConvergenceRow(g, v, order, err)
        for g, v, (order, err) in zip(grids, values, _richardson(values))
    )
    return ConvergenceStudy(
        rows=rows,
        value=values[-1],
        error_estimate=rows[-1].error_estimate,
        order=rows[-1].estimated_order,
    )
