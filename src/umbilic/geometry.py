"""Curvature of an immersed surface chart in a constant-curvature ambient space.

The ambient space of curvature ``c`` is realized as (a subset of) R^3 with
the conformal metric lambda(x)^2 * Euclidean, lambda = 1/(1 + (c/4)|x|^2).
One code path covers flat, spherical, and hyperbolic ambients; c = 0 makes
lambda identically 1 and every ambient correction vanish exactly.

Evaluation runs in two stages. Stage one is `_forms` at jet order 2, 3
or 4: one pass of jet arithmetic from the chart to the first and second
fundamental forms, H, the trace-free part and its squared norm
(Taylor-mode propagation, as in Griewank & Walther, *Evaluating
Derivatives*, 2008). Each intermediate carries the order its arithmetic
gives, and `_forms` returns the raw partials a `PointGeometry` reads, cut
in one place (`_reads`): g as values at order 2 and through d2g from
order 3 on, the rest through order - 2. |hring|^2 is tr(B^2) with the
mixed tensor B = g^-1 hring.

Stage two, `_Geometry`, is explicit 2x2 algebra stated once per
component: each tensor is a dict from index tuples to one array per
component (g as g00, g01, g10 = g01, g11; Gamma^k_ij as [k, i, j]), and
each contraction a two-term sum per component (`_apply`, `_nabla`,
`_inner`, `_norm_sq`): det g and its guard, the metric inverse, R, and
from order 3 on Christoffel symbols, covariant derivatives and norms,
each computed on first read. The residuals of the identities under test
use the same helpers: `identity_residuals` and
`intrinsic_scalar_curvature` need order-3 geometry, `bochner_residual`
order 4; each raises ValueError on less.

Every evaluation is a recorded kernel (`_kernel`): a tape (`tape.py`) per
(surface, jet order, kernel) from (u, v) to what its caller reads,
recorded on the first node of the first non-empty batch and replayed, bit
for bit the same values without the Python work, on every batch after.
(u, v) reach the tape as they are, and the tape alone picks how a batch
replays: flat, or once per row and column of a lattice (see
`tape.Tape.replay`).
The kernels are the quadrature's node kernel (`_nodes`, which
`classification_values` runs at order 2), the normalized residuals of
`identities`, and stage one alone ("forms": `_forms`' flat list, which
`PointGeometry` reads). A recording runs `_forms` and stage two in one
pass, so the calls no output reads are never computed. The domain checks
of the jet path and the degenerate-metric check are guards on the tape.
An empty batch, a computation the recorder refuses and a batch that
fails a guard run without the tape, on the "forms" kernel's stage one;
that kernel falls back to `_forms`, which raises the jet path's error.

A `PointGeometry` is a read-only view of one `_Geometry`, the one public
form of stage two: `point_geometry` and `fundamental_forms` return one,
and the node kernel hands one to its raw values and integrands.

The jet order decides which fields a `PointGeometry` carries:

  order 2  values of g, h, H, hring, |hring|^2; then detg, sqrt_detg,
           ginv and R. Everything else stays None (in particular dg,
           gamma, nabla_hring, nabla_hring_norm2 and gradH_norm2), so a
           misdeclared integrand fails instead of integrating garbage.
  order 3  adds the first partials of h, H, hring, |hring|^2, dg, d2g, and
           gamma, nabla_hring, nabla_hring_norm2, gradH_norm2, hring_up,
           trace_hring.
  order 4  adds the second partials (d2h, d2H, ...) for the Laplacian-level
           residuals.

The order-2 fields are bit-identical to the same fields at orders 3 and 4.

Index conventions for the stored arrays (batch axes lead, tensor axes
trail): ``dg[..., k, i, j]`` is the raw partial d_k g_ij, and
``d2g[..., l, k, i, j]`` is d_l d_k g_ij; likewise for h. Christoffels
are ``gamma[..., k, i, j]`` = Gamma^k_ij. H is the full trace g^{ij} h_ij
(the sum of principal curvatures, not their average) and every formula
in this module is calibrated to that convention. A component dict holds
the same index tuples: ``dg[k, i, j]``.
"""

from __future__ import annotations

import math
import types
from dataclasses import dataclass, fields, is_dataclass
from functools import cached_property
from itertools import product

import numpy as np

from . import jets, tape
from .errors import SingularEvaluationError
from .expressions import _locate
from .jets import derivative
from .surfaces import ImmersionSpec, evaluate_chart

# -- stage one: jets -> raw partials -------------------------------------------


# the raw partials, per quantity through derivative order 2
_RAW = (
    ("g", "dg", "d2g"),
    ("h", "dh", "d2h"),
    ("H", "dH", "d2H"),
    ("hring", "dhring", "d2hring"),
    ("hring_norm2", "d_hring_norm2", "d2_hring_norm2"),
)


class PointGeometry:
    """All curvature data at a (batch of) parameter point(s): a read-only
    view of one `_Geometry`.

    Each of `FIELDS` reads from the geometry on first access and is kept:
    a scalar field as it is, a tensor stacked (see the module's index
    conventions). Order 2 fills the values, detg, sqrt_detg, ginv and R;
    order 3 adds every first partial, d2g and the rest of the covariant
    fields; order 4 adds the second partials (d2h, d2H, ...). Fields an
    order does not fill read None. During a recording a tensor is refused
    (`tape.Refused`): no tape holds its stacked copy, so a field that reads
    one runs without a tape. Assigning a field raises, since the residuals
    read the geometry, not the view.
    """

    FIELDS = ("u", "v", "order", "ambient_c", "batch_shape",
              *(name for names in _RAW for name in names),
              "detg", "sqrt_detg", "ginv", "gamma", "nabla_hring", "nabla_hring_norm2",
              "gradH_norm2", "hring_up", "trace_hring", "R")

    def __init__(self, geom: _Geometry):
        object.__setattr__(self, "_geom", geom)

    def __getattr__(self, name):
        # a field's first read; the instance dict answers every later one
        if name not in PointGeometry.FIELDS:
            raise AttributeError(f"PointGeometry has no field {name!r}")
        geom = self._geom
        value = getattr(geom, name)
        if isinstance(value, dict):
            if tape.recording(geom.u):
                raise tape.Refused(f"the stacked {name}")
            value = _stacked(value, geom.batch_shape)
        self.__dict__[name] = value
        return value

    def __setattr__(self, name, value):
        raise AttributeError(f"PointGeometry is read-only: cannot assign {name!r}")


# the index tuples of each rank, in lexicographic order
_KEYS = tuple(tuple(product((0, 1), repeat=r)) for r in range(5))


def _stacked(T, shape) -> np.ndarray:
    """A component dict as one array: batch axes, then the index axes (the
    module's index conventions). The array is a transposed view whose
    components each lie contiguous in memory."""
    rank = len(next(iter(T)))
    out = np.empty((2,) * rank + shape)
    for idx, x in T.items():
        out[idx] = x
    return out.transpose(tuple(range(rank, out.ndim)) + tuple(range(rank)))


def _partials(jet, k: int):
    """The raw partials of derivative order k of a jet's coefficient list,
    or of a 2x2 nested tuple of them, as a component dict keyed (derivative
    indices..., tensor indices...); a scalar's value as it is."""
    tensor = isinstance(jet, tuple)
    out = {}
    for d in _KEYS[k]:
        slot = jets.coeff_index(d.count(0), d.count(1))
        for t in _KEYS[2] if tensor else ((),):
            out[d + t] = (jet[t[0]][t[1]] if t else jet)[slot]
    return out if k or tensor else out[()]


def _dot3(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _reads(order: int):
    """The order through which `PointGeometry` reads each of `_forms`' eleven
    jets (g00, g01, g11, h00, h01, h11, H, hring00, hring01, hring11,
    |hring|^2): g through 2 from order 3 on (d2g is the highest that anything
    reads) and values at order 2; the rest through order - 2."""
    return (2 if order > 2 else 0,) * 3 + (order - 2,) * 8


def _raw(flat, order: int) -> dict:
    """`_forms`' flat list as the raw-partial fields of a `PointGeometry`,
    each a component dict (None above its `_reads` order)."""
    it = iter(flat)
    g00, g01, g11, h00, h01, h11, H, r00, r01, r11, norm2 = (
        [next(it) for _ in range(jets._NCOEFF[o])] for o in _reads(order)
    )
    quantities = (((g00, g01), (g01, g11)), ((h00, h01), (h01, h11)), H,
                  ((r00, r01), (r01, r11)), norm2)
    raw = {}
    for names, jet, through in zip(_RAW, quantities, (_reads(order)[0],) + (order - 2,) * 4):
        for k, name in enumerate(names):
            raw[name] = _partials(jet, k) if k <= through else None
    return raw


def _forms(spec: ImmersionSpec, u, v, order: int):
    """The raw partials of (g, h, H, hring, |hring|^2) at (u, v) from an
    order-`order` chart: the coefficients of each of the eleven distinct
    jets through its `_reads` order, in one flat list.

    Each intermediate carries the order its arithmetic gives; what no
    output reads is dropped by the tape, not here.
    """
    c = spec.ambient_c
    try:
        f = evaluate_chart(spec, u, v, order)
        fu = tuple(derivative(comp, du=1) for comp in f)
        fv = tuple(derivative(comp, dv=1) for comp in f)
        fd = (fu, fv)
        fdd = {
            (0, 0): tuple(derivative(comp, du=2) for comp in f),
            (0, 1): tuple(derivative(comp, du=1, dv=1) for comp in f),
            (1, 1): tuple(derivative(comp, dv=2) for comp in f),
        }

        # Euclidean products of the tangents
        euc = {(i, j): _dot3(fd[i], fd[j]) for i, j in ((0, 0), (0, 1), (1, 1))}
        if c != 0.0:
            lam = 1.0 / (1.0 + (c / 4.0) * _dot3(f, f))
            lam2 = lam * lam
            # p_k = d(log lambda)/dx^k along the chart
            p = tuple(x * lam * (-c / 2.0) for x in f)
            p_dot_fd = (_dot3(p, fu), _dot3(p, fv))

        g00, g01, g11 = (lam2 * e if c != 0.0 else e for e in euc.values())

        # ambient Hessian of the chart: coordinate second derivative plus
        # the conformal Christoffel correction (absent when c = 0)
        def shape_vec(i, j):
            key = (min(i, j), max(i, j))
            base = fdd[key]
            if c == 0.0:
                return base
            e = euc[key]
            return tuple(
                base[k] + fd[i][k] * p_dot_fd[j] + fd[j][k] * p_dot_fd[i] - e * p[k]
                for k in range(3)
            )

        # the normal and its norm
        nx = fu[1] * fv[2] - fu[2] * fv[1]
        ny = fu[2] * fv[0] - fu[0] * fv[2]
        nz = fu[0] * fv[1] - fu[1] * fv[0]
        n = (nx, ny, nz)
        inv_norm = 1.0 / jets.sqrt(_dot3(n, n))

        def form_entry(i, j):
            e = _dot3(shape_vec(i, j), n) * inv_norm
            return lam * e if c != 0.0 else e

        h00, h01, h11 = form_entry(0, 0), form_entry(0, 1), form_entry(1, 1)

        inv_det = 1.0 / (g00 * g11 - g01 * g01)
        # 2x2 inverse, entries as jets
        gi00 = g11 * inv_det
        gi01 = -1.0 * g01 * inv_det
        gi11 = g00 * inv_det
        Hj = gi00 * h00 + 2.0 * (gi01 * h01) + gi11 * h11

        hr00 = h00 - 0.5 * (Hj * g00)
        hr01 = h01 - 0.5 * (Hj * g01)
        hr11 = h11 - 0.5 * (Hj * g11)
        # |hring|^2 = tr(B^2) with the mixed tensor B^i_j = g^{ik} hring_kj
        b00 = gi00 * hr00 + gi01 * hr01
        b01 = gi00 * hr01 + gi01 * hr11
        b10 = gi01 * hr00 + gi11 * hr01
        b11 = gi01 * hr01 + gi11 * hr11
        norm2 = b00 * b00 + 2.0 * (b01 * b10) + b11 * b11
    except SingularEvaluationError as err:
        raise _locate(err, u, v) from None
    distinct = (g00, g01, g11, h00, h01, h11, Hj, hr00, hr01, hr11, norm2)
    return [x for jet, o in zip(distinct, _reads(order)) for x in jet.coeffs[: jets._NCOEFF[o]]]


def fundamental_forms(spec: ImmersionSpec, u, v, order: int = 3) -> PointGeometry:
    """The `PointGeometry` at (u, v) from an order-`order` chart: raw
    partials of g, h, H, the trace-free part and |hring|^2, and the
    covariant fields on demand.

    order 2 provides values only; order 3 adds the first partials of h
    (enough for all first covariant derivatives) and the first and second
    partials of g; order 4 adds the second partials of h needed by the
    Laplacian-level residuals. u, v may be arrays (one batch).
    """
    if order not in (2, 3, 4):
        raise ValueError(f"jet order must be 2, 3 or 4, got {order}")
    u, v = np.asarray(u, dtype=np.float64), np.asarray(v, dtype=np.float64)
    forms = _kernel(spec, "forms", order, _flat, u, v)
    return PointGeometry(_Geometry(forms, order, spec.ambient_c, u, v))


def point_geometry(spec: ImmersionSpec, u, v, order: int = 3) -> PointGeometry:
    """`fundamental_forms` once its det g is read: a node where det g <= 0
    raises the degenerate-metric error here, not at a later read."""
    pg = fundamental_forms(spec, u, v, order)
    pg.detg
    return pg


# -- stage two: the 2x2 algebra per component ----------------------------------


def _apply(M, T, p):
    """M applied to index p of T: out[.., x, ..] = M[x, 0] T[.., 0, ..] +
    M[x, 1] T[.., 1, ..]."""
    out = {}
    for idx in T:
        x, head, tail = idx[p], idx[:p], idx[p + 1 :]
        out[idx] = M[x, 0] * T[head + (0,) + tail] + M[x, 1] * T[head + (1,) + tail]
    return out


def _nabla(dT, T, gamma):
    """Covariant derivative of a tensor T of any rank with lower indices:
    nabla_k T_a..b = d_k T_a..b - sum_l Gamma^l_ka T_l..b - ... - sum_l Gamma^l_kb T_a..l,
    with d_k T in dT (derivative index first). The index terms are
    subtracted in index order."""
    out = dict(dT)
    rank = len(next(iter(T)))
    for k in range(2):
        gk = {(a, l): gamma[l, k, a] for a, l in _KEYS[2]}  # gk[a, l] = Gamma^l_ka
        for p in range(rank):
            term = _apply(gk, T, p)
            for idx in T:
                out[(k,) + idx] = out[(k,) + idx] - term[idx]
    return out


def _inner(a, b):
    """The sum of a[i] * b[i] over the index tuples i, lexicographically."""
    keys = sorted(a)
    total = a[keys[0]] * b[keys[0]]
    for i in keys[1:]:
        total = total + a[i] * b[i]
    return total


def _norm_sq(T, ginv):
    """|T|^2 of a tensor with lower indices, raised in index order."""
    up = T
    for p in range(len(next(iter(T)))):
        up = _apply(ginv, up, p)
    return np.maximum(_inner(up, T), 0.0)


def _norm(T, ginv):
    return np.sqrt(_norm_sq(T, ginv))


class _Geometry:
    """Stage two at the nodes (u, v): `_forms`' flat list (`flat`), its raw
    partials as component dicts (a scalar as its array) under their
    `PointGeometry` names, and the covariant fields, each computed on first
    read, None where the jet order does not fill it."""

    def __init__(self, flat, order: int, ambient_c, u, v):
        self.__dict__.update(_raw(flat, order))
        self.flat, self.order, self.ambient_c, self.u, self.v = flat, order, ambient_c, u, v
        self.batch_shape = np.broadcast_shapes(np.shape(u), np.shape(v))

    @cached_property
    def detg(self):
        g = self.g
        detg = g[0, 0] * g[1, 1] - np.square(g[0, 1])
        if np.any(detg <= 0):
            bad = int(np.argmax(np.ravel(detg <= 0)))
            err = SingularEvaluationError(
                "induced metric is degenerate", value=float(np.ravel(detg)[bad]), index=bad
            )
            raise _locate(err, self.u, self.v)
        return detg

    @cached_property
    def sqrt_detg(self):
        return np.sqrt(self.detg)

    @cached_property
    def ginv(self):
        g, detg = self.g, self.detg
        off = -g[0, 1] / detg
        return {(0, 0): g[1, 1] / detg, (0, 1): off, (1, 0): off, (1, 1): g[0, 0] / detg}

    @cached_property
    def R(self):
        return 0.5 * np.square(self.H) - self.hring_norm2 + 2.0 * self.ambient_c

    @cached_property
    def gamma(self):
        """Gamma^k_ij = 1/2 g^{kl} X_ijl, X_ijl = d_i g_jl + d_j g_il - d_l g_ij."""
        if self.order < 3:
            return None
        dg = self.dg
        X = {(i, j, l): dg[i, j, l] + dg[j, i, l] - dg[l, i, j] for i, j, l in _KEYS[3]}
        up = _apply(self.ginv, X, 2)
        return {(k, i, j): 0.5 * up[i, j, k] for k, i, j in _KEYS[3]}

    @cached_property
    def nabla_hring(self):
        return None if self.order < 3 else _nabla(self.dhring, self.hring, self.gamma)

    @cached_property
    def nabla_hring_norm2(self):
        return None if self.order < 3 else _norm_sq(self.nabla_hring, self.ginv)

    @cached_property
    def gradH_norm2(self):
        return None if self.order < 3 else _norm_sq(self.dH, self.ginv)

    @cached_property
    def hring_up(self):
        return None if self.order < 3 else _apply(self.ginv, _apply(self.ginv, self.hring, 1), 0)

    @cached_property
    def trace_hring(self):
        return None if self.order < 3 else _inner(self.ginv, self.hring)

    @cached_property
    def dgamma(self):
        """d_m Gamma^k_ij as [m, k, i, j]. With d_m g^kl = -g^ka d_m g_ab g^bl,
        d_m Gamma^k_ij = g^kl (1/2 d_m X_ijl - d_m g_lb Gamma^b_ij)."""
        d2g, dg, gamma = self.d2g, self.dg, self.gamma
        Y = {
            (m, l, i, j): 0.5 * (d2g[m, i, j, l] + d2g[m, j, i, l] - d2g[m, l, i, j])
            for m, l, i, j in _KEYS[4]
        }
        for m in range(2):
            term = _apply({(x, y): dg[m, x, y] for x, y in _KEYS[2]}, gamma, 0)
            for l, i, j in _KEYS[3]:
                Y[m, l, i, j] = Y[m, l, i, j] - term[l, i, j]
        return _apply(self.ginv, Y, 1)


def _require(pg: PointGeometry, order: int, what: str):
    if pg.order < order:
        raise ValueError(f"{what} needs geometry of jet order {order} or more, got {pg.order}")


# -- recorded kernels --------------------------------------------------------------


def _kernel(spec: ImmersionSpec, key, order: int, fn, u, v):
    """fn(geometry) at (u, v) of any shape, where geometry is the
    `_Geometry` of the nodes at jet order `order`: a list of arrays in the
    broadcast shape of (u, v) (fn may return scalars).

    The spec's tape under (order, key) computes it: recorded through
    `_forms` on the first node of the first non-empty call, replayed on
    every batch after. (u, v), arrays of any shapes that broadcast, go to
    `tape.Tape.replay` as they are: the tape alone picks the flat or the
    lattice schedule. Without the tape (an empty batch, a computation the
    recorder refuses, a batch a guard rejects) fn runs on the flat
    broadcast through the "forms" kernel's stage one, and that kernel on
    `_forms`, which raises the jet path's error. key names fn: equal keys
    must mean the same computation.
    """
    u, v = (np.asarray(x, dtype=np.float64) for x in (u, v))
    shape = np.broadcast_shapes(u.shape, v.shape)
    size = math.prod(shape)

    def flat(x):
        return np.broadcast_to(x, shape).ravel()

    def run(forms, a, b):
        return fn(_Geometry(forms, order, spec.ambient_c, a, b))

    tapes = spec.tapes
    if (order, key) not in tapes and size:
        try:
            # the first node of the broadcast is each input's first entry
            tapes[order, key] = tape.record(
                lambda a, b: run(_forms(spec, a, b, order), a, b),
                u.reshape(-1)[:1], v.reshape(-1)[:1])
        except SingularEvaluationError:
            pass  # a singular first node: the next call records
    recorded = tapes.get((order, key))
    out = None
    if recorded and size:
        out = recorded.replay(u, v)
    if out is None:
        a, b = flat(u), flat(v)
        forms = (_forms(spec, a, b, order) if key == "forms"
                 else _kernel(spec, "forms", order, _flat, a, b))
        out = run(forms, a, b)
    return [x.reshape(shape) if np.ndim(x) and np.size(x) == size else np.broadcast_to(x, shape)
            for x in out]


def _flat(geom: _Geometry):
    """The "forms" kernel: `_forms`' flat list, as recorded."""
    return geom.flat


# -- identity residuals ----------------------------------------------------------


@dataclass
class IdentityResiduals:
    """Raw residual norms and per-identity magnitude scales (same batch shape).

    The scale for each identity is the sum of the norms of its constituent
    terms, so ``r / (1 + s)`` is a dimensionless defect measure that stays
    meaningful both near umbilics (terms tiny) and on strongly bent charts.
    """

    r_codazzi: np.ndarray
    s_codazzi: np.ndarray
    r_div: np.ndarray
    s_div: np.ndarray
    r_smo: np.ndarray
    s_smo: np.ndarray
    r_norm: np.ndarray
    s_norm: np.ndarray

    def normalized(self) -> dict:
        return {
            "codazzi": self.r_codazzi / (1.0 + self.s_codazzi),
            "div": self.r_div / (1.0 + self.s_div),
            "smo": self.r_smo / (1.0 + self.s_smo),
            "norm": self.r_norm / (1.0 + self.s_norm),
        }


def identity_residuals(pg: PointGeometry) -> IdentityResiduals:
    """Defects of the trace-free Codazzi relation, its divergence trace,
    the Smoczyk-type gradient identity, and the |nabla h|^2 splitting.
    Needs order-3 geometry."""
    _require(pg, 3, "identity_residuals")
    return _identities(pg._geom)


def _identities(p: _Geometry) -> IdentityResiduals:
    ginv, g, dH, nh = p.ginv, p.g, p.dH, p.nabla_hring
    K1, K2, K3 = _KEYS[1:4]

    # nabla_k hring_ij - nabla_j hring_ik = 1/2 (nabla_j H g_ik - nabla_k H g_ij)
    T1 = nh
    T2 = {(k, i, j): nh[j, i, k] for k, i, j in K3}  # nabla_j hring_ik
    T3 = {(k, i, j): 0.5 * (g[k, i] * dH[j,]) for k, i, j in K3}
    T4 = {(k, i, j): 0.5 * (dH[k,] * g[i, j]) for k, i, j in K3}
    r_codazzi = _norm({x: T1[x] - T2[x] - T3[x] + T4[x] for x in K3}, ginv)
    s_codazzi = sum(_norm(T, ginv) for T in (T1, T2, T3, T4))

    # g^{jk} nabla_k hring_ij = 1/2 nabla_i H
    D = {(i,): _inner(ginv, {(k, j): nh[k, i, j] for k, j in K2}) for i in range(2)}
    r_div = _norm({x: D[x] - 0.5 * dH[x] for x in K1}, ginv)
    s_div = _norm(D, ginv) + 0.5 * _norm(dH, ginv)

    # 2|hring|^2 (|nabla hring|^2 - 1/2 |nabla H|^2)
    #   = 4 |nabla|hring||^2 |hring|^2 - 2 hring^{ij} nabla_i|hring|^2 nabla_j H
    # with nabla_i |hring|^2 = 2 hring^{kl} nabla_i hring_kl and
    # |nabla|hring||^2 |hring|^2 = 1/4 |nabla(|hring|^2)|^2 (smooth at umbilics)
    n2, nh2, gH2 = p.hring_norm2, p.nabla_hring_norm2, p.gradH_norm2
    dn2 = {(k,): 2.0 * _inner(p.hring_up, {(i, j): nh[k, i, j] for i, j in K2}) for k in range(2)}
    t_a = 2.0 * n2 * (nh2 - 0.5 * gH2)
    t_b = _norm_sq(dn2, ginv)
    t_c = 2.0 * _inner(dn2, _apply(p.hring_up, dH, 0))
    r_smo = np.abs(t_a - t_b + t_c)
    s_smo = 2.0 * n2 * nh2 + n2 * gH2 + np.abs(t_b) + np.abs(t_c)

    # |nabla h|^2 = |nabla hring|^2 + 1/2 |nabla H|^2, with nabla h assembled
    # independently from the raw partials of h
    nh_sq = _norm_sq(_nabla(p.dh, p.h, p.gamma), ginv)
    r_norm = np.abs(nh_sq - nh2 - 0.5 * gH2)
    s_norm = nh_sq + nh2 + 0.5 * gH2

    return IdentityResiduals(r_codazzi, s_codazzi, r_div, s_div, r_smo, s_smo, r_norm, s_norm)


# -- second-order (Laplacian) residuals --------------------------------------------


@dataclass
class BochnerResidual:
    """Defects of the two Laplacian-level identities (tensor and scalar form)."""

    r_tensor: np.ndarray
    s_tensor: np.ndarray
    r_scalar: np.ndarray
    s_scalar: np.ndarray

    def normalized(self) -> np.ndarray:
        return np.maximum(
            self.r_tensor / (1.0 + self.s_tensor), self.r_scalar / (1.0 + self.s_scalar)
        )


def bochner_residual(pg: PointGeometry) -> BochnerResidual:
    """Evaluate the Laplacian identities on order-4 geometry.

    Tensor form: Delta hring_ij = R hring_ij + nabla_i nabla_j H - 1/2 Delta H g_ij.
    Scalar form: 1/2 Delta|hring|^2 |hring|^2 = 2|nabla|hring||^2|hring|^2
      - hring^{ij} nabla_i|hring|^2 nabla_j H + 1/2 |nabla H|^2 |hring|^2
      + R |hring|^4 + hring^{ij} nabla_i nabla_j H |hring|^2,
    with |nabla|hring||^2 |hring|^2 written as 1/4 |nabla(|hring|^2)|^2.
    """
    _require(pg, 4, "bochner_residual")
    return _bochner(pg._geom)


def _bochner(p: _Geometry) -> BochnerResidual:
    ginv, gamma, hring, R = p.ginv, p.gamma, p.hring, p.R
    K2, K3 = _KEYS[2:4]

    # d_l (nabla_k hring_ij), then its covariant derivative nabla_l nabla_k hring_ij
    dnab = {}
    for l in range(2):
        d = _nabla(
            {x: p.d2hring[(l,) + x] for x in K3}, {x: p.dhring[(l,) + x] for x in K2}, gamma
        )
        d = _nabla(d, hring, {x: p.dgamma[(l,) + x] for x in K3})
        dnab.update(((l,) + x, y) for x, y in d.items())
    nabla2 = _nabla(dnab, p.nabla_hring, gamma)  # [l, k, i, j]
    lap_hring = {(i, j): _inner(ginv, {lk: nabla2[lk + (i, j)] for lk in K2}) for i, j in K2}

    hessH = _nabla(p.d2H, p.dH, gamma)
    lapH = _inner(ginv, hessH)
    half_lapH = 0.5 * lapH

    T = {x: lap_hring[x] - R * hring[x] - hessH[x] + half_lapH * p.g[x] for x in K2}
    r_tensor = _norm(T, ginv)
    s_tensor = (
        _norm(lap_hring, ginv)
        + np.abs(R) * _norm(hring, ginv)
        + _norm(hessH, ginv)
        + 0.5 * np.abs(lapH) * np.sqrt(2.0)
    )

    n2, dn2 = p.hring_norm2, p.d_hring_norm2
    lap_n2 = _inner(ginv, _nabla(p.d2_hring_norm2, dn2, gamma))

    t1 = 0.5 * lap_n2 * n2
    t2 = 0.5 * _norm_sq(dn2, ginv)  # = 2 |nabla|hring||^2 |hring|^2
    t3 = _inner(dn2, _apply(p.hring_up, p.dH, 0))
    t4 = 0.5 * p.gradH_norm2 * n2
    t5 = R * n2 * n2
    t6 = _inner(p.hring_up, hessH) * n2
    r_scalar = np.abs(t1 - t2 + t3 - t4 - t5 - t6)
    s_scalar = np.abs(t1) + np.abs(t2) + np.abs(t3) + np.abs(t4) + np.abs(t5) + np.abs(t6)

    return BochnerResidual(r_tensor, s_tensor, r_scalar, s_scalar)


# the normalized residuals `identities` checks, in report order
RESIDUALS = ("codazzi", "div", "smo", "norm", "bochner")


def _residual_norms(p: _Geometry):
    norms = _identities(p).normalized()
    norms["bochner"] = _bochner(p).normalized()
    return [norms[k] for k in RESIDUALS]


def residual_norms(spec: ImmersionSpec, u, v):
    """The `RESIDUALS` normalized at the 1-D batch (u, v) from order-4
    geometry, through the spec's recorded kernel."""
    return _kernel(spec, "residuals", 4, _residual_norms, u, v)


# -- intrinsic curvature cross-check ------------------------------------------------


def intrinsic_scalar_curvature(pg: PointGeometry) -> np.ndarray:
    """Scalar curvature from (g, dg, d2g) alone, via the Ricci tensor of the
    Levi-Civita connection. Independent of h; used to cross-check the traced
    Gauss relation R = 1/2 H^2 - |hring|^2 + 2c. Needs order-3 geometry."""
    _require(pg, 3, "intrinsic_scalar_curvature")
    p = pg._geom
    gamma, dgamma = p.gamma, p.dgamma
    K2 = _KEYS[2]
    # Ric_ij = d_k Gamma^k_ij - d_i Gamma^k_kj + Gamma^k_ka Gamma^a_ij - Gamma^k_ia Gamma^a_kj
    ric = {(i, j): dgamma[0, 0, i, j] + dgamma[1, 1, i, j] for i, j in K2}
    ric = {(i, j): ric[i, j] - (dgamma[i, 0, 0, j] + dgamma[i, 1, 1, j]) for i, j in K2}
    tr_gamma = {(a,): gamma[0, 0, a] + gamma[1, 1, a] for a in range(2)}
    ric = {(i, j): ric[i, j] + _inner(tr_gamma, {(a,): gamma[a, i, j] for a in range(2)})
           for i, j in K2}
    for k in range(2):
        term = _apply({x: gamma[(k,) + x] for x in K2}, {(a, b): gamma[a, k, b] for a, b in K2}, 0)
        ric = {x: ric[x] - term[x] for x in K2}
    return _inner(p.ginv, ric)


# -- the quadrature's node kernel ------------------------------------------------


# |hring|^2 and |H| per node: the quadrature classifies by them
_LEVEL = (lambda pg: pg.hring_norm2, lambda pg: np.abs(pg.H))


def classification_values(spec: ImmersionSpec, u, v):
    """(|hring|^2 clipped at 0, |H|, sqrt(det g)) from the order-2 node
    kernel, the values the quadrature classifies by (`_LEVEL`). Each value
    is bit-identical to the same field of `point_geometry` at any order,
    and a node where det g <= 0 raises the same degenerate-metric error."""
    n2, abs_h, sqrt_detg = _nodes(spec, 2, u, v, raw=_LEVEL)
    return np.maximum(n2, 0.0), abs_h, sqrt_detg


def _nodes(spec: ImmersionSpec, order: int, u, v, *, raw=(), densities=()):
    """The quadrature's kernel at the nodes (u, v), from jet order `order`:
    per node fn(pg) for each fn of raw, sqrt(det g), then each field of
    densities per unit area, each reading a `PointGeometry`. One tape per
    (order, raw, fields)."""

    def kernel(geom):
        pg = PointGeometry(geom)
        out = []
        for field in (*raw, lambda pg: pg.sqrt_detg, *densities):
            value = field(pg)
            if value is None:
                raise ValueError(f"integrand read a quantity that jet order {order} does not"
                                 " fill; declare a higher order with Field")
            out.append(np.asanyarray(value, dtype=float))
        return out

    key = ("nodes", tuple(map(_code_key, raw)), tuple(map(_code_key, densities)))
    return _kernel(spec, key, order, kernel, u, v)


def _code_key(fn):
    """fn as a node-kernel key: a function as its code and the values it
    captures (closure cells, defaults and the module globals its code
    names), so an equal fresh lambda reuses a tape and a changed captured
    value records another; a dataclass instance (a quadrature `Field`) as
    its type and its fields' keys. A captured number keys as
    `tape._constant_key` keys a constant (1 and 1.0, 0.0 and -0.0 stay
    apart), any other value as itself. Any other callable, or one with an
    unhashable or unset captured value, keys as itself."""

    def value(x):
        return tape._constant_key(x) if isinstance(x, (int, float, complex, np.generic)) else x

    def function(f):
        if not isinstance(f, types.FunctionType):
            return value(f)
        code, scope, kw = f.__code__, f.__globals__, f.__kwdefaults__ or {}
        captured = [*(cell.cell_contents for cell in f.__closure__ or ()),
                    *(f.__defaults__ or ()), *(kw[n] for n in sorted(kw)),
                    *(scope[n] for n in code.co_names if n in scope)]
        return (code, *map(value, captured))

    try:
        key = ((type(fn), *(function(getattr(fn, f.name)) for f in fields(fn)))
               if is_dataclass(fn) and not isinstance(fn, type) else function(fn))
        hash(key)
    except (TypeError, ValueError):  # an unhashable value; a closure cell not yet set
        return fn
    return key
