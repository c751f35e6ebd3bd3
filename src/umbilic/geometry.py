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
mixed tensor B = g^-1 hring. `_evaluate` runs stage one for every (u, v)
on a tape (`tape.py`): the first node of the first non-empty batch of a
spec and order runs `_forms` on arrays that log each numpy ufunc call,
and every batch, flattened to 1-D, replays that list into buffers, bit
for bit the same values without the jet layer's Python work. The tape
drops the calls no output reads, so the partials nothing reads are never
computed. The jet code stays the one statement of the math. The domain
checks of the jet path are guards on the tape; a batch that fails one
goes through `_forms` itself, which raises its error, as do an empty
batch and a chart the recorder refuses. `classification_values` reads
the order-2 values (|hring|^2, |H| and sqrt(det g)); `fundamental_forms`
stacks the raw partials into arrays, each tensor component contiguous.
Stage two, `covariant_data`, is explicit 2x2 algebra on those arrays
(two-term sums per component, no einsum): Christoffel symbols, covariant
derivatives, norms and curvature. The residuals of the identities under
test use the same helpers (`_apply2`, `_inner`, `_nabla`, `_norm_sq`):
`identity_residuals` and `intrinsic_scalar_curvature` need order-3
geometry, `bochner_residual` order 4; each raises ValueError on less.

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
in this module is calibrated to that convention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import jets, tape
from .errors import SingularEvaluationError
from .expressions import _locate
from .jets import derivative
from .surfaces import ImmersionSpec, evaluate_chart

# -- stage one: jets -> raw partial arrays -------------------------------------


@dataclass
class PointGeometry:
    """All curvature data at a (batch of) parameter point(s).

    Raw-partial fields are filled by `fundamental_forms`; everything from
    `detg` down is filled in place by `covariant_data`. Order 2 fills the
    values, detg, sqrt_detg, ginv and R; order 3 adds every first partial,
    d2g and the rest of the covariant fields; order 4 adds the second
    partials (d2h, d2H, ...). Fields an order does not fill stay None.
    """

    u: np.ndarray
    v: np.ndarray
    order: int
    ambient_c: float
    batch_shape: tuple

    g: np.ndarray = None
    dg: np.ndarray = None
    d2g: np.ndarray = None
    h: np.ndarray = None
    dh: np.ndarray = None
    d2h: np.ndarray = None
    H: np.ndarray = None
    dH: np.ndarray = None
    d2H: np.ndarray = None
    hring: np.ndarray = None
    dhring: np.ndarray = None
    d2hring: np.ndarray = None
    hring_norm2: np.ndarray = None
    d_hring_norm2: np.ndarray = None
    d2_hring_norm2: np.ndarray = None

    detg: np.ndarray = None
    sqrt_detg: np.ndarray = None
    ginv: np.ndarray = None
    gamma: np.ndarray = None
    nabla_hring: np.ndarray = None
    nabla_hring_norm2: np.ndarray = None
    gradH_norm2: np.ndarray = None
    hring_up: np.ndarray = None
    trace_hring: np.ndarray = None
    R: np.ndarray = None


def _stack(jet, k: int, shape) -> np.ndarray:
    """The raw partials of derivative order k of a jet's coefficient list, or
    of a 2x2 nested tuple of them, as an array: batch axes, then k derivative
    axes, then the tensor axes (the module's index conventions). The array
    is a transposed view whose components each lie contiguous in memory, so
    the per-component arithmetic of `covariant_data` runs on contiguous
    arrays."""
    tensor = (2, 2) if isinstance(jet, tuple) else ()
    out = np.empty((2,) * k + tensor + shape)
    for d in np.ndindex(*(2,) * k):
        slot = jets.coeff_index(d.count(0), d.count(1))
        for t in np.ndindex(*tensor):
            out[d + t] = (jet[t[0]][t[1]] if t else jet)[slot]
    n = out.ndim - len(shape)
    return out.transpose(tuple(range(n, out.ndim)) + tuple(range(n)))


def _dot3(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _reads(order: int):
    """The order through which `PointGeometry` reads each of `_forms`' eleven
    jets (g00, g01, g11, h00, h01, h11, H, hring00, hring01, hring11,
    |hring|^2): g through 2 from order 3 on (d2g is the highest that anything
    reads) and values at order 2; the rest through order - 2."""
    return (2 if order > 2 else 0,) * 3 + (order - 2,) * 8


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


def _evaluate(spec: ImmersionSpec, u, v, order: int):
    """`_forms` at (u, v) of any shape, each output in the broadcast shape.

    u and v are broadcast and flattened to 1-D float64 and replay the
    spec's tape for this order, which the first non-empty call records on
    its first node. `_forms` runs on the caller's (u, v) itself for an
    empty batch, a chart the recorder refuses, and a batch a guard
    rejects or whose first node is singular, where it raises its error.
    """
    shape = np.broadcast_shapes(np.shape(u), np.shape(v))
    a, b = (np.broadcast_to(np.asarray(x, dtype=np.float64), shape).ravel() for x in (u, v))
    tapes = spec.tapes
    if a.size and order not in tapes:
        try:
            tapes[order] = tape.record(lambda *ab: _forms(spec, *ab, order), a[:1], b[:1])
        except SingularEvaluationError:
            pass
    recorded = tapes.get(order) if a.size else None
    out = recorded.replay(a, b) if recorded else None
    if out is None:
        return [np.broadcast_to(x, shape) for x in _forms(spec, u, v, order)]
    return [np.broadcast_to(x, a.shape).reshape(shape) for x in out]


def fundamental_forms(spec: ImmersionSpec, u, v, order: int = 3) -> PointGeometry:
    """Raw partials of g, h, H, the trace-free part, and |hring|^2 at (u, v).

    order 2 provides values only; order 3 adds the first partials of h
    (enough for all first covariant derivatives) and the first and second
    partials of g; order 4 adds the second partials of h needed by the
    Laplacian-level residuals. u, v may be arrays (one batch).
    """
    if order not in (2, 3, 4):
        raise ValueError(f"jet order must be 2, 3 or 4, got {order}")
    flat = iter(_evaluate(spec, u, v, order))
    g00, g01, g11, h00, h01, h11, H, r00, r01, r11, norm2 = (
        [next(flat) for _ in range(jets._NCOEFF[o])] for o in _reads(order)
    )
    shape = np.broadcast_shapes(np.shape(u), np.shape(v))

    def partials(jet, through):
        """Stacked partials of derivative order 0..through, None above."""
        return [_stack(jet, k, shape) for k in range(through + 1)] + [None] * (2 - through)

    pg = PointGeometry(
        u=np.asarray(u, dtype=np.float64),
        v=np.asarray(v, dtype=np.float64),
        order=order,
        ambient_c=float(spec.ambient_c),
        batch_shape=shape,
    )
    pg.g, pg.dg, pg.d2g = partials(((g00, g01), (g01, g11)), _reads(order)[0])
    pg.h, pg.dh, pg.d2h = partials(((h00, h01), (h01, h11)), order - 2)
    pg.H, pg.dH, pg.d2H = partials(H, order - 2)
    pg.hring, pg.dhring, pg.d2hring = partials(((r00, r01), (r01, r11)), order - 2)
    pg.hring_norm2, pg.d_hring_norm2, pg.d2_hring_norm2 = partials(norm2, order - 2)
    return pg


# -- stage two: covariant completion -------------------------------------------


def covariant_data(pg: PointGeometry) -> PointGeometry:
    """Fill det g, its root, the metric inverse and R in place; from order 3
    on also Christoffels, covariant derivatives and norms."""
    g, dg, hring = pg.g, pg.dg, pg.hring
    detg = g[..., 0, 0] * g[..., 1, 1] - g[..., 0, 1] ** 2
    if np.any(detg <= 0):
        bad = int(np.argmax(np.ravel(detg <= 0)))
        raise SingularEvaluationError(
            "induced metric is degenerate", value=float(np.ravel(detg)[bad]), index=bad
        )
    ginv = np.empty_like(g)
    ginv[..., 0, 0] = g[..., 1, 1] / detg
    ginv[..., 1, 1] = g[..., 0, 0] / detg
    ginv[..., 0, 1] = ginv[..., 1, 0] = -g[..., 0, 1] / detg

    pg.detg = detg
    pg.sqrt_detg = np.sqrt(detg)
    pg.ginv = ginv
    pg.R = 0.5 * pg.H**2 - pg.hring_norm2 + 2.0 * pg.ambient_c
    if pg.order == 2:
        return pg

    # Gamma^k_ij = 1/2 g^{kl} (d_i g_jl + d_j g_il - d_l g_ij), built as [i, j, k]
    X = dg + np.swapaxes(dg, -3, -2) - np.moveaxis(dg, -3, -1)
    gamma = np.moveaxis(0.5 * _apply2(ginv, X, -1), -1, -3)
    nabla_hring = _nabla(pg.dhring, hring, gamma)

    pg.gamma = gamma
    pg.nabla_hring = nabla_hring
    pg.gradH_norm2 = _norm_sq(pg.dH, ginv, 1)
    pg.hring_up = _apply2(ginv, _apply2(ginv, hring, -1), -2)
    pg.trace_hring = _inner(ginv, hring, 2)
    pg.nabla_hring_norm2 = _norm_sq(nabla_hring, ginv, 3)
    return pg


def point_geometry(spec: ImmersionSpec, u, v, order: int = 3) -> PointGeometry:
    return covariant_data(fundamental_forms(spec, u, v, order))


def _apply2(M, T, axis):
    """M applied to the tensor index of T at `axis` (negative):
    out[.., x, ..] = M[x, 0] T[.., 0, ..] + M[x, 1] T[.., 1, ..], one node
    array per component (einsum would run a batched matmul per 2x2 block)."""
    T = np.moveaxis(T, axis, -1)
    out = np.empty_like(T)
    for *rest, x in np.ndindex(T.shape[M.ndim - 2 :]):
        t0, t1 = T[(..., *rest, 0)], T[(..., *rest, 1)]
        out[(..., *rest, x)] = M[..., x, 0] * t0 + M[..., x, 1] * t1
    return np.moveaxis(out, -1, axis)


def _nabla(dT, T, gamma):
    """Covariant derivative of a tensor T of any rank with lower indices:
    nabla_k T_a..b = d_k T_a..b - sum_l Gamma^l_ka T_l..b - ... - sum_l Gamma^l_kb T_a..l,
    with d_k T in dT (derivative index first). The index terms are
    subtracted in index order, in place into one copy of dT."""
    rank = T.ndim - gamma.ndim + 3
    out = dT.copy(order="K")
    for k in range(2):
        gk = np.swapaxes(gamma[..., :, k, :], -1, -2)  # gk[a, l] = Gamma^l_ka
        for axis in range(-rank, 0):
            out[(..., k) + (slice(None),) * rank] -= _apply2(gk, T, axis)
    return out


def _inner(a, b, rank):
    """The sum over the last `rank` (tensor) indices of a * b."""
    idx = [(...,) + i for i in np.ndindex((2,) * rank)]
    total = a[idx[0]] * b[idx[0]]
    for i in idx[1:]:
        total = total + a[i] * b[i]
    return total


def _norm_sq(T, ginv, rank):
    """|T|^2 of a tensor with `rank` lower indices, raised in index order."""
    up = T
    for axis in range(-rank, 0):
        up = _apply2(ginv, up, axis)
    return np.maximum(_inner(up, T, rank), 0.0)


def _norm(T, ginv, rank):
    return np.sqrt(_norm_sq(T, ginv, rank))


def _dgamma(pg: PointGeometry):
    """d_m Gamma^k_ij as [m, k, i, j]. With d_m g^kl = -g^ka d_m g_ab g^bl,
    d_m Gamma^k_ij = g^kl (1/2 d_m X_ijl - d_m g_lb Gamma^b_ij), X as in
    `covariant_data`."""
    d2g = pg.d2g
    dX = d2g + np.swapaxes(d2g, -3, -2) - np.moveaxis(d2g, -3, -1)  # [m, i, j, l]
    Y = 0.5 * np.moveaxis(dX, -1, -3)  # [m, l, i, j]
    for m in range(2):
        Y[..., m, :, :, :] -= _apply2(pg.dg[..., m, :, :], pg.gamma, -3)
    return _apply2(pg.ginv, Y, -3)


def _require(pg: PointGeometry, order: int, what: str):
    if pg.order < order:
        raise ValueError(f"{what} needs geometry of jet order {order} or more, got {pg.order}")


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
    ginv, g, dH = pg.ginv, pg.g, pg.dH
    nh = pg.nabla_hring

    # nabla_k hring_ij - nabla_j hring_ik = 1/2 (nabla_j H g_ik - nabla_k H g_ij)
    T1 = nh
    T2 = np.swapaxes(nh, -3, -1)  # nabla_j hring_ik as [k, i, j]
    T3 = 0.5 * (g[..., :, :, None] * dH[..., None, None, :])
    T4 = 0.5 * (dH[..., :, None, None] * g[..., None, :, :])
    r_codazzi = _norm(T1 - T2 - T3 + T4, ginv, 3)
    s_codazzi = sum(_norm(T, ginv, 3) for T in (T1, T2, T3, T4))

    # g^{jk} nabla_k hring_ij = 1/2 nabla_i H
    D = _inner(ginv[..., None, :, :], np.swapaxes(nh, -3, -2), 2)
    r_div = _norm(D - 0.5 * dH, ginv, 1)
    s_div = _norm(D, ginv, 1) + 0.5 * _norm(dH, ginv, 1)

    # 2|hring|^2 (|nabla hring|^2 - 1/2 |nabla H|^2)
    #   = 4 |nabla|hring||^2 |hring|^2 - 2 hring^{ij} nabla_i|hring|^2 nabla_j H
    # with nabla_i |hring|^2 = 2 hring^{kl} nabla_i hring_kl and
    # |nabla|hring||^2 |hring|^2 = 1/4 |nabla(|hring|^2)|^2 (smooth at umbilics)
    n2 = pg.hring_norm2
    dn2 = 2.0 * _inner(pg.hring_up[..., None, :, :], nh, 2)
    t_a = 2.0 * n2 * (pg.nabla_hring_norm2 - 0.5 * pg.gradH_norm2)
    t_b = _norm_sq(dn2, ginv, 1)
    t_c = 2.0 * _inner(dn2, _apply2(pg.hring_up, dH, -1), 1)
    r_smo = np.abs(t_a - t_b + t_c)
    s_smo = (
        2.0 * n2 * pg.nabla_hring_norm2
        + n2 * pg.gradH_norm2
        + np.abs(t_b)
        + np.abs(t_c)
    )

    # |nabla h|^2 = |nabla hring|^2 + 1/2 |nabla H|^2, with nabla h assembled
    # independently from the raw partials of h
    nh_sq = _norm_sq(_nabla(pg.dh, pg.h, pg.gamma), ginv, 3)
    r_norm = np.abs(nh_sq - pg.nabla_hring_norm2 - 0.5 * pg.gradH_norm2)
    s_norm = nh_sq + pg.nabla_hring_norm2 + 0.5 * pg.gradH_norm2

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

    @property
    def value(self) -> np.ndarray:
        return np.maximum(self.r_tensor, self.r_scalar)


def bochner_residual(pg: PointGeometry) -> BochnerResidual:
    """Evaluate the Laplacian identities on order-4 geometry.

    Tensor form: Delta hring_ij = R hring_ij + nabla_i nabla_j H - 1/2 Delta H g_ij.
    Scalar form: 1/2 Delta|hring|^2 |hring|^2 = 2|nabla|hring||^2|hring|^2
      - hring^{ij} nabla_i|hring|^2 nabla_j H + 1/2 |nabla H|^2 |hring|^2
      + R |hring|^4 + hring^{ij} nabla_i nabla_j H |hring|^2,
    with |nabla|hring||^2 |hring|^2 written as 1/4 |nabla(|hring|^2)|^2.
    """
    _require(pg, 4, "bochner_residual")
    ginv, gamma, hring = pg.ginv, pg.gamma, pg.hring
    dgamma = _dgamma(pg)

    # d_l (nabla_k hring_ij), then its covariant derivative nabla_l nabla_k hring_ij
    dnab = np.empty_like(pg.d2hring)
    for l in range(2):
        dnab[..., l, :, :, :] = _nabla(
            _nabla(pg.d2hring[..., l, :, :, :], pg.dhring[..., l, :, :], gamma),
            hring, dgamma[..., l, :, :, :],
        )
    nabla2 = _nabla(dnab, pg.nabla_hring, gamma)  # [l, k, i, j]
    lap_hring = _inner(ginv[..., None, None, :, :], np.moveaxis(nabla2, (-4, -3), (-2, -1)), 2)

    hessH = _nabla(pg.d2H, pg.dH, gamma)
    lapH = _inner(ginv, hessH, 2)

    T = (
        lap_hring
        - pg.R[..., None, None] * hring
        - hessH
        + 0.5 * lapH[..., None, None] * pg.g
    )
    r_tensor = _norm(T, ginv, 2)
    s_tensor = (
        _norm(lap_hring, ginv, 2)
        + np.abs(pg.R) * _norm(hring, ginv, 2)
        + _norm(hessH, ginv, 2)
        + 0.5 * np.abs(lapH) * np.sqrt(2.0)
    )

    n2, dn2 = pg.hring_norm2, pg.d_hring_norm2
    lap_n2 = _inner(ginv, _nabla(pg.d2_hring_norm2, dn2, gamma), 2)

    t1 = 0.5 * lap_n2 * n2
    t2 = 0.5 * _norm_sq(dn2, ginv, 1)  # = 2 |nabla|hring||^2 |hring|^2
    t3 = _inner(dn2, _apply2(pg.hring_up, pg.dH, -1), 1)
    t4 = 0.5 * pg.gradH_norm2 * n2
    t5 = pg.R * n2 * n2
    t6 = _inner(pg.hring_up, hessH, 2) * n2
    r_scalar = np.abs(t1 - t2 + t3 - t4 - t5 - t6)
    s_scalar = np.abs(t1) + np.abs(t2) + np.abs(t3) + np.abs(t4) + np.abs(t5) + np.abs(t6)

    return BochnerResidual(r_tensor, s_tensor, r_scalar, s_scalar)


# -- intrinsic curvature cross-check ------------------------------------------------


def intrinsic_scalar_curvature(pg: PointGeometry) -> np.ndarray:
    """Scalar curvature from (g, dg, d2g) alone, via the Ricci tensor of the
    Levi-Civita connection. Independent of h; used to cross-check the traced
    Gauss relation R = 1/2 H^2 - |hring|^2 + 2c. Needs order-3 geometry."""
    _require(pg, 3, "intrinsic_scalar_curvature")
    if pg.gamma is None:
        covariant_data(pg)
    gamma = pg.gamma
    dgamma = _dgamma(pg)
    # Ric_ij = d_k Gamma^k_ij - d_i Gamma^k_kj + Gamma^k_ka Gamma^a_ij - Gamma^k_ia Gamma^a_kj
    ric = dgamma[..., 0, 0, :, :] + dgamma[..., 1, 1, :, :]
    ric = ric - (dgamma[..., :, 0, 0, :] + dgamma[..., :, 1, 1, :])
    tr_gamma = gamma[..., 0, 0, :] + gamma[..., 1, 1, :]
    ric = ric + _inner(tr_gamma[..., None, None, :], np.moveaxis(gamma, -3, -1), 1)
    for k in range(2):
        ric = ric - _apply2(gamma[..., k, :, :], gamma[..., :, k, :], -2)
    return _inner(pg.ginv, ric, 2)


# -- cheap classification fields ------------------------------------------------


def classification_values(spec: ImmersionSpec, u, v):
    """(|hring|^2, |H|, sqrt(det g)) from a minimal order-2 evaluation.

    Used by the quadrature layer at cell corners and refinement probes:
    the sublevel classification, the H envelope and, at the child-center
    probes, the area element of each refined leaf. Each value is
    bit-identical to the same field of `point_geometry` at any order.
    """
    g00, g01, g11, *_, H, _, _, _, norm2 = _evaluate(spec, u, v, 2)
    return np.maximum(norm2, 0.0), np.abs(H), np.sqrt(g00 * g11 - g01**2)
