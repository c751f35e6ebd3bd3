"""Independent numerical oracles used across the test suite.

Everything here computes expected values by a route that shares no code
with the package: plain finite differences on ordinary float functions,
and a handful of closed forms. Step sizes are calibrated per derivative
order; high orders use wider steps and higher-accuracy stencils because
the roundoff term eps/h^k explodes for small h.
"""

from __future__ import annotations

import numpy as np

# central-difference stencils on offsets -2..2, 2nd- and 4th-order accurate
_STENCIL_2 = {
    0: ((0,), (1.0,)),
    1: ((-1, 1), (-0.5, 0.5)),
    2: ((-1, 0, 1), (1.0, -2.0, 1.0)),
}
_STENCIL_4 = {
    0: ((0,), (1.0,)),
    1: ((-2, -1, 1, 2), (1 / 12, -2 / 3, 2 / 3, -1 / 12)),
    2: ((-2, -1, 0, 1, 2), (-1 / 12, 4 / 3, -5 / 2, 4 / 3, -1 / 12)),
    3: ((-2, -1, 1, 2), (-0.5, 1.0, -1.0, 0.5)),       # 2nd-order accurate
    4: ((-2, -1, 0, 1, 2), (1.0, -4.0, 6.0, -4.0, 1.0)),  # 2nd-order accurate
}


def _tensor_fd(f, u, v, a, b, h, stencils):
    offs_u, w_u = stencils[a]
    offs_v, w_v = stencils[b]
    acc = 0.0
    for ou, wu in zip(offs_u, w_u):
        for ov, wv in zip(offs_v, w_v):
            acc += wu * wv * f(u + ou * h, v + ov * h)
    return acc / h ** (a + b)


def fd_partial(f, u, v, a, b):
    """Central finite-difference estimate of d^a_u d^b_v f at (u, v).

    f is a plain callable of two floats. Orders <= 2 use plain central
    differences at h = 1e-4; orders 3-4 use wide-stencil differences at
    h = 0.02 plus one Richardson step (kills the leading h^2 term),
    because roundoff eps/h^k forbids small steps there. Accuracy is
    roughly 1e-8 for low orders and 1e-5 relative for orders 3-4 on
    smooth O(1) functions.
    """
    total = a + b
    if total == 0:
        return f(u, v)
    if total <= 2:
        return _tensor_fd(f, u, v, a, b, 1e-4, _STENCIL_2)
    h = 0.02
    d1 = _tensor_fd(f, u, v, a, b, h, _STENCIL_4)
    d2 = _tensor_fd(f, u, v, a, b, 2 * h, _STENCIL_4)
    return (4.0 * d1 - d2) / 3.0


def fd_jet_coeffs(f, u, v, order):
    """All raw partials of f at (u, v) through total order `order`,
    in graded storage order (matching Jet2.coeffs)."""
    out = []
    for o in range(order + 1):
        for b in range(o + 1):
            out.append(fd_partial(f, u, v, o - b, b))
    return np.array(out)


def _revolution_curvatures(a, b, u):
    """(phi, phi', H', kappa, sqrt(g_uu), dA / du dv) along the profile of the
    ellipsoid of revolution (a sin u cos v, a sin u sin v, b cos u).

    W = |d/du| = sqrt(a^2 cos^2 u + b^2 sin^2 u); the principal curvatures
    are k1 = a b / W^3 (meridian) and k2 = b / (a W) (parallel), so
    phi = (k1 - k2) / 2, H = k1 + k2 and kappa = cot(u) / W is the
    geodesic curvature of the parallels. Derivatives are in closed form.
    """
    s, c = np.sin(u), np.cos(u)
    w = np.sqrt(a * a * c * c + b * b * s * s)
    dw = (b * b - a * a) * s * c / w
    k1, k2 = a * b / w**3, b / (a * w)
    dk1, dk2 = -3.0 * k1 * dw / w, -k2 * dw / w
    return 0.5 * (k1 - k2), 0.5 * (dk1 - dk2), dk1 + dk2, c / (s * w), w, a * s * w


def revolution_integrals(a, b, eps, margin, pieces=64):
    """Exact sublevel integrals of the ellipsoid of revolution, from 1D quadrature.

    |hring| depends only on u: |hring|^2 = 2 phi^2, |nabla hring|^2 =
    2 (phi'/W)^2 + 8 kappa^2 phi^2 and |nabla H|^2 = (H'/W)^2. Going from a
    pole to the equator, |hring| rises from 0 and, once past its
    maximum (W = sqrt(3) a when b > sqrt(3) a), stays above its equator
    value. Below that value the region {|hring| < eps} on the chart
    [margin, pi - margin] x [0, 2 pi) is therefore two polar caps,
    [margin, u_eps) (u_eps found by bisection) and its mirror image. When
    b <= sqrt(3) a, |hring| rises monotonically all the way to the equator,
    so at or above the equator value the region is the whole chart
    (u_eps = pi/2); when b > sqrt(3) a such a threshold raises. Each cap is
    integrated with `pieces` panels of 40-point Gauss-Legendre.

    Returns a dict keyed like RegionIntegrals: vol_omega_c, I_grad_hring,
    I_grad_H, I_grad_H_plain.
    """

    def hring2(u):
        return 2.0 * _revolution_curvatures(a, b, u)[0] ** 2

    lo, hi = margin, np.pi / 2
    if not eps * eps < hring2(hi):
        if b > np.sqrt(3.0) * a:
            raise ValueError("the region reaches the equator: it is not two polar caps")
        lo = hi
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        if hring2(mid) < eps * eps:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    x, w = np.polynomial.legendre.leggauss(40)
    edges = np.linspace(margin, lo, pieces + 1)
    half = 0.5 * np.diff(edges)[:, None]
    u = (0.5 * (edges[:-1] + edges[1:]))[:, None] + half * x
    weights = (half * w).ravel()
    phi, dphi, dH, kappa, g, da = (t.ravel() for t in _revolution_curvatures(a, b, u.ravel()))
    n2 = 2.0 * phi**2
    grad_hring = 2.0 * (dphi / g) ** 2 + 8.0 * kappa**2 * phi**2
    grad_H = (dH / g) ** 2
    caps = 2.0 * 2.0 * np.pi
    return {
        name: caps * float(np.sum(weights * f * da))
        for name, f in (
            ("vol_omega_c", 1.0),
            ("I_grad_hring", grad_hring * n2),
            ("I_grad_H", grad_H * n2),
            ("I_grad_H_plain", grad_H),
        )
    }
