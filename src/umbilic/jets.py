"""Truncated bivariate Taylor arithmetic (forward mode, total order <= 4).

A :class:`Jet2` carries the raw partial derivatives ``d^a_u d^b_v F`` of a
scalar function of two parameters at one point, or at a whole batch of
points at once (every coefficient may be a numpy array). "Raw" means the
stored numbers are the partial derivatives themselves; nothing is divided
by factorials. That convention lets callers read a derivative straight
out of a coefficient slot, at the cost of binomial weights inside the
product rule.

Coefficients are stored densely in graded order

    (0,0), (1,0), (0,1), (2,0), (1,1), (0,2), (3,0), ...

so truncating to a lower order is a prefix slice. Arithmetic between two
jets truncates to the smaller order; plain numbers are promoted to
constant jets. All operations are pure: no jet is ever mutated after
construction, and coefficient arrays may be shared between jets. An
ndarray subclass passed to `constant` or `variable` is kept, so the
recording arrays of `tape.py` stay recorded.

Arithmetic skips what it can prove trivial. A slot holding a scalar zero
(a Python or NumPy scalar, or a 0-d array) contributes no product, and a
product by a scalar one is its other factor, bit for bit. ``a * a`` on one
jet object takes a squaring table: the (i, j) and (j, i) terms of the
Leibniz sum are equal, so each cross term is formed once with twice its
weight (9 of 15 products at order 2). `_compose` applies a univariate
function; an affine argument, one whose first partials are scalars and
whose higher partials are scalar zeros, as every chart variable is, gets
f^(a+b) du^a dv^b placed straight into each slot, and any other argument
goes through a Horner scheme. Each derivative an elementary function
builds is the same expression at every order, so truncation commutes with
them bit for bit.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import SingularEvaluationError

MAX_ORDER = 4

# number of coefficients for each total order 0..4
_NCOEFF = (1, 3, 6, 10, 15)

_DIV_FLOOR = 1e-300


def coeff_index(a: int, b: int) -> int:
    """Flat index of the d^a_u d^b_v slot in graded storage."""
    return (a + b) * (a + b + 1) // 2 + b


_PAIRS: tuple[tuple[int, int], ...] = tuple(
    (o - b, b) for o in range(MAX_ORDER + 1) for b in range(o + 1)
)


def _build_mul_table(order: int) -> tuple[tuple[int, int, int, float], ...]:
    # Leibniz rule with raw partials: d^(a,b)(fg) = sum C(a,i) C(b,j) f^(i,j) g^(a-i,b-j)
    entries = []
    for a, b in _PAIRS[: _NCOEFF[order]]:
        k = coeff_index(a, b)
        for i in range(a + 1):
            for j in range(b + 1):
                w = math.comb(a, i) * math.comb(b, j)
                entries.append((k, coeff_index(i, j), coeff_index(a - i, b - j), float(w)))
    return tuple(entries)


_MUL_TABLE = tuple(_build_mul_table(o) for o in range(MAX_ORDER + 1))

# f * f: the (i, j) and (j, i) terms of one slot are equal, so each cross
# term is formed once with twice its weight
_SQUARE_TABLE = tuple(
    tuple((k, i, j, w if i == j else 2.0 * w) for k, i, j, w in table if i <= j)
    for table in _MUL_TABLE
)

_ZERO = np.float64(0.0)

_FACT = (1.0, 1.0, 2.0, 6.0, 24.0)


def _is_scalar(x) -> bool:
    """x is a Python or NumPy scalar or a 0-d array, not a batch array."""
    return not isinstance(x, np.ndarray) or x.ndim == 0


def _is_scalar_zero(x) -> bool:
    # batch coefficients are arrays, so test the type before any comparison
    return _is_scalar(x) and x == 0.0


def _is_scalar_one(x) -> bool:
    return _is_scalar(x) and x == 1.0


class Jet2:
    """Raw partial derivatives of a scalar function of (u, v) up to ``order``."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: Sequence[np.ndarray]):
        self.order = order
        self.coeffs = tuple(coeffs)

    # -- accessors ---------------------------------------------------------

    @property
    def value(self):
        return self.coeffs[0]

    def partial(self, a: int, b: int):
        """The raw partial d^a_u d^b_v; (0, 0) is the value itself."""
        if a < 0 or b < 0 or a + b > self.order:
            raise ValueError(f"partial ({a},{b}) outside stored order {self.order}")
        return self.coeffs[coeff_index(a, b)]

    def __repr__(self):
        return f"Jet2(order={self.order}, value={self.value!r})"

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        a, b = _coerce_pair(self, other)
        n = _NCOEFF[a.order]
        out = []
        for k in range(n):
            x, y = a.coeffs[k], b.coeffs[k]
            if _is_scalar_zero(x):
                out.append(y)
            elif _is_scalar_zero(y):
                out.append(x)
            else:
                out.append(x + y)
        return Jet2(a.order, out)

    __radd__ = __add__

    def __sub__(self, other):
        a, b = _coerce_pair(self, other)
        n = _NCOEFF[a.order]
        out = []
        for k in range(n):
            x, y = a.coeffs[k], b.coeffs[k]
            if _is_scalar_zero(y):
                out.append(x)
            else:
                out.append(x - y)
        return Jet2(a.order, out)

    def __rsub__(self, other):
        return constant(other, self.order) - self

    def __neg__(self):
        return Jet2(self.order, [(-c if not _is_scalar_zero(c) else _ZERO) for c in self.coeffs])

    def __mul__(self, other):
        a, b = _coerce_pair(self, other)
        order = a.order
        out: list = [None] * _NCOEFF[order]
        ac, bc = a.coeffs, b.coeffs
        for k, i, j, w in (_SQUARE_TABLE if a is b else _MUL_TABLE)[order]:
            x, y = ac[i], bc[j]
            if _is_scalar_zero(x) or _is_scalar_zero(y):
                continue
            # a product by a scalar one is its other factor, bit for bit
            term = y if _is_scalar_one(x) else x if _is_scalar_one(y) else x * y
            if w != 1.0:
                term = term * w
            out[k] = term if out[k] is None else out[k] + term
        return Jet2(order, [(_ZERO if c is None else c) for c in out])

    __rmul__ = __mul__

    def __truediv__(self, other):
        a, b = _coerce_pair(self, other)
        return a * _reciprocal(b)

    def __rtruediv__(self, other):
        return constant(other, self.order) / self


def _coerce_pair(a: Jet2, b) -> tuple[Jet2, Jet2]:
    if not isinstance(b, Jet2):
        b = constant(b, a.order)
    order = min(a.order, b.order)
    return truncate(a, order), truncate(b, order)


# -- constructors -----------------------------------------------------------


def constant(x, order: int) -> Jet2:
    """Jet of a constant: value ``x``, every derivative zero."""
    if not 0 <= order <= MAX_ORDER:
        raise ValueError(f"order must be in [0, {MAX_ORDER}], got {order}")
    coeffs = [_ZERO] * _NCOEFF[order]
    coeffs[0] = np.asanyarray(x, dtype=np.float64)
    return Jet2(order, coeffs)


def variable(which: str, at, order: int) -> Jet2:
    """Jet of the coordinate function u or v evaluated at ``at``.

    Order 0 is rejected: a variable carries a unit first derivative that
    an order-0 jet cannot represent.
    """
    if not 1 <= order <= MAX_ORDER:
        raise ValueError(f"variable jets need order in [1, {MAX_ORDER}], got {order}")
    if which not in ("u", "v"):
        raise ValueError(f"variable must be 'u' or 'v', got {which!r}")
    coeffs = [_ZERO] * _NCOEFF[order]
    coeffs[0] = np.asanyarray(at, dtype=np.float64)
    coeffs[coeff_index(1, 0) if which == "u" else coeff_index(0, 1)] = np.float64(1.0)
    return Jet2(order, coeffs)


def truncate(jet: Jet2, order: int) -> Jet2:
    """Drop coefficients above ``order`` (a prefix slice, no arithmetic)."""
    if order > jet.order:
        raise ValueError(f"cannot extend jet of order {jet.order} to {order}")
    if order == jet.order:
        return jet
    return Jet2(order, jet.coeffs[: _NCOEFF[order]])


def derivative(jet: Jet2, du: int = 0, dv: int = 0) -> Jet2:
    """Jet of the partial derivative d^du_u d^dv_v F, order reduced accordingly.

    With raw-partial storage this is pure re-indexing.
    """
    new_order = jet.order - du - dv
    if new_order < 0:
        raise ValueError("derivative exceeds stored order")
    coeffs = [jet.coeffs[coeff_index(a + du, b + dv)] for a, b in _PAIRS[: _NCOEFF[new_order]]]
    return Jet2(new_order, coeffs)


# -- composition with univariate functions ----------------------------------


def _compose(jet: Jet2, derivs: Sequence[np.ndarray]) -> Jet2:
    """Compose f(jet) given d = [f(x0), f'(x0), ..., f^(n)(x0)].

    An affine argument x0 + du (u - u0) + dv (v - v0), with scalar du and
    dv, has the partials d^a_u d^b_v f = f^(a+b)(x0) du^a dv^b, placed
    straight into each slot. Any other argument goes through the
    Taylor-form Horner scheme in w = jet - value; w vanishes at the point,
    so the truncated polynomial carries the exact partials of the
    composite through the working order.
    """
    order = jet.order
    slopes = _affine_slopes(jet)
    if slopes is not None:
        du, dv = slopes
        out = [derivs[0]]
        for a, b in _PAIRS[1 : _NCOEFF[order]]:
            try:
                scale = du**a * dv**b
            except OverflowError:  # a float power raises where an array's goes to inf
                raise SingularEvaluationError(
                    "chain rule: a power of the argument's slope overflows",
                    value=max(du, dv, key=abs),
                ) from None
            d = derivs[a + b]
            out.append(_ZERO if scale == 0.0 else d if scale == 1.0 else d * scale)
        return Jet2(order, out)
    # the scalar zero in the value slot lets every product skip those terms
    w = Jet2(order, (_ZERO,) + jet.coeffs[1:])

    def taylor(k):
        return constant(derivs[k] if k < 2 else derivs[k] / _FACT[k], order)

    result = taylor(order)
    for k in range(order - 1, -1, -1):
        result = result * w + taylor(k)
    return result


def _affine_slopes(jet: Jet2):
    """(du, dv) as floats if the jet is affine in (u, v): scalar first
    partials and scalar-zero higher ones, as every chart variable has;
    otherwise None."""
    c = jet.coeffs
    if jet.order == 0 or not (_is_scalar(c[1]) and _is_scalar(c[2])):
        return None
    if not all(_is_scalar_zero(x) for x in c[3:]):
        return None
    return float(c[1]), float(c[2])


def _check_domain(value, ok_mask, fn_name: str):
    if not np.all(ok_mask):
        if np.ndim(value) == 0:
            raise SingularEvaluationError(
                f"{fn_name}: argument outside domain", value=float(value)
            )
        idx = int(np.argmin(np.ravel(ok_mask)))
        raise SingularEvaluationError(
            f"{fn_name}: argument outside domain",
            value=float(np.ravel(value)[idx]),
            index=idx,
        )


def _reciprocal(jet: Jet2) -> Jet2:
    x = jet.value
    _check_domain(x, np.abs(x) > _DIV_FLOOR, "division")
    inv = 1.0 / x
    d = [inv]
    for k in range(1, jet.order + 1):
        d.append(d[-1] * (-k) * inv)
    return _compose(jet, d)


# name -> (the two values of the argument the jet is built from, derivatives
# 0-3 as functions of them); sin and cos (sinh and cosh) of one argument
# compute the same two values, which a recording (`tape.py`) keeps once
PAIRED = {
    "sin": ((np.sin, np.cos), lambda s, c: (s, c, -s, -c)),
    "cos": ((np.sin, np.cos), lambda s, c: (c, -s, -c, s)),
    "sinh": ((np.sinh, np.cosh), lambda s, c: (s, c) * 2),
    "cosh": ((np.sinh, np.cosh), lambda s, c: (c, s) * 2),
}


def paired(name: str, jet: Jet2) -> Jet2:
    """The `PAIRED` function `name` of jet."""
    fns, derivs = PAIRED[name]
    d = derivs(*(f(jet.value) for f in fns))
    return _compose(jet, [d[k % 4] for k in range(jet.order + 1)])


def sin(jet: Jet2) -> Jet2:
    return paired("sin", jet)


def cos(jet: Jet2) -> Jet2:
    return paired("cos", jet)


def sinh(jet: Jet2) -> Jet2:
    return paired("sinh", jet)


def cosh(jet: Jet2) -> Jet2:
    return paired("cosh", jet)


def exp(jet: Jet2) -> Jet2:
    e = np.exp(jet.value)
    return _compose(jet, [e] * (jet.order + 1))


def _through(jet: Jet2, *derivs) -> list:
    """Each of the thunks derivs (f, f', f'', ...) called, through the jet's
    order: a derivative the jet does not hold is never computed, so it
    cannot overflow either."""
    return [d() for d in derivs[: jet.order + 1]]


def log(jet: Jet2) -> Jet2:
    x = jet.value
    _check_domain(x, x > 0.0, "log")
    inv = 1.0 / x
    return _compose(jet, _through(
        jet, lambda: np.log(x), lambda: inv, lambda: -(inv**2), lambda: 2.0 * inv**3,
        lambda: -6.0 * inv**4,
    ))


def sqrt(jet: Jet2) -> Jet2:
    x = jet.value
    _check_domain(x, x > 0.0, "sqrt")
    s = np.sqrt(x)
    inv = 1.0 / x
    return _compose(jet, _through(
        jet, lambda: s, lambda: 0.5 * s * inv, lambda: -0.25 * s * inv**2,
        lambda: 0.375 * s * inv**3, lambda: -0.9375 * s * inv**4,
    ))


def atan(jet: Jet2) -> Jet2:
    x = jet.value
    w = 1.0 + x * x
    return _compose(jet, _through(
        jet, lambda: np.arctan(x), lambda: 1.0 / w, lambda: -2.0 * x / w**2,
        lambda: (6.0 * x * x - 2.0) / w**3, lambda: (24.0 * x - 24.0 * x**3) / w**4,
    ))


def pow_const(jet: Jet2, exponent: float) -> Jet2:
    """jet ** exponent for a constant exponent.

    Integer exponents use repeated multiplication (valid for any base,
    negative ones through a reciprocal); non-integer exponents require a
    strictly positive base.
    """
    p = float(exponent)
    if p == int(p):
        n = int(p)
        if n == 0:
            return constant(1.0, jet.order)
        base = jet if n > 0 else _reciprocal(jet)
        n = abs(n)
        # binary exponentiation
        result = None
        acc = base
        while n:
            if n & 1:
                result = acc if result is None else result * acc
            n >>= 1
            if n:
                acc = acc * acc
        return result
    x = jet.value
    _check_domain(x, x > 0.0, "pow")
    d = [np.power(x, p)]
    fac = 1.0
    for k in range(1, jet.order + 1):
        fac *= p - (k - 1)
        d.append(fac * np.power(x, p - k))
    return _compose(jet, d)


ELEMENTARY: dict[str, Callable[[Jet2], Jet2]] = {
    "sin": sin,
    "cos": cos,
    "sinh": sinh,
    "cosh": cosh,
    "exp": exp,
    "log": log,
    "sqrt": sqrt,
    "atan": atan,
}
