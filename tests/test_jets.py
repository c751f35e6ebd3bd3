import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from umbilic import jets
from umbilic.errors import SingularEvaluationError
from umbilic.jets import Jet2, coeff_index, constant, derivative, truncate, variable

from oracles import fd_jet_coeffs, fd_partial


def U(at, order=4):
    return variable("u", at, order)


def V(at, order=4):
    return variable("v", at, order)


# -- storage layout ---------------------------------------------------------


def test_coeff_index_graded_order():
    # [TRIVIAL] graded listing (0,0),(1,0),(0,1),(2,0),(1,1),(0,2),...
    pairs = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2),
             (3, 0), (2, 1), (1, 2), (0, 3),
             (4, 0), (3, 1), (2, 2), (1, 3), (0, 4)]
    assert [coeff_index(a, b) for a, b in pairs] == list(range(15))


def test_constant_jet():
    # [TRIVIAL] constant: value slot only
    j = constant(3.0, 2)
    assert j.value == 3.0
    assert len(j.coeffs) == 6
    assert all(float(c) == 0.0 for c in j.coeffs[1:])


def test_variable_jet():
    # [TRIVIAL] variable u at 0.5: unit first derivative in the u slot
    j = variable("u", 0.5, 2)
    assert float(j.value) == 0.5
    assert float(j.partial(1, 0)) == 1.0
    assert float(j.partial(0, 1)) == 0.0
    assert float(j.partial(2, 0)) == 0.0


def test_variable_order_zero_rejected():
    with pytest.raises(ValueError):
        variable("u", 0.0, 0)
    with pytest.raises(ValueError):
        constant(1.0, 5)


def test_partial_out_of_range():
    j = constant(1.0, 2)
    with pytest.raises(ValueError):
        j.partial(2, 1)


# -- arithmetic against hand values ------------------------------------------


def test_product_rule_u2_v():
    # [DERIVED] F = u^2 v at (1,1): F=1, Fu=2, Fv=1, Fuu=2, Fuv=2, Fvv=0
    u, v = U(1.0, 2), V(1.0, 2)
    f = u * u * v
    assert float(f.value) == pytest.approx(1.0)
    assert float(f.partial(1, 0)) == pytest.approx(2.0)
    assert float(f.partial(0, 1)) == pytest.approx(1.0)
    assert float(f.partial(2, 0)) == pytest.approx(2.0)
    assert float(f.partial(1, 1)) == pytest.approx(2.0)
    assert float(f.partial(0, 2)) == pytest.approx(0.0)


def test_number_minus_jet():
    # [TRIVIAL] 3 - u v at (2, 0.5): value 2, d_u = -0.5, d_v = -2, d_uv = -1;
    # the same coefficients as the constant jet minus the jet, bit for bit
    u, v = U(np.array([2.0]), 3), V(np.array([0.5]), 3)
    f = u * v
    got = 3.0 - f
    assert got.order == 3
    assert [float(np.ravel(got.partial(*ab))[0]) for ab in ((0, 0), (1, 0), (0, 1), (1, 1))] == [
        2.0, -0.5, -2.0, -1.0,
    ]
    want = constant(3.0, 3) - f
    for a, b in zip(got.coeffs, want.coeffs):
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


def test_reciprocal_derivatives():
    # [DERIVED] d^k(1/u) at u=2: 1/2, -1/4, 1/4, -3/8, 3/4
    f = 1.0 / U(2.0, 4)
    assert float(f.value) == pytest.approx(0.5)
    assert float(f.partial(1, 0)) == pytest.approx(-0.25)
    assert float(f.partial(2, 0)) == pytest.approx(0.25)
    assert float(f.partial(3, 0)) == pytest.approx(-0.375)
    assert float(f.partial(4, 0)) == pytest.approx(0.75)


def test_sin_at_zero():
    # [DERIVED] sin at 0 through order 3: 0, 1, 0, -1
    f = jets.sin(U(0.0, 3))
    assert float(f.value) == 0.0
    assert float(f.partial(1, 0)) == 1.0
    assert float(f.partial(2, 0)) == 0.0
    assert float(f.partial(3, 0)) == -1.0


def test_sqrt_at_four():
    # [DERIVED] sqrt at 4: 2, 1/4, -1/32, 3/256
    f = jets.sqrt(U(4.0, 3))
    assert float(f.value) == pytest.approx(2.0)
    assert float(f.partial(1, 0)) == pytest.approx(0.25)
    assert float(f.partial(2, 0)) == pytest.approx(-1.0 / 32)
    assert float(f.partial(3, 0)) == pytest.approx(3.0 / 256)


def test_division_by_tiny_value_raises():
    with pytest.raises(SingularEvaluationError):
        1.0 / constant(0.0, 2)
    with pytest.raises(SingularEvaluationError):
        U(1.0, 2) / constant(1e-310, 2)


def test_log_sqrt_domain_errors():
    for fn in (jets.log, jets.sqrt):
        with pytest.raises(SingularEvaluationError):
            fn(constant(-1.0, 2))
        with pytest.raises(SingularEvaluationError):
            fn(constant(0.0, 2))


def test_singular_error_reports_batch_index():
    vals = np.array([1.0, 2.0, -3.0, 4.0])
    try:
        jets.log(constant(vals, 2))
    except SingularEvaluationError as e:
        assert e.index == 2
        assert e.value == -3.0
    else:
        pytest.fail("expected SingularEvaluationError")


# -- oracle comparisons ------------------------------------------------------


# each case: (plain-float form for the FD oracle, jet form, point)
_ORACLE_CASES = [
    (lambda u, v: math.exp(math.sin(u * v)),
     lambda u, v: jets.exp(jets.sin(u * v)), (0.7, 0.3)),
    (lambda u, v: math.sqrt(1.0 + u * u + v * v),
     lambda u, v: jets.sqrt(1.0 + u * u + v * v), (0.4, -0.8)),
    (lambda u, v: math.atan(u - 2.0 * v) * math.cosh(v),
     lambda u, v: jets.atan(u - 2.0 * v) * jets.cosh(v), (1.1, 0.2)),
    (lambda u, v: math.log(2.0 + math.sin(u) * math.sin(v)),
     lambda u, v: jets.log(2.0 + jets.sin(u) * jets.sin(v)), (2.0, 5.0)),
    (lambda u, v: math.sin(u) ** 3 / (2.0 + math.cos(v)),
     lambda u, v: jets.pow_const(jets.sin(u), 3) / (2.0 + jets.cos(v)), (0.9, 1.7)),
]


@pytest.mark.parametrize("float_fn,jet_fn,point", _ORACLE_CASES)
def test_composites_match_fd_oracle(float_fn, jet_fn, point):
    # [DERIVED] jets vs independent finite differences
    u0, v0 = point
    jet = jet_fn(U(u0), V(v0))
    expected = fd_jet_coeffs(float_fn, u0, v0, 4)
    got = np.array([float(c) for c in jet.coeffs])
    # low orders tight, orders 3-4 limited by the FD oracle itself
    assert got[:6] == pytest.approx(expected[:6], rel=2e-6, abs=2e-6)
    assert got[6:] == pytest.approx(expected[6:], rel=2e-3, abs=2e-3)


def test_pow_const_negative_base_integer_exponent():
    # integer powers must work on negative bases
    f = jets.pow_const(U(-2.0, 3), 3)
    assert float(f.value) == pytest.approx(-8.0)
    assert float(f.partial(1, 0)) == pytest.approx(12.0)
    assert float(f.partial(2, 0)) == pytest.approx(-12.0)
    assert float(f.partial(3, 0)) == pytest.approx(6.0)
    g = jets.pow_const(U(-2.0, 2), -2)
    assert float(g.value) == pytest.approx(0.25)
    assert float(g.partial(1, 0)) == pytest.approx(0.25)


def test_pow_const_fractional():
    f = jets.pow_const(U(3.0, 2), 1.5)
    assert float(f.value) == pytest.approx(3.0**1.5)
    assert float(f.partial(1, 0)) == pytest.approx(1.5 * 3.0**0.5)
    assert float(f.partial(2, 0)) == pytest.approx(0.75 * 3.0**-0.5)
    with pytest.raises(SingularEvaluationError):
        jets.pow_const(U(-1.0, 2), 0.5)


# -- derivative / truncate ---------------------------------------------------


def test_derivative_reindexing():
    u, v = U(0.6), V(1.3)
    f = jets.sin(u) * jets.cos(v)
    fu = derivative(f, du=1)
    assert fu.order == 3
    assert float(fu.value) == pytest.approx(float(f.partial(1, 0)))
    assert float(fu.partial(1, 1)) == pytest.approx(float(f.partial(2, 1)))
    fuv = derivative(f, du=1, dv=1)
    assert fuv.order == 2
    assert float(fuv.partial(0, 2)) == pytest.approx(float(f.partial(1, 3)))
    with pytest.raises(ValueError):
        derivative(f, du=5)


def test_truncate_is_prefix():
    f = jets.exp(U(0.2) * V(0.4))
    t = truncate(f, 2)
    assert t.order == 2
    assert t.coeffs == f.coeffs[:6]
    with pytest.raises(ValueError):
        truncate(t, 3)


def test_mixed_order_operands_truncate():
    a = U(1.0, 4)
    b = constant(2.0, 2)
    assert (a * b).order == 2
    assert (a + b).order == 2


# -- batched evaluation ------------------------------------------------------


def test_batched_matches_pointwise():
    us = np.array([0.3, 0.8, 1.4, 2.2])
    vs = np.array([1.0, 0.1, -0.5, 0.7])
    f_batch = jets.exp(jets.sin(variable("u", us, 4) * variable("v", vs, 4)))
    for i, (u0, v0) in enumerate(zip(us, vs)):
        f_one = jets.exp(jets.sin(U(u0) * V(v0)))
        for k in range(15):
            b = np.broadcast_to(f_batch.coeffs[k], us.shape)[i]
            assert float(b) == pytest.approx(float(f_one.coeffs[k]), rel=1e-13, abs=1e-13)


def test_batched_singular_index_points_at_offender():
    us = np.array([1.0, 0.5, 0.0, 2.0])
    try:
        1.0 / variable("u", us, 2)
    except SingularEvaluationError as e:
        assert e.index == 2
    else:
        pytest.fail("expected SingularEvaluationError")


# -- algebraic laws (property-based) ------------------------------------------


finite = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
small = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)


def _rand_jet(u0, v0, c0, c1):
    u, v = U(u0), V(v0)
    return jets.sin(u * c0) + jets.cos(v) * c1 + u * v


@settings(max_examples=60, deadline=None)
@given(finite, finite, small, small, small)
def test_mul_commutative_and_associative(u0, v0, c0, c1, c2):
    a = _rand_jet(u0, v0, c0, c1)
    b = _rand_jet(v0, u0, c1, c2)
    c = _rand_jet(u0 + 0.5, v0 - 0.5, c2, c0)
    ab = a * b
    ba = b * a
    for x, y in zip(ab.coeffs, ba.coeffs):
        np.testing.assert_allclose(x, y, rtol=0, atol=1e-12)
    lhs = (a * b) * c
    rhs = a * (b * c)
    scale = max(1.0, *(abs(float(x)) for x in lhs.coeffs))
    for x, y in zip(lhs.coeffs, rhs.coeffs):
        np.testing.assert_allclose(x, y, rtol=0, atol=1e-12 * scale)


@settings(max_examples=60, deadline=None)
@given(finite, finite, small, small, small)
def test_distributivity(u0, v0, c0, c1, c2):
    a = _rand_jet(u0, v0, c0, c1)
    b = _rand_jet(v0, u0, c1, c2)
    c = _rand_jet(u0 - 1.0, v0 + 1.0, c2, c0)
    lhs = a * (b + c)
    rhs = a * b + a * c
    scale = max(1.0, *(abs(float(x)) for x in lhs.coeffs))
    for x, y in zip(lhs.coeffs, rhs.coeffs):
        np.testing.assert_allclose(x, y, rtol=0, atol=1e-12 * scale)


@settings(max_examples=60, deadline=None)
@given(finite, finite, small, small)
def test_truncation_commutes_with_arithmetic(u0, v0, c0, c1):
    # computing at order 4 then truncating == computing at order 2
    a4 = _rand_jet(u0, v0, c0, c1)
    b4 = _rand_jet(v0, u0, c1, c0)
    hi = truncate(a4 * b4 + jets.exp(truncate(a4, 2) * 0.1), 2)
    a2, b2 = truncate(a4, 2), truncate(b4, 2)
    lo = a2 * b2 + jets.exp(a2 * 0.1)
    for x, y in zip(hi.coeffs, lo.coeffs):
        np.testing.assert_allclose(x, y, rtol=0, atol=1e-13 * max(1.0, abs(float(x))))


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.3, max_value=3.0), finite)
def test_exp_log_roundtrip(u0, v0):
    f = jets.exp(jets.cos(V(v0))) * constant(u0, 4) + constant(1.5, 4)
    back = jets.exp(jets.log(f))
    for x, y in zip(back.coeffs, f.coeffs):
        np.testing.assert_allclose(x, y, rtol=1e-12, atol=1e-12)


# -- squaring, affine composition, products by a scalar one -------------------

_POINTS = np.array([0.35, 0.6, 0.8, 1.05, 1.3])


def _copy(jet):
    """An equal jet that is a different object, with its own arrays."""
    return Jet2(jet.order, [c.copy() if isinstance(c, np.ndarray) else c for c in jet.coeffs])


def _dense(jet):
    """The same jet with every nonzero slot a full batch array, so no slot
    takes a scalar shortcut (no affine composition, no product by a scalar one)."""
    shape = _POINTS.shape
    return Jet2(jet.order, [
        c if jets._is_scalar_zero(c) else np.broadcast_to(c, shape).copy() for c in jet.coeffs
    ])


@pytest.mark.parametrize("order", range(5))
def test_square_matches_general_product(order):
    # a * a on one object takes the squaring table; positive coefficients
    # keep every slot free of cancellation, and every third slot is a scalar zero
    rng = np.random.default_rng(order)
    coeffs = [
        jets._ZERO if k % 3 == 2 else rng.uniform(0.5, 2.0, _POINTS.shape)
        for k in range(jets._NCOEFF[order])
    ]
    a = Jet2(order, coeffs)
    square, product = a * a, a * _copy(a)
    for k, (x, y) in enumerate(zip(square.coeffs, product.coeffs)):
        np.testing.assert_allclose(x, y, rtol=1e-15, atol=0, err_msg=str(k))


_ARGUMENTS = {
    "u": lambda order: variable("u", _POINTS, order),
    "v": lambda order: variable("v", _POINTS, order),
    "2u+1": lambda order: 2.0 * variable("u", _POINTS, order) + 1.0,
}


@pytest.mark.parametrize("order", range(1, 5))
@pytest.mark.parametrize("arg", sorted(_ARGUMENTS))
@pytest.mark.parametrize("name", sorted(jets.ELEMENTARY))
def test_affine_composition_matches_horner(name, arg, order):
    x = _ARGUMENTS[arg](order)
    assert jets._affine_slopes(x) is not None
    assert jets._affine_slopes(_dense(x)) is None
    direct = jets.ELEMENTARY[name](x)
    horner = jets.ELEMENTARY[name](_dense(x))
    for k, (a, b) in enumerate(zip(direct.coeffs, horner.coeffs)):
        np.testing.assert_allclose(
            np.broadcast_to(a, _POINTS.shape), np.broadcast_to(b, _POINTS.shape),
            rtol=1e-15, atol=0, err_msg=str(k),
        )


_UNARY = {
    **jets.ELEMENTARY,
    **{f"pow {p}": (lambda x, p=p: jets.pow_const(x, p)) for p in (2, 3, -1, 0.5, 1.5)},
}

# order-4 arguments, positive at _POINTS so that every function is defined
_ORDER4_ARGUMENTS = {
    "affine": lambda: 0.5 * U(_POINTS) + 0.3,
    "non-affine": lambda: 0.4 * (U(_POINTS) * V(_POINTS)) + 0.2 * U(_POINTS) + 0.6,
}


@pytest.mark.parametrize("order", range(5))
@pytest.mark.parametrize("arg", sorted(_ORDER4_ARGUMENTS))
@pytest.mark.parametrize("name", sorted(_UNARY))
def test_functions_commute_with_truncation_bit_for_bit(name, arg, order):
    # f of the order-k jet is f of the order-4 jet truncated to k: each
    # derivative a function builds is the same expression at every order,
    # and a slot reads only the derivatives through its own order
    x = _ORDER4_ARGUMENTS[arg]()
    assert (jets._affine_slopes(x) is not None) == (arg == "affine")
    low = _UNARY[name](truncate(x, order))
    high = truncate(_UNARY[name](x), order)
    assert low.order == high.order == order
    for k, (a, b) in enumerate(zip(low.coeffs, high.coeffs, strict=True)):
        assert np.array_equal(*np.broadcast_arrays(a, b)), (k, a, b)


@pytest.mark.parametrize("order", range(1, 5))
def test_products_by_a_scalar_one_are_bit_identical(order):
    # u carries a scalar one in its d_u slot and 1.0 / x multiplies by the
    # constant one; the dense copies multiply by arrays of ones instead
    a = jets.exp(variable("v", _POINTS, order) * 0.7) + jets.pow_const(variable("u", _POINTS, order), 2)
    u = variable("u", _POINTS, order)
    cases = [
        (u * a, _dense(u) * a),
        (a * u, a * _dense(u)),
        (constant(1.0, order) * a, _dense(constant(1.0, order)) * a),
        (1.0 / a, _dense(constant(1.0, order)) * jets._reciprocal(a)),
    ]
    for skipped, full in cases:
        for x, y in zip(skipped.coeffs, full.coeffs):
            assert np.array_equal(*np.broadcast_arrays(x, y))
