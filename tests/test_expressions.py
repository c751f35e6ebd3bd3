import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from umbilic import expressions as ex
from umbilic.errors import ParseError, SingularEvaluationError

from oracles import fd_jet_coeffs


def ev(text, u, v, order=2, params=None):
    return ex.eval_jet(ex.parse(text), u, v, order, params)


# -- grammar ------------------------------------------------------------------


def test_basic_structure():
    # [TRIVIAL] function application and product
    ast = ex.parse("sin(u)*cos(v)")
    assert ast == ex.Binary("*", ex.Unary("sin", ex.Var("u")), ex.Unary("cos", ex.Var("v")))


def test_precedence_mul_over_add():
    # [TRIVIAL] 2 + 3*u at u=4
    j = ev("2 + 3*u", 4.0, 0.0, order=1)
    assert float(j.value) == pytest.approx(14.0)
    assert float(j.partial(1, 0)) == pytest.approx(3.0)


def test_left_associativity():
    assert ex.eval_number(ex.parse("10-3-2")) == pytest.approx(5.0)
    assert ex.eval_number(ex.parse("16/4/2")) == pytest.approx(2.0)
    assert ex.eval_number(ex.parse("2^3^2")) == pytest.approx(64.0)


def test_unary_minus_binds_looser_than_power():
    assert ex.eval_number(ex.parse("-2^2")) == pytest.approx(-4.0)
    assert ex.eval_number(ex.parse("(-2)^2")) == pytest.approx(4.0)


def test_negative_literal_exponent():
    j = ev("u^-2", 2.0, 0.0, order=1)
    assert float(j.value) == pytest.approx(0.25)
    assert float(j.partial(1, 0)) == pytest.approx(-0.25)
    assert ex.parse("u^(-2)") == ex.parse("u^-2")


def test_constants_and_whitespace():
    assert ex.eval_number(ex.parse(" pi / 2 ")) == pytest.approx(math.pi / 2)
    assert ex.eval_number(ex.parse("e^2")) == pytest.approx(math.e**2)


def test_nonconstant_exponent_rejected():
    with pytest.raises(ParseError) as exc:
        ex.parse("u^v")
    assert "literal" in str(exc.value)
    with pytest.raises(ParseError):
        ex.parse("2^(1+1)")


def test_unknown_function():
    with pytest.raises(ParseError) as exc:
        ex.parse("tan(u)")
    assert "tan" in str(exc.value)


def test_function_without_call():
    with pytest.raises(ParseError):
        ex.parse("sin + 2")


@pytest.mark.parametrize("text, known, message", [
    ("u + $", None, "unexpected character '$' (at position 5);"
     " expected a number, identifier, or one of + - * / ^ ( )"),
    ("(u", None, "unexpected end of input (at position 3); expected ')'"),
    ("u v", None, "unexpected 'v' after complete expression (at position 3);"
     " expected an operator or end of input"),
    ("u^v", None, "exponent of ^ must be a numeric literal (at position 3);"
     " write exp(b*log(a)) for a non-constant power"),
    ("foo(u)", None, "unknown function 'foo' (at position 1); available: "
     + " ".join(ex.FUNCTIONS)),
    ("sin + 2", None, "function 'sin' needs an argument (at position 1); write sin(...)"),
    ("a*cos(u)", set(), "unknown identifier 'a' (at position 1);"
     " not a variable, constant, function, or declared parameter"),
    ("2 + * 3", None, "unexpected '*' (at position 5);"
     " expected a number, identifier, or parenthesized expression"),
])
def test_parse_error_renders_its_hint_as_written(text, known, message):
    # each hint is a whole phrase: the message carries it after "; " as it
    # is, with no word of its own ahead of it
    with pytest.raises(ParseError) as exc:
        ex.parse(text, known_params=known)
    assert str(exc.value) == message


def test_unbound_parameter_error_renders_its_hint_as_written():
    with pytest.raises(ParseError) as exc:
        ex.eval_jet(ex.parse("a*u"), 0.0, 0.0, 2, {})
    assert str(exc.value) == "unknown identifier 'a' (at position 1); bind it in the parameter table"


def test_syntax_error_positions():
    with pytest.raises(ParseError) as exc:
        ex.parse("2 + * 3")
    assert exc.value.position == 5
    with pytest.raises(ParseError) as exc:
        ex.parse("sin(u")
    assert "')'" in (exc.value.hint or "")
    with pytest.raises(ParseError):
        ex.parse("(u+v")
    with pytest.raises(ParseError) as exc:
        ex.parse("u v")
    assert exc.value.position == 3
    with pytest.raises(ParseError):
        ex.parse("2..5 + u")
    with pytest.raises(ParseError) as exc:
        ex.parse("u + $")
    assert exc.value.position == 5


def test_unknown_identifier_with_declared_params():
    # [TRIVIAL] error path: a not declared
    with pytest.raises(ParseError) as exc:
        ex.parse("a*cos(u)", known_params=set())
    assert "a" in str(exc.value)
    ast = ex.parse("a*cos(u)", known_params={"a"})
    assert isinstance(ast.left, ex.Param)


def test_unbound_parameter_at_eval():
    ast = ex.parse("a*cos(u)")
    with pytest.raises(ParseError):
        ex.eval_jet(ast, 0.0, 0.0, 1, params={})
    j = ex.eval_jet(ast, 0.0, 0.0, 1, params={"a": 2.5})
    assert float(j.value) == pytest.approx(2.5)


# -- evaluation ---------------------------------------------------------------


def test_eval_uv_product():
    # [TRIVIAL] u*v at (2,3) order 1
    j = ev("u*v", 2.0, 3.0, order=1)
    assert float(j.value) == pytest.approx(6.0)
    assert float(j.partial(1, 0)) == pytest.approx(3.0)
    assert float(j.partial(0, 1)) == pytest.approx(2.0)


def test_eval_sphere_component():
    # [TRIVIAL] sin(u)*cos(v) at (pi/2, 0): value 1, d2/du2 = -1
    j = ev("sin(u)*cos(v)", math.pi / 2, 0.0, order=2)
    assert float(j.value) == pytest.approx(1.0)
    assert float(j.partial(2, 0)) == pytest.approx(-1.0)


def test_eval_matches_fd_oracle():
    # [DERIVED] expression partials vs central finite differences
    text = "a*sin(u)*cos(v) + sqrt(1 + u^2) / cosh(v - 1)"
    params = {"a": 1.7}
    ast = ex.parse(text)
    u0, v0 = 0.8, 0.45

    def plain(u, v):
        return params["a"] * math.sin(u) * math.cos(v) + math.sqrt(1 + u * u) / math.cosh(v - 1)

    j = ex.eval_jet(ast, u0, v0, 4, params)
    expected = fd_jet_coeffs(plain, u0, v0, 4)
    got = np.array([float(c) for c in j.coeffs])
    assert got[:6] == pytest.approx(expected[:6], rel=1e-5, abs=1e-6)
    assert got[6:] == pytest.approx(expected[6:], rel=1e-3, abs=1e-3)


def test_eval_batched():
    us = np.linspace(0.1, 2.0, 7)
    j = ev("sin(u)*cos(v) + u^2", us, 0.3, order=2)
    np.testing.assert_allclose(
        j.value, np.sin(us) * np.cos(0.3) + us**2, rtol=1e-14
    )


def _nodes(e):
    yield e
    for name in ("child", "left", "right"):
        if hasattr(e, name):
            yield from _nodes(getattr(e, name))


@pytest.mark.parametrize("text, spans", [
    ("(u)", [(0, 3)]),
    ("1/(u*1e200)", [(0, 11), (0, 1), (2, 11), (3, 4), (5, 10)]),
    ("(a + b)*c", [(0, 9), (0, 7), (1, 2), (5, 6), (8, 9)]),
])
def test_each_span_slices_its_own_source(text, spans):
    # a parenthesized group spans its parentheses, so a node around it
    # ends at the ")" that closes it; each slice parses back to its node
    ast = ex.parse(text)
    assert [node.span for node in _nodes(ast)] == spans
    for node in _nodes(ast):
        start, end = node.span
        assert ex.parse(text[start:end]) == node


def test_singular_eval_annotated_with_span_and_point():
    ast = ex.parse("1/(u-1)")
    with pytest.raises(SingularEvaluationError) as exc:
        ex.eval_jet(ast, 1.0, 0.5, 2)
    err = exc.value
    assert err.point == (1.0, 0.5)
    assert err.span is not None
    with pytest.raises(SingularEvaluationError) as exc:
        ex.eval_jet(ast, np.array([0.0, 1.0, 2.0]), 0.5, 2)
    assert exc.value.point == (1.0, 0.5)


def test_readme_function_list_matches_parser():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    listed = re.search(r"and the functions\s+`([^`]+)`", readme).group(1).split()
    for name in listed:
        ex.parse(f"{name}(u)")
    assert set(listed) == set(ex.FUNCTIONS)
    powers = re.search(r"arithmetic operators with (.+?) for powers", readme, re.S).group(1)
    named = re.findall(r"`([^`]+)`", powers)
    assert named
    for op in named:
        ex.parse(f"u{op}2")


def test_eval_number_rejects_variables():
    with pytest.raises(ParseError):
        ex.eval_number(ex.parse("2*u"))


# -- canonical printing ---------------------------------------------------------

_leaf = st.one_of(
    st.floats(min_value=0.0, max_value=9.0, allow_nan=False).map(ex.Number),
    st.sampled_from(["u", "v"]).map(ex.Var),
    st.sampled_from(["pi", "e"]).map(ex.Const),
    st.sampled_from(["alpha", "b2"]).map(ex.Param),
)


def _compound(children):
    unary = st.builds(
        ex.Unary, st.sampled_from(["neg", "sin", "cos", "exp", "sqrt", "log"]), children
    )
    binary = st.builds(ex.Binary, st.sampled_from(["+", "-", "*", "/"]), children, children)
    power = st.builds(
        ex.Binary,
        st.just("^"),
        children,
        st.floats(min_value=-4.0, max_value=4.0, allow_nan=False).map(ex.Number),
    )
    return st.one_of(unary, binary, power)


_ast = st.recursive(_leaf, _compound, max_leaves=12)


@settings(max_examples=150, deadline=None)
@given(_ast)
def test_parse_print_parse_idempotent(ast):
    printed = ex.to_source(ast)
    reparsed = ex.parse(printed)
    assert reparsed == ast
    assert ex.to_source(reparsed) == printed


@pytest.mark.parametrize(
    "text",
    [
        "sin(u)*cos(v)",
        "-(u+v)*2",
        "u^2^3",
        "a/(b2/2)/u",
        "1 - (2 - 3) - 4",
        "sqrt(1 + u^-2)",
        "-u^2 + (-u)^2",
    ],
)
def test_print_of_parse_is_stable(text):
    ast = ex.parse(text)
    assert ex.parse(ex.to_source(ast)) == ast
