"""Expression language for surface charts.

Small arithmetic language over the two chart variables ``u`` and ``v``,
named parameters, the constants ``pi`` and ``e``, and the elementary
functions the jet layer supports. Precedence, tightest first:

    ^  (constant exponent)  >  unary -  >  * /  >  + -

All binary operators associate to the left. ``^`` requires its exponent
to be a numeric literal (optionally negated or parenthesized); anything
else is rejected at parse time so that jet composition stays smooth.
General powers can always be spelled exp(b*log(a)).

One evaluator, `eval_jet`, reads every tree: charts at jet order >= 1 (a
chart's constant subtrees at 0) and, through `eval_number`, constants (a
definition file's numeric fields) at 0.

ASTs compare structurally (spans are ignored), and `to_source` prints a
canonical form that reparses to an identical tree.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, replace

from . import jets
from .errors import ParseError, SingularEvaluationError

FUNCTIONS = tuple(jets.ELEMENTARY)
CONSTANTS = {"pi": math.pi, "e": math.e}
VARIABLES = ("u", "v")


# -- AST ---------------------------------------------------------------------
# span = (start, end), 0-based character offsets into the source text;
# excluded from equality so printed-and-reparsed trees compare equal.


@dataclass(frozen=True)
class Number:
    value: float
    span: tuple[int, int] = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Const:
    name: str
    span: tuple[int, int] = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Var:
    name: str
    span: tuple[int, int] = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Param:
    name: str
    span: tuple[int, int] = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Unary:
    op: str
    child: "Expr"
    span: tuple[int, int] = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Binary:
    op: str
    left: "Expr"
    right: "Expr"
    span: tuple[int, int] = field(default=(0, 0), compare=False)


Expr = Number | Const | Var | Param | Unary | Binary


# -- tokenizer ---------------------------------------------------------------

_OPS = "+-*/^()"


@dataclass(frozen=True)
class _Token:
    kind: str  # 'num', 'ident', one of _OPS, or 'end'
    text: str
    start: int
    end: int


def _tokenize(text: str) -> list[_Token]:
    toks: list[_Token] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _OPS:
            toks.append(_Token(ch, ch, i, i + 1))
            i += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            lit = text[i:j]
            try:
                float(lit)
            except ValueError:
                raise ParseError(f"malformed number {lit!r}", position=i + 1) from None
            toks.append(_Token("num", lit, i, j))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(_Token("ident", text[i:j], i, j))
            i = j
            continue
        raise ParseError(
            f"unexpected character {ch!r}", position=i + 1,
            hint="expected a number, identifier, or one of + - * / ^ ( )",
        )
    toks.append(_Token("end", "", n, n))
    return toks


# -- parser ------------------------------------------------------------------


class _Parser:
    def __init__(self, text: str, known_params):
        self.text = text
        self.toks = _tokenize(text)
        self.pos = 0
        self.known_params = known_params

    def peek(self) -> _Token:
        return self.toks[self.pos]

    def take(self) -> _Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, kind: str) -> _Token:
        t = self.peek()
        if t.kind != kind:
            got = repr(t.text) if t.kind != "end" else "end of input"
            raise ParseError(
                f"unexpected {got}", position=t.start + 1, hint=f"expected {kind!r}"
            )
        return self.take()

    def parse(self) -> Expr:
        e = self.expr()
        t = self.peek()
        if t.kind != "end":
            raise ParseError(
                f"unexpected {t.text!r} after complete expression",
                position=t.start + 1,
                hint="expected an operator or end of input",
            )
        return e

    def expr(self) -> Expr:
        left = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.take()
            right = self.term()
            left = Binary(op.kind, left, right, (_start(left), _end(right)))
        return left

    def term(self) -> Expr:
        left = self.factor()
        while self.peek().kind in ("*", "/"):
            op = self.take()
            right = self.factor()
            left = Binary(op.kind, left, right, (_start(left), _end(right)))
        return left

    def factor(self) -> Expr:
        t = self.peek()
        if t.kind == "-":
            self.take()
            child = self.factor()
            return Unary("neg", child, (t.start, _end(child)))
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        while self.peek().kind == "^":
            self.take()
            exp = self.exponent()
            base = Binary("^", base, exp, (_start(base), exp.span[1]))
        return base

    def exponent(self) -> Number:
        # literal number, optionally negated and/or parenthesized; parses
        # only a signed atom so chained ^ stays left-associative
        start = self.peek().start
        signs = 0
        while self.peek().kind == "-":
            self.take()
            signs += 1
        node: Expr = self.atom()
        if signs % 2:
            node = Unary("neg", node, (start, _end(node)))
        folded = _fold_literal(node)
        if folded is None:
            raise ParseError(
                "exponent of ^ must be a numeric literal",
                position=start + 1,
                hint="write exp(b*log(a)) for a non-constant power",
            )
        return folded

    def atom(self) -> Expr:
        t = self.take()
        if t.kind == "num":
            return Number(float(t.text), (t.start, t.end))
        if t.kind == "(":
            # the group spans its parentheses, so an enclosing node's span
            # ends at the ")" it closes with
            e = self.expr()
            close = self.expect(")")
            return replace(e, span=(t.start, close.end))
        if t.kind == "ident":
            name = t.text
            if self.peek().kind == "(":
                if name not in FUNCTIONS:
                    raise ParseError(
                        f"unknown function {name!r}",
                        position=t.start + 1,
                        hint="available: " + " ".join(FUNCTIONS),
                    )
                self.take()
                arg = self.expr()
                close = self.expect(")")
                return Unary(name, arg, (t.start, close.end))
            if name in FUNCTIONS:
                raise ParseError(
                    f"function {name!r} needs an argument",
                    position=t.start + 1,
                    hint=f"write {name}(...)",
                )
            if name in VARIABLES:
                return Var(name, (t.start, t.end))
            if name in CONSTANTS:
                return Const(name, (t.start, t.end))
            if self.known_params is not None and name not in self.known_params:
                raise ParseError(
                    f"unknown identifier {name!r}",
                    position=t.start + 1,
                    hint="not a variable, constant, function, or declared parameter",
                )
            return Param(name, (t.start, t.end))
        got = repr(t.text) if t.kind != "end" else "end of input"
        raise ParseError(
            f"unexpected {got}", position=t.start + 1,
            hint="expected a number, identifier, or parenthesized expression",
        )


def _start(e: Expr) -> int:
    return e.span[0]


def _end(e: Expr) -> int:
    return e.span[1]


def _fold_literal(node: Expr) -> Number | None:
    sign = 1.0
    while isinstance(node, Unary) and node.op == "neg":
        sign = -sign
        node = node.child
    if isinstance(node, Number):
        return Number(sign * node.value, node.span)
    return None


def parse(text: str, known_params=None) -> Expr:
    """Parse an expression. With `known_params` (a set of names), any
    identifier outside variables/constants/functions/params is rejected
    here instead of at evaluation time."""
    return _Parser(text, known_params).parse()


# -- evaluation --------------------------------------------------------------


_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def eval_jet(ast: Expr, u, v, order: int, params=None) -> jets.Jet2:
    """Evaluate to a Jet2 at (u, v); both may be numpy arrays for batches.
    At order 0 the tree is a constant: u, v are None and a variable is a ParseError.

    A subtree without u or v evaluates at order 0, as `eval_number` does,
    and enters the tree as a constant jet: its derivatives are zero, and
    building them could only overflow. Its value is the one order `order`
    gives, bit for bit.

    Singular evaluations (division by zero, log/sqrt domain) are re-raised
    with the offending subexpression's source span and the parameter point
    attached. Repeated work, within a tree or across chart components, is
    evaluated each time; a recording (`tape.py`) keeps each repeated call once.
    """
    params = params or {}
    if order:
        uj = jets.variable("u", u, order)
        vj = jets.variable("v", v, order)

    def lift(jet: jets.Jet2) -> jets.Jet2:
        return jet if jet.order == order else jets.constant(jet.value, order)

    def rec(node: Expr) -> jets.Jet2:
        """node's jet: of order 0 when node holds no variable, else of order `order`."""
        if isinstance(node, Number):
            return jets.constant(node.value, 0)
        if isinstance(node, Const):
            return jets.constant(CONSTANTS[node.name], 0)
        if isinstance(node, Var):
            if not order:
                raise ParseError(
                    f"variable {node.name!r} not allowed in a constant expression",
                    position=node.span[0] + 1,
                )
            return uj if node.name == "u" else vj
        if isinstance(node, Param):
            try:
                return jets.constant(float(params[node.name]), 0)
            except KeyError:
                raise ParseError(
                    f"unknown identifier {node.name!r}",
                    position=node.span[0] + 1,
                    hint="bind it in the parameter table",
                ) from None
        try:
            if isinstance(node, Binary):
                left = rec(node.left)
                if node.op == "^":
                    return jets.pow_const(left, node.right.value)
                right = rec(node.right)
                if left.order != right.order:
                    left, right = lift(left), lift(right)
                return _BINARY[node.op](left, right)
            if node.op == "neg":
                return -rec(node.child)
            return jets.ELEMENTARY[node.op](rec(node.child))
        except SingularEvaluationError as err:
            if err.span is None:
                raise _locate(err, u, v, node.span)
            raise

    try:
        return lift(rec(ast))
    finally:
        # rec refers to itself; breaking that cycle frees the (u, v) views
        # now, not at the next garbage collection
        del rec


def _locate(err: SingularEvaluationError, u, v, span=None) -> SingularEvaluationError:
    """err with the (u, v) point it occurred at, and span when given.

    A scalar (u, v) is the point itself; in a batch it is the entry at the
    error's flat index, or the first entry for an error without one, which
    was raised for the whole batch and so holds at every node. A point the
    error already carries is kept; a constant (u None) and an empty batch
    have none.
    """
    import numpy as np

    point = err.point
    if point is None and u is not None:
        shape = np.broadcast_shapes(np.shape(u), np.shape(v))
        if not shape:
            point = (float(u), float(v))
        elif math.prod(shape):
            uu = np.broadcast_to(u, shape).ravel()
            vv = np.broadcast_to(v, shape).ravel()
            index = err.index or 0
            point = (float(uu[index]), float(vv[index]))
    return err.with_context(point=point, span=span)


def eval_number(ast: Expr, params=None) -> float:
    """Evaluate a constant expression (no u, v) to a plain float: `eval_jet`
    at order 0, with the chart's arithmetic and domain checks."""
    return float(eval_jet(ast, None, None, 0, params).value)


# -- canonical printing ------------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def _fmt_number(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


def to_source(ast: Expr) -> str:
    """Canonical text form; parses back to a structurally equal AST."""

    def prec(node: Expr) -> int:
        if isinstance(node, Binary):
            return _PREC[node.op]
        if isinstance(node, Unary) and node.op == "neg":
            return _PREC["neg"]
        if isinstance(node, Number) and node.value < 0:
            return _PREC["neg"]  # prints with a leading minus
        return 9

    def wrap(child: Expr, parent_prec: int, right_side: bool) -> str:
        s = rec(child)
        p = prec(child)
        if p < parent_prec or (p == parent_prec and right_side):
            return f"({s})"
        return s

    def rec(node: Expr) -> str:
        if isinstance(node, Number):
            return _fmt_number(node.value)
        if isinstance(node, (Const, Var, Param)):
            return node.name
        if isinstance(node, Unary):
            if node.op == "neg":
                return "-" + wrap(node.child, _PREC["neg"], True)
            return f"{node.op}({rec(node.child)})"
        if node.op == "^":
            base = wrap(node.left, _PREC["^"], False)
            return f"{base}^{_fmt_number(node.right.value)}"
        left = wrap(node.left, _PREC[node.op], False)
        right = wrap(node.right, _PREC[node.op], True)
        return f"{left}{node.op}{right}"

    return rec(ast)

