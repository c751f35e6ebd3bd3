"""Exception types shared across the package."""

from __future__ import annotations


class UmbilicError(Exception):
    """Base class for all package-specific errors."""


class ParseError(UmbilicError):
    """Syntax or name error in a surface expression.

    ``position`` is the 1-based character offset into the source text;
    ``hint`` is a whole phrase that says what would have been accepted
    there or how to mend the text, rendered after the message as written.
    """

    def __init__(self, message: str, position: int | None = None, hint: str | None = None):
        self.position = position
        self.hint = hint
        full = message
        if position is not None:
            full += f" (at position {position})"
        if hint:
            full += f"; {hint}"
        super().__init__(full)


class SingularEvaluationError(UmbilicError):
    """Numerical evaluation hit a domain violation or degeneracy.

    Raised for division by (near-)zero, elementary-function domain
    violations (log/sqrt of a non-positive value), and rank-deficient
    charts. ``value`` is the offending number, ``index`` the flat batch
    index it occurred at, ``point`` the (u, v) parameter point once the
    caller can supply it, ``span`` the source span of the expression
    node when evaluation came from parsed text. ``message`` is the text
    before those details.
    """

    def __init__(
        self,
        message: str,
        *,
        value: float | None = None,
        index: int | None = None,
        point: tuple[float, float] | None = None,
        span: tuple[int, int] | None = None,
    ):
        self.message = message
        self.value = value
        self.index = index
        self.point = point
        self.span = span
        parts = [message]
        if value is not None:
            parts.append(f"value={value!r}")
        if point is not None:
            parts.append(f"at (u, v)=({point[0]!r}, {point[1]!r})")
        if span is not None:
            parts.append(f"source span {span[0]}..{span[1]}")
        super().__init__("; ".join(parts))

    def with_context(
        self,
        point: tuple[float, float] | None = None,
        span: tuple[int, int] | None = None,
        where: str | None = None,
    ) -> "SingularEvaluationError":
        """Return a copy enriched with the parameter point / source span, and
        with the message prefixed by ``where: `` when given."""
        return SingularEvaluationError(
            self.message if where is None else f"{where}: {self.message}",
            value=self.value,
            index=self.index,
            point=point if point is not None else self.point,
            span=span if span is not None else self.span,
        )


class SpecValidationError(UmbilicError):
    """A surface definition is invalid (bad parameters, failed chart checks)."""


class ConformalBallError(SpecValidationError):
    """For negative ambient curvature the chart leaves the conformal ball."""


class VerifierInputError(UmbilicError):
    """A verification routine was called outside its contract."""
