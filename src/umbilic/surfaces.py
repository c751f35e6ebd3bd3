"""Surface charts: parsed immersions, built-in presets, validation, file IO.

An :class:`ImmersionSpec` is a single parametric chart (u, v) -> R^3 whose
image is read in the conformal model of the ambient space of curvature
``ambient_c``. Specs are immutable; parameter sweeps build new specs.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, replace
from functools import cached_property
from types import MappingProxyType

import numpy as np

from . import expressions as ex
from .errors import ConformalBallError, ParseError, SingularEvaluationError, SpecValidationError

RANK_TOL = 1e-8


@dataclass(frozen=True)
class ImmersionSpec:
    name: str
    components: tuple[ex.Expr, ex.Expr, ex.Expr]
    u_range: tuple[float, float]
    v_range: tuple[float, float]
    periodic_u: bool
    periodic_v: bool
    ambient_c: float
    params: MappingProxyType
    singular_margin: float = 0.0
    # closed = compact without boundary under the declared periodicity;
    # gates every global-integral check (Gauss-Bonnet, inequality runs)
    is_closed: bool = False
    # the definition file the chart was read from (None for a preset)
    source: str | None = None

    def with_params(self, **updates) -> "ImmersionSpec":
        """The spec with some parameters replaced; each must be finite, as a
        definition file's are (SpecValidationError names the first that is
        not)."""
        merged = dict(self.params)
        merged.update((k, _finite(x, f"{self.name}: parameter {k}")) for k, x in updates.items())
        return replace(self, params=MappingProxyType(merged))

    @cached_property
    def tapes(self) -> dict:
        """The recorded evaluations of this chart (`tape.Tape`, None where it
        cannot be taped), each recorded by the first non-empty call that
        needs it: every kernel (`geometry._kernel`) under (jet order, what
        it computes), which is ("nodes", classify, peaks, fields) for the
        quadrature's node kernel, "residuals" for the identities' and
        "forms" for stage one on its own."""
        return {}

    def component_sources(self) -> tuple[str, str, str]:
        return tuple(ex.to_source(c) for c in self.components)

    def interior_ranges(self) -> tuple[tuple[float, float], tuple[float, float]]:
        """(u_range, v_range) with the singular margin shaved off non-periodic axes.

        Every sampler of the chart (quadrature lattices, random interior
        points, validation grids) draws from these ranges.
        """
        (u0, u1), (v0, v1) = self.u_range, self.v_range
        m = self.singular_margin
        if not self.periodic_u:
            u0, u1 = u0 + m, u1 - m
        if not self.periodic_v:
            v0, v1 = v0 + m, v1 - m
        if not (u1 > u0 and v1 > v0):
            raise SpecValidationError(f"{self.name}: singular_margin swallows the domain")
        return (u0, u1), (v0, v1)


def evaluate_chart(spec: ImmersionSpec, u, v, order: int):
    """The three component jets of the chart at (u, v); batched if u, v are
    arrays. Work the components share is evaluated in each; a recording
    (`tape.py`) keeps each repeated call once. A SingularEvaluationError
    names its component after the chart's file (or preset name), as
    `<path>: z: ...`, since its source span is within that component."""
    out = []
    for key, component in zip("xyz", spec.components):
        try:
            out.append(ex.eval_jet(component, u, v, order, spec.params))
        except SingularEvaluationError as err:
            raise err.with_context(where=f"{spec.source or spec.name}: {key}") from None
    return tuple(out)


def interior_axes(spec: ImmersionSpec, nu: int, nv: int, *, centers=True):
    """Sample coordinates along each axis of `spec.interior_ranges()` split
    into nu x nv cells: the cell midpoints, or with centers=False the nu + 1
    and nv + 1 corners, which run from one end of the range to the other.
    The package's one sample lattice: quadrature reads it as a column of u
    and a row of v, never meshed.

    Periodic axes cover their full period. Midpoints never touch the
    (open) boundary even with zero margin.
    """
    (u0, u1), (v0, v1) = spec.interior_ranges()
    off, extra = (0.5, 0) if centers else (0.0, 1)
    us = u0 + (np.arange(nu + extra) + off) * ((u1 - u0) / nu)
    vs = v0 + (np.arange(nv + extra) + off) * ((v1 - v0) / nv)
    return us, vs


def validate(spec: ImmersionSpec, n: int = 64) -> None:
    """Reject charts that are degenerate or leave the conformal model.

    Checks on an n x n midpoint grid: (a) the chart's values and first
    partials are finite; (b) for ambient_c < 0, the image stays strictly
    inside the conformal ball (|c|/4)|f|^2 < 1; (c) the chart Jacobian has
    rank 2 in the ambient metric (smallest singular value of lambda * J
    above RANK_TOL).
    """
    if spec.singular_margin < 0:
        raise SpecValidationError(f"{spec.name}: singular_margin must be >= 0")
    if not (spec.u_range[1] > spec.u_range[0] and spec.v_range[1] > spec.v_range[0]):
        raise SpecValidationError(f"{spec.name}: empty parameter domain")
    us, vs = interior_axes(spec, n, n)
    uu, vv = np.meshgrid(us, vs, indexing="ij")
    with np.errstate(over="ignore", invalid="ignore"):  # check (a) reports it
        f = evaluate_chart(spec, uu.ravel(), vv.ravel(), order=1)
    vals = np.stack([np.broadcast_to(c.value, uu.size) for c in f], axis=-1)
    jac = np.empty((uu.size, 3, 2))
    for k, comp in enumerate(f):
        jac[:, k, 0] = np.broadcast_to(comp.partial(1, 0), uu.size)
        jac[:, k, 1] = np.broadcast_to(comp.partial(0, 1), uu.size)
    finite = np.all(np.isfinite(vals), axis=-1) & np.all(np.isfinite(jac), axis=(1, 2))
    if not np.all(finite):
        i = int(np.argmin(finite))
        raise SpecValidationError(
            f"{spec.name}: chart value or first partial is not finite "
            f"at u={uu.ravel()[i]:.6g}, v={vv.ravel()[i]:.6g}"
        )
    c = spec.ambient_c
    if c < 0:
        ball = (abs(c) / 4.0) * np.sum(vals * vals, axis=-1)
        worst = float(np.max(ball))
        if worst >= 1.0 - 1e-12:
            i = int(np.argmax(ball))
            raise ConformalBallError(
                f"{spec.name}: image leaves the conformal ball of the c={c} model "
                f"((|c|/4)|f|^2 = {worst:.6g} at u={uu.ravel()[i]:.6g}, v={vv.ravel()[i]:.6g})"
            )
    # lambda = 1 at c = 0, without forming |f|^2, which may overflow
    lam = 1.0 if c == 0 else 1.0 / (1.0 + (c / 4.0) * np.sum(vals * vals, axis=-1))[:, None, None]
    sv = np.linalg.svd(lam * jac, compute_uv=False)
    worst_sv = float(np.min(sv[:, -1]))
    if worst_sv <= RANK_TOL:
        i = int(np.argmin(sv[:, -1]))
        raise SpecValidationError(
            f"{spec.name}: chart is rank-deficient (min singular value {worst_sv:.3g} "
            f"at u={uu.ravel()[i]:.6g}, v={vv.ravel()[i]:.6g})"
        )


# -- presets -------------------------------------------------------------------

_PI = math.pi


def _spec(name, xyz, u_range, v_range, *, periodic_u=False, periodic_v=False,
          c=0.0, params=None, margin=0.0, closed=False, source=None) -> ImmersionSpec:
    params = dict(params or {})
    components = []
    for key, text in zip("xyz", xyz):
        try:
            components.append(ex.parse(text, known_params=set(params)))
        except ParseError as err:
            # named as evaluate_chart names an evaluation error
            raise SpecValidationError(f"{source or name}: {key}: {err}") from err
    return ImmersionSpec(
        name=name,
        components=tuple(components),
        u_range=(float(u_range[0]), float(u_range[1])),
        v_range=(float(v_range[0]), float(v_range[1])),
        periodic_u=periodic_u,
        periodic_v=periodic_v,
        ambient_c=float(c),
        params=MappingProxyType(params),
        singular_margin=float(margin),
        is_closed=closed,
        source=source,
    )


POLAR_MARGIN = 1e-3


def _positive(name, **vals):
    for k, x in vals.items():
        if not x > 0:
            raise SpecValidationError(f"{name}: parameter {k} must be positive, got {x}")


def _sphere(r=1.0):
    _positive("sphere", r=r)
    return _spec(
        "sphere",
        ("r*sin(u)*cos(v)", "r*sin(u)*sin(v)", "r*cos(u)"),
        (0.0, _PI), (0.0, 2 * _PI),
        periodic_v=True, params={"r": r}, margin=POLAR_MARGIN, closed=True,
    )


def _ellipsoid_rev(a=1.0, b=2.0):
    _positive("ellipsoid_rev", a=a, b=b)
    return _spec(
        "ellipsoid_rev",
        ("a*sin(u)*cos(v)", "a*sin(u)*sin(v)", "b*cos(u)"),
        (0.0, _PI), (0.0, 2 * _PI),
        periodic_v=True, params={"a": a, "b": b}, margin=POLAR_MARGIN, closed=True,
    )


def _ellipsoid_tri(a=1.0, b=1.3, c3=1.7):
    _positive("ellipsoid_tri", a=a, b=b, c3=c3)
    return _spec(
        "ellipsoid_tri",
        ("a*sin(u)*cos(v)", "b*sin(u)*sin(v)", "c3*cos(u)"),
        (0.0, _PI), (0.0, 2 * _PI),
        periodic_v=True, params={"a": a, "b": b, "c3": c3}, margin=POLAR_MARGIN,
        closed=True,
    )


def _torus(R=2.0, r=1.0):
    _positive("torus", R=R, r=r)
    if r >= R:
        raise SpecValidationError(f"torus: need r < R for an embedded torus, got r={r}, R={R}")
    return _spec(
        "torus",
        ("(R + r*cos(u))*cos(v)", "(R + r*cos(u))*sin(v)", "r*sin(u)"),
        (0.0, 2 * _PI), (0.0, 2 * _PI),
        periodic_u=True, periodic_v=True, params={"R": R, "r": r}, closed=True,
    )


def _graph_bump(A=1.0, s=0.5):
    _positive("graph_bump", s=s)
    half = 4.0 * s
    return _spec(
        "graph_bump",
        ("u", "v", "A*exp(-(u^2 + v^2)/(2*s^2))"),
        (-half, half), (-half, half),
        params={"A": A, "s": s},
    )


def _centered_sphere_spaceform(rho=0.5, c=1.0):
    _positive("centered_sphere_spaceform", rho=rho)
    if c < 0 and (abs(c) / 4.0) * rho * rho >= 1.0:
        raise ConformalBallError(
            f"centered_sphere_spaceform: rho={rho} does not fit inside the "
            f"conformal ball of the c={c} model (need rho < {2 / math.sqrt(abs(c)):.6g})"
        )
    return _spec(
        "centered_sphere_spaceform",
        ("rho*sin(u)*cos(v)", "rho*sin(u)*sin(v)", "rho*cos(u)"),
        (0.0, _PI), (0.0, 2 * _PI),
        periodic_v=True, c=c, params={"rho": rho, "c": c},
        margin=POLAR_MARGIN, closed=True,
    )


_PRESETS = {
    "sphere": _sphere,
    "ellipsoid_rev": _ellipsoid_rev,
    "ellipsoid_tri": _ellipsoid_tri,
    "torus": _torus,
    "graph_bump": _graph_bump,
    "centered_sphere_spaceform": _centered_sphere_spaceform,
}

PRESET_NAMES = tuple(_PRESETS)


def preset_defaults(name: str) -> dict:
    import inspect

    fn = _PRESETS[name]
    return {k: p.default for k, p in inspect.signature(fn).parameters.items()}


def preset(name: str, params: dict | None = None) -> ImmersionSpec:
    """A validated built-in surface. Unknown parameter names are rejected."""
    try:
        fn = _PRESETS[name]
    except KeyError:
        raise SpecValidationError(
            f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}"
        ) from None
    params = params or {}
    allowed = set(preset_defaults(name))
    bad = set(params) - allowed
    if bad:
        raise SpecValidationError(
            f"{name}: unknown parameter(s) {sorted(bad)}; accepts {sorted(allowed)}"
        )
    spec = fn(**{k: _finite(float(x), f"{name}: parameter {k}") for k, x in params.items()})
    validate(spec)
    return spec


# -- definition files ------------------------------------------------------------

_REQUIRED_KEYS = ("name", "x", "y", "z", "u_range", "v_range")


def load_definition(path) -> ImmersionSpec:
    """Read a surface definition file (INI format, see README) and validate it.

    Sections: [surface] with the chart and domain, optional [params] with
    name = value bindings. Numeric values are finite constant expressions
    ("pi/2", "2*pi"), evaluated with the chart's arithmetic.
    """
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str  # keys and parameter names keep their case, as chart names do
    try:
        with open(path) as fh:
            cp.read_file(fh)
    except (OSError, configparser.Error) as err:
        raise SpecValidationError(f"cannot read surface definition {path}: {err}") from err
    if not cp.has_section("surface"):
        raise SpecValidationError(f"{path}: missing [surface] section")
    surf = cp["surface"]
    for key in _REQUIRED_KEYS:
        if key not in surf:
            raise SpecValidationError(f"{path}: missing required key {key!r}")
    raw_params = cp["params"] if cp.has_section("params") else {}
    params = {k: _const(raw, f"{path}: params.{k}", {}) for k, raw in raw_params.items()}

    def flag(key):
        try:
            return surf.getboolean(key, fallback=False)
        except ValueError as err:
            raise SpecValidationError(f"{path}: {key}: {err}") from None

    def rng(key):
        parts = surf[key].split(",")
        if len(parts) != 2:
            raise SpecValidationError(
                f"{path}: {key} must be two comma-separated numbers, got {surf[key]!r}"
            )
        return tuple(_const(x, f"{path}: {key}", params) for x in parts)

    spec = _spec(
        surf["name"].strip(), tuple(surf[k] for k in "xyz"),
        rng("u_range"), rng("v_range"),
        periodic_u=flag("periodic_u"),
        periodic_v=flag("periodic_v"),
        c=_const(surf.get("c", "0"), f"{path}: c", params),
        params=params,
        margin=_const(surf.get("singular_margin", "0"), f"{path}: singular_margin", params),
        closed=flag("closed"),
        source=str(path),
    )
    validate(spec)
    return spec


def _const(raw: str, where: str, params: dict) -> float:
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # rejected below, not warned
            x = ex.eval_number(ex.parse(raw.strip(), known_params=set(params)), params)
    except (ParseError, SingularEvaluationError) as err:
        raise SpecValidationError(f"{where}: {err}") from err
    return _finite(x, where)


def _finite(x: float, where: str) -> float:
    """x, or SpecValidationError naming where when it is inf or nan: every
    number a chart reads, from a file or an override, must be finite."""
    if not math.isfinite(x):
        raise SpecValidationError(f"{where}: must be finite, got {x}")
    return x
