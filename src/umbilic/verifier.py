"""Sublevel-volume inequality checks and their sharpness diagnostics.

Builds per-threshold report rows combining the region integrals with the
explicit constant C = H_sup^2/2 + 4|c| + 1 (valid for thresholds <= 1) and
the exact topological term 4 pi chi. Limit-type quantities are reported as
ladders with a trend classification; a finite sample cannot certify a
limit, so no row ever claims one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import quadrature as quad
from .errors import VerifierInputError
from .quadrature import GridSpec
from .surfaces import ImmersionSpec

FOUR_PI = 4.0 * math.pi
EIGHT_PI = 8.0 * math.pi

__all__ = [
    "CorollaryRecord",
    "EpsRow",
    "SharpnessRow",
    "TheoremReport",
    "classify_trend",
    "corollary_check",
    "sharpness_gap",
    "verify_prel",
]


@dataclass(frozen=True)
class EpsRow:
    """One threshold row of the volume inequality.

    lhs = C * vol_omega_c, rhs = term1 - term2 + 4 pi chi_rounded,
    margin = lhs - rhs (the inequality asserts margin >= 0 exactly).
    c_min_empirical = rhs / vol_omega_c, the smallest constant that would
    make this row hold; informational, None when the region is empty.
    """

    eps: float
    vol_omega_c: float
    term1: float
    term2: float
    lhs: float
    rhs: float
    margin: float
    cond3_value: float
    sharp_gap: float
    tol_margin: float
    passed: bool
    c_min_empirical: float | None


@dataclass(frozen=True)
class TheoremReport:
    surface: str
    params: tuple
    ambient_c: float
    grid: GridSpec
    chi_estimate: float
    chi_rounded: int
    H_sup: float
    h_sup_measured: float
    C_const: float
    rows: tuple
    verdict: str
    warnings: tuple
    corollary: CorollaryRecord | None = None


@dataclass(frozen=True)
class CorollaryRecord:
    surface: str
    params: tuple
    eps0: float
    grid: GridSpec
    chi_estimate: float | None
    chi_rounded: int | None
    cond1_max_gradH2: float | None
    cond1_holds: bool
    cond2_max_excess: float | None
    cond2_holds: bool
    cond3_rows: tuple
    cond3_trend: str
    cond3_supported: bool
    verdict: str
    notes: tuple


@dataclass(frozen=True)
class SharpnessRow:
    eps: float
    sharp_gap: float
    normalized_gap: float


def _params_of(spec):
    return tuple(sorted((k, float(v)) for k, v in spec.params.items()))


def _check_ladder(values):
    vals = [float(e) for e in values]
    fault = quad._thresholds_fault(vals)
    if fault:
        raise VerifierInputError(fault)
    return vals


def _require_closed(spec):
    if not spec.is_closed:
        raise VerifierInputError(
            f"'{spec.name}' is not closed; the inequality's topological term"
            " needs a closed surface"
        )


# the largest relative change that classify_trend counts as a plateau
_TREND_TOL = 0.05


def classify_trend(values) -> str:
    """Coarse trend of a ladder: decreasing, increasing, or plateau.

    Compares first and last against the larger magnitude; changes within
    _TREND_TOL count as plateau.
    """
    vals = [float(v) for v in values]
    if len(vals) < 2:
        return "plateau"
    scale = max(abs(vals[0]), abs(vals[-1]))
    if scale < 1e-14:
        return "plateau"
    change = (vals[-1] - vals[0]) / scale
    if change < -_TREND_TOL:
        return "decreasing"
    if change > _TREND_TOL:
        return "increasing"
    return "plateau"


def _gradient_terms(ri):
    """(term1, term2) = (2 I_grad_hring, I_grad_H) / eps^4 of one threshold."""
    return (2.0 / ri.eps**4) * ri.I_grad_hring, (1.0 / ri.eps**4) * ri.I_grad_H


def _terms(ri, c_const):
    """(lhs, term1, term2) of one threshold row."""
    return (c_const * ri.vol_omega_c, *_gradient_terms(ri))


def verify_prel(
    spec: ImmersionSpec,
    eps_ladder,
    grid: GridSpec,
    *,
    eps0: float | None = None,
    h_sup_override: float | None = None,
    tol_margin: float | None = None,
) -> TheoremReport:
    """Check C * vol_omega_c >= term1 - term2 + 4 pi chi on a threshold ladder.

    The rows come from one quadrature pass over `grid`. tol_margin, when
    not given, is set per row to 3x the Richardson error estimate of the
    row's dominant term (lhs, term1 or term2), from that term on the grids
    G/4, G/2 and G, crediting no order above the interface's (see
    `quadrature._richardson`); one pass evaluates all three levels, the
    coarse ones on G's lattice. The grid's sides must then be divisible by 4 and at least
    64. h_sup_override replaces the measured node max in C. With eps0, the
    same pass also gives `corollary`: `corollary_check(spec, eps0, grid)`.
    """
    _require_closed(spec)
    ladder = _check_ladder(eps_ladder)
    cor_ladder = [] if eps0 is None else _corollary_ladder(eps0)
    n_levels = 1 if tol_margin is not None else 3
    fault = quad._ladder_fault(grid, n_levels)
    if fault:
        raise VerifierInputError(
            f"grid {grid.nu}x{grid.nv} has no error bar over G/4, G/2 and G: {fault};"
            " pass --tol (tol_margin) to fix the tolerance"
        )

    # one pass over both ladders; each reads its own rows by threshold
    union = sorted(set(ladder) | set(cor_ladder), reverse=True)
    passes, h_coarse, peaks = quad._region_pass(
        spec, union, grid, n_levels, _COND_PEAKS if cor_ladder else ()
    )
    levels = [tuple(level[union.index(e)] for e in ladder) for level in passes]
    integrals = levels[-1]
    corollary = None
    if cor_ladder:
        cor_rows = [passes[-1][union.index(e)] for e in cor_ladder]
        corollary = _corollary_record(spec, grid, cor_rows, peaks[union.index(cor_ladder[0])])
    chi_est, chi_round, faults = quad._chi(integrals[0].total_R)
    warnings = [f"{fault}; refine the grid" for fault in faults]

    # h_coarse: max |H| at the odd corners, the half grid's midpoints
    h_measured = integrals[0].H_sup
    if abs(h_measured - h_coarse) > 1e-3 * max(h_measured, h_coarse, 1e-300):
        warnings.append(
            f"sup|H| estimate moved {h_coarse:.6g} -> {h_measured:.6g} between grid"
            " levels; treat C as unreliable or pass an override"
        )
    h_eff = float(h_sup_override) if h_sup_override is not None else h_measured
    if h_sup_override is not None:
        warnings.append(
            f"using sup|H| override {h_eff:.6g} (measured {h_measured:.6g})"
        )
    c_const = 0.5 * h_eff * h_eff + 4.0 * abs(spec.ambient_c) + 1.0

    rows = []
    for k, ri in enumerate(integrals):
        eps = ri.eps
        terms = _terms(ri, c_const)
        lhs, term1, term2 = terms
        rhs = term1 - term2 + FOUR_PI * chi_round
        margin = lhs - rhs
        if tol_margin is not None:
            tol = float(tol_margin)
        else:
            dominant = max(range(3), key=lambda i: abs(terms[i]))
            ladder_values = [_terms(level[k], c_const)[dominant] for level in levels]
            _, err = quad._richardson(ladder_values, quad._INTERFACE_ORDER)[-1]
            tol = 3.0 * err
        rows.append(
            EpsRow(
                eps=eps,
                vol_omega_c=ri.vol_omega_c,
                term1=term1,
                term2=term2,
                lhs=lhs,
                rhs=rhs,
                margin=margin,
                cond3_value=(1.0 / eps**2) * ri.I_grad_H_plain,
                sharp_gap=term2 - term1 - FOUR_PI * chi_round,
                tol_margin=tol,
                passed=margin >= -tol,
                c_min_empirical=(rhs / ri.vol_omega_c) if ri.vol_omega_c > 0 else None,
            )
        )

    return TheoremReport(
        surface=spec.name,
        params=_params_of(spec),
        ambient_c=spec.ambient_c,
        grid=grid,
        chi_estimate=chi_est,
        chi_rounded=chi_round,
        H_sup=h_eff,
        h_sup_measured=h_measured,
        C_const=c_const,
        rows=tuple(rows),
        verdict="PASS" if all(r.passed for r in rows) else "FAIL",
        warnings=tuple(warnings),
        corollary=corollary,
    )


# conditions 1 and 2 at a node: |grad H|^2 and its excess over 2 |grad hring|^2
_COND_PEAKS = (
    lambda pg: pg.gradH_norm2,
    lambda pg: pg.gradH_norm2 - 2.0 * pg.nabla_hring_norm2,
)
_COND_TOL = 1e-10


def _corollary_ladder(eps0):
    eps0 = float(eps0)
    if not 0.0 < eps0 <= 1.0:
        raise VerifierInputError(f"eps0 must lie in (0, 1], got {eps0}")
    return [eps0 / 2.0**k for k in range(4)]


def _corollary_record(spec, grid, integrals, peak):
    """The CorollaryRecord from the eps0 ladder's RegionIntegrals and the
    `_COND_PEAKS` maxima at eps0 (None for an empty region)."""
    eps0 = integrals[0].eps
    notes = []
    if spec.is_closed:
        chi_est, chi_round, _ = quad._chi(integrals[0].total_R)
        if chi_round != 2:
            raise VerifierInputError(
                f"Euler characteristic is {chi_round}, not 2: the sufficient"
                " conditions apply to immersed spheres only"
            )
    else:
        chi_est = chi_round = None
        notes.append("chart is not closed; topological gate skipped, values informational")

    if peak is not None:
        cond1_max, cond2_max = peak
        cond1 = cond1_max < _COND_TOL
        cond2 = cond2_max <= _COND_TOL
    else:
        cond1_max = cond2_max = None
        cond1 = cond2 = True
        notes.append(f"sublevel region empty at eps0={eps0}: conditions 1-2 hold vacuously")

    cond3_rows = tuple(
        (ri.eps, (1.0 / ri.eps**2) * ri.I_grad_H_plain) for ri in integrals
    )
    trend = classify_trend([v for _, v in cond3_rows])
    cond3 = cond3_rows[-1][1] < EIGHT_PI and trend != "increasing"
    notes.append(
        "condition 3 is a limit statement; the ladder trend is evidence, not a certificate"
    )

    holds = cond1 or cond2 or cond3
    return CorollaryRecord(
        surface=spec.name,
        params=_params_of(spec),
        eps0=eps0,
        grid=grid,
        chi_estimate=chi_est,
        chi_rounded=chi_round,
        cond1_max_gradH2=cond1_max,
        cond1_holds=cond1,
        cond2_max_excess=cond2_max,
        cond2_holds=cond2,
        cond3_rows=cond3_rows,
        cond3_trend=trend,
        cond3_supported=cond3,
        verdict="implies Vol(Omega_c_0) > 0" if holds else "no condition verified",
        notes=tuple(notes),
    )


def corollary_check(spec: ImmersionSpec, eps0: float, grid: GridSpec) -> CorollaryRecord:
    """Evaluate the three sufficient conditions at threshold eps0.

    1. H constant on the sublevel region: max |grad H|^2 < _COND_TOL
       (1e-10) there.
    2. |grad H|^2 <= 2 |grad hring|^2 on the region (within _COND_TOL).
    3. (1/eps^2) integral of |grad H|^2 over the region stays below 8 pi
       along the ladder eps0 / 2^k, k = 0..3, reported with its trend.

    Conditions 1 and 2 are maxima over the base midpoints inside the eps0
    region; one quadrature pass gives them and the ladder. Closed surfaces
    must have chi = 2; open charts are evaluated for their measured values
    only, with a note that the topological gate was skipped.
    """
    ladder = _corollary_ladder(eps0)
    levels, _, peaks = quad._region_pass(spec, ladder, grid, 1, _COND_PEAKS)
    return _corollary_record(spec, grid, levels[-1], peaks[0])


def sharpness_gap(spec: ImmersionSpec, eps_ladder, grid: GridSpec):
    """Gap between term2 - term1 and 8 pi on a non-spherical revolution ellipsoid.

    Returns one SharpnessRow per threshold; the claimed limit equality
    shows up as normalized_gap -> 0 along the ladder.
    """
    _require_closed(spec)
    a = spec.params.get("a")
    b = spec.params.get("b")
    if a is None or b is None:
        raise VerifierInputError(
            f"'{spec.name}' has no (a, b) semi-axes; the sharpness check targets"
            " ellipsoids of revolution"
        )
    if abs(float(a) - float(b)) < 1e-3:
        raise VerifierInputError(
            f"semi-axes a={a}, b={b} are degenerate (near-spherical): every gap"
            " term vanishes and the normalized gap is 0/0"
        )
    ladder = _check_ladder(eps_ladder)
    rows = []
    for ri in quad._region_pass(spec, ladder, grid)[0][-1]:
        term1, term2 = _gradient_terms(ri)
        gap = term2 - term1 - EIGHT_PI
        if term2 == 0.0:
            raise VerifierInputError(
                f"no nodes fall in the sublevel region at eps={ri.eps}; the grid"
                " cannot resolve the umbilic neighborhood"
            )
        rows.append(SharpnessRow(eps=ri.eps, sharp_gap=gap, normalized_gap=gap / term2))
    return tuple(rows)
