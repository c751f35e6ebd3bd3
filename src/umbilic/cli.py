"""Command-line front end: identity suites, inequality checks, sweeps, studies.

Commands write JSON and/or CSV reports into --out. Every file embeds the
fully resolved configuration (surface, parameters, grid, seed, version),
so a report is reproducible from its own header. JSON reports carry a
"timestamp" field; everything else is byte-deterministic for identical
inputs. Exit codes: 0 success/PASS, 1 verification failure, 2 input or
numeric error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, geometry, quadrature, surfaces, verifier
from .errors import UmbilicError, VerifierInputError
from .quadrature import GridSpec

DEFAULT_SEED = 1729
DEFAULT_EPS = (0.5, 0.25, 0.1, 0.05)
DEFAULT_IDENTITY_TOL = 1e-8
# second-derivative-level identity: two extra jet orders cost ~100x in noise
BOCHNER_TOL_FACTOR = 100.0

VERIFY_CSV_COLUMNS = (
    "eps", "vol_omega_c", "term1", "term2", "lhs", "rhs", "margin",
    "cond3_value", "sharp_gap",
)


def build_parser() -> argparse.ArgumentParser:
    # no abbreviated options: a surface parameter override (--s for a
    # parameter s) must not be read as a built-in option it prefixes (--seed)
    p = argparse.ArgumentParser(
        prog="umbilic",
        description="curvature identity checks and sublevel-volume inequality reports",
        allow_abbrev=False,
    )
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, help):
        return sub.add_parser(name, help=help, allow_abbrev=False)

    def common(sp, eps_flag=True):
        src = sp.add_mutually_exclusive_group()
        src.add_argument("--preset", help="built-in surface name")
        src.add_argument("--file", help="surface definition file")
        sp.add_argument("--c", type=float, default=None,
                        help="override the background curvature")
        sp.add_argument("--grid", default="512x512", metavar="NUxNV",
                        help="base grid cells per axis (default 512x512)")
        sp.add_argument("--depth", type=int, default=6,
                        help="sub-lattice of a cell the |hring| = eps interface crosses:"
                             " 2^min(depth, 1) per side, 2^min(depth, 4) near an umbilic,"
                             " so depths 4 through 12 all give depth 4's; 0 for none"
                             " (default 6)")
        if eps_flag:
            sp.add_argument("--eps", default=None, metavar="LIST",
                            help="comma-separated threshold ladder, descending")
        sp.add_argument("--out", default=".", metavar="DIR",
                        help="output directory (default: current)")
        sp.add_argument("--format", default="both", choices=("json", "csv", "both"))
        sp.add_argument("--seed", type=int, default=DEFAULT_SEED)
        return sp

    sp = common(command("identities", help="residuals of the curvature identities"),
                eps_flag=False)
    sp.add_argument("--n", type=int, default=1000, help="number of sample points")
    sp.add_argument("--tol", type=float, default=None,
                    help="residual tolerance (default 1e-8, times 100 for bochner)")

    sp = common(command("verify", help="volume inequality along a threshold ladder"))
    sp.add_argument("--tol", type=float, default=None,
                    help="fixed margin tolerance for every row (runs G only, no error bar)")
    sp.add_argument("--eps0", type=float, default=None,
                    help="also evaluate the sufficient conditions at this threshold")
    sp.add_argument("--hsup-override", type=float, default=None, dest="hsup_override",
                    help="replace the measured sup|H| in the constant")

    common(command("sweep", help="sharpness gap ladder on revolution ellipsoids"))

    sp = common(command("convergence", help="grid-convergence study"))
    sp.add_argument("--field", default="area", choices=("area", "total_R", "vol"),
                    help="integrand: area, total curvature, or sublevel volume (needs --eps)")
    sp.add_argument("--levels", type=int, default=3, help="number of doubling levels")

    command("list-presets", help="available surfaces and their defaults")
    return p


# -- config handling ----------------------------------------------------------


def _parse_grid(text) -> tuple[int, int]:
    try:
        nu, nv = (int(part) for part in str(text).lower().split("x"))
    except ValueError:
        raise ValueError(f"--grid expects NUxNV, got {text!r}") from None
    return nu, nv


def _parse_eps(text):
    tokens = str(text).split(",")
    if not all(tok.strip() for tok in tokens):
        raise ValueError(f"--eps has an empty entry in {text!r}")
    try:
        return [float(tok) for tok in tokens]
    except ValueError:
        raise ValueError(f"--eps expects comma-separated numbers, got {text!r}") from None


def _ladder(text, default=DEFAULT_EPS):
    """The --eps threshold ladder (default when not given), checked as the
    verifier checks it."""
    try:
        return verifier._check_ladder(default if text is None else _parse_eps(text))
    except VerifierInputError as exc:
        raise ValueError(f"--eps: {exc}") from None


def _param_overrides(extra) -> dict:
    """Leftover `--name value` pairs become surface parameters."""
    if len(extra) % 2:
        raise ValueError(f"parameter flag without a value near {extra[-1]!r}")
    out = {}
    for flag, value in zip(extra[::2], extra[1::2]):
        if not (flag.startswith("--") and len(flag) > 2):
            raise ValueError(f"unrecognized argument {flag!r}")
        try:
            out[flag[2:]] = float(value)
        except ValueError:
            raise ValueError(f"parameter {flag} expects a number, got {value!r}") from None
    return out


def _resolve_surface(args, params) -> surfaces.ImmersionSpec:
    _check("--c", args.c, np.isfinite, "finite")
    if args.file:
        spec = surfaces.load_definition(args.file)
        if params:
            unknown = set(params) - set(spec.params)
            if unknown:
                raise ValueError(
                    f"parameters {sorted(unknown)} are not declared by {args.file}"
                )
            spec = spec.with_params(**params)
            surfaces.validate(spec)
    elif args.preset:
        if (args.c is not None and args.preset in surfaces.PRESET_NAMES
                and "c" in surfaces.preset_defaults(args.preset)):
            # the preset's own c parameter, so the header names it and the
            # preset's conformal-ball check runs
            params = {**params, "c": args.c}
        spec = surfaces.preset(args.preset, params or None)
    else:
        raise ValueError("choose a surface with --preset or --file")
    if args.c is not None and args.c != spec.ambient_c:
        spec = replace(spec, ambient_c=float(args.c))
        surfaces.validate(spec)
    return spec


def _grid_of(args) -> GridSpec:
    nu, nv = _parse_grid(args.grid)
    try:
        return GridSpec(nu, nv, args.depth)
    except ValueError as exc:
        flag = "--depth" if str(exc).startswith("adaptive_depth") else "--grid"
        raise ValueError(f"{flag}: {exc}") from None


def _check(flag, value, ok, what):
    """value of flag, which must satisfy ok when given."""
    if value is not None and not ok(value):
        raise ValueError(f"{flag} must be {what}, got {value!r}")
    return value


def _check_tol(tol):
    return _check("--tol", tol, lambda t: np.isfinite(t) and t > 0, "finite and positive")


def _surface_payload(spec):
    return {
        "name": spec.name,
        "params": {k: float(v) for k, v in sorted(spec.params.items())},
        "c": spec.ambient_c,
        "closed": spec.is_closed,
        "components": list(spec.component_sources()),
    }


def _config_lines(cfg, spec):
    lines = [
        f"command={cfg['command']}",
        f"source={cfg['source']}",
        f"surface={spec.name}",
        "params=" + ",".join(f"{k}:{v!r}" for k, v in sorted(spec.params.items())),
        f"c={spec.ambient_c!r}",
        f"grid={cfg['grid']['nu']}x{cfg['grid']['nv']}",
        f"depth={cfg['grid']['adaptive_depth']}",
        f"seed={cfg['seed']}",
        f"version={cfg['version']}",
    ]
    for key in sorted(cfg):
        if key not in ("command", "source", "grid", "seed", "version"):
            lines.append(f"{key}={cfg[key]}")
    return lines


def _write_json(path: Path, payload):
    payload = dict(payload)
    payload["timestamp"] = datetime.now(timezone.utc).isoformat()
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_csv(path: Path, header, rows, config_lines):
    with open(path, "w", newline="") as fh:
        for line in config_lines:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _emit(args, spec, grid, config, rows, verdict, csv_header, **fields):
    """Write the command's report and rows into --out, as --format asks. The
    config echo adds the command's `config` keys to the resolved source,
    grid, seed and version; `fields` override the report's chi, H_sup and
    C_const (None) and errors ([]). Each CSV row holds its report row's
    `csv_header` values, strings as they are and anything else by repr."""
    # output routing (--out, --format) stays out of the payload so reruns
    # into different directories produce identical reports
    cfg = {
        "command": args.command,
        "source": f"file:{args.file}" if args.file else f"preset:{args.preset}",
        "grid": {"nu": grid.nu, "nv": grid.nv, "adaptive_depth": grid.adaptive_depth},
        "seed": args.seed,
        "version": __version__,
        **config,
    }
    payload = {
        "config": cfg,
        "surface": _surface_payload(spec),
        "chi": None,
        "H_sup": None,
        "C_const": None,
        "rows": rows,
        "verdict": verdict,
        "errors": [],
        **fields,
    }
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    if args.format in ("json", "both"):
        p = out / f"{args.command}_report.json"
        _write_json(p, payload)
        written.append(p)
    if args.format in ("csv", "both"):
        p = out / f"{args.command}_rows.csv"
        csv_rows = [[r[k] if isinstance(r[k], str) else repr(r[k]) for k in csv_header]
                    for r in rows]
        _write_csv(p, csv_header, csv_rows, _config_lines(cfg, spec))
        written.append(p)
    for p in written:
        print(f"wrote {p}")


# -- commands -------------------------------------------------------------------


def cmd_identities(args, params) -> int:
    spec = _resolve_surface(args, params)
    grid = _grid_of(args)  # recorded for reproducibility; sampling is random
    tol = _check_tol(args.tol if args.tol is not None else DEFAULT_IDENTITY_TOL)
    if args.n < 1:
        raise ValueError(f"--n must be at least 1, got {args.n}")
    rng = np.random.default_rng(args.seed)
    (u0, u1), (v0, v1) = spec.interior_ranges()
    us, vs = rng.uniform(u0, u1, args.n), rng.uniform(v0, v1, args.n)

    names = geometry.RESIDUALS
    stats = dict(zip(names, quadrature._chunked(
        lambda u, v: geometry.residual_norms(spec, u, v), us, vs
    )))

    rows = []
    all_ok = True
    for name in names:
        arr = np.asarray(stats[name])
        bound = tol * BOCHNER_TOL_FACTOR if name == "bochner" else tol
        ok = bool(np.max(arr) < bound)
        all_ok &= ok
        rows.append({
            "identity": name,
            "max_residual": float(np.max(arr)),
            "mean_residual": float(np.mean(arr)),
            "tolerance": bound,
            "passed": ok,
        })

    verdict = "PASS" if all_ok else "FAIL"
    _emit(args, spec, grid, {"n": args.n, "tol": tol}, rows, verdict,
          ("identity", "max_residual", "mean_residual", "tolerance", "passed"))
    print(f"identities: {verdict} "
          f"(worst {max(r['max_residual'] for r in rows):.3e} over {args.n} points)")
    return 0 if all_ok else 1


def cmd_verify(args, params) -> int:
    spec = _resolve_surface(args, params)
    grid = _grid_of(args)
    ladder = _ladder(args.eps)
    h_sup = _check("--hsup-override", args.hsup_override, lambda h: np.isfinite(h) and h >= 0,
                   "finite and non-negative")
    report = verifier.verify_prel(
        spec, ladder, grid, eps0=args.eps0, h_sup_override=h_sup,
        tol_margin=_check_tol(args.tol),
    )
    rows = [asdict(r) for r in report.rows]
    config = {
        "eps": [float(e) for e in ladder],
        "eps0": args.eps0,
        "tol": args.tol,
        "hsup_override": args.hsup_override,
    }
    fields = {}
    if report.corollary is not None:
        skip = ("surface", "params", "grid", "chi_estimate", "chi_rounded")
        fields["corollary"] = {k: v for k, v in asdict(report.corollary).items() if k not in skip}
    _emit(args, spec, grid, config, rows, report.verdict, VERIFY_CSV_COLUMNS,
          chi={"estimate": report.chi_estimate, "rounded": report.chi_rounded},
          H_sup=report.H_sup, C_const=report.C_const, errors=list(report.warnings), **fields)

    print(f"verify: {report.verdict} surface={spec.name} chi={report.chi_rounded} "
          f"C={report.C_const:.6g}")
    for r in report.rows:
        cmin = "n/a" if r.c_min_empirical is None else f"{r.c_min_empirical:.4g}"
        print(f"  eps={r.eps:<6g} margin={r.margin:+.6e} tol={r.tol_margin:.2e} "
              f"minimal C={cmin}")
    for w in report.warnings:
        print(f"  note: {w}")
    return 0 if report.verdict == "PASS" else 1


def cmd_sweep(args, params) -> int:
    spec = _resolve_surface(args, params)
    grid = _grid_of(args)
    ladder = _ladder(args.eps, (0.4, 0.2, 0.1, 0.05))
    rows = verifier.sharpness_gap(spec, ladder, grid)
    trend = verifier.classify_trend([abs(r.normalized_gap) for r in rows])

    report_rows = [
        {"eps": r.eps, "sharp_gap": r.sharp_gap, "normalized_gap": r.normalized_gap,
         "trend": trend}
        for r in rows
    ]
    _emit(args, spec, grid, {"eps": [float(e) for e in ladder]}, report_rows, trend,
          ("eps", "sharp_gap", "normalized_gap", "trend"))
    print(f"sweep: |normalized gap| trend is {trend}")
    for r in rows:
        print(f"  eps={r.eps:<6g} gap={r.sharp_gap:+.6e} normalized={r.normalized_gap:+.6e}")
    return 0 if trend == "decreasing" else 1


def cmd_convergence(args, params) -> int:
    spec = _resolve_surface(args, params)
    grid = _grid_of(args)
    if args.levels < 3:
        raise ValueError("--levels must be at least 3")
    fault = quadrature._ladder_fault(grid, args.levels)
    if fault:
        raise ValueError(f"--levels {args.levels} on --grid {grid.nu}x{grid.nv}: {fault}")

    if args.field != "vol" and args.eps is not None:
        raise ValueError(
            f"--eps needs --field vol; --field {args.field} integrates the whole surface"
        )
    if args.field == "area":
        field, region = quadrature.AREA, quadrature.ALL
    elif args.field == "total_R":
        field, region = quadrature.TOTAL_R, quadrature.ALL
    else:
        ladder = [] if args.eps is None else _parse_eps(args.eps)
        if len(ladder) != 1:
            raise ValueError("--field vol needs --eps with exactly one threshold")
        try:
            region = quadrature.sublevel(ladder[0])
        except ValueError as exc:
            raise ValueError(f"--eps: {exc}") from None
        field = quadrature.AREA

    study = quadrature.convergence_study(spec, field, region, grid, args.levels)

    def order_cell(o):
        if o is None:
            return ""
        return o if isinstance(o, str) else repr(o)

    rows = []
    for row in study.rows:
        rows.append({
            "grid": f"{row.grid.nu}x{row.grid.nv}",
            "value": row.value,
            "estimated_order": order_cell(row.estimated_order),
            "error_estimate": "" if row.error_estimate is None else row.error_estimate,
        })

    verdict = order_cell(study.order) or "n/a"
    _emit(args, spec, grid, {"field": args.field, "levels": args.levels, "eps": args.eps},
          rows, verdict, ("grid", "value", "estimated_order", "error_estimate"))
    print(f"convergence: value={study.value!r} order={verdict} "
          f"error~{study.error_estimate:.3e}")
    return 0


def cmd_list_presets() -> int:
    for name in surfaces.PRESET_NAMES:
        defaults = surfaces.preset_defaults(name)
        spec = surfaces.preset(name)
        shape = "closed" if spec.is_closed else "open"
        args_text = ", ".join(f"{k}={v}" for k, v in defaults.items())
        print(f"{name}({args_text})  [{shape}, c={spec.ambient_c}]")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args, extra = parser.parse_known_args(argv)
    try:
        if args.command == "list-presets":
            if extra:
                raise ValueError(f"unrecognized arguments: {' '.join(extra)}")
            return cmd_list_presets()
        params = _param_overrides(extra)
        _check("--seed", args.seed, lambda s: s >= 0, "a non-negative integer")
        if args.command == "identities":
            return cmd_identities(args, params)
        if args.command == "verify":
            return cmd_verify(args, params)
        if args.command == "sweep":
            return cmd_sweep(args, params)
        if args.command == "convergence":
            return cmd_convergence(args, params)
        raise ValueError(f"unknown command {args.command!r}")
    except (UmbilicError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
