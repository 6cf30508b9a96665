"""Batch front-end: config-driven runs emitting CSV/SVG reports.

Commands: solve, identity, poincare, sweep, rigidity (solve on a
constant-radius spec with a pass/fail summary).  Configs are flat INI-style
files; unknown sections or keys are rejected.  Exit codes: 0 success,
1 validation error, 2 numerical failure, 3 theorem/assertion failure (a
failed rigidity summary always, identity and sweep verdicts under --strict).
"""

from __future__ import annotations

import argparse
import configparser
import math
import os
import sys
from dataclasses import dataclass

from . import fem, poincare, quantities, stability, svgplot
from .geometry import (ConstantRadius, DomainError, DomainSpec,
                       make_sector_domain, parse_radius_spec)
from .mesher import MeshError, write_mesh
from .quantities import DeficitReport

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2
EXIT_ASSERTION = 3

_KNOWN_KEYS = {
    "domain": {"angle", "radius", "radius_points", "samples"},
    "mesh": {"h_target", "degree", "refinements"},
    "sweep": {"mode", "epsilons"},
    "poincare": {"alphas", "kinds", "levels"},
    "output": {"prefix", "export_mesh", "export_solution"},
}


class ConfigError(ValueError):
    pass


def parse_angle(text: str) -> float:
    """Angles as plain radians or simple pi expressions: pi/2, 2pi, 0.75pi."""
    t = text.strip().lower().replace(" ", "")
    if "pi" not in t:
        return float(t)
    head, _, tail = t.partition("pi")
    factor = 1.0
    if head:
        factor *= float(head)
    if tail:
        if not tail.startswith("/"):
            raise ConfigError(f"cannot parse angle {text!r}")
        factor /= float(tail[1:])
    return factor * math.pi


@dataclass
class RunConfig:
    spec: DomainSpec
    h_target: float
    refinements: int
    sweep_mode: int | None
    sweep_eps: tuple
    alphas: tuple
    kinds: tuple
    poincare_levels: int
    prefix: str
    export_mesh: bool
    export_solution: bool


def _bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("yes", "true", "on", "1"):
        return True
    if t in ("no", "false", "off", "0"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


def _floats(text: str) -> tuple:
    return tuple(float(w) for w in text.split())


def _some_of(convert, allowed: tuple):
    """Converter of a non-empty list of values from ``allowed``."""
    def parse(text: str) -> tuple:
        values = tuple(convert(w) for w in text.split())
        if not values or any(v not in allowed for v in values):
            raise ValueError(f"expected one or more of {', '.join(map(str, allowed))}")
        return values
    return parse


def _count(text: str) -> int:
    """A level count, at least 1."""
    n = int(text)
    if n < 1:
        raise ValueError("must be at least 1")
    return n


def _points(text: str) -> list:
    """``t,r t,r ...`` as (t, r) pairs."""
    pairs = [w.split(",") for w in text.split()]
    return [(float(t), float(r)) for t, r in pairs]


def load_config(path: str) -> RunConfig:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=(";",))
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}") from exc
    for section in parser.sections():
        if section not in _KNOWN_KEYS:
            raise ConfigError(f"unknown config section [{section}]")
        for key in parser[section]:
            if key not in _KNOWN_KEYS[section]:
                raise ConfigError(f"unknown key {key!r} in [{section}]")
    if "domain" not in parser:
        raise ConfigError("config needs a [domain] section")
    dom = parser["domain"]
    if "angle" not in dom or "radius" not in dom:
        raise ConfigError("[domain] needs 'angle' and 'radius'")

    def get(section, key, convert, default=None):
        """``[section] key`` through ``convert``, or ``default`` when absent.

        Every value is converted here, so a malformed one is a ConfigError
        that names its section and key.
        """
        if section not in parser or key not in parser[section]:
            return default
        text = parser[section][key]
        try:
            return convert(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"[{section}] {key} = {text.strip()!r}: {exc}") from exc

    angle = get("domain", "angle", parse_angle)
    points = None
    if dom["radius"].strip().lower().startswith("table"):
        if "radius_points" not in dom:
            raise ConfigError("table radius needs 'radius_points'")
        points = get("domain", "radius_points", _points)
    radius = get("domain", "radius", lambda text: parse_radius_spec(text, points))
    spec = make_sector_domain(angle, radius, get("domain", "samples", int, 256))

    if get("mesh", "degree", int, 2) != 2:
        raise ConfigError("degree must be 2 (the flux and the element Hessians "
                          "need a degree-2 field)")
    return RunConfig(spec, get("mesh", "h_target", float, 0.05),
                     get("mesh", "refinements", _count, 3),
                     get("sweep", "mode", int), get("sweep", "epsilons", _floats, ()),
                     get("poincare", "alphas", _some_of(float, poincare.ALPHAS), (0.0,)),
                     get("poincare", "kinds", _some_of(str, ("mu", "eta")), ("mu",)),
                     get("poincare", "levels", _count, 2),
                     get("output", "prefix", str, "run"),
                     get("output", "export_mesh", _bool, False),
                     get("output", "export_solution", _bool, False))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _write_lines(path, lines) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as f:
        for line in lines:
            f.write(line + "\n")


def cmd_solve(cfg: RunConfig, out_dir: str, require_constant: bool = False) -> int:
    if require_constant and not isinstance(cfg.spec.radius_fn, ConstantRadius):
        raise ConfigError("rigidity run needs a constant radius "
                          "(the cone is only rigid for ball sectors)")
    if require_constant and not cfg.spec.is_convex:
        raise ConfigError("the rigidity statement needs the cone to be convex")
    res = stability.run_pipeline(cfg.spec, cfg.h_target, domain_id=cfg.prefix)
    rep = res.report
    _write_lines(os.path.join(out_dir, f"{cfg.prefix}_report.csv"),
                 [DeficitReport.csv_header(), rep.csv_row()])
    if cfg.export_mesh:
        write_mesh(res.field.mesh, os.path.join(out_dir, f"{cfg.prefix}_mesh.txt"))
    if cfg.export_solution:
        fem.write_solution(res.field,
                           os.path.join(out_dir, f"{cfg.prefix}_solution.txt"))
    print(f"solve: h_max={rep.h_max:.6g} R={rep.R:.6g} m={rep.m:.6g} "
          f"k={rep.k} residual={rep.identity_residual:.3g} "
          f"dofs={res.field.diagnostics.get('n_dofs')}")
    if require_constant:
        tol = max(5e-3, 2.0 * rep.h_max**2)
        checks = {
            "deficit_2": rep.deficit_2,
            "pseudodistance": rep.pseudodistance,
            "rho_gap": rep.rho_gap,
        }
        ok = all(v <= tol for v in checks.values())
        for name, v in checks.items():
            print(f"  rigidity {name} = {v:.3e} (tol {tol:.1e}) "
                  f"{'pass' if v <= tol else 'FAIL'}")
        print(f"rigidity summary: {'PASS' if ok else 'FAIL'}")
        if not ok:
            return EXIT_ASSERTION
    return EXIT_OK


def cmd_identity(cfg: RunConfig, out_dir: str, strict: bool) -> int:
    """Identity residual across refinements plus the regularity surrogate."""
    rows = ["level,h_max,identity_lhs,identity_rhs,gamma1_term,"
            "identity_residual,max_grad,hessian_l2,blowup_flag"]
    residuals = []
    ladder = stability.identity_ladder(cfg.spec, cfg.h_target, cfg.refinements)
    for level, row in enumerate(ladder):
        ident = row.parts
        rows.append(f"{level},{row.h_max:.12g},{ident.lhs:.12g},"
                    f"{ident.rhs:.12g},{ident.gamma1_term:.12g},"
                    f"{ident.residual:.12g},{row.max_grad:.12g},"
                    f"{row.hessian_l2:.12g},{str(row.blowup).lower()}")
        residuals.append(ident.residual)
    _write_lines(os.path.join(out_dir, f"{cfg.prefix}_identity.csv"), rows)
    decreasing = stability.identity_decreasing(residuals)
    print("identity residuals:", " ".join(f"{r:.3e}" for r in residuals),
          "(decreasing)" if decreasing else "(NOT decreasing)")
    if not decreasing and strict:
        return EXIT_ASSERTION
    return EXIT_OK


def cmd_poincare(cfg: RunConfig, out_dir: str) -> int:
    rows = ["kind,alpha,level,value,converged_flag"]
    for est in stability.poincare_table(cfg.spec, cfg.h_target, cfg.kinds,
                                        cfg.alphas, cfg.poincare_levels):
        rows.extend(est.csv_row(level) for level in range(len(est.history)))
        print(f"{est.kind} alpha={est.alpha:g}: {est.value:.6g} "
              f"(converged={est.converged})")
    _write_lines(os.path.join(out_dir, f"{cfg.prefix}_poincare.csv"), rows)
    return EXIT_OK


def cmd_sweep(cfg: RunConfig, out_dir: str, threads: int, svg: bool,
              strict: bool) -> int:
    if cfg.sweep_mode is None or not cfg.sweep_eps:
        raise ConfigError("sweep needs [sweep] mode and a nonempty epsilons list")
    family = stability.make_family(cfg.spec, cfg.sweep_mode, cfg.sweep_eps)
    result = stability.run_sweep(family, cfg.h_target, threads=threads,
                                 label=cfg.prefix)
    fits = stability.sweep_fits(result)
    stability.write_sweep_csv(result, fits,
                              os.path.join(out_dir, f"{cfg.prefix}_sweep.csv"))
    if svg:
        x = result.column("deficit_2")
        y = result.column("pseudodistance")
        svgplot.write_scatter_svg(
            os.path.join(out_dir, f"{cfg.prefix}_sweep.svg"), x, y,
            fit=(fits[0].slope, fits[0].intercept) if fits else None,
            x_label="deficit_2", y_label="pseudodistance",
            title=f"slope={fits[0].slope:.3f} r2={fits[0].r_squared:.4f}"
                  if fits else cfg.prefix)
    verdicts = stability.verify_theorems(result)
    failed = [v for v in verdicts if v.passed is False]
    for v in verdicts:
        print(v.line())
    slope_note = (f"fit slope {fits[0].slope:.4f} (r2 {fits[0].r_squared:.5f}), "
                  if fits else "too few rows for a fit, ")
    print(f"sweep: {len(result.rows)} rows, {slope_note}"
          f"{len(failed)} failed verdicts")
    if failed and strict:
        return EXIT_ASSERTION
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="conetorsion",
        description="Torsion-problem verification runs on convex-cone sectors")
    p.add_argument("command",
                   choices=["solve", "identity", "poincare", "sweep", "rigidity"])
    p.add_argument("--config", required=True, help="INI-style run config")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--threads", type=int, default=1, help="sweep worker threads")
    p.add_argument("--svg", choices=["on", "off"], default="on")
    p.add_argument("--strict", action="store_true",
                   help="exit 3 when a theorem verdict fails")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        import threadpoolctl
        limits = threadpoolctl.threadpool_limits(limits=1)
    except ImportError:
        print("warning: threadpoolctl is not installed; the BLAS thread limit "
              "was not applied", file=sys.stderr)
        limits = None
    try:
        cfg = load_config(args.config)
        os.makedirs(args.out, exist_ok=True)
        if args.command in ("solve", "rigidity"):
            return cmd_solve(cfg, args.out, require_constant=args.command == "rigidity")
        if args.command == "identity":
            return cmd_identity(cfg, args.out, args.strict)
        if args.command == "poincare":
            return cmd_poincare(cfg, args.out)
        return cmd_sweep(cfg, args.out, args.threads, args.svg == "on",
                         args.strict)
    except (ConfigError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (MeshError, fem.FemError, poincare.EigenError, stability.SweepError,
            quantities.CenterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    finally:
        if limits is not None:
            limits.unregister()


if __name__ == "__main__":          # pragma: no cover
    sys.exit(main())
