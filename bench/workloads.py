"""The benchmark's three workloads, built from a seed and run through the
public ``conetorsion`` API.

Each workload has three parts:

- ``build(ct, seed)`` makes the domain specs, families and settings.  It is
  part of set-up.  The seed shrinks the perturbation amplitudes by up to
  2.5 % and never touches a mesh size; every seed meshes the same number of
  triangles, so every seed does the same work.
- ``execute(ct, cfg)`` makes the library calls that ``wall_s`` times and
  returns their raw outputs.  A numerical error the library raises is caught
  per op and recorded, never re-raised.
- ``report(ct, cfg, raw)`` runs the correctness checks and collects every
  reported value, outside the timed region.
"""

from __future__ import annotations

import importlib
import math
import random
import time
from dataclasses import dataclass, field

EPS_NOMINAL = (0.02, 0.04, 0.08)   # sweep amplitudes of r(1 + eps cos 3t)
A4_NOMINAL = 0.05                  # quarter4: r = 1 + a4 cos 4t
JITTER = 0.025                     # amplitudes shrink by up to 2.5 % for seed != 0
ALPHAS = (0.0, 0.5, 1.0)
SLOPE_RANGE = (0.8, 1.2)           # pseudodistance ~ deficit_2 ** slope
IDENTITY_GROWTH = 1.2              # the identity command's "decreasing" rule
FITS = (("deficit_2", "pseudodistance"),   # (x, y) of the sweep's #FIT lines
        ("deficit_1", "rho_gap"))


def jitter(values, seed: int) -> tuple:
    """Amplitudes scaled by 1 - U(0, JITTER); seed 0 keeps them.

    Only shrinking: a larger quarter4 amplitude moves the mesher to another
    ring count (12 % fewer triangles), so every seed would no longer do the
    same work.
    """
    if seed == 0:
        return tuple(float(v) for v in values)
    rng = random.Random(seed)
    return tuple(float(v) * (1.0 - JITTER * rng.random()) for v in values)


def numerical_errors(ct) -> tuple:
    """The errors the library raises for a failed mesh, solve or eigensolve."""
    return (ct.MeshError, ct.FemError, ct.EigenError, ct.SweepError,
            ct.CenterError)


@dataclass
class Outcome:
    """Ops attempted, failed ones by name, and every reported value."""

    ops: int = 0
    failed: list = field(default_factory=list)
    values: dict = field(default_factory=dict)

    def op(self, name: str, ok: bool) -> None:
        self.ops += 1
        if not ok:
            self.failed.append(name)


# ---------------------------------------------------------------------------
# sweep-disk3
# ---------------------------------------------------------------------------

def build_sweep(ct, seed: int) -> dict:
    base = ct.make_sector_domain(2 * math.pi, ct.ConstantRadius(1.0), 512)
    eps = jitter(EPS_NOMINAL, seed)
    return {"family": ct.make_family(base, 3, eps), "h": 0.025,
            "params": {"mode": 3, "eps": list(eps), "h": 0.025, "samples": 512}}


def execute_sweep(ct, cfg: dict) -> dict:
    raw = {"result": None, "error": None, "fits": [], "verdicts": []}
    try:
        raw["result"] = ct.run_sweep(cfg["family"], cfg["h"], 2, threads=1,
                                     label="disk3")
    except ct.SweepError as exc:
        raw["result"], raw["error"] = exc.partial, repr(exc)
    except numerical_errors(ct) as exc:
        raw["error"] = repr(exc)
        return raw
    result = raw["result"]
    for x_column, y_column in FITS:
        try:
            raw["fits"].append(ct.fit_exponent(result, x_column, y_column))
        except ValueError as exc:     # too few rows, or a non-positive value
            raw["fits"].append(f"{y_column}~{x_column}: {exc!r}")
    raw["verdicts"] = ct.verify_theorems(result)
    return raw


_ROW_COLUMNS = ("h_max", "R", "m", "z_x", "z_y", "deficit_1", "deficit_2",
                "pseudodistance", "rho_gap", "identity_lhs", "identity_rhs",
                "gamma1_term", "identity_residual", "C_bound")


def report_sweep(ct, cfg: dict, raw: dict) -> Outcome:
    out = Outcome()
    result = raw["result"]
    failures = {} if result is None else dict(result.failures)
    for i, (eps, _) in enumerate(cfg["family"].members):
        reason = raw["error"] if result is None else failures.get(eps)
        out.op(f"member[{i}] eps={eps:g}: {reason}", reason is None)
    out.op(f"lambda estimate: {raw['error']}", result is not None)
    if result is None:
        return out
    out.values["lambda"] = result.lam
    out.values["mu"] = result.mu.value
    for i, row in enumerate(result.rows):
        out.values[f"row[{i}].eps"] = row.eps
        for name in _ROW_COLUMNS:
            out.values[f"row[{i}].{name}"] = row.column(name)
    for fit in raw["fits"]:
        out.op(f"fit {fit}", not isinstance(fit, str))
        if isinstance(fit, str):
            continue
        key = f"fit[{fit.y_column}~{fit.x_column}]"
        for name in ("slope", "intercept", "r_squared", "log_profile_coeff",
                     "log_profile_r2"):
            out.values[f"{key}.{name}"] = getattr(fit, name)
    for i, v in enumerate(raw["verdicts"]):
        out.op(f"verdict[{i}] {v.theorem} eps={v.eps:g}", v.passed is not False)
        for name in ("lhs", "rhs", "margin"):
            out.values[f"verdict[{i}].{name}"] = getattr(v, name)
    first = raw["fits"][0]
    slope = float("nan") if isinstance(first, str) else first.slope
    out.op(f"slope pseudodistance~deficit_2 = {slope:.4f}",
           SLOPE_RANGE[0] <= slope <= SLOPE_RANGE[1])
    return out


# ---------------------------------------------------------------------------
# quarter4 domain, shared by poincare-quarter4 and identity-quarter4
# ---------------------------------------------------------------------------

def _quarter4(ct, seed: int, h: float) -> dict:
    (a4,) = jitter((A4_NOMINAL,), seed)
    spec = ct.make_sector_domain(math.pi / 2, ct.FourierRadius(1.0, [(4, a4)]),
                                 256)
    part = ct.boundary_partition(spec)
    return {"spec": spec, "partition": part, "span": ct.normal_span(part),
            "h": h, "params": {"a4": a4, "h": h, "samples": 256}}


# ---------------------------------------------------------------------------
# poincare-quarter4
# ---------------------------------------------------------------------------

def build_poincare(ct, seed: int) -> dict:
    cfg = _quarter4(ct, seed, 0.035)
    cfg["params"].update(alphas=list(ALPHAS), levels=2)
    return cfg


def execute_poincare(ct, cfg: dict) -> dict:
    errors = numerical_errors(ct)
    part, span = cfg["partition"], cfg["span"]
    raw = {"estimates": {}, "bounds": None, "r_i": None}
    mesh = ct.triangulate(cfg["spec"], cfg["h"])
    seg = part.all_segments()
    for kind in ("mu", "eta"):
        for alpha in ALPHAS:
            try:
                if kind == "mu":
                    est = ct.mu_estimate(mesh, alpha, levels=2,
                                         boundary=(seg[0], seg[1]))
                else:
                    est = ct.eta_estimate(mesh, part, span, alpha, levels=2)
            except errors as exc:
                est = repr(exc)
            raw["estimates"][(kind, alpha)] = est
    try:
        u = ct.solve(ct.assemble(mesh, 2))
        raw["r_i"] = ct.interior_sphere_radius(cfg["spec"]).value
        raw["bounds"] = ct.u_distance_bounds(u, cfg["spec"], raw["r_i"])
    except errors as exc:
        raw["bounds"] = repr(exc)
    return raw


def report_poincare(ct, cfg: dict, raw: dict) -> Outcome:
    out = Outcome()
    for (kind, alpha), est in raw["estimates"].items():
        key = f"{kind}[alpha={alpha:g}]"
        ok = not isinstance(est, str)
        out.op(f"{key} estimate: {est}", ok)
        hist = est.history if ok else []
        for level, value in enumerate(hist):
            out.values[f"{key}.history[{level}]"] = value
        out.op(f"{key} history positive and non-increasing", ok and all(
            v > 0 for v in hist) and all(b <= a for a, b in zip(hist, hist[1:])))
    bounds = raw["bounds"]
    ok = not isinstance(bounds, str)
    if ok:
        out.values["r_i"] = raw["r_i"]
        for name in ("margin_boundary_sq", "margin_gamma0_sq",
                     "margin_gamma0_linear"):
            out.values[f"bounds.{name}"] = getattr(bounds, name)
    out.op(f"u_distance_bounds ok: {bounds}", ok and bounds.ok)
    return out


# ---------------------------------------------------------------------------
# identity-quarter4 (the ``identity`` CLI command, 3 levels)
# ---------------------------------------------------------------------------

def build_identity(ct, seed: int) -> dict:
    cfg = _quarter4(ct, seed, 0.025)
    cfg["params"].update(levels=3)
    return cfg


def execute_identity(ct, cfg: dict) -> dict:
    errors = numerical_errors(ct)
    levels = []
    mesh = ct.triangulate(cfg["spec"], cfg["h"])
    for level in range(cfg["params"]["levels"]):
        try:
            u = ct.solve(ct.assemble(mesh, 2))
            z = ct.compute_center(u, cfg["span"])
            ident = ct.identity_residual(u, z)
            gmax = ct.max_gradient(u)
            hl2 = ct.weighted_hessian_l2(u, 0.0, cfg["partition"])
            levels.append((mesh.h_max, ident, gmax, hl2))
        except errors as exc:
            levels.append(repr(exc))
        if level + 1 < cfg["params"]["levels"]:
            mesh = ct.refine(mesh)
    return {"levels": levels}


def report_identity(ct, cfg: dict, raw: dict) -> Outcome:
    out = Outcome()
    residuals, prev = [], None
    for level, row in enumerate(raw["levels"]):
        ok = not isinstance(row, str)
        out.op(f"level[{level}]: {row if not ok else 'ok'}", ok)
        if not ok:
            residuals.append(float("nan"))
            prev = None
            continue
        h_max, ident, gmax, hl2 = row
        flag = prev is not None and (gmax > 2 * prev[0] or hl2 > 2 * prev[1])
        key = f"level[{level}]"
        for name, value in (("h_max", h_max), ("identity_lhs", ident.lhs),
                            ("identity_rhs", ident.rhs),
                            ("gamma1_term", ident.gamma1_term),
                            ("identity_residual", ident.residual),
                            ("max_grad", gmax), ("hessian_l2", hl2),
                            ("blowup_flag", float(flag))):
            out.values[f"{key}.{name}"] = value
        residuals.append(ident.residual)
        prev = (gmax, hl2)
    out.op("identity residuals decreasing", all(
        b <= a * IDENTITY_GROWTH for a, b in zip(residuals, residuals[1:])))
    return out


# ---------------------------------------------------------------------------
# registry and set-up
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    """One workload; BENCHMARK.json and README.md say why it was chosen."""

    name: str
    build: object
    execute: object
    report: object


WORKLOADS = {w.name: w for w in (
    Workload("sweep-disk3", build_sweep, execute_sweep, report_sweep),
    Workload("poincare-quarter4", build_poincare, execute_poincare,
             report_poincare),
    Workload("identity-quarter4", build_identity, execute_identity,
             report_identity),
)}


def setup(name: str, seed: int):
    """Import conetorsion and build the workload's inputs.

    Returns ``(ct, cfg, seconds)``; the import is only timed in a fresh
    interpreter, which is how ``setup_s`` samples it.
    """
    t0 = time.perf_counter()
    ct = importlib.import_module("conetorsion")
    cfg = WORKLOADS[name].build(ct, seed)
    return ct, cfg, time.perf_counter() - t0
