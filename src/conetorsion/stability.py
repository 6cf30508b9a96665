"""Perturbation families, full-pipeline sweeps, refinement ladders and
theorem verdicts.

A family perturbs a base domain by r(t) -> r(t) (1 + eps cos(m t)).  Each
member runs mesh -> solve -> functionals; one deficit row per member.  The
Poincare combination Lambda is estimated once on the base member's mesh and
reused across rows.
Rows are independent solves and may run on a thread pool; every row is
internally sequential and deterministic, so results do not depend on the
worker count.  A ladder runs several solves or eigensolves on one domain:
the volume identity over refinements, the mu/eta table over weights.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import fem, poincare
from .geometry import (BoundaryPartition, DomainSpec, ScaledRadius, SpanInfo,
                       boundary_partition, domain_diameter, DomainError,
                       exterior_sphere_radius, make_sector_domain, normal_span)
from .mesher import TaggedMesh, refine, triangulate
from .quantities import (DeficitReport, IdentityParts, compute_center, deficits,
                         identity_residual, max_depth, max_gradient)


class SweepError(RuntimeError):
    """A family member failed to solve; partial results are flagged."""


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Family:
    members: tuple   # ((eps, DomainSpec), ...), eps ascending from eps = 0


def make_family(base: DomainSpec, mode: int, eps_list) -> Family:
    """Validated perturbation family; every member must stay star-shaped."""
    if mode < 1:
        raise DomainError(f"mode must be at least 1, got {mode} (mode 0 dilates the base)")
    eps_sorted = tuple(sorted(float(e) for e in eps_list))
    if any(e <= 0 for e in eps_sorted):
        raise DomainError("epsilons must be positive (the base is added as eps = 0)")
    members = [(0.0, base)]
    for eps in eps_sorted:
        fn = ScaledRadius(base.radius_fn, mode, eps)
        spec = make_sector_domain(base.beta, fn, base.sample_count)
        members.append((eps, spec))
    return Family(tuple(members))


# ---------------------------------------------------------------------------
# single-domain pipeline
# ---------------------------------------------------------------------------

@dataclass
class PipelineResult:
    field: fem.FemField
    report: DeficitReport


def estimate_lambda(mesh: TaggedMesh, partition: BoundaryPartition,
                    span: SpanInfo):
    """(Lambda_{2,1}, mu) on one mesh; eta enters only when GAMMA1 is present."""
    mu = _mu(mesh, partition, 1.0)
    eta = None
    if span.k >= 1:
        eta = poincare.eta_estimate(mesh, partition, span, 1.0)
    return poincare.lambda_constant(span.k, mu, eta), mu


def _mu(mesh: TaggedMesh, partition: BoundaryPartition, alpha: float,
        levels: int = 1) -> poincare.PoincareEstimate:
    """mu weighted by the distance to the whole boundary, GAMMA0 and GAMMA1."""
    seg = partition.all_segments()
    return poincare.mu_estimate(mesh, alpha, levels=levels,
                                boundary=(seg[0], seg[1]))


def run_pipeline(spec: DomainSpec, h_target: float, degree: int = 2, *,
                 lam: float | None = None, domain_id: str = "") -> PipelineResult:
    """mesh -> solve -> center -> deficits, estimating Lambda when not given."""
    part = boundary_partition(spec)
    span = normal_span(part)
    mesh = triangulate(spec, h_target)
    u = fem.solve(fem.assemble(mesh, degree))
    if lam is None:
        lam = estimate_lambda(mesh, part, span)[0]
    rep = deficits(u, compute_center(u, span), lambda_21=lam, domain_id=domain_id)
    _attach_extras(rep, spec, u)
    return PipelineResult(u, rep)


def _attach_extras(rep: DeficitReport, spec: DomainSpec, u: fem.FemField) -> None:
    rep.extras["max_grad"] = max_gradient(u)
    rep.extras["max_minus_u"] = max_depth(u)
    rep.extras["diameter"] = domain_diameter(spec)
    rep.extras["r_e"] = exterior_sphere_radius(spec)


# ---------------------------------------------------------------------------
# refinement ladders
# ---------------------------------------------------------------------------

IDENTITY_GROWTH = 1.2   # a residual may grow by this factor and still decrease


@dataclass(frozen=True)
class IdentityLevel:
    h_max: float
    parts: IdentityParts
    max_grad: float
    hessian_l2: float
    blowup: bool        # max_grad or hessian_l2 more than doubled since the last level


def identity_ladder(spec: DomainSpec, h_target: float, levels: int):
    """The volume identity on a mesh and its ``levels - 1`` uniform refinements.

    Yields one IdentityLevel per level, coarsest first.  Each level's field
    is dropped before its row is yielded, and each mesh once it is refined,
    so the ladder holds one level at a time.
    """
    part = boundary_partition(spec)
    span = normal_span(part)
    mesh = triangulate(spec, h_target)
    prev = None
    for level in range(levels):
        if level:
            mesh = refine(mesh)
        u = fem.solve(fem.assemble(mesh))
        parts = identity_residual(u, compute_center(u, span))
        now = max_gradient(u), poincare.weighted_hessian_l2(u, 0.0, part)
        del u
        blowup = prev is not None and (now[0] > 2 * prev[0] or now[1] > 2 * prev[1])
        yield IdentityLevel(mesh.h_max, parts, *now, blowup)
        prev = now


def identity_decreasing(residuals) -> bool:
    """Each residual is at most IDENTITY_GROWTH times the one before it."""
    return all(b <= a * IDENTITY_GROWTH for a, b in zip(residuals, residuals[1:]))


def poincare_table(spec: DomainSpec, h_target: float, kinds, alphas, levels: int):
    """One ``levels`` PoincareEstimate per (kind, alpha), kinds outermost, all
    from one mesh; eta without GAMMA1 is rejected before meshing."""
    part = boundary_partition(spec)
    span = normal_span(part)
    if "eta" in kinds and span.k == 0:
        raise DomainError("eta needs a domain with GAMMA1 (k >= 1)")
    mesh = triangulate(spec, h_target)
    for kind in kinds:
        for alpha in alphas:
            if kind == "mu":
                yield _mu(mesh, part, alpha, levels)
            else:
                yield poincare.eta_estimate(mesh, part, span, alpha, levels=levels)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

@dataclass
class SweepRow:
    eps: float
    report: DeficitReport

    def column(self, name: str) -> float:
        if name == "eps":
            return self.eps
        return self.report.column(name)


@dataclass
class SweepResult:
    rows: list            # SweepRow, sorted by eps
    lam: float
    mu: poincare.PoincareEstimate
    k: int
    failures: list = field(default_factory=list)

    def column(self, name: str) -> np.ndarray:
        """One column over the perturbed (eps > 0) rows."""
        return np.array([r.column(name) for r in self.rows if r.eps > 0])


def run_sweep(family: Family, h_target: float, degree: int = 2, *,
              threads: int = 1, label: str = "family") -> SweepResult:
    """One deficit row per member at a common mesh policy.

    Lambda comes from the base member's mesh and is shared across rows.  A
    failing member aborts with partial results attached to the raised
    SweepError.
    """
    base = family.members[0][1]
    part0 = boundary_partition(base)
    span0 = normal_span(part0)
    # no local keeps the base mesh and its distance caches through the members
    lam, mu = estimate_lambda(triangulate(base, h_target), part0, span0)

    def one(member):
        """(row, None) for a solved member, (None, (eps, reason)) for a failed one."""
        eps, spec = member
        try:
            res = run_pipeline(spec, h_target, degree, lam=lam,
                               domain_id=f"{label}-eps{eps:g}")
        except Exception as exc:
            return None, (eps, repr(exc))
        return SweepRow(eps, res.report), None

    # the serial path stays off the pool: a one-worker pool costs peak RSS
    if threads <= 1:
        outcomes = [one(member) for member in family.members]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            outcomes = list(pool.map(one, family.members))
    rows = sorted((row for row, _ in outcomes if row is not None),
                  key=lambda r: r.eps)
    failures = [fail for _, fail in outcomes if fail is not None]

    result = SweepResult(rows, lam, mu, span0.k, failures)
    if failures:
        err = SweepError(f"members failed: {failures}")
        err.partial = result
        raise err
    return result


# ---------------------------------------------------------------------------
# exponent fits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExponentFit:
    slope: float
    intercept: float
    r_squared: float
    x_column: str = ""
    y_column: str = ""
    log_profile_coeff: float = float("nan")
    log_profile_r2: float = float("nan")


def fit_exponent(result: SweepResult, x_column: str, y_column: str) -> ExponentFit:
    """Least-squares slope of log y vs log x over the eps > 0 rows.

    Also fits the two-dimensional log-profile y ~ c * x * max(log(1/x), 1)
    (single coefficient through the origin), recorded alongside.
    """
    return fit_exponent_xy(result.column(x_column), result.column(y_column),
                           x_column, y_column)


def sweep_fits(result: SweepResult) -> list:
    """pseudodistance ~ deficit_2 (the Lipschitz bound) and rho_gap ~ deficit_1
    (the planar gap profile); none below 3 perturbed rows."""
    if len(result.column("eps")) < 3:
        return []
    return [fit_exponent(result, "deficit_2", "pseudodistance"),
            fit_exponent(result, "deficit_1", "rho_gap")]


def fit_exponent_xy(x, y, x_column: str = "", y_column: str = "") -> ExponentFit:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(x) < 3:
        raise ValueError("need at least 3 rows to fit an exponent")
    if np.any(x <= 0) or np.any(y <= 0):
        raise ValueError("exponent fits need positive column values")
    lx, ly = np.log(x), np.log(y)
    slope, intercept = np.polyfit(lx, ly, 1)
    pred = slope * lx + intercept
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    g = x * np.maximum(np.log(1.0 / x), 1.0)
    c = float(np.sum(y * g) / np.sum(g * g))
    res = y - c * g
    denom = float(np.sum((y - y.mean()) ** 2))
    logr2 = 1.0 - float(np.sum(res**2)) / denom if denom > 0 else 1.0
    return ExponentFit(float(slope), float(intercept), float(r2),
                       x_column, y_column, c, logr2)


# ---------------------------------------------------------------------------
# theorem verdicts
# ---------------------------------------------------------------------------

@dataclass
class TheoremVerdict:
    theorem: str
    eps: float
    lhs: float
    rhs: float
    margin: float
    passed: bool | None
    note: str = ""

    def line(self) -> str:
        status = {True: "pass", False: "FAIL", None: "n/a "}[self.passed]
        return (f"{status}  {self.theorem:28s} eps={self.eps:<6g} "
                f"lhs={self.lhs:.6g} rhs={self.rhs:.6g} margin={self.margin:.3g} {self.note}")


def verify_theorems(result: SweepResult) -> list:
    """Row-wise inequality checks with the numerically estimated constants.

    Covers: the Lipschitz pseudodistance bound, its alternative-center
    variant (mu-only constant), the improved linear rho_e - rho_i profile
    (N = 2) as a bounded rho_gap / deficit_1 ratio, and on full-plane rows
    the classical gradient and depth bounds.
    """
    verdicts: list = []
    mu_only = 1.0 / result.mu.value

    for row in result.rows:
        rep = row.report
        if rep.C_bound is not None:
            rhs = rep.C_bound * rep.deficit_2
            verdicts.append(TheoremVerdict(
                "lipschitz_pseudodistance", row.eps, rep.pseudodistance, rhs,
                rhs - rep.pseudodistance, rep.pseudodistance <= rhs))
        if rep.m > 0:
            # the free center; m and deficit_2 do not depend on the center
            c_alt = poincare.theorem_constant(rep.m, mu_only)
            rhs = c_alt * rep.deficit_2
            lhs = rep.pseudodistance_free
            verdicts.append(TheoremVerdict(
                "lipschitz_alternative_center", row.eps, lhs, rhs, rhs - lhs,
                lhs <= rhs))
        if result.k == 0:
            d = rep.extras.get("diameter", float("nan"))
            re_ = rep.extras.get("r_e", float("nan"))
            depth = rep.extras.get("max_minus_u", float("nan"))
            gmax = rep.extras.get("max_grad", float("nan"))
            verdicts.append(TheoremVerdict(
                "classical_depth_bound", row.eps, depth, d**2 / 2,
                d**2 / 2 - depth, bool(depth <= d**2 / 2)))
            if math.isfinite(re_):
                bound = 1.5 * d * (d + re_) / re_
                verdicts.append(TheoremVerdict(
                    "classical_gradient_bound", row.eps, gmax, bound,
                    bound - gmax, bool(gmax <= bound)))
            else:
                verdicts.append(TheoremVerdict(
                    "classical_gradient_bound", row.eps, gmax, float("nan"),
                    float("nan"), None, "non-convex member: no exterior radius"))

    # improved rho_e - rho_i profile, N = 2: ratio sequence must stay bounded
    ratios = [r.report.rho_gap / r.report.deficit_1 for r in result.rows
              if r.eps > 0 and r.report.deficit_1 > 0]
    if ratios:
        spread = max(ratios) / min(ratios)
        growth_ok = all(ratios[i] <= 1.5 * ratios[i + 1]
                        for i in range(len(ratios) - 1))
        verdicts.append(TheoremVerdict(
            "rho_gap_ratio_bounded", 0.0, spread, 1.5, 1.5 - spread,
            bool(spread <= 1.5 and growth_ok),
            f"max/min={spread:.3f}"))
    return verdicts


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------

def sweep_csv_lines(result: SweepResult, fits=()) -> list:
    lines = [DeficitReport.csv_header()]
    for row in result.rows:
        lines.append(row.report.csv_row())
    for f in fits:
        lines.append(f"#FIT x={f.x_column} y={f.y_column} slope={f.slope:.12g} "
                     f"intercept={f.intercept:.12g} r2={f.r_squared:.12g} "
                     f"log_profile_coeff={f.log_profile_coeff:.12g} "
                     f"log_profile_r2={f.log_profile_r2:.12g}")
    return lines


def write_sweep_csv(result: SweepResult, fits, path) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as f:
        for line in sweep_csv_lines(result, fits):
            f.write(line + "\n")
