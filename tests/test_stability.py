import math
import weakref
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from conetorsion import (DomainError, FourierRadius, fem, make_family,
                         make_sector_domain, poincare, run_sweep, fit_exponent,
                         fit_exponent_xy, stability, triangulate,
                         verify_theorems)
from conetorsion.poincare import theorem_constant
from conetorsion.stability import (TheoremVerdict, identity_decreasing,
                                   identity_ladder, poincare_table,
                                   run_pipeline, sweep_csv_lines, sweep_fits,
                                   write_sweep_csv)


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------

def test_make_family_members(disk_spec):
    fam = make_family(disk_spec, 3, [0.04, 0.02, 0.08])
    assert [eps for eps, _ in fam.members] == [0.0, 0.02, 0.04, 0.08]
    assert fam.members[0][0] == 0.0 and fam.members[0][1] is disk_spec
    r = fam.members[2][1].radius_fn
    assert float(r(0.0)) == pytest.approx(1.04)


def test_quarter_family_keeps_legs(quarter_spec):
    from conetorsion import boundary_partition, normal_span
    fam = make_family(quarter_spec, 4, [0.02, 0.04])
    for _, spec in fam.members:
        assert spec.beta == quarter_spec.beta
        assert normal_span(boundary_partition(spec)).k == 2


def test_make_family_rejects_bad_epsilons(disk_spec):
    with pytest.raises(DomainError):
        make_family(disk_spec, 3, [0.02, -0.01])
    with pytest.raises(DomainError):
        make_family(disk_spec, 3, [1.01])     # radius turns negative


def test_make_family_rejects_mode_below_one(disk_spec):
    # r (1 + eps cos 0) = (1 + eps) r dilates the base instead of perturbing it
    for mode in (0, -3):
        with pytest.raises(DomainError, match="mode must be at least 1"):
            make_family(disk_spec, mode, [0.02, 0.04])


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def coarse_sweep(disk_spec):
    fam = make_family(disk_spec, 3, [0.04, 0.08])
    return fam, run_sweep(fam, 0.08, 2, label="coarse")


def test_sweep_rows_sorted_and_tagged(coarse_sweep):
    _, res = coarse_sweep
    eps = [row.eps for row in res.rows]
    assert eps == sorted(eps) and eps[0] == 0.0
    assert res.k == 0
    for row in res.rows:
        assert row.report.domain_id.startswith("coarse-eps")
        assert "max_grad" in row.report.extras


def test_sweep_rigidity_member_near_zero(coarse_sweep):
    _, res = coarse_sweep
    base = res.rows[0].report
    tol = 2.0 * base.h_max**2
    assert base.deficit_2 <= tol
    assert base.pseudodistance <= tol
    assert base.rho_gap <= tol


def test_sweep_thread_count_invariant(coarse_sweep):
    fam, res1 = coarse_sweep
    res4 = run_sweep(fam, 0.08, 2, threads=4, label="coarse")
    assert sweep_csv_lines(res1) == sweep_csv_lines(res4)


def test_sweep_deficits_monotone_in_eps(disk_sweep):
    for col in ("deficit_1", "deficit_2", "pseudodistance", "rho_gap"):
        vals = disk_sweep.column(col)
        assert np.all(np.diff(vals) >= -0.05 * vals[1:]), (col, vals)


# ---------------------------------------------------------------------------
# exponent fits
# ---------------------------------------------------------------------------

def test_fit_linear_synthetic():
    x = np.array([0.01, 0.02, 0.04, 0.08])
    fit = fit_exponent_xy(x, 2 * x)
    assert fit.slope == pytest.approx(1.0, abs=1e-12)
    assert fit.intercept == pytest.approx(math.log(2.0), abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_quadratic_synthetic():
    x = np.array([0.01, 0.02, 0.04, 0.08])
    fit = fit_exponent_xy(x, x**2)
    assert fit.slope == pytest.approx(2.0, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(a=hst.floats(0.3, 3.0), c=hst.floats(0.1, 10.0))
def test_fit_recovers_power_laws(a, c):
    x = np.array([0.01, 0.03, 0.09, 0.27])
    fit = fit_exponent_xy(x, c * x**a)
    assert fit.slope == pytest.approx(a, rel=1e-9)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-9)


def test_fit_rejects_bad_input():
    with pytest.raises(ValueError):
        fit_exponent_xy([0.1, 0.2], [1.0, 2.0])
    with pytest.raises(ValueError):
        fit_exponent_xy([0.1, 0.2, -0.3], [1.0, 2.0, 3.0])


def test_pipeline_fit_is_lipschitz(disk_sweep):
    fit = fit_exponent(disk_sweep, "deficit_2", "pseudodistance")
    assert 0.8 <= fit.slope <= 1.2
    assert fit.r_squared >= 0.98
    assert fit.x_column == "deficit_2"


def test_log_profile_fit_recorded(disk_sweep):
    fit = fit_exponent(disk_sweep, "deficit_1", "rho_gap")
    assert math.isfinite(fit.log_profile_coeff)
    assert fit.log_profile_coeff > 0


def test_sweep_fits_pairs_and_row_floor(disk_sweep, coarse_sweep):
    fits = sweep_fits(disk_sweep)
    assert [(f.x_column, f.y_column) for f in fits] == [
        ("deficit_2", "pseudodistance"), ("deficit_1", "rho_gap")]
    assert fits[0] == fit_exponent(disk_sweep, "deficit_2", "pseudodistance")
    assert sweep_fits(coarse_sweep[1]) == []     # 2 perturbed rows


# ---------------------------------------------------------------------------
# refinement ladders
# ---------------------------------------------------------------------------

def test_identity_decreasing_allows_growth_up_to_the_factor():
    assert identity_decreasing([1.0, 1.2])
    assert not identity_decreasing([1.0, 1.21])
    assert identity_decreasing([0.5]) and identity_decreasing([])


@pytest.mark.parametrize("grads,hessians,flags", [
    ((1.0, 2.0, 4.01), (1.0, 1.0, 1.0), [False, False, True]),
    ((1.0, 1.0, 1.0), (1.0, 3.0, 3.0), [False, True, False]),
], ids=["max_grad", "hessian_l2"])
def test_identity_ladder_flags_a_doubling(quarter_spec, monkeypatch, grads,
                                          hessians, flags):
    grads, hessians = iter(grads), iter(hessians)
    monkeypatch.setattr(stability, "max_gradient", lambda u: next(grads))
    monkeypatch.setattr(poincare, "weighted_hessian_l2",
                        lambda u, alpha, part: next(hessians))
    rows = list(identity_ladder(quarter_spec, 0.3, 3))
    assert [row.blowup for row in rows] == flags


def test_identity_ladder_holds_one_level(pert_quarter_spec, monkeypatch):
    """Every field the ladder solved is freed before the next assembly."""
    fields, solve, assemble = [], fem.solve, fem.assemble

    def tracked_solve(system):
        u = solve(system)
        fields.append(weakref.ref(u))
        return u

    def checked_assemble(mesh):
        assert [ref() for ref in fields] == [None] * len(fields)
        return assemble(mesh)

    monkeypatch.setattr(fem, "solve", tracked_solve)
    monkeypatch.setattr(fem, "assemble", checked_assemble)
    rows = list(identity_ladder(pert_quarter_spec, 0.15, 3))
    assert len(rows) == len(fields) == 3
    assert [ref() for ref in fields] == [None] * 3


def test_poincare_table_order_and_weights(quarter_spec):
    from conetorsion import boundary_partition, normal_span
    table = list(poincare_table(quarter_spec, 0.2, ("mu", "eta"), (0.0, 1.0), 1))
    assert [(e.kind, e.alpha) for e in table] == [
        ("mu", 0.0), ("mu", 1.0), ("eta", 0.0), ("eta", 1.0)]
    part = boundary_partition(quarter_spec)
    mesh = triangulate(quarter_spec, 0.2)
    a, b, _ = part.all_segments()
    assert table[1] == poincare.mu_estimate(mesh, 1.0, boundary=(a, b))
    assert table[3] == poincare.eta_estimate(mesh, part, normal_span(part), 1.0)


def test_poincare_table_rejects_eta_before_meshing(disk_spec, monkeypatch):
    monkeypatch.setattr(stability, "triangulate", None)   # any mesh call fails
    with pytest.raises(DomainError, match="eta needs a domain with GAMMA1"):
        next(poincare_table(disk_spec, 0.2, ("mu", "eta"), (0.0,), 1))


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------

def test_disk_verdicts_all_pass(disk_sweep):
    verdicts = verify_theorems(disk_sweep)
    failed = [v for v in verdicts if v.passed is False]
    assert failed == []
    names = {v.theorem for v in verdicts}
    assert "lipschitz_pseudodistance" in names
    assert "classical_depth_bound" in names
    assert "classical_gradient_bound" in names
    assert "rho_gap_ratio_bounded" in names


def test_quarter_verdicts_all_pass(quarter_sweep):
    verdicts = verify_theorems(quarter_sweep)
    assert [v for v in verdicts if v.passed is False] == []
    # no classical rows on a proper cone
    assert all(v.theorem != "classical_depth_bound" for v in verdicts)


def test_rho_ratio_bounded(disk_sweep):
    verdicts = verify_theorems(disk_sweep)
    row = next(v for v in verdicts if v.theorem == "rho_gap_ratio_bounded")
    assert row.passed and row.lhs <= 1.5


def _with_report(result, i, **fields):
    """``result`` with row i's ``report`` fields replaced."""
    rows = list(result.rows)
    rows[i] = replace(rows[i], report=replace(rows[i].report, **fields))
    return replace(result, rows=rows)


@pytest.mark.parametrize("kind", ["lipschitz_pseudodistance",
                                  "lipschitz_alternative_center",
                                  "classical_depth_bound",
                                  "classical_gradient_bound",
                                  "rho_gap_ratio_bounded"])
def test_each_verdict_kind_can_fail(disk_sweep, kind):
    """A synthetic row that breaks one inequality fails that verdict alone."""
    if kind == "rho_gap_ratio_bounded":
        ratios = [r.report.rho_gap / r.report.deficit_1 if r.eps > 0 else 0.0
                  for r in disk_sweep.rows]
        i = int(np.argmax(ratios))      # doubling the largest ratio: max/min >= 2
        bad = _with_report(disk_sweep, i,
                           rho_gap=2 * disk_sweep.rows[i].report.rho_gap)
        eps = 0.0                       # one verdict over the whole sweep
    else:
        i = len(disk_sweep.rows) - 1
        row = disk_sweep.rows[i]
        eps = row.eps
        rhs = next(v.rhs for v in verify_theorems(disk_sweep)
                   if v.theorem == kind and v.eps == eps)
        extras = lambda key: {"extras": {**row.report.extras, key: 2 * rhs}}
        bad = _with_report(disk_sweep, i, **{
            "lipschitz_pseudodistance": {"pseudodistance": 2 * rhs},
            "lipschitz_alternative_center": {"pseudodistance_free": 2 * rhs},
            "classical_depth_bound": extras("max_minus_u"),
            "classical_gradient_bound": extras("max_grad"),
        }[kind])
    failed = [v for v in verify_theorems(bad) if v.passed is False]
    assert [(v.theorem, v.eps) for v in failed] == [(kind, eps)]
    assert failed[0].margin < 0
    assert all(v.passed is not False for v in verify_theorems(disk_sweep))


def _two_report_verdicts_oracle(result, reports, reports_alt):
    """The earlier verdicts: a second report per row at the free center."""
    verdicts = []
    mu_only = 1.0 / result.mu.value
    for row, rep, ra in zip(result.rows, reports, reports_alt):
        if rep.C_bound is not None:
            rhs = rep.C_bound * rep.deficit_2
            verdicts.append(TheoremVerdict(
                "lipschitz_pseudodistance", row.eps, rep.pseudodistance, rhs,
                rhs - rep.pseudodistance, rep.pseudodistance <= rhs))
        if ra.m > 0:
            c_alt = theorem_constant(ra.m, mu_only)
            rhs = c_alt * ra.deficit_2
            verdicts.append(TheoremVerdict(
                "lipschitz_alternative_center", row.eps, ra.pseudodistance, rhs,
                rhs - ra.pseudodistance, ra.pseudodistance <= rhs))
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
    ratios = [r.rho_gap / r.deficit_1 for row, r in zip(result.rows, reports)
              if row.eps > 0 and r.deficit_1 > 0]
    if ratios:
        spread = max(ratios) / min(ratios)
        growth_ok = all(ratios[i] <= 1.5 * ratios[i + 1]
                        for i in range(len(ratios) - 1))
        verdicts.append(TheoremVerdict(
            "rho_gap_ratio_bounded", 0.0, spread, 1.5, 1.5 - spread,
            bool(spread <= 1.5 and growth_ok), f"max/min={spread:.3f}"))
    return verdicts


@pytest.mark.parametrize("family", ["disk", "quarter4"])
def test_verdicts_match_the_two_report_oracle(family, disk_spec, quarter_spec):
    """One report per member gives the verdicts of the earlier two reports."""
    from conetorsion import alternative_center, deficits
    base, mode = {"disk": (disk_spec, 3), "quarter4": (quarter_spec, 4)}[family]
    fam = make_family(base, mode, [0.02, 0.04, 0.08])
    result = run_sweep(fam, 0.08, 2, label=family)
    reports, reports_alt = [], []
    for (_, spec), row in zip(fam.members, result.rows):
        res = run_pipeline(spec, 0.08, 2, lam=result.lam,
                           domain_id=row.report.domain_id)
        assert res.report.csv_row() == row.report.csv_row()
        ra = deficits(res.field, alternative_center(res.field),
                      lambda_21=result.lam, domain_id=row.report.domain_id)
        assert row.report.pseudodistance_free == ra.pseudodistance
        reports.append(row.report)
        reports_alt.append(ra)
    new = [astuple(v) for v in verify_theorems(result)]
    old = [astuple(v) for v in _two_report_verdicts_oracle(result, reports,
                                                           reports_alt)]
    assert any(v[0] == "lipschitz_alternative_center" for v in new)
    assert repr(new) == repr(old)


# ---------------------------------------------------------------------------
# pipeline properties over random families
# ---------------------------------------------------------------------------

@settings(max_examples=8, deadline=None)
@given(data=hst.data())
def test_pipeline_properties_random_families(data):
    """Structural facts that hold for any mild convex-cone perturbation.

    Coarse meshes (h = 0.12), so tolerances are discretization-scale; the
    sharp sign tolerances live in the acceptance suite at its resolutions.
    """
    import numpy as np
    from conetorsion import (assemble, boundary_partition, compute_center,
                             deficits, make_sector_domain, normal_span, solve,
                             triangulate)
    from tests.oracles import gamma0_grad_norm, h_field

    beta = data.draw(hst.sampled_from([math.pi / 2, math.pi, 2 * math.pi]))
    mode = data.draw(hst.sampled_from([2, 3, 4, 5]))
    eps = data.draw(hst.floats(0.0, 0.08))
    radius = FourierRadius(1.0, [(mode, eps)]) if eps else None
    spec = make_sector_domain(
        beta, radius if radius is not None else FourierRadius(1.0), 256)
    span = normal_span(boundary_partition(spec))
    u = solve(assemble(triangulate(spec, 0.12), 2))
    z = compute_center(u, span)
    rep = deficits(u, z)

    assert u.coeffs.max() <= 1e-2 * abs(u.coeffs.min())     # torsion depth sign
    assert rep.m > 0                                        # Hopf positivity
    assert rep.R > 0
    assert rep.deficit_2 >= 2 * rep.m * rep.deficit_1 - 1e-9
    assert rep.identity_residual <= 1.0
    assert rep.gamma1_term >= -5e-3                         # noise-scale bound
    h = h_field(u, z)
    assert rep.pseudodistance <= gamma0_grad_norm(h) + rep.deficit_1 + 5e-3


# ---------------------------------------------------------------------------
# refinement sanity of the eps = 0.04 member
# ---------------------------------------------------------------------------

def test_richardson_refinement_sanity(pert_disk_spec):
    # r = 1 + 0.05 cos 3t base; build the 0.04 member explicitly
    spec = make_sector_domain(2 * math.pi, FourierRadius(1.0, [(3, 0.04)]), 512)
    cols = ("deficit_1", "deficit_2", "pseudodistance", "rho_gap")
    vals = {c: [] for c in cols}
    for h in (0.1, 0.05, 0.025):
        rep = run_pipeline(spec, h, 2, lam=1.0).report
        for c in cols:
            vals[c].append(rep.column(c))
    for c in cols:
        v0, v1, v2 = vals[c]
        num, den = v0 - v1, v1 - v2
        if abs(den) < 1e-14 or num * den <= 0:
            continue   # already converged to roundoff for this column
        p = math.log2(num / den)
        limit = v2 + (v2 - v1) / (2**p - 1)
        assert abs(v1 - v0) <= 1.5 * abs(v0 - limit), (c, vals[c], limit)


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------

def test_sweep_csv_format(tmp_path, disk_sweep):
    fits = [fit_exponent(disk_sweep, "deficit_2", "pseudodistance")]
    lines = sweep_csv_lines(disk_sweep, fits)
    assert lines[0].startswith("domain_id,h_max,degree,R,m,z_x,z_y")
    assert len([ln for ln in lines if not ln.startswith("#")]) == 5
    assert lines[-1].startswith("#FIT x=deficit_2 y=pseudodistance slope=")
    path = tmp_path / "sweep.csv"
    write_sweep_csv(disk_sweep, fits, path)
    assert path.read_text().splitlines() == lines
