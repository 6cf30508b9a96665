"""Acceptance gate: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion.
"""

import math
import textwrap

import numpy as np
import pytest
import scipy.linalg
from scipy.special import jnp_zeros

from conetorsion import (boundary_partition, cli, interior_sphere_radius,
                         normal_derivative, normal_span, rectangle_mesh,
                         triangulate, u_distance_bounds)
from conetorsion import fit_exponent
from conetorsion.poincare import (_boundary_segments, _p1_matrices,
                                  _smallest_eigs, eta_estimate, mu_estimate)

BESSEL = 1.8411837813406595


def criterion(n: int, ok: bool, detail: str) -> None:
    print(f"criterion {n:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n}: {detail}"


def fitted_order(hs, vals):
    return float(np.polyfit(np.log(hs), np.log(vals), 1)[0])


# 1 ------------------------------------------------------------------------

def test_criterion_1_rigidity_reproduction(rigidity_series):
    hs = [b.report.h_max for b in rigidity_series]
    orders, finest, ok = {}, {}, True
    for col in ("deficit_2", "pseudodistance", "rho_gap"):
        vals = [b.report.column(col) for b in rigidity_series]
        orders[col] = fitted_order(hs, vals)
        finest[col] = vals[-1]
        ok = ok and orders[col] >= 1.5 and finest[col] <= 5e-3
    detail = ", ".join(f"{c}: order {orders[c]:.2f}, finest {finest[c]:.2e}"
                       for c in orders)
    criterion(1, ok, detail)


# 2 ------------------------------------------------------------------------

def test_criterion_2_manufactured_convergence(manufactured_errors):
    p1 = fitted_order(manufactured_errors[1]["h"], manufactured_errors[1]["l2"])
    p2 = fitted_order(manufactured_errors[2]["h"], manufactured_errors[2]["l2"])
    ok = abs(p1 - 2.0) <= 0.2 and abs(p2 - 3.0) <= 0.3
    criterion(2, ok, f"L2 orders: P1 {p1:.2f} (2.0 +- 0.2), P2 {p2:.2f} (3.0 +- 0.3)")


# 3 ------------------------------------------------------------------------

def test_criterion_3_identity_residual(identity_series):
    ok, parts = True, []
    for name, rows in identity_series.items():
        res = [r.residual for r in rows]
        decreasing = all(res[i + 1] < res[i] for i in range(len(res) - 1))
        ok = ok and res[-1] <= 0.05 and decreasing
        parts.append(f"{name}: residuals {', '.join(f'{r:.4f}' for r in res)}"
                     f" ({'decreasing' if decreasing else 'NOT decreasing'})")
    criterion(3, ok, "; ".join(parts))


# 4 ------------------------------------------------------------------------

def test_criterion_4_lipschitz_inequality(disk_sweep, quarter_sweep):
    ok, margins = True, []
    for sweep in (disk_sweep, quarter_sweep):
        for row in sweep.rows:
            rep = row.report
            ok = ok and bool(rep.C_bound_satisfied)
            rhs = rep.C_bound * rep.deficit_2
            margins.append(f"{rep.domain_id}: margin {rhs - rep.pseudodistance:.3g}")
    criterion(4, ok, "; ".join(margins))


# 5 ------------------------------------------------------------------------

def test_criterion_5_lipschitz_exponent(disk_sweep):
    fit = fit_exponent(disk_sweep, "deficit_2", "pseudodistance")
    ok = 0.8 <= fit.slope <= 1.2 and fit.r_squared >= 0.98
    criterion(5, ok, f"slope {fit.slope:.4f} in [0.8, 1.2], r2 {fit.r_squared:.5f} >= 0.98")


# 6 ------------------------------------------------------------------------

def test_criterion_6_rho_gap_linear_profile(disk_sweep):
    ratios = [row.report.rho_gap / row.report.deficit_1
              for row in disk_sweep.rows if row.eps > 0]
    spread = max(ratios) / min(ratios)
    ok = spread <= 1.5
    criterion(6, ok, f"rho_gap/deficit_1 ratios {[f'{r:.4f}' for r in ratios]}, "
                     f"max/min {spread:.3f} <= 1.5")


# 7 ------------------------------------------------------------------------

def test_criterion_7_poincare_constants(disk_spec):
    mesh = triangulate(disk_spec, 0.025)
    mu_disk = mu_estimate(mesh, 0.0).value
    bessel_ok = abs(mu_disk - BESSEL) <= 0.01 * BESSEL
    assert jnp_zeros(1, 1)[0] == pytest.approx(BESSEL, abs=1e-12)

    # dense eigensolve cross-check of the sparse path (same coarse mesh)
    coarse = triangulate(disk_spec, 0.12)
    seg_a, seg_b = _boundary_segments(coarse)
    A, M = _p1_matrices(coarse, 0.0, seg_a, seg_b)
    dense = np.sort(scipy.linalg.eigh(A.toarray(), M.toarray(),
                                      eigvals_only=True))
    sparse = _smallest_eigs(A, M)
    dense_ok = np.allclose(sparse, dense[:2], atol=1e-8)

    mu_square = mu_estimate(rectangle_mesh(40, 40), 0.0).value
    square_ok = abs(mu_square - math.pi) <= 0.01 * math.pi

    from conetorsion import ConstantRadius, make_sector_domain
    quarter = make_sector_domain(math.pi / 2, ConstantRadius(1.0), 256)
    part = boundary_partition(quarter)
    span = normal_span(part)
    ablation = eta_estimate(triangulate(quarter, 0.05), part, span, 0.0,
                            drop_constraint=True).value ** 2
    ablation_ok = ablation <= 1e-8

    ok = bessel_ok and dense_ok and square_ok and ablation_ok
    criterion(7, ok, f"mu(disk) {mu_disk:.5f} vs {BESSEL:.5f} "
                     f"({abs(mu_disk - BESSEL) / BESSEL:.2%}), dense check "
                     f"{'ok' if dense_ok else 'failed'}, mu(square) "
                     f"{mu_square:.5f} vs pi ({abs(mu_square - math.pi) / math.pi:.2%}), "
                     f"ablation eig {ablation:.2e} <= 1e-8")


# 8 ------------------------------------------------------------------------

def test_criterion_8_center_recovery(shifted_half_solve, quarter_solve,
                                     disk_solve):
    z_half = shifted_half_solve.center.z
    half_ok = abs(z_half[0] - 0.3) <= 1e-3 and abs(z_half[1]) <= 1e-3
    z_quarter = quarter_solve.center.z
    quarter_ok = z_quarter[0] == 0.0 and z_quarter[1] == 0.0
    z_disk = disk_solve.center.z
    disk_ok = float(np.linalg.norm(z_disk)) <= 1e-3
    ok = half_ok and quarter_ok and disk_ok
    criterion(8, ok, f"half-disk z {z_half} (target (0.3, 0) +- 1e-3), "
                     f"quarter z {z_quarter} (exact origin), "
                     f"disk |z| {np.linalg.norm(z_disk):.2e} <= 1e-3")


# 9 ------------------------------------------------------------------------

def test_criterion_9_pointwise_bounds(quarter_solve, disk_solve,
                                      pert_disk_solve, pert_quarter_solve,
                                      shifted_half_solve):
    ok, parts = True, []
    bundles = {
        "quarter": quarter_solve, "disk": disk_solve,
        "pert-disk": pert_disk_solve, "pert-quarter": pert_quarter_solve,
        "shifted-half": shifted_half_solve,
    }
    for name, bundle in bundles.items():
        ri = interior_sphere_radius(bundle.spec).value
        rep = u_distance_bounds(bundle.field, bundle.spec, ri)
        # all five domains have orthogonal (or empty) GAMMA0/GAMMA1 corners,
        # so the improved linear bound applies alongside the squared one
        good = (rep.margin_gamma0_sq >= -5e-3
                and rep.margin_gamma0_linear >= -5e-3)
        ok = ok and good
        parts.append(f"{name}: sq {rep.margin_gamma0_sq:+.2e}, "
                     f"lin {rep.margin_gamma0_linear:+.2e}")
    criterion(9, ok, "; ".join(parts))


# 10 -----------------------------------------------------------------------

def test_criterion_10_sign_checks(rigidity_series, disk_sweep, quarter_sweep,
                                  identity_series):
    gamma1, ms = [], []
    for b in rigidity_series:
        gamma1.append(b.report.gamma1_term)
        ms.append(b.report.m)
    for sweep in (disk_sweep, quarter_sweep):
        for row in sweep.rows:
            gamma1.append(row.report.gamma1_term)
            ms.append(row.report.m)
    for rows in identity_series.values():
        gamma1.extend(r.gamma1_term for r in rows)
    gamma1_ok = min(gamma1) >= -1e-6
    m_ok = min(ms) > 0

    finest = rigidity_series[-1]
    bf = normal_derivative(finest.field, n_gauss=3)
    mean_flux = float(np.sum(bf.weights * bf.values) / np.sum(bf.weights))
    mean_ok = abs(finest.report.R - mean_flux) <= 1e-3

    ok = gamma1_ok and m_ok and mean_ok
    criterion(10, ok, f"min gamma1_term {min(gamma1):+.2e} >= -1e-6 over "
                      f"{len(gamma1)} runs, min m {min(ms):.4f} > 0, "
                      f"|R - mean u_nu| {abs(finest.report.R - mean_flux):.2e} <= 1e-3")


# 11 -----------------------------------------------------------------------

def test_criterion_11_classical_bounds(disk_sweep):
    ok, parts = True, []
    for row in disk_sweep.rows:
        ex = row.report.extras
        d, re_ = ex["diameter"], ex["r_e"]
        depth_margin = d**2 / 2 - ex["max_minus_u"]
        grad_margin = 1.5 * d * (d + re_) / re_ - ex["max_grad"]
        good = math.isfinite(re_) and depth_margin >= 0 and grad_margin >= 0
        ok = ok and good
        parts.append(f"eps={row.eps:g}: depth margin {depth_margin:.3f}, "
                     f"grad margin {grad_margin:.3f}")
    criterion(11, ok, "; ".join(parts))


# 12 -----------------------------------------------------------------------

def test_criterion_12_thread_determinism(tmp_path):
    cfg = tmp_path / "disk.ini"
    cfg.write_text(textwrap.dedent("""
        [domain]
        angle = 2pi
        radius = constant 1.0
        samples = 512

        [mesh]
        h_target = 0.025
        degree = 2

        [sweep]
        mode = 3
        epsilons = 0.02 0.04 0.08

        [output]
        prefix = det
    """))
    blobs = {}
    for threads in (1, 8):
        out = tmp_path / f"threads{threads}"
        code = cli.main(["sweep", "--config", str(cfg), "--out", str(out),
                         "--threads", str(threads), "--svg", "off"])
        assert code == 0
        blobs[threads] = (out / "det_sweep.csv").read_bytes()
    ok = blobs[1] == blobs[8]
    criterion(12, ok, f"criterion-4 sweep CSV identical across 1/8 threads "
                      f"({len(blobs[1])} bytes)")
