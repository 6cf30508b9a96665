import math

import numpy as np
import pytest

from conetorsion import (CenterError, alternative_center, compute_center,
                         deficits, identity_residual, normal_derivative,
                         u_distance_bounds)
from conetorsion.quantities import (CSV_COLUMNS, Center, DeficitReport,
                                    _hessian_terms, edge_trace)
from conetorsion.mesher import GAMMA1
from tests.conftest import solve_domain
from tests.oracles import gamma0_grad_norm, h_field, interpolate, rotated_mesh


# ---------------------------------------------------------------------------
# boundary flux
# ---------------------------------------------------------------------------

def test_flux_is_one_on_rigidity_configuration(quarter_solve_fine):
    bf = normal_derivative(quarter_solve_fine.field)
    assert np.abs(bf.values - 1.0).max() <= 5e-3
    assert bf.values.shape[1] == 2


def test_flux_is_one_on_shifted_half_disk(shifted_half_solve):
    bf = normal_derivative(shifted_half_solve.field)
    assert np.abs(bf.values - 1.0).max() <= 5e-3


def test_flux_rejects_degree_one(quarter_solve):
    u1 = interpolate(quarter_solve.mesh, 1, lambda x, y: x)
    with pytest.raises(ValueError):
        normal_derivative(u1)


def test_flux_weights_sum_to_gamma0_length(quarter_solve):
    bf = normal_derivative(quarter_solve.field)
    h = quarter_solve.mesh.h_max
    assert abs(np.sum(bf.weights) - math.pi / 2) <= 2.0 * h**2


def test_flux_positive_on_convex_domains(quarter_solve, disk_solve,
                                         pert_disk_solve, pert_quarter_solve):
    for bundle in (quarter_solve, disk_solve, pert_disk_solve,
                   pert_quarter_solve):
        bf = normal_derivative(bundle.field)
        assert bf.values.min() > 0
        assert bf.min_value() > 0


# ---------------------------------------------------------------------------
# centers
# ---------------------------------------------------------------------------

def test_center_is_origin_when_span_is_full(quarter_solve):
    z = compute_center(quarter_solve.field, quarter_solve.span)
    assert z.k == 2
    np.testing.assert_array_equal(z.z, [0.0, 0.0])


def test_center_recovers_shift(shifted_half_solve):
    z = compute_center(shifted_half_solve.field, shifted_half_solve.span)
    assert z.k == 1
    assert abs(z.z[0] - 0.3) <= 1e-3
    assert abs(z.z[1]) <= 1e-12


def test_center_of_symmetric_disk(disk_solve):
    z = compute_center(disk_solve.field, disk_solve.span)
    assert np.linalg.norm(z.z) <= 1e-3


def test_alternative_center_matches_for_full_plane(disk_solve):
    za = alternative_center(disk_solve.field)
    zc = compute_center(disk_solve.field, disk_solve.span)
    assert np.linalg.norm(za.z - zc.z) <= 1e-10


def test_full_plane_center_is_center_of_mass(pert_disk_solve):
    # without GAMMA1 the gradient integral drops out: z = (int x) / |G|
    mesh = pert_disk_solve.mesh
    V, T = mesh.vertices, mesh.triangles
    areas = pert_disk_solve.field._areas
    centroid = np.sum(areas[:, None] * (V[T[:, 0]] + V[T[:, 1]] + V[T[:, 2]])
                      / 3.0, axis=0) / np.sum(areas)
    z = compute_center(pert_disk_solve.field, pert_disk_solve.span)
    assert np.linalg.norm(z.z - centroid) <= 1e-3


def test_alternative_center_vanishes_for_rigidity(quarter_solve):
    za = alternative_center(quarter_solve.field)
    assert np.linalg.norm(za.z) <= 1e-3


def test_alternative_center_small_for_odd_mode(pert_disk_solve):
    za = alternative_center(pert_disk_solve.field)
    assert np.linalg.norm(za.z) <= 0.01


# ---------------------------------------------------------------------------
# h field
# ---------------------------------------------------------------------------

def test_h_gradient_vanishes_on_rigidity(quarter_solve):
    h = h_field(quarter_solve.field, quarter_solve.center)
    elems = np.arange(quarter_solve.mesh.n_triangles)
    g = h.gradients(elems, np.full(3, 1 / 3))
    assert np.sqrt((g**2).sum(axis=1)).max() <= 5e-3


def test_h_hessian_identity_minus_u_hessian(pert_disk_solve):
    u = pert_disk_solve.field
    h = h_field(u, pert_disk_solve.center)
    np.testing.assert_allclose(h.element_hessians(),
                               np.eye(2)[None] - u.element_hessians(),
                               atol=1e-12)


def test_h_normal_derivative_vanishes_on_legs(quarter_solve):
    h = h_field(quarter_solve.field, quarter_solve.center)
    tr1 = edge_trace(quarter_solve.mesh, GAMMA1, 3)
    ne, ng = tr1.weights.shape
    grads = h.gradients(np.repeat(tr1.elements, ng),
                        tr1.lam.reshape(-1, 3)).reshape(ne, ng, 2)
    hnu = np.einsum("egx,ex->eg", grads, tr1.normals)
    assert np.abs(hnu).max() <= 5e-3


# ---------------------------------------------------------------------------
# the Cauchy-Schwarz deficit
# ---------------------------------------------------------------------------

def test_cs_deficit_vanishes_on_rigidity(quarter_solve):
    assert _hessian_terms(quarter_solve.field)[2].max() <= 1e-2


def test_cs_deficit_of_pure_deviatoric(quarter_solve):
    u = interpolate(quarter_solve.mesh, 2, lambda x, y: x**2 - y**2)
    np.testing.assert_allclose(_hessian_terms(u)[2], 8.0, atol=1e-9)


def test_cs_deficit_equals_h_hessian_norm_for_trace_two(quarter_solve):
    # any quadratic with discrete trace exactly N satisfies the identity
    u = interpolate(quarter_solve.mesh, 2,
                    lambda x, y: 0.5 * (x**2 + y**2) + 0.3 * x * y)
    h = h_field(u, np.array([0.1, -0.2]))
    Hh = h.element_hessians()
    frob2 = np.einsum("exy,exy->e", Hh, Hh)
    np.testing.assert_allclose(_hessian_terms(u)[2], frob2, atol=1e-12)


def test_cs_deficit_nonnegative(pert_quarter_solve):
    assert _hessian_terms(pert_quarter_solve.field)[2].min() >= -1e-12


# ---------------------------------------------------------------------------
# the identity
# ---------------------------------------------------------------------------

def test_identity_both_sides_vanish_on_rigidity(quarter_solve):
    rep = quarter_solve.report
    scale = 1e-3 * rep.R**3 * (math.pi / 2)
    assert abs(rep.identity_lhs) <= scale
    assert abs(rep.identity_rhs) <= scale
    assert rep.identity_residual <= 1.0


def test_identity_residual_decreases(identity_series):
    for name, rows in identity_series.items():
        residuals = [r.residual for r in rows]
        assert all(residuals[i + 1] <= residuals[i] * 1.2
                   for i in range(len(residuals) - 1)), (name, residuals)


def test_gamma1_term_sign_on_convex_cone(pert_quarter_solve, identity_series):
    rep = pert_quarter_solve.report
    assert rep.gamma1_term >= -1e-6
    for rows in identity_series.values():
        for r in rows:
            assert r.gamma1_term >= -1e-6


def test_identity_rejects_constraint_violating_center(quarter_solve):
    with pytest.raises(CenterError):
        z = np.array([0.2, 0.1])
        identity_residual(quarter_solve.field, Center(z, 0, z))


def test_identity_exact_trace_variant_recorded(pert_disk_solve):
    ident = identity_residual(pert_disk_solve.field, pert_disk_solve.center)
    assert math.isfinite(ident.lhs_exact_trace)
    # the frozen-N variant stays within a few percent of the consistent one
    assert ident.lhs_exact_trace == pytest.approx(ident.lhs, rel=0.2)
    rep = pert_disk_solve.report
    assert (rep.identity_lhs, rep.identity_rhs, rep.gamma1_term,
            rep.identity_residual) == (ident.lhs, ident.rhs, ident.gamma1_term,
                                       ident.residual)


# ---------------------------------------------------------------------------
# deficits
# ---------------------------------------------------------------------------

def test_rigidity_deficits_small(quarter_solve):
    rep = quarter_solve.report
    assert rep.deficit_2 <= 1e-2
    assert rep.pseudodistance <= 1e-2
    assert rep.rho_gap <= 1e-2


def test_deficit_lower_bound_relation(pert_disk_solve, pert_quarter_solve):
    # |u_nu^2 - R^2| >= 2 m |u_nu - R| pointwise when R >= m
    for bundle in (pert_disk_solve, pert_quarter_solve):
        rep = bundle.report
        assert rep.deficit_2 >= 2 * rep.m * rep.deficit_1 - 1e-9


def test_triangle_inequality_decomposition(pert_disk_solve):
    rep = pert_disk_solve.report
    h = h_field(pert_disk_solve.field, pert_disk_solve.center)
    rhs = gamma0_grad_norm(h) + rep.deficit_1
    assert rep.pseudodistance <= rhs + 1e-3


def test_deficits_invariant_under_rotation(pert_disk_spec):
    phi = 0.7
    base = solve_domain(pert_disk_spec, 0.1)
    rot_mesh = rotated_mesh(base.mesh, phi)
    from conetorsion import assemble, solve, normal_span, boundary_partition
    u_rot = solve(assemble(rot_mesh, 2))
    span_rot = normal_span(boundary_partition(rot_mesh.spec))
    z_rot = compute_center(u_rot, span_rot)
    rep_rot = deficits(u_rot, z_rot)
    rep = base.report
    for col in ("R", "m", "deficit_1", "deficit_2", "pseudodistance",
                "rho_gap", "identity_lhs", "identity_rhs"):
        assert rep_rot.column(col) == pytest.approx(rep.column(col), abs=1e-8)
    R2 = np.array([[math.cos(phi), -math.sin(phi)],
                   [math.sin(phi), math.cos(phi)]])
    np.testing.assert_allclose(rep_rot.z, R2 @ rep.z, atol=1e-8)


def test_ball_sector_deficits_converge(rigidity_series):
    hs = [b.report.h_max for b in rigidity_series]
    for col in ("deficit_1", "deficit_2", "pseudodistance", "rho_gap"):
        vals = [b.report.column(col) for b in rigidity_series]
        slope = np.polyfit(np.log(hs), np.log(vals), 1)[0]
        assert slope >= 1.5, (col, slope, vals)


def test_radius_equals_mean_flux(rigidity_series):
    finest = rigidity_series[-1]
    bf = normal_derivative(finest.field, n_gauss=3)
    mean_flux = float(np.sum(bf.weights * bf.values) / np.sum(bf.weights))
    assert abs(finest.report.R - mean_flux) <= 1e-3


def test_collar_exclusion_reported(quarter_solve, disk_solve):
    # the quarter cone's two corner edges are left out of m
    assert np.count_nonzero(normal_derivative(quarter_solve.field, 3).collar) == 2
    assert np.count_nonzero(normal_derivative(disk_solve.field, 3).collar) == 0


# ---------------------------------------------------------------------------
# CSV serialization
# ---------------------------------------------------------------------------

def test_csv_header_and_row_shape(quarter_solve):
    assert DeficitReport.csv_header() == ",".join(CSV_COLUMNS)
    assert len(CSV_COLUMNS) == 17
    row = quarter_solve.report.csv_row()
    assert row.count(",") == 16
    fields = row.split(",")
    assert fields[0].startswith("fixture")
    assert fields[2] == "2"
    # numeric fields parse back
    for f in fields[1:15]:
        float(f)


def test_column_answers_numeric_csv_columns_only(quarter_solve):
    from dataclasses import replace
    report = replace(quarter_solve.report, extras={"max_grad": 1.0})
    assert report.column("deficit_1") == report.deficit_1
    for name in ("domain_id", "max_grad", "no_such_column"):
        with pytest.raises(KeyError):
            report.column(name)


# ---------------------------------------------------------------------------
# pointwise bounds
# ---------------------------------------------------------------------------

def test_distance_bounds_rigidity(quarter_solve, quarter_spec):
    rep = u_distance_bounds(quarter_solve.field, quarter_spec, r_i=1.0)
    assert rep.ok
    assert rep.margin_gamma0_sq >= -5e-3
    assert rep.margin_gamma0_linear >= -5e-3


def test_distance_bounds_disk_center_equality(disk_solve_fine, disk_spec):
    rep = u_distance_bounds(disk_solve_fine.field, disk_spec, r_i=1.0)
    assert rep.ok
    # -u(0) = 1/2 = d^2/2 at the center: the boundary-squared margin is tight
    assert rep.margin_boundary_sq <= 2e-3


def test_distance_bounds_perturbed(pert_disk_solve, pert_disk_spec):
    rep = u_distance_bounds(pert_disk_solve.field, pert_disk_spec, r_i=0.735)
    assert rep.ok
