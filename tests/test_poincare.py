import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from scipy.special import jnp_zeros

from conetorsion import (GAMMA1, ConstantRadius, FourierRadius, boundary_partition,
                         make_sector_domain, normal_span, rectangle_mesh, refine,
                         triangulate)
from conetorsion.geometry import polyline_distance
from conetorsion.poincare import (PoincareEstimate, _boundary_segments,
                                  _p1_matrices, _smallest_eigs, eta_estimate,
                                  lambda_constant, mu_estimate, theorem_constant,
                                  weighted_hessian_l2)
from tests.oracles import energy, h_field, rotated_mesh

# first positive root of the derivative of the first-order Bessel function
BESSEL_J1_PRIME_ROOT = 1.8411837813406595


def test_bessel_oracle_value():
    assert jnp_zeros(1, 1)[0] == pytest.approx(BESSEL_J1_PRIME_ROOT, abs=1e-12)


def test_mu_disk_matches_bessel_root(disk_spec):
    mesh = triangulate(disk_spec, 0.025)
    est = mu_estimate(mesh, 0.0)
    assert est.value == pytest.approx(BESSEL_J1_PRIME_ROOT, rel=0.01)
    assert est.value > 0


def test_mu_square_matches_pi():
    est = mu_estimate(rectangle_mesh(40, 40), 0.0)
    assert est.value == pytest.approx(math.pi, rel=0.01)


def test_sparse_matches_dense_eigensolve(disk_spec):
    # same mesh, same matrices: ARPACK vs a dense generalized eigensolve
    mesh = triangulate(disk_spec, 0.12)
    seg_a, seg_b = _boundary_segments(mesh)
    A, M = _p1_matrices(mesh, 0.0, seg_a, seg_b)
    sparse_vals = _smallest_eigs(A, M)
    dense_vals = np.sort(scipy.linalg.eigh(A.toarray(), M.toarray(),
                                           eigvals_only=True))
    np.testing.assert_allclose(sparse_vals, dense_vals[:2], atol=1e-8)


@pytest.mark.parametrize("shape", ["square", "disk"])
def test_mu_on_a_double_eigenvalue_matches_the_dense_oracle(disk_spec, shape):
    # the first positive eigenvalue is double on both; the default k = 2
    # eigensolve must still return the constant mode and that value
    mesh = rectangle_mesh(40, 40) if shape == "square" else triangulate(disk_spec, 0.12)
    A, M = _p1_matrices(mesh, 0.0, *_boundary_segments(mesh))
    dense = scipy.linalg.eigh(A.toarray(), M.toarray(), eigvals_only=True,
                              subset_by_index=[0, 2])
    assert dense[2] - dense[1] <= 1e-7 * dense[1]
    vals = _smallest_eigs(A, M)
    assert len(vals) == 2 and abs(vals[0]) <= 1e-10
    assert mu_estimate(mesh, 0.0).value == pytest.approx(math.sqrt(dense[1]),
                                                         rel=1e-12)


def test_mu_without_a_constant_mode_raises(disk_spec, monkeypatch):
    from conetorsion import poincare
    matrices = poincare._p1_matrices

    def shifted(*args):        # A + M has no kernel: its spectrum starts at 1
        A, M = matrices(*args)
        return A + M, M

    monkeypatch.setattr(poincare, "_p1_matrices", shifted)
    with pytest.raises(poincare.EigenError, match="constant mode missing"):
        mu_estimate(triangulate(disk_spec, 0.2), 0.0)


def test_constant_mode_excluded(disk_spec):
    mesh = triangulate(disk_spec, 0.1)
    est = mu_estimate(mesh, 0.0)
    assert est.value > 0.5   # strictly positive, not the constant's zero


def test_mu_scaling_law(disk_spec):
    base = mu_estimate(triangulate(disk_spec, 0.05), 0.0).value
    for s in (0.5, 2.0):
        spec = make_sector_domain(2 * math.pi, ConstantRadius(s), 512)
        val = mu_estimate(triangulate(spec, 0.05 * s), 0.0).value
        assert val == pytest.approx(base / s, rel=0.02)


def test_mu_history_decreases(disk_spec):
    mesh = triangulate(disk_spec, 0.15)
    est = mu_estimate(mesh, 0.0, levels=3)
    hist = est.history
    assert len(hist) == 3
    assert all(hist[i + 1] <= hist[i] * 1.02 for i in range(2))
    assert est.converged == (abs(hist[-1] - hist[-2]) <= 0.02 * hist[-1])


def test_mesh_caches_are_exact_and_not_shared(disk_spec):
    mesh = triangulate(disk_spec, 0.15)
    warm = mu_estimate(mesh, 1.0, levels=2)
    turned = rotated_mesh(mesh, 0.3)
    assert turned._cache == {}
    rotated = mu_estimate(turned, 1.0, levels=2)
    assert rotated.history == pytest.approx(warm.history, abs=1e-10)
    assert refine(mesh) is refine(mesh)
    fresh = refine(replace(mesh))
    for name in ("vertices", "triangles", "boundary_edges", "boundary_tags"):
        assert np.array_equal(getattr(refine(mesh), name), getattr(fresh, name))


def test_mu_weighted_variants_positive(disk_spec):
    mesh = triangulate(disk_spec, 0.05)
    for alpha in (0.5, 1.0):
        assert mu_estimate(mesh, alpha).value > 0


def test_mu_rejects_bad_alpha(disk_spec):
    with pytest.raises(ValueError):
        mu_estimate(triangulate(disk_spec, 0.2), 0.25)


def test_mu_rejects_zero_levels(disk_spec):
    with pytest.raises(ValueError, match="levels"):
        mu_estimate(triangulate(disk_spec, 0.2), 0.0, levels=0)


@pytest.mark.parametrize("levels", [1, 2])
def test_estimate_value_and_converged_follow_history(disk_spec, levels):
    est = mu_estimate(triangulate(disk_spec, 0.2), 0.0, levels=levels)
    hist = est.history
    assert len(hist) == levels and est.value == hist[-1]
    assert est.converged == (levels == 2 and
                             abs(hist[1] - hist[0]) <= 0.02 * abs(hist[1]))
    est.history = [hist[0], hist[0] * 1.01]     # derived, not stored
    assert est.value == hist[0] * 1.01 and est.converged
    est.history = [hist[0], hist[0] * 1.05]
    assert not est.converged


def _smallest_eigs_colamd(A, M, k: int = 4, sigma: float = -1.0) -> np.ndarray:
    """The earlier eigensolve: ARPACK builds its own default (COLAMD) LU."""
    import scipy.sparse.linalg as spla
    n = A.shape[0]
    k = min(k, n - 1)
    v0 = 1.0 + 0.25 * np.cos(0.7 * np.arange(n))
    vals = spla.eigsh(A.tocsc(), k=k, M=M.tocsc(), sigma=sigma,
                      v0=v0, return_eigenvectors=False)
    return np.sort(np.real(vals))


def test_histories_match_the_colamd_eigensolve(disk_spec, quarter_spec,
                                               monkeypatch):
    from conetorsion import poincare
    part = boundary_partition(quarter_spec)
    span = normal_span(part)
    disk, quarter = triangulate(disk_spec, 0.15), triangulate(quarter_spec, 0.12)

    def histories():
        out = []
        for alpha in (0.0, 0.5, 1.0):
            out.append(mu_estimate(disk, alpha, levels=2).history)
            out.append(mu_estimate(quarter, alpha, levels=2).history)
            out.append(eta_estimate(quarter, part, span, alpha, levels=2).history)
        return np.array(out)

    new = histories()
    monkeypatch.setattr(poincare, "_smallest_eigs", _smallest_eigs_colamd)
    np.testing.assert_allclose(new, histories(), rtol=1e-10, atol=0)


# ---------------------------------------------------------------------------
# eta
# ---------------------------------------------------------------------------

def test_eta_quarter_disk_separation_oracle(quarter_spec):
    # components decouple into mixed one-leg-Dirichlet problems whose lowest
    # eigenvalue is the squared first positive root of J1'
    part = boundary_partition(quarter_spec)
    span = normal_span(part)
    mesh = triangulate(quarter_spec, 0.025)
    est = eta_estimate(mesh, part, span, 0.0)
    assert est.value == pytest.approx(BESSEL_J1_PRIME_ROOT, rel=0.01)


def test_eta_half_disk_k1(half_spec):
    part = boundary_partition(half_spec)
    span = normal_span(part)
    assert span.k == 1
    mesh = triangulate(half_spec, 0.025)
    est = eta_estimate(mesh, part, span, 0.0)
    assert est.value == pytest.approx(BESSEL_J1_PRIME_ROOT, rel=0.01)


def test_eta_rejects_empty_gamma1(disk_spec, monkeypatch):
    # rejected before any P1 matrix (distance weights included) is built
    from conetorsion import DomainError, poincare
    part = boundary_partition(disk_spec)
    span = normal_span(part)
    mesh = triangulate(disk_spec, 0.2)
    calls = []
    monkeypatch.setattr(poincare, "_p1_matrices",
                        lambda *args: calls.append(args) or None)
    with pytest.raises(DomainError, match=r"GAMMA1 \(k >= 1\)"):
        eta_estimate(mesh, part, span, 0.0)
    assert calls == []


def test_eta_constraint_makes_constant_inadmissible(quarter_spec):
    part = boundary_partition(quarter_spec)
    span = normal_span(part)
    mesh = triangulate(quarter_spec, 0.1)
    est = eta_estimate(mesh, part, span, 0.0)
    assert est.value > 0.5


def test_eta_ablation_admits_constants(quarter_spec):
    part = boundary_partition(quarter_spec)
    span = normal_span(part)
    mesh = triangulate(quarter_spec, 0.1)
    assert eta_estimate(mesh, part, span, 0.0, drop_constraint=True).value ** 2 <= 1e-8


def test_eta_ablation_admits_the_constant_on_the_half_disk(half_spec):
    # k = 1: a one-dimensional kernel, so the k = 2 eigensolve holds one zero
    part = boundary_partition(half_spec)
    span = normal_span(part)
    mesh = triangulate(half_spec, 0.1)
    assert eta_estimate(mesh, part, span, 0.0, drop_constraint=True).value ** 2 <= 1e-8


def test_eta_with_an_indefinite_stiffness_raises(quarter_spec, monkeypatch):
    from conetorsion import poincare
    part = boundary_partition(quarter_spec)
    span = normal_span(part)
    mesh = triangulate(quarter_spec, 0.1)
    lam0 = eta_estimate(mesh, part, span, 0.0).value ** 2
    matrices = poincare._p1_matrices

    def indefinite(*args):     # moves the leading eigenvalue to -1
        A, M = matrices(*args)
        return A - (lam0 + 1.0) * M, M

    monkeypatch.setattr(poincare, "_p1_matrices", indefinite)
    with pytest.raises(poincare.EigenError, match="negative leading eigenvalue"):
        eta_estimate(mesh, part, span, 0.0)



def _node_legs(mesh, partition):
    """vertex id -> [(leg index, leg normal)] of the legs it lies on, in leg
    order: the GAMMA1 vertices within 1e-9 of each leg segment."""
    on_gamma1 = np.unique(mesh.boundary_edges[mesh.boundary_tags == GAMMA1])
    out = {}
    for j, (seg, nu) in enumerate(zip(partition.gamma1_segments,
                                      partition.gamma1_normals)):
        dist = polyline_distance(mesh.vertices[on_gamma1], seg[:1], seg[1:])
        for v in on_gamma1[dist <= 1e-9]:
            out.setdefault(int(v), []).append((j, nu))
    return out


def _constraint_basis_oracle(mesh, partition, span, drop_constraint):
    """The earlier node-by-node construction of Z, one SVD per constrained
    node, kept as the oracle."""
    import scipy.sparse as sp
    n = mesh.n_vertices
    S = span.basis.T
    node_legs = {} if drop_constraint else _node_legs(mesh, partition)
    cols, rows, vals = [], [], []
    ncol = 0
    for v in range(n):
        C = np.array([S.T @ nu for _, nu in node_legs.get(v, [])])
        if len(C) == 0:
            D = np.eye(span.k)
        else:
            _, s, vt = np.linalg.svd(C, full_matrices=True)
            rank = int(np.sum(s > 1e-12))
            D = vt[rank:].T
        B = S @ D
        for j in range(B.shape[1]):
            rows.extend((2 * v, 2 * v + 1))
            cols.extend((ncol, ncol))
            vals.extend((B[0, j], B[1, j]))
            ncol += 1
    return sp.coo_matrix((vals, (rows, cols)), shape=(2 * n, ncol)).tocsr()


def test_constraint_basis_matches_the_loop_oracle(quarter_spec, half_spec):
    from conetorsion.poincare import _constraint_basis
    cases = [(quarter_spec, triangulate(quarter_spec, 0.08)),
             (quarter_spec, refine(triangulate(quarter_spec, 0.15))),
             (half_spec, triangulate(half_spec, 0.1))]
    for spec, mesh in cases:
        part = boundary_partition(spec)
        span = normal_span(part)
        for drop in (False, True):
            Z = _constraint_basis(mesh, part, span, drop)
            Z0 = _constraint_basis_oracle(mesh, part, span, drop)
            assert Z.shape == Z0.shape
            for name in ("indptr", "indices", "data"):
                a, b = getattr(Z, name), getattr(Z0, name)
                assert a.dtype == b.dtype
                assert a.tobytes() == b.tobytes()


_QUARTER4 = make_sector_domain(math.pi / 2, FourierRadius(1.0, [(4, 0.05)]), 256)
ETA_BASIS_CASES = {     # spec, h_target, refinements
    "quarter4": (_QUARTER4, 0.08, 0),
    "half": (make_sector_domain(math.pi, ConstantRadius(1.0), 256), 0.1, 0),
    "obtuse": (make_sector_domain(math.pi / 2, FourierRadius(1.0, [(5, 0.08)]), 256),
               0.1, 0),
    "beta0.3pi": (make_sector_domain(0.3 * math.pi, ConstantRadius(1.0), 256), 0.08, 0),
    "beta1.5pi": (make_sector_domain(1.5 * math.pi, ConstantRadius(1.0), 256), 0.12, 0),
    "quarter4_refined": (_QUARTER4, 0.15, 1),
}


@pytest.mark.parametrize("name", ETA_BASIS_CASES)
def test_constraint_basis_is_admissible(name, monkeypatch):
    """Z's columns at a GAMMA1 node are orthonormal and orthogonal to the
    normal of every leg the node lies on; a node has k columns off GAMMA1,
    k - 1 on one leg and 0 at the apex, and k everywhere without the
    constraint.  At most 4 SVDs build one basis."""
    from conetorsion.poincare import _constraint_basis
    spec, h_target, refinements = ETA_BASIS_CASES[name]
    mesh = triangulate(spec, h_target)
    for _ in range(refinements):
        mesh = refine(mesh)
    part = boundary_partition(spec)
    span = normal_span(part)
    svd, calls = np.linalg.svd, []
    monkeypatch.setattr(np.linalg, "svd",
                        lambda *a, **kw: calls.append(1) or svd(*a, **kw))
    Z = _constraint_basis(mesh, part, span, False).toarray()
    assert 1 <= len(calls) <= 4
    Zfree = _constraint_basis(mesh, part, span, True).toarray()
    legs = _node_legs(mesh, part)
    assert any(len(on) == 2 for on in legs.values())     # the apex
    for v in range(mesh.n_vertices):
        cols = Z[2 * v:2 * v + 2, np.flatnonzero(Z[2 * v:2 * v + 2].any(axis=0))]
        on = legs.get(v, [])
        assert cols.shape[1] == (0 if len(on) == 2 else span.k - len(on)), v
        np.testing.assert_allclose(cols.T @ cols, np.eye(cols.shape[1]), atol=1e-14)
        for _, nu in on:
            assert np.all(np.abs(nu @ cols) <= 1e-15), (v, nu @ cols)
        assert np.count_nonzero(Zfree[2 * v:2 * v + 2].any(axis=0)) == span.k


# ---------------------------------------------------------------------------
# constants assembly
# ---------------------------------------------------------------------------

def test_lambda_constant_cases():
    mu = PoincareEstimate("mu", 1.0, [3.0, 2.0])     # the finest level counts
    eta, eta4 = (PoincareEstimate("eta", 1.0, [v]) for v in (1.5, 4.0))
    assert lambda_constant(0, mu=mu) == pytest.approx(0.5)
    assert lambda_constant(2, eta=eta) == pytest.approx(2 / 3)
    assert lambda_constant(1, mu=mu, eta=eta4) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        lambda_constant(0)
    with pytest.raises(ValueError):
        lambda_constant(2, mu=mu)
    with pytest.raises(ValueError):
        lambda_constant(1, mu=mu)


def test_theorem_constant_values():
    assert theorem_constant(1.0, 1.0) == pytest.approx(3.5)
    assert theorem_constant(0.5, 2.0) == pytest.approx(19.0)
    with pytest.raises(ValueError):
        theorem_constant(0.0, 1.0)


# ---------------------------------------------------------------------------
# the mixed gradient inequality
# ---------------------------------------------------------------------------

def _check(bundle, alpha):
    """(||grad h||, ||d^alpha D^2 h||, margin) of ||grad h|| <= Lambda ||d^alpha D^2 h||."""
    part, span, mesh = bundle.partition, bundle.span, bundle.mesh
    seg = part.all_segments()
    mu = mu_estimate(mesh, alpha, boundary=(seg[0], seg[1]))
    eta = eta_estimate(mesh, part, span, alpha) if span.k >= 1 else None
    h = h_field(bundle.field, bundle.center)
    lhs, rhs = math.sqrt(energy(h)), weighted_hessian_l2(h, alpha, part)
    return lhs, rhs, lambda_constant(span.k, mu, eta) * rhs - lhs


def test_mixed_check_rigidity(quarter_solve):
    _, _, margin = _check(quarter_solve, 1.0)
    assert margin >= -1e-6


@pytest.mark.parametrize("alpha", [1.0, 0.5])
def test_mixed_check_perturbed_disk(pert_disk_solve, alpha):
    lhs, rhs, margin = _check(pert_disk_solve, alpha)
    assert margin >= -1e-3 * rhs
    assert lhs > 0 and rhs > 0


@pytest.mark.parametrize("alpha", [1.0, 0.5])
def test_mixed_check_perturbed_quarter(pert_quarter_solve, alpha):
    _, rhs, margin = _check(pert_quarter_solve, alpha)
    assert margin >= -1e-3 * rhs


# ---------------------------------------------------------------------------
# work counts
# ---------------------------------------------------------------------------

def test_mu_shift_invert_solves_are_capped(disk_spec, monkeypatch):
    # 72 solves with k = 2 near sigma = -0.1; asking for 4 eigenvalues near
    # sigma = -1 took 164
    from conetorsion import poincare
    solves = []
    factor = poincare.factor_spd

    def counting_factor(A):
        lu = factor(A)

        class Counting:
            def solve(self, b):
                solves.append(1)
                return lu.solve(b)

        return Counting()

    monkeypatch.setattr(poincare, "factor_spd", counting_factor)
    mu_estimate(triangulate(disk_spec, 0.1), 1.0)
    assert 0 < len(solves) <= 100


def test_cone_pipeline_evaluates_each_gamma0_pair_once(pert_quarter_spec,
                                                       monkeypatch):
    from conetorsion import fem, mesher
    from conetorsion.quantities import u_distance_bounds
    part = boundary_partition(pert_quarter_spec)
    mesh = triangulate(pert_quarter_spec, 0.1)
    u = fem.solve(fem.assemble(mesh, 2))
    passes = []
    kernel = mesher.polyline_distance

    def counting(points, seg_a, seg_b):
        passes.append((len(points), len(seg_a)))
        return kernel(points, seg_a, seg_b)

    monkeypatch.setattr(mesher, "polyline_distance", counting)
    seg = part.all_segments()
    mu_estimate(mesh, 1.0, boundary=(seg[0], seg[1]))
    u_distance_bounds(u, pert_quarter_spec, r_i=1.0)
    n_points, n_gamma0 = 7 * mesh.n_triangles, len(part.gamma0[0])
    assert passes == [(n_points, n_gamma0), (n_points, 2)]
