from dataclasses import replace

import numpy as np
import pytest

from conetorsion import (GAMMA0, GAMMA1, FemError, assemble, rectangle_mesh,
                         refine, solve, triangulate)
from tests.oracles import (energy, eval_points, galerkin_residual, interpolate,
                           l2_error, locate)

EXACT = lambda x, y: (x**2 + y**2 - 1) / 2


def fitted_order(hs, errs):
    return float(np.polyfit(np.log(hs), np.log(errs), 1)[0])


# ---------------------------------------------------------------------------
# assembly contracts
# ---------------------------------------------------------------------------

def test_dirichlet_set_is_the_arc(quarter_solve):
    sysm = quarter_solve.system
    xy = sysm.dofmap.node_xy[sysm.dirichlet]
    radii = np.hypot(xy[:, 0], xy[:, 1])
    # vertices sit on the arc; P2 midpoints sit on chords, one sagitta inside
    assert np.all(radii >= 1 - 2 * quarter_solve.mesh.h_max**2)
    assert np.all(radii <= 1 + 1e-12)


def test_load_vector_sums_to_minus_n_area(quarter_solve):
    sysm = quarter_solve.system
    assert np.sum(sysm.load) == pytest.approx(
        -2.0 * np.sum(quarter_solve.field._areas), abs=1e-12)


def test_stiffness_row_sums_vanish(quarter_solve):
    rs = np.asarray(quarter_solve.system.matrix.sum(axis=1)).ravel()
    assert np.abs(rs).max() <= 1e-12


def test_matrix_symmetric(quarter_solve):
    A = quarter_solve.system.matrix
    assert abs(A - A.T).max() <= 1e-12 * abs(A).max()


def _element_loop_oracle(mesh, degree, weights):
    """The earlier per-quadrature-point element kernel: stiffness and load."""
    from conetorsion.fem import bary_gradients, shape_bary_grads, shape_values
    from conetorsion.quadrature import TRI_POINTS, TRI_WEIGHTS
    G, areas = bary_gradients(mesh)
    nloc = 3 if degree == 1 else 6
    nt = mesh.n_triangles
    Ke = np.zeros((nt, nloc, nloc))
    be = np.zeros((nt, nloc))
    for lam, w, wt in zip(TRI_POINTS, TRI_WEIGHTS, weights):
        Nsh = shape_values(degree, lam)
        dN = shape_bary_grads(degree, lam)
        gradN = np.einsum("la,eax->elx", dN, G)
        Ke += (w * areas * wt)[:, None, None] * np.einsum("eix,ejx->eij", gradN, gradN)
        be += -2 * w * areas[:, None] * Nsh[None, :]
    return Ke, be


@pytest.mark.parametrize("degree", [1, 2])
def test_element_kernel_matches_quadrature_loop(quarter_solve, degree):
    from conetorsion.fem import bary_gradients, element_stiffness
    from conetorsion.poincare import _boundary_segments, _distance_weights
    mesh = quarter_solve.mesh
    G, areas = bary_gradients(mesh)
    ones = np.ones((7, mesh.n_triangles))
    weights = _distance_weights(mesh, 1.0, *_boundary_segments(mesh))
    for wt, given in ((ones, None), (ones, ones), (weights, weights)):
        Ke, be = _element_loop_oracle(mesh, degree, wt)
        new = element_stiffness(G, areas, degree, given)
        assert np.abs(new - Ke).max() <= 1e-13 * np.abs(Ke).max()
    system = assemble(mesh, degree)
    b = np.zeros(system.dofmap.n_dofs)
    np.add.at(b, system.dofmap.elem_dofs.ravel(), be.ravel())
    np.testing.assert_allclose(system.load, b, rtol=0, atol=1e-15)


def test_pure_neumann_rejected():
    mesh = rectangle_mesh(4, 4)
    bad = replace(mesh, boundary_tags=np.full(len(mesh.boundary_tags), GAMMA1))
    with pytest.raises(FemError):
        assemble(bad, 2)


def test_reduced_matrix_positive_definite(quarter_spec):
    import scipy.linalg
    mesh = triangulate(quarter_spec, 0.25)
    sysm = assemble(mesh, 2)
    free = np.setdiff1d(np.arange(sysm.matrix.shape[0]), sysm.dirichlet)
    eigs = scipy.linalg.eigvalsh(sysm.matrix[free][:, free].toarray())
    assert eigs.min() > 0


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def test_manufactured_convergence_orders(manufactured_errors):
    p1 = manufactured_errors[1]
    p2 = manufactured_errors[2]
    assert abs(fitted_order(p1["h"], p1["l2"]) - 2.0) <= 0.2
    assert abs(fitted_order(p1["h"], p1["h1"]) - 1.0) <= 0.2
    assert abs(fitted_order(p2["h"], p2["l2"]) - 3.0) <= 0.3


def test_correction_off_reverts_to_second_order(quarter_spec):
    errs, hs = [], []
    for h in (0.1, 0.05, 0.025):
        mesh = triangulate(quarter_spec, h)
        # a spec-less copy: solve applies no curved-boundary correction
        u = solve(assemble(replace(mesh, spec=None), 2))
        errs.append(l2_error(u, EXACT))
        hs.append(mesh.h_max)
    assert abs(fitted_order(hs, errs) - 2.0) <= 0.25


def test_solution_nonpositive(quarter_solve, disk_solve):
    for bundle in (quarter_solve, disk_solve):
        assert bundle.field.coeffs.max() <= 1e-8


def test_disk_center_value(disk_solve_fine):
    val = eval_points(disk_solve_fine.field, [[0.0, 0.0]])[0]
    assert val == pytest.approx(-0.5, abs=2e-3)


def test_galerkin_orthogonality(quarter_solve):
    assert galerkin_residual(quarter_solve.system, quarter_solve.field) <= 1e-9


def test_energy_monotone_under_refinement(quarter_spec):
    # Dirichlet energy grows toward the exact value as the space refines
    mesh = triangulate(quarter_spec, 0.2)
    energies = []
    for _ in range(3):
        u = solve(assemble(replace(mesh, spec=None), 2))     # uncorrected
        energies.append(energy(u))
        mesh = refine(mesh)
    assert energies[0] <= energies[1] + 1e-8
    assert energies[1] <= energies[2] + 1e-8


def test_solver_deterministic(quarter_spec):
    mesh = triangulate(quarter_spec, 0.1)
    u1 = solve(assemble(mesh, 2))
    u2 = solve(assemble(mesh, 2))
    assert np.array_equal(u1.coeffs, u2.coeffs)


# ---------------------------------------------------------------------------
# derivative access
# ---------------------------------------------------------------------------

def test_gradient_of_exact_interpolant(quarter_solve):
    mesh = quarter_solve.mesh
    u = interpolate(mesh, 2, EXACT)
    # grad u = x: check at element vertices via barycentric corners
    for elem in range(0, mesh.n_triangles, max(1, mesh.n_triangles // 17)):
        for local, lam in enumerate(np.eye(3)):
            vid = mesh.triangles[elem, local]
            g = u.gradients([elem], lam)[0]
            np.testing.assert_allclose(g, mesh.vertices[vid], atol=1e-12)


def test_p1_gradient_constant_per_element(quarter_solve):
    mesh = quarter_solve.mesh
    u = interpolate(mesh, 1, lambda x, y: 0.3 * x - 0.7 * y)
    for elem in (0, mesh.n_triangles // 2):
        g1 = u.gradients([elem], [1 / 3, 1 / 3, 1 / 3])[0]
        g2 = u.gradients([elem], [0.7, 0.2, 0.1])[0]
        np.testing.assert_allclose(g1, g2, atol=1e-14)
        np.testing.assert_allclose(g1, [0.3, -0.7], atol=1e-12)


def test_gradient_finite_difference_crosscheck(quarter_solve):
    u = quarter_solve.field
    rng = np.random.default_rng(7)
    pts = []
    while len(pts) < 5:
        p = rng.uniform(0.15, 0.6, size=2)
        if np.hypot(*p) < 0.8:
            pts.append(p)
    step = 1e-5
    for p in pts:
        elems, lams = locate(u, [p])
        g = u.gradients(elems, lams)[0]
        fd = np.array([
            eval_points(u, [p + [step, 0]])[0] - eval_points(u, [p - [step, 0]])[0],
            eval_points(u, [p + [0, step]])[0] - eval_points(u, [p - [0, step]])[0],
        ]) / (2 * step)
        assert np.linalg.norm(fd - g) <= 1e-6 * max(1.0, np.linalg.norm(g))


def test_hessian_of_quadratics(quarter_solve):
    mesh = quarter_solve.mesh
    u1 = interpolate(mesh, 2, lambda x, y: (x**2 + y**2) / 2)
    u2 = interpolate(mesh, 2, lambda x, y: x * y)
    for elem in (0, mesh.n_triangles // 3, mesh.n_triangles - 1):
        np.testing.assert_allclose(u1.element_hessians()[elem], np.eye(2), atol=1e-10)
        np.testing.assert_allclose(u2.element_hessians()[elem], [[0, 1], [1, 0]],
                                   atol=1e-10)


def test_hessian_requires_degree_two(quarter_solve):
    u = interpolate(quarter_solve.mesh, 1, lambda x, y: x)
    with pytest.raises(FemError):
        u.element_hessians()


def test_hessian_trace_consistent_with_equation(quarter_solve):
    u = quarter_solve.field
    H = u.element_hessians()
    traces = H[:, 0, 0] + H[:, 1, 1]
    areas = quarter_solve.field._areas
    mean_trace = float(np.sum(areas * traces) / np.sum(areas))
    assert abs(mean_trace - 2.0) <= 3.0 * quarter_solve.mesh.h_max


# ---------------------------------------------------------------------------
# dof map, boundary owners and the SPD factor against the earlier code
# ---------------------------------------------------------------------------

def _dofmap_oracle(mesh):
    """The earlier tuple-keyed P2 dof map: (elem_dofs, sorted pair -> dof)."""
    V, T = mesh.vertices, mesh.triangles
    nv = len(V)
    pairs = np.concatenate([T[:, [0, 1]], T[:, [1, 2]], T[:, [2, 0]]])
    keys = np.sort(pairs, axis=1)
    uniq, inverse = np.unique(keys, axis=0, return_inverse=True)
    elem_dofs = np.hstack([T, nv + inverse.reshape(3, -1).T])
    edge_nodes = {tuple(k): nv + i for i, k in enumerate(uniq.tolist())}
    return elem_dofs, edge_nodes


def _dirichlet_oracle(mesh, edge_nodes):
    fixed = set()
    for (a, c), tag in zip(mesh.boundary_edges, mesh.boundary_tags):
        if tag != GAMMA0:
            continue
        fixed.add(int(a))
        fixed.add(int(c))
        fixed.add(edge_nodes[tuple(sorted((int(a), int(c))))])
    return np.array(sorted(fixed), dtype=np.int64)


def _boundary_owner_oracle(mesh) -> dict:
    """The earlier dict lookup: sorted boundary vertex pair -> owning element."""
    T = mesh.triangles
    out = {}
    edges = np.concatenate([T[:, [0, 1]], T[:, [1, 2]], T[:, [2, 0]]])
    owner = np.tile(np.arange(len(T)), 3)
    keys = np.sort(edges, axis=1)
    boundary = set(map(tuple, np.sort(mesh.boundary_edges, axis=1).tolist()))
    for key, el in zip(map(tuple, keys.tolist()), owner):
        if key in boundary:
            out[key] = int(el)
    return out


@pytest.fixture(scope="module")
def oracle_meshes(disk_spec, quarter_spec):
    return [triangulate(disk_spec, 0.1), triangulate(quarter_spec, 0.08),
            refine(triangulate(quarter_spec, 0.15))]


def test_dofmap_and_owners_match_dict_oracles(oracle_meshes):
    from conetorsion.fem import build_dofmap
    from conetorsion.quantities import collar_edge_mask, edge_trace
    for mesh in oracle_meshes:
        elem_dofs, edge_nodes = _dofmap_oracle(mesh)
        dofmap = build_dofmap(mesh, 2)
        assert np.array_equal(dofmap.elem_dofs, elem_dofs)
        assert np.array_equal(assemble(mesh, 2).dirichlet,
                              _dirichlet_oracle(mesh, edge_nodes))
        table, edges = mesh.edge_table(), mesh.boundary_edges
        assert np.array_equal(
            mesh.n_vertices + table.boundary,
            [edge_nodes[tuple(sorted(e))] for e in edges.tolist()])
        owner = _boundary_owner_oracle(mesh)
        assert np.array_equal(table.owners,
                              [owner[tuple(sorted(e))] for e in edges.tolist()])
        tr = edge_trace(mesh, GAMMA0, 3)
        corners = set(np.unique(mesh.boundary_edges[mesh.boundary_tags == GAMMA1]))
        assert np.array_equal(collar_edge_mask(mesh, tr), [
            int(a) in corners or int(b) in corners
            for a, b in mesh.boundary_edges[tr.edge_rows]])


def _reduced(system):
    free = np.setdiff1d(np.arange(system.matrix.shape[0]), system.dirichlet)
    return system.matrix[free][:, free], system.load[free]


def test_factor_spd_matches_default_lu(oracle_meshes, quarter_spec):
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla
    from conetorsion import boundary_partition, normal_span
    from conetorsion.fem import factor_spd
    from conetorsion.poincare import (_boundary_segments, _constraint_basis,
                                      _p1_matrices)
    systems = [_reduced(assemble(mesh, 2)) for mesh in oracle_meshes]
    mesh = oracle_meshes[1]
    rng = np.random.default_rng(3)
    for alpha in (0.0, 1.0):
        A, M = _p1_matrices(mesh, alpha, *_boundary_segments(mesh))
        systems.append((A + M, rng.standard_normal(A.shape[0])))
    part = boundary_partition(quarter_spec)
    A, M = _p1_matrices(mesh, 0.5, *part.gamma0)
    Z = _constraint_basis(mesh, part, normal_span(part), False)
    A2 = Z.T @ sp.kron(A, sp.identity(2)) @ Z
    M2 = Z.T @ sp.kron(M, sp.identity(2)) @ Z
    systems.append((A2 + M2, rng.standard_normal(A2.shape[0])))
    for A, b in systems:
        x = factor_spd(A).solve(b)
        ref = spla.splu(sp.csc_matrix(A)).solve(b)
        assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)


@pytest.mark.parametrize("matrix", [
    [[1.0, 1.0], [1.0, 1.0]],                      # singular
    [[2.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.0]],
    [[1.0, 0.0], [0.0, -1.0]],                     # indefinite
    [[0.0, 1.0], [1.0, 0.0]],
])
def test_factor_spd_rejects_singular_and_indefinite(matrix):
    from conetorsion.fem import factor_spd
    with pytest.raises(FemError):
        factor_spd(np.array(matrix))


def test_solve_rejects_a_wrong_factor(quarter_spec, monkeypatch):
    from conetorsion import fem
    system = assemble(triangulate(quarter_spec, 0.1), 2)
    real = fem.factor_spd
    monkeypatch.setattr(fem, "factor_spd", lambda A: real(2.0 * A))
    with pytest.raises(FemError, match="relative residual"):
        solve(system)


def test_solve_rejects_an_asymmetric_matrix(quarter_spec):
    system = assemble(triangulate(quarter_spec, 0.1), 2)
    A = system.matrix.copy()
    rows = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
    k = np.flatnonzero(rows != A.indices)[0]        # one off-diagonal entry
    A.data[k] += 1e-6 * abs(A).max()
    with pytest.raises(FemError, match="assembled matrix is not symmetric"):
        solve(replace(system, matrix=A))


def test_solve_rejects_an_asymmetric_pattern(quarter_spec):
    # one entry (i, j) whose mirror (j, i) is not stored: the transpose then
    # has another pattern, which the symmetry check confirms before it
    # compares values
    import scipy.sparse as sp
    system = assemble(triangulate(quarter_spec, 0.1), 2)
    A = system.matrix
    n = A.shape[0]
    i, j = 0, next(j for j in range(n - 1, 0, -1) if A[0, j] == 0 and A[j, 0] == 0)
    extra = sp.csr_matrix(([1e-6 * abs(A).max()], ([i], [j])), shape=A.shape)
    B = (A + extra).tocsr()
    assert B.nnz == A.nnz + 1
    with pytest.raises(FemError, match="not symmetric: pattern differs"):
        solve(replace(system, matrix=B))


def test_factor_spd_fill_not_above_plain_minimum_degree(disk_spec,
                                                         pert_quarter_spec):
    # the reverse Cuthill-McKee pre-order must not cost fill against minimum
    # degree on the dof numbering (quarter4 refined once: 33,856 free dofs;
    # the disk3 sweep member eps = 0.04 at h = 0.025)
    import scipy.sparse.linalg as spla
    from conetorsion import make_family
    from conetorsion.fem import factor_spd
    disk3 = make_family(disk_spec, 3, [0.04]).members[1][1]
    for mesh in (refine(triangulate(pert_quarter_spec, 0.025)),
                 triangulate(disk3, 0.025)):
        A = _reduced(assemble(mesh, 2))[0].tocsc()
        plain = spla.splu(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                          options={"SymmetricMode": True})
        assert factor_spd(A).nnz <= plain.nnz


def test_solve_records_the_factor_fill(quarter_solve):
    diag = quarter_solve.field.diagnostics
    assert 0 < diag["n_dofs"] - diag["n_fixed"] < diag["lu_nnz"]


# ---------------------------------------------------------------------------
# two-level CG path (tests move fem._CG_MIN_DOFS to route a system)
# ---------------------------------------------------------------------------

def test_prolongation_maps_p1_interpolants_to_p2_interpolants(quarter_solve):
    from conetorsion.fem import _prolongation
    affine = lambda x, y: 0.5 - 2.0 * x + 0.25 * y
    p1_to_p2 = lambda d: _prolongation(d.n_vertices, d.edge_keys)
    # dyadic vertices: every product and mean is exact
    mesh = rectangle_mesh(4, 4)
    p1, p2 = interpolate(mesh, 1, affine), interpolate(mesh, 2, affine)
    assert np.array_equal(p1_to_p2(p2.dofmap) @ p1.coeffs, p2.coeffs)
    # the refine record gives P1 on the parent -> P1 on the child
    child = refine(mesh)
    assert np.array_equal(_prolongation(*child._cache["parent"]) @ p1.coeffs,
                          interpolate(child, 1, affine).coeffs)
    mesh = quarter_solve.mesh
    p1, p2 = interpolate(mesh, 1, affine), interpolate(mesh, 2, affine)
    np.testing.assert_allclose(p1_to_p2(p2.dofmap) @ p1.coeffs, p2.coeffs,
                               rtol=0, atol=1e-15)


def test_cg_matches_the_direct_solve(pert_quarter_spec, disk_spec, monkeypatch):
    # quarter4 refined once (33,856 free dofs) and the disk3 sweep member
    # eps = 0.04 at h = 0.025 are both above the size cutoff; the reference
    # raises the cutoff above the system size
    from conetorsion import fem, make_family
    disk3 = make_family(disk_spec, 3, [0.04]).members[1][1]
    for mesh in (refine(triangulate(pert_quarter_spec, 0.025)),
                 triangulate(disk3, 0.025)):
        system = assemble(mesh, 2)
        cg = solve(system)
        monkeypatch.setattr(fem, "_CG_MIN_DOFS", system.matrix.shape[0] + 1)
        direct = solve(system)
        monkeypatch.undo()
        assert direct.diagnostics["solver"] == "direct"
        assert direct.diagnostics["cg_iterations"] == []
        assert cg.diagnostics["solver"] == "cg"
        assert cg.diagnostics["lu_nnz"] < direct.diagnostics["lu_nnz"]
        diff = np.abs(cg.coeffs - direct.coeffs).max()
        assert diff <= 1e-11 * np.abs(direct.coeffs).max()


def test_cg_iterations_do_not_grow_under_refinement(pert_quarter_spec,
                                                    monkeypatch):
    # quarter4 at h = 0.025 and its two refinements: 8,464 to 135,424 free dofs
    from conetorsion import fem
    monkeypatch.setattr(fem, "_CG_MIN_DOFS", 0)
    mesh = triangulate(pert_quarter_spec, 0.025)
    for _ in range(3):
        diag = solve(assemble(mesh, 2)).diagnostics
        assert diag["solver"] == "cg" and len(diag["cg_iterations"]) == 2
        assert max(diag["cg_iterations"]) <= 20
        mesh = refine(mesh)


def test_cg_degree_one_converges_in_one_iteration(quarter_solve, monkeypatch):
    # P1 is its own coarse space, so the cycle is an exact solve
    from conetorsion import fem
    monkeypatch.setattr(fem, "_CG_MIN_DOFS", 0)
    assert solve(assemble(quarter_solve.mesh, 1)).diagnostics["cg_iterations"] == [1]


def test_a_broken_cycle_fails_the_residual_check(quarter_spec, monkeypatch):
    from conetorsion import fem
    real_pcg = fem._pcg
    steps = []
    monkeypatch.setattr(fem, "_CG_MIN_DOFS", 0)
    monkeypatch.setattr(fem, "_two_level", lambda A, P, coarse: lambda r: r)
    monkeypatch.setattr(fem, "_pcg", lambda *args: real_pcg(*args[:-1], steps))
    with pytest.raises(FemError, match="relative residual"):
        solve(assemble(triangulate(quarter_spec, 0.1), 2))
    assert steps == [fem._CG_MAX_ITER, fem._CG_MAX_ITER]


def test_a_broken_inner_cycle_fails_the_residual_check(quarter_spec,
                                                       monkeypatch):
    # a sign-flipped P1 -> parent P1 cycle leaves M indefinite; an inner cycle
    # that is only weak (identity, zero) still converges, in more steps
    from conetorsion import fem
    real_cycle, real_pcg = fem._two_level, fem._pcg
    steps, flipped = [], []

    def flip_inner(A, P, coarse):
        cycle = real_cycle(A, P, coarse)
        if not isinstance(getattr(coarse, "__self__", None), fem.SpdFactor):
            return cycle
        flipped.append(A.shape[0])       # the P1 level above the factor
        return lambda r: -cycle(r)

    monkeypatch.setattr(fem, "_CG_MIN_DOFS", 0)
    monkeypatch.setattr(fem, "_two_level", flip_inner)
    monkeypatch.setattr(fem, "_pcg", lambda *args: real_pcg(*args[:-1], steps))
    system = assemble(refine(triangulate(quarter_spec, 0.1)), 2)
    with pytest.raises(FemError, match="relative residual"):
        solve(system)
    assert len(flipped) == 1
    assert steps == [fem._CG_MAX_ITER, fem._CG_MAX_ITER]


def test_an_unrefined_mesh_keeps_the_two_level_cycle(pert_quarter_spec,
                                                     monkeypatch):
    # no refine record: the whole-array reference cycle and CG, bit for bit
    from conetorsion import fem
    from tests.oracles import pcg, two_level_cycle
    system = assemble(triangulate(pert_quarter_spec, 0.05), 2)
    assert "parent" not in system.mesh._cache
    monkeypatch.setattr(fem, "_CG_MIN_DOFS", 0)
    u = solve(system)
    monkeypatch.setattr(fem, "_preconditioner",
                        lambda A, sys_, free: two_level_cycle(A, sys_.dofmap, free))
    monkeypatch.setattr(fem, "_pcg", pcg)
    ref = solve(system)
    assert u.diagnostics["solver"] == "cg"
    assert u.diagnostics["cg_iterations"] == ref.diagnostics["cg_iterations"]
    assert u.diagnostics["lu_nnz"] == ref.diagnostics["lu_nnz"]
    assert u.coeffs.tobytes() == ref.coeffs.tobytes()


def test_uncorrected_solve_stops_once_the_correction_settles(pert_quarter_spec,
                                                            monkeypatch):
    # quarter4 refined once and twice, and the disk3 sweep member eps = 0.04
    # at h = 0.025.  The reference runs the uncorrected solve to the residual
    # stop.  Declaring the correction settled after one step moves the field
    # by about 1e-8 of max |u| on these meshes.
    from conetorsion import fem
    real_pcg = fem._pcg
    for mesh in _ladder_and_disk3(pert_quarter_spec)[1:]:
        system = assemble(mesh, 2)
        u = solve(system)
        monkeypatch.setattr(fem, "_pcg", lambda A, b, x, precondition, stop,
                            settled, steps: real_pcg(A, b, x, precondition,
                                                     stop, None, steps))
        ref = solve(system)
        monkeypatch.undo()
        assert u.diagnostics["solver"] == ref.diagnostics["solver"] == "cg"
        assert (u.diagnostics["cg_iterations"][0]
                < ref.diagnostics["cg_iterations"][0])
        diff = np.abs(u.coeffs - ref.coeffs).max()
        assert diff <= 1e-11 * np.abs(ref.coeffs).max()


def test_a_cg_step_costs_five_fine_grid_products(pert_quarter_spec, monkeypatch):
    # quarter4 refined once: per CG step one A_ff product in CG and four in the
    # cycle (one in each degree-2 sweep, one on each side of the coarse
    # correction); plus one initial residual per solve
    import scipy.sparse as sp
    from conetorsion import fem
    real_preconditioner, real_pcg = fem._preconditioner, fem._pcg
    products, counted = [], {}

    class Counted(sp.csr_matrix):
        def _matmul_vector(self, other):
            products.append(len(other))
            return super()._matmul_vector(other)

    def preconditioner(A, system, free):
        counted["A"] = Counted(A)
        return real_preconditioner(counted["A"], system, free)

    def pcg(A, *args):
        assert A.shape == counted["A"].shape
        return real_pcg(counted["A"], *args)

    monkeypatch.setattr(fem, "_preconditioner", preconditioner)
    monkeypatch.setattr(fem, "_pcg", pcg)
    system = assemble(refine(triangulate(pert_quarter_spec, 0.025)), 2)
    steps = solve(system).diagnostics["cg_iterations"]
    assert len(steps) == 2 and min(steps) > 0
    assert set(products) == {counted["A"].shape[0]}
    assert len(products) == 5 * sum(steps) + len(steps)


def test_three_level_preconditioner_is_symmetric_positive(pert_quarter_spec):
    # quarter4 refined once: P2 -> P1 on the mesh -> P1 on its parent
    from conetorsion import fem
    mesh = refine(triangulate(pert_quarter_spec, 0.025))
    system = assemble(mesh, 2)
    A = _reduced(system)[0]
    free = np.setdiff1d(np.arange(system.matrix.shape[0]), system.dirichlet)
    cycle, lu = fem._preconditioner(A, system, free)
    n_parent = mesh._cache["parent"][0]
    assert len(lu._perm) == np.count_nonzero(free < n_parent)
    rng = np.random.default_rng(7)
    for _ in range(3):
        x, y = rng.standard_normal((2, len(free)))
        xMy, yMx = x @ cycle(y), y @ cycle(x)
        assert abs(xMy - yMx) <= 1e-12 * abs(xMy)
        assert x @ cycle(x) > 0 and y @ cycle(y) > 0


def test_solve_holds_no_whole_matrix_temporaries(pert_quarter_spec):
    # quarter4 refined once: 33,856 free dofs.  tracemalloc sees numpy's
    # buffers (not SuperLU's).  The traced peak of solve measured 2.35x the
    # bytes of the reduced matrix; an abs(A) copy for the Gershgorin bound
    # made it 2.67x, and holding A[free] through the solve 3.35x.
    import tracemalloc
    system = assemble(refine(triangulate(pert_quarter_spec, 0.025)), 2)
    A = _reduced(system)[0]
    nbytes = A.data.nbytes + A.indices.nbytes + A.indptr.nbytes
    del A
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    try:
        u = solve(system)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert u.diagnostics["solver"] == "cg"
    assert peak < 2.5 * nbytes


def _ladder_and_disk3(pert_quarter_spec):
    """quarter4 at h = 0.025 refined 0, 1 and 2 times (8.6k to 136k P2 dofs),
    and the disk3 sweep member eps = 0.04 at h = 0.025."""
    from conetorsion import FourierRadius, make_sector_domain
    meshes = [triangulate(pert_quarter_spec, 0.025)]
    meshes += [refine(meshes[0])]
    meshes += [refine(meshes[1])]
    disk3 = make_sector_domain(2 * np.pi, FourierRadius(1.0, [(3, 0.04)]), 512)
    return meshes + [triangulate(disk3, 0.025)]


def _same_csr(A, B):
    """Byte-equal CSR arrays and dtypes; A owns its nnz entries and no more."""
    for name in ("indptr", "indices", "data"):
        a, b = getattr(A, name), getattr(B, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    for a in (A.indices, A.data):
        assert a.base is None and a.size == A.nnz


def test_scatter_matches_the_coo_route_byte_for_byte(pert_quarter_spec):
    from conetorsion import FourierRadius, make_sector_domain
    from conetorsion.fem import (bary_gradients, build_dofmap, element_stiffness,
                                 shape_values)
    from conetorsion.poincare import (_boundary_segments, _distance_weights,
                                      _p1_matrices)
    from conetorsion.quadrature import TRI_POINTS, TRI_WEIGHTS
    from tests.oracles import coo_scatter
    obtuse = triangulate(make_sector_domain(
        np.pi / 2, FourierRadius(1.0, [(5, 0.08)]), 256), 0.05)
    meshes = _ladder_and_disk3(pert_quarter_spec) + [
        refine(rectangle_mesh(12, 9)), obtuse]
    for mesh in meshes:
        G, areas = bary_gradients(mesh)
        _same_csr(assemble(mesh, 2).matrix,
                  coo_scatter(build_dofmap(mesh, 2), element_stiffness(G, areas, 2)))
    N = shape_values(1, TRI_POINTS)
    mass = np.einsum("q,qi,qj->ij", TRI_WEIGHTS, N, N)
    for mesh in (meshes[0], obtuse):
        G, areas = bary_gradients(mesh)
        dofmap, seg = build_dofmap(mesh, 1), _boundary_segments(mesh)
        for alpha in (0.0, 0.5, 1.0):
            A, M = _p1_matrices(mesh, alpha, *seg)
            _same_csr(A, coo_scatter(dofmap, element_stiffness(
                G, areas, 1, _distance_weights(mesh, alpha, *seg))))
            _same_csr(M, coo_scatter(dofmap, areas[:, None, None] * mass))


def test_assemble_peak_stays_near_the_matrix_size(pert_quarter_spec):
    # quarter4 refined once: 34,225 dofs.  The traced peak of assemble
    # measured 2.97x the bytes of the matrix it returns; the COO route
    # (triplets, duplicate-length CSR and views of it kept) 3.93x.
    import tracemalloc
    from conetorsion.fem import bary_gradients
    mesh = refine(triangulate(pert_quarter_spec, 0.025))
    mesh.edge_table()
    bary_gradients(mesh)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    try:
        A = assemble(mesh, 2).matrix
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak < 3.5 * (A.data.nbytes + A.indices.nbytes + A.indptr.nbytes)


def test_correction_gradients_are_formed_on_the_owners_only(pert_quarter_spec,
                                                            monkeypatch):
    from conetorsion import fem
    from conetorsion.fem import FemField, bary_gradients, shape_bary_grads
    whole = FemField.vertex_gradients
    calls, seen = [], []
    correction = fem._midpoint_correction

    def spy(system, u):
        gvals = correction(system, u)
        seen.append((u.copy(), gvals))
        return gvals

    monkeypatch.setattr(FemField, "vertex_gradients",
                        lambda self: calls.append(self) or whole(self))
    monkeypatch.setattr(fem, "_midpoint_correction", spy)
    for mesh in _ladder_and_disk3(pert_quarter_spec):
        system = assemble(mesh, 2)
        u = solve(system)
        assert calls == []
        u0, gvals = seen.pop()
        # the whole-mesh route: every element's vertex gradients, then the
        # owners' centroid gradients
        rows = np.flatnonzero(mesh.boundary_tags == GAMMA0)
        edges, dofmap = mesh.edge_table(), system.dofmap
        dofs = dofmap.n_vertices + edges.boundary[rows]
        m = dofmap.node_xy[dofs]
        du = np.einsum("vla,el->eva", shape_bary_grads(2, np.eye(3)),
                       u0[dofmap.elem_dofs])
        vg = np.einsum("eva,eax->evx", du, bary_gradients(mesh)[0])
        grad = np.einsum("...v,...vx->...x", np.full(3, 1.0 / 3.0),
                         vg[edges.owners[rows]])
        oracle = np.zeros(len(system.dirichlet))
        oracle[np.searchsorted(system.dirichlet, dofs)] = -np.einsum(
            "ex,ex->e", grad, mesh.spec.project_to_gamma0(m) - m)
        assert oracle.tobytes() == gvals.tobytes()
        assert u.coeffs[system.dirichlet].tobytes() == oracle.tobytes()
        assert np.count_nonzero(oracle) > 0


def test_small_or_poorly_shaped_systems_keep_the_direct_path(quarter_spec,
                                                             disk_spec,
                                                             monkeypatch):
    from conetorsion import FourierRadius, fem, make_family, make_sector_domain
    from conetorsion.fem import factor_spd
    spiky = make_sector_domain(2 * np.pi, FourierRadius(1.0, [(8, 0.3)]), 256)
    small = triangulate(quarter_spec, 0.1)
    near = triangulate(quarter_spec, 0.019)     # just below the size cutoff
    poor = triangulate(spiky, 0.1)
    assert poor.min_angle < fem._CG_MIN_ANGLE <= near.min_angle
    for mesh, min_dofs in ((small, fem._CG_MIN_DOFS), (near, fem._CG_MIN_DOFS),
                           (poor, 0)):
        monkeypatch.setattr(fem, "_CG_MIN_DOFS", min_dofs)
        system = assemble(replace(mesh, spec=None), 2)
        u = solve(system)
        A, b = _reduced(system)
        free = np.setdiff1d(np.arange(system.matrix.shape[0]), system.dirichlet)
        assert u.diagnostics["solver"] == "direct"
        assert u.diagnostics["min_angle"] == mesh.min_angle
        assert np.array_equal(u.coeffs[free], factor_spd(A.tocsc()).solve(b))
        if mesh is near:
            assert 0.9 * fem._CG_MIN_DOFS < len(free) < fem._CG_MIN_DOFS
    # a disk3 sweep member at h = 0.025 is above it: CG, with a small coarse factor
    monkeypatch.undo()
    disk3 = make_family(disk_spec, 3, [0.04]).members[1][1]
    diag = solve(assemble(triangulate(disk3, 0.025), 2)).diagnostics
    assert diag["solver"] == "cg"
    assert diag["lu_nnz"] < 600_000


def test_cg_is_identical_across_blas_thread_counts(tmp_path):
    # 13,924 free dofs: vectors long enough for OpenBLAS to split a dot product
    # over two threads (np.dot in place of the fixed-order sums fails here)
    import os
    import subprocess
    import sys
    from pathlib import Path
    script = tmp_path / "cg_hash.py"
    script.write_text(
        "import hashlib, math\n"
        "import conetorsion as ct\n"
        "from conetorsion import fem\n"
        "fem._CG_MIN_DOFS = 0\n"
        "spec = ct.make_sector_domain(math.pi / 2, "
        "ct.FourierRadius(1.0, [(4, 0.05)]), 256)\n"
        "u = ct.solve(ct.assemble(ct.triangulate(spec, 0.018), 2))\n"
        "assert u.diagnostics['solver'] == 'cg'\n"
        "print(hashlib.sha256(u.coeffs.tobytes()).hexdigest())\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    hashes = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
        run = subprocess.run([sys.executable, str(script)], env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        hashes.append(run.stdout.strip())
    assert hashes[0] == hashes[1]
