"""The broadcast field evaluator, mesh edge keys and tagging against the
earlier per-point loops, and the GAMMA0 flux against the earlier flux paths
of ``normal_derivative``, ``deficits`` and ``identity_residual``, kept
verbatim as oracles here or, when other modules share them, in oracles.py."""

import math
from dataclasses import astuple, replace

import numpy as np
import pytest

from conetorsion import (GAMMA0, GAMMA1, CenterError, alternative_center,
                         assemble, compute_center, deficits, identity_residual,
                         max_depth, max_gradient, normal_derivative,
                         normal_span, rectangle_mesh, refine, solve,
                         triangulate, u_distance_bounds)
from conetorsion.fem import FemField, build_dofmap
from conetorsion.geometry import boundary_partition
from conetorsion.mesher import _tag_edges
from conetorsion.quadrature import TRI_POINTS, TRI_WEIGHTS
from conetorsion.quantities import collar_edge_mask, edge_trace
from tests.oracles import corners, gradients_oracle, interpolate, values_oracle

TOL = 1e-12
FN = lambda x, y: np.sin(3 * x) * np.cos(2 * y) + x * y**2


# ---------------------------------------------------------------------------
# oracles: the earlier per-point implementations
# ---------------------------------------------------------------------------

def _max_gradient_oracle(u):
    best = 0.0
    elems = np.arange(u.mesh.n_triangles)
    pts = list(TRI_POINTS) + [np.array([1.0, 0, 0]), np.array([0, 1.0, 0]),
                              np.array([0, 0, 1.0])]
    for lam in pts:
        g = gradients_oracle(u, elems, lam)
        best = max(best, float(np.sqrt(np.einsum("ex,ex->e", g, g).max())))
    return best


def _max_depth_oracle(u):
    best = float(np.max(-u.coeffs))
    elems = np.arange(u.mesh.n_triangles)
    for lam in TRI_POINTS:
        best = max(best, float(np.max(-values_oracle(u, elems, lam))))
    return best


def _distance_bounds_oracle(u, spec, r_i):
    part = boundary_partition(spec)
    a_all, b_all, _ = part.all_segments()
    dist_b = u.mesh.quadrature_distances(a_all, b_all)
    dist_g = u.mesh.quadrature_distances(*part.gamma0)
    elems = np.arange(u.mesh.n_triangles)
    m_b = m_g = m_lin = np.inf
    for lam, d_b, d_g in zip(TRI_POINTS, dist_b, dist_g):
        mu = -values_oracle(u, elems, lam)
        m_b = min(m_b, float(np.min(mu - 0.5 * d_b**2)))
        m_g = min(m_g, float(np.min(mu - 0.5 * d_g**2)))
        m_lin = min(m_lin, float(np.min(mu - 0.5 * r_i * d_g)))
    return m_b, m_g, m_lin


def _edge_lam_oracle(mesh, elements, points):
    """Determinant-based barycentrics of (ne, ng, 2) points in their owners."""
    T = mesh.triangles[elements]
    V = mesh.vertices
    p0 = V[T[:, 0]]
    d1, d2 = V[T[:, 1]] - p0, V[T[:, 2]] - p0
    det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    rel = points - p0[:, None, :]
    l1 = (rel[:, :, 0] * d2[:, 1][:, None] - rel[:, :, 1] * d2[:, 0][:, None]) / det[:, None]
    l2 = (-rel[:, :, 0] * d1[:, 1][:, None] + rel[:, :, 1] * d1[:, 0][:, None]) / det[:, None]
    return np.stack([1.0 - l1 - l2, l1, l2], axis=2)


def _boundary_edges_oracle(triangles):
    t = triangles
    edges = np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])
    keys = np.sort(edges, axis=1)
    order = np.lexsort((keys[:, 1], keys[:, 0]))
    sk = keys[order]
    same_next = np.zeros(len(sk), dtype=bool)
    same_next[:-1] = np.all(sk[:-1] == sk[1:], axis=1)
    same_prev = np.zeros(len(sk), dtype=bool)
    same_prev[1:] = same_next[:-1]
    single = ~(same_next | same_prev)
    return edges[order[single]]


def _tag_edges_oracle(spec, vertices, edges):
    if spec.is_full_plane:
        return np.full(len(edges), GAMMA0, dtype=np.int64)
    beta = spec.beta
    pts = vertices
    scale = float(np.max(np.linalg.norm(pts, axis=1)))
    tol = 1e-9 * scale

    def on_leg0(p):
        return abs(p[1]) <= tol and p[0] >= -tol

    leg1_dir = np.array([math.cos(beta), math.sin(beta)])

    def on_leg1(p):
        return abs(p[0] * leg1_dir[1] - p[1] * leg1_dir[0]) <= tol and p @ leg1_dir >= -tol

    tags = np.full(len(edges), GAMMA0, dtype=np.int64)
    for i, (a, b) in enumerate(edges):
        pa, pb = pts[a], pts[b]
        if (on_leg0(pa) and on_leg0(pb)) or (on_leg1(pa) and on_leg1(pb)):
            tags[i] = GAMMA1
    return tags


def _refine_oracle(mesh):
    """The earlier unique(axis=0)/set refinement: (vertices, triangles, tags).

    ``tags`` is the tuple-dict inheritance of a mesh without a spec (None
    otherwise), in the order of the child's boundary edges.
    """
    V, T = mesh.vertices, mesh.triangles
    nv = len(V)
    pairs = np.concatenate([T[:, [0, 1]], T[:, [1, 2]], T[:, [2, 0]]])
    keys = np.sort(pairs, axis=1)
    uniq, inverse = np.unique(keys, axis=0, return_inverse=True)
    mid = 0.5 * (V[uniq[:, 0]] + V[uniq[:, 1]])
    if mesh.spec is not None and np.any(mesh.boundary_tags == GAMMA0):
        g0 = set(map(tuple, np.sort(mesh.gamma0_edges(), axis=1).tolist()))
        idx = [i for i, row in enumerate(map(tuple, uniq.tolist())) if row in g0]
        mid[idx] = mesh.spec.project_to_gamma0(mid[idx])
    newV = np.vstack([V, mid])
    m = nv + inverse.reshape(3, -1).T
    t0, t1, t2 = T[:, 0], T[:, 1], T[:, 2]
    m01, m12, m20 = m[:, 0], m[:, 1], m[:, 2]
    newT = np.concatenate([
        np.stack([t0, m01, m20], axis=1),
        np.stack([t1, m12, m01], axis=1),
        np.stack([t2, m20, m12], axis=1),
        np.stack([m01, m12, m20], axis=1),
    ])
    if mesh.spec is not None:
        return newV, newT, None
    parent_tag = {tuple(k): int(tag) for k, tag in
                  zip(np.sort(mesh.boundary_edges, axis=1).tolist(),
                      mesh.boundary_tags)}
    child_edges = _boundary_edges_oracle(newT)
    tags = np.empty(len(child_edges), dtype=np.int64)
    for i, (a, b) in enumerate(child_edges):
        mid_id = a if a >= nv else b
        key = tuple(sorted(uniq[mid_id - nv].tolist()))
        tags[i] = parent_tag[key]
    return newV, newT, tags


def _normal_derivative_oracle(u, n_gauss):
    """The earlier flattened flux: (points, values, weights, normals, collar)."""
    tr = edge_trace(u.mesh, GAMMA0, n_gauss)
    ng = tr.weights.shape[1]
    unu = np.einsum("egx,ex->eg", u.gradients(tr.elements[:, None], tr.lam), tr.normals)
    collar = np.repeat(collar_edge_mask(u.mesh, tr), ng)
    return (tr.points.reshape(-1, 2), unu.ravel(), tr.weights.ravel(),
            np.repeat(tr.normals, ng, axis=0), collar)


def _min_value_oracle(values, collar):
    vals = values[~collar] if np.any(~collar) else values
    return float(np.min(vals))


def _deficits_flux_oracle(u):
    """R, m, the flux minimum over all points and the collar edge count, from
    the flux block of the earlier ``deficits``."""
    mesh = u.mesh
    tr0 = edge_trace(mesh, GAMMA0, 3)
    unu = np.einsum("egx,ex->eg", u.gradients(tr0.elements[:, None], tr0.lam),
                    tr0.normals)
    R = 2.0 * float(np.sum(u._areas)) / tr0.total_length
    collar = collar_edge_mask(mesh, tr0)
    interior_vals = unu[~collar] if np.any(~collar) else unu
    m = float(np.min(interior_vals))
    m_all = float(np.min(unu))
    return R, m, m_all, int(np.sum(collar))


def _center_violated_oracle(mesh, z):
    """The earlier constraint test of ``deficits``: True when the identity is NaN."""
    g1_rows = np.flatnonzero(mesh.boundary_tags == GAMMA1)
    viol = 0.0
    if len(g1_rows):
        edges = mesh.boundary_edges[g1_rows]
        d = mesh.vertices[edges[:, 1]] - mesh.vertices[edges[:, 0]]
        n = np.stack([d[:, 1], -d[:, 0]], axis=1)
        normals = n / np.linalg.norm(n, axis=1)[:, None]
        viol = float(np.max(np.abs(normals @ np.asarray(z, dtype=float))))
    return not viol <= 1e-10 * (1.0 + float(np.linalg.norm(z)))


def _identity_oracle(u, z, R=None):
    """The earlier ``identity_residual`` with its own GAMMA0 flux block:
    (lhs, rhs, gamma1_term, residual, lhs_exact_trace)."""
    mesh = u.mesh
    minus_int_u = -(TRI_WEIGHTS @ u.values(np.arange(mesh.n_triangles),
                                           TRI_POINTS[:, None])) * u._areas
    H = u.element_hessians()
    frob = np.einsum("exy,exy->e", H, H)
    tr = H[:, 0, 0] + H[:, 1, 1]
    volume = float(np.sum(minus_int_u * (frob - tr**2 / 2.0)))
    volume_exact = float(np.sum(minus_int_u * (frob - 2.0)))
    gamma1 = 0.0
    if np.any(mesh.boundary_tags == GAMMA1):
        tr1 = edge_trace(mesh, GAMMA1, 3)
        uvals = u.values(tr1.elements[:, None], tr1.lam)
        grads = u.gradients(tr1.elements[:, None], tr1.lam)
        Hn = np.einsum("exy,ey->ex", H[tr1.elements], tr1.normals)
        hdotnu = np.einsum("egx,ex->eg", grads, Hn)
        gamma1 = float(np.sum(tr1.weights * uvals * hdotnu))
    tr0 = edge_trace(mesh, GAMMA0, 3)
    unu = np.einsum("egx,ex->eg", u.gradients(tr0.elements[:, None], tr0.lam),
                    tr0.normals)
    if R is None:
        R = 2.0 * float(np.sum(u._areas)) / tr0.total_length
    xnu = np.einsum("egx,ex->eg", tr0.points - z[None, None, :], tr0.normals)
    rhs = 0.5 * float(np.sum(tr0.weights * (unu**2 - R**2) * (unu - xnu)))
    lhs = volume + gamma1
    scale = max(abs(lhs), abs(rhs), R**2 * tr0.total_length * mesh.h_max**2)
    return lhs, rhs, gamma1, abs(lhs - rhs) / scale, volume_exact + gamma1


# ---------------------------------------------------------------------------
# meshes and fields
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def meshes(disk_spec, quarter_spec):
    """A disk, a quarter cone, a refined quarter cone and a rectangle."""
    unit = rectangle_mesh(7, 5)
    rectangle = replace(unit, vertices=unit.vertices * [1.4, 1.0])  # [0, 1.4] x [0, 1]
    return [triangulate(disk_spec, 0.1), triangulate(quarter_spec, 0.08),
            refine(triangulate(quarter_spec, 0.15)), rectangle]


@pytest.fixture(scope="module")
def fields(meshes):
    return [interpolate(mesh, degree, FN) for mesh in meshes for degree in (1, 2)]


def _close(new, old):
    scale = max(1.0, float(np.max(np.abs(old), initial=0.0)))
    np.testing.assert_allclose(new, old, rtol=0, atol=TOL * scale)


def test_broadcast_values_and_gradients_match_per_point_oracle(fields):
    rng = np.random.default_rng(3)
    for u in fields:
        nt = u.mesh.n_triangles
        elems = np.arange(nt)
        vals = u.values(elems, TRI_POINTS[:, None])
        grads = u.gradients(elems, TRI_POINTS[:, None])
        assert vals.shape == (7, nt) and grads.shape == (7, nt, 2)
        for q, lam in enumerate(TRI_POINTS):
            _close(vals[q], values_oracle(u, elems, lam))
            _close(grads[q], gradients_oracle(u, elems, lam))
        lam = rng.dirichlet(np.ones(3), size=nt)          # one point per element
        _close(u.values(elems, lam), values_oracle(u, elems, lam))
        _close(u.gradients(elems, lam), gradients_oracle(u, elems, lam))
        for tag in (GAMMA0, GAMMA1):
            tr = edge_trace(u.mesh, tag, 3)
            ne, ng = tr.weights.shape
            flat = np.repeat(tr.elements, ng), tr.lam.reshape(-1, 3)
            _close(u.values(tr.elements[:, None], tr.lam),
                   values_oracle(u, *flat).reshape(ne, ng))
            _close(u.gradients(tr.elements[:, None], tr.lam),
                   gradients_oracle(u, *flat).reshape(ne, ng, 2))


def test_extrema_and_norms_match_loop_oracles(meshes, fields):
    rect = meshes[3]
    dofmap = build_dofmap(rect, 2)
    # 0 at the vertices, -1 at the midpoints: -u peaks at the centroids (4/3)
    bubble = FemField(rect, np.where(np.arange(dofmap.n_dofs) < rect.n_vertices,
                                     0.0, -1.0), dofmap)
    assert max_depth(bubble) == pytest.approx(4 / 3, rel=1e-14)
    # |grad u| peaks at a corner that is local vertex 1, 2 and 0 of its elements
    peaked = [interpolate(rect, 2, lambda x, y, s=s: np.exp(3 * (s[0] * x + s[1] * y)))
              for s in ((1, -1), (-1, 1), (-1, -1))]
    for u in fields + peaked + [bubble]:
        _close(max_gradient(u), _max_gradient_oracle(u))
        _close(max_depth(u), _max_depth_oracle(u))


def test_distance_bounds_match_loop_oracle(fields):
    for u in fields:
        if u.mesh.spec is None:
            continue
        rep = u_distance_bounds(u, u.mesh.spec, 0.4)
        _close(np.array([rep.margin_boundary_sq, rep.margin_gamma0_sq,
                         rep.margin_gamma0_linear]),
               np.array(_distance_bounds_oracle(u, u.mesh.spec, 0.4)))


def test_quadrature_points_and_edge_barycentrics_match_oracles(meshes):
    for mesh in meshes:
        p0, p1, p2 = corners(mesh)
        xy = np.stack([lam[0] * p0 + lam[1] * p1 + lam[2] * p2 for lam in TRI_POINTS])
        assert np.array_equal(mesh.quadrature_points(), xy)
        for tag in (GAMMA0, GAMMA1):
            tr = edge_trace(mesh, tag, 3)
            _close(tr.lam, _edge_lam_oracle(mesh, tr.elements, tr.points))


def test_mesh_edges_tags_and_refinement_match_oracles(meshes):
    specless = replace(meshes[1], spec=None)     # tags inherited on refinement
    for mesh in meshes + [specless]:
        # the copy recomputes its edge table from the triangles
        assert np.array_equal(mesh.edge_table().boundary_edges,
                              _boundary_edges_oracle(mesh.triangles))
        assert np.array_equal(mesh.boundary_edges, mesh.edge_table().boundary_edges)
        if mesh.spec is not None:
            assert np.array_equal(_tag_edges(mesh.spec, mesh.vertices, mesh.boundary_edges),
                                  _tag_edges_oracle(mesh.spec, mesh.vertices,
                                                    mesh.boundary_edges))
        child = refine(mesh)
        V, T, tags = _refine_oracle(mesh)
        _close(child.vertices, V)
        assert np.array_equal(child.triangles, T)
        assert np.array_equal(child.boundary_edges, _boundary_edges_oracle(T))
        if tags is not None:
            assert np.array_equal(child.boundary_tags, tags)
    assert set(specless.boundary_tags.tolist()) == {GAMMA0, GAMMA1}


def test_bary_gradients_cached_read_only(meshes):
    G, areas = meshes[0].bary_gradients()
    assert meshes[0].bary_gradients()[0] is G
    assert not G.flags.writeable and not areas.flags.writeable
    V, T = meshes[0].vertices, meshes[0].triangles
    e01, e02 = V[T[:, 1]] - V[T[:, 0]], V[T[:, 2]] - V[T[:, 0]]
    np.testing.assert_array_equal(
        areas, 0.5 * (e01[:, 0] * e02[:, 1] - e01[:, 1] * e02[:, 0]))
    assert interpolate(meshes[0], 2, FN)._G is G


@pytest.fixture(scope="module")
def solves(meshes):
    """P2 torsion solves on the disk, the quarter cone and the refined one."""
    return [solve(assemble(mesh, 2)) for mesh in meshes[:3]]


def test_flux_report_and_identity_match_earlier_flux_paths(solves):
    # u = xy has the flux sin 2t on a quarter arc: its minimum is in the collar
    saddles = [interpolate(u.mesh, 2, lambda x, y: x * y) for u in solves]
    nan_rows = collar_minima = 0
    for u in solves + saddles:
        for n_gauss in (2, 3):
            bf = normal_derivative(u, n_gauss)
            _, values, weights, _, collar = _normal_derivative_oracle(u, n_gauss)
            assert bf.values.shape[1] == n_gauss
            assert np.array_equal(bf.values.ravel(), values)
            assert np.array_equal(bf.weights.ravel(), weights)
            assert np.array_equal(np.repeat(bf.collar, n_gauss), collar)
            assert bf.min_value() == _min_value_oracle(values, collar)
            collar_minima += bf.min_value() > float(np.min(values))
        z = compute_center(u, normal_span(boundary_partition(u.mesh.spec)))
        for center in (z, alternative_center(u)):
            rep = deficits(u, center)
            flux = normal_derivative(u, 3)
            assert (rep.R, rep.m, float(np.min(flux.values)),
                    int(np.count_nonzero(flux.collar))) == _deficits_flux_oracle(u)
            columns = (rep.identity_lhs, rep.identity_rhs, rep.gamma1_term,
                       rep.identity_residual)
            if _center_violated_oracle(u.mesh, center.z):
                assert all(math.isnan(c) for c in columns)
                with pytest.raises(CenterError):
                    identity_residual(u, center)
                nan_rows += 1
            else:
                exact_trace = identity_residual(u, center).lhs_exact_trace
                assert columns + (exact_trace,) == _identity_oracle(
                    u, center.z, R=rep.R)
        assert astuple(identity_residual(u, z)) == _identity_oracle(u, z.z)
    assert nan_rows == 2        # the free centers of both quarter-cone solves
    assert collar_minima == 4   # the saddle on both quarter cones, 2 and 3 points
