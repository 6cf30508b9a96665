import math
from dataclasses import replace

import numpy as np
import pytest

from conetorsion import (GAMMA0, GAMMA1, MeshError, boundary_partition,
                         rectangle_mesh, refine, triangulate, write_mesh)
from conetorsion import mesher
from conetorsion.mesher import edge_key
from conetorsion.fem import bary_gradients, build_dofmap
from conetorsion.geometry import polyline_distance
from conetorsion.quantities import edge_trace
from tests.oracles import domain_area, gamma0_length


def edge_count(mesh):
    t = mesh.triangles
    pairs = np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])
    return len(np.unique(np.sort(pairs, axis=1), axis=0))


def test_quarter_disk_structure(quarter_spec):
    mesh = triangulate(quarter_spec, 0.1)
    assert 50 <= mesh.n_triangles <= 400
    tags = set(mesh.boundary_tags.tolist())
    assert tags == {GAMMA0, GAMMA1}
    assert mesh.h_max <= 1.5 * 0.1
    assert mesh.min_angle >= 20.0
    assert np.all(bary_gradients(mesh)[1] > 0)


def test_full_disk_has_only_gamma0(disk_spec):
    mesh = triangulate(disk_spec, 0.1)
    assert set(mesh.boundary_tags.tolist()) == {GAMMA0}


def test_perturbed_meshes_keep_angle_floor(pert_disk_spec, pert_quarter_spec,
                                           shifted_half_spec):
    for spec in (pert_disk_spec, pert_quarter_spec, shifted_half_spec):
        assert triangulate(spec, 0.1).min_angle >= 20.0


def test_boundary_vertices_on_analytic_curve(pert_disk_spec):
    mesh = triangulate(pert_disk_spec, 0.1)
    for (a, b), tag in zip(mesh.boundary_edges, mesh.boundary_tags):
        if tag != GAMMA0:
            continue
        for vid in (a, b):
            x = mesh.vertices[vid]
            t = pert_disk_spec.clamp_angle(math.atan2(x[1], x[0]))
            assert abs(np.hypot(*x) - float(pert_disk_spec.radius_fn(t))) <= 1e-12


def test_triangle_count_scaling(quarter_spec):
    n1 = triangulate(quarter_spec, 0.1).n_triangles
    n2 = triangulate(quarter_spec, 0.05).n_triangles
    assert 4 * 0.7 <= n2 / n1 <= 4 * 1.3


def test_euler_relation(quarter_spec, pert_disk_spec):
    for spec in (quarter_spec, pert_disk_spec):
        mesh = triangulate(spec, 0.1)
        euler = mesh.n_vertices - edge_count(mesh) + mesh.n_triangles
        assert euler == 1


def test_boundary_edges_single_owner(quarter_spec):
    mesh = triangulate(quarter_spec, 0.15)
    t = mesh.triangles
    pairs = np.sort(np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]]),
                    axis=1)
    uniq, counts = np.unique(pairs, axis=0, return_counts=True)
    assert set(counts.tolist()) == {1, 2}
    boundary = set(map(tuple, np.sort(mesh.boundary_edges, axis=1).tolist()))
    singles = set(map(tuple, uniq[counts == 1].tolist()))
    assert boundary == singles


def test_rejects_h_target_beyond_diameter(quarter_spec):
    # and every target that is not positive, NaN included
    for h_target in (10.0, 0.0, -1.0, float("nan")):
        with pytest.raises(MeshError):
            triangulate(quarter_spec, h_target)


def _spy_attempts(monkeypatch, invert_first=False):
    """Ring counts tried and triangle counts finalized by ``triangulate``."""
    rings, finalized = [], []
    ring_mesh, finalize = mesher._ring_mesh, mesher._finalize

    def spy_ring_mesh(spec, n):
        V, T = ring_mesh(spec, n)
        rings.append(n)
        return (V, T[:, [0, 2, 1]]) if invert_first and len(rings) == 1 else (V, T)

    def spy_finalize(spec, V, T):
        finalized.append(len(T))
        return finalize(spec, V, T)

    monkeypatch.setattr(mesher, "_ring_mesh", spy_ring_mesh)
    monkeypatch.setattr(mesher, "_finalize", spy_finalize)
    return rings, finalized


def test_triangulate_finalizes_only_the_accepted_ring_mesh(disk_spec, monkeypatch):
    ring_mesh, finalize = mesher._ring_mesh, mesher._finalize
    rings, finalized = _spy_attempts(monkeypatch)
    mesh = triangulate(disk_spec, 0.025)
    # the first ring count, ceil(r_max / h), misses h_max <= 1.5 h
    assert rings == [40, 50]
    assert finalized == [mesh.n_triangles]
    want = finalize(disk_spec, *ring_mesh(disk_spec, 50))
    for name in ("vertices", "triangles", "boundary_edges", "boundary_tags"):
        assert np.array_equal(getattr(mesh, name), getattr(want, name))


def test_triangulate_checks_orientation_on_a_rejected_ring_mesh(disk_spec,
                                                                monkeypatch):
    rings, _ = _spy_attempts(monkeypatch, invert_first=True)
    with pytest.raises(MeshError, match="inverted"):
        triangulate(disk_spec, 0.025)
    assert rings == [40]


def _folding_spec(a):
    """r = 1 + a cos 8t on the full plane: at h = 0.05 the straight-sided ring
    triangles fold over for a >= 0.4."""
    from conetorsion import FourierRadius, make_sector_domain
    return make_sector_domain(2 * math.pi, FourierRadius(1.0, [(8, a)]), 512)


@pytest.mark.parametrize("a", [0.4, 0.5, 0.6])
def test_folding_ring_meshes_are_rejected(a):
    with pytest.raises(MeshError, match="inverted"):
        triangulate(_folding_spec(a), 0.05)


def _benchmark_specs():
    """(spec, h) of the sweep-disk3 members and the quarter4 workloads."""
    from conetorsion import (ConstantRadius, FourierRadius, make_family,
                             make_sector_domain)
    disk = make_sector_domain(2 * math.pi, ConstantRadius(1.0), 512)
    quarter4 = make_sector_domain(math.pi / 2, FourierRadius(1.0, [(4, 0.05)]), 256)
    members = make_family(disk, 3, (0.02, 0.04, 0.08)).members
    return [(spec, 0.025) for _, spec in members] + [(quarter4, 0.035),
                                                     (quarter4, 0.025)]


def test_meshes_tile_their_boundary_polygon(quarter_spec, disk_spec, half_spec,
                                            pert_disk_spec, pert_quarter_spec,
                                            shifted_half_spec):
    """The triangle areas sum to the shoelace area of the boundary edges: no
    triangle overlaps another or folds outside the domain."""
    cases = [(spec, h) for spec in (quarter_spec, disk_spec, half_spec, pert_disk_spec,
                                    pert_quarter_spec, shifted_half_spec)
             for h in (0.1, 0.05)]
    cases += _benchmark_specs() + [(_sector(math.pi / 2, 5, 0.08), 0.05),
                                   (_folding_spec(0.3), 0.05)]
    for spec, h in cases:
        mesh = triangulate(spec, h)
        V = mesh.vertices
        P = V[mesh.triangles]
        d1, d2 = P[:, 1] - P[:, 0], P[:, 2] - P[:, 0]
        areas = 0.5 * np.abs(d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
        a, b = V[mesh.boundary_edges[:, 0]], V[mesh.boundary_edges[:, 1]]
        polygon = 0.5 * np.sum(a[:, 0] * b[:, 1] - b[:, 0] * a[:, 1])
        assert math.fsum(areas) == pytest.approx(polygon, rel=1e-12, abs=0)


def _h_max_oracle(mesh):
    V, T = mesh.vertices, mesh.triangles
    edges = (V[T[:, 1]] - V[T[:, 0]], V[T[:, 2]] - V[T[:, 1]], V[T[:, 0]] - V[T[:, 2]])
    return float(max(np.linalg.norm(e, axis=1).max() for e in edges))


def _min_angle_oracle(mesh):
    """The angle at each corner from its own two gathered edge vectors."""
    v, t = mesh.vertices, mesh.triangles
    best = 180.0
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        u = v[t[:, j]] - v[t[:, i]]
        w = v[t[:, k]] - v[t[:, i]]
        c = np.einsum("ij,ij->i", u, w) / (
            np.linalg.norm(u, axis=1) * np.linalg.norm(w, axis=1))
        best = min(best, float(np.degrees(np.arccos(np.clip(c, -1, 1))).min()))
    return best


def test_h_max_and_min_angle_are_the_per_corner_formulas_from_one_pass(monkeypatch):
    specs = _benchmark_specs()
    quarter4 = triangulate(*specs[-1])
    meshes = [quarter4, refine(quarter4), refine(refine(quarter4)),
              triangulate(*specs[2]), triangulate(_sector(math.pi / 2, 5, 0.08), 0.05)]
    calls = []
    edges = mesher._edges

    def spy(V, T):
        calls.append(len(T))
        return edges(V, T)

    monkeypatch.setattr(mesher, "_edges", spy)
    for mesh in meshes:
        # _finalize seeds both values; a copy computes them again, once
        assert "shape" in mesh._cache
        for m in (mesh, replace(mesh)):
            assert m.h_max == _h_max_oracle(m)
            assert m.min_angle == _min_angle_oracle(m)
            assert m.h_max == _h_max_oracle(m)
        assert calls == [mesh.n_triangles]
        calls.clear()


# ---------------------------------------------------------------------------
# refinement
# ---------------------------------------------------------------------------

def test_refine_quadruples_and_halves_h(quarter_spec):
    mesh = triangulate(quarter_spec, 0.1)
    child = refine(mesh)
    assert child.n_triangles == 4 * mesh.n_triangles
    assert abs(child.h_max / mesh.h_max - 0.5) <= 0.1 * 0.5
    assert child.min_angle >= mesh.min_angle - 5.0


def test_refine_projects_new_boundary_vertices(pert_quarter_spec):
    mesh = triangulate(pert_quarter_spec, 0.1)
    child = refine(mesh)
    fn = pert_quarter_spec.radius_fn
    for (a, b), tag in zip(child.boundary_edges, child.boundary_tags):
        if tag != GAMMA0:
            continue
        for vid in (a, b):
            x = child.vertices[vid]
            t = pert_quarter_spec.clamp_angle(math.atan2(x[1], x[0]))
            assert abs(np.hypot(*x) - float(fn(t))) <= 1e-12


def test_refine_inherits_tag_counts(quarter_spec):
    mesh = triangulate(quarter_spec, 0.1)
    child = refine(mesh)
    for tag in (GAMMA0, GAMMA1):
        assert np.sum(child.boundary_tags == tag) == 2 * np.sum(
            mesh.boundary_tags == tag)


def test_refine_without_spec_keeps_tags():
    mesh = rectangle_mesh(4, 4)
    child = refine(mesh)
    assert child.n_triangles == 4 * mesh.n_triangles
    assert set(child.boundary_tags.tolist()) == {GAMMA0}


def test_edge_table_is_seeded_read_only_and_recomputed_on_a_copy(
        pert_quarter_spec):
    mesh = triangulate(pert_quarter_spec, 0.1)
    table = mesh._cache["edges"]
    assert mesh.edge_table() is table
    assert not any(a.flags.writeable for a in vars(table).values())
    nv, T = mesh.n_vertices, mesh.triangles
    # edge ids name the triangle edges; a boundary edge is one of its owner's
    assert np.array_equal(table.keys[table.elem_edges.T.ravel()],
                          edge_key(mesher.triangle_edges(T), nv))
    assert table.boundary_edges is mesh.boundary_edges
    assert np.array_equal(table.keys[table.boundary],
                          edge_key(mesh.boundary_edges, nv))
    assert np.all((T[table.owners][:, :, None]
                   == mesh.boundary_edges[:, None, :]).any(axis=1))
    copy = replace(mesh, spec=None)
    assert "edges" not in copy._cache
    for name, a in vars(copy.edge_table()).items():
        assert np.array_equal(a, getattr(table, name)), name


@pytest.mark.parametrize("with_spec", [True, False])
def test_refine_records_the_parent_edges(pert_quarter_spec, with_spec):
    # both branches of refine: a spec mesh, and a re-tagged copy without one
    mesh = (triangulate(pert_quarter_spec, 0.1) if with_spec
            else rectangle_mesh(4, 3))
    child = refine(mesh)
    nv, keys = child._cache["parent"]
    assert nv == mesh.n_vertices
    # one edge table: the parent record and the P2 dof map hold its keys
    assert keys is mesh.edge_table().keys is build_dofmap(mesh, 2).edge_keys
    assert not any(isinstance(v, mesher.TaggedMesh) for v in child._cache.values())
    # child vertex nv + i is the midpoint of edge i, or its projection on GAMMA0
    V = mesh.vertices
    moved = np.any(child.vertices[nv:] != 0.5 * (V[keys // nv] + V[keys % nv]), axis=1)
    on_gamma0 = np.isin(keys, edge_key(mesh.gamma0_edges(), nv))
    assert not np.any(moved & ~on_gamma0)
    assert np.any(moved) == with_spec


# ---------------------------------------------------------------------------
# quadrature distance fields
# ---------------------------------------------------------------------------

def _segment_counts(monkeypatch):
    """Segment count of every distance pass the mesh makes from now on."""
    counts = []
    kernel = mesher.polyline_distance

    def counting(points, seg_a, seg_b):
        counts.append(len(seg_a))
        return kernel(points, seg_a, seg_b)

    monkeypatch.setattr(mesher, "polyline_distance", counting)
    return counts


def _one_pass(mesh, seg_a, seg_b):
    xy = mesh.quadrature_points().reshape(-1, 2)
    return polyline_distance(xy, seg_a, seg_b).reshape(7, -1)


@pytest.mark.parametrize("gamma0_first", [False, True])
@pytest.mark.parametrize("refined", [False, True])
def test_cone_distances_reuse_the_gamma0_field(pert_quarter_spec, monkeypatch,
                                               refined, gamma0_first):
    mesh = triangulate(pert_quarter_spec, 0.1)
    if refined:
        mesh = refine(mesh)
    part = boundary_partition(pert_quarter_spec)
    a, b, _ = part.all_segments()
    a0, b0 = part.gamma0
    counts = _segment_counts(monkeypatch)
    requests = [(a0, b0), (a, b)] if gamma0_first else [(a, b), (a0, b0)]
    got = [mesh.quadrature_distances(*seg) for seg in requests]
    for dist, seg in zip(got, requests):
        assert np.array_equal(dist, _one_pass(mesh, *seg))
    # one pass over GAMMA0 and one over the two legs, in either order
    assert counts == [len(a0), 2]


def test_distances_without_a_gamma0_prefix_take_one_pass(
        pert_quarter_spec, pert_disk_spec, monkeypatch):
    disk = triangulate(pert_disk_spec, 0.2)
    quarter = triangulate(pert_quarter_spec, 0.1)
    a, b, _ = boundary_partition(pert_quarter_spec).all_segments()
    nudged = a.copy()
    nudged[3, 0] = np.nextafter(nudged[3, 0], np.inf)    # one ULP off GAMMA0
    cases = [(disk, boundary_partition(pert_disk_spec).all_segments()[:2]),
             (replace(quarter, spec=None), (a, b)),
             (quarter, (nudged, b))]
    counts = _segment_counts(monkeypatch)
    for mesh, (seg_a, seg_b) in cases:
        counts.clear()
        dist = mesh.quadrature_distances(seg_a, seg_b)
        assert counts == [len(seg_a)]
        assert np.array_equal(dist, _one_pass(mesh, seg_a, seg_b))


# ---------------------------------------------------------------------------
# measured convergence of geometric functionals
# ---------------------------------------------------------------------------

def test_area_and_length_converge_second_order(pert_disk_spec):
    area_exact = domain_area(pert_disk_spec)
    len_exact = gamma0_length(pert_disk_spec)
    area_err, len_err, hs = [], [], []
    mesh = triangulate(pert_disk_spec, 0.2)
    for _ in range(3):
        hs.append(mesh.h_max)
        area_err.append(abs(np.sum(bary_gradients(mesh)[1]) - area_exact))
        len_err.append(abs(edge_trace(mesh, GAMMA0).total_length - len_exact))
        mesh = refine(mesh)
    for errs in (area_err, len_err):
        slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert slope >= 1.8


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def test_mesh_export_roundtrip(tmp_path, quarter_spec):
    mesh = triangulate(quarter_spec, 0.2)
    path = tmp_path / "mesh.txt"
    write_mesh(mesh, path)
    lines = path.read_text().splitlines()
    start = 0
    for name, table in (("VERTICES", mesh.vertices), ("TRIANGLES", mesh.triangles),
                        ("BOUNDARY_EDGES", mesh.boundary_edges)):
        assert lines[start] == f"{name} {len(table)}"
        rows = np.array([ln.split() for ln in lines[start + 1:start + 1 + len(table)]])
        assert np.array_equal(rows[:, :table.shape[1]].astype(table.dtype), table)
        start += 1 + len(table)
    assert start == len(lines)
    tags = [mesher.TAG_NAMES[t] for t in mesh.boundary_tags.tolist()]
    assert rows[:, 2].tolist() == tags and set(tags) == {"GAMMA0", "GAMMA1"}


def test_rectangle_mesh_structure():
    unit = rectangle_mesh(3, 5)
    mesh = replace(unit, vertices=unit.vertices * [2.0, 1.0])   # [0, 2] x [0, 1]
    assert mesh.n_vertices == 4 * 6
    assert mesh.n_triangles == 2 * 3 * 5
    assert np.sum(bary_gradients(mesh)[1]) == pytest.approx(2.0, rel=1e-12)
    square = rectangle_mesh(4, 4)
    assert square.min_angle >= 44.9


def _ring_mesh_oracle(spec, n):
    """The earlier triangle-by-triangle ring construction, kept as the oracle."""
    beta = spec.beta
    full = spec.is_full_plane
    q = max(1, int(round(beta / (math.pi / 3))))
    verts = [(0.0, 0.0)]
    rings = [[0]]
    for j in range(1, n + 1):
        m = j * q
        npts = m if full else m + 1
        ts = np.arange(npts) * (beta / m)
        rho = j / n
        r = rho * np.asarray(spec.radius_fn(ts), dtype=float)
        start = len(verts)
        verts.extend(zip(r * np.cos(ts), r * np.sin(ts)))
        rings.append(list(range(start, start + npts)))
    tris = []
    ring1 = rings[1]
    for i in range(q):
        b = ring1[(i + 1) % len(ring1)] if full else ring1[i + 1]
        tris.append((0, ring1[i], b))
    for j in range(1, n):
        inner, outer = rings[j], rings[j + 1]

        def at(ring, i):
            return ring[i % len(ring)] if full else ring[i]

        for w in range(q):
            i0, o0 = w * j, w * (j + 1)
            ic = oc = 0
            while ic < j or oc < j + 1:
                ti = (ic + 1) / j if j > 0 else 1.0
                to = (oc + 1) / (j + 1)
                if oc < j + 1 and (ic >= j or to <= ti):
                    tris.append((at(inner, i0 + ic), at(outer, o0 + oc),
                                 at(outer, o0 + oc + 1)))
                    oc += 1
                else:
                    tris.append((at(inner, i0 + ic), at(outer, o0 + oc),
                                 at(inner, i0 + ic + 1)))
                    ic += 1
    return np.asarray(verts, dtype=float), np.asarray(tris, dtype=np.int64)


def test_ring_mesh_matches_the_loop_oracle(disk_spec, pert_quarter_spec):
    from conetorsion import ConstantRadius, make_sector_domain
    from conetorsion.mesher import _ring_mesh
    thin = make_sector_domain(0.1, ConstantRadius(1.0), 64)
    for spec in (disk_spec, pert_quarter_spec, thin):
        for n in range(2, 61):
            V, T = _ring_mesh(spec, n)
            V0, T0 = _ring_mesh_oracle(spec, n)
            assert V.dtype == V0.dtype and T.dtype == T0.dtype
            assert np.array_equal(V, V0) and np.array_equal(T, T0)


# ---------------------------------------------------------------------------
# grading toward obtuse GAMMA0/GAMMA1 corners
# ---------------------------------------------------------------------------

def _sector(beta, mode, eps):
    from conetorsion import FourierRadius, make_sector_domain
    return make_sector_domain(beta, FourierRadius(1.0, [(mode, eps)]), 256)


def test_obtuse_corners_found_only_where_the_angle_exceeds_a_right_angle(
        quarter_spec, pert_quarter_spec, disk_spec):
    from conetorsion.mesher import _obtuse_corners
    # r = 1 + eps cos 5t meets the leg t = pi/2 at 90 + atan(5 eps) degrees
    np.testing.assert_allclose(_obtuse_corners(_sector(math.pi / 2, 5, 0.08)),
                               [[0.0, 1.0]], atol=1e-15)
    # mode 3 makes that corner acute; mode 4 and the quarter disk keep it right
    for spec in (_sector(math.pi / 2, 3, 0.08), pert_quarter_spec, quarter_spec,
                 disk_spec):
        assert _obtuse_corners(spec).shape == (0, 2)


def test_right_and_acute_corners_keep_the_ring_mesh(pert_quarter_spec):
    from conetorsion.mesher import _ring_mesh
    for spec in (pert_quarter_spec, _sector(math.pi / 2, 3, 0.08)):
        mesh = triangulate(spec, 0.12)
        n = math.isqrt(mesh.n_triangles // 2)     # q = 2 wedges, q n^2 triangles
        V, T = _ring_mesh(spec, n)
        assert np.array_equal(mesh.vertices, V)
        assert np.array_equal(mesh.triangles, T)


def test_obtuse_corner_mesh_is_graded_and_conforming():
    from conetorsion.mesher import (CORNER_FLOOR, CORNER_GRADE, _finalize,
                                    _ring_mesh, _obtuse_corners)
    spec = _sector(math.pi / 2, 5, 0.08)
    h = 0.12
    mesh = triangulate(spec, h)
    P = mesh.vertices[mesh.triangles]
    size = np.linalg.norm(P[:, [1, 2, 0]] - P, axis=2).max(axis=1)
    dist = np.linalg.norm(P.mean(axis=1) - _obtuse_corners(spec)[0], axis=1)
    assert np.all(size <= np.maximum(CORNER_GRADE * dist, CORNER_FLOOR * h))
    assert size.min() <= CORNER_FLOOR * h
    assert mesh.h_max <= 1.5 * h
    assert mesh.min_angle >= 20.0
    assert np.all(bary_gradients(mesh)[1] > 0)
    assert mesh.n_vertices - edge_count(mesh) + mesh.n_triangles == 1
    # conforming: the boundary is exactly the two legs and the graph
    legs = float(spec.radius_fn(0.0)) + float(spec.radius_fn(math.pi / 2))
    assert edge_trace(mesh, GAMMA1).total_length == pytest.approx(legs, abs=1e-12)
    # bisection keeps the ring mesh's vertices and only adds more: the chord
    # sum along the graph grows toward its length
    ring = _finalize(spec, *_ring_mesh(spec, math.ceil(1.08 / h)))
    assert ring.h_max <= 1.5 * h
    assert np.array_equal(mesh.vertices[:ring.n_vertices], ring.vertices)
    chords = edge_trace(mesh, GAMMA0).total_length
    assert edge_trace(ring, GAMMA0).total_length < chords
    assert chords < gamma0_length(spec)
    for a, b in mesh.gamma0_edges():
        for vid in (a, b):
            x = mesh.vertices[vid]
            t = spec.clamp_angle(math.atan2(x[1], x[0]))
            assert abs(np.hypot(*x) - float(spec.radius_fn(t))) <= 1e-12


def test_obtuse_corner_grading_bounds_the_gamma1_term():
    # at h = 0.12 the ring mesh alone gives gamma1_term = -0.020 here; the
    # exact term vanishes on the straight legs
    from conetorsion import (assemble, boundary_partition, compute_center,
                             deficits, normal_span, solve)
    spec = _sector(math.pi / 2, 5, 0.08)
    u = solve(assemble(triangulate(spec, 0.12), 2))
    rep = deficits(u, compute_center(u, normal_span(boundary_partition(spec))))
    assert abs(rep.gamma1_term) <= 5e-3
