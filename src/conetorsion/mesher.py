"""Conforming boundary-tagged triangulations of sector domains.

Meshes are built deterministically from polar rings: ring j carries j*q
angular intervals (q wedges meet at the cone vertex), consecutive rings are
joined by zigzag strips, and every node is mapped by
(rho, t) -> rho * r(t) * (cos t, sin t).  Boundary vertices therefore lie on
the analytic boundary exactly; uniform refinement re-projects new GAMMA0
vertices onto the graph.  Where GAMMA0 meets a leg at an obtuse angle, the
ring mesh is then graded toward that corner by longest-edge bisection.
Ring triangles that fold over come out inverted and raise ``MeshError``;
nothing repairs them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .geometry import (DomainSpec, boundary_partition, domain_diameter,
                       polyline_distance)
from .quadrature import TRI_POINTS

GAMMA0 = 0
GAMMA1 = 1
TAG_NAMES = {GAMMA0: "GAMMA0", GAMMA1: "GAMMA1"}


class MeshError(RuntimeError):
    """Mesh generation failed (degenerate spec or unattainable target)."""


def _edges(V: np.ndarray, T: np.ndarray):
    """Edge vectors (01, 12, 20) per triangle, (nt, 3, 2), and their lengths."""
    P = V[T]
    e = P[:, [1, 2, 0]] - P
    return e, np.linalg.norm(e, axis=2)


def _check_orientation(e: np.ndarray) -> None:
    # twice the signed area, e01 x e02 with e02 = -e20
    if not np.all(e[:, 0, 1] * e[:, 2, 0] - e[:, 0, 0] * e[:, 2, 1] > 0):
        raise MeshError("degenerate (inverted) triangles produced")


def _size_and_angle(e: np.ndarray, length: np.ndarray) -> tuple[float, float]:
    """(h_max, smallest interior angle in degrees) from ``_edges``."""
    # the corner at vertex i lies between e_i and -e_(i-1)
    prev = [2, 0, 1]
    c = -np.einsum("tij,tij->ti", e, e[:, prev]) / (length * length[:, prev])
    return (float(length.max()),
            float(np.degrees(np.arccos(np.clip(c, -1, 1))).min()))


@dataclass(frozen=True)
class TaggedMesh:
    """Triangulation with oriented, tagged boundary edges.

    Triangles are positively oriented; boundary edges are directed so the
    interior lies on their left (outward normal = rotate(-90) of the edge).
    ``spec`` carries the analytic boundary for re-projection, when known.
    Results derived from the mesh alone (its edge table, ``h_max`` and
    ``min_angle``, refinement, distance fields) are kept in ``_cache``;
    ``dataclasses.replace`` starts the copy with an empty one, so a rotated
    or re-tagged mesh never sees the original's results.  ``boundary_edges``
    rows are in the order of ``edge_table().boundary``.
    """

    vertices: np.ndarray        # (nv, 2)
    triangles: np.ndarray       # (nt, 3) int
    boundary_edges: np.ndarray  # (nb, 2) int, directed
    boundary_tags: np.ndarray   # (nb,) int
    spec: DomainSpec | None = None
    _cache: dict = field(default_factory=dict, init=False, compare=False,
                         repr=False)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    @property
    def h_max(self) -> float:
        return self._shape()[0]

    @property
    def min_angle(self) -> float:
        """Smallest interior angle over all triangles, degrees."""
        return self._shape()[1]

    def _shape(self) -> tuple[float, float]:
        if "shape" not in self._cache:
            self._cache["shape"] = _size_and_angle(*_edges(self.vertices, self.triangles))
        return self._cache["shape"]

    def edge_table(self) -> EdgeTable:
        """The mesh's ``EdgeTable``, computed once and cached."""
        table = self._cache.get("edges")
        if table is None:
            table = self._cache["edges"] = _edge_table(self.triangles, self.n_vertices)
        return table

    def gamma0_edges(self) -> np.ndarray:
        return self.boundary_edges[self.boundary_tags == GAMMA0]

    def quadrature_points(self) -> np.ndarray:
        """(7, nt, 2) physical points of TRI_POINTS in every triangle."""
        V, T = self.vertices, self.triangles
        lam = TRI_POINTS[:, None, None, :]
        return (lam[..., 0] * V[T[:, 0]] + lam[..., 1] * V[T[:, 1]]
                + lam[..., 2] * V[T[:, 2]])

    def quadrature_distances(self, seg_a, seg_b) -> np.ndarray:
        """(7, nt) distances from the TRI_POINTS quadrature points to the segments.

        Row q holds the distances at ``TRI_POINTS[q]`` of every triangle.  The
        field is computed once per segment set and returned read-only.

        When the mesh has a ``spec`` and the segments are its GAMMA0 polyline
        followed by others (``BoundaryPartition.all_segments`` on a cone), the
        field is the minimum of the GAMMA0 field, itself served through this
        cache, and the field of the other segments.  That is bit-identical to
        one pass over all segments: each point-segment pair is evaluated by
        the same arithmetic, and sqrt is monotone and correctly rounded.
        """
        seg_a = np.ascontiguousarray(seg_a, dtype=float)
        seg_b = np.ascontiguousarray(seg_b, dtype=float)
        key = ("distance", seg_a.tobytes(), seg_b.tobytes())
        dist = self._cache.get(key)
        if dist is None:
            n0 = self._gamma0_prefix(seg_a, seg_b)
            if n0:
                dist = np.minimum(
                    self.quadrature_distances(seg_a[:n0], seg_b[:n0]),
                    self._distances(seg_a[n0:], seg_b[n0:]))
            else:
                dist = self._distances(seg_a, seg_b)
            dist.flags.writeable = False
            self._cache[key] = dist
        return dist

    def _distances(self, seg_a, seg_b) -> np.ndarray:
        xy = self.quadrature_points().reshape(-1, 2)
        return polyline_distance(xy, seg_a, seg_b).reshape(len(TRI_POINTS), -1)

    def _gamma0_prefix(self, seg_a, seg_b) -> int:
        """Segment count of the spec's GAMMA0 polyline when the segments start
        with it, bit for bit, and go on past it; 0 otherwise."""
        if self.spec is None:
            return 0
        a0, b0 = boundary_partition(self.spec).gamma0
        n0 = len(a0)
        if (len(seg_a) > n0 and seg_a[:n0].tobytes() == a0.tobytes()
                and seg_b[:n0].tobytes() == b0.tobytes()):
            return n0
        return 0


def _ring_mesh(spec: DomainSpec, n: int):
    """Vertices/triangles of the polar ring construction with n rings."""
    beta = spec.beta
    full = spec.is_full_plane
    q = max(1, int(round(beta / (math.pi / 3))))
    xy = [np.zeros((1, 2))]
    starts = [0]                          # first vertex of each ring (0: the apex)
    for j in range(1, n + 1):
        m = j * q
        npts = m if full else m + 1
        ts = np.arange(npts) * (beta / m)
        rho = j / n
        r = rho * np.asarray(spec.radius_fn(ts), dtype=float)
        starts.append(starts[-1] + len(xy[-1]))
        xy.append(np.column_stack([r * np.cos(ts), r * np.sin(ts)]))
    V = np.concatenate(xy)

    def at(j, i):                         # vertex i of ring j (wrapping when full)
        return starts[j] + (i % (j * q) if full else i)

    wedge = np.arange(q)
    tris = [np.column_stack([np.zeros(q, dtype=np.int64), at(1, wedge),
                             at(1, wedge + 1)])]
    w = wedge[:, None]
    for j in range(1, n):
        # Each wedge of the strip between rings j and j+1 takes j inner and
        # j+1 outer steps; outer step oc goes before inner step ic iff
        # (oc+1)*j <= (ic+1)*(j+1), i.e. (oc+1)/(j+1) <= (ic+1)/j.
        key = np.concatenate([np.arange(1, j + 2) * j, np.arange(1, j + 1) * (j + 1)])
        outer = np.argsort(key, kind="stable") <= j
        oc = np.cumsum(outer) - outer
        ic = np.cumsum(~outer) - ~outer
        inner_i, outer_i = w * j + ic, w * (j + 1) + oc
        third = np.where(outer, at(j + 1, outer_i + 1), at(j, inner_i + 1))
        tris.append(np.stack([at(j, inner_i), at(j + 1, outer_i), third],
                             axis=-1).reshape(-1, 3))
    return V, np.concatenate(tris)


def triangle_edges(triangles: np.ndarray) -> np.ndarray:
    """(3 nt, 2) edges of every triangle: all (0, 1), then all (1, 2), then all (2, 0)."""
    t = triangles
    return np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])


def edge_key(edges: np.ndarray, n_vertices: int) -> np.ndarray:
    """int64 key a * nv + b of each undirected edge (a < b); sorts like (a, b)."""
    e = np.sort(np.asarray(edges, dtype=np.int64), axis=1)
    return e[:, 0] * n_vertices + e[:, 1]


@dataclass(frozen=True)
class EdgeTable:
    """The edges of one triangulation, numbered once (arrays read-only).

    Edge i has the i-th smallest ``edge_key``.  The P2 midpoint dof nv + i and
    ``refine``'s new vertex nv + i belong to it.  Boundary edges, those of one
    triangle, come in key order: row j of ``boundary_edges`` is edge
    ``boundary[j]``, directed as in ``owners[j]``.
    """

    keys: np.ndarray            # (ne,) sorted edge keys
    elem_edges: np.ndarray      # (nt, 3) int32 ids of the edges (01, 12, 20) per triangle
    boundary: np.ndarray        # (nb,) ids of the boundary edges, ascending
    owners: np.ndarray          # (nb,) triangle of each boundary edge
    boundary_edges: np.ndarray  # (nb, 2) boundary edges in triangle orientation


def _edge_table(T: np.ndarray, nv: int) -> EdgeTable:
    edges = triangle_edges(T)
    keys, first, inverse, counts = np.unique(
        edge_key(edges, nv), return_index=True, return_inverse=True,
        return_counts=True)
    boundary = np.flatnonzero(counts == 1)
    first = first[boundary]
    # int32 edge ids (scipy's sparse index type) halve what each mesh holds
    table = EdgeTable(keys, inverse.astype(np.int32).reshape(3, -1).T, boundary,
                      first % len(T), edges[first])
    for a in vars(table).values():
        a.flags.writeable = False
    return table


def _tag_edges(spec: DomainSpec, vertices: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """GAMMA1 iff both endpoints sit on the same cone leg (origin on both)."""
    if spec.is_full_plane:
        return np.full(len(edges), GAMMA0, dtype=np.int64)
    x, y = vertices[:, 0], vertices[:, 1]
    tol = 1e-9 * float(np.max(np.linalg.norm(vertices, axis=1)))
    leg1_dir = np.array([math.cos(spec.beta), math.sin(spec.beta)])
    on_leg0 = (np.abs(y) <= tol) & (x >= -tol)
    on_leg1 = ((np.abs(x * leg1_dir[1] - y * leg1_dir[0]) <= tol)
               & (vertices @ leg1_dir >= -tol))
    a, b = edges[:, 0], edges[:, 1]
    on_leg = (on_leg0[a] & on_leg0[b]) | (on_leg1[a] & on_leg1[b])
    return np.where(on_leg, GAMMA1, GAMMA0).astype(np.int64)


def triangulate(spec: DomainSpec, h_target: float) -> TaggedMesh:
    """Conforming tagged mesh with h_max <= 1.5 * h_target.

    The ring count is increased deterministically until the target is met;
    boundary vertices land on the analytic boundary by construction.  Obtuse
    GAMMA0/GAMMA1 corners are then graded (see ``CORNER_GRADE``).
    """
    if not h_target > 0:                  # NaN too
        raise MeshError("h_target must be positive")
    if h_target >= domain_diameter(spec):
        raise MeshError("h_target must be smaller than the domain diameter")
    r_max = float(np.max(spec.radius_fn(spec.gamma0_angles())))
    n = max(2, math.ceil(r_max / h_target))
    for _ in range(8):
        V, T = _ring_mesh(spec, n)
        e, length = _edges(V, T)
        if length.max() <= 1.5 * h_target:
            return _grade_corners(_finalize(spec, V, T), CORNER_FLOOR * h_target)
        _check_orientation(e)        # a rejected attempt raises as _finalize would
        n = math.ceil(n * length.max() / (1.4 * h_target))
    raise MeshError("could not reach the mesh-size target")


# ---------------------------------------------------------------------------
# grading toward obtuse GAMMA0/GAMMA1 corners
# ---------------------------------------------------------------------------

# Where GAMMA0 meets a leg at an interior angle theta > pi/2, the torsion
# function behaves like rho^(pi / (2 theta)) near the corner and its Hessian
# blows up.  On the ring mesh of the quarter cone with r = 1 + 0.0625 cos 5t
# (theta = 107 deg) the GAMMA1 term of the identity, zero for the exact
# solution, reads -0.013, -0.011, -0.009, -0.007 for h = 0.17 ... 0.02.
# triangulate therefore bisects until every triangle's longest edge is at most
# CORNER_GRADE times the distance of its centroid from the corner, or at most
# CORNER_FLOOR * h_target.  Right-angled and acute corners are left alone.
CORNER_GRADE = 0.2
CORNER_FLOOR = 0.01
_KEY_BASE = 1 << 31       # edge_key base that outlives any vertex count here


def _obtuse_corners(spec: DomainSpec) -> np.ndarray:
    """(k, 2) GAMMA0/GAMMA1 corners whose interior angle exceeds pi/2."""
    if spec.is_full_plane:
        return np.zeros((0, 2))
    t = np.array([0.0, spec.beta])
    # r'/r is tan(theta - pi/2) at t = 0 and -tan(theta - pi/2) at t = beta
    slope = spec.radius_fn.deriv(t) / spec.radius_fn(t)
    return spec.gamma0_point(t[[slope[0] > 1e-8, slope[1] < -1e-8]])


def _bisect(V, T, marked, g0, spec):
    """Longest-edge bisection of the marked triangles, closed to conformity.

    ``g0`` holds the keys of the GAMMA0 edges; their midpoints are projected
    onto the graph and their halves join ``g0``.
    """
    split = mids = np.empty(0, dtype=np.int64)
    while marked.any():
        j = _edges(V, T[marked])[1].argmax(axis=1)
        t = np.take_along_axis(T[marked], (j[:, None] + np.arange(3)) % 3, axis=1)
        keys = edge_key(t[:, :2], _KEY_BASE)
        fresh = np.setdiff1d(keys, split)
        a, b = fresh // _KEY_BASE, fresh % _KEY_BASE
        mid = 0.5 * (V[a] + V[b])
        on_g0 = np.isin(fresh, g0)
        mid[on_g0] = spec.project_to_gamma0(mid[on_g0])
        new = len(V) + np.arange(len(fresh))
        V = np.vstack([V, mid])
        g0 = np.concatenate([g0, edge_key(np.stack([a, new], 1)[on_g0], _KEY_BASE),
                             edge_key(np.stack([new, b], 1)[on_g0], _KEY_BASE)])
        order = np.argsort(np.concatenate([split, fresh]))
        split = np.concatenate([split, fresh])[order]
        mids = np.concatenate([mids, new])[order]
        m = mids[np.searchsorted(split, keys)]
        T = np.concatenate([T[~marked], np.stack([t[:, 0], m, t[:, 2]], 1),
                            np.stack([m, t[:, 1], t[:, 2]], 1)])
        hanging = np.isin(edge_key(triangle_edges(T), _KEY_BASE), split)
        marked = hanging.reshape(3, -1).any(axis=0)
    return V, T, g0


def _grade_corners(mesh: TaggedMesh, h_floor: float) -> TaggedMesh:
    corners = _obtuse_corners(mesh.spec)
    if not len(corners):
        return mesh
    V, T = mesh.vertices, mesh.triangles
    g0 = edge_key(mesh.gamma0_edges(), _KEY_BASE)
    while True:
        size = _edges(V, T)[1].max(axis=1)
        dist = np.linalg.norm(V[T].mean(axis=1)[:, None] - corners, axis=2).min(axis=1)
        marked = size > np.maximum(CORNER_GRADE * dist, h_floor)
        if not marked.any():
            return _finalize(mesh.spec, V, T)
        V, T, g0 = _bisect(V, T, marked, g0, mesh.spec)


def _finalize(spec: DomainSpec | None, V: np.ndarray, T: np.ndarray) -> TaggedMesh:
    e, length = _edges(V, T)
    _check_orientation(e)
    table = _edge_table(T, len(V))
    edges = table.boundary_edges
    if spec is not None:
        tags = _tag_edges(spec, V, edges)
    else:
        tags = np.full(len(edges), GAMMA0, dtype=np.int64)
    mesh = TaggedMesh(V, T, edges, tags, spec)
    mesh._cache["edges"] = table
    mesh._cache["shape"] = _size_and_angle(e, length)
    return mesh


def refine(mesh: TaggedMesh) -> TaggedMesh:
    """Regular 1->4 refinement; new GAMMA0 vertices projected onto the graph.

    Memoized on the mesh: refining the same mesh again returns the same child.
    Child vertex nv + i is the midpoint of the parent's edge i (projected when
    on GAMMA0); the child's ``_cache["parent"]`` records the parent's
    (nv, ``edge_table().keys``) for the solver's coarsest level.
    """
    if "refine" in mesh._cache:
        return mesh._cache["refine"]
    V, T = mesh.vertices, mesh.triangles
    nv = len(V)
    edges = mesh.edge_table()
    keys = edges.keys
    mid = 0.5 * (V[keys // nv] + V[keys % nv])

    gamma0 = edges.boundary[mesh.boundary_tags == GAMMA0]
    if mesh.spec is not None and len(gamma0):
        mid[gamma0] = mesh.spec.project_to_gamma0(mid[gamma0])

    newV = np.vstack([V, mid])
    # vertices t0 t1 t2 and midpoints m01 m12 m20 of each triangle
    c = np.hstack([T, nv + edges.elem_edges])
    newT = np.concatenate([c[:, [0, 3, 5]], c[:, [1, 4, 3]], c[:, [2, 5, 4]],
                           c[:, [3, 4, 5]]])
    new_mesh = _finalize(mesh.spec, newV, newT)
    if mesh.spec is None:
        # inherit the parent's tags: the midpoint endpoint is nv + parent edge id
        edge_tags = np.empty(len(keys), dtype=mesh.boundary_tags.dtype)
        edge_tags[edges.boundary] = mesh.boundary_tags
        a, b = new_mesh.boundary_edges.T
        new_mesh = replace(new_mesh,
                           boundary_tags=edge_tags[np.where(a >= nv, a, b) - nv])
    new_mesh._cache["parent"] = nv, keys
    mesh._cache["refine"] = new_mesh
    return new_mesh


def rectangle_mesh(nx: int, ny: int) -> TaggedMesh:
    """Structured right-triangle mesh of the unit square; all edges GAMMA0."""
    xs = np.linspace(0.0, 1.0, nx + 1)
    ys = np.linspace(0.0, 1.0, ny + 1)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    V = np.stack([X.ravel(), Y.ravel()], axis=1)

    def vid(i, j):
        return i * (ny + 1) + j

    tris = []
    for i in range(nx):
        for j in range(ny):
            a, b, c, d = vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)
            tris.append((a, b, c))
            tris.append((a, c, d))
    return _finalize(None, V, np.asarray(tris, dtype=np.int64))


# ---------------------------------------------------------------------------
# plain-text export
# ---------------------------------------------------------------------------

def write_mesh(mesh: TaggedMesh, path) -> None:
    """Sections VERTICES / TRIANGLES / BOUNDARY_EDGES, one record per line."""
    with open(path, "w", encoding="ascii") as f:
        f.write(f"VERTICES {mesh.n_vertices}\n")
        for x, y in mesh.vertices:
            f.write(f"{x:.17g} {y:.17g}\n")
        f.write(f"TRIANGLES {mesh.n_triangles}\n")
        for a, b, c in mesh.triangles:
            f.write(f"{a} {b} {c}\n")
        f.write(f"BOUNDARY_EDGES {len(mesh.boundary_edges)}\n")
        for (a, b), tag in zip(mesh.boundary_edges, mesh.boundary_tags):
            f.write(f"{a} {b} {TAG_NAMES[int(tag)]}\n")

