"""Scalar functionals of a solved torsion field.

Everything the rigidity/stability checks consume is computed here from the
discrete field: the candidate radius R, the boundary flux u_nu and its
deficits, the center z, the volume identity connecting them, and the
pointwise flux-vs-distance bounds.

All reductions are plain ``np.sum`` over arrays in fixed element/edge order
(pairwise summation), so results are independent of worker-thread count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fem import DegreeError, FemField, bary_gradients
from .geometry import (DomainSpec, SpanInfo, boundary_partition, outward_normals,
                       segment_extremes, serrin_radius)
from .mesher import GAMMA0, GAMMA1, TaggedMesh
from .poincare import theorem_constant
from .quadrature import TRI_POINTS, TRI_WEIGHTS, edge_gauss

CSV_COLUMNS = ("domain_id", "h_max", "degree", "R", "m", "z_x", "z_y",
               "deficit_1", "deficit_2", "pseudodistance", "rho_gap",
               "identity_lhs", "identity_rhs", "gamma1_term",
               "identity_residual", "C_bound", "C_bound_satisfied")
_LABEL_COLUMNS = ("domain_id", "degree", "C_bound_satisfied")   # not numeric
_CENTER_TOL = 1e-10   # relative tolerance of <z, nu> = 0 on GAMMA1
_BOUND_TOL = 5e-3     # slack of each DistanceBoundReport margin


class CenterError(ValueError):
    """Center violates the cone-boundary constraint required by the identity."""


# ---------------------------------------------------------------------------
# boundary-edge quadrature
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EdgeTrace:
    """Quadrature data on the boundary edges of one tag class."""

    edge_rows: np.ndarray   # (ne,) row indices into mesh.boundary_edges
    elements: np.ndarray    # (ne,) owning element per edge
    normals: np.ndarray     # (ne, 2)
    lengths: np.ndarray     # (ne,)
    points: np.ndarray      # (ne, ng, 2)
    lam: np.ndarray         # (ne, ng, 3) barycentric in the owning element
    weights: np.ndarray     # (ne, ng) arc-length weights

    @property
    def total_length(self) -> float:
        return float(np.sum(self.lengths))


def edge_trace(mesh: TaggedMesh, tag: int, n_gauss: int = 3) -> EdgeTrace:
    rows = np.flatnonzero(mesh.boundary_tags == tag)
    edges = mesh.boundary_edges[rows]
    elements = mesh.edge_table().owners[rows]
    a = mesh.vertices[edges[:, 0]]
    b = mesh.vertices[edges[:, 1]]
    d = b - a
    lengths = np.linalg.norm(d, axis=1)
    normals = outward_normals(d)
    s, w = edge_gauss(n_gauss)
    points = a[:, None, :] + s[None, :, None] * d[:, None, :]
    weights = lengths[:, None] * w[None, :]
    # barycentric coordinates of the quadrature points in the owning element
    p0 = mesh.vertices[mesh.triangles[elements, 0]]
    lam12 = np.einsum("eax,egx->ega", bary_gradients(mesh)[0][elements, 1:],
                      points - p0[:, None, :])
    lam = np.concatenate([1.0 - lam12.sum(axis=2, keepdims=True), lam12], axis=2)
    return EdgeTrace(rows, elements, normals, lengths, points, lam, weights)


def collar_edge_mask(mesh: TaggedMesh, trace: EdgeTrace) -> np.ndarray:
    """GAMMA0 edges touching a GAMMA0/GAMMA1 corner (one-edge collar)."""
    g1 = mesh.boundary_edges[mesh.boundary_tags == GAMMA1]
    return np.isin(mesh.boundary_edges[trace.edge_rows], g1).any(axis=1)


# ---------------------------------------------------------------------------
# boundary flux
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundaryField:
    """u_nu on the GAMMA0 trace, per (edge, Gauss point), with the collar."""

    trace: EdgeTrace
    values: np.ndarray    # (ne, ng)
    collar: np.ndarray    # (ne,) True on corner-adjacent edges

    @property
    def weights(self) -> np.ndarray:
        return self.trace.weights

    def min_value(self) -> float:
        """Least value off the collar; over every value when all edges are in it."""
        vals = self.values[~self.collar] if np.any(~self.collar) else self.values
        return float(np.min(vals))


def normal_derivative(u: FemField, n_gauss: int = 2) -> BoundaryField:
    """<grad u, nu> on GAMMA0 edges, gradient taken from the owning element."""
    if u.degree < 2:
        raise DegreeError("boundary flux wants a degree-2 field")
    tr = edge_trace(u.mesh, GAMMA0, n_gauss)
    unu = np.einsum("egx,ex->eg", u.gradients(tr.elements[:, None], tr.lam), tr.normals)
    return BoundaryField(tr, unu, collar_edge_mask(u.mesh, tr))


# ---------------------------------------------------------------------------
# centers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Center:
    z: np.ndarray
    k: int
    z_free: np.ndarray    # the free center z is projected from


def _free_center(u: FemField) -> np.ndarray:
    """(1/|G|) int (x - grad u) dx; the gradient is linear per element."""
    mesh = u.mesh
    V, T = mesh.vertices, mesh.triangles
    areas = u._areas
    centroids = (V[T[:, 0]] + V[T[:, 1]] + V[T[:, 2]]) / 3.0
    lam = np.full(3, 1.0 / 3.0)
    grads = u.gradients(np.arange(mesh.n_triangles), lam)
    integrand = centroids - grads
    total = np.sum(areas[:, None] * integrand, axis=0)
    return total / np.sum(areas)


def compute_center(u: FemField, span: SpanInfo) -> Center:
    """Center with the k components along span{nu(Gamma1)} forced to zero."""
    zf = _free_center(u)
    rot = span.rotation
    zr = rot @ zf
    zr[:span.k] = 0.0
    return Center(rot.T @ zr, span.k, zf)


def alternative_center(u: FemField) -> Center:
    """Unconstrained center (all components free)."""
    zf = _free_center(u)
    return Center(zf, 0, zf)


def check_center_constraint(mesh: TaggedMesh, z: np.ndarray) -> None:
    """The identity needs <z, nu> = 0 for every GAMMA1 normal."""
    edges = mesh.boundary_edges[mesh.boundary_tags == GAMMA1]
    normals = outward_normals(mesh.vertices[edges[:, 1]] - mesh.vertices[edges[:, 0]])
    viol = float(np.max(np.abs(normals @ z), initial=0.0))
    if viol > _CENTER_TOL * (1.0 + float(np.linalg.norm(z))):
        raise CenterError(
            f"center violates the cone-boundary constraint: |<z,nu>| = {viol:g}")


# ---------------------------------------------------------------------------
# the volume identity
# ---------------------------------------------------------------------------

def _hessian_terms(u: FemField):
    """Element Hessians H, |H|^2 and |H|^2 - (tr H)^2 / N (N = 2) per element."""
    H = u.element_hessians()
    frob = np.einsum("exy,exy->e", H, H)
    tr = H[:, 0, 0] + H[:, 1, 1]
    return H, frob, frob - tr**2 / 2.0


@dataclass(frozen=True)
class IdentityParts:
    lhs: float
    rhs: float
    gamma1_term: float
    residual: float
    lhs_exact_trace: float   # variant with Delta u frozen to N


def identity_residual(u: FemField, center: Center) -> IdentityParts:
    """Both sides of the volume identity and their scaled gap.

    lhs = int (-u) (|D^2 u|^2 - (tr D^2 u)^2/N) + int_G1 u <D^2u Du, nu>;
    rhs = 1/2 int_G0 (u_nu^2 - R^2)(u_nu - <x-z, nu>).  The trace of the
    discrete Hessian (not the constant N) enters the default lhs so both
    sides are functionals of the same discrete object; the frozen-N variant
    is recorded alongside.  The residual is |lhs-rhs| scaled by
    max(|lhs|, |rhs|, R^2 |G0| h^2).
    """
    z = center.z
    mesh = u.mesh
    check_center_constraint(mesh, z)

    # int_T (-u), exact for the element polynomial
    minus_int_u = -(TRI_WEIGHTS @ u.values(np.arange(mesh.n_triangles),
                                           TRI_POINTS[:, None])) * u._areas
    H, frob, gap = _hessian_terms(u)
    volume = float(np.sum(minus_int_u * gap))
    volume_exact = float(np.sum(minus_int_u * (frob - 2.0)))  # (Delta u)^2/N = N

    gamma1 = 0.0
    if np.any(mesh.boundary_tags == GAMMA1):
        tr1 = edge_trace(mesh, GAMMA1, 3)
        uvals = u.values(tr1.elements[:, None], tr1.lam)
        grads = u.gradients(tr1.elements[:, None], tr1.lam)
        # <D^2u Du, nu> = (Du)^T (H nu) since H is symmetric
        Hn = np.einsum("exy,ey->ex", H[tr1.elements], tr1.normals)
        hdotnu = np.einsum("egx,ex->eg", grads, Hn)
        gamma1 = float(np.sum(tr1.weights * uvals * hdotnu))

    flux = normal_derivative(u, 3)
    tr0, unu = flux.trace, flux.values
    R = serrin_radius(float(np.sum(u._areas)), tr0.total_length)
    xnu = np.einsum("egx,ex->eg", tr0.points - z[None, None, :], tr0.normals)
    rhs = 0.5 * float(np.sum(tr0.weights * (unu**2 - R**2) * (unu - xnu)))

    lhs = volume + gamma1
    scale = max(abs(lhs), abs(rhs), R**2 * tr0.total_length * mesh.h_max**2)
    return IdentityParts(lhs, rhs, gamma1, abs(lhs - rhs) / scale,
                         volume_exact + gamma1)


# ---------------------------------------------------------------------------
# deficits report
# ---------------------------------------------------------------------------

@dataclass
class DeficitReport:
    domain_id: str
    h_max: float
    degree: int
    R: float
    m: float
    z: np.ndarray
    deficit_1: float
    deficit_2: float
    pseudodistance: float
    pseudodistance_free: float   # at Center.z_free, before the GAMMA1 projection
    rho_gap: float
    identity_lhs: float
    identity_rhs: float
    gamma1_term: float
    identity_residual: float
    C_bound: float | None
    C_bound_satisfied: bool | None
    k: int = 0
    extras: dict = field(default_factory=dict)

    @staticmethod
    def csv_header() -> str:
        return ",".join(CSV_COLUMNS)

    def _value(self, name: str):
        if name in ("z_x", "z_y"):
            return self.z["xy".index(name[-1])]
        return getattr(self, name)

    def csv_row(self) -> str:
        def cell(v):
            if v is None:
                return ""
            if isinstance(v, str):
                return v
            if isinstance(v, (bool, np.bool_)):
                return str(v).lower()
            return f"{v:.12g}"

        return ",".join(cell(self._value(name)) for name in CSV_COLUMNS)

    def column(self, name: str) -> float:
        """A numeric CSV column (C_bound None reads NaN)."""
        if name in CSV_COLUMNS and name not in _LABEL_COLUMNS:
            v = self._value(name)
            return float("nan") if v is None else float(v)
        raise KeyError(name)


def deficits(u: FemField, center: Center, *,
             lambda_21: float | None = None, domain_id: str = "") -> DeficitReport:
    """Fill every deficit functional of one solve by GAMMA0 quadrature.

    ``lambda_21`` is the Poincare combination Lambda_{2,1}(k); when given and
    the flux lower bound m is positive, the stability constant
    (2 N Lambda^2 + 3) / (2 m) and its row check are recorded.  The
    pseudodistance at the center's free point ``z_free`` is recorded as well.
    """
    z = center.z
    mesh = u.mesh
    flux = normal_derivative(u, 3)
    tr0, unu, w = flux.trace, flux.values, flux.weights
    R = serrin_radius(float(np.sum(u._areas)), tr0.total_length)
    m = flux.min_value()

    deficit_1 = float(np.sqrt(np.sum(w * (unu - R) ** 2)))
    deficit_2 = float(np.sqrt(np.sum(w * (unu**2 - R**2) ** 2)))

    def pseudodistance(c):
        dist = np.linalg.norm(tr0.points - c[None, None, :], axis=2)
        return float(np.sqrt(np.sum(w * (dist - R) ** 2)))

    pseudo = pseudodistance(z)
    pseudo_free = pseudodistance(center.z_free)

    edges = mesh.boundary_edges[tr0.edge_rows]
    seg_min, seg_max = segment_extremes(mesh.vertices[edges[:, 0]],
                                        mesh.vertices[edges[:, 1]], z)
    rho_gap = float(np.max(seg_max) - np.min(seg_min))

    # the identity is only meaningful for constraint-respecting centers
    try:
        ident = identity_residual(u, center)
    except CenterError:
        ident = IdentityParts(*[float("nan")] * 5)

    if lambda_21 is not None and not m <= 0.0:
        c_bound = theorem_constant(m, lambda_21)
        satisfied = pseudo <= c_bound * deficit_2
    else:
        c_bound, satisfied = None, None

    return DeficitReport(
        domain_id=domain_id, h_max=mesh.h_max, degree=u.degree, R=R, m=m,
        z=z, deficit_1=deficit_1, deficit_2=deficit_2,
        pseudodistance=pseudo, pseudodistance_free=pseudo_free, rho_gap=rho_gap,
        identity_lhs=ident.lhs, identity_rhs=ident.rhs,
        gamma1_term=ident.gamma1_term, identity_residual=ident.residual,
        C_bound=c_bound, C_bound_satisfied=satisfied, k=center.k,
    )


# ---------------------------------------------------------------------------
# extrema and pointwise bounds
# ---------------------------------------------------------------------------

def max_gradient(u: FemField) -> float:
    """max |grad u| over the mesh.

    grad u is affine on each element, so the convex |grad u| peaks at a vertex.
    """
    g = u.vertex_gradients()
    return float(np.sqrt(np.einsum("evx,evx->ev", g, g).max()))


def max_depth(u: FemField) -> float:
    """max (-u) over nodes and quadrature points."""
    quad = u.values(np.arange(u.mesh.n_triangles), TRI_POINTS[:, None])
    return max(float(np.max(-u.coeffs)), float(np.max(-quad)))


@dataclass(frozen=True)
class DistanceBoundReport:
    margin_boundary_sq: float   # min of (-u) - d(x, boundary)^2/2
    margin_gamma0_sq: float     # min of (-u) - d(x, GAMMA0)^2/2
    margin_gamma0_linear: float  # min of (-u) - (r_i/2) d(x, GAMMA0)
    tolerance: float

    @property
    def ok(self) -> bool:
        return (self.margin_boundary_sq >= -self.tolerance
                and self.margin_gamma0_sq >= -self.tolerance
                and self.margin_gamma0_linear >= -self.tolerance)


def u_distance_bounds(u: FemField, spec: DomainSpec, r_i: float) -> DistanceBoundReport:
    """Check -u against the squared/linear distance lower bounds pointwise.

    Evaluated at every interior quadrature point; distances are exact
    point-to-polyline distances against the analytic boundary partition.
    The report is ``ok`` when no margin falls below -_BOUND_TOL.
    """
    part = boundary_partition(spec)
    a_all, b_all, _ = part.all_segments()
    mesh = u.mesh
    dist_b = mesh.quadrature_distances(a_all, b_all)
    dist_g = mesh.quadrature_distances(*part.gamma0)
    depth = -u.values(np.arange(mesh.n_triangles), TRI_POINTS[:, None])
    return DistanceBoundReport(float(np.min(depth - 0.5 * dist_b**2)),
                               float(np.min(depth - 0.5 * dist_g**2)),
                               float(np.min(depth - 0.5 * r_i * dist_g)), _BOUND_TOL)
