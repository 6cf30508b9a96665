"""Reference computations the tests share and the library's reports never
need: per-point field evaluation, quadrature norms, the auxiliary field h,
point location, adaptive-quadrature area and length, rigid rotations, the
earlier interior sphere radius that bisects every sample, the two-level
CG preconditioner and CG loop written with whole-array temporaries, and the
COO route of the global matrix scatter."""

import math
from dataclasses import replace

import numpy as np
import scipy.sparse as sp
from scipy.integrate import quad

from conetorsion import fem
from conetorsion.fem import (FemField, bary_gradients, build_dofmap,
                             shape_bary_grads, shape_values)
from conetorsion.geometry import (TWO_PI, DomainError, DomainSpec,
                                  InteriorSphere, RadiusFunction, _inside_closure,
                                  boundary_partition, polyline_distance)
from conetorsion.mesher import GAMMA0
from conetorsion.quadrature import TRI_POINTS, TRI_WEIGHTS
from conetorsion.quantities import Center, edge_trace


def values_oracle(u, elements, lam):
    elements = np.asarray(elements, dtype=np.int64)
    Nsh = shape_values(u.degree, lam)
    c = u.coeffs[u.dofmap.elem_dofs[elements]]
    return np.einsum("...i,...i->...", np.broadcast_to(Nsh, c.shape), c)


def gradients_oracle(u, elements, lam):
    elements = np.asarray(elements, dtype=np.int64)
    dN = shape_bary_grads(u.degree, lam)              # (..., nloc, 3)
    G = bary_gradients(u.mesh)[0][elements]           # (..., 3, 2)
    gradN = np.einsum("...la,...ax->...lx", dN, G)
    c = u.coeffs[u.dofmap.elem_dofs[elements]]
    return np.einsum("...l,...lx->...x", c, gradN)


def corners(mesh):
    V, T = mesh.vertices, mesh.triangles
    return V[T[:, 0]], V[T[:, 1]], V[T[:, 2]]


def energy(u):
    """Dirichlet energy int |grad u|^2."""
    total = 0.0
    for lam, w in zip(TRI_POINTS, TRI_WEIGHTS):
        g = gradients_oracle(u, np.arange(u.mesh.n_triangles), lam)
        total += w * float(np.sum(u._areas * np.einsum("ex,ex->e", g, g)))
    return total


def l2_error(u, exact):
    """L2 distance to a callable exact(x, y) -> value."""
    p0, p1, p2 = corners(u.mesh)
    total = 0.0
    elems = np.arange(u.mesh.n_triangles)
    for lam, w in zip(TRI_POINTS, TRI_WEIGHTS):
        xy = lam[0] * p0 + lam[1] * p1 + lam[2] * p2
        diff = values_oracle(u, elems, lam) - exact(xy[:, 0], xy[:, 1])
        total += w * float(np.sum(u._areas * diff**2))
    return float(np.sqrt(total))


def h1_seminorm_error(u, exact_grad):
    """H1 seminorm distance to a callable exact_grad(x, y) -> (gx, gy)."""
    p0, p1, p2 = corners(u.mesh)
    total = 0.0
    elems = np.arange(u.mesh.n_triangles)
    for lam, w in zip(TRI_POINTS, TRI_WEIGHTS):
        xy = lam[0] * p0 + lam[1] * p1 + lam[2] * p2
        gx, gy = exact_grad(xy[:, 0], xy[:, 1])
        g = gradients_oracle(u, elems, lam)
        diff2 = (g[:, 0] - gx) ** 2 + (g[:, 1] - gy) ** 2
        total += w * float(np.sum(u._areas * diff2))
    return float(np.sqrt(total))


def interpolate(mesh, degree: int, fn) -> FemField:
    """Nodal interpolant of fn(x, y); exact for quadratics when degree = 2."""
    dofmap = build_dofmap(mesh, degree)
    xy = dofmap.node_xy
    return FemField(mesh, degree, np.asarray(fn(xy[:, 0], xy[:, 1]), dtype=float),
                    dofmap)


def h_field(u: FemField, center) -> FemField:
    """h = |x-z|^2/2 - u, interpolated into the same space (exact for q)."""
    z = center.z if isinstance(center, Center) else np.asarray(center, dtype=float)
    q = interpolate(u.mesh, u.degree,
                    lambda x, y: 0.5 * ((x - z[0]) ** 2 + (y - z[1]) ** 2))
    return FemField(u.mesh, u.degree, q.coeffs - u.coeffs, u.dofmap)


def gamma0_grad_norm(field: FemField) -> float:
    """L2(GAMMA0) norm of the gradient trace."""
    tr0 = edge_trace(field.mesh, GAMMA0, 3)
    grads = field.gradients(tr0.elements[:, None], tr0.lam)
    return float(np.sqrt(np.sum(tr0.weights * np.einsum("egx,egx->eg", grads, grads))))


def locate(u: FemField, points):
    """Element index and barycentric coordinates of physical points."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    V, T = u.mesh.vertices, u.mesh.triangles
    p0 = V[T[:, 0]]
    inv = u._G[:, 1:]
    elems = np.empty(len(points), dtype=np.int64)
    lams = np.empty((len(points), 3))
    for i, p in enumerate(points):
        lam12 = np.einsum("exy,ey->ex", inv, p - p0)
        lam0 = 1.0 - lam12.sum(axis=1)
        lam = np.column_stack([lam0, lam12])
        e = int(np.argmax(lam.min(axis=1)))
        elems[i] = e
        lams[i] = lam[e]
    return elems, lams


def eval_points(u: FemField, points) -> np.ndarray:
    elems, lams = locate(u, points)
    return u.values(elems, lams)


def galerkin_residual(system, field: FemField) -> float:
    """Max weak-form residual against the free basis functions (scaled)."""
    fixed = system.dirichlet
    free = np.setdiff1d(np.arange(system.matrix.shape[0]), fixed,
                        assume_unique=True)
    r = system.matrix @ field.coeffs - system.load
    scale = max(float(np.abs(system.load).max()), 1e-30)
    return float(np.abs(r[free]).max()) / scale


def domain_area(spec: DomainSpec) -> float:
    """|Sigma ∩ Omega| by adaptive quadrature of the sector formula."""
    val, _ = quad(lambda t: 0.5 * float(spec.radius_fn(t)) ** 2, 0.0, spec.beta,
                  limit=200)
    return val


def gamma0_length(spec: DomainSpec) -> float:
    """|GAMMA0| by adaptive quadrature of the polar arc-length element."""
    fn = spec.radius_fn
    val, _ = quad(lambda t: math.hypot(float(fn(t)), float(fn.deriv(t))),
                  0.0, spec.beta, limit=200)
    return val


class _RotatedRadius(RadiusFunction):
    """t -> base(t - phi) with its derivatives."""

    def __init__(self, base: RadiusFunction, phi: float):
        self.base, self.phi = base, phi

    def _shift(self, t):
        return np.mod(np.asarray(t, dtype=float) - self.phi, TWO_PI)

    def __call__(self, t):
        return self.base(self._shift(t))

    def deriv(self, t):
        return self.base.deriv(self._shift(t))

    def deriv2(self, t):
        return self.base.deriv2(self._shift(t))


def rotated_mesh(mesh, phi: float):
    """The mesh and its full-plane spec turned by phi about the origin."""
    spec = mesh.spec
    if not spec.is_full_plane:
        raise DomainError("rigid rotation is only representable for beta = 2*pi")
    fn = _RotatedRadius(spec.radius_fn, phi)
    c, s = math.cos(phi), math.sin(phi)
    R = np.array([[c, -s], [s, c]])
    return replace(mesh, vertices=mesh.vertices @ R.T,
                   spec=DomainSpec(spec.beta, fn, spec.sample_count))


def interior_sphere_radius(spec: DomainSpec, samples: int = 256) -> InteriorSphere:
    """The earlier ``geometry.interior_sphere_radius``: all samples bisected
    at each of the 40 steps."""
    part = boundary_partition(spec)
    a0, b0 = part.gamma0
    ts = spec.gamma0_angles(samples)
    pts = spec.gamma0_point(ts)
    dr = np.asarray(spec.radius_fn.deriv(ts), dtype=float)
    r = np.asarray(spec.radius_fn(ts), dtype=float)
    tang = np.stack([dr * np.cos(ts) - r * np.sin(ts),
                     dr * np.sin(ts) + r * np.cos(ts)], axis=1)
    tang /= np.linalg.norm(tang, axis=1)[:, None]
    nrm = np.stack([tang[:, 1], -tang[:, 0]], axis=1)

    rho_hi = float(np.max(r))
    geom_tol = 2.0 * rho_hi * (spec.beta / len(a0)) ** 2 + 1e-12

    def admissible(rho):
        centers = pts - rho[:, None] * nrm
        inside = _inside_closure(spec, centers, geom_tol)
        dist = polyline_distance(centers, a0, b0)
        return inside & (dist >= rho - geom_tol)

    lo = np.full(len(pts), 0.0)
    hi = np.full(len(pts), rho_hi)
    if not np.all(admissible(np.full(len(pts), 1e-3 * rho_hi))):
        return InteriorSphere(0.0, False)
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        good = admissible(mid)
        lo = np.where(good, mid, lo)
        hi = np.where(good, hi, mid)
    return InteriorSphere(float(np.min(lo)), True)


def two_level_cycle(A, dofmap, free):
    """The two-level P2 -> P1 preconditioner on the free dofs, (cycle, factor):
    P1 on the free vertices of the same mesh, Galerkin P^T A P, factored; one
    degree-3 Chebyshev-Jacobi sweep on [lmax / 10, lmax] (Gershgorin lmax of
    D^-1 A, from the whole abs(A)) before and after."""
    P = fem._prolongation(dofmap.n_vertices, dofmap.edge_keys)[free][
        :, free[free < dofmap.n_vertices]]
    coarse = fem.factor_spd(P.T @ A @ P)
    diag = A.diagonal()
    lmax = float((abs(A) @ np.ones(A.shape[0]) / diag).max())
    theta, delta = 0.55 * lmax, 0.45 * lmax

    def smooth(x, r):
        rho, d = delta / theta, r / (theta * diag)
        for _ in range(2):
            x, r = x + d, r - A @ d
            rho, rho_old = 1 / (2 * theta / delta - rho), rho
            d = (rho * rho_old) * d + (2 * rho / delta) * (r / diag)
        return x + d, r, d

    def cycle(r):
        x, r, d = smooth(np.zeros_like(r), r)
        r = r - A @ d
        e = P @ coarse.solve(P.T @ r)
        return smooth(x + e, r - A @ e)[0]

    return cycle, coarse


def pcg(A, b, x, precondition, stop, steps):
    """Preconditioned CG with fresh arrays each step (``fem._pcg``'s contract)."""
    r, p, rz = b - A @ x, np.zeros_like(x), 1.0
    for k in range(fem._CG_MAX_ITER + 1):
        if k == fem._CG_MAX_ITER or fem._dot(r, r) <= stop * stop:
            steps.append(k)
            return x
        z = precondition(r)
        rz, rz_old = fem._dot(r, z), rz
        p = z + (rz / rz_old) * p
        q = A @ p
        alpha = rz / fem._dot(p, q)
        x, r = x + alpha * p, r - alpha * q


def coo_scatter(dofmap, Ke):
    """Global matrix from element blocks (nt, nloc, nloc) through COO triplets
    with int32 indices and ``tocsr`` (the route ``fem.scatter`` replaces)."""
    dofs = dofmap.elem_dofs.astype(np.int32)
    nloc = dofs.shape[1]
    rows = np.repeat(dofs, nloc, axis=1).ravel()
    cols = np.tile(dofs, (1, nloc)).ravel()
    return sp.coo_matrix((Ke.ravel(), (rows, cols)),
                         shape=(dofmap.n_dofs, dofmap.n_dofs)).tocsr()
