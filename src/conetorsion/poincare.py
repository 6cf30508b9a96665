"""Weighted Poincare constants by discrete Rayleigh quotients (p = 2).

mu: best constant in  ||v - mean v||_2 <= mu^-1 ||d(.,boundary)^alpha grad v||_2
    over scalar fields, computed as the square root of the smallest positive
    eigenvalue of (weighted stiffness, mass) on P1.
eta: vector-field analogue with values in span{nu(GAMMA1)}, the constraint
    <v, nu> = 0 at GAMMA1 nodes, and the weight measuring distance to GAMMA0
    only.

Discrete values over-estimate the continuum infimum (conforming subspaces)
and decrease under refinement; ``levels`` records that history.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .fem import (FemField, build_dofmap, element_stiffness, factor_spd,
                  row_order, scatter, shape_values)
from .geometry import BoundaryPartition, DomainError, SpanInfo
from .mesher import GAMMA1, TaggedMesh, refine
from .quadrature import TRI_POINTS, TRI_WEIGHTS


ALPHAS = (0.0, 0.5, 1.0)      # the implemented weight exponents
_EIG_COUNT, _EIG_SHIFT = 2, -0.1   # k and sigma of _smallest_eigs


class EigenError(RuntimeError):
    """Eigenvalue solve failed or returned an inconsistent spectrum."""


@dataclass
class PoincareEstimate:
    kind: str                 # "mu" or "eta"
    alpha: float
    history: list             # the constant per refinement level, coarsest first

    @property
    def value(self) -> float:
        """The finest level's constant; the inequality uses value**-1."""
        return self.history[-1]

    @property
    def converged(self) -> bool:
        """The last two levels agree to 2 %."""
        h = self.history
        return len(h) >= 2 and abs(h[-1] - h[-2]) <= 0.02 * abs(h[-1])

    def csv_row(self, level: int) -> str:
        return (f"{self.kind},{self.alpha:g},{level},{self.history[level]:.12g},"
                f"{str(self.converged).lower()}")


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

def _boundary_segments(mesh: TaggedMesh):
    """Mesh boundary edges as segment arrays."""
    edges = mesh.boundary_edges
    return mesh.vertices[edges[:, 0]], mesh.vertices[edges[:, 1]]


def _distance_weights(mesh: TaggedMesh, alpha: float, seg_a, seg_b) -> np.ndarray:
    """(7, nt) weights d^(2 alpha) at the TRI_POINTS quadrature points; 1 at alpha 0."""
    if alpha == 0.0:
        return np.ones((len(TRI_POINTS), mesh.n_triangles))
    return mesh.quadrature_distances(seg_a, seg_b) ** (2.0 * alpha)


def _p1_matrices(mesh: TaggedMesh, alpha: float, seg_a, seg_b):
    """Weighted P1 stiffness (weight d^(2 alpha)) and mass matrix."""
    dofmap = build_dofmap(mesh, 1)
    G, areas = mesh.bary_gradients()
    weights = _distance_weights(mesh, alpha, seg_a, seg_b)
    Nsh = shape_values(1, TRI_POINTS)                            # (7, 3)
    mass = np.einsum("q,qi,qj->ij", TRI_WEIGHTS, Nsh, Nsh)
    order = row_order(dofmap)
    A = scatter(dofmap, order, element_stiffness(G, areas, 1, weights))
    M = scatter(dofmap, order, areas[:, None, None] * mass)
    return A, M


def _smallest_eigs(A, M) -> np.ndarray:
    """The k = _EIG_COUNT eigenvalues of (A, M) nearest sigma = _EIG_SHIFT,
    ascending, by shift-invert.

    A is positive semidefinite, so for sigma < 0 the k nearest are the k
    smallest and ``A - sigma M`` is SPD: one ``factor_spd`` serves every
    solve.  k = 2 is all a caller reads: mu needs the constant mode and the
    first positive value, eta its leading value and, when that is not
    positive, the next one.
    """
    n = A.shape[0]
    k, sigma = min(_EIG_COUNT, n - 1), _EIG_SHIFT
    v0 = 1.0 + 0.25 * np.cos(0.7 * np.arange(n))   # deterministic start
    try:
        OPinv = spla.LinearOperator((n, n), matvec=factor_spd(A - sigma * M).solve,
                                    dtype=float)
        vals = spla.eigsh(A, k=k, M=M, sigma=sigma, OPinv=OPinv,
                          v0=v0, return_eigenvectors=False)
    except Exception as exc:   # ARPACK failures surface as various types
        raise EigenError(f"eigenvalue solve failed: {exc}") from exc
    return np.sort(np.real(vals))


def _first_positive(vals: np.ndarray) -> float:
    tol = max(1e-10, 1e-8 * float(np.max(np.abs(vals))))
    pos = vals[vals > tol]
    if len(pos) == 0:
        raise EigenError(f"no positive eigenvalue found in {vals}")
    return float(pos[0])


def _ladder(kind: str, mesh: TaggedMesh, alpha: float, levels: int,
            constant) -> PoincareEstimate:
    """``constant(mesh)`` on ``mesh`` and on each of its ``levels - 1`` refinements."""
    if alpha not in ALPHAS:
        raise ValueError("alpha must be one of 0, 1/2, 1")
    if levels < 1:
        raise ValueError("levels must be at least 1")
    history = [constant(mesh)]
    for _ in range(levels - 1):
        mesh = refine(mesh)
        history.append(constant(mesh))
    return PoincareEstimate(kind, alpha, history)


# ---------------------------------------------------------------------------
# mu
# ---------------------------------------------------------------------------

def mu_estimate(mesh: TaggedMesh, alpha: float, levels: int = 1,
                boundary=None) -> PoincareEstimate:
    """Zero-mean scalar constant on the given mesh (optionally refined).

    The zero-mean subspace is reached spectrally: constants are the exact
    kernel of the weighted stiffness, so the smallest positive eigenvalue of
    (A, M) is the constrained minimum.  ``boundary`` overrides the distance
    polyline (defaults to the mesh boundary).
    """
    def constant(current: TaggedMesh) -> float:
        seg_a, seg_b = _boundary_segments(current) if boundary is None else boundary
        vals = _smallest_eigs(*_p1_matrices(current, alpha, seg_a, seg_b))
        if abs(vals[0]) > 1e-6 * max(1.0, vals[-1]):
            raise EigenError(f"constant mode missing from spectrum: {vals}")
        return math.sqrt(_first_positive(vals))

    return _ladder("mu", mesh, alpha, levels, constant)


# ---------------------------------------------------------------------------
# eta
# ---------------------------------------------------------------------------

def _constraint_basis(mesh: TaggedMesh, partition: BoundaryPartition,
                      span: SpanInfo, drop_constraint: bool) -> sp.csr_matrix:
    """Sparse basis Z of the admissible P1 vector subspace (dof = 2*node+comp).

    The legs pass through the origin, so a GAMMA1 edge lies on the leg j whose
    line is nearest its midpoint, the least |mid . nu_j|.  A node's class has
    bit j set when it lies on leg j (0 off GAMMA1, both bits at the apex).
    The columns of a node are S @ D, D a null-space basis of the rows
    S^T nu_j over the legs of its class; D = I in class 0.  So there is one
    SVD per class, not per node.
    """
    n = mesh.n_vertices
    S = span.basis.T                      # (2, k) columns span the value space
    legs = partition.gamma1_normals
    cls = np.zeros(n, dtype=np.int64)
    if not drop_constraint:
        edges = mesh.boundary_edges[mesh.boundary_tags == GAMMA1]
        mid = 0.5 * (mesh.vertices[edges[:, 0]] + mesh.vertices[edges[:, 1]])
        leg = np.abs(mid @ legs.T).argmin(axis=1)
        np.bitwise_or.at(cls, edges, (1 << leg)[:, None])
    blocks = np.zeros((1 << len(legs), 2, span.k))   # (class, component, column)
    ncols = np.zeros(len(blocks), dtype=np.int64)
    blocks[0], ncols[0] = S @ np.eye(span.k), span.k
    for c in np.unique(cls[cls > 0]):
        C = np.array([S.T @ nu for j, nu in enumerate(legs) if c >> j & 1])
        _, s, vt = np.linalg.svd(C, full_matrices=True)
        rank = int(np.sum(s > 1e-12))
        ncols[c] = span.k - rank
        blocks[c, :, :ncols[c]] = S @ vt[rank:].T
    width = ncols[cls]
    start = np.cumsum(width) - width
    node = np.repeat(np.arange(n), width)
    vals = blocks[cls[node], :, np.arange(len(node)) - start[node]]   # (ncol, 2)
    rows = np.column_stack([2 * node, 2 * node + 1]).ravel()
    cols = np.repeat(np.arange(len(node)), 2)
    return sp.coo_matrix((vals.ravel(), (rows, cols)), shape=(2 * n, len(node))).tocsr()


def eta_estimate(mesh: TaggedMesh, partition: BoundaryPartition, span: SpanInfo,
                 alpha: float, levels: int = 1,
                 drop_constraint: bool = False) -> PoincareEstimate:
    """Constrained vector-field constant; weight measures distance to GAMMA0.

    ``drop_constraint`` removes the <v, nu> = 0 nodal conditions (ablation:
    constants become admissible and the smallest eigenvalue collapses to 0).
    A domain without GAMMA1 (k = 0) is rejected before any assembly.
    """
    if span.k == 0:
        raise DomainError("eta needs a domain with GAMMA1 (k >= 1)")
    seg_a0, seg_b0 = partition.gamma0

    def constant(current: TaggedMesh) -> float:
        A, M = _p1_matrices(current, alpha, seg_a0, seg_b0)
        A2 = sp.kron(A, sp.identity(2), format="csr")
        M2 = sp.kron(M, sp.identity(2), format="csr")
        Z = _constraint_basis(current, partition, span, drop_constraint)
        vals = _smallest_eigs(Z.T @ A2 @ Z, Z.T @ M2 @ Z)
        if drop_constraint:
            return math.sqrt(max(vals[0], 0.0))
        lam0 = vals[0]
        if lam0 <= 0:
            if lam0 < -1e-10 * max(1.0, vals[-1]):
                raise EigenError(f"negative leading eigenvalue: {vals}")
            lam0 = _first_positive(vals)
        return math.sqrt(lam0)

    return _ladder("eta", mesh, alpha, levels, constant)


# ---------------------------------------------------------------------------
# constants assembly
# ---------------------------------------------------------------------------

def lambda_constant(k: int, mu: PoincareEstimate | None = None,
                    eta: PoincareEstimate | None = None) -> float:
    """Combine mu/eta into the k-dependent constant of the stability bound (N = 2)."""
    if k == 0:
        if mu is None:
            raise ValueError("k = 0 needs mu")
        return 1.0 / mu.value
    if k == 2:
        if eta is None:
            raise ValueError("k = N = 2 needs eta")
        return 1.0 / eta.value
    if mu is None or eta is None:
        raise ValueError("k = 1 needs both mu and eta")
    return max(1.0 / mu.value, 1.0 / eta.value)


def theorem_constant(m: float, lam: float) -> float:
    """(2 N Lambda^2 + 3) / (2 m), N = 2, the explicit stability constant."""
    if m <= 0:
        raise ValueError("flux lower bound m must be positive")
    return (2.0 * 2 * lam**2 + 3.0) / (2.0 * m)


# ---------------------------------------------------------------------------
# the weighted Hessian norm of the mixed gradient inequality
# ---------------------------------------------------------------------------

def weighted_hessian_l2(field: FemField, alpha: float,
                        partition: BoundaryPartition) -> float:
    """|| d(., GAMMA0)^alpha D^2 field ||_L2 with element-wise Hessians."""
    H = field.element_hessians()
    frob2 = np.einsum("exy,exy->e", H, H)
    wts = _distance_weights(field.mesh, alpha, *partition.gamma0)
    return math.sqrt(float(np.sum(field._areas * frob2 * (TRI_WEIGHTS @ wts))))

