"""Lagrange P1/P2 solver for the mixed torsion problem.

Weak form: int grad(u).grad(phi) = -int N phi, with essential u = 0 on GAMMA0
node sets and natural (zero-flux) treatment of GAMMA1.  Elements are affine,
so degree-2 fields have an exact constant Hessian per element.

On curved GAMMA0 the midpoint Dirichlet values are corrected by one
gradient-only Taylor step toward the analytic boundary, which restores the
cubic L2 accuracy of P2 that the polygonal O(h^2) boundary gap would
otherwise cap at quadratic order (see tests for the measured rates).

Systems above the measured direct/CG crossover (12,000 free dofs) on
shape-regular meshes are solved by CG with a P2 -> P1 preconditioner on the
same mesh (p-multigrid, one degree-2 Chebyshev-Jacobi sweep on each side);
others by LU.  On a mesh made by ``refine`` the preconditioner has a third
level, P1 on the parent mesh, reached by the refine midpoint rule (a
Galerkin, non-nested coarse level), so the factored coarse problem follows
the refinement ladder down instead of growing with it.  The uncorrected CG
solve stops once the correction it feeds has settled (see ``solve``).
Besides the reduced blocks, a solve holds one whole-matrix temporary: the
transpose for its symmetry check (patterns, then values), freed before the
blocks are cut.

Global matrices are scattered straight into CSR at their exact size
(``scatter``), with the values of scipy's COO route bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import reverse_cuthill_mckee

from .mesher import GAMMA0, TaggedMesh
from .quadrature import TRI_POINTS, TRI_WEIGHTS


class FemError(RuntimeError):
    """Assembly or solver failure."""


class DegreeError(FemError, ValueError):
    """A quantity asked of a field whose degree cannot provide it."""


# ---------------------------------------------------------------------------
# reference shape functions
# ---------------------------------------------------------------------------

def shape_values(degree: int, lam: np.ndarray) -> np.ndarray:
    """Shape function values at barycentric points lam (..., 3)."""
    lam = np.asarray(lam, dtype=float)
    l0, l1, l2 = lam[..., 0], lam[..., 1], lam[..., 2]
    if degree == 1:
        return np.stack([l0, l1, l2], axis=-1)
    return np.stack([
        l0 * (2 * l0 - 1), l1 * (2 * l1 - 1), l2 * (2 * l2 - 1),
        4 * l0 * l1, 4 * l1 * l2, 4 * l2 * l0,
    ], axis=-1)


def shape_bary_grads(degree: int, lam: np.ndarray) -> np.ndarray:
    """d(shape)/d(lambda_a) at barycentric points, shape (..., ndof, 3)."""
    lam = np.asarray(lam, dtype=float)
    l0, l1, l2 = lam[..., 0], lam[..., 1], lam[..., 2]
    zero = np.zeros_like(l0)
    if degree == 1:
        one = np.ones_like(l0)
        rows = [
            [one, zero, zero],
            [zero, one, zero],
            [zero, zero, one],
        ]
    else:
        rows = [
            [4 * l0 - 1, zero, zero],
            [zero, 4 * l1 - 1, zero],
            [zero, zero, 4 * l2 - 1],
            [4 * l1, 4 * l0, zero],
            [zero, 4 * l2, 4 * l1],
            [4 * l2, zero, 4 * l0],
        ]
    return np.stack([np.stack(r, axis=-1) for r in rows], axis=-2)


# local P2 edge ordering: dof 3 = mid(0,1), 4 = mid(1,2), 5 = mid(2,0)
_LOCAL_EDGES = ((0, 1), (1, 2), (2, 0))


# ---------------------------------------------------------------------------
# dof layout and geometry factors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DofMap:
    degree: int
    node_xy: np.ndarray        # (ndof, 2)
    elem_dofs: np.ndarray      # (nt, 3) or (nt, 6)
    edge_keys: np.ndarray      # the mesh's edge_table().keys; edge i owns dof nv + i
    n_vertices: int

    @property
    def n_dofs(self) -> int:
        return len(self.node_xy)


def build_dofmap(mesh: TaggedMesh, degree: int) -> DofMap:
    if degree not in (1, 2):
        raise FemError("only degree 1 and 2 elements are supported")
    V, T = mesh.vertices, mesh.triangles
    nv = len(V)
    if degree == 1:
        return DofMap(1, V.copy(), T.copy(), np.empty(0, dtype=np.int64), nv)
    edges = mesh.edge_table()
    keys = edges.keys
    mids = 0.5 * (V[keys // nv] + V[keys % nv])
    node_xy = np.vstack([V, mids])
    elem_dofs = np.hstack([T, nv + edges.elem_edges])
    return DofMap(2, node_xy, elem_dofs, keys, nv)


def bary_gradients(mesh: TaggedMesh) -> tuple[np.ndarray, np.ndarray]:
    """Per-element gradients of (lambda_0, lambda_1, lambda_2) and areas.

    G[:, 1:] is the inverse Jacobian of the map from (lambda_1, lambda_2) to
    x - p0.  Both arrays are cached on the mesh, read-only.
    """
    cached = mesh._cache.get("bary_gradients")
    if cached is not None:
        return cached
    V, T = mesh.vertices, mesh.triangles
    p0, p1, p2 = V[T[:, 0]], V[T[:, 1]], V[T[:, 2]]
    d1, d2 = p1 - p0, p2 - p0
    det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    G = np.empty((len(T), 3, 2))
    G[:, 1, 0] = d2[:, 1] / det
    G[:, 1, 1] = -d2[:, 0] / det
    G[:, 2, 0] = -d1[:, 1] / det
    G[:, 2, 1] = d1[:, 0] / det
    G[:, 0] = -G[:, 1] - G[:, 2]
    areas = 0.5 * det
    G.flags.writeable = areas.flags.writeable = False
    mesh._cache["bary_gradients"] = G, areas
    return G, areas


# ---------------------------------------------------------------------------
# linear system
# ---------------------------------------------------------------------------

@dataclass
class LinearSystem:
    matrix: sp.csr_matrix
    load: np.ndarray
    dirichlet: np.ndarray      # sorted dof indices on GAMMA0
    dofmap: DofMap
    mesh: TaggedMesh


def element_stiffness(G: np.ndarray, areas: np.ndarray, degree: int,
                      weights: np.ndarray | None = None) -> np.ndarray:
    """Element blocks int wt grad(phi_i).grad(phi_j), shape (nt, nloc, nloc).

    ``weights`` (7, nt) holds wt at the TRI_POINTS of each element; None
    means wt = 1.  grad(phi_i).grad(phi_j) = sum_ab dN_ia dN_jb (G G^T)_ab,
    so the per-element products area * G G^T (nt, 9) meet the reference
    tensor sum_q w_q dN_ia dN_jb (9, nloc^2) in one matmul.
    """
    dN = shape_bary_grads(degree, TRI_POINTS)                      # (7, nloc, 3)
    nloc = dN.shape[1]
    ref = np.einsum("q,qia,qjb->qabij", TRI_WEIGHTS, dN, dN).reshape(
        len(TRI_WEIGHTS), 9, nloc * nloc)
    GG = areas[:, None] * np.einsum("eax,ebx->eab", G, G).reshape(-1, 9)
    if weights is None:
        Ke = GG @ ref.sum(axis=0)
    else:
        Ke = (weights.T[:, :, None] * GG[:, None, :]).reshape(len(G), -1) \
            @ ref.reshape(-1, nloc * nloc)
    return Ke.reshape(-1, nloc, nloc)


def row_order(dofmap: DofMap) -> np.ndarray:
    """Element block rows, flat index ``e * nloc + i``, stably sorted by their
    global dof: the order in which a COO -> CSR conversion (a stable counting
    sort by row) visits the entries of element blocks scattered over
    ``dofmap``.  One order serves every matrix on the same dof map."""
    return np.argsort(dofmap.elem_dofs.ravel(), kind="stable")


def scatter(dofmap: DofMap, order: np.ndarray, Ke: np.ndarray) -> sp.csr_matrix:
    """Global CSR matrix from element blocks Ke (nt, nloc, nloc), at its exact size.

    The block rows are gathered in ``order`` (``row_order``): these are the
    arrays ``coo_matrix(...).tocsr()`` builds before it sums duplicates, each
    row holding the same entries in the same sequence, and scipy's own
    ``sum_duplicates`` then sorts and sums them as there, so the result is
    bit for bit that of the COO route.  No COO index arrays are made, Ke is
    released after the gather, and the summed arrays are copied to nnz
    entries where scipy keeps views into the duplicate-length buffers.
    Indices are int32 while the duplicate count fits, int64 beyond (scipy's
    rule).
    """
    dofs = dofmap.elem_dofs
    n, nloc = dofmap.n_dofs, dofs.shape[1]
    idx = np.int32 if max(Ke.size, n) <= np.iinfo(np.int32).max else np.int64
    data = Ke.reshape(-1, nloc)[order].ravel()
    del Ke
    indices = dofs.astype(idx)[order // nloc].ravel()
    indptr = np.zeros(n + 1, dtype=idx)
    np.cumsum(np.bincount(dofs.ravel(), minlength=n) * nloc, out=indptr[1:])
    A = sp.csr_matrix((data, indices, indptr), shape=(n, n))
    A.sum_duplicates()
    if A.data.base is not None:       # views into the duplicate-length arrays
        A.indices, A.data = A.indices.copy(), A.data.copy()
    return A


def assemble(mesh: TaggedMesh, degree: int = 2) -> LinearSystem:
    """Stiffness/load of the torsion problem Delta u = 2 with GAMMA0 Dirichlet set.

    Quadrature is exact for polynomials of degree 2*degree; a mesh without
    GAMMA0 edges is rejected (the problem always carries a Dirichlet part).
    """
    gamma0 = mesh.boundary_tags == GAMMA0
    if not np.any(gamma0):
        raise FemError("mesh has no GAMMA0 edges; pure Neumann problem rejected")
    dofmap = build_dofmap(mesh, degree)
    G, areas = bary_gradients(mesh)
    A = scatter(dofmap, row_order(dofmap), element_stiffness(G, areas, degree))
    shape_integrals = TRI_WEIGHTS @ shape_values(degree, TRI_POINTS)   # (nloc,)
    b = np.zeros(dofmap.n_dofs)
    np.add.at(b, dofmap.elem_dofs.ravel(),
              (-2 * areas[:, None] * shape_integrals).ravel())

    fixed = [mesh.boundary_edges[gamma0].ravel()]
    if degree == 2:
        fixed.append(dofmap.n_vertices + mesh.edge_table().boundary[gamma0])
    dirichlet = np.unique(np.concatenate(fixed)).astype(np.int64)
    return LinearSystem(A, b, dirichlet, dofmap, mesh)


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------

def _vertex_gradients(degree: int, c: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Vertex gradients (ne, 3, 2) of elements with coefficients c (ne, nloc)
    and barycentric gradients G (ne, 3, 2); each element on its own, so any
    subset of elements gives the rows of the whole mesh."""
    dN = shape_bary_grads(degree, np.eye(3))                        # (3, nloc, 3)
    du = np.einsum("vla,el->eva", dN, c)                            # d u / d lambda_a
    return np.einsum("eva,eax->evx", du, G)


class FemField:
    """Scalar finite-element field on a tagged mesh.

    ``values`` and ``gradients`` broadcast ``elements`` (any shape) against
    barycentric points ``lam`` (..., 3): ``values(np.arange(nt), TRI_POINTS[:, None])``
    is (7, nt), and ``gradients(trace.elements[:, None], trace.lam)`` is
    (ne, ng, 2).
    """

    def __init__(self, mesh: TaggedMesh, degree: int, coeffs: np.ndarray,
                 dofmap: DofMap):
        self.mesh = mesh
        self.degree = degree
        self.coeffs = np.asarray(coeffs, dtype=float)
        self.dofmap = dofmap
        self.diagnostics = {}
        self._G, self._areas = bary_gradients(mesh)
        self._vertex_gradients = None
        self._hessians = None

    def values(self, elements, lam) -> np.ndarray:
        """Field values on the given elements at barycentric points."""
        c = self.coeffs[self.dofmap.elem_dofs[np.asarray(elements, dtype=np.int64)]]
        return np.einsum("...i,...i->...", shape_values(self.degree, lam), c)

    def vertex_gradients(self) -> np.ndarray:
        """Gradient of each element polynomial at its vertices, (nt, 3, 2).

        The gradient of a P1/P2 element is affine, so these three values
        give it everywhere on the element (see ``gradients``).
        """
        if self._vertex_gradients is None:
            self._vertex_gradients = _vertex_gradients(
                self.degree, self.coeffs[self.dofmap.elem_dofs], self._G)
        return self._vertex_gradients

    def gradients(self, elements, lam) -> np.ndarray:
        """Gradients on the given elements at barycentric points, (..., 2)."""
        vg = self.vertex_gradients()[np.asarray(elements, dtype=np.int64)]
        return np.einsum("...v,...vx->...x", np.asarray(lam, dtype=float), vg)

    def element_hessians(self) -> np.ndarray:
        """Constant Hessian per element, shape (nt, 2, 2); degree 2 only."""
        if self.degree != 2:
            raise DegreeError("element Hessians require a degree-2 field")
        if self._hessians is None:
            G = self._G
            c = self.coeffs[self.dofmap.elem_dofs]
            H = 4 * np.einsum("el,elx,ely->exy", c[:, :3], G, G)
            for i, (a, b) in enumerate(_LOCAL_EDGES):
                cc = c[:, 3 + i]
                H += 4 * cc[:, None, None] * (
                    np.einsum("ex,ey->exy", G[:, a], G[:, b])
                    + np.einsum("ex,ey->exy", G[:, b], G[:, a]))
            self._hessians = H
        return self._hessians


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

# CG path: min free dofs, min angle (degrees), stopping; the measured direct/CG
# crossover (ROADMAP, Settled, "CG selection" table)
_CG_MIN_DOFS, _CG_MIN_ANGLE = 12_000, 20.0
_CG_RTOL, _CG_MAX_ITER = 1e-12, 100


class SpdFactor:
    """LU of P A P^T for a symmetric pre-order P; ``solve`` answers A x = b."""

    def __init__(self, lu: spla.SuperLU, perm: np.ndarray):
        self._lu = lu
        self._perm = perm
        self._inverse = np.argsort(perm)
        self.nnz = lu.nnz             # entries of L + U

    def solve(self, b: np.ndarray) -> np.ndarray:
        return self._lu.solve(b[self._perm])[self._inverse]


def factor_spd(A) -> SpdFactor:
    """Sparse LU of a symmetric positive definite matrix.

    A reverse Cuthill-McKee pre-order gives the symmetric minimum-degree
    ordering on A^T + A a better start (it breaks ties by column index);
    with diagonal pivots the fill stays that of a Cholesky factor.  The same
    factor serves the solves and the shift-invert eigensolves.  A
    non-positive diagonal entry (never SPD) or an exactly singular factor
    raises FemError.
    """
    A = sp.csc_matrix(A)
    if not np.all(A.diagonal() > 0):
        raise FemError("matrix is not positive definite: non-positive diagonal")
    perm = reverse_cuthill_mckee(A, symmetric_mode=True)
    A = A[perm][:, perm]              # the only copy held while splu runs
    try:
        lu = spla.splu(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                       options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise FemError(f"sparse factorization failed: {exc}") from exc
    return SpdFactor(lu, perm)


def _prolongation(nv: int, keys: np.ndarray) -> sp.csr_matrix:
    """Values at nv vertices -> values at those vertices, then at the midpoints
    of the sorted edge ``keys`` (nv + len(keys), nv): vertices copy, midpoints
    average their edge's ends.  A degree-2 dof map's (n_vertices, edge_keys)
    give P1 -> P2 on one mesh (nested); a ``refine`` parent record gives P1 on
    the parent -> P1 on the child (the midpoint rule, before any projection)."""
    rows = np.concatenate([np.arange(nv), np.repeat(nv + np.arange(len(keys)), 2)])
    cols = np.concatenate([np.arange(nv), np.column_stack([keys // nv, keys % nv]).ravel()])
    vals = np.concatenate([np.ones(nv), np.full(2 * len(keys), 0.5)])
    return sp.csr_matrix((vals, (rows, cols)), shape=(nv + len(keys), nv))


def _dot(x: np.ndarray, y: np.ndarray) -> float:
    """Inner product summed in a fixed order, whatever the BLAS thread count."""
    return float(np.add.reduce(x * y))


def _row_blocks(A):
    """A as CSR row blocks that view its arrays, each with about as many
    entries as A has rows: a temporary made per block is no larger than a
    vector, and each row keeps its entry order, so row-wise results equal
    those on all of A."""
    A = A.tocsr()
    n, ptr = A.shape[0], A.indptr
    step = max(1, n * n // max(A.nnz, 1))
    for i in range(0, n, step):
        j = min(i + step, n)
        a, b = ptr[i], ptr[j]
        yield sp.csr_matrix((A.data[a:b], A.indices[a:b], ptr[i:j + 1] - a),
                            shape=(j - i, A.shape[1]))


def _galerkin(A: sp.csr_matrix, P: sp.csr_matrix) -> sp.csr_matrix:
    """P^T A P with the values of ``P.T @ A @ P`` bit for bit, without the CSC
    copy of A that product makes: sorted rows of P^T A give each entry the
    same order of summation."""
    C = P.T.tocsr() @ A
    C.sort_indices()
    return C @ P


def _two_level(A: sp.csr_matrix, P: sp.csr_matrix, coarse):
    """Symmetric two-level cycle r -> M^-1 r on A with coarse space range(P).

    ``coarse`` is a symmetric positive map that answers the Galerkin matrix
    P^T A P: its factor's solve, or the same cycle one level down.  One
    degree-2 Chebyshev-Jacobi sweep on [lmax / 8, lmax] (Gershgorin lmax of
    D^-1 A) before and after, so a cycle makes four products with A (one per
    sweep, one on each side of the coarse correction) and a CG step five.
    """
    diag = A.diagonal()
    ones = np.ones(A.shape[0])
    rowsum = np.concatenate([abs(block) @ ones for block in _row_blocks(A)])
    lmax = float((rowsum / diag).max())
    theta, delta = 0.5625 * lmax, 0.4375 * lmax
    rho0 = delta / theta
    rho1 = 1 / (2 * theta / delta - rho0)

    def smooth(x, r):
        """Sweep from x, in place, with residual r: (x', r', d); the residual
        of x' is r' - A d."""
        d = r / (theta * diag)
        x += d
        r = r - A @ d
        d *= rho1 * rho0
        d += (2 * rho1 / delta) * (r / diag)
        x += d
        return x, r, d

    def cycle(r):
        x, r, d = smooth(np.zeros_like(r), r)
        r -= A @ d
        e = P @ coarse(P.T @ r)
        x += e
        r -= A @ e
        return smooth(x, r)[0]

    return cycle


def _preconditioner(A: sp.csr_matrix, system: LinearSystem, free: np.ndarray):
    """CG preconditioner on the free dofs: (r -> M^-1 r, coarsest factor).

    The level below A is P1 on the free vertices of the same mesh, Galerkin
    P^T A P.  On a mesh made by ``refine``, P1 on the parent is one more level
    below that, Galerkin Q^T (P^T A P) Q with Q the refine midpoint rule (not
    nested where GAMMA0 midpoints were projected, still symmetric).  The
    coarsest level is factored.
    """
    dofmap = system.dofmap
    vertices = free[free < dofmap.n_vertices]
    P = _prolongation(dofmap.n_vertices, dofmap.edge_keys)[free][:, vertices]
    A_c = _galerkin(A, P)
    parent = system.mesh._cache.get("parent")
    if parent is None:
        lu = factor_spd(A_c)
        return _two_level(A, P, lu.solve), lu
    Q = _prolongation(*parent)[vertices][:, vertices[vertices < parent[0]]]
    lu = factor_spd(_galerkin(A_c, Q))
    return _two_level(A, P, _two_level(A_c, Q, lu.solve)), lu


def _pcg(A, b: np.ndarray, x: np.ndarray, precondition, stop: float,
         settled, steps: list):
    """Preconditioned CG from x, in place, to ||r|| <= stop or _CG_MAX_ITER
    steps, or, when ``settled`` is not None, to the first step s (the change
    of x) for which ``settled(s)`` holds; appends the steps."""
    r, p, rz, k = b - A @ x, np.zeros_like(x), 1.0, 0
    while k < _CG_MAX_ITER and _dot(r, r) > stop * stop:
        z = precondition(r)
        rz, rz_old = _dot(r, z), rz
        p *= rz / rz_old
        p += z
        q = A @ p
        alpha = rz / _dot(p, q)
        x += alpha * p
        r -= alpha * q
        del z, q                     # not held through the next cycle
        k += 1
        if settled is not None and settled(alpha * p):
            break
    steps.append(k)
    return x


def _gamma0_owners(system: LinearSystem):
    """What the correction needs of the GAMMA0 edge midpoints m of a degree-2
    system, from owner-sized arrays, cached on the mesh: (positions of the
    midpoint dofs in ``system.dirichlet``, owner element dofs (ne, 6), owner
    barycentric gradients (ne, 3, 2), p - m)."""
    mesh, dofmap = system.mesh, system.dofmap
    cached = mesh._cache.get("gamma0_owners")
    if cached is None:
        rows = np.flatnonzero(mesh.boundary_tags == GAMMA0)
        edges = mesh.edge_table()
        dofs = dofmap.n_vertices + edges.boundary[rows]
        m = dofmap.node_xy[dofs]
        owners = edges.owners[rows]
        cached = mesh._cache["gamma0_owners"] = (
            np.searchsorted(system.dirichlet, dofs), dofmap.elem_dofs[owners],
            bary_gradients(mesh)[0][owners], mesh.spec.project_to_gamma0(m) - m)
    return cached


def _midpoint_correction(system: LinearSystem, u: np.ndarray) -> np.ndarray:
    """Dirichlet values (on ``system.dirichlet``) of the curved-boundary
    correction from the uncorrected coefficients u: -<grad u, p - m> at each
    GAMMA0 edge midpoint m, p its projection onto the graph, 0 elsewhere.

    Linear in u.  The centroid gradient of the owner element keeps the
    correction uniformly first order.  Only the owners' gradients are formed,
    from the owner-sized arrays of ``_gamma0_owners``, by the expressions of
    ``FemField.gradients``: each element's rows do not depend on the others,
    so they are bit for bit those of the whole mesh.
    """
    at, owner_dofs, G, pm = _gamma0_owners(system)
    vg = _vertex_gradients(2, u[owner_dofs], G)
    grad = np.einsum("...v,...vx->...x", np.full(3, 1.0 / 3.0), vg)
    gvals = np.zeros(len(system.dirichlet))
    gvals[at] = -np.einsum("ex,ex->e", grad, pm)
    return gvals


def solve(system: LinearSystem) -> FemField:
    """Sparse solve with the curved-boundary midpoint correction.

    CG with ``_preconditioner`` to ||r|| <= _CG_RTOL ||b_free|| when the reduced
    system is large and the mesh shape-regular (_CG_MIN_*), else ``factor_spd``.
    The correction applies to every degree-2 system whose mesh carries its
    spec (a copy with ``spec=None`` gives the uncorrected field): the GAMMA0
    midpoint values g come from ``_midpoint_correction`` of the uncorrected
    solve (one extra solve, warm-started), and enter the corrected one as the
    load -A_fc g.

    The uncorrected field matters only through g, which is linear in it, so
    its CG stops at the first step s whose own change of that load,
    ||A_fc g(s)||, is at most the corrected solve's stop _CG_RTOL ||b_free||;
    the residual stop and the step cap still apply.  This is the stopping
    argument of Arioli, Loghin and Wathen (Numer. Math. 99, 2005): stop once
    the algebraic error is below what its use resolves.  It assumes that CG's
    error contracts on every step, so that the steps not taken add less than
    the last one did: with a contraction factor rho per step they add at most
    rho / (1 - rho) of it.  The residual shrinks by 0.03-0.21 per step on the
    curved-boundary meshes measured (quarter4 refined once and twice, disk3),
    so rho / (1 - rho) <= 0.27 there.
    """
    A, b = system.matrix, system.load
    n = A.shape[0]
    # A^T of an assembled matrix has A's pattern (element blocks are
    # symmetric in pattern, explicit zeros are kept): confirm it, then take
    # max |A - A^T| over the data in row-sized chunks
    At = A.T.tocsr()
    if not (np.array_equal(A.indptr, At.indptr)
            and np.array_equal(A.indices, At.indices)):
        raise FemError("assembled matrix is not symmetric: "
                       "pattern differs from its transpose")
    asym = max(np.abs(A.data[i:i + n] - At.data[i:i + n]).max()
               for i in range(0, A.nnz, n))
    del At
    if asym > 1e-12 * max(A.max(), -A.min()):
        raise FemError(f"assembled matrix is not symmetric: {asym:g}")
    fixed = system.dirichlet
    free = np.setdiff1d(np.arange(n), fixed, assume_unique=True)
    A_f = A[free]
    A_ff, A_fc = A_f[:, free], A_f[:, fixed]
    del A_f
    min_angle = system.mesh.min_angle
    iterations = []
    if len(free) >= _CG_MIN_DOFS and min_angle >= _CG_MIN_ANGLE:
        cycle, lu = _preconditioner(A_ff, system, free)
        stop = _CG_RTOL * np.sqrt(_dot(b[free], b[free]))
    else:
        A_ff = A_ff.tocsc()              # factor_spd then makes no copy
        cycle, lu = None, factor_spd(A_ff)
    mesh, dofmap = system.mesh, system.dofmap
    corrected = dofmap.degree == 2 and mesh.spec is not None

    def settled(s: np.ndarray) -> bool:
        step = np.zeros(n)
        step[free] = s
        load = A_fc @ _midpoint_correction(system, step)
        return _dot(load, load) <= stop * stop

    def solve_with(gvals: np.ndarray, x0: np.ndarray, until) -> np.ndarray:
        u = np.zeros(n)
        u[fixed] = gvals
        rhs = b[free] - A_fc @ gvals
        u[free] = (lu.solve(rhs) if cycle is None
                   else _pcg(A_ff, rhs, x0, cycle, stop, until, iterations))
        return u

    u = solve_with(np.zeros(len(fixed)), np.zeros(len(free)),
                   settled if corrected else None)
    if corrected:
        u = solve_with(_midpoint_correction(system, u), u[free], None)
    field = FemField(mesh, dofmap.degree, u, dofmap)

    resid = A_ff @ u[free] - (b[free] - A_fc @ u[fixed])
    scale = max(float(np.linalg.norm(b[free])), 1e-30)
    rel = float(np.linalg.norm(resid)) / scale
    if rel > 1e-10:
        raise FemError(f"solver did not converge: relative residual {rel:g}")
    field.diagnostics.update({"relative_residual": rel, "n_dofs": n,
                              "n_fixed": len(fixed), "lu_nnz": lu.nnz,
                              "solver": "cg" if iterations else "direct",
                              "cg_iterations": iterations, "min_angle": min_angle})
    return field


def write_solution(field: FemField, path) -> None:
    """Nodal values aligned with the mesh export (vertices first, then edges)."""
    with open(path, "w", encoding="ascii") as f:
        f.write(f"NODAL_VALUES {len(field.coeffs)} degree {field.degree}\n")
        for (x, y), c in zip(field.dofmap.node_xy, field.coeffs):
            f.write(f"{x:.17g} {y:.17g} {c:.17g}\n")
