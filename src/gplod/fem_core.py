"""P1 finite-element assembly: stiffness, mass, weighted masses, energies.

Every operator is assembled on the interior (non-boundary) dofs only, by
one path: its (t, 9) element entries are summed into the ``data`` of one
interior CSR pattern, built once per mesh by ``assemble_operators``.  No
full-node matrix is formed.

The default quadrature is a symmetric 6-point degree-4 triangle rule.  The
quartic density term of a P1 function is a degree-4 polynomial, as is the
harmonic-potential mass integrand, so both are integrated exactly and
quadrature drops out of the error budget.  Checkerboard potentials are
piecewise constant per triangle (meshes must align with the squares), so
the same rule integrates them exactly too.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .mesh import nested_dissection

__all__ = [
    "AssemblyError",
    "QuadRule",
    "quad_degree4",
    "Potential",
    "FeOperators",
    "assemble_operators",
    "assemble_density_mass",
    "energy",
    "eigenvalue_from_state",
    "norms",
    "l4_norm4",
    "load_triangle_constant",
]


class AssemblyError(ValueError):
    """Assembly precondition violated (alignment, sign, dimensions)."""


@dataclass(frozen=True)
class QuadRule:
    """Barycentric points and weights on the reference triangle.

    Weights sum to 1; an integral is area_T * sum(w_q * f(x_q)).  ``degree``
    is the highest polynomial degree integrated exactly.
    """

    points: np.ndarray
    weights: np.ndarray
    degree: int

    def __post_init__(self):
        object.__setattr__(self, "points", np.asarray(self.points, dtype=float))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        if abs(self.weights.sum() - 1.0) > 1e-13:
            raise AssemblyError("quadrature weights must sum to 1")


def _orbit(a, b):
    return [(a, b, b), (b, a, b), (b, b, a)]


def quad_degree4():
    """Symmetric 6-point rule, exact through degree 4 (the default)."""
    pts = _orbit(0.108103018168070, 0.445948490915965) + _orbit(
        0.816847572980459, 0.091576213509771
    )
    w = np.concatenate(
        [np.full(3, 0.223381589678011), np.full(3, 0.109951743655322)]
    )
    return QuadRule(np.array(pts), w, 4)


DEFAULT_QUAD = quad_degree4()


class Potential:
    """Trapping potential V >= 0: constant, harmonic, or checkerboard."""

    def __init__(self, kind, value=None, square_side=None, low=None, high=None):
        self.kind = kind
        self.value = value
        self.square_side = square_side
        self.low = low
        self.high = high

    @classmethod
    def constant(cls, value):
        if value < 0:
            raise AssemblyError(f"potential must be non-negative, got {value}")
        return cls("constant", value=float(value))

    @classmethod
    def harmonic(cls):
        """V(x, y) = 0.5 (x^2 + y^2)."""
        return cls("harmonic")

    @classmethod
    def checkerboard(cls, square_side, low=0.0, high=1.0):
        """Alternating squares anchored at the domain corner; low at (0, 0)."""
        if square_side <= 0:
            raise AssemblyError("square_side must be positive")
        if low < 0 or high < 0:
            raise AssemblyError("checkerboard values must be non-negative")
        return cls("checkerboard", square_side=float(square_side), low=float(low), high=float(high))

    @property
    def piecewise_constant(self):
        return self.kind in ("constant", "checkerboard")

    def values(self, x, y, domain=None):
        if self.kind == "constant":
            return np.full(np.shape(x), self.value)
        if self.kind == "harmonic":
            return 0.5 * (np.asarray(x) ** 2 + np.asarray(y) ** 2)
        if self.kind == "checkerboard":
            if domain is None:
                raise AssemblyError("checkerboard evaluation needs the domain anchor")
            i = np.floor((np.asarray(x) - domain.xmin) / self.square_side).astype(np.int64)
            j = np.floor((np.asarray(y) - domain.ymin) / self.square_side).astype(np.int64)
            return np.where((i + j) % 2 == 0, self.low, self.high).astype(float)
        raise AssemblyError(f"unknown potential kind {self.kind!r}")

    def triangle_values(self, mesh):
        """Per-triangle constant values (centroid samples)."""
        centroids = mesh.nodes[mesh.triangles].mean(axis=1)
        return self.values(centroids[:, 0], centroids[:, 1], mesh.domain)

    def check_alignment(self, mesh):
        """Checkerboard squares must be unions of mesh cells, in x and in y."""
        if self.kind != "checkerboard":
            return
        for direction, extent in (("width", mesh.domain.width), ("height", mesh.domain.height)):
            cell = extent / mesh.cells_per_side
            ratio = self.square_side / cell
            if abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
                raise AssemblyError(
                    f"checkerboard square side {self.square_side} is not an integer "
                    f"multiple of the mesh cell {direction} {cell}"
                )
            nsq = extent / self.square_side
            if abs(nsq - round(nsq)) > 1e-9:
                raise AssemblyError(
                    f"domain {direction} {extent} is not an integer number of "
                    f"checkerboard squares of side {self.square_side}"
                )

    def descriptor(self):
        if self.kind == "constant":
            return f"constant({self.value!r})"
        if self.kind == "harmonic":
            return "harmonic"
        return f"checkerboard(side={self.square_side!r},low={self.low!r},high={self.high!r})"

    def __repr__(self):
        return f"Potential({self.descriptor()})"


def _tri_geometry(mesh):
    """P1 basis gradients (t, 3, 2) per triangle."""
    p = mesh.nodes[mesh.triangles]
    e1 = p[:, 1] - p[:, 0]
    e2 = p[:, 2] - p[:, 0]
    det = 2.0 * mesh.areas
    grads = np.empty((mesh.n_triangles, 3, 2))
    # grad(lambda_i) = perp(edge opposite i) / (2 area)
    grads[:, 1, 0] = e2[:, 1] / det
    grads[:, 1, 1] = -e2[:, 0] / det
    grads[:, 2, 0] = -e1[:, 1] / det
    grads[:, 2, 1] = e1[:, 0] / det
    grads[:, 0] = -grads[:, 1] - grads[:, 2]
    return grads


_MASS_REF = (np.full((3, 3), 1.0) + np.eye(3)) / 12.0


def _stiffness_local(mesh):
    """Element entries of the stiffness: exact integrals of grad phi_i . grad phi_j."""
    grads = _tri_geometry(mesh)
    return (grads @ grads.transpose(0, 2, 1)) * mesh.areas[:, None, None]


def _mass_local(mesh):
    """Element entries of the mass: the closed-form P1 element matrix."""
    return mesh.areas[:, None, None] * _MASS_REF[None, :, :]


def quad_points_xy(mesh, quad):
    """Physical quadrature point coordinates, shape (t, q, 2)."""
    return quad.points @ mesh.nodes[mesh.triangles]


def potential_at_quadrature(mesh, potential, quad):
    """Potential values at all quadrature points, shape (t, q)."""
    if potential.piecewise_constant:
        return np.broadcast_to(
            potential.triangle_values(mesh)[:, None],
            (mesh.n_triangles, quad.weights.size),
        )
    xy = quad_points_xy(mesh, quad)
    return potential.values(xy[..., 0], xy[..., 1], mesh.domain)


def _weighted_local(mesh, weights_tq, quad):
    """Element entries of the integrals w(x) phi_i phi_j, (t, 9) with column
    3 i + j, for w given at the quadrature points."""
    lam = quad.points
    outer = quad.weights[:, None] * (lam[:, :, None] * lam[:, None, :]).reshape(-1, 9)
    return (weights_tq * mesh.areas[:, None]) @ outer


def _potential_local(mesh, potential, quad):
    """Element entries of the potential-weighted mass; exact for harmonic and
    aligned checkerboard potentials."""
    potential.check_alignment(mesh)
    vq = potential_at_quadrature(mesh, potential, quad)
    if vq.min() < 0:
        raise AssemblyError(f"negative potential sample {vq.min()}")
    return _weighted_local(mesh, vq, quad)


def _density_local(mesh, u_full, quad):
    """Element entries of the density mass |u_h|^2 phi_i phi_j, (t, 9)."""
    uq = u_full[mesh.triangles] @ quad.points.T  # (t, q)
    return _weighted_local(mesh, uq**2, quad)


def _interior_pattern(mesh, dof_map):
    """(indptr, indices, slots): the CSR pattern over the interior dofs
    ``dof_map`` of every P1 operator on ``mesh``, and the ``data`` slot of
    each element entry (t * 9, row-major per triangle).  An entry whose row
    or column is a boundary node gets the extra slot nnz, which is dropped.
    """
    n = dof_map.size
    dof = np.full(mesh.n_nodes, -1, dtype=np.int64)
    dof[dof_map] = np.arange(n)
    d = dof[mesh.triangles]
    rows = np.repeat(d, 3, axis=1).ravel()
    cols = np.tile(d, (1, 3)).ravel()
    kept = (rows >= 0) & (cols >= 0)
    keys, kept_slots = np.unique(rows[kept] * n + cols[kept], return_inverse=True)
    slots = np.full(rows.size, keys.size, dtype=np.int32)
    slots[kept] = kept_slots
    indptr = np.searchsorted(keys, np.arange(n + 1) * n)
    pattern = (indptr.astype(np.int32), (keys % n).astype(np.int32), slots)
    for arr in pattern:  # shared by every matrix filled from it
        arr.setflags(write=False)
    return pattern


def _interior_csr(pattern, local):
    """Interior CSR matrix from element entries (t, 3, 3) or (t, 9): one sum
    of the entries into their slots of ``pattern``."""
    indptr, indices, slots = pattern
    data = np.bincount(slots, weights=local.ravel(), minlength=indices.size + 1)
    n = indptr.size - 1
    return sparse.csr_matrix((data[: indices.size], indices, indptr), shape=(n, n))


@dataclass(frozen=True)
class FeOperators:
    """Assembled P1 operators over interior (non-boundary) dofs.

    K, M, MV are the stiffness, mass, and potential-weighted mass on the
    interior dofs, and A = K + MV is the bilinear form matrix (gradient and
    potential terms); ``dof_map`` lists the node index of each interior
    dof.  ``pattern`` is the interior CSR pattern (``_interior_pattern``)
    that K, M, MV and every density mass fill, and ``ordering`` the
    nested-dissection order of the interior dofs (``mesh.nested_dissection``)
    for sparse factorizations.  Every field is set by ``assemble_operators``
    and none changes afterwards, so threads may share one instance.
    """

    mesh: object
    potential: Potential
    quad: QuadRule
    K: sparse.csr_matrix
    M: sparse.csr_matrix
    MV: sparse.csr_matrix
    A: sparse.csr_matrix
    dof_map: np.ndarray
    pattern: tuple = field(repr=False)
    ordering: np.ndarray = field(repr=False)

    @property
    def n_dofs(self):
        return self.dof_map.size

    def expand(self, u_interior):
        """Zero-pad interior coefficients to a full nodal vector."""
        u_interior = np.asarray(u_interior)
        full = np.zeros(u_interior.shape[:-1] + (self.mesh.n_nodes,))
        full[..., self.dof_map] = u_interior
        return full

    def restrict(self, u_full):
        return np.asarray(u_full)[..., self.dof_map]


def assemble_operators(mesh, potential, quad=None):
    """Assemble stiffness, mass, and potential mass on the interior dofs
    (Dirichlet elimination): each fills the one interior CSR pattern.  A
    and the nested-dissection ordering are formed here too."""
    if quad is None:
        quad = DEFAULT_QUAD
    if quad.degree < 2:
        raise AssemblyError("mass assembly needs quadrature exactness >= 2")
    if potential.kind == "harmonic" and quad.degree < 4:
        raise AssemblyError("potential mass with a smooth V needs exactness >= 4")
    dof = mesh.interior_nodes()
    pattern = _interior_pattern(mesh, dof)
    K = _interior_csr(pattern, _stiffness_local(mesh))
    M = _interior_csr(pattern, _mass_local(mesh))
    MV = _interior_csr(pattern, _potential_local(mesh, potential, quad))
    A = (K + MV).tocsr()
    return FeOperators(mesh, potential, quad, K, M, MV, A, dof, pattern, nested_dissection(mesh))


def assemble_density_mass(ops, u_interior):
    """Interior-dof density mass N(u) of a state given in interior coordinates.

    Fills only the ``data`` of the interior CSR pattern of ``ops``
    (``FeOperators.pattern``).
    """
    u_interior = np.asarray(u_interior)
    if u_interior.shape != (ops.n_dofs,):
        raise AssemblyError(
            f"state shape {u_interior.shape} != ({ops.n_dofs},) interior dofs"
        )
    return _interior_csr(ops.pattern, _density_local(ops.mesh, ops.expand(u_interior), ops.quad))


def l4_norm4(mesh, u_full, quad=DEFAULT_QUAD):
    """Exact integral of |u_h|^4 for a P1 function given by nodal values."""
    u_full = np.asarray(u_full)
    if u_full.shape[0] != mesh.n_nodes:
        raise AssemblyError(
            f"state length {u_full.shape[0]} != node count {mesh.n_nodes}"
        )
    uq = u_full[mesh.triangles] @ quad.points.T
    return float(np.einsum("t,q,tq->", mesh.areas, quad.weights, uq**4))


def energy(ops, u_interior, beta):
    """Gross-Pitaevskii energy 1/2 a(u,u) + beta/4 * int |u|^4."""
    u = np.asarray(u_interior)
    quadratic = 0.5 * (u @ (ops.K @ u)) + 0.5 * (u @ (ops.MV @ u))
    if beta == 0.0:
        return float(quadratic)
    return float(quadratic + 0.25 * beta * l4_norm4(ops.mesh, ops.expand(u), ops.quad))


def eigenvalue_from_state(energy_value, l4_norm4_value, beta):
    """Ground-state eigenvalue lambda = 2 E + (beta/2) ||u||_{L4}^4."""
    return 2.0 * energy_value + 0.5 * beta * l4_norm4_value


def norms(ops, e_interior):
    """(L2, H1) norms of an interior-dof coefficient vector.

    The H1 norm is the full norm sqrt(||e||^2 + ||grad e||^2); the potential
    term is excluded.
    """
    e = np.asarray(e_interior)
    l2sq = e @ (ops.M @ e)
    h1sq = l2sq + e @ (ops.K @ e)
    return float(np.sqrt(max(l2sq, 0.0))), float(np.sqrt(max(h1sq, 0.0)))


def load_triangle_constant(mesh, f_tri):
    """Load vector (f, phi_i) for a piecewise-constant f given per triangle."""
    contrib = (np.asarray(f_tri) * mesh.areas / 3.0)[:, None].repeat(3, axis=1)
    out = np.zeros(mesh.n_nodes)
    np.add.at(out, mesh.triangles.ravel(), contrib.ravel())
    return out
