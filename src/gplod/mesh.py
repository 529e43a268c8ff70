"""Uniform right-triangle meshes of rectangles and two-level hierarchies.

All meshes are criss triangulations: an n x n grid of square cells, each
split into two right triangles along the same diagonal.  Red refinement
of such a mesh is the criss mesh of twice the resolution, so refining is
construction: ``refine`` builds the finer criss mesh directly.  The fine
mesh of every hierarchy is therefore the mesh built at the fine
resolution, node for node and triangle for triangle, and all spaces of a
study can share one set of fine-mesh operators.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "MeshError",
    "Rect",
    "TriMesh",
    "MeshHierarchy",
    "uniform_mesh",
    "refine",
    "build_hierarchy",
    "refinement_count",
    "same_mesh_hierarchy",
    "nested_dissection",
    "export_mesh",
]

# grid blocks of at most this many dofs keep their natural (row-major)
# order; at k = 192 a leaf of 16 leaves 2.66 M nonzeros in L + U, 64 leaves 3.25 M
_ND_LEAF = 16


class MeshError(ValueError):
    """Invalid mesh construction arguments or inconsistent hierarchy."""


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle [xmin, xmax] x [ymin, ymax]."""

    xmin: float
    xmax: float
    ymin: float
    ymax: float

    def __post_init__(self):
        if not (self.xmax > self.xmin and self.ymax > self.ymin):
            raise MeshError(f"degenerate rectangle: {self}")

    @property
    def width(self):
        return self.xmax - self.xmin

    @property
    def height(self):
        return self.ymax - self.ymin


class TriMesh:
    """Conforming triangulation of a rectangle.

    Attributes
    ----------
    nodes : (n, 2) float array of vertex coordinates.
    triangles : (t, 3) int array of CCW vertex index triples.
    boundary_mask : (n,) bool array, True for nodes on the rectangle boundary.
    mesh_size : longest edge length, the diagonal of a grid cell.
    domain : the meshed rectangle.
    cells_per_side : resolution of the underlying square grid.
    areas : (t,) triangle areas, computed on first use.

    All arrays are read-only.
    """

    def __init__(self, nodes, triangles, boundary_mask, domain, cells_per_side):
        self.nodes = np.ascontiguousarray(nodes, dtype=float)
        self.triangles = np.ascontiguousarray(triangles, dtype=np.int64)
        self.boundary_mask = np.ascontiguousarray(boundary_mask, dtype=bool)
        self.domain = domain
        self.cells_per_side = int(cells_per_side)
        for arr in (self.nodes, self.triangles, self.boundary_mask):
            arr.setflags(write=False)
        self.mesh_size = float(np.hypot(domain.width, domain.height) / self.cells_per_side)
        self._areas = None

    @property
    def n_nodes(self):
        return self.nodes.shape[0]

    @property
    def n_triangles(self):
        return self.triangles.shape[0]

    def interior_nodes(self):
        """Indices of nodes not on the boundary, in increasing order."""
        return np.flatnonzero(~self.boundary_mask)

    @property
    def n_interior(self):
        return int(np.count_nonzero(~self.boundary_mask))

    @property
    def areas(self):
        """Triangle areas 0.5 (e1 x e2); raises if any is not positive."""
        if self._areas is None:
            p = self.nodes[self.triangles]
            e1 = p[:, 1] - p[:, 0]
            e2 = p[:, 2] - p[:, 0]
            areas = 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
            if np.any(areas <= 0):
                raise MeshError("mesh contains non-positive triangle areas")
            areas.setflags(write=False)
            self._areas = areas
        return self._areas


def uniform_mesh(domain, cells_per_side):
    """Criss mesh of ``domain`` with ``cells_per_side`` square cells per side.

    Nodes are numbered row-major (x fastest); each cell is split along the
    diagonal from its lower-left to its upper-right corner into two CCW
    triangles.  An n-cell mesh has (n+1)^2 nodes and 2 n^2 triangles.
    """
    n = int(cells_per_side)
    if n < 1:
        raise MeshError(f"cells_per_side must be >= 1, got {cells_per_side}")
    sx = domain.width / n
    sy = domain.height / n
    ix = np.arange(n + 1)
    xs = domain.xmin + ix * sx
    ys = domain.ymin + ix * sy
    # exact endpoints regardless of rounding in xmin + n*sx
    xs[-1] = domain.xmax
    ys[-1] = domain.ymax
    X, Y = np.meshgrid(xs, ys)  # Y varies along rows
    nodes = np.column_stack([X.ravel(), Y.ravel()])

    iy, jx = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    n00 = (iy * (n + 1) + jx).ravel()
    n10 = n00 + 1
    n01 = n00 + (n + 1)
    n11 = n01 + 1
    lower = np.column_stack([n00, n10, n11])
    upper = np.column_stack([n00, n11, n01])
    triangles = np.empty((2 * n * n, 3), dtype=np.int64)
    triangles[0::2] = lower
    triangles[1::2] = upper

    gx, gy = np.meshgrid(ix, ix)
    boundary = (gx.ravel() == 0) | (gx.ravel() == n) | (gy.ravel() == 0) | (gy.ravel() == n)
    return TriMesh(nodes, triangles, boundary, domain, n)


def refine(mesh, times=1):
    """The criss mesh ``times`` uniform refinements finer than ``mesh``.

    Red refinement of a criss mesh, every triangle split into 4 similar
    children, is the criss mesh of twice the resolution, so the result is
    ``uniform_mesh(mesh.domain, mesh.cells_per_side * 2**times)``.
    """
    times = int(times)
    if times < 1:
        raise MeshError(f"times must be >= 1, got {times}")
    return uniform_mesh(mesh.domain, mesh.cells_per_side * 2**times)


class MeshHierarchy:
    """Coarse/fine mesh pair with fine-node locations in the coarse mesh.

    ``child_tri[i]`` is a coarse triangle containing fine node i and
    ``child_bary[i]`` its barycentric coordinates there (weights within
    1e-12 of 0 or 1 are snapped exactly).
    """

    def __init__(self, coarse, fine, refinements, child_tri, child_bary):
        self.coarse = coarse
        self.fine = fine
        self.refinements = int(refinements)
        self.child_tri = np.ascontiguousarray(child_tri, dtype=np.int64)
        self.child_bary = np.ascontiguousarray(child_bary, dtype=float)
        self.child_tri.setflags(write=False)
        self.child_bary.setflags(write=False)
        self._prolongation = None
        self._fine_tri_to_coarse = None

    def prolongation_full(self):
        """Sparse (n_fine_nodes x n_coarse_nodes) P1 interpolation matrix."""
        if self._prolongation is None:
            from scipy import sparse

            rows = np.repeat(np.arange(self.fine.n_nodes), 3)
            cols = self.coarse.triangles[self.child_tri].ravel()
            vals = self.child_bary.ravel()
            keep = vals != 0.0
            P = sparse.csr_matrix(
                (vals[keep], (rows[keep], cols[keep])),
                shape=(self.fine.n_nodes, self.coarse.n_nodes),
            )
            P.sum_duplicates()
            P.sort_indices()
            self._prolongation = P
        return self._prolongation

    def prolongation_interior(self):
        """Prolongation restricted to interior dofs of both meshes."""
        P = self.prolongation_full()
        return P[self.fine.interior_nodes()][:, self.coarse.interior_nodes()].tocsr()

    def fine_tri_to_coarse(self):
        """Index of the coarse triangle containing each fine triangle."""
        if self._fine_tri_to_coarse is None:
            centroids = self.fine.nodes[self.fine.triangles].mean(axis=1)
            tri, _ = _locate_points(self.coarse, centroids)
            self._fine_tri_to_coarse = tri
        return self._fine_tri_to_coarse


def _locate_points(mesh, points):
    """Locate points in a structured criss mesh: (triangle index, barycentric).

    Points exactly on cell edges or diagonals are assigned deterministically
    (lower cell index / lower triangle); barycentric weights within 1e-12 of
    0 or 1 are snapped and the triple renormalized to sum exactly to 1.
    """
    n = mesh.cells_per_side
    sx = mesh.domain.width / n
    sy = mesh.domain.height / n
    fx = (points[:, 0] - mesh.domain.xmin) / sx
    fy = (points[:, 1] - mesh.domain.ymin) / sy
    cx = np.clip(np.floor(fx).astype(np.int64), 0, n - 1)
    cy = np.clip(np.floor(fy).astype(np.int64), 0, n - 1)
    xi = fx - cx
    eta = fy - cy
    # lower triangle (n00,n10,n11) holds eta <= xi, upper (n00,n11,n01) the rest
    lower = eta <= xi
    tri_idx = 2 * (cy * n + cx) + np.where(lower, 0, 1)
    # barycentric on (n00,n10,n11): lam = (1-xi, xi-eta, eta)
    # barycentric on (n00,n11,n01): lam = (1-eta, xi, eta-xi)
    lam = np.empty((points.shape[0], 3))
    lam[lower, 0] = 1.0 - xi[lower]
    lam[lower, 1] = xi[lower] - eta[lower]
    lam[lower, 2] = eta[lower]
    up = ~lower
    lam[up, 0] = 1.0 - eta[up]
    lam[up, 1] = xi[up]
    lam[up, 2] = eta[up] - xi[up]
    lam[np.abs(lam) < 1e-12] = 0.0
    lam[np.abs(lam - 1.0) < 1e-12] = 1.0
    # renormalize so each triple sums exactly to 1
    dominant = np.argmax(lam, axis=1)
    idx = np.arange(lam.shape[0])
    lam[idx, dominant] = 0.0
    lam[idx, dominant] = 1.0 - lam.sum(axis=1)
    return tri_idx, lam


def build_hierarchy(domain, coarse_cells, refinements):
    """Build the coarse mesh, refine it, and locate fine nodes.

    The fine mesh is ``uniform_mesh(domain, coarse_cells * 2**refinements)``,
    so every coarse node is the fine node at the same grid position.
    """
    refinements = int(refinements)
    if refinements < 1:
        raise MeshError(f"refinements must be >= 1, got {refinements}")
    coarse = uniform_mesh(domain, coarse_cells)
    fine = refine(coarse, refinements)
    child_tri, child_bary = _locate_points(coarse, fine.nodes)
    return MeshHierarchy(coarse, fine, refinements, child_tri, child_bary)


def refinement_count(coarse_cells, fine_cells):
    """The r >= 1 with fine_cells = coarse_cells * 2**r (cells per side)."""
    if coarse_cells >= 1:
        r = int(fine_cells // coarse_cells).bit_length() - 1
        if r >= 1 and coarse_cells * 2**r == fine_cells:
            return r
    raise MeshError(
        f"{fine_cells} cells per side is not {coarse_cells} coarse cells "
        f"times a power of two >= 2"
    )


def same_mesh_hierarchy(mesh):
    """Degenerate hierarchy with coarse == fine (the H = h limit case)."""
    # every node is a vertex of its triangle: weight exactly 1 there
    child_tri, child_bary = _locate_points(mesh, mesh.nodes)
    return MeshHierarchy(mesh, mesh, 0, child_tri, child_bary)


def nested_dissection(mesh):
    """Geometric nested-dissection order of a criss mesh's interior dofs.

    The interior dofs are row-major on a (k-1) x (k-1) grid, k = cells per
    side, and each grid line is a vertex separator of the criss mesh
    (its neighbours differ by at most one row and one column).  The grid
    is bisected across its longer side; the two halves are ordered
    recursively and the separator line comes last.  Blocks of at most 16
    dofs keep their natural order.  Returns ``order`` with
    ``order[new] = old``, a permutation of ``range(mesh.n_interior)``.
    """
    side = mesh.cells_per_side - 1
    if mesh.n_interior != side * side:
        raise MeshError("nested dissection needs the interior grid of a criss mesh")
    blocks = []

    def dissect(grid):
        rows, cols = grid.shape
        if grid.size <= _ND_LEAF:
            blocks.append(grid.ravel())
        elif rows >= cols:
            mid = rows // 2
            dissect(grid[:mid])
            dissect(grid[mid + 1 :])
            blocks.append(grid[mid])
        else:
            mid = cols // 2
            dissect(grid[:, :mid])
            dissect(grid[:, mid + 1 :])
            blocks.append(grid[:, mid])

    dissect(np.arange(side * side).reshape(side, side))
    return np.concatenate(blocks)


def export_mesh(mesh, path):
    """Write a plain-text dump: node lines "x y flag", triangle lines "i j k"."""
    with open(path, "w") as fh:
        fh.write(f"# nodes {mesh.n_nodes}\n")
        for (x, y), b in zip(mesh.nodes, mesh.boundary_mask):
            fh.write(f"{float(x)!r} {float(y)!r} {int(b)}\n")
        fh.write(f"# triangles {mesh.n_triangles}\n")
        for i, j, k in mesh.triangles:
            fh.write(f"{i} {j} {k}\n")
