"""LOD space construction: L2-projection constraint, correctors, basis.

The fine-scale space is the kernel of C, the L2 moments of fine interior
hats against coarse interior hats: C = P^T M, with M the interior fine
mass and P the interior prolongation.  The ideal LOD space is its
a-orthogonal complement, spanned by the columns of Y = A^{-1} C^T, where A
is the bilinear-form matrix (stiffness plus potential mass) on the fine
interior dofs.  With the SPD Schur complement S = C Y and the coarse
interior mass M_H, the basis

    B = A^{-1} C^T W,   W = S^{-1} M_H,

satisfies C B = M_H = C P, so the L2 projection of basis function j is
the j-th coarse hat, and the projected operators have the closed forms

    A_lod = B^T A B = M_H W,   M_lod = B^T M B = W^T G W,   G = Y^T M Y.

``compute_correctors`` forms S and G column by column: column j of S is
C y_j and column j of G is C A^{-1} M y_j, with y_j = A^{-1} C^T e_j, so
each coarse dof costs two fine solves.  A symmetry of the problem, index
maps p of the fine and q of the coarse dofs under which A, M and C are
invariant, gives S[q][:, q] = S and G[q][:, q] = G, so only one coarse dof
per orbit of the symmetry group is solved for and the other columns are
copies.  The group is found by testing the symmetries of the criss mesh's
interior grids (``_symmetry_group``); a problem with none gets the group
{id} and solves for every coarse dof.  The solves run in chunks of
``_RHS_CHUNK`` columns and each chunk is dropped once its columns of S and
G are filled, so no n x m array (n fine, m coarse interior dofs) exists.

B is never stored: ``CorrectorBasis`` applies it through the one
factorization of A, so ``B @ c`` and ``B.T @ v`` each cost one sparse
solve.  A space and its cache file hold no array larger than m x m, and
every space is checked (``_check_space``) before it is returned.
"""

import hashlib
import os
import tempfile
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import sparse

from .sparse_linalg import Factorization, spd_solver

__all__ = [
    "CacheMismatchError",
    "ConstraintOperator",
    "CorrectorBasis",
    "LodSpace",
    "build_constraint",
    "compute_correctors",
    "nested_lod_space",
    "plod_project",
    "cache_key",
    "cache_path",
    "save_basis",
    "load_basis",
    "lod_space_cached",
]

_RHS_CHUNK = 256
_CACHE_FORMAT_VERSION = 3
# a grid map is a symmetry when it moves no entry of A, M or C by more than
# this, relative to the largest; the presets' operators move by <= 2.5e-16
_SYMMETRY_RTOL = 1e-13
# on the presets' set-ups a correct space reads 1e-15 to 4e-14 in
# ``_check_space``, and one with two columns of W swapped 6e-3 to 5e-2
_CHECK_RTOL = 1e-10


class CacheMismatchError(RuntimeError):
    """Corrector cache file is corrupted or describes another configuration."""


@dataclass
class ConstraintOperator:
    """L2 moments of fine interior dofs against coarse interior hats.

    C has shape (n_coarse_interior, n_fine_interior) and C v = 0 exactly
    when the fine function v is L2-orthogonal to the coarse space.
    """

    C: sparse.csr_matrix
    coarse_mass: sparse.csr_matrix  # coarse interior mass M_H = C P; fixes the basis scaling


def build_constraint(hierarchy, M):
    """Assemble the constraint operator of a hierarchy from the fine interior
    mass ``M``.

    Products of nested P1 functions are integrated exactly through the fine
    mass: C = P^T M and M_H = C P, with P the interior prolongation.  A fine
    boundary node has no weight on an interior coarse hat, so no full-node
    matrix is needed.
    """
    P = hierarchy.prolongation_interior()
    C = (P.T @ M).tocsr()
    return ConstraintOperator(C, (C @ P).tocsr())


class CorrectorBasis:
    """The n x m LOD basis B = A^{-1} C^T W as an operator.

    ``B @ c`` is one solve with A of C^T (W c), and ``B.T @ v`` is
    W^T C A^{-1} v (A is symmetric); ``c`` and ``v`` may be vectors or
    blocks of columns.  It holds the factorization of A, the sparse C and
    the m x m matrix W, and ``nbytes`` counts their bytes.
    """

    def __init__(self, factor, C, W):
        self.factor = factor
        self.C = C
        self.W = W
        self.shape = (C.shape[1], W.shape[1])

    @property
    def nbytes(self):
        C = self.C
        sparse_C = C.data.nbytes + C.indices.nbytes + C.indptr.nbytes
        return self.factor.nbytes + self.W.nbytes + sparse_C

    def __matmul__(self, c):
        return self.factor.solve(self.C.T @ (self.W @ c))

    @property
    def T(self):
        return _TransposedBasis(self)


class _TransposedBasis:
    """B^T of a ``CorrectorBasis``: v -> W^T C A^{-1} v."""

    def __init__(self, basis):
        self.basis = basis
        self.shape = basis.shape[::-1]

    def __matmul__(self, v):
        B = self.basis
        return B.W.T @ (B.C @ B.factor.solve(v))


@dataclass
class LodSpace:
    """LOD trial space expressed in fine-mesh P1 coordinates.

    ``basis`` is the ``CorrectorBasis`` B: column j (``basis @ e_j``) holds
    the fine interior coefficients of the j-th LOD basis function.  A_lod
    and M_lod are the Galerkin-projected bilinear-form and mass matrices
    B^T A B and B^T M B (dense, since ideal LOD basis functions have global
    support).  ``timings`` records the seconds of the build's stages when
    freshly computed (``compute_correctors``) and of the space's check.
    """

    hierarchy: object
    basis: CorrectorBasis
    A_lod: np.ndarray
    M_lod: np.ndarray
    potential_descriptor: str
    timings: dict = field(default_factory=dict, repr=False)


def _symmetrize(G):
    """Exactly symmetric part of a square dense matrix."""
    return 0.5 * (G + G.T)


def _grid_maps(mesh):
    """Index maps of the transpose, the rotation by 180 degrees and the
    anti-transpose of a criss mesh's row-major interior grid
    (``mesh.nested_dissection``).  Each maps the mesh onto itself, since
    all its diagonals run from lower left to upper right, and each is an
    involution."""
    side = mesh.cells_per_side - 1
    grid = np.arange(side * side).reshape(side, side)
    return [grid.T.ravel(), grid[::-1, ::-1].ravel(), grid[::-1, ::-1].T.ravel()]


def _deviation(X, rows, cols):
    """Largest entry of X[rows][:, cols] - X relative to the largest of X."""
    return abs(X[rows][:, cols] - X).max() / abs(X).max()


def _symmetry_group(hierarchy, ops_fine, C):
    """The maps (p, q) of fine and coarse interior dofs, the identity first,
    under which A, M and C are invariant within ``_SYMMETRY_RTOL``:
    A[p][:, p] = A, M[p][:, p] = M and C[q][:, p] = C.  Invariance composes,
    so the kept maps form a group."""
    m, n = C.shape
    group = [(np.arange(n), np.arange(m))]
    for p, q in zip(_grid_maps(hierarchy.fine), _grid_maps(hierarchy.coarse)):
        pairs = ((ops_fine.A, p, p), (ops_fine.M, p, p), (C, q, p))
        if all(_deviation(X, rows, cols) <= _SYMMETRY_RTOL for X, rows, cols in pairs):
            group.append((p, q))
    return group


def compute_correctors(hierarchy, ops_fine, constraint):
    """Compute the ideal LOD basis and its projected operators.

    ``ops_fine`` must be assembled with the potential that defines the
    bilinear form.  A is factored once, in the nested-dissection order of
    the fine mesh (``ops_fine.ordering``).  The columns of S and G are
    solved for as the module docstring describes, for the representatives
    of the orbits under ``_symmetry_group`` (the smallest index in each),
    ``_RHS_CHUNK`` at a time, then copied to the rest of each orbit.
    ``timings`` holds the seconds of each stage, the group order and the
    number of representatives.
    """
    A = ops_fine.A
    M = ops_fine.M
    C = constraint.C
    n = A.shape[0]
    m = C.shape[0]
    if C.shape[1] != n or (hierarchy.fine.n_interior, hierarchy.coarse.n_interior) != (n, m):
        raise ValueError("hierarchy and operators disagree on dof counts")

    clock = time.perf_counter
    t0 = clock()
    factor = Factorization(A, ops_fine.ordering)
    timings = {"factor_s": clock() - t0, "solves_1_s": 0.0, "solves_2_s": 0.0}
    t0 = clock()
    group = _symmetry_group(hierarchy, ops_fine, C)
    reps = np.flatnonzero(np.min([q for _, q in group], axis=0) == np.arange(m))
    timings["fill_s"] = clock() - t0
    timings["group_order"] = len(group)
    timings["representatives"] = int(reps.size)

    Ct = C.T.tocsc()
    S = np.empty((m, m))
    G = np.empty((m, m))
    for lo in range(0, reps.size, _RHS_CHUNK):
        k = reps[lo : lo + _RHS_CHUNK]
        t0 = clock()
        Y = factor.solve(Ct[:, k])
        S[:, k] = C @ Y
        t1 = clock()
        MY = M @ Y
        del Y  # at most three n x len(k) arrays live at once
        G[:, k] = C @ factor.solve(MY)
        del MY
        timings["solves_1_s"] += t1 - t0
        timings["solves_2_s"] += clock() - t1
    t0 = clock()
    for _, q in group[1:]:
        for X in (S, G):
            X[np.ix_(q, q[reps])] = X[:, reps]
    timings["fill_s"] += clock() - t0

    t0 = clock()
    W, A_lod, M_lod = _closing_step(S, G, constraint.coarse_mass)
    timings["closing_s"] = clock() - t0
    basis = CorrectorBasis(factor, C, W)
    space = LodSpace(hierarchy, basis, A_lod, M_lod, ops_fine.potential.descriptor(), timings)
    return _check_space(space, M, constraint.coarse_mass)


def _check_space(space, M, coarse_mass, error=ArithmeticError):
    """Return ``space`` once one seeded probe confirms it, else raise ``error``.

    For a random c and v = B c (one fine solve), the relative mismatches of
    C v against M_H c, of v^T A v against c^T A_lod c and of v^T M v
    against c^T M_lod c must all be at most ``_CHECK_RTOL``.  Since
    A v = C^T W c, v^T A v is (C v)^T (W c).  This catches a W, A_lod or
    M_lod that does not belong to the space, such as a wrong symmetric
    fill, a wrong derived space or a corrupted cache file.  The seconds go
    to ``space.timings["check_s"]``.
    """
    t0 = time.perf_counter()
    basis = space.basis
    c = np.random.default_rng(0).standard_normal(basis.shape[1])
    Wc = basis.W @ c
    v = basis.factor.solve(basis.C.T @ Wc)
    Cv = basis.C @ v
    target = coarse_mass @ c
    a, mass = c @ space.A_lod @ c, c @ space.M_lod @ c
    mismatch = max(
        np.linalg.norm(Cv - target) / np.linalg.norm(target),
        abs(Cv @ Wc - a) / abs(a),
        abs(v @ (M @ v) - mass) / abs(mass),
    )
    space.timings["check_s"] = time.perf_counter() - t0
    if not mismatch <= _CHECK_RTOL:
        raise error(f"LOD space check: relative mismatch {mismatch:.2e} > {_CHECK_RTOL:g}")
    return space


def _closing_step(S, G, coarse_mass):
    """W = S^{-1} M_H, A_lod = M_H W and M_lod = W^T G W (S = C Y, G = Y^T M Y)."""
    W = spd_solver(_symmetrize(S))(coarse_mass.toarray())
    A_lod = _symmetrize(coarse_mass @ W)
    M_lod = _symmetrize(W.T @ _symmetrize(G) @ W)
    return W, A_lod, M_lod


def nested_lod_space(space, hierarchy, M):
    """The LOD space of ``hierarchy``, whose coarse mesh coarsens that of
    ``space`` over the same fine mesh (``M``: the interior fine mass).

    The spaces are nested: this is the construction above one level up, with
    A_lod and M_lod of ``space`` as A and M and E^T = (C P)^T as C (P the
    interior prolongation of ``hierarchy``), so no fine solve is made but
    the check's.  The basis applies through the factorization of A that
    ``space`` holds.
    """
    if space.hierarchy.coarse.cells_per_side % hierarchy.coarse.cells_per_side:
        raise ValueError("hierarchy does not coarsen the space's coarse mesh")
    constraint = build_constraint(hierarchy, M)
    E = (space.basis.C @ hierarchy.prolongation_interior()).toarray()
    Y = spd_solver(space.A_lod)(E)
    W, A_lod, M_lod = _closing_step(E.T @ Y, Y.T @ space.M_lod @ Y, constraint.coarse_mass)
    basis = CorrectorBasis(space.basis.factor, constraint.C, W)
    derived = LodSpace(hierarchy, basis, A_lod, M_lod, space.potential_descriptor)
    return _check_space(derived, M, constraint.coarse_mass)


def plod_project(space, ops_fine, v_fine):
    """a-orthogonal projection onto the LOD space (coarse-dim coefficients).

    Solves A_lod c = B^T A v; the residual v - B c is a-orthogonal to the
    space by construction, which is verified to 1e-9 relative.
    """
    rhs = space.basis.T @ (ops_fine.A @ np.asarray(v_fine))
    c = spd_solver(space.A_lod)(rhs)
    defect = rhs - space.A_lod @ c
    scale = np.linalg.norm(rhs)
    if scale > 0 and np.linalg.norm(defect) > 1e-9 * scale:
        raise ArithmeticError(
            f"projection residual {np.linalg.norm(defect) / scale:.3e} exceeds 1e-9"
        )
    return c


def cache_key(domain, coarse_cells, refinements, potential_descriptor):
    """Stable hash identifying one corrector configuration."""
    text = "|".join(
        [
            f"v{_CACHE_FORMAT_VERSION}",
            f"{domain.xmin!r},{domain.xmax!r},{domain.ymin!r},{domain.ymax!r}",
            str(int(coarse_cells)),
            str(int(refinements)),
            potential_descriptor,
        ]
    )
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def cache_path(cache_dir, hierarchy, potential_descriptor):
    """Cache file in ``cache_dir`` of the correctors of ``hierarchy`` under
    the potential with ``potential_descriptor``."""
    coarse = hierarchy.coarse
    key = cache_key(
        coarse.domain, coarse.cells_per_side, hierarchy.refinements, potential_descriptor
    )
    return Path(cache_dir) / f"correctors_{key}.npz"


def save_basis(space, path):
    """Persist W and the projected operators with a validating header.

    The file is written under a temporary name in the same directory and
    renamed onto ``path``, so a reader never sees a partial file and a
    failed write leaves any previous file in place.
    """
    path = Path(path)
    h = space.hierarchy
    dom = h.coarse.domain
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".npz")
    try:
        with os.fdopen(fd, "wb") as fh:
            np.savez(
                fh,
                format_version=np.int64(_CACHE_FORMAT_VERSION),
                domain=np.array([dom.xmin, dom.xmax, dom.ymin, dom.ymax]),
                coarse_cells=np.int64(h.coarse.cells_per_side),
                refinements=np.int64(h.refinements),
                potential=np.array(space.potential_descriptor),
                W=space.basis.W,
                A_lod=space.A_lod,
                M_lod=space.M_lod,
            )
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def load_basis(path, hierarchy, ops_fine):
    """Load a cached LodSpace, validating the header before reuse.

    The file holds W, A_lod and M_lod; A (from ``ops_fine``) is factored
    again and C rebuilt to apply the basis.  A file whose matrices fail the
    space's check (``_check_space``) raises ``CacheMismatchError``, as a
    mismatched header does.
    """
    potential_descriptor = ops_fine.potential.descriptor()
    try:
        with np.load(path) as data:
            if int(data["format_version"]) != _CACHE_FORMAT_VERSION:
                raise CacheMismatchError("cache format version mismatch")
            dom = hierarchy.coarse.domain
            expected = np.array([dom.xmin, dom.xmax, dom.ymin, dom.ymax])
            if (
                not np.array_equal(data["domain"], expected)
                or int(data["coarse_cells"]) != hierarchy.coarse.cells_per_side
                or int(data["refinements"]) != hierarchy.refinements
                or str(data["potential"]) != potential_descriptor
            ):
                raise CacheMismatchError("cache header does not match the configuration")
            W = data["W"]
            A_lod = data["A_lod"]
            M_lod = data["M_lod"]
    except CacheMismatchError:
        raise
    except Exception as exc:
        raise CacheMismatchError(f"unreadable corrector cache: {exc}") from exc
    m = hierarchy.coarse.n_interior
    if any(G.shape != (m, m) for G in (W, A_lod, M_lod)):
        raise CacheMismatchError(f"cached matrices are not {m} x {m}")
    constraint = build_constraint(hierarchy, ops_fine.M)
    basis = CorrectorBasis(Factorization(ops_fine.A, ops_fine.ordering), constraint.C, W)
    space = LodSpace(hierarchy, basis, A_lod, M_lod, potential_descriptor)
    return _check_space(space, ops_fine.M, constraint.coarse_mass, CacheMismatchError)


def lod_space_cached(hierarchy, ops_fine, cache_dir=None):
    """Build the LOD space, reusing a disk cache when available.

    Returns (space, cache_hit).  With ``cache_dir`` None nothing is read or
    written.  A corrupted or mismatched cache file is ignored and
    overwritten.
    """
    path = None
    if cache_dir is not None:
        path = cache_path(cache_dir, hierarchy, ops_fine.potential.descriptor())
        if path.exists():
            try:
                return load_basis(path, hierarchy, ops_fine), True
            except CacheMismatchError as exc:
                warnings.warn(f"rebuilding correctors, cache at {path} unusable: {exc}")
    constraint = build_constraint(hierarchy, ops_fine.M)
    space = compute_correctors(hierarchy, ops_fine, constraint)
    if path is not None:
        path.parent.mkdir(parents=True, exist_ok=True)
        save_basis(space, path)
    return space, False
