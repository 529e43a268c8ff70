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

    A_lod = B^T A B = M_H W,   M_lod = B^T M B = W^T (Y^T M Y) W.

B is never stored: ``CorrectorBasis`` applies it through the one
factorization of A, so ``B @ c`` and ``B.T @ v`` each cost one sparse
solve.  Y exists only inside ``compute_correctors``; a space and its
cache file hold no array larger than m x m (m coarse interior dofs).
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
    support).  ``timings`` records the factorization and corrector solve
    seconds when freshly computed.
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


def compute_correctors(hierarchy, ops_fine, constraint):
    """Compute the ideal LOD basis and its projected operators.

    ``ops_fine`` must be assembled with the potential that defines the
    bilinear form.  A is factored once, in the nested-dissection order of
    the fine mesh (``ops_fine.ordering``).  Y = A^{-1} C^T is solved in
    column chunks, then S = C Y and, chunk by chunk, G = Y^T M Y; then
    W = S^{-1} M_H, A_lod = M_H W and M_lod = W^T G W (see the module
    docstring), and Y is dropped: the returned basis applies B through the
    factorization.
    """
    A = ops_fine.A
    C = constraint.C
    n = A.shape[0]
    m = C.shape[0]
    if C.shape[1] != n or (hierarchy.fine.n_interior, hierarchy.coarse.n_interior) != (n, m):
        raise ValueError("hierarchy and operators disagree on dof counts")

    timings = {}
    t0 = time.perf_counter()
    factor = Factorization(A, ops_fine.ordering)
    timings["factor_s"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    Ct = C.T.tocsc()
    Y = np.empty((n, m))
    chunks = [(lo, min(lo + _RHS_CHUNK, m)) for lo in range(0, m, _RHS_CHUNK)]
    for lo, hi in chunks:
        Y[:, lo:hi] = factor.solve(Ct[:, lo:hi])
    S = C @ Y
    G = np.empty((m, m))
    for lo, hi in chunks:  # M Y one chunk at a time, never n x m at once
        G[:, lo:hi] = Y.T @ (ops_fine.M @ Y[:, lo:hi])
    del Y
    W, A_lod, M_lod = _closing_step(S, G, constraint.coarse_mass)
    timings["solve_s"] = time.perf_counter() - t0
    basis = CorrectorBasis(factor, C, W)
    return LodSpace(hierarchy, basis, A_lod, M_lod, ops_fine.potential.descriptor(), timings)


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
    interior prolongation of ``hierarchy``), so no fine solve is made.  The
    basis applies through the factorization of A that ``space`` holds.
    """
    if space.hierarchy.coarse.cells_per_side % hierarchy.coarse.cells_per_side:
        raise ValueError("hierarchy does not coarsen the space's coarse mesh")
    constraint = build_constraint(hierarchy, M)
    E = (space.basis.C @ hierarchy.prolongation_interior()).toarray()
    Y = spd_solver(space.A_lod)(E)
    W, A_lod, M_lod = _closing_step(E.T @ Y, Y.T @ space.M_lod @ Y, constraint.coarse_mass)
    basis = CorrectorBasis(space.basis.factor, constraint.C, W)
    return LodSpace(hierarchy, basis, A_lod, M_lod, space.potential_descriptor)


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
    again and C rebuilt to apply the basis.
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
    C = build_constraint(hierarchy, ops_fine.M).C
    basis = CorrectorBasis(Factorization(ops_fine.A, ops_fine.ordering), C, W)
    return LodSpace(hierarchy, basis, A_lod, M_lod, potential_descriptor)


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
