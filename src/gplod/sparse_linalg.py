"""The sparse direct factorization used by the solvers.

Matrices are scipy CSR, assembled by ``fem_core``.  Every matrix the
library factors is symmetric positive definite, and the one sparse
factorization is SuperLU without pivoting in a caller-given symmetric
ordering (the nested-dissection order of the mesh's interior dofs,
``mesh.nested_dissection``).  It is reused across many right-hand sides.
``spd_solver`` is the one way the library gets a solve for an SPD matrix,
sparse or dense; only the LOD basis, which reports the bytes of its
factor, keeps a ``Factorization`` itself.
"""

import numpy as np
from scipy import linalg as dense_linalg
from scipy import sparse
from scipy.sparse import linalg as sparse_linalg

__all__ = [
    "SingularMatrixError",
    "Factorization",
    "spd_solver",
]

# relative threshold below which a pivot counts as non-positive
_PIVOT_RTOL = 1e-14


class SingularMatrixError(ArithmeticError):
    """Matrix is singular or not positive definite (a pivot <= 0)."""


class Factorization:
    """Factorization of a sparse symmetric positive definite matrix.

    ``ordering`` is a permutation of the rows (``ordering[new] = old``);
    SuperLU factors A[ordering][:, ordering] in that order with no
    pivoting.  A symmetric matrix whose elimination needs no row
    interchange and has every pivot > ``_PIVOT_RTOL`` times the largest
    entry is positive definite (Sylvester's law of inertia on A = L D L^T);
    anything else raises ``SingularMatrixError``.  Solves are reusable for
    many right-hand sides (1D or stacked columns) without refactoring;
    safe for concurrent solves on distinct buffers.
    """

    def __init__(self, A, ordering):
        A = sparse.csc_matrix(A)
        n = A.shape[0]
        if A.shape[1] != n:
            raise ValueError(f"matrix not square: {A.shape}")
        pattern = A != 0
        if (pattern != pattern.T).nnz != 0:
            raise ValueError("matrix not structurally symmetric")
        order = np.asarray(ordering, dtype=np.intp)
        if order.shape != (n,) or not np.array_equal(np.sort(order), np.arange(n)):
            raise ValueError(f"ordering is not a permutation of range({n})")
        self.shape = A.shape
        scale = abs(A).max() if A.nnz else 0.0
        if scale == 0.0:
            raise SingularMatrixError("zero matrix")
        try:
            self._lu = sparse_linalg.splu(
                A[order][:, order],
                permc_spec="NATURAL",
                diag_pivot_thresh=0.0,
                options={"SymmetricMode": True},
            )
        except RuntimeError as exc:  # SuperLU signals exact singularity this way
            raise SingularMatrixError(str(exc)) from exc
        if not np.array_equal(self._lu.perm_r, np.arange(n)):
            raise SingularMatrixError(
                "matrix is not positive definite: a zero pivot forced a row interchange"
            )
        pivots = self._lu.U.diagonal()
        if pivots.min() <= _PIVOT_RTOL * scale:
            raise SingularMatrixError(
                f"matrix is not positive definite: pivot {pivots.min():.3e} "
                f"(matrix scale {scale:.3e})"
            )
        self._order = order

    @property
    def nbytes(self):
        """Bytes held: SuperLU's stored entries (8-byte values, 4-byte
        indices), the CSC copies of L and U that reading the pivots made
        scipy build and cache together on the factor, and the ordering."""
        copies = sum(
            X.data.nbytes + X.indices.nbytes + X.indptr.nbytes
            for X in (self._lu.L, self._lu.U)  # the cached copies, not new ones
        )
        return 12 * int(self._lu.nnz) + copies + self._order.nbytes

    def solve(self, b):
        """Solution of A x = b for a vector or a block of columns.

        ``b`` may also be a sparse matrix; it is permuted before it is made
        dense, which saves a dense copy.
        """
        if not sparse.issparse(b):
            b = np.asarray(b, dtype=float)
        if b.shape[0] != self.shape[0]:
            raise ValueError(f"rhs length {b.shape[0]} != {self.shape[0]}")
        if sparse.issparse(b):
            x = sparse.csr_matrix(b)[self._order].toarray()
        else:
            x = b[self._order]
        # x is a fresh array that the solve copies: reuse it for the result
        x[self._order] = self._lu.solve(x)
        return x


def spd_solver(H, ordering=None):
    """Solve callable ``rhs -> H^{-1} rhs`` for a symmetric positive definite H.

    A sparse H gets its ``Factorization`` in ``ordering``; a dense H gets a
    dense Cholesky factorization and ``ordering`` is unused.  Either raises
    ``SingularMatrixError`` for an H that is not positive definite.  The
    dense factorization rejects a non-finite H once; each solve then checks
    only its rhs (ValueError on an inf or NaN), not the m x m factor again.
    """
    if sparse.issparse(H):
        return Factorization(H, ordering).solve
    try:
        factor = dense_linalg.cho_factor(H)
    except dense_linalg.LinAlgError as exc:
        raise SingularMatrixError(f"matrix is not positive definite: {exc}") from exc
    return lambda rhs: dense_linalg.cho_solve(
        factor, np.asarray_chkfinite(rhs), check_finite=False
    )
